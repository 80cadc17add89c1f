"""Shared helpers: the shipped `paper.alg` bound once per (k, hbar), the
analysis of its declared E-F commutator, two files that declare one
function two ways, the contraction pairs of a bound catalog, and sparse
Laurent polynomials
({exponent: GR}) as references for the dense `LaurentPoly`.

Import them with `from conftest import ...`; pytest puts this directory on
the import path."""

import functools
import importlib.resources
import math
from fractions import Fraction

from coset_forge.algebra import ef_commutator_analysis
from coset_forge.dsl import parse_definitions
from coset_forge.exact import GR, LaurentPoly


def shipped_text() -> str:
    res = importlib.resources.files("coset_forge") / "data" / "paper.alg"
    return res.read_text()


@functools.cache
def _shipped_definitions():
    return parse_definitions(shipped_text())


@functools.cache
def bind_shipped(k, hbar=1):
    """(params, catalog, {relation id: relation}, commutators) of the
    shipped file bound at level k and deformation hbar.  The result is
    shared between tests: build a Relation of your own rather than change
    one, and bind a fresh copy to mutate a catalog."""
    params, cat, rels, comms, _ = _shipped_definitions().bind(
        Fraction(k), [Fraction(hbar)])
    return params, cat, {r.rel_id: r for r in rels}, comms


def shipped_commutator(k, hbar=1):
    """ef_commutator_analysis of the shipped file's one commutator_delta
    declaration, bound at level k and deformation hbar."""
    _, cat, _, (cm,) = bind_shipped(k, hbar)
    return ef_commutator_analysis(cat, *cm["pair"], cm["poles"], cm["residues"])


# twin files: Y is X shifted by 1/3 in one and the same function declared
# with its tilt 1/6 + 1/3 in the other; the relation holds in both
_TWIN_SHIFTED = """\
params { k = 1; hbar = 1; }
kernel p { sign = +1; slope = 1/2; }
current X on p {
  pos: 1 * hbar * exp((1/6)*h*t) / sinh(1*h*t);
  neg: 1 * hbar * exp((1/6)*h*t) / sinh(1*h*t);
}
current Y = X@(1/3);
relation y_y : Y(u) Y(v) == Gamma(-x@2 + 1/4) * Gamma(-x@2 + 3/4)^-1
    * Gamma(x@2 + 1/4)^-1 * Gamma(x@2 + 3/4) * Y(v) Y(u);
"""


def tilt_twins() -> tuple[str, str]:
    """The texts of the twin files (shifted, declared)."""
    declared = _TWIN_SHIFTED.replace("current Y = X@(1/3);", """\
current Y on p {
  pos: 1 * hbar * exp((1/2)*h*t) / sinh(1*h*t);
  neg: 1 * hbar * exp((1/2)*h*t) / sinh(1*h*t);
}""")
    assert declared != _TWIN_SHIFTED
    return _TWIN_SHIFTED, declared


def contraction_pairs(cat):
    """(label, family, f, g, kernel) for every ordered term pair of a bound
    catalog that shares a kernel family, with the left exponent carrying a
    t>0 branch and the right one a t<0 branch; the label reads
    `A[i].B[j].family` for term i of current A and term j of current B."""
    out = []
    for a, ca in cat.currents.items():
        for b, cb in cat.currents.items():
            for ia, ta in enumerate(ca.terms):
                for ib, tb in enumerate(cb.terms):
                    for fam, K in cat.kernels.items():
                        f, g = ta.exponents.get(fam), tb.exponents.get(fam)
                        if f is None or g is None:
                            continue
                        if not (f.positive_branch and g.negative_branch):
                            continue
                        out.append((f"{a}[{ia}].{b}[{ib}].{fam}", fam, f, g, K))
    return out


def gamma_factors(sf):
    """The Gamma factors of a StructureFunction as {(scale GR, shift
    Fraction): exponent}, in the order of `sf.gammas`, whose keys are the
    integer tuples (a, b, q, n, d) for scale (a + b*i)/q and shift n/d."""
    return {(GR(Fraction(a, q), Fraction(b, q)), Fraction(n, d)): e
            for (a, b, q, n, d), e in sf.gammas.items()}


def linear_factors(sf):
    """The linear factors of a StructureFunction as {rho GR: exponent}, in
    the order of `sf.linears`, whose keys are the integer triples (a, b, q)
    for rho = (a + b*i)/q."""
    return {GR(Fraction(a, q), Fraction(b, q)): e
            for (a, b, q), e in sf.linears.items()}


def sparse(p):
    """The nonzero coefficients of a LaurentPoly as {exponent: GR},
    exponents ascending."""
    return {e: GR(Fraction(c, p.q)) for e, c in p.terms()}


def dense(coeffs):
    """The LaurentPoly with the real coefficients {exponent: GR}."""
    if not coeffs:
        return LaurentPoly.make(0, [], 1)
    assert not any(v.b for v in coeffs.values()), "LaurentPoly is rational"
    lo = min(coeffs)
    q = math.lcm(*(v.q for v in coeffs.values()))
    out = [0] * (max(coeffs) - lo + 1)
    for e, v in coeffs.items():
        out[e - lo] = v.a * (q // v.q)
    return LaurentPoly.make(lo, out, q)


def _accumulate(out, e, v):
    s = out.get(e, GR()) + v
    if s:
        out[e] = s
    else:
        out.pop(e, None)


def sparse_add(a, b):
    """Sum of {exponent: GR} polynomials; a coefficient that cancels drops
    out."""
    out = dict(a)
    for e, v in b.items():
        _accumulate(out, e, v)
    return out


def sparse_mul(a, b):
    """Product of {exponent: GR} polynomials; a coefficient that cancels
    drops out."""
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            _accumulate(out, e1 + e2, v1 * v2)
    return out
