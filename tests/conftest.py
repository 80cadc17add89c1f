"""Shared helpers: the shipped `paper.alg` bound once per (k, hbar), the
contraction pairs of a bound catalog, and sparse Laurent polynomials
({exponent: GR}) as references for the dense `LaurentPoly`.

Import them with `from conftest import ...`; pytest puts this directory on
the import path."""

import functools
import importlib.resources
import math
from fractions import Fraction

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
    im = p.im or [0] * len(p.re)
    return {p.lo + j: GR(Fraction(a, p.q), Fraction(b, p.q))
            for j, (a, b) in enumerate(zip(p.re, im)) if a or b}


def dense(coeffs):
    """The LaurentPoly with the coefficients {exponent: GR}."""
    if not coeffs:
        return LaurentPoly.make(0, [], None, 1)
    lo = min(coeffs)
    q = math.lcm(*(v.q for v in coeffs.values()))
    re = [0] * (max(coeffs) - lo + 1)
    im = [0] * len(re)
    for e, v in coeffs.items():
        re[e - lo], im[e - lo] = v.a * (q // v.q), v.b * (q // v.q)
    return LaurentPoly.make(lo, re, im, q)


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
    """Product of {exponent: GR} polynomials, term by term in the order of
    a and then b.  Each exponent sits where the product first meets it; a
    sum that cancels drops out and comes back at the end."""
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            _accumulate(out, e1 + e2, v1 * v2)
    return out
