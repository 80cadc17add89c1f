"""Current catalog and relation verification.

Holds the named currents of a bound definition file (the `.alg` format, see
dsl), derives every pairwise exchange structure function from the Heisenberg
kernels, and checks the declared relation set: Gamma-product exchange
relations of the intermediate fields, the rational relations of the current
algebra with center (after a global Wick rotation hbar -> -i hbar of the
derived structure functions), the pole/residue structure of the E-F
commutator, and the hbar -> 0 degeneration to fractional-power braiding.

Everything is derived in the hyperbolic regime, where all contraction
integrals converge absolutely; rotated statements are obtained by rotating
the closed forms, which is the analytic continuation of the whole identity.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .contraction import StructureFunction, closed_form, contract, quad_eval
from .errors import (CosetForgeError, DivergenceMismatch, NonConvergent,
                     NonTelescoping, NoRotationSector, ResidueMismatch,
                     UnexpectedPole)
from .exact import GR, _raw, as_fraction
from .modes import (AlgebraParams, ExpTrigTerm, Kernel, ModeFunction,
                    _read_only, _set, equals as modes_equal, shift_argument)

__all__ = [
    "Current", "Catalog", "NormalOrderedTerm", "Relation", "ClassicalBraid",
    "VerificationReport", "verify_relation", "ef_commutator_analysis",
    "classical_limit", "default_grid",
]


class NormalOrderedTerm:
    """Scalar prefactor (coeff * hbar^power) times one normal-ordered
    exponential, with one exponent mode function per kernel family."""

    __slots__ = ("coeff", "hbar_power", "exponents")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, coeff: GR, hbar_power: int,
                 exponents: dict[str, ModeFunction]):
        _set(self, "coeff", coeff)
        _set(self, "hbar_power", hbar_power)
        _set(self, "exponents", exponents)

    def families(self):
        return sorted(self.exponents)


class Current:
    __slots__ = ("name", "terms")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, name: str, terms: tuple[NormalOrderedTerm, ...]):
        _set(self, "name", name)
        _set(self, "terms", terms)

    def exponent(self, family: str) -> ModeFunction:
        """Single-term convenience accessor."""
        if len(self.terms) != 1:
            raise ValueError(f"current {self.name} is composite")
        return self.terms[0].exponents[family]


# ---------------------------------------------------------------------------
# the catalog

class Catalog:
    def __init__(self, params: AlgebraParams):
        self.params = params
        self.kernels: dict[str, Kernel] = {}
        self.currents: dict[str, Current] = {}
        # the kernel family the "c-sector" rotation mode rotates
        self.rotation_sector: str | None = None
        self._cf_cache: dict = {}
        # log Gamma values by complex argument, shared by the grid
        # evaluations of every relation checked on this catalog
        self._lg_memo: dict[complex, complex] = {}

    def __getitem__(self, name: str) -> Current:
        return self.currents[name]

    # -- structure-function machinery --------------------------------------
    def _single_pair_closed(self, fam: str, tf: ExpTrigTerm, tg: ExpTrigTerm):
        key = (fam, tf, tg)
        hit = self._cf_cache.get(key)
        if hit is None:
            mf = ModeFunction([tf], [])
            mg = ModeFunction([], [tg])
            I = contract(mf, mg, self.kernels[fam], self.params)
            hit = (closed_form(I, self.params), I.log_divergence_coeff)
            self._cf_cache[key] = hit
        return hit

    def closed_contraction(self, fam: str, f: ModeFunction, g: ModeFunction
                           ) -> tuple[StructureFunction, Fraction]:
        """exp<f(u) g(v)> over one family as a structure function, assembled
        bilinearly so every sub-contraction keeps its minimal family order
        (Gamma scale); returns the total 1/t coefficient as well."""
        sf = StructureFunction.one()
        a = Fraction(0)
        for tf in f.positive_branch:
            for tg in g.negative_branch:
                s, ai = self._single_pair_closed(fam, tf, tg)
                sf = sf * s
                a += ai
        return sf, a

    def term_pair_factors(self, ta: NormalOrderedTerm, tb: NormalOrderedTerm
                          ) -> dict[str, StructureFunction]:
        """Per-family exchange factors S_fam with the product over families
        giving A_term(u) B_term(v) = prod S_fam * B_term(v) A_term(u)."""
        out = {}
        for fam in self.kernels:
            fa = ta.exponents.get(fam)
            fb = tb.exponents.get(fam)
            if fa is None or fb is None:
                continue
            s_f, a_f = self.closed_contraction(fam, fa, fb)
            s_r, a_r = self.closed_contraction(fam, fb, fa)
            if a_f != a_r:
                raise DivergenceMismatch(
                    f"family {fam}: 1/t coefficients {a_f} vs {a_r}")
            out[fam] = s_f * s_r.negate_w().inverse()
        return out

    def pair_exchange(self, a: Current, b: Current, rotate: str = "none"
                      ) -> list[StructureFunction]:
        """Exchange factors of every term pair of two (possibly composite)
        currents, rotation mode applied."""
        if rotate == "c-sector" and self.rotation_sector is None:
            raise NoRotationSector(
                "c-sector rotation needs a rotation sector; the definition "
                "file has no 'rotate_sector' line")
        out = []
        for ta in a.terms:
            for tb in b.terms:
                fac = self.term_pair_factors(ta, tb)
                out.append(_apply_rotation(fac, rotate, self.rotation_sector))
        return out

    def forward_structure(self, ta: NormalOrderedTerm, tb: NormalOrderedTerm
                          ) -> StructureFunction:
        """Product over families of exp<A_term(u) B_term(v)> closed forms."""
        sf = StructureFunction.one()
        for fam in self.kernels:
            fa, fb = ta.exponents.get(fam), tb.exponents.get(fam)
            if fa is None or fb is None:
                continue
            sf = sf * self.closed_contraction(fam, fa, fb)[0]
        return sf

    def reversed_structure(self, ta: NormalOrderedTerm, tb: NormalOrderedTerm
                           ) -> StructureFunction:
        """exp<B_term(v) A_term(u)> re-expressed as a function of w = u - v."""
        sf = StructureFunction.one()
        for fam in self.kernels:
            fa, fb = ta.exponents.get(fam), tb.exponents.get(fam)
            if fa is None or fb is None:
                continue
            sf = sf * self.closed_contraction(fam, fb, fa)[0]
        return sf.negate_w()


def _apply_rotation(factors: dict[str, StructureFunction], mode: str,
                    sector: str) -> StructureFunction:
    """Product of the per-family factors, each Wick-rotated where the mode
    asks: every family under "global", the designated sector under
    "c-sector", none under "none"."""
    if mode not in ("none", "global", "c-sector"):
        raise ValueError(f"unknown rotation mode {mode!r}")
    total = StructureFunction.one()
    for fam, sf in factors.items():
        if mode == "global" or (mode == "c-sector" and fam == sector):
            sf = sf.wick_rotate()
        total = total * sf
    return total


# ---------------------------------------------------------------------------
# relations

class Relation:
    __slots__ = ("rel_id", "kind", "left_pair", "right_pair", "left_factor",
                 "right_factor", "rotate", "tolerance", "note")

    def __init__(self, rel_id: str, kind: str, left_pair: tuple[str, str],
                 right_pair: tuple[str, str],
                 left_factor: StructureFunction | None = None,
                 right_factor: StructureFunction | None = None,
                 rotate: str = "none", tolerance: float = 1e-8,
                 note: str = ""):
        self.rel_id = rel_id
        self.kind = kind    # "exchange" | "shape" | "commutator-delta"
        self.left_pair = left_pair
        self.right_pair = right_pair
        # an omitted factor is the constant one
        self.left_factor = (StructureFunction.one() if left_factor is None
                            else left_factor)
        self.right_factor = (StructureFunction.one() if right_factor is None
                             else right_factor)
        self.rotate = rotate
        self.tolerance = tolerance
        self.note = note


class ClassicalBraid:
    __slots__ = ("alpha", "beta", "k", "branch")

    def __init__(self, alpha: int, beta: int, k: Fraction,
                 branch: str = "upper"):
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self.branch = branch    # evaluation half-plane Im w > 0

    @property
    def exponent(self) -> Fraction:
        return Fraction(2 * self.alpha * self.beta) / self.k

    def ratio(self, w: complex) -> complex:
        """Braiding phase [w / (-w)]^{2 a b / k} on principal branches,
        evaluated in the upper half-plane."""
        q = float(self.exponent)
        return cmath.exp(q * (cmath.log(w) - cmath.log(-w)))


class VerificationReport:
    __slots__ = ("rel_id", "kind", "passed", "symbolic_pass", "max_rel_err",
                 "grid", "residuals", "derived_factor", "expected_factor",
                 "poles", "residue_ops", "limit_fit", "notes")

    def __init__(self, rel_id: str, kind: str, passed: bool,
                 symbolic_pass: bool | None, max_rel_err: float,
                 grid: list[complex] | None = None,
                 residuals: list[float] | None = None,
                 derived_factor: str = "", expected_factor: str = "",
                 poles: list[dict] | None = None,
                 residue_ops: list[dict] | None = None,
                 limit_fit: dict | None = None,
                 notes: list[str] | None = None):
        self.rel_id = rel_id
        self.kind = kind
        self.passed = passed
        self.symbolic_pass = symbolic_pass
        self.max_rel_err = max_rel_err
        # omitted containers start empty, one new container per report
        self.grid = [] if grid is None else grid
        self.residuals = [] if residuals is None else residuals
        self.derived_factor = derived_factor
        self.expected_factor = expected_factor
        self.poles = [] if poles is None else poles
        self.residue_ops = [] if residue_ops is None else residue_ops
        self.limit_fit = {} if limit_fit is None else limit_fit
        self.notes = [] if notes is None else notes


def default_grid(params: AlgebraParams, n: int = 25,
                 lo: float = 0.1, hi: float = 10.0,
                 avoid: list[complex] | None = None) -> list[complex]:
    """Deterministic evaluation grid: log-spaced moduli scaled by
    hbar*max(1,k), phases cycling through the open lower half-plane (all
    derived factors have their poles and branch points on the axes)."""
    hbar = params.hbar_float
    scale = hbar * max(1.0, float(params.k))
    phases = (-0.45, -1.25, -1.85, -2.65)
    pts = []
    for j in range(n):
        r = lo * (hi / lo) ** (j / max(n - 1, 1)) * scale
        w = r * cmath.exp(1j * phases[j % len(phases)])
        if avoid:
            while any(abs(w - p) < 1e-3 * scale for p in avoid):
                w *= cmath.exp(0.07j)
        pts.append(w)
    return pts


def _grid_check(factors: list[StructureFunction], target: StructureFunction,
                grid: list[complex], hbar: float, memo: dict
                ) -> tuple[list[float], float, int]:
    """Worst |sf - target| / |target| over `factors` at each grid point, the
    largest finite one, and the number of points where some factor or the
    target failed to evaluate.  A failed point stays NaN in the per-point
    list and is counted, so it cannot drop out of the maximum unnoticed.
    The target is evaluated once per point, and not at all without factors."""
    if not factors:
        return [0.0] * len(grid), 0.0, 0
    worst_at = []
    for w in grid:
        worst = 0.0
        try:
            b = target.eval(w, hbar, memo)
            scale = max(abs(b), 1e-300)
            for sf in factors:
                r = abs(sf.eval(w, hbar, memo) - b) / scale
                if r > worst:
                    worst = r
        except (CosetForgeError, ArithmeticError, ValueError):
            worst = float("nan")
        worst_at.append(worst)
    failed = sum(1 for r in worst_at if math.isnan(r))
    worst = max((r for r in worst_at if not math.isnan(r)), default=0.0)
    return worst_at, worst, failed


def verify_relation(cat: Catalog, rel: Relation, grid: list[complex] | None = None,
                    tolerance: float | None = None) -> VerificationReport:
    """Check an exchange or shape relation on every term pair.

    Exchange: left_factor * S_ab == right_factor for all pairs, symbolically
    (Gamma-multiset identity after normalization) and pointwise on the grid.
    Shape: all S_ab agree with each other; the shared factor is reported.
    """
    tol = tolerance if tolerance is not None else rel.tolerance
    a = cat[rel.left_pair[0]]
    b = cat[rel.left_pair[1]]
    try:
        factors = cat.pair_exchange(a, b, rotate=rel.rotate)
    except NonTelescoping:
        return _verify_numeric_only(cat, rel, tol)
    hbar = cat.params.hbar_float
    if grid is None:
        avoid = []
        for sf in factors[:1]:
            avoid += [p for p, _ in sf.normalize().rational_poles(hbar)]
        grid = default_grid(cat.params, avoid=avoid)

    report = VerificationReport(rel.rel_id, rel.kind, False, None, 0.0, grid=grid)
    if rel.note:
        report.notes.append(rel.note)

    if rel.kind == "exchange":
        target = rel.right_factor * rel.left_factor.inverse()
        report.expected_factor = target.normalize().describe()
        report.derived_factor = factors[0].describe()
        sym = all((sf * target.inverse()).normalize().is_one() for sf in factors)
        residuals, worst, failed = _grid_check(factors, target, grid, hbar,
                                               cat._lg_memo)
        report.symbolic_pass = sym
        report.residuals = residuals
        report.max_rel_err = worst
        report.passed = sym and worst <= tol and not failed
    elif rel.kind == "shape":
        base = factors[0]
        report.derived_factor = base.describe()
        sym = all((sf * base.inverse()).normalize().is_one() for sf in factors[1:])
        residuals, worst, failed = _grid_check(factors[1:], base, grid, hbar,
                                               cat._lg_memo)
        report.symbolic_pass = sym
        report.residuals = residuals
        report.max_rel_err = worst
        report.passed = sym and worst <= tol and not failed
        if rel.right_factor is not None and not rel.right_factor.is_one():
            ok = (base * rel.right_factor.inverse()).normalize().is_one()
            report.expected_factor = rel.right_factor.describe()
            report.passed = report.passed and ok
            if not ok:
                report.notes.append("derived shared factor differs from declared one")
    else:
        raise ValueError(f"verify_relation cannot handle kind {rel.kind!r}")
    if failed:
        report.notes.append(f"{failed} of {len(grid)} grid points failed to evaluate")
    return report


# ---------------------------------------------------------------------------
# E-F commutator pole and residue analysis

def _verify_numeric_only(cat: Catalog, rel: Relation, tol: float
                         ) -> VerificationReport:
    """Pure-quadrature relation check for integrands whose series families do
    not reduce to Gamma factors.  Both orderings are integrated directly, so
    every grid point must lie in the intersection of the forward strip and
    the reflected reversed strip; an empty intersection (or a rotated
    relation, which has no convergent integral representation) is reported
    as unverifiable."""
    report = VerificationReport(rel.rel_id, rel.kind, False, None, float("nan"))
    report.notes.append("closed form does not telescope; quadrature-only check")
    if rel.rotate != "none":
        report.notes.append("rotated relations cannot be checked by quadrature")
        return report
    params = cat.params
    hbar = params.hbar_float
    a, b = cat[rel.left_pair[0]], cat[rel.left_pair[1]]

    def pair_integrands(ta, tb):
        out = []
        for fam in cat.kernels:
            fa, fb = ta.exponents.get(fam), tb.exponents.get(fam)
            if fa is None or fb is None:
                continue
            fwd = contract(fa, fb, cat.kernels[fam], params)
            rev = contract(fb, fa, cat.kernels[fam], params)
            if fwd.log_divergence_coeff != rev.log_divergence_coeff:
                raise DivergenceMismatch(
                    f"family {fam}: 1/t coefficients differ")
            out.append((fwd, rev))
        return out

    pairs = [(ta, tb) for ta in a.terms for tb in b.terms]
    integrands = [pair_integrands(ta, tb) for ta, tb in pairs]
    lo, hi = float("-inf"), float("inf")
    for fams in integrands:
        for fwd, rev in fams:
            if not fwd.is_zero():
                hi = min(hi, -fwd.strip_bound(hbar))
            if not rev.is_zero():
                lo = max(lo, rev.strip_bound(hbar))
    if not lo < hi:
        report.notes.append(
            "forward and reversed convergence strips do not overlap; the "
            "relation holds only as analytic continuation")
        return report
    mid = 0.5 * (max(lo, -4.0 * hbar) + min(hi, 4.0 * hbar))
    grid = [complex(-2.0 * hbar + 4.0 * hbar * j / 9, mid) for j in range(10)]
    report.grid = grid

    def s_num(fams, w):
        total = 0j
        for fwd, rev in fams:
            if not fwd.is_zero():
                total += quad_eval(fwd, w, params)
            if not rev.is_zero():
                total -= quad_eval(rev, -w, params)
        return cmath.exp(total)

    target = rel.right_factor * rel.left_factor.inverse()
    residuals = []
    for w in grid:
        worst = 0.0
        base = None
        for fams in integrands:
            val = s_num(fams, w)
            if rel.kind == "exchange":
                ref = target.eval(w, hbar)
                worst = max(worst, abs(val - ref) / max(abs(ref), 1e-300))
            else:
                if base is None:
                    base = val
                else:
                    worst = max(worst, abs(val - base) / max(abs(base), 1e-300))
        residuals.append(worst)
    report.residuals = residuals
    report.max_rel_err = max(residuals) if residuals else float("nan")
    report.passed = bool(residuals) and report.max_rel_err <= tol
    return report


def ef_commutator_analysis(cat: Catalog, tolerance: float = 1e-8,
                           e_name: str = "E", f_name: str = "F",
                           expected_poles: list[Fraction] | None = None,
                           residue_targets: list[tuple[str, Fraction]] | None = None,
                           ) -> VerificationReport:
    """Pole/residue analysis of the ordering difference of two currents.

    For each term pair the forward and reversed contraction exponentials must
    be the same meromorphic function (exchange factor one); the commutator is
    then carried entirely by the boundary-value jump across its poles.  Poles
    are located exactly from the rotated closed forms and confirmed
    numerically; residue operators are assembled symbolically and compared
    with the shifted U(1) exponents.
    """
    params = cat.params
    k, hbar = params.k, params.hbar_float
    E, F = cat[e_name], cat[f_name]
    if expected_poles is None:
        expected_poles = [-k / 2, k / 2]
    if residue_targets is None:
        residue_targets = [("H_plus", k / 4), ("H_minus", -k / 4)]

    report = VerificationReport(f"[{e_name},{f_name}]", "commutator-delta",
                                False, None, 0.0)
    window = (float(k) + 1.5) * hbar

    pair_data = []
    for ia, ta in enumerate(E.terms):
        for ib, tb in enumerate(F.terms):
            fwd = cat.forward_structure(ta, tb)
            rev = cat.reversed_structure(ta, tb)
            if not (fwd * rev.inverse()).normalize().is_one():
                raise DivergenceMismatch(
                    f"term pair ({ia},{ib}): orderings are not a common "
                    f"meromorphic function")
            rot = fwd.wick_rotate().normalize()
            pair_data.append(((ia, ib), ta, tb, fwd.normalize(), rot))

    # exact pole set within the window
    pole_map: dict[GR, list] = {}
    for key, ta, tb, hyp, rot in pair_data:
        if rot.gammas:
            raise UnexpectedPole(None, f"pair {key}: Gamma factors survive rotation")
        for fields, e in rot.linears.items():
            if e >= 0:
                continue
            rho = _raw(*fields)
            w0 = 1j * complex(rho) * hbar
            if abs(w0) > window:
                continue
            if e < -1:
                raise UnexpectedPole(w0, f"pair {key}: pole order {-e}")
            pole_map.setdefault(rho, []).append((key, ta, tb, rot))

    expected_rhos = set()
    for p in expected_poles:
        # pole at w = p*hbar corresponds to linear factor iw + rho*hbar, rho = -i p... :
        # iw0 = i p hbar => rho = -(i p)
        expected_rhos.add(GR(Fraction(0), -as_fraction(p)))
    found_rhos = set(pole_map)
    if found_rhos != expected_rhos:
        got = sorted(str(1j * complex(r)) for r in found_rhos)
        want = sorted(str(1j * complex(r)) for r in expected_rhos)
        report.notes.append(f"pole sets differ: derived {got}, expected {want}")

    # numeric confirmation by Newton iteration on 1/G
    for rho, holders in sorted(pole_map.items(), key=lambda kv: repr(kv[0])):
        w_exact = 1j * complex(rho) * hbar
        key, ta, tb, rot = holders[0]
        # the start's perturbation w/100 + hbar/1000 vanishes at the pole
        # w = -hbar/10 (rho = i/10, level k = 1/5); perturb the other way there
        if rho == GR(Fraction(0), Fraction(1, 10)):
            start = w_exact * (1 + 1e-2) - 1e-3 * hbar
        else:
            start = w_exact * (1 + 1e-2) + 1e-3 * hbar
        w_num = _newton_pole(rot, start, hbar)
        err = abs(w_num - w_exact)
        report.poles.append({
            "w_exact": w_exact, "w_numeric": w_num, "abs_err": err,
            "pairs": [h[0] for h in holders]})
        if err > 1e-6 * hbar:
            report.notes.append(f"numeric pole {w_num} off exact {w_exact}")

    # residue operators, assembled in the hyperbolic parametrization where
    # the spectral shift is real: rotated pole at w = p hbar corresponds to
    # hyperbolic pole w = i p hbar, i.e. v = u - i p hbar.
    ok_residues = True
    scalars = {}
    u1_family = cat[residue_targets[0][0]].terms[0].families()[0]
    for rho in sorted(pole_map, key=lambda r: (r.im, r.re)):
        holders = pole_map[rho]
        p = -rho.im  # rotated pole position in hbar units (rho = -i p)
        spectral = -p  # e^{ipt} with p = i*p_hyp... v = u - i p hbar shifts by -p
        exps: dict[str, ModeFunction] = {}
        scalar_gr = GR(Fraction(0))
        hpow = None
        for key, ta, tb, rot in holders:
            gr, hp = rot.residue_at_simple_pole(rho)
            cpref = ta.coeff * tb.coeff
            hp_tot = hp + ta.hbar_power + tb.hbar_power
            if hpow is None:
                hpow = hp_tot
            if hp_tot != hpow:
                raise ResidueMismatch("inconsistent hbar power across residues")
            contrib = cpref * gr * rot.const.as_gr()
            scalar_gr = scalar_gr + contrib
            for fam in cat.kernels:
                fa = ta.exponents.get(fam)
                fb = tb.exponents.get(fam)
                total = None
                if fa is not None:
                    total = fa
                if fb is not None:
                    shifted = shift_argument(fb, spectral)
                    total = shifted if total is None else total + shifted
                if total is not None:
                    exps[fam] = total if fam not in exps else exps[fam] + total
        # compare with the shifted U(1) exponent
        matches = []
        for tname, tshift in residue_targets:
            tcur = cat[tname]
            tfam = tcur.terms[0].families()[0]
            texp = shift_argument(tcur.exponent(tfam), tshift)
            same = all(
                modes_equal(exps.get(fam, ModeFunction.zero()),
                            texp if fam == tfam else ModeFunction.zero())
                for fam in cat.kernels)
            if same:
                matches.append({"target": tname, "shift": str(tshift)})
        derived_shift = _derive_u1_shift(cat, exps.get(u1_family),
                                         [t[0] for t in residue_targets])
        entry = {
            "pole_w": 1j * complex(rho) * hbar,
            "scalar_gr": repr(scalar_gr),
            "scalar_hbar_power": hpow,
            "matches": matches,
            "derived_u1_shift": None if derived_shift is None else str(derived_shift),
            "sector_exponents_vanish": all(
                exps.get(f, ModeFunction.zero()).canonical()[1:] == ({}, {})
                for f in cat.kernels if f != u1_family),
        }
        scalars[p] = (scalar_gr, hpow)
        report.residue_ops.append(entry)
        if not matches:
            ok_residues = False
            report.notes.append(
                f"residue at w={float(p)}*hbar does not match any declared target")

    mid = [r for r in report.residue_ops
           if r["derived_u1_shift"] in (str(k / 4), str(-k / 4))]
    if len(mid) == len(report.residue_ops) and mid:
        report.notes.append(
            "residue operators sit at the midpoint (u+v)/2, i.e. argument "
            f"shifts +/-{k / 4}*hbar; the printed text shifts by +/-{k / 2}*hbar")

    # scalar pattern: opposite residues of magnitude 1/hbar times one global
    # normalization shared by both poles
    if len(scalars) == 2:
        (p1, (g1, h1)), (p2, (g2, h2)) = sorted(scalars.items())
        if h1 == h2 and (g1 + g2).is_zero():
            report.notes.append("residue scalars are opposite, common hbar power "
                                f"{h1}")
        else:
            ok_residues = False
            report.notes.append("residue scalars do not form the +/- pattern")

    pole_ok = found_rhos == expected_rhos and all(
        p["abs_err"] <= 1e-6 * hbar for p in report.poles)
    report.symbolic_pass = ok_residues
    report.max_rel_err = max((p["abs_err"] / hbar for p in report.poles),
                             default=0.0)
    report.passed = pole_ok and ok_residues
    return report


def _derive_u1_shift(cat: Catalog, cexp: ModeFunction | None,
                     target_names: list[str]) -> Fraction | None:
    """If the residue exponent equals a shifted U(1) exponent, return the
    shift, read off the canonical form (a monomial in zeta on one branch)."""
    if cexp is None:
        return None
    lat, pos, neg = cexp.canonical()
    cands = set()
    for branch in (pos, neg):
        for lr in branch.values():
            if len(lr.num.c) == 1 and len(lr.den.c) == 1:
                e = lr.num.min_exp() - lr.den.min_exp()
                cands.add(Fraction(e, 2 * lat))
    for name in target_names:
        cur = cat[name]
        base = cur.exponent(cur.terms[0].families()[0])
        for cand in sorted(cands):
            if modes_equal(cexp, shift_argument(base, cand)):
                return cand
    return None


def _newton_pole(sf: StructureFunction, w0: complex, hbar: float,
                 steps: int = 60) -> complex:
    """Newton iteration on 1/G from a perturbed start."""
    w = w0
    for _ in range(steps):
        f = 1.0 / sf.eval(w, hbar)
        h = 1e-7 * (abs(w) + 1.0)
        fp = (1.0 / sf.eval(w + h, hbar) - 1.0 / sf.eval(w - h, hbar)) / (2 * h)
        if fp == 0:
            break
        step = f / fp
        w = w - step
        if abs(step) < 1e-15 * (1.0 + abs(w)):
            break
    return w


# ---------------------------------------------------------------------------
# classical limit

def classical_limit(cat: Catalog, rel_pair: tuple[str, str], braid: ClassicalBraid,
                    hbar_sequence: list[Fraction], w: complex = 1.0 + 0.8j,
                    min_order: float = 0.5) -> VerificationReport:
    """Degeneration of a (rotated) exchange factor to the classical braiding
    phase as hbar -> 0.

    The derived structure function is hbar symbolic, so one catalog serves
    the whole sequence: the factor is evaluated at fixed w with Im w > 0 for
    each hbar, compared against the braiding ratio, and the error is fitted
    against hbar on a log-log scale.
    """
    if len(hbar_sequence) < 3 or any(
            b <= a for a, b in zip(hbar_sequence[1:], hbar_sequence)):
        raise ValueError("need >= 3 strictly decreasing hbar values")
    a, b = rel_pair
    factors = cat.pair_exchange(cat[a], cat[b], rotate="global")
    sf = factors[0]
    target = braid.ratio(w)
    errs = []
    for hb in hbar_sequence:
        val = sf.eval(w, float(hb))
        errs.append(abs(val / target - 1.0))
    report = VerificationReport(f"limit[{a},{b};ab={braid.alpha*braid.beta}]",
                                "classical-limit", False, None, 0.0)
    if max(errs) < 1e-12:
        report.limit_fit = {"order": float("inf"), "errors": errs,
                            "target": target, "skipped": True}
        report.passed = True
        report.notes.append("factor already at its classical value; order fit skipped")
        return report
    import numpy as np  # here, not at module level: only this fit needs it
    xs = np.log([float(h) for h in hbar_sequence])
    ys = np.log([max(e, 1e-300) for e in errs])
    slope, intercept = np.polyfit(xs, ys, 1)
    report.limit_fit = {"order": float(slope), "errors": errs, "target": target,
                        "w": w, "skipped": False}
    report.max_rel_err = errs[-1]
    report.passed = bool(slope >= min_order)
    if not report.passed:
        raise NonConvergent(
            f"fitted convergence order {slope:.3f} below {min_order}")
    return report
