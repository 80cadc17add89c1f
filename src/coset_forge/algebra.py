"""Current catalog and relation verification.

Holds the currents of a bound definition file (the `.alg` format, see
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
import functools
import math
from fractions import Fraction

from .contraction import (StructureFunction, closed_form, contract, pair_closed_form,
                          quad_eval, require_numpy)
from .errors import (CosetForgeError, DivergenceMismatch, IllPosedContraction,
                     NonConvergent, NonTelescoping, ResidueMismatch, UnexpectedPole)
from .exact import GR, GR_I, _gr, _raw, as_fraction
from .modes import (AlgebraParams, ExpTrigTerm, Kernel, ModeFunction,
                    _read_only, _set, equals as modes_equal, shift_argument)

__all__ = [
    "Current", "Catalog", "NormalOrderedTerm", "Relation", "VerificationReport",
    "verify_relation", "ef_commutator_analysis", "classical_limit",
]


class NormalOrderedTerm:
    """Scalar prefactor (coeff * hbar^power), coeff rational, times one
    normal-ordered exponential, with one exponent mode function per kernel
    family."""

    __slots__ = ("coeff", "hbar_power", "exponents")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, coeff: Fraction, hbar_power: int,
                 exponents: dict[str, ModeFunction]):
        _set(self, "coeff", as_fraction(coeff))
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

def _require_equal_divergence(fam: str, a_f: Fraction, a_r: Fraction) -> None:
    """Refuse a family whose two orderings' 1/t coefficients differ."""
    if a_f != a_r:
        raise DivergenceMismatch(f"family {fam}: 1/t coefficients {a_f} vs {a_r}")


class Catalog:
    def __init__(self, params: AlgebraParams):
        self.params = params
        self.kernels: dict[str, Kernel] = {}
        self.currents: dict[str, Current] = {}
        # single-pair closed forms under (family, tf, tg)
        self._cf_cache: dict = {}
        # closed_contraction results and exchange ratios, under the
        # branches each reads
        self._products: dict = {}
        self._ratios: dict = {}

    def __getitem__(self, name: str) -> Current:
        return self.currents[name]

    # -- structure-function machinery --------------------------------------
    def _single_pair_closed(self, fam: str, tf: ExpTrigTerm, tg: ExpTrigTerm):
        """Closed form and 1/t coefficient of <tf(u) tg(v)> over `fam`,
        derived once per catalog straight from the pair's sinh product by
        the pair rule (pair_closed_form), whatever its shape."""
        key = (fam, tf, tg)
        hit = self._cf_cache.get(key)
        if hit is None:
            hit = self._cf_cache[key] = pair_closed_form(tf, tg, self.kernels[fam])
        return hit

    def closed_contraction(self, fam: str, f: ModeFunction, g: ModeFunction
                           ) -> tuple[StructureFunction, Fraction]:
        """exp<f(u) g(v)> over one family as a structure function, assembled
        bilinearly so every sub-contraction keeps its minimal family order
        (Gamma scale); returns the total 1/t coefficient as well.  When a
        term pair refuses, the summed integrand decides: its closed_form and
        1/t coefficient, which contract prints, or its own refusal, raised
        and not kept.  It reads only f's t>0 branch and g's t<0 branch, so
        it is kept under them."""
        key = (fam, f.positive_branch, g.negative_branch)
        hit = self._products.get(key)
        if hit is None:
            try:
                pairs = [self._single_pair_closed(fam, tf, tg)
                         for tf in f.positive_branch for tg in g.negative_branch]
                hit = (StructureFunction.product([s for s, _ in pairs]),
                       sum((a for _, a in pairs), Fraction(0)))
            except (NonTelescoping, IllPosedContraction):
                I = contract(f, g, self.kernels[fam], self.params)
                hit = closed_form(I, self.params), I.log_divergence_coeff
            self._products[key] = hit
        return hit

    def _exchange_ratio(self, fam: str, fa: ModeFunction, fb: ModeFunction
                        ) -> StructureFunction:
        """S_fam = exp<fa(u) fb(v)> / exp<fb(v) fa(u)>(-w), kept under the
        four branches it reads.  Unequal 1/t coefficients raise on every
        call: a refuted pair is never kept."""
        key = (fam, fa.positive_branch, fa.negative_branch,
               fb.positive_branch, fb.negative_branch)
        ratio = self._ratios.get(key)
        if ratio is None:
            s_f, a_f = self.closed_contraction(fam, fa, fb)
            s_r, a_r = self.closed_contraction(fam, fb, fa)
            _require_equal_divergence(fam, a_f, a_r)
            ratio = self._ratios[key] = StructureFunction.exchange(s_f, s_r)
        return ratio

    def shared_families(self, ta: NormalOrderedTerm, tb: NormalOrderedTerm):
        """(family, exponent of ta, exponent of tb) for each kernel family
        both terms carry, in kernel order."""
        for fam in self.kernels:
            fa, fb = ta.exponents.get(fam), tb.exponents.get(fam)
            if fa is not None and fb is not None:
                yield fam, fa, fb

    def pair_exchange(self, a: Current, b: Current, rotate: str = "none"
                      ) -> list[StructureFunction]:
        """Exchange factors of every term pair of two (possibly composite)
        currents: per term pair, the product over shared families of
        S_fam with A_term(u) B_term(v) = S_fam * B_term(v) A_term(u),
        Wick-rotated once under "global" and left as it is under "none"."""
        if rotate not in ("none", "global"):
            raise ValueError(f"unknown rotation mode {rotate!r}")
        out = []
        for ta in a.terms:
            for tb in b.terms:
                total = StructureFunction.product(
                    [self._exchange_ratio(fam, fa, fb)
                     for fam, fa, fb in self.shared_families(ta, tb)])
                out.append(total.wick_rotate() if rotate == "global" else total)
        return out


# ---------------------------------------------------------------------------
# relations

# bounds the quadrature-only residual and the classical-limit cross-check;
# the claims are exact, so no input may loosen it
TOLERANCE = 1e-8


class Relation:
    __slots__ = ("rel_id", "kind", "pair", "target", "rotate")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, rel_id: str, kind: str, pair: tuple[str, str],
                 target: StructureFunction, rotate: str = "none"):
        _set(self, "rel_id", rel_id)
        _set(self, "kind", kind)    # "exchange" | "shape"
        _set(self, "pair", pair)      # (A, B) of A(u) B(v)
        # an exchange row's S_ab, right side over left side; unread by shape
        _set(self, "target", target)
        _set(self, "rotate", rotate)


class VerificationReport:
    __slots__ = ("rel_id", "kind", "passed", "symbolic_pass", "max_rel_err",
                 "grid", "residuals", "derived_factor", "expected_factor",
                 "poles", "limit_fit", "notes")

    def __init__(self, rel_id: str, kind: str, passed: bool,
                 symbolic_pass: bool | None, max_rel_err: float | None = None,
                 grid: list[complex] | None = None,
                 residuals: list[float] | None = None,
                 derived_factor: str = "", expected_factor: str = "",
                 poles: list[dict] | None = None,
                 limit_fit: dict | None = None,
                 notes: list[str] | None = None):
        self.rel_id = rel_id
        self.kind = kind
        self.passed = passed
        self.symbolic_pass = symbolic_pass
        # set by the quadrature-only route alone; every other row is exact
        self.max_rel_err = max_rel_err
        # omitted containers start empty, one new container per report
        self.grid = [] if grid is None else grid
        self.residuals = [] if residuals is None else residuals
        self.derived_factor = derived_factor
        self.expected_factor = expected_factor
        self.poles = [] if poles is None else poles
        self.limit_fit = {} if limit_fit is None else limit_fit
        self.notes = [] if notes is None else notes


def _log_residuals(sums: list[list[complex]], failed_at: set[int], n: int
                   ) -> tuple[list[float], float, int]:
    """Per point j < n, the worst |exp(s[j]) - 1| over the log ratios s in
    `sums`, NaN where j is in `failed_at` or a ratio cannot be taken; the
    largest finite residual; the number of NaN points."""
    nan = float("nan")
    worst_at = []
    for j in range(n):
        worst = 0.0
        for s in sums:
            try:
                # a ratio beyond the float range is a finite, huge residual
                r = math.inf if s[j].real > 700.0 else abs(cmath.exp(s[j]) - 1.0)
            except (ArithmeticError, ValueError):
                r = nan
            if not r <= worst:      # larger, or NaN: the point failed
                worst = r
                if math.isnan(r):
                    break
        worst_at.append(nan if j in failed_at else worst)
    failed = sum(1 for r in worst_at if math.isnan(r))
    worst = max((r for r in worst_at if not math.isnan(r)), default=0.0)
    return worst_at, worst, failed


def _compared(report: VerificationReport, target, factors: list):
    """(reference, checked): an exchange row checks every term pair's factor
    against `target`, a shape row every factor after the first against the
    first.  A one-pair shape row compares nothing: a note, and None."""
    if report.kind == "exchange":
        return target, factors
    if len(factors) > 1:
        return factors[0], factors[1:]
    report.notes.append("one term pair: a shape relation compares nothing")
    return None


def _settle(report: VerificationReport, residuals: list[float], worst: float,
            failed: int) -> None:
    """A quadrature-only row passes when its worst residual is within
    TOLERANCE and every point of its line evaluated."""
    report.residuals, report.max_rel_err = residuals, worst
    report.passed = worst <= TOLERANCE and not failed
    if failed:
        report.notes.append(f"{failed} of {len(residuals)} grid points failed to evaluate")


def verify_relation(cat: Catalog, rel: Relation) -> VerificationReport:
    """Check an exchange or shape relation on every term pair (_compared) by
    the Gamma-multiset identity after normalization, which is exact: the row
    passes when it holds, and has no numeric residual.  The first pair's
    factor is reported."""
    a, b = cat[rel.pair[0]], cat[rel.pair[1]]
    try:
        factors = cat.pair_exchange(a, b, rotate=rel.rotate)
    except NonTelescoping:
        return _verify_numeric_only(cat, rel)
    report = VerificationReport(rel.rel_id, rel.kind, False, None,
                                derived_factor=factors[0].describe())
    compared = _compared(report, rel.target, factors)
    if compared is None:
        return report
    target, checked = compared
    if rel.kind == "exchange":
        # describe() is the repr of the normalized form
        same = factors[0].normalize().raw_eq(target.normalize())
        report.expected_factor = (report.derived_factor if same
                                  else target.describe())
    report.passed = report.symbolic_pass = all(
        sf.symbolic_eq(target) for sf in checked)
    return report


def _verify_numeric_only(cat: Catalog, rel: Relation) -> VerificationReport:
    """Pure-quadrature relation check for integrands whose series families do
    not reduce to Gamma factors.  Both orderings are integrated directly, so
    every point of the line must lie in the intersection of the forward strip
    and the reflected reversed strip; an empty intersection (or a rotated
    relation, which has no convergent integral representation) is reported
    as unverifiable.  Rows are compared in logs (_log_residuals)."""
    report = VerificationReport(rel.rel_id, rel.kind, False, None, float("nan"))
    report.notes.append("closed form does not telescope; quadrature-only check")
    if rel.rotate != "none":
        report.notes.append("rotated relations cannot be checked by quadrature")
        return report
    params, hbar = cat.params, cat.params.hbar_float
    a, b = cat[rel.pair[0]], cat[rel.pair[1]]

    def log_factor(fams, w):
        """log S_ab(w): the forward integrals minus the reversed ones at -w."""
        total = 0j
        for fwd, rev in fams:
            total += quad_eval(fwd, w, params)
            total -= quad_eval(rev, -w, params)
        return total

    factors, lo, hi = [], float("-inf"), float("inf")
    for ta in a.terms:
        for tb in b.terms:
            fams = []   # (forward, reversed) per shared family
            for fam, fa, fb in cat.shared_families(ta, tb):
                fwd = contract(fa, fb, cat.kernels[fam], params)
                rev = contract(fb, fa, cat.kernels[fam], params)
                _require_equal_divergence(fam, fwd.log_divergence_coeff,
                                          rev.log_divergence_coeff)
                if not fwd.is_zero():
                    hi = min(hi, -fwd.strip_bound(hbar))
                if not rev.is_zero():
                    lo = max(lo, rev.strip_bound(hbar))
                fams.append((fwd, rev))
            factors.append(functools.partial(log_factor, fams))
    compared = _compared(report, lambda w: rel.target.log_eval(w, hbar), factors)
    if compared is None:
        return report
    reference, checked = compared
    if not lo < hi:
        report.notes.append(
            "forward and reversed convergence strips do not overlap; the "
            "relation holds only as analytic continuation")
        return report
    # a missing numpy fails the run, not each point of the line
    require_numpy()
    # the overlap's middle in |Im w| <= 4 hbar, that window slid to meet an overlap beyond it
    mid = 0.5 * (max(lo, -4.0 * hbar) + min(hi, 4.0 * hbar))
    if mid <= lo:
        mid = 0.5 * (lo + min(hi, lo + 8.0 * hbar))
    elif mid >= hi:
        mid = 0.5 * (hi + max(lo, hi - 8.0 * hbar))
    report.grid = [complex(-2.0 * hbar + 4.0 * hbar * j / 9, mid) for j in range(10)]
    n = len(report.grid)
    sums, failed_at = [[0j] * n for _ in checked], set()
    for j, w in enumerate(report.grid):
        try:
            ref = reference(w)
            for s, f in zip(sums, checked):
                s[j] = f(w) - ref
        except (CosetForgeError, ArithmeticError, ValueError):
            failed_at.add(j)
    _settle(report, *_log_residuals(sums, failed_at, n))
    return report


# ---------------------------------------------------------------------------
# E-F commutator pole and residue analysis

def ef_commutator_analysis(cat: Catalog, e_name: str, f_name: str,
                           expected_poles: list[Fraction],
                           residue_targets: list[tuple[str, Fraction, Fraction, int]],
                           ) -> VerificationReport:
    """Pole/residue analysis of the ordering difference of two currents,
    against the pole positions (in hbar units) and the declared residues
    (current, argument shift, scalar, hbar power) of a bound
    `commutator_delta` declaration.

    Both orderings must be one meromorphic function by the exchange rows'
    rule (Catalog.pair_exchange): each family's two orderings have equal 1/t
    coefficients and each term pair's exchange factor is one.  The
    commutator is then carried entirely by the boundary-value jump across
    its poles.  Every pole is read exactly off a linear factor of the
    rotated closed forms, which have no Gamma factors, and compared with the
    declared pole set.  Each pole's residue operator is assembled
    symbolically and matched one to one with the declared residues: its
    exponents must be one declared current's at its declared shift, and its
    scalar and hbar power exactly the declared ones; a declared residue no
    pole or several poles match fails the row.  The row reads no hbar: a
    pole entry holds its position in hbar units exactly, with its residue.
    """
    E, F = cat[e_name], cat[f_name]

    report = VerificationReport(f"[{e_name},{f_name}]", "commutator-delta",
                                False, None)

    # per term pair whose exchange factor is one: exp<E_term(u) F_term(v)>,
    # the product over families, rotated
    pair_data = []
    exchange = iter(cat.pair_exchange(E, F))
    for ia, ta in enumerate(E.terms):
        for ib, tb in enumerate(F.terms):
            if not next(exchange).is_one():
                raise DivergenceMismatch(f"term pair ({ia},{ib}): orderings are not "
                                         "a common meromorphic function")
            fwd = StructureFunction.product(
                [cat.closed_contraction(*x)[0] for x in cat.shared_families(ta, tb)])
            pair_data.append(((ia, ib), ta, tb, fwd.wick_rotate().normalize()))

    # exact pole set: every negative-exponent linear factor.  A pole at
    # w = p*hbar is the linear factor iw + rho*hbar, rho = -i p, so p = i rho
    pole_map: dict[GR, list] = {}
    for key, ta, tb, rot in pair_data:
        if rot.gammas:
            raise UnexpectedPole(None, f"pair {key}: Gamma factors survive rotation")
        for fields, e in rot.linears.items():
            if e >= 0:
                continue
            rho = _raw(*fields)
            if e < -1:
                raise UnexpectedPole(f"{GR_I * rho!r}*hbar", f"pair {key}: pole order {-e}")
            pole_map.setdefault(rho, []).append((key, ta, tb, rot))

    expected_rhos = {GR(Fraction(0), -as_fraction(p)) for p in expected_poles}
    found_rhos = set(pole_map)
    if found_rhos != expected_rhos:
        got = [repr(GR_I * r) for r in sorted(found_rhos, key=lambda r: (r.im, r.re))]
        want = [repr(GR_I * r) for r in sorted(expected_rhos, key=lambda r: (r.im, r.re))]
        report.notes.append(f"pole sets differ: derived {got}, expected {want}")

    # residue operators, assembled in the hyperbolic parametrization where
    # the spectral shift is real: rotated pole at w = p hbar corresponds to
    # hyperbolic pole w = i p hbar, i.e. v = u - i p hbar.
    ok_residues = True
    # each declared residue's (name, shift, family, exponent, scalar, hbar
    # power), resolved once, and the number of poles whose operator it is
    targets = []
    for tname, tshift, tscalar, thpow in residue_targets:
        tcur = cat[tname]
        tfam = tcur.terms[0].families()[0]
        targets.append((tname, tshift, tfam, tcur.exponent(tfam),
                        GR.of(tscalar), thpow))
    used = [0] * len(targets)
    zero = ModeFunction.zero()
    for rho in sorted(pole_map, key=lambda r: (r.im, r.re)):
        holders = pole_map[rho]
        w = GR_I * rho  # the rotated pole position in hbar units
        spectral = -w.re  # v = u - i p hbar shifts F's argument by -p
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
        # each holder's residue is one vertex operator: holders with equal
        # exponents add their scalars, and holders that differ are not one
        # residue operator
        held = [{fam: ta.exponents.get(fam, zero)
                 + shift_argument(tb.exponents.get(fam, zero), spectral)
                 for fam in cat.kernels} for _, ta, tb, _ in holders]
        exps = held[0]
        pole = {"w_over_hbar": repr(w), "pairs": [h[0] for h in holders],
                "scalar": repr(scalar_gr), "scalar_hbar_power": hpow, "matches": []}
        report.poles.append(pole)
        at = f"residue at w={w!r}*hbar"
        if not all(modes_equal(exps[fam], other[fam])
                   for other in held[1:] for fam in cat.kernels):
            ok_residues = False
            report.notes.append(f"{at}: term pairs {pole['pairs']} "
                                "give different vertex operators")
            continue
        # the declared residues whose shifted exponent it is, on their own
        # family, with every other family's exponent zero
        zero_fams = {fam for fam in cat.kernels if exps[fam].is_zero()}
        hits = [i for i, (_, tshift, tfam, texp, _, _) in enumerate(targets)
                if all(modes_equal(exps[fam], shift_argument(texp, tshift))
                       if fam == tfam else fam in zero_fams for fam in cat.kernels)]
        for i in hits:
            used[i] += 1
        pole["matches"] = [{"target": targets[i][0], "shift": str(targets[i][1])}
                           for i in hits]
        if len(hits) != 1:
            ok_residues = False
            report.notes.append(f"{at} does not match any declared target" if not hits
                                else f"{at} matches {len(hits)} declared residues")
            continue
        tname, *_, tscalar, thpow = targets[hits[0]]
        if (scalar_gr, hpow) != (tscalar, thpow):
            ok_residues = False
            report.notes.append(f"{at}: scalar {scalar_gr!r}*hbar^{hpow}, declared "
                                f"{tscalar!r}*hbar^{thpow} for {tname}")

    # one pole to each declared residue
    for (tname, tshift, *_), n in zip(targets, used):
        if n != 1:
            ok_residues = False
            report.notes.append(f"declared residue {tname} @ ({tshift}) is the "
                                f"residue of {n} poles, not one")

    report.symbolic_pass = ok_residues
    report.passed = found_rhos == expected_rhos and ok_residues
    return report


# ---------------------------------------------------------------------------
# classical limit

# the Stirling corrections are read off for B_n with n up to this
LIMIT_N_MAX = 12
# points of the numeric cross-check: the unit circle at Im w >= 0.7, away
# from the real axis, where the Gamma poles and the Stokes lines lie
_LIMIT_CHECK_W = (cmath.exp(0.25j * math.pi), 1j, cmath.exp(0.75j * math.pi))


@functools.cache
def _bernoulli_numbers() -> tuple[int, list[int]]:
    """(L, [L*B_0, ..., L*B_LIMIT_N_MAX]): the Bernoulli numbers, B_1 = -1/2,
    over their least common denominator L."""
    b = [Fraction(1)]
    for m in range(1, LIMIT_N_MAX + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    den = math.lcm(*(x.denominator for x in b))
    return den, [x.numerator * (den // x.denominator) for x in b]


def _principal(x: Fraction) -> Fraction:
    """x reduced modulo 2 into (-1, 1]: the phase exp(i pi x) on the
    principal branch, in units of pi."""
    r = x % 2
    return r - 2 if r > 1 else r


def _classical_readout(sf: StructureFunction) -> tuple:
    """The hbar -> 0 limit of an exchange factor S(w) on Im w > 0, read off
    its normalized Gamma multiset exactly, with X = w/hbar.

    A factor Gamma(iw/(s hbar) + a) with s = i b/q has the argument
    z + a, z = sigma X and sigma = q/b.  DLMF 5.11.8,
        ln Gamma(z + a) ~ (z + a - 1/2) ln z - z + ln(2 pi)/2
                          + sum_{n>=2} (-1)^n B_n(a) / (n (n-1) z^(n-1)),
    summed with the exponents e of one scale, loses its z ln z, z and
    ln 2pi terms when sum e = 0 and keeps ln z with the power sum e*a.
    With ln z = ln(+-w) + ln|sigma| - ln hbar (principal branches), the
    factor tends to K w^p_plus (-w)^p_minus, K an exact constant; a linear
    factor (iw + rho hbar)^e tends to i^e w^e.  That is a braid phase
    [w/(-w)]^p exactly when p_plus + p_minus = 0, K carries no hbar and
    K = exp(i pi c) with c rational; then S -> exp(i pi (p_plus + c)).

    Returns (p_plus, c, corrections, hbar_check): corrections[m - 1] is the
    exact coefficient of X^-m in ln S minus ln of its limit, for m = 1 ..
    LIMIT_N_MAX - 1 (B_n with n = m + 1, and the series of each linear
    factor), and hbar_check an hbar at which every argument z has
    |Im z| >= 8 Im w at the cross-check points, where the exponentially
    small terms the series misses are below 1e-20.  Raises NonConvergent
    when the factor has no braid-phase limit."""
    n = sf.normalize()
    # per scale sigma = q/b, its key (q, b) in lowest terms, q > 0: the
    # shifts an/ad of its Gamma factors and their exponents
    groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for (sa, sb, sq, an, ad), e in n.gammas.items():
        if sa or not sb:
            raise NonConvergent(f"Gamma scale {_raw(sa, sb, sq)!r} is not "
                                "imaginary: no braid limit on Im w > 0")
        groups.setdefault((sq, sb), []).append((an, ad, e))
    const = n.const
    p_plus = p_minus = Fraction(0)
    # per scale: q, b, the shifts' common denominator D and the power sums
    # S_r = sum e p^r, r = 0 .. LIMIT_N_MAX, of the numerators p = a*D
    sums = []
    for (sq, sb), group in groups.items():
        if sum(e for _, _, e in group):
            raise NonConvergent(f"Gamma factors of scale 1/({Fraction(sq, sb)}*i)"
                                " do not balance: the factor grows like z^z")
        big_d = math.lcm(*(ad for _, ad, _ in group))
        s = [0] * (LIMIT_N_MAX + 1)
        for an, ad, e in group:
            x = an * (big_d // ad)
            for r in range(LIMIT_N_MAX + 1):
                s[r] += e
                e *= x
        sums.append((sq, sb, big_d, s))
        power = Fraction(s[1], big_d)
        const = const.times_base(_gr(sq, 0, abs(sb)), -1, power)
        if sb > 0:
            p_plus += power
        else:
            p_minus += power
    # (iw + rho hbar)^e = (iw)^e (1 + t/X)^e with t = -i rho
    lin_e = sum(n.linears.values())
    p_plus += lin_e
    const = const.times_base(GR_I, 0, lin_e)
    if p_plus + p_minus:
        raise NonConvergent(f"the limit grows like w^{p_plus + p_minus}")
    if const.hb:
        raise NonConvergent(f"the limit carries hbar^{const.hbar_pow}")
    if const.pe:
        raise NonConvergent(f"the limit constant {const!r} is not a rational "
                            "phase of modulus 1")
    # sum_i e_i B_n(p_i/D) = sum_j C(n, j) B_j D^j S_(n-j) / D^n (DLMF
    # 24.2.5), with B_j = bern[j]/L; over sigma^m = q^m/b^m and n = m + 1,
    # every scale's sum joins one integer fraction top/bottom.  Each
    # linear factor adds e t^m: with t = (b - a i)/q = z/Q over the common
    # denominator Q, the Gaussian integers e z^m are kept as (re, im)
    den, bern = _bernoulli_numbers()
    lin_q = math.lcm(*(q for _, _, q in n.linears))
    zs = [(b * (lin_q // q), -a * (lin_q // q)) for a, b, q in n.linears]
    terms = [(e, 0) for e in n.linears.values()]
    corrections = []
    for m in range(1, LIMIT_N_MAX):
        top, bottom = 0, 1
        for sq, sb, big_d, s in sums:
            bsum = sum(math.comb(m + 1, j) * bern[j] * big_d ** j * s[m + 1 - j]
                       for j in range(m + 2) if bern[j])
            scale = big_d ** (m + 1) * sq ** m
            top, bottom = top * scale + bsum * sb ** m * bottom, bottom * scale
        bottom *= den * (m + 1)
        terms = [(x * u - y * v, x * v + y * u)
                 for (x, y), (u, v) in zip(terms, zs)]
        # (-1)^(m+1)/m (top/bottom + sum e z^m/Q^m), the coefficient of X^-m
        sign, qm = (-1) ** (m + 1), lin_q ** m
        re = top * qm + bottom * sum(x for x, _ in terms)
        im = bottom * sum(y for _, y in terms)
        corrections.append(_gr(sign * re, sign * im, bottom * qm * m))
    reach = [sq / abs(sb) for sq, sb in groups] + [
        1 / abs(complex(b / q, -a / q)) for a, b, q in n.linears if a or b
    ] + [1.0]
    return p_plus, Fraction(const.ph, 2 * const.den), corrections, min(reach) / 8


def classical_limit(cat: Catalog, rel_pair: tuple[str, str], ab: int
                    ) -> VerificationReport:
    """Degeneration of the globally rotated exchange factor of A(u) B(v) to
    the classical braiding phase [w/(-w)]^{2 ab/k} as hbar -> 0, k the
    catalog's level.

    Every number of the row comes from the pair's normalized factor.  The
    limit is read off its Gamma multiset exactly (_classical_readout): its
    exponent must equal the braid's modulo 2, the period of the phase, and
    the first non-zero power-law correction gives the exact order of
    convergence.  A numeric cross-check compares the normalized factor with
    its limit times the correction series at the points _LIMIT_CHECK_W and
    one moderate hbar, within TOLERANCE.  Raises NonConvergent when the
    pair's term pairs have different factors, the limit is not the braid or
    the cross-check fails.
    """
    a, b = rel_pair
    # one limit needs one factor: every term pair's is held to the first, as
    # a shape row holds it
    sf, *others = cat.pair_exchange(cat[a], cat[b], rotate="global")
    n_b = len(cat[b].terms)
    for i, other in enumerate(others, 1):
        if not other.symbolic_eq(sf):
            raise NonConvergent(
                f"term pairs (0,0) and ({i // n_b},{i % n_b}) have different "
                "exchange factors: the pair has no single limit")
    power, phase, corrections, hbar_check = _classical_readout(sf)
    exponent = _principal(power + phase)
    braid = Fraction(2 * ab) / cat.params.k
    if exponent != _principal(braid):
        raise NonConvergent(
            f"the factor tends to [w/(-w)]^{exponent}, the braid is "
            f"[w/(-w)]^{_principal(braid)} (exponents modulo 2)")
    order = next((m for m, c in enumerate(corrections, 1) if c), None)
    # the normalized form the read-out read (normalize keeps it): its value
    # is the same however the factor is spelled
    n = sf.normalize()
    check_errs = []
    for wc in _LIMIT_CHECK_W:
        x = wc / hbar_check
        lim = cmath.exp(1j * math.pi * float(power + phase) + sum(
            complex(c) * x ** -m for m, c in enumerate(corrections, 1) if c))
        check_errs.append(abs(n.eval(wc, hbar_check) / lim - 1.0))
    report = VerificationReport(f"limit[{a},{b};ab={ab}]",
                                "classical-limit", False, None)
    # a NaN can hide from max(), never from this comparison
    bad = [e for e in check_errs if not e <= TOLERANCE]
    report.limit_fit = {
        "exponent": exponent, "braid_exponent": braid,
        "x_power": power, "const_phase": phase, "order": order,
        "correction": corrections[order - 1] if order else None,
        "n_max": LIMIT_N_MAX, "check_hbar": hbar_check, "check_errors": check_errs}
    if bad:
        raise NonConvergent(
            f"the factor is {bad[0]:.3g} from its exact limit at "
            f"hbar = {hbar_check:.6g}, above the tolerance {TOLERANCE:g}")
    # the limit was read off exactly; the cross-check agreed with it
    report.passed = report.symbolic_pass = True
    return report
