"""Contraction integrals: quadrature vs exact closed forms, exchange factors."""

import cmath
import importlib.resources
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bind_shipped, contraction_pairs, gamma_factors, linear_factors,
                      sparse, sparse_mul)
from coset_forge.algebra import Catalog, verify_relation
from coset_forge.contraction import (StructureFunction, _family_order, closed_form,
                                     contract, exchange_factor, gamma_key,
                                     linear_key, quad_eval)
from coset_forge.dsl import parse_definitions
from coset_forge.errors import (CosetForgeError, DivergenceMismatch, IllPosedContraction,
                                NonTelescoping, OutsideConvergenceStrip,
                                PoleAtNonPositiveInteger)
from coset_forge.exact import GR, ExactConst, merge
from coset_forge.modes import AlgebraParams, ExpTrigTerm, Kernel, ModeFunction
from coset_forge.specfun import log_gamma

HALF = Fraction(1, 2)
ONE = Fraction(1)
P1 = AlgebraParams(Fraction(2), Fraction(1))


def _mode(pos=(), neg=()):
    return ModeFunction(pos, neg)


def beta_plus():
    return _mode(pos=[ExpTrigTerm(GR.of(-2), 1, 0, 0, ((HALF, 1), (ONE, -1)))])


def beta_minus():
    return _mode(neg=[ExpTrigTerm(GR.of(2), 1, 0, 0, ((HALF, 1), (ONE, -1)))])


def screened(sign, k):
    return _mode(
        pos=[ExpTrigTerm(GR.of(sign), 1, sign * k / 4, 0, ((k / 2, -1),))],
        neg=[ExpTrigTerm(GR.of(sign), 1, -sign * k / 4, 0, ((k / 2, -1),))])


def kernel_b(k):
    return Kernel("b", -1, k / 2)


def kernel_c(k):
    return Kernel("c", 1, k / 2)


def kernel_l(k):
    return Kernel("lambda", 1, (k + 2) / 2)


def test_frullani_reference_integral():
    # int_0^inf (e^{-2t} - e^{-t})/t dt = log(1/2); build the integrand from
    # two pure-exponential mode terms against a kernel the modes cancel
    k = Fraction(2)
    f = _mode(pos=[
        ExpTrigTerm(GR.of(1), 1, Fraction(-2), 0, ((ONE, -1), (ONE, -1))),
        ExpTrigTerm(GR.of(-1), 1, Fraction(-1), 0, ((ONE, -1), (ONE, -1))),
    ])
    g = _mode(neg=[ExpTrigTerm(GR.of(1), 1, 0, 0, ())])
    I = contract(f, g, kernel_c(k), P1)
    assert I.log_divergence_coeff == 0
    val = quad_eval(I, 0.0, P1)
    assert abs(val - math.log(0.5)) < 1e-10
    sf = closed_form(I, P1)
    assert abs(sf.eval(0.0, 1.0) - 0.5) < 1e-12


def test_zero_contraction():
    I = contract(beta_minus(), beta_minus(), kernel_b(Fraction(2)), P1)
    assert I.is_zero()
    assert I.log_divergence_coeff == 0
    assert closed_form(I, P1).is_one()
    assert quad_eval(I, -1j, P1) == 0


def test_screened_pair_log_divergence_and_growth():
    for k in (Fraction(2), Fraction(3), Fraction(5, 2)):
        params = AlgebraParams(k)
        I = contract(screened(-1, k), screened(1, k), kernel_c(k), params)
        assert I.log_divergence_coeff == Fraction(2) / k
        assert I.max_growth() == 1 - k / 2


def test_series_oracle_for_screened_exchange():
    # independent oracle: S = exp sum_n [log(q_n/p_n) - log(q'_n/p'_n)] with
    # p_n = iw + (n+1/2)k hbar - hbar, q_n = p_n + 2 hbar, primes at -w.
    # Partial sums converge like 1/N, so the leading 2(1/b - 1/b') tail is
    # summed exactly with digamma; the remaining tail is O(1/N^3).
    def psi_asym(x: complex) -> complex:
        # asymptotic digamma, ~1e-14 accurate for |x| ~ 2000
        xi = 1.0 / x
        return (cmath.log(x) - 0.5 * xi - xi * xi / 12.0
                + xi ** 4 / 120.0 - xi ** 6 / 252.0)

    N = 2000
    for k in (Fraction(3), Fraction(5, 2)):
        params = AlgebraParams(k)
        S = exchange_factor(screened(-1, k), screened(1, k), kernel_c(k), params)
        kf = float(k)
        for w in (0.7 - 1.2j, -0.4 - 2.5j):
            z, zb = 1j * w, -1j * w
            acc = 0.0j
            for n in range(N):
                b = z + (n + 0.5) * kf
                bb = zb + (n + 0.5) * kf
                acc += cmath.log((b + 1) / (b - 1)) - cmath.log((bb + 1) / (bb - 1))
            # remaining sum: each log is 2 atanh(1/b); the m=1 part sums to
            # (2/k)[psi(N+b') - psi(N+b)], the m>=3 part is O(1/N^3)
            beta = 0.5 + z / kf
            betab = 0.5 + zb / kf
            acc += (2.0 / kf) * (psi_asym(N + betab) - psi_asym(N + beta))
            oracle = cmath.exp(acc)
            got = S.eval(w, 1.0)
            assert abs(got - oracle) / abs(oracle) < 1e-8


@pytest.mark.parametrize("k", [Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)])
def test_golden_gamma_multisets(k):
    params = AlgebraParams(k)

    def acc(pairs):
        d = {}
        for sh, e in pairs:
            key = (2 + 0j, sh)
            d[key] = d.get(key, 0) + e
        return {kk: v for kk, v in d.items() if v}

    S = exchange_factor(beta_plus(), beta_minus(), kernel_b(k), params)
    got = {(complex(s), sh): e for (s, sh), e in gamma_factors(S).items()}
    expect = acc([(-k / 4, 1), (-(k - 4) / 4, 1), (k / 4, -1),
                  ((k + 4) / 4, -1), ((k + 2) / 4, 2), (-(k - 2) / 4, -2)])
    SL = exchange_factor(beta_plus(), beta_minus(), kernel_l(k), params)
    gotl = {(complex(s), sh): e for (s, sh), e in gamma_factors(SL).items()}
    expl = acc([((k + 2) / 4, 1), ((k + 6) / 4, 1), (-k / 4, 2),
                (-(k + 2) / 4, -1), (-(k - 2) / 4, -1), ((k + 4) / 4, -2)])
    if k == 2:
        # degenerate level: the integrand reduces before Gamma emission;
        # the printed multiset is recurrence-equivalent
        printed = StructureFunction.one()
        for sh, e in [(-k / 4, 1), (-(k - 4) / 4, 1), (k / 4, -1),
                      ((k + 4) / 4, -1), ((k + 2) / 4, 2), (-(k - 2) / 4, -2)]:
            printed = printed * StructureFunction.from_gamma(2, sh, e)
        assert S.symbolic_eq(printed)
        printed_l = StructureFunction.one()
        for sh, e in [((k + 2) / 4, 1), ((k + 6) / 4, 1), (-k / 4, 2),
                      (-(k + 2) / 4, -1), (-(k - 2) / 4, -1), ((k + 4) / 4, -2)]:
            printed_l = printed_l * StructureFunction.from_gamma(2, sh, e)
        assert SL.symbolic_eq(printed_l)
    else:
        assert got == expect and not S.linears and S.const.is_one()
        assert gotl == expl and not SL.linears and SL.const.is_one()


def test_rational_beta_screened_factors():
    for k in (Fraction(2), Fraction(3), Fraction(5, 2)):
        params = AlgebraParams(k)
        S = exchange_factor(beta_plus(), screened(-1, k), kernel_b(k), params)
        expect = (StructureFunction.from_linear(GR.of(k / 4 + HALF), 1)
                  * StructureFunction.from_linear(GR.of(k / 4 - HALF), -1))
        assert S.symbolic_eq(expect)
        S2 = exchange_factor(beta_plus(), screened(1, k), kernel_b(k), params)
        expect2 = (StructureFunction.from_linear(GR.of(-k / 4 - HALF), 1)
                   * StructureFunction.from_linear(GR.of(-k / 4 + HALF), -1))
        assert S2.symbolic_eq(expect2)


def test_quad_matches_closed_form_on_strip():
    # the shape-level guarantee behind the oracle-agreement criterion
    k = Fraction(5, 2)
    params = AlgebraParams(k)
    cases = [
        (beta_plus(), beta_minus(), kernel_b(k)),
        (beta_plus(), beta_minus(), kernel_l(k)),
        (screened(-1, k), screened(1, k), kernel_c(k)),
        (beta_plus(), screened(1, k), kernel_b(k)),
    ]
    for f, g, K in cases:
        I = contract(f, g, K, params)
        sf = closed_form(I, params)
        base = max(0.0, I.strip_bound(1.0))
        for j in range(8):
            w = complex(-1.5 + 0.4 * j, -(base + 0.4 + 0.1 * j))
            q = cmath.exp(quad_eval(I, w, params))
            c = sf.eval(w, 1.0)
            assert abs(q - c) / abs(c) < 1e-8


def test_lambda_pair_value_at_reference_point():
    # Lambda contraction at w = -5i hbar, k = 2, hbar = 1: quadrature vs
    # closed form at the same point
    k = Fraction(2)
    params = AlgebraParams(k)
    lam_p = beta_plus()
    lam_m = beta_minus()
    I = contract(lam_p, lam_m, kernel_l(k), params)
    w = -5j
    q = cmath.exp(quad_eval(I, w, params))
    sf = closed_form(I, params)
    c = sf.eval(w, 1.0)
    assert abs(q - c) / abs(c) < 1e-10
    # top exponential slope: 2*(1/2) - 1 + (k+2)/2
    assert I.strip_bound(1.0) == float((k + 2) / 2)


def test_outside_strip_raises():
    k = Fraction(2)
    I = contract(beta_plus(), beta_minus(), kernel_l(k), AlgebraParams(k))
    with pytest.raises(OutsideConvergenceStrip):
        quad_eval(I, 0.0, AlgebraParams(k))


def test_reciprocity():
    k = Fraction(3)
    params = AlgebraParams(k)
    for f, g, K in ((beta_plus(), beta_minus(), kernel_b(k)),
                    (screened(-1, k), screened(1, k), kernel_c(k))):
        S_ab = exchange_factor(f, g, K, params)
        S_ba = exchange_factor(g, f, K, params)
        for w in (0.8 - 0.9j, -1.1 - 2.2j, 2.5 - 0.3j):
            v = S_ab.eval(w, 1.0) * S_ba.eval(-w, 1.0)
            assert abs(v - 1.0) < 1e-10


def test_scale_covariance():
    # S depends on w/hbar and k only
    k = Fraction(5, 2)
    params = AlgebraParams(k)
    S = exchange_factor(beta_plus(), beta_minus(), kernel_b(k), params)
    for w in (0.6 - 1.4j, -0.8 - 0.5j):
        for lam in (2.0, 0.25):
            a = S.eval(w, 1.0)
            b = S.eval(lam * w, lam)
            assert abs(a - b) / abs(a) < 1e-11


def test_divergence_mismatch_detected():
    k = Fraction(2)
    params = AlgebraParams(k)
    # pair a screened current with a bare exponential against the c kernel:
    # forward has a 1/t coefficient, reversed does not
    h_like = _mode(pos=[ExpTrigTerm(GR.of(2), 1, 0, 0, ())],
                   neg=[ExpTrigTerm(GR.of(1), 1, 0, 0, ((k / 2, -1),))])
    other = _mode(pos=[ExpTrigTerm(GR.of(1), 1, 0, 0, ((k / 2, -1),))],
                  neg=[ExpTrigTerm(GR.of(-2), 1, 0, 0, ())])
    with pytest.raises(DivergenceMismatch):
        exchange_factor(h_like, other, kernel_c(k), params)


def test_non_telescoping_quadrature_fallback():
    # sinh^4(ht/2)/sinh^2(ht) = sinh^2(ht/2)/(4 cosh^2(ht/2)): the reduced
    # denominator has repeated roots, so the series families do not reduce
    # to Gamma factors; quadrature still integrates the (regular) integrand
    k = Fraction(1)
    params = AlgebraParams(k)
    f = _mode(pos=[ExpTrigTerm(GR.of(1), 1, 0, 0, ((HALF, 2), (ONE, -2)))])
    g = _mode(neg=[ExpTrigTerm(GR.of(1), 1, 0, 0, ((HALF, 1), (ONE, -1)))])
    I = contract(f, g, kernel_c(k), params)
    with pytest.raises(NonTelescoping):
        closed_form(I, params)
    v = quad_eval(I, -4j, params)
    assert abs(v) > 0  # converged to something finite


def test_non_telescoping_repeated_factor_found_without_search():
    # the integrand of test_non_telescoping_quadrature_fallback: its reduced
    # denominator (zeta^4 + 1)^2 holds both halves of Phi_8 twice, and the
    # family order raises on that multiplicity before computing any order
    k = Fraction(1)
    params = AlgebraParams(k)
    f = _mode(pos=[ExpTrigTerm(GR.of(1), 1, 0, 0, ((HALF, 2), (ONE, -2)))])
    g = _mode(neg=[ExpTrigTerm(GR.of(1), 1, 0, 0, ((HALF, 1), (ONE, -1)))])
    I = contract(f, g, kernel_c(k), params)
    assert I.rational.factors == {8: 2, -8: 2}
    with pytest.raises(NonTelescoping, match="multiplicity 2") as exc:
        closed_form(I, params)
    assert exc.traceback[-1].name == "_family_order"


@pytest.mark.parametrize("k", ["1/7", "2/9", "1/10", "11/16"])
def test_gamma_factors_in_sparse_product_order(k):
    """closed_form inserts its Gamma factors in the order the sparse product
    N * (zeta^{2M} - 1)/den first meets each exponent, a sum that cancels
    going back in at the end.  Structure functions are evaluated by summing
    their factors in that order, so another order moves the last digits of
    report residuals at these levels."""
    params, cat, _, _ = bind_shipped(k)
    checked = 0
    for label, _, f, g, K in contraction_pairs(cat):
        I = contract(f, g, K, params)
        R = I.rational
        if not R.factors:
            continue
        try:
            sf = closed_form(I, params)
        except CosetForgeError:
            continue
        M = _family_order(R, I.lattice)
        product = sparse_mul(sparse(R.num), sparse(R.cofactor(2 * M)))
        scale = GR(Fraction(M, I.lattice))
        want = [gamma_key(scale, Fraction(2 * M - m, 2 * M)) for m in product]
        assert list(sf.gammas) == want, label
        checked += 1
    assert checked


def test_unbalanced_hbar_power_rejected():
    k = Fraction(2)
    f = _mode(pos=[ExpTrigTerm(GR.of(1), 0, 0, 0, ())])
    g = _mode(neg=[ExpTrigTerm(GR.of(1), 1, 0, 0, ())])
    with pytest.raises(IllPosedContraction):
        contract(f, g, kernel_c(k), P1)


def test_structure_function_normalize_recurrence():
    # Gamma(x+1)/Gamma(x) at scale s collapses to (iw + 0*s*hbar)/(s*hbar)
    sf = (StructureFunction.from_gamma(2, 1, 1)
          * StructureFunction.from_gamma(2, 0, -1))
    n = sf.normalize()
    assert not n.gammas
    assert linear_factors(n) == {GR.of(0): 1}
    for w in (1.2 - 0.7j,):
        assert abs(sf.eval(w, 1.0) - n.eval(w, 1.0)) < 1e-14


def test_structure_function_negate_and_rotate():
    # (iw + h/2)/(iw - h/2) rotated is (w - h/2)/(w + h/2)
    sf = (StructureFunction.from_linear(GR.of(HALF), 1)
          * StructureFunction.from_linear(GR.of(-HALF), -1))
    rot = sf.wick_rotate()
    for w in (0.9 - 0.2j, -1.3 + 0.8j):
        expect = (w - 0.5) / (w + 0.5)
        assert abs(rot.eval(w, 1.0) - expect) < 1e-13
    # double rotation is the formal hbar -> -hbar substitution
    rr = rot.wick_rotate()
    neg = (StructureFunction.from_linear(GR.of(-HALF), 1)
           * StructureFunction.from_linear(GR.of(HALF), -1))
    assert rr.symbolic_eq(neg)
    # involution on identity
    assert StructureFunction.one().wick_rotate().is_one()


def _reference_normalize(sf):
    """normalize over (scale GR, shift Fraction) keys, as it was written
    before the keys became integer tuples: (gammas, linears, const)."""
    gammas, linears, const = {}, linear_factors(sf), sf.const
    for (s, a), e in gamma_factors(sf).items():
        n = math.floor(a)
        merge(gammas, (s, a - n), e)
        sign = 1 if n > 0 else -1
        for j in (range(0, n) if n > 0 else range(n, 0)):
            merge(linears, s * (a - n + j), sign * e)
            const = const.times_base(s, 1, -sign * e)
    return gammas, {k: v for k, v in linears.items() if v}, const


def _assert_normalize_matches_reference(sf):
    got = sf.normalize()
    gammas, linears, const = _reference_normalize(sf)
    assert list(gamma_factors(got).items()) == list(gammas.items())
    assert list(linear_factors(got).items()) == list(linears.items())
    assert (got.const.mult, got.const.den, got.const.ph, list(got.const.pe.items()),
            got.const.hb) == (const.mult, const.den, const.ph,
                              list(const.pe.items()), const.hb)
    # the other key transformations, against the same reading of the keys
    for moved, scale in ((sf.negate_w(), GR(-1)), (sf.wick_rotate(), GR(0, -1))):
        assert list(gamma_factors(moved).items()) == [
            ((s * scale, a), e) for (s, a), e in gamma_factors(sf).items()]
        assert list(linear_factors(moved).items()) == [
            (rho * scale, e) for rho, e in linear_factors(sf).items()]


def test_normalize_shifts_negative_whole_and_across_zero():
    i2 = GR(Fraction(0), Fraction(1, 2))
    cases = [(2, Fraction(-7, 3), 1), (2, Fraction(5, 3), -2), (i2, -2, 1),
             (i2, 3, 1), (2, -HALF, 1), (2, HALF, -1), (2, Fraction(3, 2), 2),
             (GR(Fraction(1, 3), ONE), 0, 2), (i2, -1, -1), (2, Fraction(-1, 3), 1)]
    sf = StructureFunction.one()
    for scale, shift, e in cases:
        part = StructureFunction.from_gamma(scale, shift, e)
        _assert_normalize_matches_reference(part)
        sf = sf * part
    _assert_normalize_matches_reference(sf)
    # a whole shift reduces to the key (..., 0, 1); the scale keeps its fields
    assert list(StructureFunction.from_gamma(i2, -2, 1).normalize().gammas) == [
        (0, 1, 2, 0, 1)]
    assert list(StructureFunction.from_gamma(2, 3, 1).normalize().gammas) == [
        (2, 0, 1, 0, 1)]


# scales as the derivation makes them: a real or imaginary rational, the
# form the exact constant's (scale*hbar)^-1 factors take
_gamma_scales = st.builds(lambda u, r: u * r,
                          st.sampled_from([GR(1), GR(-1), GR(0, 1), GR(0, -1)]),
                          st.fractions(Fraction(1, 4), 3, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_gamma_scales, st.fractions(-4, 4, max_denominator=6),
                          st.integers(-2, 2)), max_size=6))
def test_normalize_matches_the_fraction_reference(parts):
    sf = StructureFunction.one()
    for scale, shift, e in parts:
        sf = sf * StructureFunction.from_gamma(scale, shift, e)
    _assert_normalize_matches_reference(sf)


# ---------------------------------------------------------------------------
# float plans and the log Gamma memo

def _reference_log_eval(sf, w, hbar):
    """The direct evaluation from the exact data, kept here as the oracle for
    the float plan: same operations in the same order."""
    s = cmath.log(sf.const.eval(hbar))
    for (sc, a), e in gamma_factors(sf).items():
        s += e * log_gamma(1j * w / (complex(sc) * hbar) + float(a))
    for rho, e in linear_factors(sf).items():
        s += e * cmath.log(1j * w + complex(rho) * hbar)
    if sf.exp_linear:
        s += float(sf.exp_linear) * 1j * w / hbar
    return s


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the same failure must surface on both routes
        return type(exc)


def _same(a, b):
    if isinstance(a, complex) and isinstance(b, complex):
        return a == b or (cmath.isnan(a) and cmath.isnan(b))
    return a == b


_small = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_scales = st.builds(GR, _small, _small).filter(bool)
_units = st.sampled_from([GR.of(2), GR.of(Fraction(1, 3)), GR(Fraction(0), Fraction(2)),
                          GR(Fraction(0), Fraction(-1, 2)), GR.of(-5)])
_consts = st.builds(
    lambda g, base, e: ExactConst.one().times_gr(g).times_base(base, 1, e),
    _scales, _units, _small)
_functions = st.builds(
    StructureFunction,
    st.dictionaries(st.builds(gamma_key, _scales, _small), st.integers(-3, 3),
                    max_size=5),
    st.dictionaries(st.builds(linear_key, _scales),
                    st.integers(-2, 2), max_size=3),
    _consts, _small)
_points = st.builds(complex, st.floats(-6, 6), st.floats(-6, 6))


@settings(max_examples=60, deadline=None)
@given(st.lists(_functions, min_size=1, max_size=3),
       st.lists(_points, min_size=1, max_size=4), st.sampled_from([1.0, 0.5]))
def test_float_plan_and_memo_bit_identical_to_direct_evaluation(sfs, points, hbar):
    memo = {}
    sfs = sfs + [sfs[0] * sfs[-1]]  # shares Gamma arguments with the others
    for w in points + [-w for w in points] + [w.conjugate() for w in points]:
        for sf in sfs:
            ref = _outcome(lambda: _reference_log_eval(sf, w, hbar))
            assert _same(_outcome(lambda: sf.log_eval(w, hbar)), ref)
            for _ in range(2):  # a miss that fills the memo, then a hit
                assert _same(_outcome(lambda: sf.log_eval(w, hbar, memo)), ref)
            if isinstance(ref, complex):
                assert _same(_outcome(lambda: sf.eval(w, hbar, memo)),
                             _outcome(lambda: cmath.exp(ref)))
    # the plan follows a change of hbar
    sf = sfs[0]
    other = 1.5 - hbar
    w = points[0]
    assert _same(_outcome(lambda: sf.log_eval(w, other, memo)),
                 _outcome(lambda: _reference_log_eval(sf, w, other)))


def test_gamma_pole_raises_and_is_not_memoised():
    sf = StructureFunction.from_gamma(2, -1, 1)     # Gamma(iw/(2h) - 1)
    memo = {}
    for _ in range(2):
        with pytest.raises(PoleAtNonPositiveInteger):
            sf.eval(0.0, 1.0, memo)
    assert memo == {}
    w = 0.3 - 1.1j
    assert sf.eval(w, 1.0, memo) == sf.eval(w, 1.0)
    assert list(memo) == [1j * w / (2 + 0j) - 1.0]


def test_fresh_catalog_starts_with_empty_memo():
    text = (importlib.resources.files("coset_forge") / "data" / "paper.alg").read_text()
    _, cat, rels, _, _ = parse_definitions(text).bind(Fraction(2), [Fraction(1)])
    assert cat._lg_memo == {}
    rep = verify_relation(cat, next(r for r in rels if r.rel_id == "C_p_C_p"))
    assert rep.passed and cat._lg_memo
    _, again, _, _, _ = parse_definitions(text).bind(Fraction(2), [Fraction(1)])
    assert again._lg_memo == {}
    assert Catalog(P1)._lg_memo == {}


def test_grid_point_on_gamma_pole_fails_the_relation():
    # at k = 3, C_p_C_p carries Gamma(iw/(3h) + 1/3) and Gamma(iw/(3h) + 2/3):
    # w = 4i and w = 5i put their arguments exactly on -1
    text = (importlib.resources.files("coset_forge") / "data" / "paper.alg").read_text()
    _, cat, rels, _, _ = parse_definitions(text).bind(Fraction(3), [Fraction(1)])
    grid = [0.5 + 0.5j, 4j, 5j, 1.5 - 0.2j]
    for rel_id in ("C_p_C_p", "psi_psi"):       # exchange, shape
        rel = next(r for r in rels if r.rel_id == rel_id)
        rep = verify_relation(cat, rel, grid=grid)
        assert rep.symbolic_pass and not rep.passed
        assert [math.isnan(r) for r in rep.residuals] == [False, True, True, False]
        assert rep.max_rel_err < 1e-12
        assert rep.notes[-1] == "2 of 4 grid points failed to evaluate"
        assert verify_relation(cat, rel, grid=grid[::3]).passed
