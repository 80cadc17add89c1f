"""Contraction integrals: quadrature vs exact closed forms, exchange factors."""

import cmath
import functools
import importlib.resources
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from conftest import (bind_shipped, contraction_pairs, gamma_factors, linear_factors,
                      sparse, sparse_mul)
from coset_forge.algebra import TOLERANCE, Catalog, verify_relation
from coset_forge.contraction import (ContractionIntegrand, StructureFunction,
                                     _family_order, _pair_product, closed_form,
                                     contract,
                                     exchange_factor, gamma_key, linear_key,
                                     pair_closed_form, quad_eval)
from coset_forge.dsl import parse_definitions
from coset_forge.errors import (CosetForgeError, DivergenceMismatch, IllPosedContraction,
                                NonTelescoping, OutsideConvergenceStrip,
                                PoleAtNonPositiveInteger, QuadratureNonConvergent)
from coset_forge.exact import GR, ExactConst, LaurentPoly, LaurentRational, merge
from coset_forge.modes import AlgebraParams, ExpTrigTerm, Kernel, ModeFunction
from coset_forge.specfun import log_gamma

HALF = Fraction(1, 2)
ONE = Fraction(1)
P1 = AlgebraParams(Fraction(2), Fraction(1))


def _mode(pos=(), neg=()):
    return ModeFunction(pos, neg)


def beta_plus():
    return _mode(pos=[ExpTrigTerm(-2, 1, 0, ((HALF, 1), (ONE, -1)))])


def beta_minus():
    return _mode(neg=[ExpTrigTerm(2, 1, 0, ((HALF, 1), (ONE, -1)))])


def screened(sign, k):
    return _mode(
        pos=[ExpTrigTerm(sign, 1, sign * k / 4, ((k / 2, -1),))],
        neg=[ExpTrigTerm(sign, 1, -sign * k / 4, ((k / 2, -1),))])


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
        ExpTrigTerm(1, 1, Fraction(-2), ((ONE, -1), (ONE, -1))),
        ExpTrigTerm(-1, 1, Fraction(-1), ((ONE, -1), (ONE, -1))),
    ])
    g = _mode(neg=[ExpTrigTerm(1, 1, 0, ())])
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
    zero = quad_eval(I, -1j, P1)
    assert type(zero) is complex and zero == 0


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
    h_like = _mode(pos=[ExpTrigTerm(2, 1, 0, ())],
                   neg=[ExpTrigTerm(1, 1, 0, ((k / 2, -1),))])
    other = _mode(pos=[ExpTrigTerm(1, 1, 0, ((k / 2, -1),))],
                  neg=[ExpTrigTerm(-2, 1, 0, ())])
    with pytest.raises(DivergenceMismatch):
        exchange_factor(h_like, other, kernel_c(k), params)


def test_non_telescoping_quadrature_fallback():
    # sinh^4(ht/2)/sinh^2(ht) = sinh^2(ht/2)/(4 cosh^2(ht/2)): the reduced
    # denominator has repeated roots, so the series families do not reduce
    # to Gamma factors; quadrature still integrates the (regular) integrand
    k = Fraction(1)
    params = AlgebraParams(k)
    f = _mode(pos=[ExpTrigTerm(1, 1, 0, ((HALF, 2), (ONE, -2)))])
    g = _mode(neg=[ExpTrigTerm(1, 1, 0, ((HALF, 1), (ONE, -1)))])
    I = contract(f, g, kernel_c(k), params)
    with pytest.raises(NonTelescoping):
        closed_form(I, params)
    v = quad_eval(I, -4j, params)
    assert abs(v) > 0  # converged to something finite


def test_non_telescoping_repeated_factor_found_without_search():
    # the integrand of test_non_telescoping_quadrature_fallback: its reduced
    # denominator (zeta^4 + 1)^2 holds Phi_8 twice, and the family order
    # raises on that multiplicity before computing any order, on the
    # Laurent route and on the pair rule alike
    k = Fraction(1)
    params = AlgebraParams(k)
    f = _mode(pos=[ExpTrigTerm(1, 1, 0, ((HALF, 2), (ONE, -2)))])
    g = _mode(neg=[ExpTrigTerm(1, 1, 0, ((HALF, 1), (ONE, -1)))])
    I = contract(f, g, kernel_c(k), params)
    assert I.rational.factors == {8: 2}
    with pytest.raises(NonTelescoping, match="multiplicity 2") as exc:
        closed_form(I, params)
    assert exc.traceback[-1].name == "_family_order"
    with pytest.raises(NonTelescoping, match="order 8, multiplicity 2") as exc:
        pair_closed_form(f.positive_branch[0], g.negative_branch[0], kernel_c(k))
    assert exc.traceback[-1].name == "_family_order"


def test_repeated_factor_named_whatever_the_insertion_order():
    # the repeated factor of least order is named, not the first inserted
    one = LaurentPoly(0, [1], 1)
    for factors in ({8: 2, 6: 3}, {6: 3, 8: 2}):
        R = LaurentRational(one, factors)
        assert list(R.factors) == list(factors)
        with pytest.raises(NonTelescoping, match="order 6, multiplicity 3"):
            _family_order(R.factors, 4)


def _exact_quotient(p, q):
    """p / q for ascending integer coefficients, q monic, by long division;
    the remainder must be zero."""
    p, n = list(p), len(q) - 1
    out = [0] * (len(p) - n)
    for i in reversed(range(len(out))):
        c = out[i] = p[i + n]
        for j, y in enumerate(q):
            p[i + j] -= c * y
    assert not any(p)
    return out


@functools.cache
def _phi(d):
    """Phi_d, ascending: z^d - 1 over the Phi_e of the proper divisors e."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p = _exact_quotient(p, _phi(e))
    return tuple(p)


@pytest.mark.parametrize("k", ["1/7", "2/9", "1/10", "11/16"])
def test_gamma_factors_are_the_sparse_product_terms(k):
    """closed_form's Gamma factors are the terms of N * (zeta^{2M} - 1)/den,
    checked against a term-by-term product with the quotient taken here by
    long division, and the value of each closed form does not change when
    its dicts are filled in reversed order."""
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
        M = _family_order(R.factors, I.lattice)
        cofactor = [-1] + [0] * (2 * M - 1) + [1]
        for d, m in R.factors.items():
            for _ in range(m):
                cofactor = _exact_quotient(cofactor, _phi(d))
        product = sparse_mul(sparse(R.num),
                             {e: GR(c) for e, c in enumerate(cofactor) if c})
        scale = GR(Fraction(M, I.lattice))
        want = {gamma_key(scale, Fraction(2 * M - m, 2 * M)): d
                for m, d in product.items()}
        assert {key: GR.of(d) for key, d in sf.gammas.items()} == want, label
        rev = _reversed_copy(sf)
        for w in (0.3 + 0.2j, -1.7 + 0.5j):
            assert _same(_value_or_error(lambda: rev.log_eval(w, 1.0)),
                         _value_or_error(lambda: sf.log_eval(w, 1.0))), label
        checked += 1
    assert checked


def test_unbalanced_hbar_power_rejected():
    k = Fraction(2)
    f = _mode(pos=[ExpTrigTerm(1, 0, 0, ())])
    g = _mode(neg=[ExpTrigTerm(1, 1, 0, ())])
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
    # the primes of a constant in sorted order: repr, eval and == all read
    # them sorted or as a dict, so their insertion order is not observable
    assert (got.const.den, got.const.ph, sorted(got.const.pe.items()),
            got.const.hb) == (const.den, const.ph, sorted(const.pe.items()), const.hb)
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


def test_normalize_steps_each_constant_once(monkeypatch):
    # Gamma(x + n) = Gamma(x) prod (x + j): |n| linear factors, but the
    # constant (scale*hbar)^-n is one multiplication per scale, by the
    # summed power, and none for a scale whose powers sum to zero
    calls = []
    times_base = ExactConst.times_base

    def counting(self, base, hbar_pow, exponent):
        calls.append(exponent)
        return times_base(self, base, hbar_pow, exponent)

    monkeypatch.setattr(ExactConst, "times_base", counting)
    sf = (StructureFunction.from_gamma(2, Fraction(-7, 3), 1)
          * StructureFunction.from_gamma(GR(0, 1), Fraction(7, 2), -2)
          * StructureFunction.from_gamma(3, HALF, 1)
          * StructureFunction.from_gamma(Fraction(1, 3), 1, 4)
          * StructureFunction.from_gamma(2, Fraction(2, 3), -1)
          * StructureFunction.from_gamma(GR(0, 1), Fraction(-1, 2), 2)
          * StructureFunction.from_gamma(5, Fraction(7, 5), 1)
          * StructureFunction.from_gamma(5, Fraction(-3, 5), 1))
    n = sf.normalize()
    # scale 2: -3*1 + 0; scale i: 3*-2 + -1*2; scale 3: none; scale 1/3:
    # 1*4; scale 5: 1*1 + -1*1, which sums to zero
    assert sorted(calls) == [-4, 3, 8]
    assert sum(abs(e) for e in n.linears.values()) == 3 + 3 * 2 + 1 * 2 + 1 * 4 + 1 + 1


def _per_factor_normalize(sf):
    """normalize as it was when the constant (scale*hbar)^-n was multiplied
    in once per Gamma factor: (gammas, linears, const)."""
    gammas, linears, const = {}, dict(sf.linears), sf.const
    for (sa, sb, sq, an, d), e in sf.gammas.items():
        n, rn = divmod(an, d)
        merge(gammas, (sa, sb, sq, rn, d), e)
        sign = 1 if n > 0 else -1
        for j in (range(0, n) if n > 0 else range(n, 0)):
            x = rn + j * d
            g = math.gcd(sa * x, sb * x, sq * d)
            merge(linears, (sa * x // g, sb * x // g, sq * d // g), sign * e)
        const = const.times_base(GR(Fraction(sa, sq), Fraction(sb, sq)), 1, -n * e)
    return gammas, {k: v for k, v in linears.items() if v}, const


def test_normalize_equals_the_per_factor_constant():
    # seeded multisets over a few scales each, so scales repeat: real and
    # imaginary ones, and now and then one off both axes, which the
    # constant cannot hold; shifts with integer parts -6..6 and exponents
    # +-1..3.  The constant taken once per scale is the per-factor one, and
    # a ValueError comes exactly where the per-factor constant raises one,
    # a scale whose powers sum to zero included
    rng = random.Random(4601)
    axis = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    raised = cancelled = 0
    for _ in range(2500):
        pool = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.15:
                a, b = rng.choice([(1, 1), (2, -1), (-3, 2), (1, -1)])
            else:
                u, v = rng.choice(axis)
                p = rng.randint(1, 5)
                a, b = u * p, v * p
            q = rng.randint(1, 4)
            g = math.gcd(a, b, q)
            pool.append((a // g, b // g, q // g))
        gammas = {}
        for _ in range(rng.randint(1, 6)):
            d = rng.randint(1, 5)
            shift = Fraction(rng.randint(-6, 6) * d + rng.randint(0, d - 1), d)
            e = rng.choice([-3, -2, -1, 1, 2, 3])
            key = (*rng.choice(pool), shift.numerator, shift.denominator)
            gammas[key] = gammas.get(key, 0) + e
            if rng.random() < 0.2:
                # the same scale again, its power n*e cancelled
                n = math.floor(shift)
                if n:
                    back = (shift - n) - n
                    key = (*key[:3], back.numerator, back.denominator)
                    gammas[key] = gammas.get(key, 0) + e
                    cancelled += 1
        sf = StructureFunction(gammas, {(1, 0, 2): 1},
                               ExactConst.one().times_base(GR(3), 1, Fraction(1, 2)))
        try:
            want = _per_factor_normalize(sf)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError):
                sf.normalize()
            continue
        got = sf.normalize()
        assert (got.gammas, got.linears, got.const) == want
    assert raised > 50 and cancelled > 50


def test_results_share_no_dict_with_their_operands():
    g = {(0, 1, 2, 7, 3): 2, (2, 0, 1, -5, 2): -1}
    l = {(1, 0, 2): 1, (0, -1, 1): -2}
    c = ExactConst.one().times_base(GR(2), 1, 1)
    sf = StructureFunction(g, l, c)
    # the public constructor copies: changing the dicts passed in leaves it
    g[5, 0, 1, 0, 1] = 1
    l.clear()
    assert sf.gammas == {(0, 1, 2, 7, 3): 2, (2, 0, 1, -5, 2): -1}
    assert sf.linears == {(1, 0, 2): 1, (0, -1, 1): -2}
    other = StructureFunction({(0, 1, 2, 1, 3): 1}, {(1, 0, 2): -1, (3, 0, 1): 1})
    product = StructureFunction.product
    results = [sf * other, sf.inverse(), sf.negate_w(), sf.wick_rotate(),
               sf.normalize(), StructureFunction.exchange(sf, other),
               product([sf, other]), product([other, sf, other]), product([])]
    for r in results:
        for o in (sf, other):
            assert r.gammas is not o.gammas and r.linears is not o.linears
    assert product([sf]) is sf
    assert product([sf, other]).raw_eq(sf * other)
    assert product([]).raw_eq(StructureFunction.one())


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


def _outcome(f):
    try:
        return f()
    except ValueError as exc:
        return type(exc)


def _product(parts):
    sf = StructureFunction.one()
    for scale, shift, e, rho, el, c in parts:
        sf = (sf * StructureFunction.from_gamma(scale, shift, e)
              * StructureFunction.from_linear(rho, el)
              * StructureFunction(const=ExactConst.one().times_base(GR(c), 0, 1)))
    return sf


# a complex scale cannot be normalized alone, only after it cancels
_sym_parts = st.lists(st.tuples(
    st.one_of(_gamma_scales, _gamma_scales, st.sampled_from([GR(1, 1), GR(-2, 1)])),
    st.fractions(-3, 3, max_denominator=4), st.integers(-2, 2),
    st.fractions(-2, 2, max_denominator=3), st.integers(-1, 1),
    st.sampled_from([1, 2, -1, Fraction(1, 3)])), max_size=5)


@settings(max_examples=150, deadline=None)
@given(_sym_parts, _sym_parts, st.integers(0, 4))
def test_symbolic_eq_agrees_with_the_quotient(parts, extra, variant):
    # symbolic_eq compares normalized forms; the reference normalizes the
    # quotient.  Variants 0 and 1 rewrite x as an equal function: its
    # normalized form, or its parts in reverse times z / normalize(z), whose
    # Gamma classes cancel only after normalization; 3 changes only linear
    # factors and the constant, 4 only Gamma factors
    x, z = _product(parts), _product(extra)
    if variant == 0:
        y = _outcome(x.normalize)
    elif variant == 1:
        zn = _outcome(z.normalize)
        y = zn if zn is ValueError else _product(parts[::-1]) * z * zn.inverse()
    elif variant == 2:
        y = x * z
    elif variant == 3:
        y = x * _product([(1, 0, 0, rho, el, c) for _, _, _, rho, el, c in extra])
    else:
        y = x * _product([(s, a % 1, e, 0, 0, 1) for s, a, e, _, _, _ in extra])
    assume(y is not ValueError)         # a rewrite that does not normalize
    got = _outcome(lambda: x.symbolic_eq(y))
    assert got == _outcome(lambda: (x * y.inverse()).is_one())
    assert got in (True, ValueError) if variant < 2 else got is not None


# ---------------------------------------------------------------------------
# one term pair's closed form straight from its sinh product

def _derivation(derive):
    """The Gamma and linear factors in order, the constant and the 1/t
    coefficient a derivation returns, or the type and message it raised."""
    try:
        sf, a = derive()
    except CosetForgeError as exc:
        return type(exc), str(exc)
    return list(sf.gammas.items()), list(sf.linears.items()), sf.const, a


def _pair_routes(tf, tg, K):
    """(what the catalog's pair route gives, what closed_form(contract(...))
    gives) for tf on t > 0 against tg on t < 0 over K."""
    cat = Catalog(P1)
    cat.kernels["x"] = K

    def laurent():
        I = contract(_mode(pos=[tf]), _mode(neg=[tg]), K, P1)
        return closed_form(I, P1), I.log_divergence_coeff

    return (_derivation(lambda: cat._single_pair_closed("x", tf, tg)),
            _derivation(laurent))


@st.composite
def _sinh_pairs(draw):
    """Two grammar terms and a kernel: slopes are multiples of one base
    slope, 1 (the kernel's first slope) or drawn freely, so products with
    a numerator slope a multiple of the denominator's, a squared denominator
    and two denominator slopes all come up, and the kernel's factors cancel
    some of the terms'."""
    base = draw(st.fractions(Fraction(1, 4), 3, max_denominator=5))
    slope = st.one_of(
        st.builds(lambda m: base * m, st.sampled_from([HALF, ONE, ONE, 2, 3, Fraction(3, 2)])),
        st.just(ONE), st.fractions(Fraction(1, 6), 6, max_denominator=6))

    def term():
        return ExpTrigTerm(draw(st.one_of(st.integers(-4, 4),
                                          st.fractions(-4, 4, max_denominator=3))),
                           draw(st.sampled_from([1] * 8 + [0, 2])),
                           draw(st.fractions(-3, 3, max_denominator=6))
                           + draw(st.fractions(-2, 2, max_denominator=4)),
                           tuple(draw(st.lists(st.tuples(slope, st.integers(-2, 2)),
                                               max_size=3))))

    tf, tg = term(), term()
    return tf, tg, Kernel("x", draw(st.sampled_from([1, -1])), draw(slope))


@settings(max_examples=200, deadline=None)
@given(_sinh_pairs())
def test_pair_closed_form_is_the_laurent_derivation(pair):
    # the same factors in the same order, constant and 1/t coefficient, or
    # the same exception with the same message: both routes read the pair's
    # product from _pair_product (checked against floats below), and each
    # reduces it to families in its own way
    got, want = _pair_routes(*pair)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(_sinh_pairs())
def test_pair_product_is_the_float_product_of_its_terms(pair):
    # an oracle that shares no integer with _pair_product: tf's value at t,
    # tg's at -t and the kernel's density, each taken in floats by its own
    # eval; the density's 1/t is the integrand's, outside the product
    tf, tg, K = pair
    if tf.hbar_power + tg.hbar_power != 2:
        with pytest.raises(IllPosedContraction, match="^unbalanced hbar power"):
            _pair_product(tf, tg, K)
        return
    cn, cd, tn, td, factors = _pair_product(tf, tg, K)
    assert td > 0 and math.gcd(tn, td) == 1 and all(e for _, e in factors)
    for hbar in (1.0, 0.75):
        for t in (0.05, 0.7, 2.3):
            got = cn / cd * math.exp(tn / td * hbar * t)
            for (bn, bd), e in factors:
                got *= math.sinh(bn / bd * hbar * t) ** e
            want = tf.eval(t, hbar) * tg.eval(-t, hbar) * K.eval_density(t, hbar)
            assert abs(got / t - want) <= 1e-12 * abs(want), (pair, hbar, t)


@seed(3)
@settings(max_examples=300, deadline=None, database=None)
@given(_sinh_pairs())
def test_pair_closed_form_agrees_with_quadrature(pair):
    # an oracle that shares nothing with the pair rule's integration: each
    # pair the rule derives, with a nonzero integrand, against quadrature of
    # its contraction at points 0.5 hbar to 1 hbar inside the strip, at an
    # hbar that shows the constant (M hbar/L)^S1 (at this seed, 37 such
    # pairs, 15 of them Gamma products and 7 of those with S1 != 0)
    tf, tg, K = pair
    try:
        sf, _ = pair_closed_form(tf, tg, K)
    except CosetForgeError:
        return
    params = AlgebraParams(Fraction(2), Fraction(3, 4))
    I = contract(_mode(pos=[tf]), _mode(neg=[tg]), K, params)
    if I.is_zero():
        return
    hbar = params.hbar_float
    bound = I.strip_bound(hbar)
    for re, depth in ((0.3, 0.5), (-0.7, 0.75), (1.1, 1.0)):
        w = complex(re, -(bound + depth * hbar))
        d = quad_eval(I, w, params) - sf.log_eval(w, hbar)
        d -= 2j * math.pi * round(d.imag / (2 * math.pi))
        assert abs(d) <= TOLERANCE, (pair, w, d)


# (tf, tg, kernel slope, Laurent outcome)
_PAIR_SHAPES = {
    # no denominator: Frullani's linear factors
    "frullani": (ExpTrigTerm(4, 1, Fraction(1, 3)), ExpTrigTerm(-1, 1, ONE),
                 HALF, "ok"),
    # sinh(3 x) / sinh(x): the exact quotient's linear factors
    "quotient": (ExpTrigTerm(1, 1, Fraction(1, 4), ((ONE, -2),)),
                 ExpTrigTerm(1, 1), Fraction(3), "ok"),
    # sinh(x/2)^2 sinh(3x/2) / sinh(x): Binet's Gamma factors
    "binet": (ExpTrigTerm(-2, 1, 0, ((HALF, 1), (ONE, -1))),
              ExpTrigTerm(2, 1, 0, ((HALF, 1), (ONE, -1))), Fraction(3, 2), "ok"),
    # sinh(x) sinh(6x) / (sinh(2x) sinh(3x)): two denominator slopes whose
    # cyclotomic factors the numerator cancels, a polynomial
    "two slopes": (ExpTrigTerm(1, 1, 0, ((Fraction(2), -1),)),
                   ExpTrigTerm(1, 1, 0, ((Fraction(3), -1),)), Fraction(6), "ok"),
    # (sinh(2x) / sinh(x))^2 = (2 cosh x)^2: a squared denominator that
    # cancels
    "squared": (ExpTrigTerm(1, 1, 0, ((ONE, -3), (Fraction(2), 1))),
                ExpTrigTerm(1, 1), Fraction(2), "ok"),
    # sinh(x) sinh(5x)^2 / sinh(5x)^3: Binet's Gamma factors at gamma = 5
    "binet gamma 5": (ExpTrigTerm(1, 1, 0, ((Fraction(5), -3),)),
                      ExpTrigTerm(1, 1, 0, ((Fraction(5), 1),)), Fraction(5), "ok"),
    # sinh(x) sinh(x/3) sinh(3x/4) / sinh(25x/2), tilted: and at gamma = 25/2
    "binet gamma 25/2": (ExpTrigTerm(4, 1, Fraction(1, 6),
                                     ((Fraction(1, 3), 1), (Fraction(25, 2), -1))),
                         ExpTrigTerm(-1, 1, Fraction(1, 4)), Fraction(3, 4), "ok"),
    # sinh(x)^2 / (sinh(101x) sinh(103x)): the family order 101 * 206
    # exceeds the cap 8 L deg(den) = 6464
    "cap": (ExpTrigTerm(1, 1, 0, ((Fraction(101), -1),)),
            ExpTrigTerm(1, 1, 0, ((Fraction(103), -1),)), ONE,
            "family order exceeds the cap; families do not reduce to Gamma factors"),
    # sinh(x/2)^5 sinh(x)^-3: Phi_4(X) three times in the denominator,
    # named by its order 8 on zeta = X^(1/2)
    "repeated root": (ExpTrigTerm(1, 1, 0, ((HALF, 2), (ONE, -2))),
                      ExpTrigTerm(1, 1, 0, ((HALF, 2), (ONE, -2))), HALF,
                      "denominator has repeated roots (cyclotomic factor of order 8, "
                      "multiplicity 3); families do not reduce to Gamma factors"),
    # divergence faster than 1/t before the non-integer coefficient 1/3
    "divergent": (ExpTrigTerm(Fraction(1, 3), 1, 0, ((ONE, -1),)),
                  ExpTrigTerm(1, 1, 0, ((HALF, -1), (Fraction(3), -1))), HALF,
                  "integrand diverges faster than 1/t at the origin"),
    # the hbar balance before the non-integer coefficient 1/3
    "unbalanced": (ExpTrigTerm(Fraction(1, 3), 2, 0, ((ONE, -1),)),
                   ExpTrigTerm(1, 1), HALF, "unbalanced hbar power 1 in contraction"),
    "non-integer linear": (ExpTrigTerm(Fraction(1, 3), 1, 0, ((ONE, -1),)),
                           ExpTrigTerm(1, 1, 0, ((HALF, 1),)), Fraction(3, 2),
                           "Frullani family coefficient -1/12 is not an integer"),
    "non-integer Gamma": (ExpTrigTerm(Fraction(1, 3), 1, 0, ((ONE, -2),)),
                          ExpTrigTerm(1, 1, 0, ((HALF, 1),)), Fraction(3, 2),
                          "Gamma family coefficient -1/6 is not an integer"),
}


@pytest.mark.parametrize("shape", _PAIR_SHAPES)
def test_pair_closed_form_gives_the_laurent_outcome_for_each_shape(shape):
    # every shape, whatever its denominator, is derived from its sinh
    # product with the Laurent route's outcome
    tf, tg, slope, outcome = _PAIR_SHAPES[shape]
    got, want = _pair_routes(tf, tg, Kernel("x", 1, slope))
    assert got == want
    assert isinstance(want[0], list) if outcome == "ok" else want[1] == outcome


# ---------------------------------------------------------------------------
# quadrature: per-integrand and per-point work bound once

def _reference_quad_eval(I, w, params, tol=1e-10):
    """quad_eval as it stood when every refinement level rebuilt the small-t
    series from its Fractions, split the nodes with boolean masks and took
    one integrand call of its own, kept here as the oracle for bit-identical
    values.  Returns (value, node function, refinement levels), the base
    grid counted as a level; raises QuadratureNonConvergent at the node cap
    as quad_eval does."""
    import numpy as np
    ev = I.evaluator(params.hbar_float)

    def series_eval(t, w):
        n = ev.SERIES_ORDER
        g = [complex(c) * ev.eta ** r for r, c in enumerate(ev.series)]
        coeffs = np.zeros(n + 1, dtype=complex)
        fact = 1.0
        for m in range(n + 1):
            if m:
                fact *= m
            em = (-1j * w) ** m / fact
            am = (-1.0) ** m / fact
            for r in range(n + 1 - m):
                coeffs[r + m] += g[r] * em
            coeffs[m] -= ev.a * am
        out = np.zeros(t.shape, dtype=complex)
        for r in range(n, 0, -1):
            out = out * t + coeffs[r]
        return out

    def integrand(t, w):
        small = t * (abs(w) + ev.scale_hint + 1.0) < 0.01
        out = np.empty(t.shape, dtype=complex)
        if np.any(~small):
            tt = t[~small]
            lz = ev.eta * tt
            numv = (ev.ncoef[None, :] * np.exp(np.outer(lz, ev.nexp))).sum(axis=1)
            denv = (ev.dcoef[None, :] * np.exp(np.outer(lz, ev.dexp))).sum(axis=1)
            expo = np.exp(((ev.nshift - ev.dshift) * ev.eta - 1j * w) * tt)
            out[~small] = (numv / denv * expo - ev.a * np.exp(-tt)) / tt
        if np.any(small):
            out[small] = series_eval(t[small], w)
        return out

    bound = I.strip_bound(params.hbar_float)
    decay = -(w.imag + bound)
    t_max = 60.0 / min(decay, 1.0) if decay < 1.0 else 60.0 / decay + 10.0
    s_hi = math.asinh(max(2.0 * math.log(t_max) / math.pi, 1.0)) + 0.5
    s_lo = -math.asinh(2.0 * 42.0 / math.pi)

    def level_nodes(h, offset):
        if offset:
            s = np.arange(s_lo + h / 2.0, s_hi, h)
        else:
            s = np.arange(s_lo, s_hi + h / 2.0, h)
        t = np.exp(0.5 * math.pi * np.sinh(s))
        return t, 0.5 * math.pi * np.cosh(s) * t

    h = 0.5
    t, wgt = level_nodes(h, offset=False)
    total = np.sum(integrand(t, w) * wgt) * h
    levels = 1
    for _ in range(8):
        t, wgt = level_nodes(h, offset=True)
        mid = np.sum(integrand(t, w) * wgt) * h
        levels += 1
        new = 0.5 * (total + mid)
        h *= 0.5
        err = abs(new - total)
        prev, total = total, new
        if err <= max(tol * 0.1, 1e-14 * (1.0 + abs(new))):
            return complex(total), integrand, levels
    if abs(total - prev) > tol * (1.0 + abs(total)):
        raise QuadratureNonConvergent(
            f"error estimate {abs(total - prev):.2e} above {tol:.1e} at node cap, "
            f"w = {w}, strip bound {bound}")
    return complex(total), integrand, levels


def _quadrature_cases():
    """(label, integrand, params) for shipped pairs at two levels, plus the
    non-telescoping integrand, whose closed form does not exist."""
    cases = []
    for k, hbar in (("2", "1"), ("5/2", "1/2")):
        params, cat, _, _ = bind_shipped(k, hbar)
        for label, _, f, g, K in contraction_pairs(cat)[::16]:
            cases.append((f"{label}@{k},{hbar}", contract(f, g, K, params), params))
    params = AlgebraParams(Fraction(1))
    f = _mode(pos=[ExpTrigTerm(1, 1, 0, ((HALF, 2), (ONE, -2)))])
    g = _mode(neg=[ExpTrigTerm(1, 1, 0, ((HALF, 1), (ONE, -1)))])
    cases.append(("non-telescoping", contract(f, g, kernel_c(Fraction(1)), params),
                  params))
    return cases


def _reference_levels(I, w, params):
    """Refinement levels of the reference at w, the base grid counted."""
    try:
        return _reference_quad_eval(I, w, params)[2]
    except QuadratureNonConvergent:
        return 9  # the base grid and all eight offset levels


def _extreme_points():
    """(label, integrand, params, w) at the fewest refinement levels
    measured (3), by the strip edge where the reference takes 8, and at a
    point that reaches the node cap."""
    cases = {label: (I, params) for label, I, params in _quadrature_cases()}
    out = []
    for label, re, gap in (("non-telescoping", 0.0, 20.0),
                           ("C_plus[0].C_plus[0].chat@2,1", -5.0, 0.01),
                           ("B_plus[0].beta_minus[0].bhat@2,1", 3.0, 1e-3)):
        I, params = cases[label]
        bound = max(0.0, I.strip_bound(params.hbar_float))
        out.append((label, I, params, complex(re, -(bound + gap))))
    return out


def _s_hi(I, w, params):
    """The upper node cutoff quad_eval takes at w."""
    decay = -(w.imag + I.strip_bound(params.hbar_float))
    t_max = 60.0 / min(decay, 1.0) if decay < 1.0 else 60.0 / decay + 10.0
    return math.asinh(max(2.0 * math.log(t_max) / math.pi, 1.0)) + 0.5


def _strip_points(I, params):
    """The benchmark's 20 strip points for integrand I, those of the
    acceptance suite's quadrature criterion."""
    hf = params.hbar_float
    scale = hf * max(1.0, float(params.k))
    base = max(0.0, I.strip_bound(hf))
    return [complex((-2.0 + 4.0 * j / 19) * scale,
                    -(base + (0.3 + 0.45 * (j % 5) / 5) * scale)) for j in range(20)]


def _level_nodes(j, s_hi):
    """The nodes and weights of refinement level j up to s_hi, as the
    reference builds them."""
    import numpy as np
    s_lo = -math.asinh(2.0 * 42.0 / math.pi)
    h = 0.5 ** max(j, 1)
    s = np.arange(s_lo + h / 2.0, s_hi, h) if j else np.arange(s_lo, s_hi + h / 2.0, h)
    t = np.exp(0.5 * math.pi * np.sinh(s))
    return t, 0.5 * math.pi * np.cosh(s) * t


def _assert_level_sums_match_the_reference(I, w, params, reference, label):
    """The sum of every refinement level of I's evaluator at w against the
    reference node function times the weights at the reference's nodes, to
    1e-13 of the sum of their absolute values."""
    import numpy as np
    ev = I.evaluator(params.hbar_float)
    s_hi = _s_hi(I, w, params)
    reach = abs(w) + ev.scale_hint + 1.0
    sums = list(ev.level_sums(w, s_hi))
    assert len(sums) == 9
    for j, got in enumerate(sums):
        t, wgt = _level_nodes(j, s_hi)
        # nodes either side of the small-t cutoff
        assert 0 < np.count_nonzero(t * reach < 0.01) < len(t), (label, w, j)
        terms = reference(t, w) * wgt
        assert abs(got - terms.sum()) <= 1e-13 * np.abs(terms).sum(), (label, w, j)


def _estimate(message):
    """The error estimate a node-cap message gives, and the rest of it."""
    head, rest = message.split(" above ", 1)
    return float(head.removeprefix("error estimate ")), rest


def test_quadrature_agrees_with_the_per_level_reference():
    cases = _quadrature_cases()
    assert len(cases) >= 10
    for label, I, params in cases:
        if I.is_zero():
            continue
        hf = params.hbar_float
        base = max(0.0, I.strip_bound(hf))
        # strip points near and far from the origin: |w| moves the small-t
        # cutoff, and with it the number of series nodes
        for w in (complex(0.0, -(base + 0.3)), complex(-1.7, -(base + 0.75)),
                  complex(40.0, -(base + 2.0)), complex(-0.2, -(base + 25.0))):
            want, reference, _ = _reference_quad_eval(I, w, params)
            # the log of the contraction, to 1e-13
            assert abs(quad_eval(I, w, params) - want) <= 1e-13, (label, w)
            # each level's sum, from the node data the points before left
            # stored
            _assert_level_sums_match_the_reference(I, w, params, reference, label)
    # and at the fewest refinement levels measured, the most, and the cap
    levels = []
    for label, I, params, w in _extreme_points():
        try:
            want, _, n = _reference_quad_eval(I, w, params)
        except QuadratureNonConvergent as exc:
            with pytest.raises(QuadratureNonConvergent) as raised:
                quad_eval(I, w, params)
            # where it failed, and about the same error estimate
            got, rest = _estimate(str(raised.value))
            ref, ref_rest = _estimate(str(exc))
            assert rest == ref_rest, label
            assert abs(got - ref) <= 0.02 * ref, label
            assert str(exc).endswith(f"at node cap, w = {w}, strip bound "
                                     f"{I.strip_bound(params.hbar_float)}")
            levels.append("cap")
        else:
            assert abs(quad_eval(I, w, params) - want) <= 1e-13, label
            levels.append(n)
    assert levels == [3, 8, "cap"]


def test_quadrature_binds_each_integrand_and_point_once(monkeypatch):
    from coset_forge import contraction

    series, builds = [], []
    series_quotient = contraction._series_quotient

    def counted_series(*args):
        series.append(args)
        return series_quotient(*args)

    monkeypatch.setattr(contraction, "_series_quotient", counted_series)
    evaluator = contraction._IntegrandEvaluator
    series_coeffs = evaluator.series_coeffs

    def counted_coeffs(self, w):
        builds.append(w)
        return series_coeffs(self, w)

    monkeypatch.setattr(evaluator, "series_coeffs", counted_coeffs)
    k = Fraction(2)
    params = AlgebraParams(k)
    I = contract(beta_plus(), beta_minus(), kernel_l(k), params)
    points = [complex(0.5 * j - 1.0, -3.5 - 0.2 * j) for j in range(6)]
    for w in points:
        quad_eval(I, w, params)
    # one series per evaluator, one coefficient set per point, however many
    # refinement levels each point took
    assert len(series) == 1
    assert builds == points
    # a second hbar is a second evaluator: one more series
    quad_eval(I, points[0], AlgebraParams(k, Fraction(1, 2)))
    assert len(series) == 2
    # and each point above took several refinement levels
    assert min(_reference_levels(I, w, params) for w in points) >= 4


def _series_divide(nser, dser, order):
    """Series quotient q with nser = dser * q, allowing a common leading
    zero: the Fraction route the evaluator once took."""
    lead = 0
    while lead < len(dser) and not dser[lead]:
        if nser[lead]:
            raise IllPosedContraction("integrand pole at t=0 beyond 1/t")
        lead += 1
    d = dser[lead:]
    nn = nser[lead:]
    q = []
    for r in range(order + 1):
        acc = nn[r] if r < len(nn) else Fraction(0)
        for j in range(1, min(r, len(d) - 1) + 1):
            acc = acc - d[j] * q[r - j]
        q.append(acc / d[0])
    return q


def _taylor_at_one(p, order):
    """Coefficients of p(e^s) in s up to s^order: (1/r!) sum_m c_m m^r."""
    terms = p.terms()
    return [Fraction(sum(c * e ** r for e, c in terms), p.q * math.factorial(r))
            for r in range(order + 1)]


def test_quadrature_float_series_is_the_fraction_route():
    integrands = [I for _, I, _ in _quadrature_cases()[-1:]]
    params = {}
    for k, hbar in (("2", "1"), ("5/2", "1/2"), ("5/12", "1")):
        p, cat, _, _ = bind_shipped(k, hbar)
        for _, _, f, g, K in contraction_pairs(cat):
            integrands.append(contract(f, g, K, p))
            params[id(integrands[-1])] = p
    checked = 0
    for I in integrands:
        if I.is_zero():
            continue
        hbar = params[id(I)].hbar_float if id(I) in params else 1.0
        ev = I.evaluator(hbar)
        n = ev.SERIES_ORDER
        want = _series_divide(_taylor_at_one(I.rational.num, n + 4),
                              _taylor_at_one(I.rational.den, n + 4), n)
        # bit for bit: each coefficient is the float of the same rational
        assert ev.float_series == [complex(c) * ev.eta ** r for r, c in enumerate(want)]
        checked += 1
    assert checked >= 500


def test_quadrature_computes_each_far_node_once_per_integrand(monkeypatch):
    import numpy as np
    from coset_forge import contraction

    computed = []
    far = contraction._IntegrandEvaluator._far

    def counted(self, t, wgt):
        computed.append(t.copy())
        return far(self, t, wgt)

    monkeypatch.setattr(contraction._IntegrandEvaluator, "_far", counted)
    cases = {label: (I, params) for label, I, params in _quadrature_cases()}
    I, params = cases["C_plus[0].C_plus[0].chat@2,1"]
    I = ContractionIntegrand(I.lattice, I.rational)
    ev = I.evaluator(params.hbar_float)
    bound = max(0.0, I.strip_bound(params.hbar_float))
    # the strip edge nears, so the upper node cutoff grows, and |w| grows,
    # so the series cutoff moves down
    points = [complex(x, -(bound + gap)) for x, gap in
              ((0.0, 4.0), (6.0, 1.5), (12.0, 0.5), (20.0, 0.15))]
    lo, hi = math.inf, 0.0
    below = above = 0
    seen = []
    for w in points:
        del computed[:]
        assert abs(quad_eval(I, w, params) - _reference_quad_eval(I, w, params)[0]) <= 1e-13, w
        new = np.concatenate(computed)
        # and never on an empty block
        assert all(len(block) for block in computed), w
        # R is never taken at a node this point sends to the series
        assert new.min() * (abs(w) + ev.scale_hint + 1.0) >= 0.01, w
        if seen:
            below += new.min() < lo
            above += new.max() > hi
        lo, hi = min(lo, new.min()), max(hi, new.max())
        seen += computed
    # every later point added nodes below and above all earlier ones
    assert below == above == len(points) - 1
    everything = np.concatenate(seen)
    # each node of each level at most once: the levels' nodes are distinct
    assert len(np.unique(everything)) == len(everything)
    # and a second pass over the points computes nothing
    del computed[:]
    for w in points:
        quad_eval(I, w, params)
    assert not computed


def test_quadrature_reads_known_node_counts_and_far_weights_in_place(monkeypatch):
    from coset_forge import contraction

    missed = []
    node_table, far_weights = contraction._node_table, contraction._IntegrandEvaluator._far_weights

    def counted_table(j, s_hi):
        missed.append(("table", j))
        return node_table(j, s_hi)

    def counted_weights(self, j, *args):
        missed.append(("weights", j))
        return far_weights(self, j, *args)

    monkeypatch.setattr(contraction, "_TABLES", [None] * 9)
    monkeypatch.setattr(contraction, "_node_table", counted_table)
    monkeypatch.setattr(contraction._IntegrandEvaluator, "_far_weights", counted_weights)
    cases = {label: (I, params) for label, I, params in _quadrature_cases()}
    I, params = cases["B_plus[0].beta_minus[0].bhat@2,1"]
    I = ContractionIntegrand(I.lattice, I.rational)
    points = _strip_points(I, params)
    first = _values(I, points, params)
    # the first point of each level misses both
    assert {("table", 0), ("weights", 0)} <= set(missed)
    del missed[:]
    # a second pass knows every node count and every far weight it asks for
    assert _values(I, points, params) == first
    assert not missed


def _branch_outer(lz, exps, coefs):
    """The row sums of coefs * exp(outer(lz, exps)): _far's form for every
    branch before term-by-term sums."""
    import numpy as np
    return (coefs * np.exp(np.outer(lz, exps))).sum(axis=1)


def test_quadrature_term_by_term_branch_sums_are_the_outer_row_sums():
    import numpy as np
    from coset_forge.contraction import _branch_sums
    rng = np.random.default_rng(44)
    checked = set()
    for terms in range(1, 8):
        for nodes in (1, 2, 3, 7, 8, 9, 16, 17, 100, 1001):
            for _ in range(5):
                # eta t and exponents e - shift <= 0 as _far meets them, and
                # coefficients over several decades of both signs
                lz = rng.uniform(0.0, 4.0, nodes) * 10.0 ** rng.integers(-5, 2, nodes)
                exps = np.sort(rng.integers(-60, 1, terms)).astype(float)
                coefs = rng.standard_normal(terms) * 10.0 ** rng.integers(-3, 4, terms)
                got = _branch_sums(lz, exps, coefs)
                assert got.tobytes() == _branch_outer(lz, exps, coefs).tobytes(), (terms, nodes)
                checked.add(terms)
    assert checked == set(range(1, 8))


def test_quadrature_far_weights_keep_the_outer_form_from_8_terms(monkeypatch):
    import numpy as np
    from coset_forge import contraction

    outer, widths = np.outer, []

    def counted(a, b, *args, **kwargs):
        widths.append(len(b))
        return outer(a, b, *args, **kwargs)

    t, wgt = _level_nodes(0, 3.0)
    far = slice(int(t.searchsorted(0.01)), len(t))
    t, wgt = t[far], wgt[far]
    long = set()
    for k in ("1", "2", "3", "4"):
        for hbar in ("1", "1/2"):
            params, cat, _, _ = bind_shipped(k, hbar)
            for label, _, f, g, K in contraction_pairs(cat):
                I = contract(f, g, K, params)
                if I.is_zero():
                    continue
                ev = I.evaluator(params.hbar_float)
                monkeypatch.setattr(np, "outer", counted)
                del widths[:]
                got = ev._far(t, wgt)
                monkeypatch.setattr(np, "outer", outer)
                # the outer product for a branch of 8 or more terms only
                assert widths == [n for n in (len(ev.nexp), len(ev.dexp)) if n >= 8], label
                lz = ev.eta * t
                r = (_branch_outer(lz, ev.nexp, ev.ncoef)
                     / _branch_outer(lz, ev.dexp, ev.dcoef))
                assert got.tobytes() == (wgt * r / t).astype(complex).tobytes(), (label, k)
                long.update(n for n in (len(ev.nexp), len(ev.dexp)) if n >= 8)
    # the shipped catalog's 9-term numerators
    assert 9 in long


def _values(I, points, params):
    """quad_eval at each point in turn, by repr, so bit for bit, and a
    failure as its message."""
    out = {}
    for w in points:
        try:
            out[w] = repr(quad_eval(I, w, params))
        except QuadratureNonConvergent as exc:
            out[w] = str(exc)
    return out


def test_quadrature_values_do_not_depend_on_the_point_order():
    import random
    for label, I, params in _quadrature_cases():
        if I.is_zero():
            continue
        bound = max(0.0, I.strip_bound(params.hbar_float))
        # near the edge and far from it, near the origin and far out
        points = [complex(x, -(bound + gap)) for x in (-3.0, 0.0, 0.5, 9.0)
                  for gap in (0.02, 0.4, 2.0, 30.0)]
        fresh = {w: _values(ContractionIntegrand(I.lattice, I.rational), [w], params)[w]
                 for w in points}
        shuffled = random.Random(label).sample(points, len(points))
        for order in (points, points[::-1], shuffled):
            got = _values(ContractionIntegrand(I.lattice, I.rational), order, params)
            assert got == fresh, (label, order)


def test_quadrature_far_blocks_change_no_value(monkeypatch):
    from coset_forge import contraction
    cases = []
    for label, I, params in _quadrature_cases():
        if I.is_zero():
            continue
        bound = max(0.0, I.strip_bound(params.hbar_float))
        points = [complex(x, -(bound + gap)) for x, gap in
                  ((0.0, 30.0), (0.5, 2.0), (9.0, 0.4), (-3.0, 0.02))]
        cases.append((label, I, params, points))
    want = {label: _values(ContractionIntegrand(I.lattice, I.rational), points, params)
            for label, I, params, points in cases}
    # one node per block, and blocks that end at no node count or term count
    for entries in (1, 37):
        monkeypatch.setattr(contraction, "_FAR_ENTRIES", entries)
        for label, I, params, points in cases:
            got = _values(ContractionIntegrand(I.lattice, I.rational), points, params)
            assert got == want[label], (entries, label)


def _landing_reaches(nodes, start, target):
    """target / nodes[i] and the reaches up to three ulps either side, for the
    first i from start on (cyclically) at which one of them puts
    nodes[i] * reach exactly on target."""
    for k in range(len(nodes)):
        i = (start + k) % len(nodes)
        r = target / nodes[i]
        reaches = [r]
        for toward in (-math.inf, math.inf):
            x = r
            for _ in range(3):
                x = math.nextafter(x, toward)
                reaches.append(x)
        if any(nodes[i] * x == target for x in reaches):
            return reaches
    raise AssertionError(f"no reach lands a node on {target!r}")


@settings(max_examples=150, deadline=None)
@given(st.floats(1.2, 4.0), st.floats(1.0, 1e4), st.floats(0.0, 1.0),
       st.integers(0, 10 ** 4), st.sampled_from([-1, 0, 1]))
def test_series_cutoff_is_the_searchsorted_index(s_hi, reach, prefix, pick, ulps):
    from coset_forge.contraction import _series_cutoff
    # 0.01 itself or the float one ulp below or above it
    target = math.nextafter(0.01, ulps * math.inf) if ulps else 0.01
    for j in range(9):
        t, _ = _level_nodes(j, s_hi)
        nodes = t.tolist()
        reaches = [reach] + _landing_reaches(nodes, pick % len(nodes), target)
        for m in {len(t), round(prefix * len(t))}:
            for x in reaches:
                want = int((t[:m] * x).searchsorted(0.01))
                assert _series_cutoff(nodes, m, x) == want, (j, m, x)


def test_quadrature_value_does_not_depend_on_the_node_tables_before(monkeypatch):
    from coset_forge import contraction
    checked = 0
    for label, I, params in _quadrature_cases():
        if I.is_zero():
            continue
        bound = max(0.0, I.strip_bound(params.hbar_float))
        # a point far inside the strip asks for short node tables, one by
        # the strip edge for long ones
        short, long = complex(0.0, -(bound + 30.0)), complex(3.0, -(bound + 1e-3))
        for w in (complex(x, -(bound + gap)) for x in (-3.0, 0.5, 9.0)
                  for gap in (0.02, 0.4, 2.0, 30.0)):
            got = []
            # on new tables, on tables another integrand built short, and on
            # tables it built long
            for before in (None, short, long):
                monkeypatch.setattr(contraction, "_TABLES", [None] * 9)
                if before:
                    _values(ContractionIntegrand(I.lattice, I.rational), [before], params)
                got.append(_values(ContractionIntegrand(I.lattice, I.rational), [w],
                                   params)[w])
            assert got[0] == got[1] == got[2], (label, w)
            checked += 1
    assert checked >= 100


def test_quadrature_runs_arange_once_per_level_and_s_hi_and_one_exp_per_level(monkeypatch):
    import numpy as np
    from coset_forge import contraction

    cases = {label: (I, params) for label, I, params in _quadrature_cases()}
    I, params = cases["B_plus[0].beta_minus[0].bhat@2,1"]
    bound = max(0.0, I.strip_bound(params.hbar_float))
    # the benchmark's strip points at k = 2: five gaps, so five s_hi
    points = [complex(-4.0 + 8.0 * j / 19, -(bound + 0.6 + 0.18 * (j % 5)))
              for j in range(20)]
    levels = [_reference_levels(I, w, params) for w in points]
    assert min(levels) < max(levels)
    aranges, exps = [], []
    arange, exp = np.arange, np.exp

    def counted_arange(*args, **kwargs):
        aranges.append(args)
        return arange(*args, **kwargs)

    def counted_exp(*args, **kwargs):
        exps.append(args)
        return exp(*args, **kwargs)

    monkeypatch.setattr(contraction, "_TABLES", [None] * 9)
    monkeypatch.setattr(np, "arange", counted_arange)
    monkeypatch.setattr(np, "exp", counted_exp)
    first, second = (ContractionIntegrand(I.lattice, I.rational) for _ in range(2))
    for w in points:
        quad_eval(first, w, params)
    # at most once for each level and s_hi
    assert aranges and len(set(aranges)) == len(aranges)
    del aranges[:]
    # the node tables are shared: another integrand runs no arange
    for w in points:
        quad_eval(second, w, params)
    assert not aranges
    # once R is known at the far nodes, a point takes one exp per level
    for w, n in zip(points, levels):
        del exps[:]
        quad_eval(second, w, params)
        assert len(exps) == n, w


def test_quadrature_keeps_one_node_table_per_level(monkeypatch):
    from coset_forge import contraction

    monkeypatch.setattr(contraction, "_TABLES", [None] * 9)
    cases = {label: (I, params) for label, I, params in _quadrature_cases()}
    I, params = cases["B_plus[0].beta_minus[0].bhat@2,1"]
    bound = max(0.0, I.strip_bound(params.hbar_float))
    # 50 gaps, so 50 distinct s_hi, the upper cutoff growing and shrinking
    gaps = [10.0 ** (-3.0 + 4.5 * ((7 * i) % 50) / 49) for i in range(50)]
    points = [complex(0.3 * i - 7.0, -(bound + gap)) for i, gap in enumerate(gaps)]
    assert len({_s_hi(I, w, params) for w in points}) == 50
    _values(I, points, params)
    tables = contraction._TABLES
    assert len(tables) == 9
    for j, (t, wgt, nodes, counts, moments, g) in enumerate(tables):
        assert len(counts) <= 50, j
        # the nodes of the largest s_hi asked, once
        top = max(counts)
        want_t, want_wgt = _level_nodes(j, top)
        assert t.tobytes() == want_t.tobytes() and wgt.tobytes() == want_wgt.tobytes(), j
        assert nodes == t.tolist() and len(g) == len(t), j
        # the node count of each s_hi is the length of its arange
        assert all(len(_level_nodes(j, s)[0]) == m for s, m in counts.items()), j
        # one moment row per series cutoff a strip point can take
        assert len(moments) == 1 + sum(x < 0.01 for x in nodes), j
    assert len(tables[0][3]) == 50
    # and the node counts a level keeps are bounded, however many s_hi come
    for i in range(1100):
        contraction._node_table(1, 2.0 + 1e-6 * i)
    assert 0 < len(tables[1][3]) <= 1024


def test_quadrature_takes_each_window_sum_once_per_level_and_window(monkeypatch):
    import numpy as np
    from coset_forge import contraction

    taken, asked = [], []

    class Counted(np.ndarray):
        def sum(self, *args, **kwargs):
            taken.append(len(self))
            return super().sum(*args, **kwargs)

    window_sum = contraction._window_sum

    def recorded(j, g, n, m):
        asked.append((j, n, m))
        return window_sum(j, g, n, m)

    monkeypatch.setattr(contraction, "_TABLES", [None] * 9)
    monkeypatch.setattr(contraction, "_WINDOWS", [{} for _ in range(9)])
    monkeypatch.setattr(contraction, "_window_sum", recorded)
    cases = {label: (I, params) for label, I, params in _quadrature_cases()}
    integrands = [cases[label] for label in ("B_plus[0].beta_minus[0].bhat@2,1",
                                             "C_plus[0].C_plus[0].chat@2,1")]
    points = {}
    for I, params in integrands:
        bound = max(0.0, I.strip_bound(params.hbar_float))
        points[id(I)] = [complex(-4.0 + 8.0 * j / 19, -(bound + 0.6 + 0.18 * (j % 5)))
                         for j in range(20)]
    # the tables as long as any point asks, so none is rebuilt below; then
    # G counts its sums
    top = max(_s_hi(I, w, params) for I, params in integrands for w in points[id(I)])
    for j in range(9):
        contraction._node_table(j, top)
        t, wgt, nodes, counts, moments, g = contraction._TABLES[j]
        contraction._TABLES[j] = (t, wgt, nodes, counts, moments, g.view(Counted))
    for I, params in integrands:
        _values(ContractionIntegrand(I.lattice, I.rational), points[id(I)], params)
    # once per level and window, however many points and integrands ask
    windows = set(asked)
    assert len(taken) == len(windows) < len(asked)
    # the second integrand, and a second pass, find every window kept
    del taken[:], asked[:]
    for I, params in integrands:
        _values(ContractionIntegrand(I.lattice, I.rational), points[id(I)], params)
    assert not taken and set(asked) == windows
    # each the sum of its window, bit for bit
    for j, n, m in windows:
        g = np.asarray(contraction._TABLES[j][5])
        kept = contraction._WINDOWS[j][n, m]
        assert kept.tobytes() == g[n:m].sum().tobytes(), (j, n, m)
    # a level keeps a bounded number of them, however many windows come
    g = contraction._TABLES[1][5]
    for i in range(1100):
        window_sum(1, g, i % 50, 60 + i)
    assert 0 < len(contraction._WINDOWS[1]) <= 1024
    # and a rebuilt table drops its level's sums
    contraction._node_table(1, top + 0.5)
    assert not contraction._WINDOWS[1] and contraction._WINDOWS[0]


def _convolution_coeffs(self, w):
    """series_coeffs as it stood, by np.convolve of the two series."""
    import numpy as np
    x = -1j * w
    em = [x ** m / f for m, f in enumerate(self.fact)]
    return np.convolve(self.float_series, em)[:self.SERIES_ORDER + 1] - self.ref_series


def test_quadrature_series_matrix_product_is_the_convolution(monkeypatch):
    import numpy as np
    from coset_forge import contraction

    points = []
    for label, I, params in _quadrature_cases():
        if I.is_zero():
            continue
        base = max(0.0, I.strip_bound(params.hbar_float))
        points += [(label, I, params, w) for w in (
            complex(0.0, -(base + 0.3)), complex(-1.7, -(base + 0.75)),
            complex(40.0, -(base + 2.0)), complex(-0.2, -(base + 25.0)))]
    points += _extreme_points()
    evaluator = contraction._IntegrandEvaluator
    product = evaluator.series_coeffs
    got, want = [], []
    for coeffs, out in ((product, got), (_convolution_coeffs, want)):
        monkeypatch.setattr(evaluator, "series_coeffs", coeffs)
        for label, I, params, w in points:
            out.append(_values(ContractionIntegrand(I.lattice, I.rational), [w],
                               params)[w])
    capped = 0
    for (label, I, params, w), a, b in zip(points, got, want):
        if a.startswith("error estimate"):
            # the node cap, at about the same error estimate
            assert abs(_estimate(a)[0] - _estimate(b)[0]) <= 1e-6 * _estimate(b)[0]
            capped += 1
            continue
        assert abs(complex(a) - complex(b)) <= 1e-13, (label, w)
        # the coefficients themselves, to a few ulps of the largest
        ev = I.evaluator(params.hbar_float)
        c, ref = product(ev, w), _convolution_coeffs(ev, w)
        assert np.abs(c - ref).max() <= 1e-14 * np.abs(ref).max(), (label, w)
    assert capped == 1


# ---------------------------------------------------------------------------
# evaluation order

def _reference_log_eval(sf, w, hbar):
    """The evaluation from the exact data, kept here as the oracle: the
    Gamma factors and then the linear factors, in sorted key order."""
    s = cmath.log(sf.const.eval(hbar))
    for (sa, sb, sq, n, d), e in sorted(sf.gammas.items()):
        scale = GR(Fraction(sa, sq), Fraction(sb, sq))
        s += e * log_gamma(1j * w / (complex(scale) * hbar) + float(Fraction(n, d)))
    for (a, b, q), e in sorted(sf.linears.items()):
        s += e * cmath.log(1j * w + complex(GR(Fraction(a, q), Fraction(b, q))) * hbar)
    return s


def _reversed_copy(sf):
    """sf with its Gamma, linear and prime dicts filled in reversed order."""
    c = sf.const
    const = ExactConst(c.den, c.ph, dict(reversed(c.pe.items())), c.hb)
    return StructureFunction(dict(reversed(sf.gammas.items())),
                             dict(reversed(sf.linears.items())), const)


def _value_or_error(fn):
    """fn's value, or the type of whatever it raised: the same failure
    must surface on both routes."""
    try:
        return fn()
    except Exception as exc:
        return type(exc)


def _same(a, b):
    if isinstance(a, complex) and isinstance(b, complex):
        return a == b or (cmath.isnan(a) and cmath.isnan(b))
    return a == b


_small = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_scales = st.builds(GR, _small, _small).filter(bool)
# 10/21 brings its primes in the order 2, 5, 3, 7
_units = st.sampled_from([GR.of(2), GR.of(Fraction(1, 3)), GR(Fraction(0), Fraction(2)),
                          GR(Fraction(0), Fraction(-1, 2)), GR.of(-5),
                          GR.of(Fraction(10, 21))])
_consts = st.builds(
    lambda g, base, e, more, x: (ExactConst.one().times_base(g, 0, 1)
                                 .times_base(base, 1, e).times_base(more, 0, x)),
    _units, _units, _small, _units, _small)
_functions = st.builds(
    StructureFunction,
    st.dictionaries(st.builds(gamma_key, _scales, _small), st.integers(-3, 3),
                    max_size=5),
    st.dictionaries(st.builds(linear_key, _scales),
                    st.integers(-2, 2), max_size=3),
    _consts)
_points = st.builds(complex, st.floats(-6, 6), st.floats(-6, 6))


@settings(max_examples=60, deadline=None)
@given(st.lists(_functions, min_size=1, max_size=3),
       st.lists(_points, min_size=1, max_size=4), st.sampled_from([1.0, 0.5, 3 / 7]))
def test_value_depends_only_on_the_factor_multisets(sfs, points, hbar):
    sfs = sfs + [sfs[0] * sfs[-1]]  # and a product of two of them
    for sf in sfs:
        rev = _reversed_copy(sf)
        assert _same(_value_or_error(lambda: rev.const.eval(hbar)),
                     _value_or_error(lambda: sf.const.eval(hbar)))
        for w in points + [-w for w in points] + [w.conjugate() for w in points]:
            ref = _value_or_error(lambda: _reference_log_eval(sf, w, hbar))
            for f in (sf, rev):
                assert _same(_value_or_error(lambda: f.log_eval(w, hbar)), ref)
                if isinstance(ref, complex):
                    assert _same(_value_or_error(lambda: f.eval(w, hbar)),
                                 _value_or_error(lambda: cmath.exp(ref)))


def _formula_log_eval(sf, w, hbar):
    """log_eval as the formula reads, every factor taken from the exact data
    at each call: its binding once per hbar must leave these bits."""
    s = cmath.log(sf.const.eval(hbar))
    for (sa, sb, sq, n, d), e in sorted(sf.gammas.items()):
        s += e * log_gamma(1j * w / (complex(sa / sq, sb / sq) * hbar) + n / d)
    for (a, b, q), e in sorted(sf.linears.items()):
        s += e * cmath.log(1j * w + complex(a / q, b / q) * hbar)
    return s


def _assert_bound_log_eval_is_the_formula(sf, points, hbar, label):
    for w in points:
        got = _value_or_error(lambda: repr(sf.log_eval(w, hbar)))
        want = _value_or_error(lambda: repr(_formula_log_eval(sf, w, hbar)))
        assert got == want, (label, w, hbar)


def test_bound_log_eval_is_the_formula_on_the_catalog_closed_forms():
    # the closed form of every contraction term pair at the benchmark's
    # levels, at its 20 strip points
    checked = 0
    for k in ("1", "2", "3", "4"):
        for hbar in ("1", "1/2"):
            params, cat, _, _ = bind_shipped(k, hbar)
            for label, _, f, g, K in contraction_pairs(cat):
                I = contract(f, g, K, params)
                sf = closed_form(I, params)
                _assert_bound_log_eval_is_the_formula(
                    sf, _strip_points(I, params), params.hbar_float, (label, k, hbar))
                checked += 1
    assert checked == 8 * 195


def test_bound_log_eval_follows_hbar_back_and_forth():
    # the classical-limit rows evaluate one Wick-rotated factor at a check
    # hbar and then along a decreasing hbar sequence: each hbar rebinds
    points = [0.7 - 0.3j, 2.0 + 1.0j, -1.5 + 0.25j, 3j, -0.2 - 4.0j]
    hbars = [1.0, 0.5, 1.0, 1e-3, 0.5, 1e-3, 0.0625, 1.0]
    checked = 0
    for k in ("2", "5/12"):
        params, cat, rels, _ = bind_shipped(k)
        for rel in rels.values():
            a, b = rel.pair
            for rotate in ("global", "none"):
                for sf in cat.pair_exchange(cat[a], cat[b], rotate=rotate):
                    for hbar in hbars:
                        _assert_bound_log_eval_is_the_formula(sf, points, hbar, (k, a, b))
                    checked += 1
    assert checked >= 40


def test_bound_log_eval_is_the_formula_on_derived_forms():
    # forms made from bound ones start unbound and bind their own factors
    params, cat, _, _ = bind_shipped("3")
    hf = params.hbar_float
    forms = []
    for label, _, f, g, K in contraction_pairs(cat)[::12]:
        I = contract(f, g, K, params)
        forms.append((I, closed_form(I, params)))
    assert any(sf.gammas for _, sf in forms) and any(sf.linears for _, sf in forms)
    for (I, sf), (_, other) in zip(forms, forms[1:] + forms[:1]):
        points = _strip_points(I, params)
        sf.log_eval(points[0], hf)      # bound first
        derived = {"mul": sf * other, "inverse": sf.inverse(), "negate_w": sf.negate_w(),
                   "wick_rotate": sf.wick_rotate(), "normalize": sf.normalize()}
        for name, d in derived.items():
            for hbar in (hf, 0.5, hf):
                # negate_w is evaluated at -w, where its closed form's strip is
                pts = [-w for w in points] if name == "negate_w" else points
                _assert_bound_log_eval_is_the_formula(d, pts, hbar, name)
        # and the form itself still gives the formula's bits
        _assert_bound_log_eval_is_the_formula(sf, points, hf, "source")


def test_gamma_pole_raises():
    sf = StructureFunction.from_gamma(2, -1, 1)     # Gamma(iw/(2h) - 1)
    for _ in range(2):
        with pytest.raises(PoleAtNonPositiveInteger):
            sf.eval(0.0, 1.0)
    w = 0.3 - 1.1j
    assert sf.eval(w, 1.0) == cmath.exp(log_gamma(1j * w / (2 + 0j) - 1.0))


def test_used_and_fresh_catalog_verify_alike():
    # a catalog keeps exact closed forms between relations: a relation
    # checked after all the others reports what it reports on a freshly
    # bound catalog
    text = (importlib.resources.files("coset_forge") / "data" / "paper.alg").read_text()
    _, cat, rels, _, _ = parse_definitions(text).bind(Fraction(2), [Fraction(1)])
    for rel in rels:
        verify_relation(cat, rel)
    rel = next(r for r in rels if r.rel_id == "C_p_C_p")
    used = verify_relation(cat, rel)
    _, fresh, _, _, _ = parse_definitions(text).bind(Fraction(2), [Fraction(1)])
    again = verify_relation(fresh, rel)
    assert used.passed and again.passed
    assert ((used.derived_factor, used.expected_factor, used.notes)
            == (again.derived_factor, again.expected_factor, again.notes))


def test_a_gamma_pole_is_no_fault_of_the_relation():
    # at k = 3, C_p_C_p carries Gamma(iw/(3h) + 1/3) and Gamma(iw/(3h) + 2/3):
    # w = 4i and w = 5i put their arguments exactly on -1, where the factor
    # has no value; the relation is an identity of functions and holds
    text = (importlib.resources.files("coset_forge") / "data" / "paper.alg").read_text()
    _, cat, rels, _, _ = parse_definitions(text).bind(Fraction(3), [Fraction(1)])
    for rel_id in ("C_p_C_p", "psi_psi"):       # exchange, shape
        rel = next(r for r in rels if r.rel_id == rel_id)
        sf = cat.pair_exchange(cat[rel.pair[0]], cat[rel.pair[1]])[-1]
        for w in (4j, 5j):
            with pytest.raises(PoleAtNonPositiveInteger):
                sf.eval(w, 1.0)
        rep = verify_relation(cat, rel)
        assert rep.passed and rep.symbolic_pass
        assert rep.max_rel_err is None and rep.notes == []
