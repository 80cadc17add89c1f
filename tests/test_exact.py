"""Exact arithmetic layer: Gaussian rationals, Laurent rationals, constants."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coset_forge import exact
from coset_forge.errors import NonCyclotomicDenominator
from coset_forge.exact import (GR, GR_I, GR_ONE, ExactConst, KRat, LaurentPoly,
                               LaurentRational)
from coset_forge.modes import ExpTrigTerm


# -- the dense gcd over the Gaussian rationals, the reference the cyclotomic
# reduction is checked against -------------------------------------------------

def _poly_divmod(num: list[GR], den: list[GR]) -> tuple[list[GR], list[GR]]:
    """Ordinary dense polynomial division, coefficients ascending."""
    num = list(num)
    dn = len(den) - 1
    while den[dn].is_zero():
        dn -= 1
    q = [GR()] * max(len(num) - dn, 1)
    for i in range(len(num) - 1, dn - 1, -1):
        coeff = num[i] / den[dn]
        if coeff:
            q[i - dn] = coeff
            for j in range(dn + 1):
                num[i - dn + j] = num[i - dn + j] - coeff * den[j]
    while len(num) > 1 and num[-1].is_zero():
        num.pop()
    return q, num


def poly_gcd(a: list[GR], b: list[GR]) -> list[GR]:
    """Monic gcd of dense ordinary polynomials over the Gaussian rationals."""
    while any(v for v in b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return [v / a[-1] for v in a]


def _dense(p: LaurentPoly, lo: int) -> list[GR]:
    """Coefficients of p from exponent lo up, ascending."""
    out = [GR()] * (p.max_exp() - lo + 1)
    for e, v in p.c.items():
        out[e - lo] = v
    return out


def test_gr_field_ops():
    a = GR(Fraction(1, 2), Fraction(-3))
    b = GR(Fraction(2), Fraction(1, 5))
    assert (a * b) / b == a
    assert a + (-a) == GR()
    assert (GR_ONE / GR_I) == -GR_I
    assert a.conj().conj() == a
    with pytest.raises(ZeroDivisionError):
        a / GR()


def test_laurent_reduction_cancels_common_factor():
    # (z^2 - z^-2) / (z - z^-1) == z + z^-1
    num = LaurentPoly({2: GR_ONE, -2: -GR_ONE})
    den = LaurentPoly({1: GR_ONE, -1: -GR_ONE})
    r = LaurentRational(num, den)
    assert r == LaurentRational(LaurentPoly({1: GR_ONE, -1: GR_ONE}))


def test_laurent_equality_is_canonical():
    num = LaurentPoly({1: GR(Fraction(2)), 0: GR(Fraction(2))})
    den = LaurentPoly({0: GR(Fraction(2))})
    assert LaurentRational(num, den) == LaurentRational(
        LaurentPoly({1: GR_ONE, 0: GR_ONE}))


def test_poly_gcd_monic():
    # gcd((x-1)(x+2), (x-1)) = (x-1)
    a = [GR(Fraction(-2)), GR(Fraction(1)), GR(Fraction(1))]
    b = [GR(Fraction(-1)), GR(Fraction(1))]
    g = poly_gcd(a, b)
    assert g == [GR(Fraction(-1)), GR(Fraction(1))]


def test_limit_at_one():
    # (z - z^-1) / (z^2 - z^-2) -> 1/2 at z=1
    num = LaurentPoly({1: GR_ONE, -1: -GR_ONE})
    den = LaurentPoly({2: GR_ONE, -2: -GR_ONE})
    assert LaurentRational(num, den).limit_at_one() == GR(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        LaurentRational(LaurentPoly.one(),
                        LaurentPoly({1: GR_ONE, -1: -GR_ONE})).limit_at_one()


def test_taylor_at_one():
    # z + z^-1 = 2 + s^2 + O(s^4) with z = e^s
    p = LaurentPoly({1: GR_ONE, -1: GR_ONE})
    c = p.taylor_at_one(4)
    assert c[0] == GR(Fraction(2))
    assert c[1] == GR()
    assert c[2] == GR(Fraction(1))


def test_exact_const_canonicalization():
    # (2 hbar)^1 * (-2 hbar)^-1 == -1, recognized symbolically
    c = (ExactConst.one()
         .times_base(GR(Fraction(2)), 1, Fraction(1))
         .times_base(GR(Fraction(-2)), 1, Fraction(-1)))
    assert c == ExactConst.one().times_gr(GR(Fraction(-1)))
    assert not c.is_one()
    assert (c.times(c)).is_one()
    assert c.as_gr() == GR(Fraction(-1))


def test_exact_const_eval_and_rotation():
    c = ExactConst.one().times_base(GR(Fraction(1, 2)), 1, Fraction(-1, 2))
    # (hbar/2)^(-1/2) at hbar=2 is 1
    assert abs(c.eval(2.0) - 1.0) < 1e-15
    rot = c.wick_rotate()
    # hbar -> -i hbar contributes a phase (-i)^(-1/2) = e^{i pi/4}
    import cmath
    assert abs(rot.eval(2.0) - cmath.exp(0.25j * cmath.pi)) < 1e-15


def test_krat_arithmetic_and_bind():
    k = KRat.k()
    expr = (k + KRat.const(2)) / KRat.const(4)
    assert expr.bind(Fraction(2)) == Fraction(1)
    assert expr.bind(Fraction(5, 2)) == Fraction(9, 8)
    quot = (k * k - KRat.const(1)) / (k - KRat.const(1))
    assert quot.bind(Fraction(3)) == Fraction(4)
    with pytest.raises(ZeroDivisionError):
        quot.bind(Fraction(1))


# -- cyclotomic reduction against the dense gcd reference --------------------

@functools.cache
def _cyclotomic(d):
    """Phi_d as a dense GR list, by division over the Gaussian rationals."""
    p = [GR.of(-1)] + [GR()] * (d - 1) + [GR_ONE]
    for e in range(1, d):
        if d % e == 0:
            p, _ = _poly_divmod(p, _cyclotomic(e))
    return p


def _factor_poly(key):
    """Phi_d for 4 not dividing d; g_d = gcd(Phi_d, z^{d/4} - i) for key d and
    its conjugate for key -d when 4 | d."""
    d = abs(key)
    if d % 4:
        dense = _cyclotomic(d)
    else:
        dense = poly_gcd(_cyclotomic(d), [-GR_I] + [GR()] * (d // 4 - 1) + [GR_ONE])
        if key < 0:
            dense = [v.conj() for v in dense]
    return LaurentPoly(dict(enumerate(dense)))


def _gcd_normal_form(num, den):
    """The dense-gcd reduction: cancel gcd(num, den), then shift den to
    minimum exponent 0 and scale it to leading coefficient 1."""
    nlo, dlo = num.min_exp(), den.min_exp()
    ndense, ddense = _dense(num, nlo), _dense(den, dlo)
    g = poly_gcd(ndense, ddense)
    if len(g) > 1:
        ndense, _ = _poly_divmod(ndense, g)
        ddense, _ = _poly_divmod(ddense, g)
    lead = ddense[-1]
    num2 = LaurentPoly({nlo - dlo + i: v / lead for i, v in enumerate(ndense) if v})
    den2 = LaurentPoly({i: v / lead for i, v in enumerate(ddense) if v})
    return num2, den2


def _product(keys):
    p = LaurentPoly.one()
    for key in keys:
        p = p * _factor_poly(key)
    return p


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_gaussian = st.builds(GR, _fractions, _fractions).filter(bool)
_numerators = st.dictionaries(st.integers(-4, 4), _gaussian, min_size=1,
                              max_size=4).map(LaurentPoly)
# factor keys of orders up to 12: d for Phi_d, +-d for the halves when 4 | d
_keys = st.sampled_from([1, 2, 3, 5, 6, 7, 9, 10, 11, 4, -4, 8, -8, 12, -12])
_units = st.sampled_from([GR_ONE, GR.of(-2), GR_I, GR(Fraction(1, 3), Fraction(1))])


@settings(max_examples=80, deadline=None)
@given(_numerators, st.lists(_keys, max_size=4), st.lists(_keys, max_size=3),
       _units, st.integers(-3, 3))
def test_cyclotomic_reduction_matches_gcd_reference(num, den_keys, extra_keys,
                                                    unit, shift):
    num = num * _product(extra_keys)
    den = _product(den_keys) * LaurentPoly({shift: unit})
    r = LaurentRational(num, den)
    assert (r.num, r.den) == _gcd_normal_form(num, den)


@settings(max_examples=40, deadline=None)
@given(_numerators, st.lists(_keys, max_size=3), _numerators,
       st.lists(_keys, max_size=3), _units)
def test_cyclotomic_arithmetic_matches_gcd_reference(na, ka, nb, kb, unit):
    da, db = _product(ka), _product(kb)
    a, b = LaurentRational(na, da), LaurentRational(nb, db)
    for got, (num, den) in (
            (a + b, (na * db + nb * da, da * db)),
            (a - b, (na * db - nb * da, da * db)),
            (a * b, (na * nb, da * db)),
            (a.scale(unit), (na.scale(unit), da)),
            (a.substitute_inverse(), (na.substitute_inverse(), da.substitute_inverse()))):
        want = (LaurentPoly(), LaurentPoly.one()) if num.is_zero() else _gcd_normal_form(num, den)
        assert (got.num, got.den) == want


def test_split_cyclotomic_halves_by_the_integer_route():
    # g_d comes from zeta^{d/4} - i by exact division; check it is the half
    # the gcd definition names: g_d * conj(g_d) = Phi_d, g_d | zeta^{d/4} - i
    for d in range(4, 401, 4):
        g, gc = exact._factor(d), exact._factor(-d)
        assert g.lo == 0 and g.q == 1 and g.re[-1] == 1 and g.im[-1] == 0
        assert (g.re, [-y for y in g.im]) == (gc.re, gc.im)
        assert g * gc == exact._ZiPoly(0, exact._cyclotomic(d), None, 1), d
        m = d // 4
        target = exact._ZiPoly(0, [0] * m + [1], [-1] + [0] * m, 1)
        assert target.divide(g) is not None, d
    # and agrees with the dense gcd where that is quick
    for d in range(4, 65, 4):
        phi = [GR.of(c) for c in exact._cyclotomic(d)]
        ref = poly_gcd(phi, [-GR_I] + [GR()] * (d // 4 - 1) + [GR_ONE])
        assert exact._factor(d).poly() == LaurentPoly(dict(enumerate(ref))), d


def test_reduction_cancels_one_half_of_a_split_factor():
    # (z - i) / (z^2 + 1) == 1 / (z + i): only g_4 = z - i cancels
    r = LaurentRational(LaurentPoly({1: GR_ONE, 0: -GR_I}),
                        LaurentPoly({2: GR_ONE, 0: GR_ONE}))
    assert r.factors == {-4: 1}
    assert r.den == LaurentPoly({1: GR_ONE, 0: GR_I})
    assert r.num == LaurentPoly.one()


@settings(max_examples=30, deadline=None)
@given(st.lists(_keys, max_size=3), st.integers(2, 5) | st.integers(-5, -2))
def test_non_cyclotomic_denominator_raises(keys, root):
    # a root z = root off the unit circle is no root of unity
    den = _product(keys) * LaurentPoly({1: GR_ONE, 0: GR.of(-root)})
    with pytest.raises(NonCyclotomicDenominator):
        LaurentRational(LaurentPoly.one(), den)
    # 2z + 1 is z + 1/2 up to a unit: not monic over the Gaussian integers
    with pytest.raises(NonCyclotomicDenominator):
        LaurentRational(LaurentPoly.one(), LaurentPoly({1: GR.of(2), 0: GR_ONE}) * den)


# ---------------------------------------------------------------------------
# cached hashes and the multiplicative identity

@settings(max_examples=60, deadline=None)
@given(_fractions, _fractions)
def test_gr_hash_is_the_hash_of_its_components(a, b):
    g = GR(a, b)
    assert hash(g) == hash((a, b))
    assert hash(g) == hash(g)               # the cached value
    assert hash(GR(a, b)) == hash(g) and GR(a, b) == g
    assert {g: 1}[GR(a, b)] == 1


@settings(max_examples=60, deadline=None)
@given(_fractions, _fractions, _fractions, _fractions)
def test_gr_product_with_one_returns_the_other_operand(a, b, c, d):
    g, h = GR(a, b), GR(c, d)
    assert g * GR_ONE is g and g * GR(Fraction(1)) is g
    assert GR_ONE * g == g and GR.of(1) * g == g
    if g != GR_ONE:
        assert GR_ONE * g is g and GR.of(1) * g is g
    assert g * h == GR(a * c - b * d, a * d + b * c)
    assert g * 3 == GR(3 * a, 3 * b) and 3 * g == g * 3


def test_exp_trig_term_hash_equal_for_equal_terms():
    half = Fraction(1, 2)
    # a negative slope with odd exponent moves its sign into the coefficient;
    # repeated slopes merge
    a = ExpTrigTerm(GR.of(-1), 1, half, 0, ((-half, 1), (Fraction(1), -1)))
    b = ExpTrigTerm(GR.of(1), 1, "1/2", Fraction(0), ((Fraction(1), -1), (half, 1)))
    c = ExpTrigTerm(GR.of(2), 1, 0, 0, ((half, 1), (half, 1)))
    d = ExpTrigTerm(GR(Fraction(2)), 1, Fraction(0), 0, ((half, 2),))
    for x, y in ((a, b), (c, d)):
        assert x == y and x is not y
        assert hash(x) == hash(y)
        assert hash(x) == hash((x.coeff, x.hbar_power, x.shift,
                                x.spectral_shift, x.sinh_factors))
    assert len({a: 0, b: 1, c: 2, d: 3}) == 2
