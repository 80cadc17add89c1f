"""Exact arithmetic layer: Gaussian rationals, Laurent rationals, constants."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense, sparse, sparse_add, sparse_mul
from coset_forge import exact
from coset_forge.algebra import NormalOrderedTerm
from coset_forge.exact import (GR, GR_I, GR_ONE, ExactConst, KRat, LaurentPoly,
                               LaurentRational, binomial_quotient)
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


def _dense(p: dict[int, GR], lo: int) -> list[GR]:
    """Coefficients of the sparse p from exponent lo up, ascending."""
    out = [GR()] * (max(p) - lo + 1)
    for e, v in p.items():
        out[e - lo] = v
    return out


def test_gr_field_ops():
    a = GR(Fraction(1, 2), Fraction(-3))
    b = GR(Fraction(2), Fraction(1, 5))
    assert (a * b) / b == a
    assert a + (-a) == GR()
    assert (GR_ONE / GR_I) == -GR_I
    with pytest.raises(ZeroDivisionError):
        a / GR()


def test_laurent_reduction_cancels_common_factor():
    # (z^4 - 1) / ((z - 1)(z + 1)) == z^2 + 1
    r = LaurentRational(dense({4: GR_ONE, 0: -GR_ONE}), {1: 1, 2: 1})
    assert r == LaurentRational(dense({2: GR_ONE, 0: GR_ONE}))
    assert r.factors == {}


def test_laurent_equality_is_canonical():
    # (2z + 2)/2 and z + 1 have one normal form, so one value and one hash
    a = LaurentPoly.make(0, [2, 2], 2)
    assert (a.lo, a.coeffs, a.q) == (0, [1, 1], 1)
    b = dense({1: GR_ONE, 0: GR_ONE})
    assert a == b and hash(a) == hash(b)
    assert LaurentRational(a, {3: 1}) == LaurentRational(b, {3: 1})
    assert hash(LaurentRational(a, {3: 1})) == hash(LaurentRational(b, {3: 1}))


def test_laurent_repr_lists_nonzero_coefficients_ascending():
    # -2 z^2 / (1 + z^4) on the lattice of the catalog's beta exponents
    r = LaurentRational(dense({2: GR.of(-2)}), {8: 1})
    assert repr(r) == "(-2*Z^2) / (1*Z^0 + 1*Z^4)"
    half = LaurentPoly.make(-1, [1, 0, 0, 2], 2)
    assert repr(half) == "1/2*Z^-1 + 1*Z^2"
    assert repr(LaurentRational.zero()) == "0"


def test_poly_gcd_monic():
    # gcd((x-1)(x+2), (x-1)) = (x-1)
    a = [GR(Fraction(-2)), GR(Fraction(1)), GR(Fraction(1))]
    b = [GR(Fraction(-1)), GR(Fraction(1))]
    g = poly_gcd(a, b)
    assert g == [GR(Fraction(-1)), GR(Fraction(1))]


def test_limit_at_one():
    # (z - z^-1) / (z^2 - z^-2) = z (z^2 - 1) / (z^4 - 1) -> 1/2 at z=1
    num = dense({3: GR_ONE, 1: -GR_ONE})
    r = LaurentRational(num, {1: 1, 2: 1, 4: 1})
    assert r.limit_at_one() == Fraction(1, 2)
    # 1 / (z - z^-1) = z / ((z - 1)(z + 1))
    with pytest.raises(ZeroDivisionError):
        LaurentRational(dense({1: GR_ONE}), {1: 1, 2: 1}).limit_at_one()


def test_exact_const_has_one_form():
    minus = ExactConst.one().times_base(GR(-1), 0, 1)
    assert not minus.is_one()
    assert minus.times_base(GR(-1), 0, 1).is_one()
    assert minus.times_base(GR(-1), 0, 1) == ExactConst.one()
    # -1 built as i^-2, i^2, -1 and (2 hbar)^1 * (-2 hbar)^-1: one set of
    # fields, the phase reduced into [0, 4), and one repr
    forms = [ExactConst.one().times_base(GR_I, 0, -2),
             ExactConst.one().times_base(GR_I, 0, 2),
             minus,
             ExactConst.one().times_base(GR(Fraction(2)), 1, Fraction(1))
             .times_base(GR(Fraction(-2)), 1, Fraction(-1))]
    for c in forms:
        assert (c.den, c.ph, c.pe, c.hb) == (1, 2, {}, 0)
        assert repr(c) == "i^2"
        assert c == minus
        assert c.times(c).is_one()
        assert c.as_gr() == GR(Fraction(-1))
        assert c.eval(0.5) == -1.0


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
    """Phi_d as a sparse {exponent: GR}, by dense division of z^d - 1 by the
    Phi_e of the proper divisors e of d."""
    p = [GR.of(-1)] + [GR()] * (d - 1) + [GR_ONE]
    for e in range(1, d):
        if d % e == 0:
            p, _ = _poly_divmod(p, _dense(_cyclotomic(e), 0))
    return {i: v for i, v in enumerate(p) if v}


def _gcd_normal_form(num, den):
    """The dense-gcd reduction of sparse num / den: cancel gcd(num, den),
    then shift den to minimum exponent 0 and scale it to leading
    coefficient 1."""
    nlo, dlo = min(num), min(den)
    ndense, ddense = _dense(num, nlo), _dense(den, dlo)
    g = poly_gcd(ndense, ddense)
    if len(g) > 1:
        ndense, _ = _poly_divmod(ndense, g)
        ddense, _ = _poly_divmod(ddense, g)
    lead = ddense[-1]
    num2 = {nlo - dlo + i: v / lead for i, v in enumerate(ndense) if v}
    den2 = {i: v / lead for i, v in enumerate(ddense) if v}
    return num2, den2


def _product(keys):
    p = {0: GR_ONE}
    for d in keys:
        p = sparse_mul(p, _cyclotomic(d))
    return p


def _multiset(keys):
    """{key: multiplicity}, keys in the order first listed."""
    return {key: keys.count(key) for key in keys}


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_rationals = st.builds(GR, _fractions).filter(bool)
_numerators = st.dictionaries(st.integers(-4, 4), _rationals, min_size=1,
                              max_size=4)
# factor keys of orders up to 12: d for Phi_d
_keys = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])


@settings(max_examples=80, deadline=None)
@given(_numerators, st.lists(_keys, max_size=4), st.lists(_keys, max_size=3))
def test_cyclotomic_reduction_matches_gcd_reference(num, den_keys, extra_keys):
    num = sparse_mul(num, _product(extra_keys))
    r = LaurentRational(dense(num), _multiset(den_keys))
    assert (sparse(r.num), sparse(r.den)) == _gcd_normal_form(num, _product(den_keys))


@settings(max_examples=40, deadline=None)
@given(_numerators, st.lists(_keys, max_size=3), _numerators,
       st.lists(_keys, max_size=3))
def test_cyclotomic_arithmetic_matches_gcd_reference(na, ka, nb, kb):
    da, db = _product(ka), _product(kb)
    minus_nb = {e: -v for e, v in nb.items()}
    a, b = LaurentRational(dense(na), _multiset(ka)), LaurentRational(dense(nb), _multiset(kb))
    minus_b = LaurentRational(dense(minus_nb), _multiset(kb))
    for got, (num, den) in (
            (a + b, (sparse_add(sparse_mul(na, db), sparse_mul(nb, da)), sparse_mul(da, db))),
            (a + minus_b, (sparse_add(sparse_mul(na, db), sparse_mul(minus_nb, da)),
                           sparse_mul(da, db)))):
        want = ({}, {0: GR_ONE}) if not num else _gcd_normal_form(num, den)
        assert (sparse(got.num), sparse(got.den)) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=12).filter(any),
       st.integers(1, 30), st.lists(st.integers(1, 30), max_size=2), st.booleans())
def test_division_by_phi_through_binomials_matches_dense_division(p, d, extra, times_d):
    # p * Phi_e for each extra e, and * Phi_d itself when times_d, so that
    # about half the divisions are exact
    for e in extra + [d] * times_d:
        p = [int(v.re) for v in _dense(sparse_mul(dict(enumerate(map(GR.of, p))),
                                                  _cyclotomic(e)), 0)]
    q, r = _poly_divmod([GR.of(x) for x in p], _dense(_cyclotomic(d), 0))
    want = [int(v.re) for v in q] if not any(r) else None
    assert exact._times_phis(p, ((d, -1),)) == want


@pytest.mark.parametrize("coeff", [GR(Fraction(1), Fraction(1, 2)), GR_ONE, 1j, 0.5])
def test_term_coefficient_is_rational(coeff):
    # grammar terms are rational: a Gaussian rational, even a real one, or a
    # float is refused when the term is built
    with pytest.raises(TypeError, match="Fraction"):
        ExpTrigTerm(coeff, 1, 0, ((Fraction(1), -1),))
    with pytest.raises(TypeError, match="Fraction"):
        NormalOrderedTerm(coeff, 0, {})


def test_term_coefficients_are_fractions():
    t = ExpTrigTerm(3, 1, 0, ((Fraction(-1), 1),))
    assert type(t.coeff) is Fraction and t.coeff == -3
    assert type(NormalOrderedTerm(2, 0, {}).coeff) is Fraction
    assert binomial_quotient(Fraction(3, 2), 1, [(2, -1)]) == LaurentRational(
        dense({1: GR(Fraction(3, 2))}), {1: 1, 2: 1})
    # zeta = e^{t/2}: -3 sinh(t) = -3/2 zeta^-2 (zeta^4 - 1), and
    # 3 sinh(t)^-2 = 12 zeta^4 (zeta^4 - 1)^-2, its 2^2 exact
    assert t.laurent(1) == binomial_quotient(Fraction(-3, 2), -2, [(4, 1)])
    assert ExpTrigTerm(3, 1, 0, ((Fraction(1), -2),)).laurent(1) == \
        binomial_quotient(Fraction(12), 4, [(4, -2)])


# ---------------------------------------------------------------------------
# hashes and the multiplicative identity

@settings(max_examples=60, deadline=None)
@given(_fractions, _fractions)
def test_gr_hash_is_the_hash_of_its_components(a, b):
    g = GR(a, b)
    assert hash(g) == hash((g.a, g.b, g.q))
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
    a = ExpTrigTerm(-1, 1, half, ((-half, 1), (Fraction(1), -1)))
    b = ExpTrigTerm(1, 1, "1/2", ((Fraction(1), -1), (half, 1)))
    c = ExpTrigTerm(2, 1, 0, ((half, 1), (half, 1)))
    d = ExpTrigTerm(Fraction(2), 1, Fraction(0), ((half, 2),))
    for x, y in ((a, b), (c, d)):
        assert x == y and x is not y
        assert hash(x) == hash(y)
        assert hash(x) == hash((x.coeff, x.hbar_power, x.tilt, x.sinh_factors))
    assert len({a: 0, b: 1, c: 2, d: 3}) == 2
