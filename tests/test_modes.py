"""Mode-function algebra: canonical forms, argument shifts, kernels."""

import cmath
import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dense, sparse, sparse_mul
from coset_forge import cli
from coset_forge.errors import ExcludedLevel, MixedSpectralArguments
from coset_forge.exact import GR, LaurentPoly, LaurentRational
from coset_forge.modes import (AlgebraParams, ExpTrigTerm, Kernel, ModeFunction,
                               equals, shift_argument)

HALF = Fraction(1, 2)
ONE = Fraction(1)


def beta_plus_exponent():
    # -2 hbar sinh(h t/2) e^{-iut} / sinh(h t), t > 0 branch
    return ModeFunction(
        [ExpTrigTerm(GR.of(-2), 1, 0, 0, ((HALF, 1), (ONE, -1)))], [])


def _eval_laurent(lr: LaurentRational, logz: complex) -> complex:
    """A Laurent rational at zeta = exp(logz), summed term by term."""
    def at(p):
        return sum(complex(v) * cmath.exp(e * logz) for e, v in sparse(p).items())
    return at(lr.num) / at(lr.den)


def test_params_validation():
    AlgebraParams(Fraction(5, 2), Fraction(1, 2))
    with pytest.raises(ExcludedLevel):
        AlgebraParams(Fraction(0))
    with pytest.raises(ExcludedLevel):
        AlgebraParams(Fraction(-2))
    with pytest.raises(ExcludedLevel):
        AlgebraParams(Fraction(-1))
    with pytest.raises(ValueError):
        AlgebraParams(Fraction(2), Fraction(0))


def test_sinh_doubling_identity():
    # sinh(2ht)/sinh(ht) == 2 cosh(ht) == e^{ht} + e^{-ht}
    a = ModeFunction([ExpTrigTerm(GR.of(1), 0, 0, 0, ((Fraction(2), 1), (ONE, -1)))])
    b = ModeFunction([ExpTrigTerm(GR.of(1), 0, ONE, 0, ()),
                      ExpTrigTerm(GR.of(1), 0, -ONE, 0, ())])
    assert equals(a, b)


def test_cancellation_to_zero():
    f = beta_plus_exponent()
    s = f + (-f)
    _, pos, neg = s.canonical()
    assert pos == {} and neg == {}
    assert equals(s, ModeFunction.zero())


def test_beta_exponent_canonical_quotient():
    # canonical form of -2 sinh(ht/2)/sinh(ht) is -1/cosh(ht/2):
    # numerator -2 zeta^2, denominator 1 + zeta^4 on the lattice L=2
    lat, pos, _ = beta_plus_exponent().canonical()
    assert lat == 2
    lr = pos[1]
    assert {e: complex(v) for e, v in sparse(lr.num).items()} == {2: -2 + 0j}
    assert {e: complex(v) for e, v in sparse(lr.den).items()} == {0: 1 + 0j, 4: 1 + 0j}


def test_canonicalize_pointwise_and_idempotent():
    f = beta_plus_exponent()
    canon = f.canonical()
    assert f.canonical() is canon
    assert ModeFunction(f.positive_branch, f.negative_branch).canonical() == canon
    rng = random.Random(11)
    lat, pos, _ = canon
    lr = pos[1]
    for _ in range(20):
        t = rng.uniform(0.03, 4.0)
        direct = f.eval_branch(t, 1.0)
        via = _eval_laurent(lr, t / (2 * lat))
        assert abs(direct - via) <= 1e-12 * max(1.0, abs(direct))


def test_shift_argument_definition_and_additivity():
    f = beta_plus_exponent()
    assert shift_argument(f, 0) is f
    g = shift_argument(f, Fraction(1, 4))
    assert g.positive_branch[0].spectral_shift == Fraction(1, 4)
    h1 = shift_argument(shift_argument(f, Fraction(1, 3)), Fraction(1, 6))
    h2 = shift_argument(f, Fraction(1, 2))
    assert equals(h1, h2)


def test_equals_trivials_and_mixed_variables():
    f = beta_plus_exponent()
    assert equals(f, f)
    extra = ModeFunction([ExpTrigTerm(GR.of(1), 1, 0, 0, ())], [])
    assert not equals(f, f + extra)
    other = ModeFunction([], [], variable="v")
    with pytest.raises(MixedSpectralArguments):
        equals(f, ModeFunction(f.positive_branch, (), variable="v"))
    with pytest.raises(MixedSpectralArguments):
        f + ModeFunction(f.positive_branch, (), variable="v")


@st.composite
def small_mode_functions(draw):
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        coeff = GR(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
        shift = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 4])))
        spec = Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2, 4])))
        sinh = []
        for _ in range(draw(st.integers(0, 2))):
            beta = Fraction(draw(st.integers(1, 4)), draw(st.sampled_from([1, 2])))
            sinh.append((beta, draw(st.sampled_from([-1, 1, 2]))))
        terms.append(ExpTrigTerm(coeff, 1, shift, spec, tuple(sinh)))
    return ModeFunction(terms, [])


@settings(max_examples=30, deadline=None)
@given(small_mode_functions(), small_mode_functions(), small_mode_functions())
def test_equality_is_congruence_for_addition(f, g, h):
    if equals(f, g):
        assert equals(f + h, g + h)
    # always: (f+h) - h == f
    assert equals((f + h) + (-h), f)


@settings(max_examples=30, deadline=None)
@given(small_mode_functions(),
       st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4])))
def test_shift_respects_equality(f, gamma):
    # the same terms in reverse order: an equal function, built another way
    g = ModeFunction(f.positive_branch[::-1], f.negative_branch[::-1])
    assert equals(shift_argument(f, gamma), shift_argument(g, gamma))


def test_kernel_numerator_even_density_odd():
    k = Fraction(5, 2)
    for fam, sign, slope in (("c", 1, k / 2), ("b", -1, k / 2),
                             ("lambda", 1, (k + 2) / 2)):
        K = Kernel(fam, sign, slope)
        # the sinh-product numerator is a palindrome: even under zeta -> 1/zeta
        lat = K.slope_b.denominator
        num = ExpTrigTerm(sign, 0, sinh_factors=K.sinh_factors()).laurent(lat).num
        assert num.lo == -num.max_exp() and num.re == num.re[::-1] and num.im is None
        for t in (0.3, 1.1, 2.4):
            d1 = K.eval_density(t, 1.0)
            d2 = K.eval_density(-t, 1.0)
            assert abs(d1 + d2) < 1e-12 * max(1.0, abs(d1))
        # small-t: density/t -> sign * slope_a * slope_b
        t = 1e-6
        lim = K.eval_density(t, 1.0) / t
        assert abs(lim - float(sign * K.slope_a * K.slope_b)) < 1e-9


def test_kernel_even_under_hbar_negation():
    K = Kernel("c", 1, Fraction(3, 2))
    for t in (0.4, 1.7):
        assert abs(K.eval_density(t, 1.0) - K.eval_density(t, -1.0)) < 1e-13


def test_pointwise_soundness_random_sweep():
    rng = random.Random(3)
    f = beta_plus_exponent() + ModeFunction(
        [ExpTrigTerm(GR.of(3), 1, Fraction(-1, 4), Fraction(1, 2),
                     ((Fraction(3, 4), 1),))], [])
    lat, pos, _ = f.canonical()
    for _ in range(100):
        t = rng.uniform(0.02, 3.0)
        hbar = rng.choice([0.5, 1.0, 1.5])
        direct = f.eval_branch(t, hbar)
        via = sum(complex(hbar) ** p * _eval_laurent(lr, hbar * t / (2 * lat))
                  for p, lr in pos.items())
        assert abs(direct - via) <= 1e-12 * max(1.0, abs(direct))


def test_screened_plus_screened_equals_u1_exponents():
    # the pair identity behind the ordering-difference residues:
    # C+(u) + C-(u + i(k/2)h) == H+(u + i(k/4)h) and the mirrored one
    from conftest import bind_shipped
    for k in (Fraction(2), Fraction(3), Fraction(5, 2)):
        _, cat, _, _ = bind_shipped(k)
        cp = cat["C_plus"].exponent("chat")
        cm = cat["C_minus"].exponent("chat")
        hp = cat["H_plus"].exponent("chat")
        hm = cat["H_minus"].exponent("chat")
        assert equals(cp + shift_argument(cm, k / 2), shift_argument(hp, k / 4))
        assert equals(cp + shift_argument(cm, -k / 2), shift_argument(hm, -k / 4))


# ---------------------------------------------------------------------------
# ExpTrigTerm.laurent builds each term reduced; the reference below is the
# construction it replaced: positive sinh powers multiplied out into a dense
# numerator, negative ones put in as cyclotomic factors of zeta^{2n} - 1 and
# then divided back out of the numerator by trial.

def _reference_laurent(term, lattice):
    half = GR(Fraction(1, 2))
    e = (term.shift + term.spectral_shift) * 2 * lattice
    assert e.denominator == 1
    num = {int(e): term.coeff} if term.coeff else {}
    factors = {}
    for beta, p in term.sinh_factors:
        n = beta * 2 * lattice
        assert n.denominator == 1
        n = int(n)
        if p > 0:
            for _ in range(p):
                num = sparse_mul(num, {n: half, -n: -half})
            continue
        num = sparse_mul(num, {-n * p: GR(2 ** -p)})
        for d in range(1, 2 * n + 1):
            if 2 * n % d == 0:
                for key in ((d, -d) if d % 4 == 0 else (d,)):
                    factors[key] = factors.get(key, 0) - p
    return LaurentRational(dense(num), factors)


_dens = st.sampled_from([1, 2, 3, 4, 6, 8])


@st.composite
def _terms_and_lattices(draw):
    coeff = GR(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4))),
               Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4))))
    shift = Fraction(draw(st.integers(-6, 6)), draw(_dens))
    spec = Fraction(draw(st.integers(-6, 6)), draw(_dens))
    sinh = tuple((Fraction(draw(st.integers(1, 4)), draw(_dens)),
                  draw(st.integers(-3, 3)))
                 for _ in range(draw(st.integers(0, 3))))
    term = ExpTrigTerm(coeff, 1, shift, spec, sinh)
    own = ModeFunction([term]).lattice()
    return term, own * draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(_terms_and_lattices())
# Phi_6 is first named by the positive power, Phi_4 only by the negative one
@example((ExpTrigTerm(GR.of(1), 1, 0, 0, ((ONE, 1), (Fraction(2), -2))), 3))
def test_laurent_matches_expand_and_trial_divide(case):
    term, lattice = case
    got, want = term.laurent(lattice), _reference_laurent(term, lattice)
    assert got == want
    # the same denominator multiset in the same insertion order, which
    # _family_order reads (it names the first repeated factor)
    assert list(got.factors.items()) == list(want.factors.items())
    assert got.num == want.num and got.den == want.den


def test_laurent_makes_no_trial_division(monkeypatch):
    """A verify at k = 3/16 reduces sums by trial division, but no single
    term divides by a dense cyclotomic factor."""
    calls = {"laurent": 0, "inside": 0, "outside": 0}
    depth = [0]
    laurent, divide = ExpTrigTerm.laurent, LaurentPoly.divide

    def counting_laurent(self, lattice):
        calls["laurent"] += 1
        depth[0] += 1
        try:
            return laurent(self, lattice)
        finally:
            depth[0] -= 1

    def counting_divide(self, f):
        calls["inside" if depth[0] else "outside"] += 1
        return divide(self, f)

    monkeypatch.setattr(ExpTrigTerm, "laurent", counting_laurent)
    monkeypatch.setattr(LaurentPoly, "divide", counting_divide)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["verify", "--k", "3/16"]) == 0
    assert calls["laurent"] > 0 and calls["outside"] > 0
    assert calls["inside"] == 0
