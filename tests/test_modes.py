"""Mode-function algebra: canonical forms, argument shifts, kernels."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bind_shipped, dense, sparse, sparse_mul
from coset_forge import exact
from coset_forge.errors import ExcludedLevel
from coset_forge.exact import GR, LaurentRational
from coset_forge.modes import (AlgebraParams, ExpTrigTerm, Kernel, ModeFunction,
                               equals, shift_argument)

HALF = Fraction(1, 2)
ONE = Fraction(1)


def beta_plus_exponent():
    # -2 hbar sinh(h t/2) e^{-iut} / sinh(h t), t > 0 branch
    return ModeFunction(
        [ExpTrigTerm(-2, 1, 0, ((HALF, 1), (ONE, -1)))], [])


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
    a = ModeFunction([ExpTrigTerm(1, 0, 0, ((Fraction(2), 1), (ONE, -1)))])
    b = ModeFunction([ExpTrigTerm(1, 0, ONE, ()),
                      ExpTrigTerm(1, 0, -ONE, ())])
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
    assert f.canonical() == canon
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
    assert g.positive_branch[0].tilt == f.positive_branch[0].tilt + Fraction(1, 4)
    h1 = shift_argument(shift_argument(f, Fraction(1, 3)), Fraction(1, 6))
    h2 = shift_argument(f, Fraction(1, 2))
    assert equals(h1, h2)


@pytest.mark.parametrize("sinh", [(), ((ONE, -1),), ((HALF, 2), (ONE, -1))],
                         ids=["bare", "over sinh", "sinh squared over sinh"])
def test_an_argument_shift_is_the_declared_tilt(sinh):
    # u -> u + i*g*hbar multiplies a term by e^{g hbar t}, as a declared
    # exp(g*h*t) does: the shifted term is the term declared with the summed
    # tilt, and compares, hashes and prints as it
    t = ExpTrigTerm(Fraction(3, 2), 1, Fraction(1, 6), sinh_factors=sinh)
    g = Fraction(1, 3)
    want = ExpTrigTerm(Fraction(3, 2), 1, Fraction(1, 6) + g, sinh_factors=sinh)
    shifted = shift_argument(ModeFunction([t], [t]), g)
    for term in shifted.positive_branch + shifted.negative_branch:
        assert term == want and hash(term) == hash(want) and repr(term) == repr(want)


def test_equals_trivials():
    f = beta_plus_exponent()
    assert equals(f, f)
    extra = ModeFunction([ExpTrigTerm(1, 1, 0, ())], [])
    assert not equals(f, f + extra)


@st.composite
def small_mode_functions(draw):
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        shift = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 4])))
        spec = Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2, 4])))
        sinh = []
        for _ in range(draw(st.integers(0, 2))):
            beta = Fraction(draw(st.integers(1, 4)), draw(st.sampled_from([1, 2])))
            sinh.append((beta, draw(st.sampled_from([-1, 1, 2]))))
        terms.append(ExpTrigTerm(coeff, 1, shift + spec, tuple(sinh)))
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


def _rebuilt(term, coeff, tilt):
    """The term with coeff and tilt, built through ExpTrigTerm.__init__."""
    return ExpTrigTerm(coeff, term.hbar_power, tilt, term.sinh_factors)


def _same_terms(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.ints() == b.ints()
        assert all(type(getattr(a, f)) is type(getattr(b, f))
                   for f in ("coeff", "hbar_power", "tilt", "sinh_factors"))


@settings(max_examples=40, deadline=None)
@given(small_mode_functions(),
       st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3, 4])))
def test_shift_and_negation_keep_the_terms_init_builds(f, gamma):
    # shift_argument and negation change only a coefficient or the tilt, so
    # they build each term from the old term's fields: the terms compare,
    # hash and print as those __init__ builds
    terms = f.positive_branch
    shifted = shift_argument(f, gamma).positive_branch
    _same_terms(shifted, [_rebuilt(t, t.coeff, t.tilt + gamma) for t in terms])
    _same_terms((-f).positive_branch, [_rebuilt(t, -t.coeff, t.tilt) for t in terms])


def test_kernel_numerator_even_density_odd():
    k = Fraction(5, 2)
    for fam, sign, slope in (("c", 1, k / 2), ("b", -1, k / 2),
                             ("lambda", 1, (k + 2) / 2)):
        K = Kernel(fam, sign, slope)
        # the sinh-product numerator is a palindrome: even under zeta -> 1/zeta
        lat = K.slope_b.denominator
        num = ExpTrigTerm(sign, 0, sinh_factors=((ONE, 1), (K.slope_b, 1))).laurent(lat).num
        assert num.lo == -num.max_exp() and num.coeffs == num.coeffs[::-1]
        for t in (0.3, 1.1, 2.4):
            d1 = K.eval_density(t, 1.0)
            d2 = K.eval_density(-t, 1.0)
            assert abs(d1 + d2) < 1e-12 * max(1.0, abs(d1))
        # small-t: density/t -> sign * 1 * slope_b
        t = 1e-6
        lim = K.eval_density(t, 1.0) / t
        assert abs(lim - float(sign * K.slope_b)) < 1e-9


def test_kernel_even_under_hbar_negation():
    K = Kernel("c", 1, Fraction(3, 2))
    for t in (0.4, 1.7):
        assert abs(K.eval_density(t, 1.0) - K.eval_density(t, -1.0)) < 1e-13


def test_pointwise_soundness_random_sweep():
    rng = random.Random(3)
    f = beta_plus_exponent() + ModeFunction(
        [ExpTrigTerm(3, 1, Fraction(1, 4), ((Fraction(3, 4), 1),))], [])
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
    e = term.tilt * 2 * lattice
    assert e.denominator == 1
    num = {int(e): GR(term.coeff)} if term.coeff else {}
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
                factors[d] = factors.get(d, 0) - p
    return LaurentRational(dense(num), factors)


_dens = st.sampled_from([1, 2, 3, 4, 6, 8])


@st.composite
def _terms_and_lattices(draw):
    coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
    shift = Fraction(draw(st.integers(-6, 6)), draw(_dens))
    spec = Fraction(draw(st.integers(-6, 6)), draw(_dens))
    sinh = tuple((Fraction(draw(st.integers(1, 4)), draw(_dens)),
                  draw(st.integers(-3, 3)))
                 for _ in range(draw(st.integers(0, 3))))
    term = ExpTrigTerm(coeff, 1, shift + spec, sinh)
    own = ModeFunction([term]).lattice()
    return term, own * draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(_terms_and_lattices())
# (zeta^12 - 1)/(zeta^24 - 1)^2: the orders dividing 12 are counted by both
# powers, 8 and 24 only by the negative one
@example((ExpTrigTerm(1, 1, 0, ((ONE, 1), (Fraction(2), -2))), 3))
def test_laurent_matches_expand_and_trial_divide(case):
    term, lattice = case
    got, want = term.laurent(lattice), _reference_laurent(term, lattice)
    assert got == want
    assert got.factors == want.factors
    assert got.num == want.num and got.den == want.den


def test_laurent_makes_no_trial_division(monkeypatch):
    """The canonical forms of the k = 3/16 catalog's mode functions reduce
    sums by trial division, some of which fail, but a single term only
    divides exactly: every division by a binomial inside ExpTrigTerm.laurent
    succeeds."""
    calls = {"laurent": 0, "inside": 0, "outside": 0}
    depth = [0]
    laurent, over_binomial = ExpTrigTerm.laurent, exact._over_binomial

    def counting_laurent(self, lattice):
        calls["laurent"] += 1
        depth[0] += 1
        try:
            return laurent(self, lattice)
        finally:
            depth[0] -= 1

    def counting_over_binomial(p, j):
        q = over_binomial(p, j)
        if q is None:
            calls["inside" if depth[0] else "outside"] += 1
        return q

    monkeypatch.setattr(ExpTrigTerm, "laurent", counting_laurent)
    monkeypatch.setattr(exact, "_over_binomial", counting_over_binomial)
    _, cat, _, _ = bind_shipped(Fraction(3, 16))
    for cur in cat.currents.values():
        for term in cur.terms:
            for mf in term.exponents.values():
                mf.canonical()
    assert calls["laurent"] > 0 and calls["outside"] > 0
    assert calls["inside"] == 0


# ---------------------------------------------------------------------------
# equals and is_zero read integer exponential sums; the oracle is the
# Laurent comparison they replaced: each branch summed per hbar power into
# reduced Laurent rationals on the joint lattice.

def _laurent_branches(f, lattice):
    branches = []
    for terms in (f.positive_branch, f.negative_branch):
        acc = {}
        for t in terms:
            lr = t.laurent(lattice)
            acc[t.hbar_power] = acc[t.hbar_power] + lr if t.hbar_power in acc else lr
        branches.append({p: lr for p, lr in acc.items() if not lr.is_zero()})
    return branches


def _laurent_equals(f, g):
    joint = math.lcm(f.lattice(), g.lattice())
    return _laurent_branches(f, joint) == _laurent_branches(g, joint)


_SLOPES = st.sampled_from([HALF, ONE, Fraction(3, 2), Fraction(1, 3)])


@st.composite
def _rich_terms(draw, most=3):
    return [ExpTrigTerm(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
                        draw(st.integers(0, 2)),
                        Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3])))
                        + Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 4]))),
                        tuple((draw(_SLOPES), draw(st.sampled_from([-2, -1, 1, 2])))
                              for _ in range(draw(st.integers(0, 2)))))
            for _ in range(draw(st.integers(0, most)))]


def _times_one(term, gamma):
    """term * sinh(gamma ht)/sinh(gamma ht), as two terms over sinh(gamma ht)."""
    f = term.sinh_factors + ((gamma, -1),)
    return [ExpTrigTerm(term.coeff / 2, term.hbar_power, term.tilt + gamma, f),
            ExpTrigTerm(-term.coeff / 2, term.hbar_power, term.tilt - gamma, f)]


def _bare_sinh_power(term):
    """term with its first positive sinh power p written out as the p + 1
    exponentials of 2^-p (e^{beta ht} - e^{-beta ht})^p."""
    j = next((j for j, (_, e) in enumerate(term.sinh_factors) if e > 0), None)
    if j is None:
        return [term]
    beta, p = term.sinh_factors[j]
    rest = term.sinh_factors[:j] + term.sinh_factors[j + 1:]
    return [ExpTrigTerm(term.coeff * math.comb(p, i) * (-1) ** i / 2 ** p,
                        term.hbar_power, term.tilt + (p - 2 * i) * beta, rest)
            for i in range(p + 1)]


@st.composite
def _rewritten(draw, terms):
    """The same branch, built another way: terms multiplied by one, sinh
    powers written out, tilts moved into an argument shift, a term and its
    negative added, order permuted."""
    out = []
    for t in terms:
        how = draw(st.sampled_from(["keep", "one", "bare", "shifted"]))
        if how == "one":
            out += _times_one(t, draw(_SLOPES))
        elif how == "bare":
            out += _bare_sinh_power(t)
        elif how == "shifted":
            untilted = ExpTrigTerm(t.coeff, t.hbar_power, 0, t.sinh_factors)
            out += shift_argument(ModeFunction([untilted]), t.tilt).positive_branch
        else:
            out.append(t)
    for t in draw(_rich_terms(1)):
        out += [t, ExpTrigTerm(-t.coeff, t.hbar_power, t.tilt, t.sinh_factors)]
    return draw(st.permutations(out))


@st.composite
def _mode_function_pairs(draw):
    branches = []
    for _ in range(2):
        terms = draw(_rich_terms())
        if draw(st.booleans()):
            # a monomial c e^{alpha ht} over sinh(gamma ht), the shape of the
            # E-F residue exponents
            mono = ExpTrigTerm(Fraction(draw(st.integers(1, 3))), draw(st.integers(0, 2)),
                               Fraction(draw(st.integers(-4, 4)), 4))
            terms = (_times_one(mono, draw(_SLOPES))
                     if draw(st.booleans()) or not terms else terms + [mono])
        branches.append(terms)
    f = ModeFunction(*branches)
    kind = draw(st.sampled_from(["rewritten", "perturbed", "independent"]))
    if kind == "independent":
        g = ModeFunction(draw(_rich_terms()), draw(_rich_terms()))
    else:
        g = ModeFunction(draw(_rewritten(branches[0])), draw(_rewritten(branches[1])))
        if kind == "perturbed":
            g = g + ModeFunction(draw(_rich_terms(1)), draw(_rich_terms(1)))
    return f, g


@settings(max_examples=300, deadline=None)
@given(_mode_function_pairs())
# sinh(ht/2)^2 against (e^{ht} - 2 + e^{-ht})/4: the 2^-2 of the square and
# the bare exponentials' 2^0 must meet on one scale
@example((ModeFunction([ExpTrigTerm(1, 1, 0, ((HALF, 2),))]),
          ModeFunction([ExpTrigTerm(Fraction(1, 4), 1, ONE),
                        ExpTrigTerm(Fraction(-1, 2), 1),
                        ExpTrigTerm(Fraction(1, 4), 1, -ONE)])))
# a squared denominator against the same over two denominator slopes
@example((ModeFunction([ExpTrigTerm(2, 1, HALF, ((ONE, -2), (HALF, 1)))], []),
          ModeFunction(_times_one(ExpTrigTerm(2, 1, HALF, ((ONE, -2), (HALF, 1))),
                                  Fraction(1, 3)), [])))
def test_exponential_sums_decide_as_the_laurent_forms(pair):
    f, g = pair
    assert equals(f, g) == _laurent_equals(f, g)
    assert equals(g, f) == equals(f, g)
    d = f - g
    assert d.is_zero() == (d.canonical()[1:] == ({}, {})) == equals(f, g)
