"""Catalog construction, relation verification, ordering-difference analysis,
classical limits."""

import cmath
import functools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bind_shipped, contraction_pairs, shipped_commutator,
                      shipped_text, tilt_twins)
from coset_forge import algebra, cli, contraction
from coset_forge.algebra import (Catalog, Current, NormalOrderedTerm, Relation,
                                 _classical_readout, classical_limit,
                                 ef_commutator_analysis, verify_relation)
from coset_forge.contraction import (StructureFunction, closed_form, contract,
                                     gamma_key, linear_key)
from coset_forge.dsl import parse_definitions
from coset_forge.errors import CosetForgeError, ExcludedLevel, NonConvergent
from coset_forge.exact import GR, ExactConst, merge
from coset_forge.modes import (AlgebraParams, ExpTrigTerm, Kernel, ModeFunction,
                               equals as modes_equal)

K2 = AlgebraParams(Fraction(2))
HALF = Fraction(1, 2)


def catalog(k):
    return bind_shipped(k)[1]


def test_catalog_shape():
    cat = catalog(2)
    assert len(cat.currents) == 14
    for name in ("psi", "psi_dag", "E", "F"):
        assert len(cat[name].terms) == 2
    for name in ("C_plus", "C_minus", "B_plus", "B_minus", "Lambda_plus",
                 "Lambda_minus", "beta_plus", "beta_minus", "H_plus", "H_minus"):
        assert len(cat[name].terms) == 1
    with pytest.raises(ExcludedLevel):
        bind_shipped(0)


def test_catalog_printed_exponents():
    # C+ positive branch: -hbar e^{-(k/4) h t} e^{-iut}/sinh(k h t/2);
    # H+ : 2 hbar e^{-iut} on t>0 only
    k = Fraction(5, 2)
    cat = catalog(k)
    cp = cat["C_plus"].exponent("chat")
    expect = ModeFunction(
        [ExpTrigTerm(-1, 1, -k / 4, ((k / 2, -1),))],
        [ExpTrigTerm(-1, 1, k / 4, ((k / 2, -1),))])
    assert modes_equal(cp, expect)
    hp = cat["H_plus"].exponent("chat")
    assert modes_equal(hp, ModeFunction([ExpTrigTerm(2, 1, 0, ())], []))
    assert not cat["H_minus"].exponent("chat").positive_branch


def test_wick_rotate_structure_function_example():
    sf = (StructureFunction.from_linear(GR.of(HALF), 1)
          * StructureFunction.from_linear(GR.of(-HALF), -1))
    rot = sf.wick_rotate()
    for w in (1.4 - 0.3j,):
        assert abs(rot.eval(w, 1.0) - (w - 0.5) / (w + 0.5)) < 1e-13
    assert StructureFunction.one().wick_rotate().is_one()


def test_rotated_screened_exchange_matches_u1_sector_factor():
    # the rotated C+C- exchange factor coincides with the rational factor the
    # U(1) relations produce at the same arguments
    k = Fraction(2)
    cat = catalog(k)
    facs = cat.pair_exchange(cat["C_plus"], cat["C_minus"], rotate="global")
    s = facs[0].normalize()
    # at k=2 the exchange collapses to -(iw+h)/(iw-h) rotated: -(w-h)/(w+h)... :
    # check numerically against the hyperbolic form continued
    hyp = cat.pair_exchange(cat["C_plus"], cat["C_minus"], rotate="none")[0]
    for w in (0.9 - 0.4j, -1.2 - 1.1j):
        rot_val = s.eval(w, 1.0)
        # hbar -> -i hbar continuation of the hyperbolic factor
        cont = hyp.eval(w, 1.0)  # same symbolic function, different variable
        assert abs(rot_val) > 0 and abs(cont) > 0
    # symbolic: rotation of the hyperbolic factor equals the rotated factor
    assert (hyp.wick_rotate() * s.inverse()).normalize().is_one()


@pytest.mark.parametrize("k", [Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)])
def test_shipped_relations_all_levels(k):
    _, cat, rels, _ = bind_shipped(k)
    assert len(rels) == 25
    for rel in rels.values():
        rep = verify_relation(cat, rel)
        assert rep.passed, (k, rel.rel_id, rep.symbolic_pass)
        assert rep.symbolic_pass
        # an exact verdict: no numeric residual and no grid
        assert rep.max_rel_err is None and rep.grid == rep.residuals == []


def test_drinfeld_gamma_cancellation_is_exact():
    # kernel-family factorization: all Gamma factors cancel between the
    # auxiliary and U(1) sectors in every E/F term pair
    for k in (Fraction(2), Fraction(5, 2)):
        cat = catalog(k)
        for a, b in (("E", "E"), ("F", "F"), ("H_plus", "E"), ("H_minus", "F")):
            for sf in cat.pair_exchange(cat[a], cat[b], rotate="none"):
                assert not sf.normalize().gammas


def test_verify_relation_rejects_perturbed_factor():
    k = Fraction(2)
    cat = catalog(k)
    left = StructureFunction.from_linear(GR(Fraction(0), Fraction(1)), 1)
    right = StructureFunction.from_linear(GR(Fraction(0), Fraction(-2)), 1)
    bad = Relation("ee_bad", "exchange", ("E", "E"), right * left.inverse(),
                   rotate="global")
    rep = verify_relation(cat, bad)
    assert not rep.passed
    assert rep.symbolic_pass is False


def test_relation_asymptotic_normalization():
    # any exchange relation at |w| -> large: both sides' ratio -> 1
    k = Fraction(3)
    cat = catalog(k)
    facs = cat.pair_exchange(cat["beta_plus"], cat["beta_minus"], rotate="none")
    for r in (50.0, 400.0):
        w = r * cmath.exp(-0.6j)
        assert abs(facs[0].eval(w, 1.0) - 1.0) < 30.0 / r


def test_hh_commutation_factor_is_one():
    for k in (Fraction(2), Fraction(5, 2)):
        cat = catalog(k)
        for pair in (("H_plus", "H_plus"), ("H_minus", "H_minus")):
            for sf in cat.pair_exchange(cat[pair[0]], cat[pair[1]]):
                assert sf.is_one()


@pytest.mark.parametrize("k", [Fraction(2), Fraction(3), Fraction(5, 2)])
def test_ef_commutator_analysis(k):
    rep = shipped_commutator(k)
    assert rep.passed
    # the poles are read off exactly, in units of hbar: no numeric residual,
    # no float fields
    assert [p["w_over_hbar"] for p in rep.poles] == [str(k / 2), str(-k / 2)]
    assert all(sorted(p) == ["matches", "pairs", "scalar", "scalar_hbar_power",
                             "w_over_hbar"] for p in rep.poles)
    assert rep.max_rel_err is None
    # each pole's residue is one declared residue, with its scalar
    assert [(p["matches"], p["scalar"], p["scalar_hbar_power"])
            for p in rep.poles] == [
        ([{"target": "H_minus", "shift": str(-k / 4)}], "1", -1),
        ([{"target": "H_plus", "shift": str(k / 4)}], "-1", -1)]


def test_hh_pair_has_empty_pole_set():
    # the same ordering-difference analysis on a commuting pair: no poles
    cat = catalog(2)
    rep = ef_commutator_analysis(cat, e_name="H_plus", f_name="H_plus",
                                 expected_poles=[],
                                 residue_targets=[("H_plus", Fraction(0), Fraction(1), 0)])
    assert rep.poles == []
    # a declared residue no pole has fails the row
    assert not rep.passed
    assert rep.notes == ["declared residue H_plus @ (0) is the residue of 0 poles, not one"]


def test_residue_scalar_pattern():
    rep = shipped_commutator(2)
    by_pole = {p["w_over_hbar"]: p for p in rep.poles}
    minus = by_pole["-1"]
    plus = by_pole["1"]
    assert minus["scalar"] == "-1" and minus["scalar_hbar_power"] == -1
    assert plus["scalar"] == "1" and plus["scalar_hbar_power"] == -1


def _commutator_with_e(e_decl, k, scalar=1):
    """ef_commutator_analysis of the shipped file with E declared as
    `e_decl` and the residue scalars declared as -scalar and scalar, bound
    at level k."""
    text = shipped_text()
    residues = "residues: H_plus @ (k/4) * (-1) / hbar, H_minus @ (-k/4) * 1 / hbar;"
    assert "current E = psi * C_plus;" in text and residues in text
    text = text.replace("current E = psi * C_plus;", e_decl).replace(
        residues, f"residues: H_plus @ (k/4) * (-{scalar}) / hbar, "
                  f"H_minus @ (-k/4) * {scalar} / hbar;")
    _, cat, _, (cm,), _ = parse_definitions(text).bind(Fraction(k))
    return ef_commutator_analysis(cat, *cm["pair"], cm["poles"], cm["residues"])


@pytest.mark.parametrize("k", ["2", "5/12"])
def test_a_pole_held_by_equal_term_pairs_is_one_residue_operator(k):
    # psi * C_plus written twice puts two term pairs on each pole; their
    # residues are one vertex operator with the scalars added, as for the
    # same operator written 2 * psi * C_plus, whose declared scalars double
    summed = _commutator_with_e("current E = psi * C_plus + psi * C_plus;", k, 2)
    doubled = _commutator_with_e("current E = 2 * psi * C_plus;", k, 2)
    assert all(len(p["pairs"]) == 2 for p in summed.poles)
    assert all(len(p["pairs"]) == 1 for p in doubled.poles)
    for rep in (summed, doubled):
        assert rep.passed and rep.notes == doubled.notes
        assert [(p["matches"], p["scalar"], p["scalar_hbar_power"])
                for p in rep.poles] == [
            ([{"target": "H_minus", "shift": str(-Fraction(k) / 4)}], "2", -1),
            ([{"target": "H_plus", "shift": str(Fraction(k) / 4)}], "-2", -1)]


def test_a_pole_held_by_different_vertex_operators_fails():
    # the second term of E carries a factor on a kernel F does not touch:
    # the same poles, but each is held by two different vertex operators
    rep = _commutator_with_e(
        "kernel z { sign = +1; slope = 1; }\n"
        "current Z on z { pos: 2 * hbar * exp(-i*u*t); }\n"
        "current E = psi * C_plus + psi * C_plus * Z;", 2)
    assert not rep.passed
    # each pole is listed with its term pairs, and matches no declared residue
    assert [(p["w_over_hbar"], p["pairs"], p["matches"]) for p in rep.poles] == [
        ("1", [(1, 1), (3, 1)], []), ("-1", [(0, 0), (2, 0)], [])]
    assert rep.notes == [
        "residue at w=1*hbar: term pairs [(1, 1), (3, 1)] give different "
        "vertex operators",
        "residue at w=-1*hbar: term pairs [(0, 0), (2, 0)] give different "
        "vertex operators",
        "declared residue H_plus @ (1/2) is the residue of 0 poles, not one",
        "declared residue H_minus @ (-1/2) is the residue of 0 poles, not one"]


LIMIT_LEVELS = [Fraction(2), Fraction(3), Fraction(5, 2)]
PSI_PAIRS = ((("psi", "psi"), 1), (("psi", "psi_dag"), -1))


@pytest.mark.parametrize("k", LIMIT_LEVELS)
def test_classical_limit_psi_pairs(k):
    cat = catalog(k)
    for pair, ab in PSI_PAIRS:
        rep = classical_limit(cat, pair, ab)
        assert rep.passed
        fit = rep.limit_fit
        # the exponent read off the Gamma multiset is 2ab/k, modulo the
        # period 2 of exp(i pi x); within (-1, 1] it is 2ab/k itself
        assert fit["braid_exponent"] == Fraction(2 * ab) / k
        assert (fit["exponent"] - fit["braid_exponent"]) % 2 == 0
        if abs(fit["braid_exponent"]) < 1:
            assert fit["exponent"] == fit["braid_exponent"]
        # reflection-paired Gamma factors: the B_n terms cancel at every n
        assert fit["order"] is None and fit["correction"] is None
        assert max(fit["check_errors"]) <= 1e-8
        # an exact row: its cross-check errors live in limit_fit alone
        assert rep.max_rel_err is None


def test_classical_limit_at_k2_reads_the_constant():
    # at k = 2 the rotated factor normalizes to the constant -1: the exact
    # route reads the phase pi off it, where the fit had nothing to check
    rep = classical_limit(catalog(2), ("psi", "psi"), 1)
    fit = rep.limit_fit
    assert (fit["x_power"], fit["const_phase"], fit["exponent"]) == (0, 1, 1)


@pytest.mark.parametrize("k", LIMIT_LEVELS)
@pytest.mark.parametrize("mutation", ["flip-ab", "double-ab"])
def test_classical_limit_nonconvergent_raises(k, mutation):
    cat = catalog(k)
    for pair, ab in PSI_PAIRS:
        wrong = -ab if mutation == "flip-ab" else 2 * ab
        if mutation == "flip-ab" and k == 2:
            # [w/(-w)]^1 and [w/(-w)]^-1 are the same function, -1 on
            # either half-plane: flipping ab at k = 2 is no mutation
            assert classical_limit(cat, pair, wrong).passed
            continue
        # a doubled ab doubles the braid exponent 2ab/k, which moves it
        # modulo 2 at every level here, k = 2 included
        with pytest.raises(NonConvergent):
            classical_limit(cat, pair, wrong)


def test_classical_limit_cross_check_is_held_to_the_tolerance(monkeypatch):
    monkeypatch.setattr(algebra, "TOLERANCE", 0.0)
    with pytest.raises(NonConvergent, match="above the tolerance 0$"):
        classical_limit(catalog(3), ("psi", "psi"), 1)
    # at k = 2 the factor is the constant -1, its limit, to the last bit
    rep = classical_limit(catalog(2), ("psi", "psi"), 1)
    assert rep.passed and rep.limit_fit["check_errors"] == [0.0] * 3


SHIPPED_CURRENTS = [cd.name for cd in parse_definitions(shipped_text()).currents]
SHAPE_PAIRS = (("psi", "psi"), ("psi", "psi_dag"), ("psi_dag", "psi_dag"))
# off the real axis, where the rotated factors' poles lie
_TERM_PAIR_W = (0.37 + 1.3j, -0.61 + 2.2j)


def _term_pairs_differ(cat, a, b) -> bool:
    """Whether some term pair's globally rotated exchange factor of A(u) B(v)
    differs from the first's in value at two points: a check by numbers of
    what classical_limit decides by normal forms."""
    first, *others = cat.pair_exchange(cat[a], cat[b], rotate="global")
    return any(abs(cmath.exp(sf.log_eval(w, 1.0) - first.log_eval(w, 1.0)) - 1) > 1e-9
               for sf in others for w in _TERM_PAIR_W)


@pytest.mark.parametrize("k", [Fraction(3), Fraction(5, 12)])
@pytest.mark.parametrize("a, b", [(a, b) for a in SHIPPED_CURRENTS
                                  for b in SHIPPED_CURRENTS])
def test_a_limit_is_refused_exactly_when_term_pairs_differ(k, a, b):
    # one limit needs one exchange factor: a pair whose term pairs' factors
    # differ has none, whatever the first one's limit would be
    cat = catalog(k)
    ab = 1 if a == b else -1
    if _term_pairs_differ(cat, a, b):
        assert (a, b) not in SHAPE_PAIRS
        with pytest.raises(NonConvergent, match=r"^term pairs \(0,0\) and \(\d+,\d+\) "
                           "have different exchange factors: the pair has no "
                           "single limit$"):
            classical_limit(cat, (a, b), ab)
        return
    try:
        rep = classical_limit(cat, (a, b), ab)
    except NonConvergent as exc:
        assert "term pairs" not in str(exc)
    else:
        assert rep.passed


@pytest.mark.parametrize("k", [Fraction(3), Fraction(5, 12)])
def test_48_ordered_pairs_have_no_single_exchange_factor(k):
    cat = catalog(k)
    assert sum(_term_pairs_differ(cat, a, b) for a in SHIPPED_CURRENTS
               for b in SHIPPED_CURRENTS) == 48


def _gamma(sigma, shift, e):
    """Gamma(sigma*w/hbar + shift)^e, i.e. the scale i/sigma."""
    return StructureFunction.from_gamma(GR(0, 1 / Fraction(sigma)), shift, e)


def test_classical_readout_finds_the_first_power_law_term():
    # Gamma(X+1/4) Gamma(2X+3/4) / (Gamma(X+3/4) Gamma(2X+1/4)) tends to
    # sqrt(1/2); the B_2 terms cancel, the B_3 ones leave 3/64 X^-2
    sf = (_gamma(1, Fraction(1, 4), 1) * _gamma(1, Fraction(3, 4), -1)
          * _gamma(Fraction(1, 2), Fraction(3, 4), 1)
          * _gamma(Fraction(1, 2), Fraction(1, 4), -1))
    sf = sf * StructureFunction(
        const=ExactConst.one().times_base(GR(2), 0, Fraction(1, 2)))
    power, phase, corrections, _ = _classical_readout(sf)
    assert (power, phase) == (0, 0)
    assert corrections[:2] == [GR(0), GR(Fraction(3, 64))]
    for hbar in (0.1, 0.01):
        x = 1j / hbar
        err = abs(sf.eval(1j, hbar) - 1.0)
        assert err == pytest.approx(3 / 64 / abs(x) ** 2, rel=0.05)
    # a linear pair: (iw + hbar)/(iw - hbar) = 1 - 2i/X + O(X^-2)
    lin = StructureFunction.from_linear(1) * StructureFunction.from_linear(-1, -1)
    power, phase, corrections, _ = _classical_readout(lin)
    assert (power, phase, corrections[0]) == (0, 0, GR(0, -2))


@pytest.mark.parametrize("sf, message", [
    (_gamma(1, Fraction(1, 3), 1), "do not balance"),
    (_gamma(1, Fraction(1, 3), 1) * _gamma(1, Fraction(2, 3), -1),
     r"grows like w\^-1/3"),
    (StructureFunction.from_gamma(GR(1), Fraction(1, 3)), "not imaginary"),
    (StructureFunction(const=ExactConst.one().times_base(GR(2), 0, 1)), "modulus 1"),
    # Gamma(X + 1/2)^2 / Gamma(X)^2 ~ X = w/hbar; over (iw + hbar) the
    # power of w cancels and 1/(i hbar) is left
    (_gamma(1, HALF, 2) * _gamma(1, 0, -2) * StructureFunction.from_linear(1, -1),
     r"carries hbar\^-1"),
])
def test_classical_readout_refuses_a_factor_without_braid_limit(sf, message):
    with pytest.raises(NonConvergent, match=message):
        _classical_readout(sf)


@functools.cache
def _fraction_bernoulli() -> tuple[int, list[int]]:
    """(L, [L*B_0, ..., L*B_N]): the Bernoulli numbers, B_1 = -1/2, over
    their least common denominator L, N = LIMIT_N_MAX."""
    b = [Fraction(1)]
    for m in range(1, algebra.LIMIT_N_MAX + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    den = math.lcm(*(x.denominator for x in b))
    return den, [x.numerator * (den // x.denominator) for x in b]


def _fraction_bernoulli_poly(n: int, a: Fraction) -> Fraction:
    """B_n(a) = sum_j C(n, j) B_j a^(n-j) (DLMF 24.2.5), over L*d^n for
    a = p/d."""
    den, b = _fraction_bernoulli()
    p, d = a.numerator, a.denominator
    return Fraction(sum(math.comb(n, j) * b[j] * p ** (n - j) * d ** j
                        for j in range(n + 1)), den * d ** n)


def _fraction_readout(sf: StructureFunction) -> tuple:
    """The classical read-out one Fraction at a time: B_n(a) of every shift
    a, each over sigma^m, and each linear factor's series e t^m in Gaussian
    rationals.  The oracle for _classical_readout's integer power sums."""
    n = sf.normalize()
    groups: dict[Fraction, list[tuple[Fraction, int]]] = {}
    for (sa, sb, sq, an, ad), e in n.gammas.items():
        if sa or not sb:
            raise NonConvergent(f"Gamma scale {GR(Fraction(sa, sq), Fraction(sb, sq))!r}"
                                " is not imaginary: no braid limit on Im w > 0")
        groups.setdefault(Fraction(sq, sb), []).append((Fraction(an, ad), e))
    const = n.const
    p_plus = p_minus = Fraction(0)
    for sigma, group in groups.items():
        if sum(e for _, e in group):
            raise NonConvergent(f"Gamma factors of scale 1/({sigma}*i) do not "
                                "balance: the factor grows like z^z")
        p = sum(e * a for a, e in group)
        const = const.times_base(GR(abs(sigma)), -1, p)
        if sigma > 0:
            p_plus += p
        else:
            p_minus += p
    linears = [(e, -GR(0, 1) * GR(Fraction(a, q), Fraction(b, q)))
               for (a, b, q), e in n.linears.items()]
    for e, _ in linears:
        p_plus += e
        const = const.times_base(GR(0, 1), 0, e)
    if p_plus + p_minus:
        raise NonConvergent(f"the limit grows like w^{p_plus + p_minus}")
    if const.hb:
        raise NonConvergent(f"the limit carries hbar^{const.hbar_pow}")
    if const.pe:
        raise NonConvergent(f"the limit constant {const!r} is not a rational "
                            "phase of modulus 1")
    corrections = []
    powers = [GR(1)] * len(linears)
    for m in range(1, algebra.LIMIT_N_MAX):
        g = sum((e * _fraction_bernoulli_poly(m + 1, a) / sigma ** m
                 for sigma, group in groups.items() for a, e in group),
                Fraction(0)) / (m + 1)
        powers = [p * t for p, (_, t) in zip(powers, linears)]
        coeff = sum((e * p for p, (e, _) in zip(powers, linears)), GR(g))
        corrections.append(coeff * Fraction((-1) ** (m + 1), m))
    reach = [float(abs(s)) for s in groups] + [
        1 / abs(complex(t)) for _, t in linears if t] + [1.0]
    return p_plus, Fraction(const.ph, 2 * const.den), corrections, min(reach) / 8


@pytest.mark.parametrize("k", ["1", "3/2", "2", "5/2", "3", "7/2", "4", "5/12",
                               "2/7", "13/16"])
def test_readout_of_each_shipped_shape_factor_is_the_fraction_readout(k):
    _, cat, rels, _ = bind_shipped(Fraction(k))
    pairs = [r.pair for r in rels.values() if r.kind == "shape"]
    assert len(pairs) == 3
    for a, b in pairs:
        sf = cat.pair_exchange(cat[a], cat[b], rotate="global")[0]
        got = _classical_readout(sf)
        assert got == _fraction_readout(sf)
        assert type(got[0]) is Fraction and type(got[1]) is Fraction
        assert all(type(c) is GR for c in got[2])


def _seeded_scale_groups(rng: random.Random):
    """A factor with a braid limit: 1-3 imaginary scales i/sigma, sigma =
    +-q/b, each a balanced set of Gamma(sigma X + p/d)^e with |p| <= 30,
    d <= 17 and e in +-1..3; 0-2 linear factors; a closing ratio
    Gamma(sigma X + c)/Gamma(sigma X) on the first scale, c in [0, 1), and
    (iw)^N, which bring the power of w to 0; and the constant that cancels
    every prime and hbar power of the limit, times a random phase."""
    exps = [-3, -2, -1, 1, 2, 3]
    gammas, linears = {}, {}
    sigmas = list(dict.fromkeys(
        Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        for _ in range(rng.randint(1, 3))))
    powers = {}
    for sigma in sigmas:
        factors = [(Fraction(rng.randint(-30, 30), rng.randint(1, 17)), rng.choice(exps))
                   for _ in range(rng.randint(1, 3))]
        rest = -sum(e for _, e in factors)
        while rest:
            e = max(-3, min(3, rest))
            factors.append((Fraction(rng.randint(-30, 30), rng.randint(1, 17)), e))
            rest -= e
        for a, e in factors:
            merge(gammas, gamma_key(GR(0, 1 / sigma), a), e)
        powers[sigma] = sum(e * a for a, e in factors)
    for _ in range(rng.choice([0, 0, 1, 2])):
        rho = GR(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        merge(linears, linear_key(rho), rng.choice(exps))
    total = sum(powers.values()) + sum(linears.values())
    c = -total % 1
    first = GR(0, 1 / sigmas[0])
    merge(gammas, gamma_key(first, c), 1)
    merge(gammas, gamma_key(first, Fraction(0)), -1)
    merge(linears, linear_key(GR(0)), -int(total + c))
    powers[sigmas[0]] += c
    const = ExactConst.one()
    for sigma, p in powers.items():
        const = const.times_base(GR(abs(sigma)), -1, -p)
    const = const.times_base(GR(0, 1), 0, Fraction(rng.randint(-12, 12),
                                                    rng.randint(1, 7)))
    return StructureFunction(gammas, linears, const)


def test_readout_of_seeded_scale_groups_is_the_fraction_readout():
    rng = random.Random(4501)
    for _ in range(3000):
        sf = _seeded_scale_groups(rng)
        want = _fraction_readout(sf)
        assert _classical_readout(sf) == want


def test_catalog_contraction_pair_count():
    pairs = contraction_pairs(catalog(2))
    assert len(pairs) >= 20
    labels = {p[0] for p in pairs}
    assert "C_plus[0].C_minus[0].chat" in labels
    assert "Lambda_plus[0].Lambda_minus[0].lhat" in labels
    # a t<0-only current never stands on the left
    assert not any(label.startswith("H_minus[") for label in labels)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12),
       st.sampled_from([Fraction(1), HALF, Fraction(3, 7)]))
def test_every_linear_factor_has_its_pole_on_an_axis(p, q, hbar):
    # every derived linear factor (iw + rho*hbar) has rho real or imaginary
    k = Fraction(p, q)
    params, cat, rels, _ = bind_shipped(k, hbar)
    for rel in rels.values():
        for rotate in ("none", "global"):
            for sf in cat.pair_exchange(cat[rel.pair[0]], cat[rel.pair[1]],
                                        rotate):
                for a, b, _ in [*sf.linears, *sf.normalize().linears]:
                    assert a == 0 or b == 0, (rel.rel_id, rotate, sf)


def _per_family_exchange(cat, ta, tb, rotated):
    """The exchange factor of one term pair built from closed_contraction
    family by family: S_fam = exp<A B> / exp<B A>(-w), each Wick-rotated
    when `rotated`, multiplied over the families of ta that tb carries too,
    in kernel order."""
    out = StructureFunction.one()
    for fam in cat.kernels:
        if fam not in ta.exponents or fam not in tb.exponents:
            continue
        fwd, _ = cat.closed_contraction(fam, ta.exponents[fam], tb.exponents[fam])
        rev, _ = cat.closed_contraction(fam, tb.exponents[fam], ta.exponents[fam])
        sf = fwd * rev.negate_w().inverse()
        out = out * (sf.wick_rotate() if rotated else sf)
    return out


@pytest.mark.parametrize("k", [Fraction(5, 2), Fraction(5, 12)])
def test_pair_exchange_is_the_per_family_product(k):
    # every ordered pair of shipped currents under both rotation modes: the
    # product rotated once is the product of the rotated family factors
    cat = catalog(k)
    for rotate, rotated in (("none", False), ("global", True)):
        for a, ca in cat.currents.items():
            for b, cb in cat.currents.items():
                got = cat.pair_exchange(ca, cb, rotate)
                want = [_per_family_exchange(cat, ta, tb, rotated)
                        for ta in ca.terms for tb in cb.terms]
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.gammas == w.gammas, (rotate, a, b)
                    assert g.linears == w.linears, (rotate, a, b)
                    assert g.const == w.const, (rotate, a, b)
                    assert g.describe() == w.describe(), (rotate, a, b)
    with pytest.raises(ValueError, match="unknown rotation mode 'bogus'"):
        cat.pair_exchange(cat["E"], cat["F"], rotate="bogus")


@pytest.mark.parametrize("k", ["5/2", "5/12", "2/7", "13/16"])
def test_one_pass_ratios_and_products_are_the_operator_chains(k):
    # every family of every term pair of every ordered pair of shipped
    # currents: closed_contraction's product is the chain of products of
    # its pair closed forms, and the exchange ratio is S_f * S_r(-w)^-1
    # built by negate_w, inverse and a product
    cat = catalog(Fraction(k))
    checked = 0
    for ca in cat.currents.values():
        for cb in cat.currents.values():
            for ta in ca.terms:
                for tb in cb.terms:
                    for fam, fa, fb in cat.shared_families(ta, tb):
                        s_f = cat.closed_contraction(fam, fa, fb)[0]
                        s_r = cat.closed_contraction(fam, fb, fa)[0]
                        chain = StructureFunction.one()
                        for tf in fa.positive_branch:
                            for tg in fb.negative_branch:
                                chain = chain * cat._single_pair_closed(fam, tf, tg)[0]
                        pairs = [(s_f, chain),
                                 (cat._exchange_ratio(fam, fa, fb),
                                  s_f * s_r.negate_w().inverse())]
                        for got, want in pairs:
                            assert got.gammas == want.gammas, (k, fam)
                            assert got.linears == want.linears, (k, fam)
                            assert got.const == want.const, (k, fam)
                            assert got.describe() == want.describe(), (k, fam)
                        checked += 1
    assert checked > 100


def test_bilinearity_consistency():
    # verifying the composite relation gives the same verdict as checking the
    # shared factor on each term pair separately
    k = Fraction(5, 2)
    cat = catalog(k)
    facs = cat.pair_exchange(cat["psi"], cat["psi_dag"], rotate="none")
    base = facs[0]
    for sf in facs[1:]:
        assert (sf * base.inverse()).normalize().is_one()
    rep = verify_relation(cat, Relation("psi_psi_dag", "shape",
                                        ("psi", "psi_dag"), StructureFunction.one()))
    assert rep.passed and rep.symbolic_pass


def test_quadrature_only_fallback_for_nontelescoping_relations():
    # a current living on two opposite-sign kernels with identical shapes:
    # each family's closed form refuses (repeated denominator roots), but the
    # families cancel exactly under quadrature, so the exchange factor is 1
    from coset_forge.algebra import Catalog, Current, NormalOrderedTerm
    from coset_forge.modes import ExpTrigTerm, Kernel

    params = AlgebraParams(Fraction(1))
    cat = Catalog(params)
    cat.kernels = {"p": Kernel("p", +1, Fraction(1, 2)),
                   "m": Kernel("m", -1, Fraction(1, 2))}
    sq = ((Fraction(1, 2), 2), (Fraction(1), -2))

    def mf():
        return ModeFunction([ExpTrigTerm(1, 1, 0, sq)],
                            [ExpTrigTerm(1, 1, 0, sq)])

    cat.currents["X"] = Current(
        "X", (NormalOrderedTerm(1, 0, {"p": mf(), "m": mf()}),))
    one = StructureFunction.one()
    rep = verify_relation(cat, Relation("xx", "exchange", ("X", "X"), one))
    assert rep.passed
    assert rep.symbolic_pass is None  # numeric-only verdict
    assert any("quadrature-only" in n for n in rep.notes)
    bad = Relation("xx_bad", "exchange", ("X", "X"),
                   StructureFunction.from_linear(GR.of(Fraction(1)), 1))
    rep2 = verify_relation(cat, bad)
    assert not rep2.passed and rep2.max_rel_err > 0.1


def test_immutable_records_reject_assignment():
    term = ExpTrigTerm(2, 1, HALF, ((HALF, 1),))
    not_term = NormalOrderedTerm(1, 0, {"a": ModeFunction([term])})
    records = [
        (term, "coeff", Fraction(3)), (term, "_hash", 0),
        (AlgebraParams(Fraction(2)), "k", Fraction(3)),
        (Kernel("a", 1, HALF), "slope_b", Fraction(1)),
        (not_term, "hbar_power", 1),
        (Current("X", (not_term,)), "terms", ()),
        (Relation("xx", "exchange", ("X", "X"), StructureFunction.one()),
         "rotate", "global"),
    ]
    for obj, name, value in records:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = value
        assert getattr(obj, name) is before
    # equal terms stay equal and hash alike, the cached hash included
    twin = ExpTrigTerm(-2, 1, "1/2", ((-HALF, 1),))
    assert hash(term) == hash(twin) and term == twin and term is not twin
    assert {term: 0, twin: 1} == {term: 1}


def _with_target(rel, gammas=None, linears=None):
    """rel with its target replaced by one with the given Gamma or linear
    factors, constant kept."""
    t = rel.target
    target = StructureFunction(t.gammas if gammas is None else gammas,
                               t.linears if linears is None else linears,
                               t.const)
    return Relation(rel.rel_id, rel.kind, rel.pair, target, rotate=rel.rotate)


def test_a_wrong_target_fails_its_row():
    _, cat, rels, _ = bind_shipped(3)
    C, E = rels["C_p_C_p"], rels["E_E"]
    t = C.target
    key, e = sorted(t.gammas.items())[0]
    sa, sb, sq, n, d = key
    # one Gamma shift raised by one (the same recurrence class), one Gamma
    # factor left out, one linear constant raised by one
    raised = {k: v for k, v in t.gammas.items() if k != key}
    raised[(sa, sb, sq, n + d, d)] = e
    missing = {k: v for k, v in t.gammas.items() if k != key}
    te = E.target
    (a, b, q), el = sorted(te.linears.items())[0]
    shifted = {k: v for k, v in te.linears.items() if k != (a, b, q)}
    shifted[(a + q, b, q)] = el
    assert verify_relation(cat, C).passed and verify_relation(cat, E).passed
    for rel in (_with_target(C, gammas=raised), _with_target(C, gammas=missing),
                _with_target(E, linears=shifted)):
        rep = verify_relation(cat, rel)
        assert rep.symbolic_pass is False and not rep.passed
        assert rep.max_rel_err is None and rep.residuals == []


def _closing(text, start):
    """The index just past the parenthesis that closes the first one at or
    after `start`."""
    depth, i = 0, text.index("(", start)
    while True:
        depth += {"(": 1, ")": -1}.get(text[i], 0)
        i += 1
        if not depth:
            return i


def _exchange_mutants(text):
    """(row, text with one number of that row raised by one), for each
    linear constant c of (w +- c*hbar) or (iw +- c*hbar) and each Gamma
    offset a of Gamma(x@s +- a) in every exchange row of `text`."""
    out = []
    for rel in re.finditer(r"^relation (\w+) :(.*?);", text, re.M | re.S):
        if rel.group(2).startswith(" shape "):
            continue
        for site in re.finditer(r"\(i?w [+-] |Gamma\(", rel.group(2)):
            start = rel.start(2) + site.start()
            end = _closing(text, start)
            if site.group().startswith("Gamma"):
                raised = text[start:end - 1] + " + 1)"
            else:
                head = start + len(site.group())
                assert text.endswith("*hbar)", 0, end), text[start:end]
                raised = f"{text[start:head]}({text[head:end - 6]} + 1)*hbar)"
            out.append((rel.group(1), text[:start] + raised + text[end:]))
    return out


@pytest.mark.parametrize("k", [Fraction(5, 12), Fraction(3)], ids=str)
def test_each_raised_number_fails_exactly_its_own_row(k):
    # every known-answer control is refuted by the exact identity alone:
    # no mutant needs a numeric residual to fail
    mutants = _exchange_mutants(shipped_text())
    assert len(mutants) == 64
    assert len({row for row, _ in mutants}) == 20
    for row, text in mutants:
        _, cat, rels, _, _ = parse_definitions(text).bind(k, None)
        failed = {}
        for rel in rels:
            rep = verify_relation(cat, rel)
            if not rep.passed:
                failed[rel.rel_id] = rep.symbolic_pass
        assert failed == {row: False}, (row, failed)


_LEVELS = random.Random(33).sample(
    [Fraction(p, q) for q in range(1, 17) for p in range(1, 4 * q + 1)
     if math.gcd(p, q) == 1], 12)


@pytest.mark.parametrize(
    "k", [*_LEVELS, Fraction(997, 1000), Fraction(1, 3000)], ids=str)
def test_cached_closed_forms_are_the_direct_derivation(k):
    # each cache entry is derived straight from its pair's sinh product: it
    # must be closed_form(contract(...)) of the pair, key for key and in the
    # same order, with the same constant and 1/t coefficient
    params, cat, rels, _ = bind_shipped(k)
    for rel in rels.values():
        verify_relation(cat, rel)
    assert len(cat._cf_cache) == 35
    for (fam, tf, tg), (sf, a) in cat._cf_cache.items():
        I = contract(ModeFunction([tf], []), ModeFunction([], [tg]),
                     cat.kernels[fam], params)
        ref = closed_form(I, params)
        assert list(sf.gammas.items()) == list(ref.gammas.items())
        assert list(sf.linears.items()) == list(ref.linears.items())
        assert sf.const == ref.const and a == I.log_divergence_coeff


def test_a_shifted_term_and_its_declared_twin_share_one_closed_form(monkeypatch):
    # X@(1/3) and exp((1/2)*h*t) are one function: one cache key, derived once
    calls = []
    pair_closed_form = algebra.pair_closed_form

    def recording_pair(tf, tg, K):
        calls.append((tf, tg))
        return pair_closed_form(tf, tg, K)

    monkeypatch.setattr(algebra, "pair_closed_form", recording_pair)
    shifted, declared = tilt_twins()
    _, cat, _, _, _ = parse_definitions(shifted).bind(None, None)
    _, twin, _, _, _ = parse_definitions(declared).bind(None, None)
    y, z = cat["Y"].exponent("p"), twin["Y"].exponent("p")
    forms = [cat._single_pair_closed("p", a.positive_branch[0], b.negative_branch[0])
             for a in (y, z) for b in (y, z)]
    assert all(form is forms[0] for form in forms)
    assert len(calls) == 1 and len(cat._cf_cache) == 1


# eight levels p/q with q <= 16, drawn by seed alone
_ROW_LEVELS = [str(k) for k in random.Random(35).sample(
    [Fraction(p, q) for q in range(2, 17) for p in range(1, 4 * q + 1)
     if math.gcd(p, q) == 1], 8)]


@pytest.mark.parametrize("k", ["3", "5/12", "1/16", *_ROW_LEVELS])
def test_single_relation_row_matches_the_full_run(k, tmp_path, capsys):
    # a catalog keeps products and exchange ratios across its relations:
    # none may answer for another relation
    full = tmp_path / "all.json"
    assert cli.run(["verify", "--k", k, "--json", str(full)]) == 0
    rows = {r["id"]: r for r in json.loads(full.read_text())["relations"]}
    ids = [i for i, r in rows.items() if r["kind"] in ("exchange", "shape")]
    assert len(ids) == 25
    for rel_id in ids:
        one = tmp_path / "one.json"
        assert cli.run(["verify", "--k", k, "--relation", rel_id,
                        "--json", str(one)]) == 0
        [row] = json.loads(one.read_text())["relations"]
        # floats round-trip exactly, so equal text means equal bytes
        assert json.dumps(row) == json.dumps(rows[rel_id])
    capsys.readouterr()


def test_a_verify_session_derives_each_product_and_ratio_once(
        monkeypatch, tmp_path):
    # at k = 2/7 a verify session needs 84 family exchange ratios (72 for
    # the relation rows, 12 for [E,F]'s four term pairs) over 44 distinct
    # (family, fa, fb) values, and closed_contraction products over
    # 52 distinct (family, t>0 branch, t<0 branch) keys (180 calls if none
    # were kept); each distinct one is derived once, from the 35 pair closed
    # forms of the level, each derived once from its sinh product, built by
    # one _pair_product call, with no contract or closed_form call: no pair
    # refuses, so the summed integrand decides nothing
    Catalog = algebra.Catalog
    products, ratio_keys, pairs = {}, [], []
    counts = {"ratios": 0, "contract": 0, "closed_form": 0, "_pair_product": 0}
    inside = []

    def counting(owner, name, wrapper):
        wrapped = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, **kw: wrapper(wrapped, *a, **kw))

    def closed_contraction(f, cat, fam, a, b):
        sf, coeff = f(cat, fam, a, b)
        key = (fam, a.positive_branch, b.negative_branch)
        products.setdefault(key, set()).add(id(sf))
        return sf, coeff

    def pair_exchange(f, cat, a, b, rotate="none"):
        # the (family, fa, fb) value of every family of every term pair
        for ta in a.terms:
            for tb in b.terms:
                for fam in cat.kernels:
                    fa, fb = ta.exponents.get(fam), tb.exponents.get(fam)
                    if fa is not None and fb is not None:
                        ratio_keys.append((fam, fa.positive_branch,
                                           fa.negative_branch,
                                           fb.positive_branch,
                                           fb.negative_branch))
        inside.append(True)
        try:
            return f(cat, a, b, rotate)
        finally:
            inside.pop()

    def exchange(f, s_f, s_r):
        # a ratio S_f(w) / S_r(-w) is derived by one StructureFunction.exchange
        counts["ratios"] += bool(inside)
        return f(s_f, s_r)

    def pair_closed_form(f, tf, tg, K):
        pairs.append((K, tf, tg))
        return f(tf, tg, K)

    def counted(name):
        def wrapper(f, *a):
            counts[name] += 1
            return f(*a)
        return wrapper

    counting(Catalog, "closed_contraction", closed_contraction)
    counting(Catalog, "pair_exchange", pair_exchange)
    monkeypatch.setattr(StructureFunction, "exchange", staticmethod(
        lambda s_f, s_r, f=StructureFunction.exchange: exchange(f, s_f, s_r)))
    counting(algebra, "pair_closed_form", pair_closed_form)
    counting(algebra, "contract", counted("contract"))
    counting(algebra, "closed_form", counted("closed_form"))
    counting(contraction, "closed_form", counted("closed_form"))
    counting(contraction, "_pair_product", counted("_pair_product"))
    assert cli.run(["verify", "--k", "2/7", "--json",
                    str(tmp_path / "v.json")]) == 0
    assert len(products) == 52
    assert all(len(ids) == 1 for ids in products.values())
    assert len(ratio_keys) == 84 and len(set(ratio_keys)) == 44
    assert len(pairs) == len(set(pairs)) == 35
    assert counts == {"ratios": 44, "contract": 0, "closed_form": 0,
                      "_pair_product": 35}


_DRAW_SLOPES = [Fraction(n, 2) for n in (1, 2, 3, 4)]


def _drawn_term(rng):
    """c hbar e^{(n/2) hbar t}, times sinh(s hbar t)^{+-1} half the time."""
    sinh = (((rng.choice(_DRAW_SLOPES), rng.choice((-1, 1))),)
            if rng.random() < 0.5 else ())
    return ExpTrigTerm(rng.choice((-2, -1, 1, 2)), 1,
                       Fraction(rng.randint(-4, 4), 2), sinh)


def _outcome(fn):
    try:
        return "derived", fn()
    except CosetForgeError as exc:
        return type(exc).__name__, None


@pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 1)])
def test_a_family_derives_exactly_where_its_summed_integrand_does(shape):
    # however a branch is split into terms, closed_contraction and
    # closed_form of the summed integrand (what contract prints) agree: the
    # same outcome, the same 1/t coefficient, and the same value mod 2 pi i
    # at two strip points.  Normalized forms are not compared: the pair
    # rule's Gamma scale can differ from the sum's where the values agree
    nf, ng = shape
    rng = random.Random(f"family-{nf}x{ng}")
    params = AlgebraParams(Fraction(1), Fraction(1))
    derived = 0
    for _ in range(3000):
        cat = Catalog(params)
        K = cat.kernels["c"] = Kernel("c", rng.choice((1, -1)), rng.choice(_DRAW_SLOPES))
        f = ModeFunction([_drawn_term(rng) for _ in range(nf)], [])
        g = ModeFunction([], [_drawn_term(rng) for _ in range(ng)])
        def summed():
            I = contract(f, g, K, params)
            return closed_form(I, params), I.log_divergence_coeff, I.strip_bound(1.0)

        got = _outcome(lambda: cat.closed_contraction("c", f, g))
        want = _outcome(summed)
        assert got[0] == want[0], (f, g, K.sign, K.slope_b)
        if got[1] is None:
            continue
        (sf, a), (sf_sum, a_sum, bound) = got[1], want[1]
        assert a == a_sum
        for w in (0.37 - (bound + 0.5) * 1j, -0.81 - (bound + 1.3) * 1j):
            d = sf.log_eval(w, 1.0) - sf_sum.log_eval(w, 1.0)
            d -= 2j * math.pi * round(d.imag / (2 * math.pi))
            assert abs(d) <= 1e-12, (f, g, K.sign, K.slope_b, w)
        derived += 1
    assert derived


def test_verify_relation_checks_every_factor(monkeypatch):
    # E_E's first factor at 5/12, then copies changed in one linear factor,
    # in one Gamma factor or in the constant only, then the first again:
    # the one changed factor fails the row
    _, cat, rels, _ = bind_shipped(Fraction(5, 12))
    rel = rels["E_E"]
    f = cat.pair_exchange(cat["E"], cat["E"], rotate=rel.rotate)[0]
    variants = [f * StructureFunction.from_linear(Fraction(1, 3)),
                f * StructureFunction.from_gamma(GR(0, 1), Fraction(1, 2)),
                StructureFunction(f.gammas, f.linears,
                                  f.const.times_base(GR(2), 0, 1))]
    for factors in ([f, f, f], *([f, changed, f] for changed in variants)):
        monkeypatch.setattr(cat, "pair_exchange", lambda a, b, rotate: factors)
        rep = verify_relation(cat, rel)
        assert rep.passed is rep.symbolic_pass is (factors[1] is f)



@pytest.mark.parametrize("k", ["3", "5/12", "1/16", "997/1000"])
def test_the_symbolic_route_evaluates_nothing_in_floats(k, monkeypatch):
    # a fresh catalog derives every factor while no structure function,
    # constant or integral can be evaluated in floats: each shipped exchange
    # and shape row is decided by the exact identity alone
    _, cat, rels, _ = bind_shipped.__wrapped__(Fraction(k))

    def refuse(*args):
        raise AssertionError("a float evaluation on the symbolic route")

    for owner, name in ((StructureFunction, "eval"),
                        (StructureFunction, "log_eval"),
                        (ExactConst, "eval"), (algebra, "quad_eval")):
        monkeypatch.setattr(owner, name, refuse)
    for rel in rels.values():
        rep = verify_relation(cat, rel)
        assert rep.passed is rep.symbolic_pass is True, (k, rel.rel_id)
        assert rep.max_rel_err is None


def test_log_residuals_keep_the_worst_ratio_at_each_point():
    # two checked factors on three points: each point's residual is the
    # larger |ratio - 1| of the two, the ratios given as logs
    sums = [[cmath.log(1.5), 0j, cmath.log(0.9)],
            [cmath.log(1.25), cmath.log(1j), 0j]]
    residuals, worst, failed = algebra._log_residuals(sums, set(), 3)
    for r, want in zip(residuals, [0.5, abs(1j - 1), 0.1]):
        assert abs(r - want) < 1e-15
    assert worst == max(residuals) and failed == 0
    # nothing checked: every point agrees
    assert algebra._log_residuals([], set(), 2) == ([0.0, 0.0], 0.0, 0)


def test_log_residuals_fail_a_point_that_did_not_evaluate():
    # a point the caller could not evaluate, one whose log ratio is NaN and
    # one whose ratio has no exponential are NaN, counted, and not the worst
    nan, inf = float("nan"), float("inf")
    sums = [[cmath.log(1.5), 0j, complex(nan, 0), complex(0, inf)],
            [0j, cmath.log(1.25), 0j, 0j]]
    residuals, worst, failed = algebra._log_residuals(sums, {0}, 4)
    assert [math.isnan(r) for r in residuals] == [True, False, True, True]
    assert worst == residuals[1] and failed == 3


def test_log_residuals_read_a_ratio_beyond_the_float_range_as_infinite():
    # exp(800) overflows: the point evaluated, and its residual is infinite
    residuals, worst, failed = algebra._log_residuals(
        [[complex(800, 0), 0j]], set(), 2)
    assert residuals == [math.inf, 0.0] and worst == math.inf and failed == 0


def test_settle_passes_within_the_tolerance_at_every_point(monkeypatch):
    def settled(residuals, worst, failed):
        rep = algebra.VerificationReport("r", "exchange", False, None,
                                         float("nan"))
        algebra._settle(rep, residuals, worst, failed)
        assert rep.residuals is residuals
        return rep.passed, rep.max_rel_err, rep.notes

    tol = algebra.TOLERANCE
    assert settled([tol, 0.0], tol, 0) == (True, tol, [])
    assert settled([2 * tol, 0.0], 2 * tol, 0) == (False, 2 * tol, [])
    assert settled([0.0, float("nan"), 0.0], 0.0, 1) == (
        False, 0.0, ["1 of 3 grid points failed to evaluate"])
    # the tolerance is read at call time
    monkeypatch.setattr(algebra, "TOLERANCE", 4 * tol)
    assert settled([2 * tol, 0.0], 2 * tol, 0)[0] is True


def test_a_divergence_mismatch_is_raised_on_every_call():
    # the forward contraction of X against Y has a 1/t coefficient, the
    # reversed one none: every pair_exchange through the family refuses,
    # and no ratio is kept
    from coset_forge.algebra import Catalog
    from coset_forge.errors import DivergenceMismatch

    k = Fraction(2)
    cat = Catalog(AlgebraParams(k))
    cat.kernels = {"c": Kernel("c", 1, k / 2)}
    x = ModeFunction([ExpTrigTerm(2, 1, 0, ())],
                     [ExpTrigTerm(1, 1, 0, ((k / 2, -1),))])
    y = ModeFunction([ExpTrigTerm(1, 1, 0, ((k / 2, -1),))],
                     [ExpTrigTerm(-2, 1, 0, ())])
    for name, mf in (("X", x), ("Y", y)):
        cat.currents[name] = Current(name, (NormalOrderedTerm(1, 0, {"c": mf}),))
    for rotate in ("none", "global", "none"):
        with pytest.raises(DivergenceMismatch, match="family c: 1/t coefficients"):
            cat.pair_exchange(cat["X"], cat["Y"], rotate)
    assert not cat._ratios
