"""Definition-file parsing, diagnostics and binding."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import shipped_text
from coset_forge import dsl
from coset_forge.contraction import StructureFunction
from coset_forge.dsl import parse_definitions
from coset_forge.exact import GR, GR_I, ExactConst, KRat
from coset_forge.errors import (DuplicateName, ExcludedLevel, InvalidOption,
                                ParseError, UndeclaredName, VanishingDenominator)

REFERENCE = Path(__file__).parent / "data" / "reference_catalog.json"


def test_shipped_file_counts():
    df = parse_definitions(shipped_text())
    assert len(df.currents) == 14
    assert len(df.relations) >= 12
    assert len(df.kernels) == 3
    assert len(df.commutators) == 1


def test_empty_relations_block_is_valid():
    df = parse_definitions("params { k = 3; hbar = 1; }\n")
    assert df.relations == []
    assert df.k == 3


def test_parse_error_carries_position_and_expected():
    text = "params { k = 2; hbar = 1; }\nkernel a { sign = +1; slope = sinh(\n"
    with pytest.raises(ParseError) as exc:
        parse_definitions(text)
    err = exc.value
    assert err.line == 2
    assert err.col > 0
    assert err.expected


def test_malformed_sinh_in_exponent():
    text = ("params { k = 2; hbar = 1; }\n"
            "kernel a { sign = +1; slope = 1; }\n"
            "current X on a { pos: 1 * hbar * sinh(; }\n")
    with pytest.raises(ParseError) as exc:
        parse_definitions(text)
    assert exc.value.line == 3
    assert exc.value.expected


def test_undeclared_and_duplicate_names():
    with pytest.raises(UndeclaredName):
        parse_definitions("params { k = 2; hbar = 1; }\n"
                          "current X on nokernel { pos: 1 * hbar; }\n")
    with pytest.raises(DuplicateName):
        parse_definitions("params { k = 2; hbar = 1; }\n"
                          "kernel a { sign = +1; slope = 1; }\n"
                          "kernel a { sign = -1; slope = 1; }\n")
    with pytest.raises(UndeclaredName):
        parse_definitions("params { k = 2; hbar = 1; }\n"
                          "kernel a { sign = +1; slope = 1; }\n"
                          "current X on a { pos: 1 * hbar; }\n"
                          "relation r : X(u) Y(v) == Y(v) X(u);\n")


# The reference catalog was frozen from an independent Python construction
# of the currents and relations, before that construction was retired in
# favour of paper.alg.  Per level: each current's terms (coefficient, hbar
# power, and per kernel family the canonical exponent form: lattice and the
# reduced Laurent rational of each hbar power on each branch), and each
# relation's kind, pairs, rotation and normalized target factor (right side
# over left side); the right pair is the reversed left pair.

def _mode_form(mf) -> dict:
    lat, pos, neg = mf.canonical()
    return {"lattice": lat,
            "pos": {str(p): repr(lr) for p, lr in pos.items()},
            "neg": {str(p): repr(lr) for p, lr in neg.items()}}


def reference_mismatches(k: str, cat, rels) -> list[str]:
    """The currents and relations of a bound catalog that differ from the
    frozen reference at level k, as "currents/NAME" or "relations/ID"."""
    frozen = json.loads(REFERENCE.read_text())[k]
    got = {
        "currents": {
            name: [{"coeff": str(t.coeff), "hbar_power": t.hbar_power,
                    "exponents": {fam: _mode_form(mf)
                                  for fam, mf in t.exponents.items()}}
                   for t in cur.terms]
            for name, cur in cat.currents.items()},
        "relations": {
            r.rel_id: {"kind": r.kind, "left_pair": list(r.pair),
                       "right_pair": list(r.pair[::-1]), "rotate": r.rotate,
                       "factor": r.target.normalize().describe()}
            for r in rels},
    }
    return sorted(f"{part}/{name}" for part in ("currents", "relations")
                  for name in frozen[part].keys() | got[part].keys()
                  if frozen[part].get(name) != got[part].get(name))


@pytest.mark.parametrize("k", ["1", "2", "3", "5/2"])
def test_bound_catalog_matches_reference(k):
    _, cat, rels, _, _ = parse_definitions(shipped_text()).bind(Fraction(k))
    assert len(cat.currents) == 14 and len(rels) == 25
    assert reference_mismatches(k, cat, rels) == []


def _mutate_current_coefficient(df):
    # C_plus's t>0 coefficient -1 -> -2; E is built on C_plus
    [cd] = [c for c in df.currents if c.name == "C_plus"]
    cd.pos[0].coeff = Fraction(-2)
    return ["currents/C_plus", "currents/E"]


def _mutate_composite_coefficient(df):
    # the 1/hbar prefactor of psi's first term -> 2/hbar; E is built on psi
    [cd] = [c for c in df.currents if c.name == "psi"]
    cd.composite[0].coeff = Fraction(2)
    return ["currents/E", "currents/psi"]


def _mutate_relation_constant(df):
    # E_E: (w + 1*hbar) -> (w + 2*hbar) on the left side
    [rd] = [r for r in df.relations if r.name == "E_E"]
    rd.left_factors[0].offset = Fraction(2)
    return ["relations/E_E"]


def _mutate_gamma_shift(df):
    # one Gamma shift constant of C_p_C_p: 1 + 1/k -> 1 + 2/k
    [rd] = [r for r in df.relations if r.name == "C_p_C_p"]
    rd.right_factors[0].shift = KRat.const(1) + KRat.const(2) / KRat.k()
    return ["relations/C_p_C_p"]


@pytest.mark.parametrize("mutate", [
    _mutate_current_coefficient, _mutate_composite_coefficient,
    _mutate_relation_constant, _mutate_gamma_shift])
def test_reference_comparison_catches_a_mutation(mutate):
    df = parse_definitions(shipped_text())
    expected = mutate(df)
    for k in ("2", "5/2"):
        _, cat, rels, _, _ = df.bind(Fraction(k))
        assert reference_mismatches(k, cat, rels) == expected, k


def test_shape_relations_bind_both_sides_to_one():
    # a shape relation states only that every term pair shares one factor;
    # neither side carries a declared factor
    _, _, rels, _, _ = parse_definitions(shipped_text()).bind(Fraction(5, 2))
    shapes = [r for r in rels if r.kind == "shape"]
    assert shapes
    for rel in shapes:
        assert rel.target.is_one(), rel.rel_id


def test_bind_overrides():
    # the shipped file, and one more kernel whose slope is quadratic in k
    df = parse_definitions(
        shipped_text() + "kernel q { sign = -1; slope = k*k - 3*k/2; }\n")
    params, cat, rels, comms, hbars = df.bind(
        k_override=Fraction(5, 2), hbar_override=[Fraction(1, 2)])
    assert params.k == Fraction(5, 2)
    assert hbars == [Fraction(1, 2)]
    assert cat.kernels["lhat"].slope_b == Fraction(9, 4)
    assert cat.kernels["q"].sign == -1
    assert cat.kernels["q"].slope_b == Fraction(25, 4) - Fraction(15, 4)


def test_bind_refuses_a_non_positive_hbar_override():
    # every override value is checked, the first and any later one, before
    # AlgebraParams sees the first
    df = parse_definitions(shipped_text())
    for hbars, bad in (([Fraction(0)], "0"), ([Fraction(1), Fraction(-1)], "-1"),
                       ([Fraction(-1, 2), Fraction(1)], "-1/2")):
        with pytest.raises(InvalidOption, match=f"^hbar override {bad} is not positive$"):
            df.bind(Fraction(2), hbars)


def test_hbar_list_parsed():
    df = parse_definitions(shipped_text())
    _, _, _, _, hbars = df.bind()
    assert hbars == [Fraction(1), Fraction(1, 2)]


# Diagnostics recorded from the character-by-character tokenizer and the
# original parser: a rewrite must reproduce every position and message.
_K = "params { k = 2; hbar = 1; }\n"
_KA = _K + "kernel a { sign = +1; slope = 1; }\n"
_KAX = _KA + "current X on a { pos: 1 * hbar; }\n"
_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("text, line, col, expected, found", [
    ("params {\tk = 2;\t$ hbar = 1; }\n",
     1, 17, ["token"], "$"),
    ("# note\nparams { k = 2; } # trailing\n\t ? \n",
     3, 3, ["token"], "?"),
    ("params { k = 2; hbar = 1;\n",
     2, 1, ["'hbar'", "'k'", "'}'"], "end of input"),
    (_K + "kernel a { sign = +1; slope = 1e; }\n",
     2, 32, ["';'"], "e"),
    # numbers are integers: a "." is a character outside the grammar, and
    # an exponent is a name after the number
    ("params { k = 2.; hbar = 1; }\n",
     1, 15, ["token"], "."),
    ("params { k = 2.5; hbar = 1; }\n",
     1, 15, ["token"], "."),
    ("params { k = 1e5; hbar = 1; }\n",
     1, 15, ["';'"], "e5"),
    ("params { k == 2; hbar = 1; }\n",
     1, 12, ["'='"], "=="),
    (_K + "kernel a { sign = +1; slope = k/2;",
     2, 35, ["'}'"], "end of input"),
    ("params { k = 2 # unclosed",
     1, 16, ["';'"], "end of input"),
    (_K + "kernel x { sign = +1; slope = 1; }\n",
     2, 8, ["identifier"], "x"),
    (_KA + "current X on a { pos: 1 * hbar * sinh(; }\n",
     3, 39, ["'('", "'-'", "'k'", "number"], ";"),
    (_KAX + "current Y = X / X;\n",
     4, 18, ["scalar divisor"], ";"),
    # a relation's one option is its rotation: the tolerance is fixed, and
    # the option is given once
    (_KAX + "relation r : X(u) X(v) == X(v) X(u) with tol = 1e300;\n",
     4, 42, ["'rotate'"], "tol"),
    (_KAX + "relation r : X(u) X(v) == X(v) X(u) with rotate = global, "
     "rotate = none;\n",
     4, 57, ["';'"], ","),
    ("params {\r\n k = 2;\r\n\t@ }\r\n",
     3, 2, ["'hbar'", "'k'", "'}'"], "@"),
    (_K + "kernel a { sign = +2; slope = 1; }\n",
     2, 21, ["'1'"], ";"),
    # a divisor that is zero whatever k is: refused at its first token
    ("params { k = 2; hbar = 1, 1/0; }\n",
     1, 29, ["nonzero divisor"], "0"),
    (_K + "kernel a { sign = +1; slope = 1/(k-k); }\n",
     2, 33, ["nonzero divisor"], "("),
    (_KA + "current X on a { pos: 1 / (3-3) * hbar; }\n",
     3, 27, ["nonzero divisor"], "("),
    (_KA + "current X on a { pos: 1 * hbar * exp(1/0*h*t); }\n",
     3, 40, ["nonzero divisor"], "0"),
    (_KAX + "current Y = X / 0;\n",
     4, 17, ["nonzero divisor"], "0"),
    # so is a relation's scalar factor, on either side
    (_KAX + "relation r : 0 * X(u) X(v) == X(v) X(u);\n",
     4, 14, ["nonzero scalar"], "0"),
    (_KAX + "relation r : X(u) X(v) == (2*k - k - k) * X(v) X(u);\n",
     4, 27, ["nonzero scalar"], "("),
    # and so is a Gamma scale: Gamma(iw/(0*hbar) + 1) has no meaning
    (_KAX + "relation r : Gamma(x@0 + 1) * X(u) X(v) == X(v) X(u);\n",
     4, 22, ["nonzero scale"], "0"),
    (_KAX + "relation r : X(u) X(v) == Gamma(-x@(k-k) + 1) * X(v) X(u);\n",
     4, 36, ["nonzero scale"], "("),
    # an hbar or a kernel slope that is not positive whatever k is, and a
    # sinh slope that is zero whatever k is
    ("params { k = 2; hbar = 1, 0; }\n",
     1, 27, ["positive hbar"], "0"),
    (_K + "kernel a { sign = +1; slope = 1 - 3/2; }\n",
     2, 31, ["positive slope"], "1"),
    (_KA + "current X on a { pos: 1 * hbar * sinh((k-k)*h*t); }\n",
     3, 39, ["nonzero slope"], "("),
    # also when the constant is written with k
    (_K + "kernel a { sign = +1; slope = -k/k; }\n",
     2, 31, ["positive slope"], "-"),
    (_K + "kernel a { sign = +1; slope = 2*k/k - 3; }\n",
     2, 31, ["positive slope"], "2"),
    ("params { k = 2; hbar = -k/k; }\n",
     1, 24, ["positive hbar"], "-"),
    # positions are counted only on the error path, over the whole text
    ("# one\n# two\n\nparams { k = ; }\n",
     4, 14, ["'('", "'-'", "'k'", "number"], ";"),
    ("params {\r\n  k = 2\r\n  hbar = 1;\r\n}\r\n",
     3, 3, ["';'"], "hbar"),
    ("params {\n\tk = 2;\n\thbar 1;\n}\n",
     3, 7, ["'='"], "1"),
    ("params { k = 2;\n  hbar = 1; # no closing brace",
     2, 13, ["'hbar'", "'k'", "'}'"], "end of input"),
    ("params { k = 2;\n  hbar = 1;\n# no closing brace",
     3, 1, ["'hbar'", "'k'", "'}'"], "end of input"),
    # a character outside the grammar wins over an earlier syntax error
    ("params { k = ; }\nkernel a { sign = +1; slope = 1 $ }\n",
     2, 33, ["token"], "$"),
    # like k and hbar, a constant kernel or sinh slope must be nonzero and
    # finite as a float
    (_K + f"kernel a {{ sign = +1; slope = {_HUGE}; }}\n", 2, 31,
     ["slope nonzero and finite as a float"], _HUGE),
    (_K + f"kernel a {{ sign = +1; slope = 1/{_HUGE}; }}\n", 2, 31,
     ["slope nonzero and finite as a float"], "1"),
    (_KA + f"current X on a {{ pos: 1 * hbar * sinh({_HUGE}*h*t); }}\n", 3, 39,
     ["slope nonzero and finite as a float"], _HUGE),
    (_KA + f"current X on a {{ pos: 1 * hbar * sinh((1/{_HUGE})*h*t); }}\n", 3, 39,
     ["slope nonzero and finite as a float"], "("),
    # a declared residue names its scalar: there is no default
    (_KAX + "commutator_delta X X { poles: 0; residues: X @ (0); }\n",
     4, 51, ["'*'"], ";"),
])
def test_parse_error_diagnostics_are_pinned(text, line, col, expected, found):
    with pytest.raises(ParseError) as exc:
        parse_definitions(text)
    err = exc.value
    assert (err.line, err.col, sorted(err.expected), err.found) == \
        (line, col, expected, found)


@pytest.mark.parametrize("old, new, line, col, expected, found", [
    # a rotation-sector declaration where the file had one
    ("}\n\nkernel chat", "}\n\nrotate_sector chat;\n\nkernel chat", 14, 1,
     ["'commutator_delta'", "'current'", "'kernel'", "'params'", "'relation'"],
     "rotate_sector"),
    # a relation rotated in the c-sector mode
    ("H_plus(v) H_plus(u) with rotate = global;",
     "H_plus(v) H_plus(u) with rotate = c_sector;", 116, 77,
     ["'global'", "'none'"], "c_sector"),
])
def test_the_c_sector_rotation_syntax_is_a_parse_error(old, new, line, col,
                                                       expected, found):
    text = shipped_text()
    assert text.count(old) == 1
    with pytest.raises(ParseError) as exc:
        parse_definitions(text.replace(old, new))
    err = exc.value
    assert (err.line, err.col, sorted(err.expected), err.found) == \
        (line, col, expected, found)


@pytest.mark.parametrize("value", ["k + 1", "3*k", "1/k", "(k - k) + 2"])
def test_declared_level_that_involves_k_is_refused(value):
    # the level is what k stands for, so it cannot be defined by k
    with pytest.raises(ParseError) as exc:
        parse_definitions(f"params {{ k = {value}; hbar = 1; }}\n")
    err = exc.value
    assert (err.line, err.col, err.expected, err.found) == \
        (1, 14, {"constant level"}, value[0])


@pytest.mark.parametrize("text, col, expected, found", [
    (f"params {{ k = {_HUGE}; }}\n", 14, "level", _HUGE),
    (f"params {{ k = 1/{_HUGE}; }}\n", 14, "level", "1"),
    (f"params {{ hbar = {_HUGE}; }}\n", 17, "hbar", _HUGE),
    (f"params {{ hbar = 1, 1/{_HUGE}; }}\n", 20, "hbar", "1"),
])
def test_a_constant_level_or_hbar_outside_float_range_is_refused(text, col,
                                                                 expected, found):
    # the rule of --k and --hbar: a rational whose float is nonzero and finite
    with pytest.raises(ParseError) as exc:
        parse_definitions(text)
    err = exc.value
    assert (err.line, err.col, err.expected, err.found) == \
        (1, col, {f"{expected} nonzero and finite as a float"}, found)


@pytest.mark.parametrize("hbar, k", [(f"k*{_HUGE}", None), (f"k/{_HUGE}", None),
                                     ("k*k*k", Fraction(10 ** 120))])
def test_an_hbar_with_k_outside_float_range_excludes_the_level(hbar, k):
    df = parse_definitions(f"params {{ k = 2; hbar = 1, {hbar}; }}\n")
    with pytest.raises(ExcludedLevel, match=r"^params: hbar \(.*\) is not nonzero "
                                            r"and finite as a float at k=\d+$"):
        df.bind(k)
    # an hbar override replaces the file's values, so none is bound
    df.bind(k, [Fraction(1)])


@pytest.mark.parametrize("scalar, value, hbar_power", [
    ("1", Fraction(1), 0),
    ("(-1) / hbar", Fraction(-1), -1),
    ("k/4 * hbar^2", Fraction(3, 4), 2),
    ("-2 / hbar^-1", Fraction(-2), 1),
])
def test_a_declared_residue_binds_its_scalar_and_hbar_power(scalar, value, hbar_power):
    df = parse_definitions(_KAX + "commutator_delta X X { poles: 0; "
                                  f"residues: X @ (k/2) * {scalar}; }}\n")
    _, _, _, [comm], _ = df.bind(Fraction(3))
    assert comm["residues"] == [("X", Fraction(3, 2), value, hbar_power)]


@pytest.mark.parametrize("text, what", [
    ("params { k = 2; k = 3; }\n", "k"),
    ("params { k = 2; }\nparams { k = 3; }\n", "k"),
    ("params { hbar = 1; hbar = 1/2; }\n", "hbar"),
    ("params { hbar = 1; }\nparams { k = 2; hbar = 1; }\n", "hbar"),
])
def test_params_are_declared_once(text, what):
    with pytest.raises(DuplicateName, match=f"^{what} declared twice$"):
        parse_definitions(text)


@pytest.mark.parametrize("text, message", [
    # kernels and currents share one namespace; the second declaration's
    # kind is named
    (_KA + "current a on a { pos: 1 * hbar; }\n", "current 'a' declared twice"),
    (_KAX + "kernel X { sign = +1; slope = 1; }\n", "kernel 'X' declared twice"),
    (_KAX + "current X = X@(1);\n", "current 'X' declared twice"),
    (_KAX + "relation r : shape X(u) X(v);\nrelation r : shape X(u) X(v);\n",
     "relation 'r' declared twice"),
])
def test_a_name_is_declared_once_in_its_namespace(text, message):
    with pytest.raises(DuplicateName, match=f"^{message}$"):
        parse_definitions(text)


def test_a_relation_may_share_a_current_name():
    # relations keep a namespace of their own
    df = parse_definitions(_KAX + "relation X : shape X(u) X(v);\n"
                           "relation a : shape X(u) X(v);\n")
    assert [r.name for r in df.relations] == ["X", "a"]
    assert [c.name for c in df.currents] == ["X"]


def test_each_distinct_k_expression_is_bound_once(monkeypatch):
    # the shipped file repeats k/4, (k+2)/4, 1 + 1/k and others many times
    df = parse_definitions(shipped_text())
    bound = []
    bind = KRat.bind
    monkeypatch.setattr(KRat, "bind",
                        lambda self, k: bound.append(repr(self)) or bind(self, k))
    df.bind(Fraction(5, 12))
    assert len(bound) == len(set(bound)) > 20


def test_denominator_vanishing_at_the_bound_level():
    df = parse_definitions(_K + "kernel a { sign = +1; slope = 1/(k-2); }\n")
    with pytest.raises(VanishingDenominator, match="at k=2"):
        df.bind()
    params, cat, _, _, _ = df.bind(Fraction(3))
    assert cat.kernels["a"].slope_b == 1


def test_gamma_scale_vanishing_at_the_bound_level():
    df = parse_definitions(
        _KAX + "relation r : Gamma(x@(k-2) + 1) * X(u) X(v) == X(v) X(u);\n")
    with pytest.raises(ExcludedLevel,
                       match=r"relation 'r': Gamma scale \(-2 \+ 1\*k\) "
                             r"vanishes at k=2"):
        df.bind()
    params, cat, rels, _, _ = df.bind(Fraction(3))
    # the left side's Gamma(x + 1) is divided out of the target
    assert rels[0].target.gammas == {(1, 0, 1, 1, 1): -1}


@pytest.mark.parametrize("left, right, named", [
    ("(k - 2)", "(2*k - 4)", r"scalar factor \(-2 \+ 1\*k\)"),
    ("Gamma(x@(k-2) + 1)", "(2*k - 4)", r"Gamma scale \(-2 \+ 1\*k\)"),
    ("(k - 2)", "Gamma(x@(2*k-4) + 1)", r"scalar factor \(-2 \+ 1\*k\)"),
])
def test_the_left_side_is_bound_first(left, right, named):
    # both sides vanish at k = 2; the relation binds in one pass over the
    # left side and then the right, so the left side's factor is named
    df = parse_definitions(
        _KAX + f"relation r : {left} * X(u) X(v) == {right} * X(v) X(u);\n")
    with pytest.raises(ExcludedLevel, match=f"^relation 'r': {named} vanishes at k=2$"):
        df.bind()


def test_a_repeated_commutator_delta_is_refused():
    text = shipped_text()
    block = text[text.index("commutator_delta E F"):]
    assert block.endswith("}\n") and block.count("commutator_delta") == 1
    with pytest.raises(DuplicateName, match="^commutator_delta E F declared twice$"):
        parse_definitions(text + block)
    # the reversed pair is another declaration
    df = parse_definitions(text + block.replace("commutator_delta E F",
                                                "commutator_delta F E"))
    assert [(c.name_a, c.name_b) for c in df.commutators] == [("E", "F"), ("F", "E")]


def test_parsing_the_shipped_file_hashes_no_fraction(monkeypatch):
    # constants fold under the identity of their operands and KRats intern
    # by integer coefficients, so no Fraction is hashed
    text = shipped_text()
    calls = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    assert {Fraction(1, 3): 0} and len(calls) == 1
    calls.clear()
    parse_definitions(text)
    assert calls == []


def _diagnosed(text, at):
    """(found, line, col) of the ParseError raised at token `at` of `text`."""
    parser = dsl._Parser(text)
    with pytest.raises(ParseError) as exc:
        parser.error(set(), at)
    return exc.value.found, exc.value.line, exc.value.col


def test_token_stream_is_pinned():
    # an exponent is not part of a number: 3E2 is 3 and the name E2
    text = ("params {\tk = 2; # c\n  hbar = 15, 2, 3E2;\n}\r\n"
            "relation r_1 : (w + 1*hbar) * A(u) B(v)==B(v) A(u) "
            "with rotate = global; # end")
    pinned = [
        ("params", 1, 1), ("{", 1, 8), ("k", 1, 10), ("=", 1, 12),
        ("2", 1, 14), (";", 1, 15),
        ("hbar", 2, 3), ("=", 2, 8), ("15", 2, 10), (",", 2, 12),
        ("2", 2, 14), (",", 2, 15), ("3", 2, 17), ("E2", 2, 18), (";", 2, 20),
        ("}", 3, 1),
        ("relation", 4, 1), ("r_1", 4, 10), (":", 4, 14), ("(", 4, 16),
        ("w", 4, 17), ("+", 4, 19), ("1", 4, 21), ("*", 4, 22),
        ("hbar", 4, 23), (")", 4, 27), ("*", 4, 29), ("A", 4, 31),
        ("(", 4, 32), ("u", 4, 33), (")", 4, 34), ("B", 4, 36),
        ("(", 4, 37), ("v", 4, 38), (")", 4, 39), ("==", 4, 40),
        ("B", 4, 42), ("(", 4, 43), ("v", 4, 44), (")", 4, 45),
        ("A", 4, 47), ("(", 4, 48), ("u", 4, 49), (")", 4, 50),
        ("with", 4, 52), ("rotate", 4, 57), ("=", 4, 64), ("global", 4, 66),
        (";", 4, 72), ("end of input", 4, 74)]
    words = dsl._words(text)
    assert words == [w for w, _, _ in pinned[:-1]] + [""]
    assert [_diagnosed(text, at) for at in range(len(words))] == pinned


def test_end_of_input_stops_short_of_a_trailing_comment():
    with pytest.raises(ParseError) as exc:
        parse_definitions("params { k = 2; # end")
    assert (exc.value.line, exc.value.col, exc.value.found) == \
        (1, 17, "end of input")
    assert "at 1:17" in str(exc.value)


@pytest.mark.parametrize("text, col, char", [
    ("params { k = 2\u00b2; }", 15, "\u00b2"),
    ("params { k = \u0663; }", 14, "\u0663"),
    ("params { k = 2; }\nkernel \u00e9 { sign = +1; slope = 1; }", 8, "\u00e9"),
    ("params { k = 2; }\nkernel a\u00e9 { sign = +1; slope = 1; }", 9, "\u00e9"),
])
def test_grammar_is_ascii(text, col, char):
    with pytest.raises(ParseError) as exc:
        parse_definitions(text)
    assert (exc.value.col, exc.value.found, exc.value.expected) == \
        (col, char, {"token"})


# text from the token alphabet: every diagnostic points at the text it
# reports, or at the end of input
_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
_pieces = st.one_of(
    _names, st.sampled_from(sorted(dsl._KEYWORDS)),
    st.from_regex(r"[0-9]{1,3}", fullmatch=True),
    st.sampled_from(["2.", "1e-3", "3E2", "0.5e+2"]),
    _names.map(lambda name: "1e" + name),
    st.sampled_from(sorted(dsl._PUNCT)),
    st.from_regex(r"#[^\n]{0,6}", fullmatch=True),
    st.sampled_from([" ", "\t", "\r", "\n", "\r\n", "\u00b2", "\u00e9"]))


def _points_at(text, line, col, found):
    """Whether a diagnostic's line and column point at its found text, or
    at the end of input: on the last line, where only blanks or one comment
    follow."""
    lines = text.split("\n")
    assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1
    rest = "\n".join(lines[line - 1:])[col - 1:]
    if found != "end of input":
        return rest.startswith(found)
    return line == len(lines) and rest.lstrip(" \t\r")[:1] in ("", "#")


@settings(max_examples=300, deadline=None)
@given(st.lists(_pieces, max_size=24).map("".join))
def test_parse_errors_point_at_their_found_text(text):
    try:
        parse_definitions(text)
    except ParseError as exc:
        assert _points_at(text, exc.line, exc.col, exc.found), str(exc)
    except (DuplicateName, UndeclaredName):
        pass
    try:
        words = dsl._words(text)
    except ParseError:
        return      # a character outside the grammar, checked above
    for at in range(len(words)):
        found, line, col = _diagnosed(text, at)
        assert found == (words[at] or "end of input")
        assert _points_at(text, line, col, found), (at, found)


# k-expressions as (text, value at k); every binary operation is
# parenthesised, so each text is one factor and means what the tree says
_kleaf = (st.integers(0, 9).map(lambda n: (str(n), lambda k: Fraction(n)))
          | st.just(("k", lambda k: k)))


def _kbinary(a, op, b):
    fns = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
           "*": lambda x, y: x * y, "/": lambda x, y: x / y}
    return (f"({a[0]} {op} {b[0]})",
            lambda k: fns[op](a[1](k), b[1](k)))


_kexprs = st.recursive(
    _kleaf,
    lambda inner: (st.builds(_kbinary, inner, st.sampled_from("+-*/"), inner)
                   | inner.map(lambda a: ("-" + a[0], lambda k: -a[1](k)))),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_kexprs, st.sampled_from([Fraction(1), Fraction(2), Fraction(5, 2),
                                 Fraction(3, 7), Fraction(1, 10)]))
def test_k_expressions_bind_to_their_value(expr, k):
    # constants fold as Fractions and k-dependent parts as KRat; either way
    # the bound value is the exact value of the expression at k
    text, value = expr
    try:
        expected = value(k)
    except ZeroDivisionError:
        assume(False)
    df = parse_definitions(_KAX + f"commutator_delta X X {{ poles: {text}; "
                                  "residues: X @ (0) * 1; }\n")
    _, _, _, [comm], _ = df.bind(k, [Fraction(1)])
    assert comm["poles"] == [expected]


def _factor_product(factors, k):
    """A relation side as the chain of StructureFunction products it
    stands for, one factor at a time."""
    def at(x):
        return x.bind(k) if isinstance(x, KRat) else x

    out = StructureFunction.one()
    for f in factors:
        if f.kind == "scalar":
            sf = StructureFunction(const=ExactConst.one().times_base(
                GR(at(f.scalar)), 0, 1))
        elif f.kind == "gamma":
            sf = StructureFunction.from_gamma(
                GR(at(f.scale) * f.scale_sign), at(f.shift),
                f.exponent)
        else:
            off = GR(at(f.offset))
            if f.kind == "iw":
                sf = StructureFunction.from_linear(off, f.exponent)
            else:
                # (w + a*hbar) = (iw + i*a*hbar) * -i
                one = (StructureFunction.from_linear(GR_I * off, 1)
                       * StructureFunction(const=ExactConst.one().times_base(
                           GR(0, -1), 0, 1)))
                sf = StructureFunction.one()
                for _ in range(abs(f.exponent)):
                    sf = sf * (one if f.exponent > 0 else one.inverse())
        out = out * sf
    return out


@pytest.mark.parametrize("k", [Fraction(2), Fraction(5, 2), Fraction(2, 9)])
def test_bound_sides_equal_the_factor_products(k):
    # same factor multisets, same exact constant: every value and residual
    # is that of the product chain.  A relation binds both sides in one
    # pass; each side alone is bound as the right side of an empty left
    text = shipped_text() + (
        "relation extra : 3 * (w + 2*hbar)^-2 * (iw - k*hbar)^3"
        " * Gamma(x@2 + 1)^2 * Gamma(-x@k + 1/2) * Gamma(x@2 + 1)^-2"
        " * (w)^0 * (w - 1/2*hbar)^3 * E(u) F(v)"
        " == (2/3) * (w - 1*hbar)^3 * (iw)^-1 * F(v) E(u);\n")
    df = parse_definitions(text)
    _, _, rels, _, _ = df.bind(k, [Fraction(1)])
    assert len(rels) == len(df.relations)
    at = dsl._binder(k)

    def bound(rd, factors):
        one_side = dsl.RelationDecl(rd.name, rd.kind, rd.pair, [], factors)
        return dsl._bind_relation(one_side, at, k).target

    for rd, rel in zip(df.relations, rels):
        left, right = (_factor_product(f, k)
                       for f in (rd.left_factors, rd.right_factors))
        for got, want in ((bound(rd, rd.left_factors), left),
                          (bound(rd, rd.right_factors), right),
                          (rel.target, right * left.inverse())):
            assert got.gammas == want.gammas
            assert got.linears == want.linears
            assert got.const == want.const
