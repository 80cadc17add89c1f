"""CLI behavior: exit codes, failure naming, deterministic reports."""

import argparse
import importlib.resources
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import tilt_twins
from paper_edits import seeded_edit
from coset_forge import algebra, cli, contraction
from coset_forge.dsl import parse_definitions
from coset_forge.exact import LaurentRational
from coset_forge.modes import ExpTrigTerm


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "coset_forge.cli", *args],
        capture_output=True, text=True, cwd=cwd)


def shipped_text() -> str:
    res = importlib.resources.files("coset_forge") / "data" / "paper.alg"
    return res.read_text()


def test_verify_all_shipped_exits_zero():
    out = run_cli("verify")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "all relations hold" in out.stdout
    assert "FAIL" not in out.stdout


def test_verify_perturbed_shift_exits_one_and_names_relation(tmp_path):
    text = shipped_text().replace(
        "Gamma(x@k + 1 + 1/k) * Gamma(x@k + 1 - 1/k)^-1\n"
        "     * Gamma(-x@k + 1 - 1/k) * Gamma(-x@k + 1 + 1/k)^-1\n"
        "     * C_plus(v) C_plus(u)",
        "Gamma(x@k + 1 + 2/k) * Gamma(x@k + 1 - 1/k)^-1\n"
        "     * Gamma(-x@k + 1 - 1/k) * Gamma(-x@k + 1 + 1/k)^-1\n"
        "     * C_plus(v) C_plus(u)")
    assert "2/k" in text
    bad = tmp_path / "perturbed.alg"
    bad.write_text(text)
    out = run_cli("verify", str(bad))
    assert out.returncode == 1
    assert "FAIL C_p_C_p" in out.stdout


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "broken.alg"
    bad.write_text("params { k = 2; hbar = 1; }\nkernel x { sign = ; }\n")
    out = run_cli("verify", str(bad))
    assert out.returncode == 2
    assert "parse error" in out.stderr


def test_report_prints_its_error_object_on_stdout(tmp_path, capsys):
    # report writes to stdout unless --json names a file, its error object
    # too: with and without --json - the same bytes
    bad = tmp_path / "broken.alg"
    bad.write_text("params { k = 2; hbar = 1;\n")
    outs = []
    for argv in (["report", str(bad)], ["report", str(bad), "--json", "-"]):
        assert cli.run(argv) == 2
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    error = json.loads(outs[0].out)["error"]
    assert error["kind"] == "parse" and error["message"].startswith("parse error at 2:1:")
    assert outs[0].err == f"error: {error['message']}\n"


@pytest.mark.parametrize("literal, col, char", [
    ("2\u00b2", 15, "\u00b2"),   # superscript two: str.isdigit() holds
    ("\u0663", 14, "\u0663"),    # Arabic-Indic three: int() reads it as 3
])
def test_non_ascii_digit_is_a_parse_error(tmp_path, literal, col, char):
    bad = tmp_path / "digit.alg"
    bad.write_text(f"params {{ k = {literal}; hbar = 1; }}\n", encoding="utf-8")
    dest = tmp_path / "err.json"
    out = run_cli("verify", str(bad), "--json", str(dest))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: parse error at 1:{col}: expected token, found {char!r}\n"
    assert json.loads(dest.read_text())["error"]["kind"] == "parse"


def test_json_error_object(tmp_path):
    bad = tmp_path / "broken.alg"
    bad.write_text("params { k = 2; hbar = 1;\n")
    dest = tmp_path / "err.json"
    out = run_cli("verify", str(bad), "--json", str(dest))
    assert out.returncode == 2
    payload = json.loads(dest.read_text())
    assert payload["error"]["kind"] == "parse"
    assert payload["schema_version"] == "5"


@pytest.mark.parametrize("value", ["k + 1", "3*k", "1/k"])
def test_declared_level_that_involves_k_exits_two(tmp_path, capsys, value):
    # k = k + 1 was once bound at 0 + 1, and verify passed at k = 1
    text = shipped_text()
    assert "  k = 2;\n" in text
    src = tmp_path / "level.alg"
    src.write_text(text.replace("  k = 2;\n", f"  k = {value};\n", 1))
    assert cli.run(["verify", str(src), "--json", "-"]) == 2
    out, err = capsys.readouterr()
    message = f"parse error at 10:7: expected constant level, found {value[0]!r}"
    assert json.loads(out)["error"] == {"kind": "parse", "message": message}
    assert err == f"error: {message}\n"


def test_report_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    out1 = run_cli("report", "--json", str(a))
    out2 = run_cli("report", "--json", str(b))
    assert out1.returncode == 0 and out2.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    # the format contract: sorted keys, one-space indent, ASCII escapes and
    # a trailing newline, i.e. the stdlib's canonical form of the same data
    text = a.read_text(encoding="ascii")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"


def test_report_schema_and_roundtrip(tmp_path):
    dest = tmp_path / "report.json"
    out = run_cli("report", "--json", str(dest))
    assert out.returncode == 0
    payload = json.loads(dest.read_text())
    assert set(payload) == {"schema_version", "params", "relations", "pass"}
    assert payload["pass"] is True
    assert payload["schema_version"] == "5"
    ids = [r["id"] for r in payload["relations"]]
    assert "E_E" in ids and "[E,F]" in ids
    numeric = {"max_rel_err", "residuals", "grid"}
    for rel in payload["relations"]:
        assert isinstance(rel["pass"], bool)
        if rel["kind"] in ("exchange", "shape"):
            # the symbolic route: an exact verdict, no numeric fields
            assert not numeric & set(rel), rel["id"]
        else:
            assert isinstance(rel["max_rel_err"], str)  # 17-digit decimal string
            assert rel["residuals"] == rel["grid"] == []
    # re-serialize: stable
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_catalog_subcommand():
    out = run_cli("catalog")
    assert out.returncode == 0
    assert "current psi: 2 term(s)" in out.stdout
    assert "level k = 2" in out.stdout


def test_contract_subcommand_quadrature_vs_closed():
    out = run_cli("contract", "Lambda_plus", "Lambda_minus", "--at", "0,-5")
    assert out.returncode == 0
    assert "quadrature" in out.stdout and "closed form" in out.stdout


def test_k_override_flag():
    out = run_cli("verify", "--k", "5/2")
    assert out.returncode == 0, out.stdout


def test_limit_subcommand():
    out = run_cli("limit")
    assert out.returncode == 0
    assert "limit[psi,psi" in out.stdout


def test_limit_reports_the_exact_exponent_not_a_fitted_order(tmp_path):
    dest = tmp_path / "limit.json"
    assert cli.run(["limit", "--k", "3", "--json", str(dest)]) == 0
    fits = {r["id"]: r["limit_fit"]
            for r in json.loads(dest.read_text())["relations"]}
    fit = fits["limit[psi,psi;ab=1]"]
    assert (fit["exponent"], fit["braid_exponent"]) == ("2/3", "2/3")
    assert fit["order"] is None and fit["n_max"] == "12"
    assert fits["limit[psi,psi_dag;ab=-1]"]["exponent"] == "-2/3"
    out = run_cli("limit", "--k", "3")
    assert out.returncode == 0
    assert ("PASS limit[psi,psi;ab=1] kind=classical-limit" in out.stdout)
    assert "exponent=2/3 (braid 2/3 mod 2); no power-law term up to n = 12" \
        in out.stdout
    assert "order=" not in out.stdout


@pytest.mark.parametrize("hbars", ["1/2", "1/10,1/100", "1/10,1/100,1/100",
                                   "1/1000,1/100,1/10"])
def test_limit_hbar_must_be_a_decreasing_sequence(capsys, hbars):
    # limit reads --hbar as the hbar -> 0 sequence, where every other
    # subcommand reads deformation values; the error says so and names the flag
    assert cli.run(["limit", "--k", "2", "--hbar", hbars, "--json", "-"]) == 2
    out, err = capsys.readouterr()
    message = ("--hbar is the hbar -> 0 sequence for limit: at least 3 "
               f"strictly decreasing values, got {hbars!r}")
    assert json.loads(out)["error"] == {"kind": "InvalidOption",
                                        "message": message}
    assert err == f"error: {message}\n"


def test_limit_runs_along_the_hbar_sequence(tmp_path):
    dest = tmp_path / "limit.json"
    argv = ["limit", "--k", "2", "--hbar", "1/10,1/100,1/1000", "--json", str(dest)]
    assert cli.run(argv) == 0
    report = json.loads(dest.read_text())
    assert report["params"]["hbar"] == ["1/10", "1/100", "1/1000"]
    assert all(len(r["limit_fit"]["errors"]) == 3 for r in report["relations"])


def test_poles_subcommand():
    out = run_cli("poles")
    assert out.returncode == 0
    assert "residue at" in out.stdout
    assert "pole at w = (1+0j), term pairs [(1, 1)]" in out.stdout
    assert "numeric" not in out.stdout


# false E-F claims: each breaks the agreement of the two orderings of one
# E-F term pair, so the exact analysis refutes the commutator claim
EF_MUTANTS = {
    "E_with_C_minus": ("current E = psi * C_plus;", "current E = psi * C_minus;",
                       "term pair (0,0)"),
    "lhat_slope": ("kernel lhat { sign = +1; slope = (k+2)/2; }",
                   "kernel lhat { sign = +1; slope = (k+4)/2; }",
                   "term pair (0,1)"),
    "psi_dressing": ("current psi = (1/hbar) * ( beta_plus@((k+2)/4)",
                     "current psi = (1/hbar) * ( beta_plus@((k+6)/4)",
                     "term pair (0,0)"),
}


@pytest.mark.parametrize("k", ["2", "5/12"])
@pytest.mark.parametrize("mutant", sorted(EF_MUTANTS))
def test_refuted_ef_claim_is_a_fail_row(tmp_path, capsys, mutant, k):
    old, new, pair = EF_MUTANTS[mutant]
    text = shipped_text()
    assert text.count(old) == 1
    bad = tmp_path / "mutant.alg"
    bad.write_text(text.replace(old, new))
    dest = tmp_path / "verify.json"
    assert cli.run(["verify", str(bad), "--k", k, "--json", str(dest)]) == 1
    rows = {r["id"]: r for r in json.loads(dest.read_text())["relations"]}
    assert len(rows) == 26
    ef = rows["[E,F]"]
    assert ef["pass"] is False and ef["symbolic_pass"] is None
    assert ef["max_rel_err"] == "nan" and ef["poles"] == []
    [note] = ef["notes"]
    assert note.startswith(pair)
    assert cli.run(["poles", str(bad), "--k", k]) == 1
    out = capsys.readouterr().out
    assert "FAIL [E,F] kind=commutator-delta max_rel_err=nan" in out
    assert f"note: {note}" in out


def _json_run(capsys, *argv):
    """The exit code of cli.run(argv) with --json -, and the report it
    writes to stdout."""
    code = cli.run([*argv, "--json", "-"])
    return code, json.loads(capsys.readouterr().out)


def _edited(tmp_path, lineno, old, new) -> str:
    """The path of the shipped file with `old` on line `lineno` (its one
    occurrence there) replaced by `new`."""
    lines = shipped_text().splitlines(keepends=True)
    assert lines[lineno - 1].count(old) == 1
    lines[lineno - 1] = lines[lineno - 1].replace(old, new)
    path = tmp_path / "edited.alg"
    path.write_text("".join(lines))
    return str(path)


# false E-F claims the analysis reports inside its row, with max_rel_err 0:
# (old text, new text, {k: the note that fails the row})
EF_ROW_FAILURES = {
    "pole_moved": ("poles: -(k/2), k/2;", "poles: -(k/2), k/2 + 1;", {
        "5/12": "pole sets differ: derived ['(-0.20833333333333334+0j)', "
                "'(0.20833333333333334+0j)'], expected "
                "['(-0.20833333333333334+0j)', '(1.2083333333333333+0j)']",
        "3": "pole sets differ: derived ['(-1.5+0j)', '(1.5+0j)'], "
             "expected ['(-1.5+0j)', '(2.5+0j)']"}),
    "residue_shifted": ("H_plus @ (k/4)", "H_plus @ (k/4 + 1)", {
        "5/12": "residue at w=-0.20833333333333334*hbar does not match any "
                "declared target",
        "3": "residue at w=-1.5*hbar does not match any declared target"}),
    "scalar_doubled": ("current psi = (1/hbar) * ( beta_plus@",
                       "current psi = (1/hbar) * ( 2 * beta_plus@", {
        "5/12": "residue scalars do not form the +/- pattern",
        "3": "residue scalars do not form the +/- pattern"}),
}


@pytest.mark.parametrize("k", ["5/12", "3"])
@pytest.mark.parametrize("mutant", sorted(EF_ROW_FAILURES))
def test_a_false_ef_claim_fails_its_row_with_its_note(tmp_path, capsys, mutant, k):
    old, new, notes = EF_ROW_FAILURES[mutant]
    text = shipped_text()
    assert text.count(old) == 1
    bad = tmp_path / "mutant.alg"
    bad.write_text(text.replace(old, new))
    code, payload = _json_run(capsys, "poles", str(bad), "--k", k)
    [row] = payload["relations"]
    assert code == 1 and row["id"] == "[E,F]"
    assert row["pass"] is False and row["max_rel_err"] == "0"
    assert notes[k] in row["notes"]


# edits of the shipped file whose checks refuse a claim by raising one of
# cli.REFUSALS: (line, old text there, new text), the command, the number
# of rows it writes, and the refused row's id and its one note
C_PLUS_DOUBLED = (20, "pos: -1 * hbar", "pos: -2 * hbar")
REFUSED_EDITS = {
    "relation": (C_PLUS_DOUBLED, ["verify"], 26, "C_p_C_m",
                 "family chat: 1/t coefficients 48/5 vs 24/5"),
    "one_relation": (C_PLUS_DOUBLED, ["verify", "--relation", "C_p_C_m"], 1,
                     "C_p_C_m", "family chat: 1/t coefficients 48/5 vs 24/5"),
    "commutator": ((14, "slope = k/2", "slope = k/3"), ["poles"], 1, "[E,F]",
                   "denominator has repeated roots (cyclotomic factor of order "
                   "15, multiplicity 2); families do not reduce to Gamma factors"),
    "limit": ((30, "pos: -1 * hbar", "pos: -2 * hbar"), ["limit"], 3,
              "limit[psi,psi_dag;ab=-1]",
              "family bhat: 1/t coefficients -48/5 vs -24/5"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_EDITS))
def test_a_refused_claim_fails_its_row_and_the_run_goes_on(case, tmp_path, capsys):
    edit, argv, n_rows, rel_id, note = REFUSED_EDITS[case]
    code, payload = _json_run(capsys, argv[0], _edited(tmp_path, *edit),
                              "--k", "5/12", *argv[1:])
    rows = {r["id"]: r for r in payload["relations"]}
    assert code == 1 and len(rows) == n_rows
    row = rows[rel_id]
    assert row["pass"] is False and row["symbolic_pass"] is None
    assert row["max_rel_err"] == "nan" and row["notes"] == [note]


@pytest.mark.parametrize("k, note", [
    ("5/12", "family chat: 1/t coefficients 48/5 vs 24/5"),
    ("3", "family chat: 1/t coefficients 4/3 vs 2/3")])
def test_ef_refuses_unequal_orderings_as_the_exchange_rows_do(
        tmp_path, capsys, k, note):
    # C_plus's t>0 coefficient doubled: [E,F] reads each term pair's
    # exchange factor by the exchange rows' rule, so it names the family
    # and its 1/t coefficients exactly as C_p_C_m does
    code, payload = _json_run(capsys, "verify", _edited(tmp_path, *C_PLUS_DOUBLED),
                              "--k", k)
    rows = {r["id"]: r for r in payload["relations"]}
    assert code == 1
    assert rows["[E,F]"]["notes"] == rows["C_p_C_m"]["notes"] == [note]


def test_ef_refuses_orderings_that_are_not_one_function(tmp_path, capsys):
    # seed 0 of the seeded edits (line 49, 2 *2): every family's 1/t
    # coefficients agree, but term pair (0,1)'s exchange factor is not one
    text, where = seeded_edit(shipped_text(), 0)
    assert where.startswith("seed 0, line 49: 2 *2")
    path = tmp_path / "seed0.alg"
    path.write_text(text)
    code, payload = _json_run(capsys, "poles", str(path), "--k", "5/12")
    [row] = payload["relations"]
    assert code == 1 and row["pass"] is False
    assert row["notes"] == ["term pair (0,1): orderings are not a common "
                            "meromorphic function"]


def test_a_pair_without_one_exchange_factor_has_no_limit(capsys):
    # B_plus against psi_dag's two terms: two different exchange factors,
    # so no one limit, whatever the first term pair's factor tends to
    code, payload = _json_run(capsys, "limit", "--pair", "B_plus,psi_dag", "--k", "3")
    [row] = payload["relations"]
    assert code == 1 and row["pass"] is False and row["max_rel_err"] == "nan"
    assert row["notes"] == ["term pairs (0,0) and (0,1) have different exchange "
                            "factors: the pair has no single limit"]


@pytest.mark.parametrize("k", ["5/12", "3/16", "997/1000"])
def test_verify_report_poles_and_catalog_build_no_laurent_rational(
        k, capsys, monkeypatch):
    # the E-F analysis compares mode functions as integer exponential sums,
    # and catalog prints the bound terms: with every Laurent rational
    # refused, each command exits 0 and writes the bytes it writes unrefused
    # (the refused run goes first, so no form cached by the other is there
    # to be read)
    def reports():
        out = []
        for argv in (["verify", "--json", "-"], ["report", "--json", "-"],
                     ["poles", "--json", "-"], ["catalog"]):
            assert cli.run([*argv, "--k", k]) == 0
            out.append(capsys.readouterr().out)
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("a Laurent rational on the verify path")

    monkeypatch.setattr(LaurentRational, "__init__", refuse)
    monkeypatch.setattr(LaurentRational, "_make", staticmethod(refuse))
    monkeypatch.setattr(ExpTrigTerm, "laurent", refuse)
    refused = reports()
    monkeypatch.undo()
    assert refused == reports()


def test_single_term_pair_shape_relation_fails(tmp_path, capsys):
    # C_plus and C_minus have one term each, so the row has nothing to
    # compare its one factor with
    src = tmp_path / "c_shape.alg"
    src.write_text(shipped_text() + "relation c_shape : shape C_plus(u) C_minus(v);\n")
    dest = tmp_path / "verify.json"
    assert cli.run(["verify", str(src), "--relation", "c_shape", "--k", "5/12",
                    "--json", str(dest)]) == 1
    payload = json.loads(dest.read_text())
    [row] = payload["relations"]
    assert payload["pass"] is False
    assert row["pass"] is False and row["symbolic_pass"] is None
    assert not {"max_rel_err", "residuals", "grid"} & set(row)
    assert row["notes"] == ["one term pair: a shape relation compares nothing"]
    assert row["derived_factor"].startswith("Gamma(")
    out = capsys.readouterr().out
    assert "FAIL c_shape kind=shape\n" in out and "all relations hold" not in out
    # the classical limit still reads the pair
    cli.run(["limit", str(src), "--k", "5/12"])
    assert "limit[C_plus,C_minus;ab=-1]" in capsys.readouterr().out


def test_limit_help_names_the_hbar_sequence(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["limit", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert ("--hbar HBAR the hbar -> 0 sequence, at least 3 strictly "
            "decreasing rationals") in out
    assert "override hbar values" not in out


def test_single_relation_flag():
    out = run_cli("verify", "--relation", "E_E")
    assert out.returncode == 0
    assert "PASS E_E" in out.stdout


def test_verify_level_one_fifth_exits_zero():
    # k = 1/5 puts the E-F poles at w = +-hbar/10
    for hbar in ("1", "1/2"):
        out = run_cli("verify", "--k", "1/5", "--hbar", hbar)
        assert out.returncode == 0, out.stdout + out.stderr
        assert "all relations hold" in out.stdout


# A's pair sinh(x) sinh(6x) / (sinh(2x) sinh(3x)) has two denominator
# slopes and B's (sinh(2x) / sinh(x))^2 a squared one; both are polynomials
# in e^{hbar t}, whose exchange factors are constants
TWO_SLOPES_ALG = """params { k = 1; hbar = 1; }
kernel p { sign = +1; slope = 6; }
kernel q { sign = +1; slope = 2; }
current A on p {
  pos: 1 * hbar / sinh(2*h*t);
  neg: 1 * hbar / sinh(3*h*t);
}
current B on q {
  pos: 1 * hbar * sinh(2*h*t) / sinh(1*h*t)^3;
  neg: 1 * hbar;
}
relation a_a : A(u) A(v) == (-1) * A(v) A(u);
relation b_b : B(u) B(v) == B(v) B(u);
"""


def _two_slopes_row(rel_id, factor):
    return {"derived_factor": factor, "expected_factor": factor, "id": rel_id,
            "kind": "exchange", "limit_fit": {}, "notes": [], "pass": True,
            "poles": [], "residue_ops": [], "symbolic_pass": True}


def test_verify_derives_each_pair_key_once(monkeypatch, capsys, tmp_path):
    # relations run in turn and share the catalog's closed-form cache; each
    # cache key (family, tf, tg) is derived once, straight from its sinh
    # product, whatever its denominator: no pair of the shipped file, nor
    # the two-slope and squared pairs of TWO_SLOPES_ALG, refuses, so none
    # reaches contract or closed_form, stubbed where algebra binds them
    derived, laurent = [], []
    pair_closed_form = algebra.pair_closed_form

    def recording_pair(tf, tg, K):
        derived.append((K, tf, tg))
        return pair_closed_form(tf, tg, K)

    def laurent_route(*args):
        laurent.append(args)
        raise AssertionError("a pair took the Laurent route")

    monkeypatch.setattr(algebra, "pair_closed_form", recording_pair)
    monkeypatch.setattr(algebra, "contract", laurent_route)
    monkeypatch.setattr(algebra, "closed_form", laurent_route)
    monkeypatch.setattr(contraction, "contract", laurent_route)
    monkeypatch.setattr(contraction, "closed_form", laurent_route)
    assert cli.run(["verify", "--k", "2/7"]) == 0
    assert "all relations hold" in capsys.readouterr().out
    assert len(derived) == len(set(derived)) == 35 and not laurent

    derived.clear()
    src = tmp_path / "two_slopes.alg"
    src.write_text(TWO_SLOPES_ALG)
    assert cli.run(["verify", str(src), "--json", "-"]) == 0
    # the bytes the Laurent route wrote for this file
    assert capsys.readouterr().out == json.dumps({
        "params": {"hbar": ["1"], "k": "1"}, "pass": True,
        "relations": [_two_slopes_row("a_a", "i^2"), _two_slopes_row("b_b", "1")],
        "schema_version": "5"}, sort_keys=True, indent=1) + "\n"
    assert len(derived) == 2 and not laurent


# X's t>0 branch is 4 * hbar * exp((-1/2)*h*t) in one file and the same
# function split into two equal terms in the other; alone, each of the
# split file's term pairs has a Frullani coefficient -1/2 and refuses
SPLIT_TERMS_ALG = """params { k = 1; hbar = 1; }
kernel c { sign = +1; slope = 1/2; }
current X on c {
  pos: 4 * hbar * exp((-1/2)*h*t);
}
current Y on c {
  neg: -1 * hbar * exp((1/2)*h*t) + 2 * hbar * exp((3/2)*h*t);
}
relation x_y : X(u) Y(v) == (iw - (1/2)*hbar) * (iw + (1/2)*hbar)^-3 * (iw + (3/2)*hbar)
    * (iw + (5/2)*hbar)^3 * (iw + (7/2)*hbar)^-2 * Y(v) X(u);
"""
SPLIT_FACTOR = "(iw+-1/2h)^1 * (iw+1/2h)^-3 * (iw+3/2h)^1 * (iw+5/2h)^3 * (iw+7/2h)^-2"


def test_a_branch_split_into_terms_verifies_as_contract_derives_it(capsys, tmp_path):
    # a family whose term pair refuses is decided by its summed integrand,
    # so both spellings give one symbolic row, whose factor is the closed
    # form contract prints
    whole = SPLIT_TERMS_ALG
    split = whole.replace("pos: 4 * hbar * exp((-1/2)*h*t);",
                          "pos: 2 * hbar * exp((-1/2)*h*t) + 2 * hbar * exp((-1/2)*h*t);")
    assert split != whole
    rows = []
    for name, text in (("whole", whole), ("split", split)):
        src = tmp_path / f"{name}.alg"
        src.write_text(text)
        assert cli.run(["verify", str(src), "--json", "-"]) == 0
        [row] = json.loads(capsys.readouterr().out)["relations"]
        rows.append(row)
        assert cli.run(["contract", str(src), "X", "Y"]) == 0
        assert f"  closed form  = {SPLIT_FACTOR}\n" in capsys.readouterr().out
    assert rows[0] == rows[1]
    assert rows[0]["symbolic_pass"] is True and rows[0]["notes"] == []
    assert rows[0]["derived_factor"] == SPLIT_FACTOR


def test_limit_message_reduces_both_exponents(capsys):
    assert cli.run(["limit", "--pair", "C_plus,C_plus", "--k", "5/12"]) == 1
    assert ("note: the factor tends to [w/(-w)]^-4/5, the braid is "
            "[w/(-w)]^4/5 (exponents modulo 2)") in capsys.readouterr().out


def test_a_shifted_current_prints_and_verifies_as_its_declared_twin(tmp_path, capsys):
    # X@(1/3) adds 1/3 to the tilt 1/6 of X: Y's catalog lines and the
    # verify report are those of Y declared with exp((1/2)*h*t)
    outs = []
    for name, text in zip(("shifted", "declared"), tilt_twins()):
        src = tmp_path / f"{name}.alg"
        src.write_text(text)
        assert cli.run(["catalog", str(src)]) == 0
        y_lines = capsys.readouterr().out.split("current Y:")[1]
        assert cli.run(["verify", str(src), "--json", "-"]) == 0
        outs.append((y_lines, capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert "p t>0: (1) * hbar * exp((1/2)*h*t) * sinh((1)*h*t)^-1\n" in outs[0][0]


@pytest.mark.parametrize("k", ["5/12", "997/1000"])
def test_catalog_lines_parse_back_to_the_terms_they_print(k, capsys):
    # each t>0/t<0 line is one bound term in the file's exponent grammar:
    # declared as the only term of a primitive current, it binds to itself
    assert cli.run(["catalog", "--k", k]) == 0
    lines = [line.split(": ", 1)[1]
             for line in capsys.readouterr().out.splitlines()
             if line.split(":")[0].endswith(("t>0", "t<0"))]
    _, shipped, _, _, _ = parse_definitions(shipped_text()).bind(Fraction(k))
    printed = [t for name in sorted(shipped.currents)
               for term in shipped[name].terms
               for _, mf in sorted(term.exponents.items())
               for t in mf.positive_branch + mf.negative_branch]
    assert len(lines) == len(printed) > 40
    for text, want in zip(lines, printed):
        _, cat, _, _, _ = parse_definitions(
            "params { k = 1; hbar = 1; }\n"
            "kernel p { sign = +1; slope = 1; }\n"
            f"current T on p {{ pos: {text}; }}\n").bind()
        [term] = cat["T"].terms
        assert term.exponents["p"].positive_branch == (want,)


def test_two_runs_build_one_parser(monkeypatch, capsys):
    # the parser is built once per process, with every subcommand, and
    # parses each later command line
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.run(["verify", "--relation", "E_E"]) == 0
    first = len(built)
    assert cli.run(["catalog", "--k", "5/12"]) == 0
    assert "PASS E_E" in capsys.readouterr().out
    # the program's parser and one per subcommand
    assert first == len(built) == 7
    assert built.count("coset-forge") == 1


# X lives on two opposite-sign kernels with equal shapes: the closed form
# does not telescope, and quadrature alone finds the exchange factor 1
_XX_FALSE = """\
params { k = 1; hbar = 1; }
kernel p { sign = +1; slope = 1/2; }
kernel m { sign = -1; slope = 1/2; }
current Xp on p {
  pos: 1 * hbar * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
  neg: 1 * hbar * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
}
current Xm on m {
  pos: 1 * hbar * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
  neg: 1 * hbar * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
}
current X = Xp * Xm;
relation xx_false : (iw + 1*hbar) * X(u) X(v) == X(v) X(u);
"""


def test_a_file_cannot_loosen_the_quadrature_only_check(tmp_path, capsys):
    src = tmp_path / "xx_false.alg"
    src.write_text(_XX_FALSE)
    assert cli.run(["verify", str(src)]) == 1
    out = capsys.readouterr().out
    # the residual is |w|, 2 at the first strip point, far above 1e-8
    assert "FAIL xx_false kind=exchange max_rel_err=2" in out
    assert "quadrature-only check" in out
    # a per-relation tolerance is no longer part of the grammar
    src.write_text(_XX_FALSE.replace("X(v) X(u);", "X(v) X(u) with tol = 1e300;"))
    assert cli.run(["verify", str(src), "--json", "-"]) == 2
    message = "parse error at 13:65: expected 'rotate', found 'tol'"
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "parse", "message": message}


def test_the_tolerance_is_the_program_constant(tmp_path, monkeypatch, capsys):
    # the one tolerance bounds the quadrature-only residual and the
    # classical-limit cross-check, and is read at call time; an exact
    # verdict reads no tolerance
    src = tmp_path / "xx_false.alg"
    src.write_text(_XX_FALSE)
    assert cli.run(["verify", str(src)]) == 1
    assert cli.run(["limit", "--k", "3"]) == 0
    # xx_false's residual is |w| on its line, at most 2
    monkeypatch.setattr(algebra, "TOLERANCE", 2.5)
    assert cli.run(["verify", str(src)]) == 0
    assert "PASS xx_false kind=exchange max_rel_err=2" in capsys.readouterr().out
    monkeypatch.setattr(algebra, "TOLERANCE", 0.0)
    assert cli.run(["limit", "--k", "3"]) == 1
    assert "above the tolerance 0" in capsys.readouterr().out
    assert cli.run(["verify", "--k", "3"]) == 0


_XX_ROW = "relation xx_false : (iw + 1*hbar) * X(u) X(v) == X(v) X(u);"
# X has one term: its shape row has one term pair and compares nothing
_XX_SHAPE = _XX_FALSE.replace(_XX_ROW, "relation xx_shape : shape X(u) X(v);")
# a tilt of Xp's positive branch narrows the strip overlap to (-1/16, 1/16):
# the line lies on Im w = 0, and at Re w = +-2, +-14/9 and +-10/9 the
# integrals stop at the node cap with error estimates of 2.4e-6 to 5.1e-9,
# at least 50 times the quadrature's 1e-10
_XX_TILTED = _XX_FALSE.replace(
    "current Xp on p {\n  pos: 1", "current Xp on p {\n  pos: exp((7/16)*h*t) * 1"
).replace(_XX_ROW, "relation xx_true : X(u) X(v) == X(v) X(u);\n" + _XX_ROW)


def test_a_one_pair_shape_row_fails_on_the_quadrature_only_route(tmp_path, capsys):
    src = tmp_path / "xx_shape.alg"
    src.write_text(_XX_SHAPE)
    assert cli.run(["verify", str(src), "--json", "-"]) == 1
    out, err = capsys.readouterr()
    [row] = json.loads(out)["relations"]
    assert (row["id"], row["pass"], row["max_rel_err"]) == ("xx_shape", False, "nan")
    assert row["notes"] == ["closed form does not telescope; quadrature-only check",
                            "one term pair: a shape relation compares nothing"]
    assert "FAIL xx_shape kind=shape max_rel_err=nan" in err


def test_a_quadrature_point_that_fails_fails_only_its_row(tmp_path, capsys):
    src = tmp_path / "xx_tilted.alg"
    src.write_text(_XX_TILTED)
    assert _XX_TILTED.count("exp((7/16)*h*t)") == 1
    assert cli.run(["verify", str(src), "--json", "-"]) == 1
    out, err = capsys.readouterr()
    rows = {r["id"]: r for r in json.loads(out)["relations"]}
    assert sorted(rows) == ["xx_false", "xx_true"]
    for row in rows.values():
        assert row["pass"] is False
        assert row["notes"] == [
            "closed form does not telescope; quadrature-only check",
            "6 of 10 grid points failed to evaluate"]
        failed = [float(w["re"]) for w, r in zip(row["grid"], row["residuals"])
                  if r == "nan"]
        assert [round(9 * x) for x in failed] == [-18, -14, -10, 10, 14, 18]
        assert {w["im"] for w in row["grid"]} == {"0"}
    assert "FAIL xx_true kind=exchange" in err and "FAIL xx_false" in err


# X's and Y's opposite tilts put the strip overlap at 5.5 < Im w < 6.5, above
# the window |Im w| <= 4 hbar the line is first sought in
_XY_FAR = """\
params { k = 1; hbar = 1; }
kernel p { sign = +1; slope = 1/2; }
current X on p {
  pos: 1 * hbar * exp((-6)*h*t) * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
  neg: 1 * hbar * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
}
current Y on p {
  pos: 1 * hbar * exp((6)*h*t) * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
  neg: 1 * hbar * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
}
relation xy : X(u) Y(v) == Y(v) X(u);
"""


def test_the_quadrature_only_line_lies_inside_a_far_strip(tmp_path, capsys):
    src = tmp_path / "xy.alg"
    src.write_text(_XY_FAR)
    # the exchange factor is not 1, so the row fails, on finite residuals
    assert cli.run(["verify", str(src), "--json", "-"]) == 1
    [row] = json.loads(capsys.readouterr().out)["relations"]
    assert row["notes"] == ["closed form does not telescope; quadrature-only check"]
    # the overlap's middle; the middle of its part in |Im w| <= 4 hbar
    # would be 4.75, outside it, where no integral converges
    assert {w["im"] for w in row["grid"]} == {"6"}
    assert len(row["residuals"]) == 10
    assert all(math.isfinite(float(r)) for r in row["residuals"])


@pytest.mark.parametrize("argv, line", [
    (["verify"], "all relations hold"),
    (["poles"], "residue at"),
    (["limit"], "PASS limit[psi,psi"),
])
def test_json_to_stdout_keeps_stdout_pure(argv, line, capsys):
    assert cli.run([*argv, "--json", "-"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["pass"] is True
    assert line in err and line not in out



@pytest.mark.parametrize("argv", [
    ["verify"], ["report"], ["poles"], ["limit"],
    ["contract", "Lambda_plus", "Lambda_minus"]], ids=lambda argv: argv[0])
def test_every_json_payload_is_schema_5_with_no_shared_grid(argv, capsys):
    # no payload has a top-level grid: a row with a line of points carries
    # its own
    assert cli.run([*argv, "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == "5" and "grid" not in payload


def test_contract_json_file_has_one_row_per_family(tmp_path, capsys):
    dest = tmp_path / "contract.json"
    argv = ["contract", "Lambda_plus", "Lambda_minus", "--at", "0,-5"]
    assert cli.run(argv) == 0
    text = capsys.readouterr().out
    assert cli.run([*argv, "--json", str(dest)]) == 0
    assert capsys.readouterr().out == text
    payload = json.loads(dest.read_text())
    assert payload["schema_version"] == "5"
    assert payload["params"] == {"k": "2", "hbar": ["1"]}
    assert payload["currents"] == ["Lambda_plus", "Lambda_minus"]
    [row] = payload["families"]
    assert row["family"] == "lhat" and row["zero"] is False
    assert row["strip_im_w_below"] == "-2"
    assert row["w"] == {"re": "0", "im": "-5"}
    assert row["log_divergence_coeff"] == "0"
    q, c = (complex(float(row[key]["re"]), float(row[key]["im"]))
            for key in ("quadrature", "closed_form_value"))
    assert abs(q - c) < 1e-12 * abs(c)
    assert row["closed_form"] in text


def test_contract_json_to_stdout_keeps_stdout_pure(capsys):
    assert cli.run(["contract", "H_plus", "C_plus", "--json", "-"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert [r["family"] for r in payload["families"]] == ["chat"]
    assert "family chat:" in err and "quadrature" in err


@pytest.mark.parametrize("a, b, lines", [
    # a shared family whose contraction vanishes is not "no family"
    ("C_plus", "H_plus", ["family chat: zero contraction"]),
    ("Lambda_plus", "C_plus",
     ["currents share no kernel family; all contractions vanish"]),
])
def test_contract_says_no_shared_family_only_when_none_is_shared(a, b, lines, capsys):
    assert cli.run(["contract", a, b]) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("argv", [
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--at", "nan,-5"],
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--at", "0,inf"],
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--at", "1"],
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--at", "1,2,3"],
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--at", "a,b"],
    ["limit", "--json", "-", "--pair", "psi"],
    ["limit", "--json", "-", "--pair", "psi,"],
    ["limit", "--json", "-", "--pair", "psi,nope"],
    ["verify", "--json", "-", "--k", "1/0"],
    ["verify", "--json", "-", "--k", "1e400"],
    ["verify", "--json", "-", "--k", "1e-400"],
    ["verify", "--json", "-", "--k", "abc"],
    ["verify", "--json", "-", "--hbar", "1/0"],
    ["verify", "--json", "-", "--hbar", "1e400"],
    ["verify", "--json", "-", "--hbar", "1,1e-400"],
    ["verify", "--json", "-", "--hbar", "-1"],
    ["verify", "--json", "-", "--k", "2", "--hbar", "1,-1"],
    ["report", "--json", "-", "--hbar", "1/2,-3/7"],
    ["report", "--json", "-", "--k", "1e400"],
    ["limit", "--json", "-", "--hbar", "1/0,1/100,1/1000"],
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--k", "1/0"],
    # contract computes at one hbar, so it takes one
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--hbar", "1,1/2"],
])
def test_malformed_option_values_are_rejected(argv, capsys):
    # the offending flag is the second-last argument; the error names it
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"]["kind"] == "InvalidOption"
    assert err.startswith("error: " + argv[-2])


@pytest.mark.parametrize("hbars, kind, message", [
    # a constant that is not positive: a parse error where it stands
    ("1, -1/2", "parse",
     "parse error at 11:13: expected positive hbar, found '-'"),
    # one that involves k is checked at the bound level, naming the entry
    ("1/2, 1, -k", "ExcludedLevel",
     "params: hbar (-1*k) is not positive at k=2"),
], ids=["1, -1/2", "1/2, 1, -k"])
def test_declared_hbar_must_be_positive_in_every_position(tmp_path, capsys, hbars,
                                                          kind, message):
    # every declared value is checked, not only the first one AlgebraParams holds
    src = tmp_path / "hbar.alg"
    src.write_text(shipped_text().replace("hbar = 1, 1/2;", f"hbar = {hbars};"))
    assert cli.run(["verify", str(src), "--json", "-"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"kind": kind, "message": message}
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("target, extra", [
    ("E", ""),
    # a composite of one term would be compared on its first family only
    ("H_copy", "current H_copy = H_plus;\n"),
])
def test_residue_targets_are_primitive_currents(tmp_path, capsys, target, extra):
    old = "  residues: H_plus @ (k/4),"
    text = shipped_text()
    assert old in text
    text = text.replace("commutator_delta E F", extra + "commutator_delta E F")
    src = tmp_path / "target.alg"
    src.write_text(text.replace(old, f"  residues: {target} @ (k/4),"))
    assert cli.run(["verify", str(src), "--json", "-"]) == 2
    out, err = capsys.readouterr()
    message = (f"commutator_delta E F: residue target {target!r} is not "
               f"declared on a kernel")
    assert json.loads(out)["error"] == {"kind": "UndeclaredName",
                                        "message": message}
    assert err == f"error: {message}\n"


def test_a_repeated_commutator_delta_exits_two(tmp_path, capsys):
    text = shipped_text()
    src = tmp_path / "twice.alg"
    src.write_text(text + text[text.index("commutator_delta E F"):])
    assert cli.run(["verify", str(src), "--k", "3", "--json", "-"]) == 2
    out, err = capsys.readouterr()
    message = "commutator_delta E F declared twice"
    assert json.loads(out)["error"] == {"kind": "DuplicateName",
                                        "message": message}
    assert err == f"error: {message}\n"


def test_a_shape_pair_has_one_limit_row(tmp_path):
    # a second shape relation on psi, psi is a row of its own; the pair's
    # classical limit is one row, as in the shipped file
    src = tmp_path / "again.alg"
    src.write_text(shipped_text()
                   + "relation psi_psi_again : shape psi(u) psi(v);\n")
    rows = {}
    for name, argv in (("shipped", []), ("again", [str(src)])):
        for command in ("report", "limit"):
            dest = tmp_path / f"{name}_{command}.json"
            assert cli.run([command, *argv, "--k", "3", "--json", str(dest)]) == 0
            rows[name, command] = json.loads(dest.read_text())["relations"]
    ids = [r["id"] for r in rows["again", "report"]]
    assert len(ids) == len(set(ids)) == 30
    assert "psi_psi_again" in ids
    for command in ("report", "limit"):
        limits = [r for r in rows["again", command] if r["kind"] == "classical-limit"]
        assert [r["id"] for r in limits] == [
            "limit[psi,psi;ab=1]", "limit[psi,psi_dag;ab=-1]",
            "limit[psi_dag,psi_dag;ab=1]"]
        assert limits == [r for r in rows["shipped", command]
                          if r["kind"] == "classical-limit"]


def test_shape_pairs_are_each_ordered_pair_once_in_declaration_order():
    def shape(pair):
        return algebra.Relation("_".join(pair), "shape", pair, None)

    rels = [shape(("psi_dag", "psi")), shape(("psi", "psi")),
            shape(("psi_dag", "psi")), shape(("psi", "psi_dag"))]
    assert cli._shape_pairs(rels) == [("psi_dag", "psi"), ("psi", "psi"),
                                      ("psi", "psi_dag")]


@pytest.mark.parametrize("missing", [False, True])
def test_unwritable_json_path_exits_two(tmp_path, capsys, missing):
    # a directory, or a file in a directory that does not exist: the error
    # object cannot go there either, so only stderr reports the failure
    dest = tmp_path / "none" / "x.json" if missing else tmp_path
    assert cli.run(["verify", "--k", "2", "--json", str(dest)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: [Errno") and str(dest) in err
    assert "all relations hold" not in out
    assert list(tmp_path.iterdir()) == []


def test_catalog_json_path_is_rejected(tmp_path):
    # catalog writes no report, so it has no --json
    dest = tmp_path / "catalog.json"
    out = run_cli("catalog", "--json", str(dest))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: coset-forge")
    assert "unrecognized arguments: --json" in out.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["contract", "--k", "2"],
    ["contract", "psi"],
    ["verify", "--workers", "2"],
    ["report", "--workers=4"],
    # how a relation is checked is declared in the file, not on the
    # command line, and catalog writes no report
    ["limit", "--tol=1e-6"],
    ["verify", "--rotate", "c-sector"],
    ["verify", "--grid-n", "10"],
    ["report", "--grid-range", "1,2"],
    ["verify", "--json", "-", "--grid-range", "1"],
    ["catalog", "--json", "-"],
    # verify checks every relation unless --relation names one: there is
    # no flag for the default
    ["verify", "--all"],
])
def test_usage_errors_exit_two(argv, capsys):
    # argparse prints the usage and exits 2; a missing contract pair once
    # crashed while formatting that usage
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: coset-forge")


def test_each_subcommand_accepts_only_the_options_it_reads():
    session = {"file", "--k", "--hbar"}
    expected = {
        "catalog": session,
        "contract": session | {"currents", "--at", "--json"},
        "verify": session | {"--relation", "--json"},
        "poles": session | {"--json"},
        "limit": session | {"--pair", "--json"},
        "report": session | {"--json"},
    }
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {a.option_strings[0] if a.option_strings else a.dest
               for a in parser._actions if a.dest != "help"}
        for name, parser in sub.choices.items()}
    assert accepted == expected
    assert sum(map(len, accepted.values())) == 27


@pytest.mark.parametrize("command", [
    "catalog", "contract", "verify", "poles", "limit", "report"])
def test_removed_check_options_are_usage_errors(command, tmp_path, capsys):
    # rotation is declared per relation in the file, the tolerance is fixed
    # and there is no grid; no subcommand takes them, and nothing is written
    pair = ["Lambda_plus", "Lambda_minus"] if command == "contract" else []
    report = [] if command == "catalog" else ["--json", str(tmp_path / "out.json")]
    for flags in (["--tol", "1e-6"], ["--rotate", "global"],
                  ["--grid-n", "10"], ["--grid-range", "1,2"]):
        with pytest.raises(SystemExit) as exc:
            cli.run([command, *pair, *flags, *report])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: coset-forge")
        assert f"unrecognized arguments: {flags[0]}" in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["verify", "--relation", "nope"], "--relation names an unknown relation: nope"),
    # only the unknown name is named
    (["contract", "nope", "psi"], "contract names unknown currents: nope"),
    (["contract", "psi", "C_plus"],
     "contract expects primitive currents; composite: psi"),
    (["contract", "E", "F"], "contract expects primitive currents; composite: E, F"),
])
def test_unknown_or_composite_names_are_invalid_options(argv, message, capsys):
    assert cli.run([*argv, "--json", "-"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"kind": "InvalidOption", "message": message}
    assert err == f"error: {message}\n"


def test_contract_value_that_overflows_is_a_typed_error(capsys):
    # at k = 1/500 the bhat contraction's exp(I) is beyond the float range
    assert cli.run(["contract", "B_plus", "B_minus", "--k", "1/500",
                    "--json", "-"]) == 2
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error["kind"] == "NonFiniteValue"
    assert error["message"].startswith("family bhat: exp(")
    assert "overflows at w = (0.7-" in error["message"]
    assert err == f"error: {error['message']}\n"


@pytest.mark.parametrize("at", ["1e200,-5", "0,-1e300", "1e308,-1e308"])
def test_contract_at_an_extreme_strip_point_is_a_typed_error(at, capsys):
    # finite points inside the strip where the powers of -iw in the small-t
    # series overflow: in Python's complex power, or to NaN
    assert cli.run(["contract", "H_plus", "H_minus", "--k", "2", "--at", at,
                    "--json", "-"]) == 2
    out, err = capsys.readouterr()
    w = complex(*(float(x) for x in at.split(",")))
    assert json.loads(out)["error"] == {
        "kind": "NonFiniteValue", "message": f"the small-t series overflows at w = {w}"}
    assert err == f"error: the small-t series overflows at w = {w}\n"


@pytest.mark.parametrize("pair", [("H_plus", "H_minus"), ("Lambda_plus", "Lambda_minus")])
def test_contract_at_a_huge_hbar_is_a_typed_error(pair, capsys):
    # the powers eta^r = (hbar/(2L))^r of the small-t series overflow before
    # any strip point is taken
    assert cli.run(["contract", *pair, "--k", "2", "--hbar", "1e40", "--at", "0,-1e41",
                    "--json", "-"]) == 2
    out, err = capsys.readouterr()
    message = "the small-t series overflows at hbar = 1e+40"
    assert json.loads(out)["error"] == {"kind": "NonFiniteValue", "message": message}
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["verify", "report", "poles"])
@pytest.mark.parametrize("text", [
    "",
    "params { k = 2; hbar = 1; }\nkernel a { sign = +1; slope = 1; }\n"
    "current X on a { pos: 1 * hbar; }\n",
])
def test_file_with_nothing_to_check_is_refused(tmp_path, capsys, command, text):
    src = tmp_path / "nothing.alg"
    src.write_text(text)
    assert cli.run([command, str(src), "--json", "-"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"]["kind"] == "NothingToVerify"
    assert "all relations hold" not in err
    # the catalog of such a file is still readable
    assert cli.run(["catalog", str(src)]) == 0


def test_limit_without_a_pair_to_fit_is_refused(tmp_path, capsys):
    # the shipped relations minus the shape ones: verify runs, limit has
    # nothing to fit unless --pair names a pair
    text = "\n".join(line for line in shipped_text().split("\n")
                     if ": shape " not in line)
    src = tmp_path / "no_shape.alg"
    src.write_text(text)
    assert cli.run(["limit", str(src), "--json", "-"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "NothingToVerify"
    assert cli.run(["limit", str(src), "--pair", "psi,psi", "--json", "-"]) == 0


@pytest.mark.parametrize("old, new, kind, message", [
    # a constant divisor that is zero: a parse error where it stands
    ("hbar = 1, 1/2;", "hbar = 1, 1/0;", "parse",
     "parse error at 11:15: expected nonzero divisor, found '0'"),
    # a k-dependent one that vanishes at the bound level: a bind error
    ("slope = (k+2)/2;", "slope = (k+2)/(k-2);", "VanishingDenominator",
     "k-expression (2 + 1*k)/(-2 + 1*k) has a vanishing denominator at k=2"),
    # a relation side is divided by the other: a scalar factor that is zero
    # whatever k is, on either side, is a parse error at its first token
    ("E_E : (w + 1*hbar) * E(u)", "E_E : 0 * (w + 1*hbar) * E(u)", "parse",
     "parse error at 132:16: expected nonzero scalar, found '0'"),
    ("== (w - 1*hbar) * E(v)", "== (k - k) * (w - 1*hbar) * E(v)", "parse",
     "parse error at 132:44: expected nonzero scalar, found '('"),
    # and one that vanishes at the bound level excludes it
    ("E_E : (w + 1*hbar) * E(u)", "E_E : (k - 2) * (w + 1*hbar) * E(u)",
     "ExcludedLevel", "relation 'E_E': scalar factor (-2 + 1*k) vanishes at k=2"),
    ("== (w - 1*hbar) * E(v)", "== (1 - k/2) * (w - 1*hbar) * E(v)",
     "ExcludedLevel",
     "relation 'E_E': scalar factor (1 + -1/2*k) vanishes at k=2"),
    # so does a kernel slope that is not positive there, or a sinh slope
    # that vanishes there, naming the kernel or the current
    ("slope = (k+2)/2;", "slope = (k-2)/2;", "ExcludedLevel",
     "kernel 'lhat': slope (-1 + 1/2*k) is not positive at k=2"),
    ("pos: -2 * hbar * sinh((1/2)*h*t)", "pos: -2 * hbar * sinh((k/2 - 1)*h*t)",
     "ExcludedLevel",
     "current 'Lambda_plus': sinh slope (-1 + 1/2*k) vanishes at k=2"),
])
def test_division_by_zero_is_a_typed_error(tmp_path, capsys, old, new, kind, message):
    text = shipped_text()
    assert old in text
    src = tmp_path / "zero.alg"
    src.write_text(text.replace(old, new, 1))
    dest = tmp_path / "err.json"
    out = run_cli("verify", str(src), "--json", str(dest))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: {message}\n"
    assert json.loads(dest.read_text())["error"] == {"kind": kind, "message": message}


@pytest.mark.parametrize("command", ["verify", "report", "limit", "poles"])
@pytest.mark.parametrize("new, kind, message", [
    # a Gamma scale that is zero whatever k is: a parse error at its token
    ("== Gamma(x@0 + (k+2)/4) *", "parse",
     "parse error at 80:16: expected nonzero scale, found '0'"),
    # one that vanishes at the bound level excludes it, naming the relation
    ("== Gamma(x@(k-2) + (k+2)/4) *", "ExcludedLevel",
     "relation 'Lambda_p_Lambda_m': Gamma scale (-2 + 1*k) vanishes at k=2"),
])
def test_zero_gamma_scale_is_an_input_error(tmp_path, capsys, command, new, kind,
                                            message):
    old = "== Gamma(x@2 + (k+2)/4) *"
    text = shipped_text()
    assert old in text
    src = tmp_path / "zero_scale.alg"
    src.write_text(text.replace(old, new, 1))
    assert cli.run([command, str(src), "--json", "-"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"kind": kind, "message": message}
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["bogus"], ["verify", "--bogus"], ["contract"],
    ["contract", "C_plus"], ["limit", "--pair"], ["verify", "--k"],
    ["verify", "--all"], ["report", "--tol", "1"],
    ["--", "verify", "--nope"], ["verify", "--k", "2", "extra"],
    ["report", "--json"], ["-h", "verify"]] + [
    [command, "--help"] for command in
    ("catalog", "contract", "verify", "poles", "limit", "report")])
def test_help_usage_and_errors_are_the_full_parsers(
        argv, capsys, monkeypatch, tmp_path):
    # run(argv) parses with the parser it keeps for the process, which has
    # been used before: it exits 0 or 2 with the help, usage and error text
    # of a freshly built full parser.  run(argv) is compared, since a Python
    # before 3.12 reads "extra" as verify's file argument, which then cannot
    # be opened
    monkeypatch.chdir(tmp_path)

    def answer():
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    kept = answer()
    assert answer() == kept
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert answer() == kept
    assert kept[0] in (0, 2)


@pytest.mark.parametrize("argv, built", [
    (["verify", "--k", "2", "--relation", "E_E"], ["verify"]),
    (["contract", "C_plus", "C_minus", "--at", "0,-5"], ["contract"]),
    (["catalog", "verify"], ["catalog", "verify"]),
    (["limit", "--pair", "psi,psi", "--hbar", "1/10,1/100,1/1000"], ["limit"])])
def test_parser_for_the_invoked_command_parses_as_the_full_one(argv, built):
    # `built` are the subcommand names in argv: the first is the command,
    # a later one an argument.  The kept parser has all six subcommands and,
    # used twice, parses argv as a freshly built one does
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == [
        "catalog", "contract", "limit", "poles", "report", "verify"]
    parser.parse_args(argv)
    args = vars(parser.parse_args(argv))
    assert args == vars(cli.build_parser.__wrapped__().parse_args(argv))
    assert args["command"] == built[0]
    assert all(name in argv for name in built)


# two values for each option; every option of every subcommand is refused
# when it is given twice, rather than keeping its last value
_TWICE = {"--k": ("2", "5/12"), "--hbar": ("1", "1/2"),
          "--relation": ("E_E", "F_F"), "--pair": ("psi,psi", "E,E"),
          "--at": ("0,-5", "1,-5")}
_LEAD = {"contract": ["Lambda_plus", "Lambda_minus"]}


def _options():
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return [(name, a.option_strings[0]) for name, parser in sub.choices.items()
            for a in parser._actions if a.option_strings and a.dest != "help"]


def test_every_option_has_a_repeat_case():
    options = _options()
    assert {opt for _, opt in options} == set(_TWICE) | {"--json"}
    assert len(options) == 20


@pytest.mark.parametrize("command, option",
                         [c for c in _options() if c[1] != "--json"])
def test_a_repeated_option_exits_two(command, option, capsys):
    first, second = _TWICE[option]
    argv = [command, *_LEAD.get(command, []), option, first, option, second]
    message = f"{option} given more than once"
    writes_json = (command, "--json") in _options()
    assert cli.run(argv + (["--json", "-"] if writes_json else [])) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    if writes_json:
        assert json.loads(out)["error"] == {"kind": "InvalidOption", "message": message}
    else:
        assert out == ""
    assert "PASS" not in out + err


@pytest.mark.parametrize("command", sorted({c for c, o in _options() if o == "--json"}))
def test_a_repeated_json_writes_to_neither_path(command, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = [command, *_LEAD.get(command, []), "--json", str(a), "--json", str(b)]
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: --json given more than once\n")
    assert list(tmp_path.iterdir()) == []
    # the refusal names the first repeated option; the error object goes
    # to the one --json given
    assert cli.run(["verify", "--json", "-", "--hbar", "1", "--k", "2", "--hbar", "2",
                    "--k", "3"]) == 2
    out, _ = capsys.readouterr()
    assert json.loads(out)["error"]["message"] == "--hbar given more than once"
