"""CLI behavior: exit codes, failure naming, deterministic reports."""

import importlib.resources
import json
import subprocess
import sys

import pytest

from coset_forge import algebra, cli


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "coset_forge.cli", *args],
        capture_output=True, text=True, cwd=cwd)


def shipped_text() -> str:
    res = importlib.resources.files("coset_forge") / "data" / "paper.alg"
    return res.read_text()


def test_verify_all_shipped_exits_zero():
    out = run_cli("verify", "--all")
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
    out = run_cli("verify", "--all", str(bad))
    assert out.returncode == 1
    assert "FAIL C_p_C_p" in out.stdout


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "broken.alg"
    bad.write_text("params { k = 2; hbar = 1; }\nkernel x { sign = ; }\n")
    out = run_cli("verify", "--all", str(bad))
    assert out.returncode == 2
    assert "parse error" in out.stderr


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
    out = run_cli("verify", "--all", str(bad), "--json", str(dest))
    assert out.returncode == 2
    payload = json.loads(dest.read_text())
    assert payload["error"]["kind"] == "parse"
    assert payload["schema_version"] == "1"


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
    for key in ("schema_version", "params", "relations", "residuals",
                "poles", "limit_fits", "pass"):
        assert key in payload
    assert payload["pass"] is True
    assert payload["schema_version"] == "1"
    ids = [r["id"] for r in payload["relations"]]
    assert "E_E" in ids and "[E,F]" in ids
    for rel in payload["relations"]:
        assert isinstance(rel["pass"], bool)
        assert isinstance(rel["max_rel_err"], str)  # 17-digit decimal string
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
    out = run_cli("verify", "--all", "--k", "5/2")
    assert out.returncode == 0, out.stdout


def test_limit_subcommand():
    out = run_cli("limit")
    assert out.returncode == 0
    assert "limit[psi,psi" in out.stdout


def test_poles_subcommand():
    out = run_cli("poles")
    assert out.returncode == 0
    assert "residue at" in out.stdout


def test_rotate_override_runs():
    # forcing c-sector rotation on every relation is runnable; the Gamma
    # relations of the auxiliary sector then fail by design, exit code 1
    out = run_cli("verify", "--all", "--rotate", "c-sector")
    assert out.returncode in (0, 1)
    assert "FAIL" in out.stdout or "all relations hold" in out.stdout


def test_single_relation_flag():
    out = run_cli("verify", "--relation", "E_E")
    assert out.returncode == 0
    assert "PASS E_E" in out.stdout


def test_verify_level_one_fifth_exits_zero():
    # at k = 1/5 the pole w = -hbar/10 is where the default Newton start
    # w*(1 + 1e-2) + 1e-3*hbar would land
    for hbar in ("1", "1/2"):
        out = run_cli("verify", "--k", "1/5", "--hbar", hbar)
        assert out.returncode == 0, out.stdout + out.stderr
        assert "all relations hold" in out.stdout


def test_verify_runs_one_derivation_per_cache_key(monkeypatch, capsys):
    # relations run in turn and share the catalog's closed-form cache, so
    # each closed form is derived once
    calls, keys = [], set()
    closed_form = algebra.closed_form
    lookup = algebra.Catalog._single_pair_closed

    def counting_closed_form(*args):
        calls.append(1)
        return closed_form(*args)

    def recording_lookup(self, fam, tf, tg):
        keys.add((id(self), fam, tf, tg))
        return lookup(self, fam, tf, tg)

    monkeypatch.setattr(algebra, "closed_form", counting_closed_form)
    monkeypatch.setattr(algebra.Catalog, "_single_pair_closed", recording_lookup)
    assert cli.run(["verify", "--k", "2/7"]) == 0
    assert "all relations hold" in capsys.readouterr().out
    assert keys and len(calls) == len(keys)


@pytest.mark.parametrize("flags", [
    ["--tol=-1e-8"], ["--tol", "nan"],
    ["--grid-n", "0"], ["--grid-n", "-3"],
    ["--grid-range", "0,0"], ["--grid-range", "0,5"], ["--grid-range=-1,2"],
    ["--grid-range", "5,1"], ["--grid-range", "nan,1"], ["--grid-range", "1,inf"],
])
def test_numeric_flags_that_check_nothing_are_rejected(flags, capsys):
    assert cli.run(["verify", *flags, "--json", "-"]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"]["kind"] == "InvalidOption"
    assert "all relations hold" not in out + err
    assert err.startswith("error: " + flags[0].split("=")[0])


def test_tol_zero_is_honoured(capsys):
    # C_p_C_p agrees to ~1e-14 on the grid, E_E exactly
    assert cli.run(["verify", "--relation", "C_p_C_p"]) == 0
    assert cli.run(["verify", "--relation", "C_p_C_p", "--tol", "0"]) == 1
    assert "FAIL C_p_C_p" in capsys.readouterr().out
    assert cli.run(["verify", "--relation", "E_E", "--tol", "0"]) == 0


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


def test_contract_json_file_has_one_row_per_family(tmp_path, capsys):
    dest = tmp_path / "contract.json"
    argv = ["contract", "Lambda_plus", "Lambda_minus", "--at", "0,-5"]
    assert cli.run(argv) == 0
    text = capsys.readouterr().out
    assert cli.run([*argv, "--json", str(dest)]) == 0
    assert capsys.readouterr().out == text
    payload = json.loads(dest.read_text())
    assert payload["schema_version"] == "1"
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


@pytest.mark.parametrize("argv", [
    ["catalog", "--json", "-"],
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--at", "nan,-5"],
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--at", "0,inf"],
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--at", "1"],
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--at", "1,2,3"],
    ["contract", "Lambda_plus", "Lambda_minus", "--json", "-", "--at", "a,b"],
    ["limit", "--json", "-", "--pair", "psi"],
    ["limit", "--json", "-", "--pair", "psi,"],
    ["limit", "--json", "-", "--pair", "psi,nope"],
    ["verify", "--json", "-", "--grid-range", "1"],
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
])
def test_malformed_option_values_are_rejected(argv, capsys):
    # the offending flag is the second-last argument; the error names it
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"]["kind"] == "InvalidOption"
    assert err.startswith("error: " + argv[-2])


@pytest.mark.parametrize("hbars", ["1, -1/2", "1/2, 1, -k"])
def test_declared_hbar_must_be_positive_in_every_position(tmp_path, capsys, hbars):
    # the first declared hbar was checked, the others only listed in the report
    src = tmp_path / "hbar.alg"
    src.write_text(shipped_text().replace("hbar = 1, 1/2;", f"hbar = {hbars};"))
    assert cli.run(["verify", str(src), "--json", "-"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"kind": "ValueError",
                                        "message": "hbar must be positive"}
    assert err == "error: hbar must be positive\n"


def test_catalog_json_path_is_rejected(tmp_path):
    dest = tmp_path / "catalog.json"
    out = run_cli("catalog", "--json", str(dest))
    assert out.returncode == 2
    assert out.stdout == ""
    assert json.loads(dest.read_text())["error"]["kind"] == "InvalidOption"


@pytest.mark.parametrize("argv", [
    ["contract", "--k", "2"],
    ["contract", "psi"],
    ["verify", "--workers", "2"],
    ["report", "--workers=4"],
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


@pytest.mark.parametrize("command", ["verify", "report"])
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


@pytest.mark.parametrize("edit, argv", [
    # the whole session rotated in the c-sector
    (lambda text: text, ["--rotate", "c-sector"]),
    # one relation declared with a c-sector rotation
    (lambda text: text.replace(
        "relation H_p_H_p : H_plus(u) H_plus(v) == H_plus(v) H_plus(u) "
        "with rotate = global;",
        "relation H_p_H_p : H_plus(u) H_plus(v) == H_plus(v) H_plus(u) "
        "with rotate = c_sector;"), []),
], ids=["option", "declared"])
def test_c_sector_rotation_without_a_sector_is_refused(tmp_path, capsys, edit, argv):
    text = edit(shipped_text().replace("rotate_sector chat;\n", ""))
    assert "rotate_sector chat" not in text
    assert argv or "rotate = c_sector" in text
    src = tmp_path / "no_sector.alg"
    src.write_text(text)
    assert cli.run(["verify", str(src), "--json", "-", *argv]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {
        "kind": "NoRotationSector",
        "message": "c-sector rotation needs a rotation sector; the definition "
                   "file has no 'rotate_sector' line"}
    # without a c-sector rotation the same file verifies
    if argv:
        assert cli.run(["verify", str(src), "--json", "-"]) == 0


def test_rotation_sector_must_name_a_kernel(tmp_path, capsys):
    text = shipped_text().replace("rotate_sector chat;", "rotate_sector c;")
    src = tmp_path / "bad_sector.alg"
    src.write_text(text)
    assert cli.run(["verify", str(src), "--json", "-"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {
        "kind": "UndeclaredName",
        "message": "rotate_sector 'c' names no declared kernel"}
    assert err == "error: rotate_sector 'c' names no declared kernel\n"
