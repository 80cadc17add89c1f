"""The report writer against json.dumps(sort_keys=True, indent=1)."""

import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coset_forge import cli
from coset_forge.algebra import VerificationReport
from coset_forge.modes import AlgebraParams


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


# st.text() draws from every code point but surrogates: non-ASCII letters,
# quotes, backslashes and control characters all come up
leaves = (st.none() | st.booleans() | st.integers() | st.text()
          | st.floats(allow_nan=True, allow_infinity=True))
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(values)
@example({"\"q\" \\ é \x00\x1f\x7f   \U0001f600": [
    "\n\t\r\b\f", {}, [], (), None, True, False, 0, -7, 2 ** 70,
    1.5, -0.0, 1e300, math.inf, -math.inf, math.nan]})
def test_writer_matches_json_dumps(obj):
    assert cli._to_json(obj) == reference(obj)


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_matches_json_dumps_on_shared_objects(shared):
    # one object at several depths, twice at some of them: text written for
    # it at one indent must never stand in for it at another
    point = {"im": "-1", "re": "2"}
    row = [point, point, "x"]
    obj = {"a": shared, "b": [shared, {"c": shared, "p": point}],
           "d": [[row, row], row, (shared, shared)], "p": point,
           "r": {"row": row, "s": [shared, [shared]]}}
    assert cli._to_json(obj) == reference(obj)


def test_writer_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        cli._to_json({"x": object()})


@pytest.mark.parametrize("argv", [
    ["verify", "--json", "-"],
    ["verify", "--k", "1/7", "--hbar", "1/2", "--json", "-"],
    ["report", "--json", "-"],
    ["poles", "--json", "-"],
    ["limit", "--json", "-"],
    ["contract", "Lambda_plus", "Lambda_minus", "--at", "0,-5", "--json", "-"],
    ["verify", "--k", "5/16", "--json", "-"],
    ["report", "--k", "5/12", "--json", "-"],
    ["verify", "--k", "1/0", "--json", "-"],        # the error object
])
def test_real_payloads_match_json_dumps(argv, monkeypatch, capsys):
    written = []
    to_json = cli._to_json

    def recording(obj):
        written.append((obj, to_json(obj)))
        return written[-1][1]

    monkeypatch.setattr(cli, "_to_json", recording)
    cli.run(argv)
    [(payload, text)] = written
    assert text == reference(payload)
    assert capsys.readouterr().out == text + "\n"


def _mixed_reports():
    """Rows of the symbolic route, the 10-point line of the quadrature-only
    route with a failed point, commutator rows and a classical-limit row."""
    params = AlgebraParams(Fraction(5, 16), Fraction(1, 2))
    h, mid = 0.5, -0.75
    quad = [complex(-2.0 * h + 4.0 * h * j / 9, mid) for j in range(10)]
    nan = float("nan")
    reports = [VerificationReport(f"s{i}", "exchange", i != 2, i != 2, None,
                                  derived_factor="(iw + 1/2*hbar)")
               for i in range(4)]
    reports.append(VerificationReport("one", "shape", False, None, None,
                                      notes=["one term pair: a shape "
                                             "relation compares nothing"]))
    failed = [3e-10] * 10
    failed[3] = nan
    reports.append(VerificationReport(
        "quad", "exchange", False, None, nan, grid=quad, residuals=failed,
        notes=["closed form does not telescope; quadrature-only check"]))
    for name in ("[E,F]", "[F,E]"):
        reports.append(VerificationReport(
            name, "commutator-delta", True, None, 0.0,
            poles=[{"w_exact": complex(0, -1.25), "pairs": [(0, 0)]}]))
    reports.append(VerificationReport("limit[a,b;ab=1]", "classical-limit",
                                      True, True, 2.5e-14))
    return params, reports


def test_mixed_payload_matches_json_dumps():
    params, reports = _mixed_reports()
    payload = cli._payload(params, [params.hbar], reports)
    text = cli._to_json(payload)
    assert text == reference(payload)
    report = json.loads(text)
    assert set(report) == {"schema_version", "params", "relations", "pass"}
    rows = {r["id"]: r for r in report["relations"]}
    numeric = {"max_rel_err", "residuals", "grid"}
    # a row on the symbolic route has no numeric residual and no points
    for rel_id in ("s0", "s1", "s2", "s3", "one"):
        assert not numeric & set(rows[rel_id])
    quad = reports[5]
    assert rows["quad"]["grid"] == [
        {"re": format(w.real, ".17g"), "im": format(w.imag, ".17g")}
        for w in quad.grid]
    assert rows["quad"]["residuals"][3] == "nan"
    assert rows["quad"]["max_rel_err"] == "nan"
    for rel_id in ("[E,F]", "[F,E]", "limit[a,b;ab=1]"):
        assert rows[rel_id]["grid"] == rows[rel_id]["residuals"] == []
    assert rows["[E,F]"]["max_rel_err"] == "0"
    assert rows["limit[a,b;ab=1]"]["max_rel_err"] == "2.5000000000000001e-14"


def test_text_lines_print_a_residual_only_where_a_row_has_one(capsys):
    _, reports = _mixed_reports()
    cli._print_report_lines(reports, sys.stdout)
    lines = [x for x in capsys.readouterr().out.splitlines()
             if not x.startswith("     note:")]
    assert lines == [
        "PASS s0 kind=exchange", "PASS s1 kind=exchange",
        "FAIL s2 kind=exchange", "PASS s3 kind=exchange",
        "FAIL one kind=shape", "FAIL quad kind=exchange max_rel_err=nan",
        "PASS [E,F] kind=commutator-delta max_rel_err=0",
        "PASS [F,E] kind=commutator-delta max_rel_err=0",
        "PASS limit[a,b;ab=1] kind=classical-limit "
        "max_rel_err=2.5000000000000001e-14"]
