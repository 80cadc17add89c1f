"""The report writer against json.dumps(sort_keys=True, indent=1)."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coset_forge import cli
from coset_forge.algebra import VerificationReport, default_grid
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
    """Reports sharing one grid, a second grid of the same length, the
    10-point shape of the quadrature-only route with a failed point, and
    commutator rows with empty grids."""
    params = AlgebraParams(Fraction(5, 16), Fraction(1, 2))
    shared = default_grid(params)
    other = default_grid(params, lo=0.2, hi=5.0)
    h, mid = 0.5, -0.75
    quad = [complex(-2.0 * h + 4.0 * h * j / 9, mid) for j in range(10)]
    nan = float("nan")

    def row(rel_id, grid, residuals, kind="exchange"):
        return VerificationReport(rel_id, kind, True, True,
                                  max(residuals), grid=grid,
                                  residuals=residuals)

    reports = [row(f"s{i}", shared, [1e-15 * (i + j) for j in range(25)])
               for i in range(4)]
    reports.append(row("other", other, [2e-16 * j for j in range(25)], "shape"))
    failed = [3e-10] * 10
    failed[3] = nan
    reports.append(VerificationReport(
        "quad", "exchange", False, None, nan, grid=quad, residuals=failed,
        notes=["closed form does not telescope; quadrature-only check"]))
    reports.append(row("s_last", shared, [0.0] * 25))
    for name in ("[E,F]", "[F,E]"):
        reports.append(VerificationReport(
            name, "commutator-delta", True, None, 0.0,
            poles=[{"w_exact": complex(0, -1.25), "pairs": [(0, 0)]}]))
    return params, reports


def test_mixed_payload_matches_json_dumps():
    params, reports = _mixed_reports()
    payload = cli._payload(params, [params.hbar], reports)
    text = cli._to_json(payload)
    assert text == reference(payload)
    report = json.loads(text)

    def points(grid):
        return [{"re": format(w.real, ".17g"), "im": format(w.imag, ".17g")}
                for w in grid]

    # the report grid is written once; a row lists its own grid only when
    # its residuals are at other points
    assert report["grid"] == points(default_grid(params))
    rows = {r["id"]: r for r in report["relations"]}
    for rel_id in ("s0", "s1", "s2", "s3", "s_last"):
        assert "grid" not in rows[rel_id]
    reps = {r.rel_id: r for r in reports}
    assert rows["quad"]["grid"] == points(reps["quad"].grid)
    assert len(rows["quad"]["grid"]) == 10
    assert rows["quad"]["residuals"][3] == "nan"
    assert rows["other"]["grid"] == points(reps["other"].grid)
    assert rows["[E,F]"]["grid"] == rows["[F,E]"]["grid"] == []
    for row in rows.values():
        assert len(row["residuals"]) == len(row.get("grid", report["grid"]))


def test_verify_formats_each_grid_point_once(monkeypatch, capsys):
    # the shipped catalog's relations share one 25-point grid: formatted
    # 25 times, not once per relation and point
    calls, seen = [], []
    fmt_c, payload = cli._fmt_c, cli._payload

    def counting_fmt_c(z):
        calls.append(z)
        return fmt_c(z)

    def recording_payload(params, hbars, reports):
        seen.extend(reports)
        return payload(params, hbars, reports)

    monkeypatch.setattr(cli, "_fmt_c", counting_fmt_c)
    monkeypatch.setattr(cli, "_payload", recording_payload)
    assert cli.run(["verify", "--json", "-"]) == 0
    capsys.readouterr()
    points = {w for rep in seen for w in rep.grid}
    assert len(points) == 25
    assert sum(len(rep.grid) for rep in seen) == 625
    assert len([z for z in calls if z in points]) == 25
