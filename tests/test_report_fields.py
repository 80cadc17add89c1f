"""The exact fields of `verify --json` and `report --json`, frozen.

`tests/data/report_fields.json` holds, for each level and hbar below and
each of the two commands, every report row's id, kind, pass and
symbolic_pass flags, derived and expected factor strings, every pole entry
whole (its exact position in units of hbar, term pairs, residue scalar, its
hbar power and the matched targets), and the report's overall pass flag.
These all come from the exact layer, so they must not change when it is
reworked.  Grids, residuals, a limit row's cross-check errors and notes
are floats or carry floats, which libm may round differently on another
runner; they stay out.

Regenerate (only after reviewing why a field changed) with

    PYTHONPATH=src python tests/test_report_fields.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from coset_forge import cli

FIXTURE = Path(__file__).parent / "data" / "report_fields.json"
LEVELS = ("1", "2", "5/2", "3/7", "1/10", "13/16", "97/100")
HBARS = ("1", "1/2")
COMMANDS = ("verify", "report")


def _row(r: dict) -> dict:
    return {
        "id": r["id"], "kind": r["kind"], "pass": r["pass"],
        "symbolic_pass": r["symbolic_pass"],
        "derived_factor": r["derived_factor"],
        "expected_factor": r["expected_factor"],
        "poles": r["poles"],
    }


def report_fields(command: str, k: str, hbar: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        dest = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run([command, "--k", k, "--hbar", hbar, "--json", str(dest)])
        payload = json.loads(dest.read_text())
    return {"exit": code, "pass": payload["pass"],
            "relations": [_row(r) for r in payload["relations"]]}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("hbar", HBARS)
@pytest.mark.parametrize("k", LEVELS)
def test_report_fields_match_fixture(k, hbar, command):
    frozen = json.loads(FIXTURE.read_text())[k][hbar][command]
    assert report_fields(command, k, hbar) == frozen


@pytest.mark.parametrize("k", ["2", "3", "5/12", "13/16"])
def test_passing_exchange_rows_print_their_expected_factor(k):
    # an exact constant has one form, so a factor equal to its target
    # prints as the target does
    rows = [r for r in report_fields("verify", k, "1")["relations"]
            if r["kind"] == "exchange" and r["pass"]]
    assert len(rows) >= 10
    assert [r["id"] for r in rows if r["derived_factor"] != r["expected_factor"]] == []


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {k: {h: {c: report_fields(c, k, h) for c in COMMANDS} for h in HBARS}
         for k in LEVELS}, indent=1, sort_keys=True) + "\n")
