"""Every seeded single-number edit of the shipped file ends a `verify` or
`report` run with all its rows, or in an input error: a check that refuses
its claim fails its own row, never the run."""

import json

import pytest

from conftest import shipped_text
from coset_forge import cli
from paper_edits import seeded_edit

# the rows of a run on the shipped file, whatever an edit fails
ROWS = {"verify": 26, "report": 29}
# what exit 2 may report for an edited file: errors in the input itself
INPUT_ERRORS = {"parse", "ExcludedLevel", "VanishingDenominator", "UndeclaredName",
                "DuplicateName", "InvalidOption", "NothingToVerify"}


@pytest.mark.parametrize("seed", range(100))
def test_a_seeded_edit_ends_in_every_row_or_an_input_error(seed, tmp_path, capsys):
    text, where = seeded_edit(shipped_text(), seed)
    path = tmp_path / "edited.alg"
    path.write_text(text)
    for command, rows in ROWS.items():
        for k in ("5/12", "3"):
            code = cli.run([command, str(path), "--k", k, "--json", "-"])
            payload = json.loads(capsys.readouterr().out)
            run = f"{where}: {command} --k {k}"
            if code == 2:
                assert payload["error"]["kind"] in INPUT_ERRORS, (run, payload)
            else:
                assert code == (0 if payload["pass"] else 1), run
                assert len(payload["relations"]) == rows, run
