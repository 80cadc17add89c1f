"""Closed forms of every contraction term pair of the shipped catalog, frozen.

`tests/data/closed_forms.json` holds, for each level below, the `describe()`
string of `closed_form(contract(f, g, K))` for every term pair of the
DSL-bound `paper.alg` that shares a kernel family (left exponent with a t>0
branch, right one with a t<0 branch), or the name of the error raised on the
way.  Closed forms do not depend on hbar, so the catalog is bound at hbar=1.

Regenerate (only after reviewing why a closed form changed) with

    PYTHONPATH=src python tests/test_closed_form_fixture.py
"""

import json
from pathlib import Path

import pytest

from conftest import bind_shipped, contraction_pairs
from coset_forge.contraction import closed_form, contract
from coset_forge.errors import CosetForgeError

FIXTURE = Path(__file__).parent / "data" / "closed_forms.json"
LEVELS = ("1", "2", "3", "5/2", "1/10")


def closed_forms(k: str) -> dict[str, str]:
    params, cat, _, _ = bind_shipped(k)
    out = {}
    for label, fam, f, g, K in contraction_pairs(cat):
        try:
            out[label] = closed_form(contract(f, g, K, params), params).describe()
        except CosetForgeError as exc:
            out[label] = type(exc).__name__
    return out


@pytest.mark.parametrize("k", LEVELS)
def test_closed_forms_match_fixture(k):
    frozen = json.loads(FIXTURE.read_text())[k]
    assert closed_forms(k) == frozen


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({k: closed_forms(k) for k in LEVELS},
                                  indent=1, sort_keys=True) + "\n")
