"""Closed forms of every contraction term pair of the shipped catalog, frozen.

`tests/data/closed_forms.json` holds, for each level below, the `describe()`
string of `closed_form(contract(f, g, K))` for every term pair of the
DSL-bound `paper.alg` that shares a kernel family (left exponent with a t>0
branch, right one with a t<0 branch), or the name of the error raised on the
way.  Closed forms do not depend on hbar, so the catalog is bound at hbar=1.

Regenerate (only after reviewing why a closed form changed) with

    PYTHONPATH=src python tests/test_closed_form_fixture.py
"""

import importlib.resources
import json
from fractions import Fraction
from pathlib import Path

import pytest

from coset_forge import dsl
from coset_forge.contraction import closed_form, contract
from coset_forge.errors import CosetForgeError

FIXTURE = Path(__file__).parent / "data" / "closed_forms.json"
LEVELS = ("1", "2", "3", "5/2", "1/10")


def closed_forms(k: str) -> dict[str, str]:
    text = (importlib.resources.files("coset_forge") / "data" / "paper.alg").read_text()
    params, cat, _, _, _ = dsl.parse_definitions(text).bind(Fraction(k), [Fraction(1)])
    out = {}
    for a, ca in cat.currents.items():
        for b, cb in cat.currents.items():
            for ia, ta in enumerate(ca.terms):
                for ib, tb in enumerate(cb.terms):
                    for fam, K in cat.kernels.items():
                        f, g = ta.exponents.get(fam), tb.exponents.get(fam)
                        if f is None or g is None:
                            continue
                        if not (f.positive_branch and g.negative_branch):
                            continue
                        try:
                            got = closed_form(contract(f, g, K, params), params).describe()
                        except CosetForgeError as exc:
                            got = type(exc).__name__
                        out[f"{a}[{ia}].{b}[{ib}].{fam}"] = got
    return out


@pytest.mark.parametrize("k", LEVELS)
def test_closed_forms_match_fixture(k):
    frozen = json.loads(FIXTURE.read_text())[k]
    assert closed_forms(k) == frozen


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({k: closed_forms(k) for k in LEVELS},
                                  indent=1, sort_keys=True) + "\n")
