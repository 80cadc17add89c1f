"""The report writer against json.dumps(sort_keys=True, indent=1)."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coset_forge import cli


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
    ["verify", "--tol=-1", "--json", "-"],          # the error object
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
