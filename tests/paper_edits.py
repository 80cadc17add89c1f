"""Seeded single-number edits of a definition file's params, kernels and
currents block: the edit generator the mutation and front-door properties
share.

Every integer literal of the block, outside comments, is a site.  A seed
picks one site and one operator (+1, -1, +2 or *2) with its own
`random.Random`, so an edit is fixed by its seed number alone.  The block
is everything before the first `relation` line.

Import with `from paper_edits import ...`; pytest puts this directory on
the import path."""

import random
import re

OPERATORS = (("+1", lambda n: n + 1), ("-1", lambda n: n - 1),
             ("+2", lambda n: n + 2), ("*2", lambda n: 2 * n))


def number_sites(text: str) -> list[tuple[int, int, int]]:
    """(line number, start, end) of each integer literal in the block, the
    offsets into the whole text."""
    sites, offset = [], 0
    for lineno, line in enumerate(text.splitlines(keepends=True), 1):
        if line.startswith("relation"):
            break
        code = line.split("#", 1)[0]
        sites += [(lineno, offset + m.start(), offset + m.end())
                  for m in re.finditer(r"\d+", code)]
        offset += len(line)
    return sites


def seeded_edit(text: str, seed: int) -> tuple[str, str]:
    """(edited text, what changed) for the edit that `seed` picks."""
    rng = random.Random(seed)
    lineno, start, end = rng.choice(number_sites(text))
    name, op = rng.choice(OPERATORS)
    old = text[start:end]
    new = str(op(int(old)))
    where = f"seed {seed}, line {lineno}: {old} {name} -> {new}"
    return text[:start] + new + text[end:], where
