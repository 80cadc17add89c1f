"""Seeded session schedules and their known answers.

Standard library only: the client process never imports coset_forge.  A
session is a JSON-serialisable dict sent to the worker; its known answer
stays on the client side in ``Session.expect``.

Every workload is a sequence of *rounds*.  A round is balanced by
construction (every level, and in integer-mix every session kind at every
level, appears equally often).  A run is a fixed number of whole rounds,
set by ``--seconds`` and the nominal length of a round (`round_count`), so
the mix of work in a run does not depend on how fast the host ran.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass


WORKLOADS = ("integer-mix", "fractional-levels", "quadrature-crosscheck")

INTEGER_KS = ("1", "3/2", "2", "5/2", "3", "7/2", "4")
HBARS = ("1", "1/2")
QUAD_KS = ("1", "2", "3", "4")
# Denominators of the fractional levels.  The exact layer's work grows with
# the denominator (lattice size): on a 2-core box a session takes about
# 1.1 s at 1/7, 2.1 s at 1/12 and 3.1 s at 1/16, so one round of these
# levels is about 17 s.  1/20 (4.5 s) and 1/30 (8 s) are left out: a
# session that long spans several of the host's swings in speed, and no
# reference sample taken around it tells how fast the host ran meanwhile.
FRACTIONAL_QS = (7, 9, 10, 11, 12, 13, 14, 16)
FRACTIONAL_ANCHOR = "2/7"

# Nominal wall seconds of one round at the seed commit, on the 2-core VM
# the benchmark was built on (worker pinned to one CPU, reference samples
# included).  They turn --seconds into a fixed number of rounds.
ROUND_SECONDS = {"integer-mix": 12.5, "fractional-levels": 16.5,
                 "quadrature-crosscheck": 0.55}

# Rows of the JSON report of a full run over the shipped catalog.
VERIFY_ROWS = 26          # 25 relations + 1 commutator_delta
REPORT_ROWS = 29          # + 3 classical-limit fits
QUAD_POINTS = 20
QUAD_TOL = 1e-8


@dataclass
class Session:
    """One closed-loop request: what the worker runs and what it must say."""

    op: str                          # "cli" or "quad"
    args: dict
    expect: dict
    label: str
    mutation: dict | None = None     # text edit the client applies first
    rows: int = 0                    # verdict rows, filled after the run
    dt: float | None = None          # wall seconds, filled after the run
    cpu: float | None = None         # CPU seconds, filled after the run
    ref: float | None = None         # reference seconds, filled after the run
    outcome: str = ""                # "ok", "wrong", "failed", "overcap"
    detail: str = ""


# ---------------------------------------------------------------------------
# known-answer controls: mutated copies of the shipped catalog

_RELATION = re.compile(r"^relation (\w+) :(.*?);", re.M | re.S)
_LINEAR = re.compile(r"\((iw|w) ([+-]) (\([^()]*\)|[^()\s*]+)\*hbar\)")
_GAMMA_HEAD = re.compile(r"-?x@\S+ ([+-]) ")


def relation_names(text: str) -> list[str]:
    return [m.group(1) for m in _RELATION.finditer(text)]


def mutation_sites(text: str) -> list[dict]:
    """Every factor constant of every exchange relation, as a text edit that
    raises the constant by one: ``(w + c*hbar)`` becomes
    ``(w + (c + 1)*hbar)`` and ``Gamma(x@s + a)`` becomes
    ``Gamma(x@s + a + 1)`` (signs kept, so the offset always moves by +1)."""
    sites = []
    for rel in _RELATION.finditer(text):
        name, lo, hi = rel.group(1), rel.start(2), rel.end(2)
        body = text[lo:hi]
        if body.lstrip().startswith("shape"):
            continue
        for m in _LINEAR.finditer(body):
            const = m.group(3)
            new_const = f"({const} + 1)" if m.group(2) == "+" else f"({const} - 1)"
            repl = f"({m.group(1)} {m.group(2)} {new_const}*hbar)"
            sites.append({"relation": name, "start": lo + m.start(),
                          "end": lo + m.end(), "old": m.group(0), "new": repl})
        pos = body.find("Gamma(")
        while pos >= 0:
            open_at = pos + len("Gamma")
            depth, j = 0, open_at
            while True:
                if body[j] == "(":
                    depth += 1
                elif body[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            inner = body[open_at + 1:j]
            head = _GAMMA_HEAD.match(inner)
            if head:
                bump = " + 1" if head.group(1) == "+" else " - 1"
                old = body[pos:j + 1]
                sites.append({"relation": name, "start": lo + pos,
                              "end": lo + j + 1, "old": old,
                              "new": old[:-1] + bump + ")"})
            pos = body.find("Gamma(", j)
    return sites


def apply_mutation(text: str, site: dict) -> str:
    if text[site["start"]:site["end"]] != site["old"]:
        raise ValueError(f"mutation site moved: {site['old']!r}")
    return text[:site["start"]] + site["new"] + text[site["end"]:]


# ---------------------------------------------------------------------------
# session constructors

def _cli(argv, expect, label, mutation=None) -> Session:
    return Session("cli", {"argv": argv}, expect, label, mutation)


def verify_all(k: str, hbar: str, json_path: str, alg_path: str | None = None,
               mutation: dict | None = None) -> Session:
    argv = ["verify"] + ([alg_path] if alg_path else []) + [
        "--k", k, "--hbar", hbar, "--json", json_path]
    if mutation is None:
        expect = {"rc": 0, "rows": VERIFY_ROWS, "fail": []}
        label = f"verify k={k} hbar={hbar}"
    else:
        expect = {"rc": 1, "rows": VERIFY_ROWS, "fail": [mutation["relation"]]}
        label = (f"verify mutated {mutation['relation']} "
                 f"[{mutation['old']} -> {mutation['new']}] k={k} hbar={hbar}")
    return _cli(argv, expect, label, mutation)


def verify_one(k: str, hbar: str, name: str, json_path: str) -> Session:
    argv = ["verify", "--k", k, "--hbar", hbar, "--relation", name,
            "--json", json_path]
    return _cli(argv, {"rc": 0, "rows": 1, "fail": []},
                f"verify --relation {name} k={k} hbar={hbar}")


def report(k: str, hbar: str, json_path: str) -> Session:
    argv = ["report", "--k", k, "--hbar", hbar, "--json", json_path]
    return _cli(argv, {"rc": 0, "rows": REPORT_ROWS, "fail": []},
                f"report k={k} hbar={hbar}")


def quad(k: str, hbar: str, pair: list) -> Session:
    return Session("quad", {"k": k, "hbar": hbar, "pair": pair,
                            "points": QUAD_POINTS},
                   {"agree_tol": QUAD_TOL},
                   f"quad {'.'.join(map(str, pair))} k={k} hbar={hbar}")


# ---------------------------------------------------------------------------
# workloads

def _integer_mix(rng: random.Random, text: str, json_path: str, alg_path: str):
    """Rounds of 42 sessions: every (k, hbar) once as a full report, once as
    a single seeded relation and once as a seeded mutated catalog, in
    seeded order.  Cheap single-relation sessions are a third of every
    round, so the median does not depend on how many rounds fit."""
    levels = [(k, h) for k in INTEGER_KS for h in HBARS]
    names = relation_names(text)
    sites = mutation_sites(text)
    while True:
        batch = []
        for k, h in levels:
            batch.append(report(k, h, json_path))
            batch.append(verify_one(k, h, rng.choice(names), json_path))
            batch.append(verify_all(k, h, json_path, alg_path,
                                    mutation=rng.choice(sites)))
        rng.shuffle(batch)
        yield batch


def _fractional_levels(rng: random.Random, json_path: str):
    """Rounds with one level p/q per denominator in FRACTIONAL_QS, in seeded
    order.  Round r takes for each q the r-th smallest numerator coprime to
    q (the first round is the 1/q ladder), so the levels of a run, and with
    them the amount of work, do not depend on the seed (numerators change a
    session's cost by up to 30%); the seed sets the order.  No level repeats
    within a run and none equals the anchor level, so a cache shared across
    sessions cannot hit."""
    used = {FRACTIONAL_ANCHOR}
    while True:
        batch = []
        for q in FRACTIONAL_QS:
            p = next(p for p in range(1, q)
                     if math.gcd(p, q) == 1 and f"{p}/{q}" not in used)
            used.add(f"{p}/{q}")
            batch.append(verify_all(f"{p}/{q}", "1", json_path))
        rng.shuffle(batch)
        yield batch


def _quadrature(rng: random.Random, pairs: dict):
    """Rounds of one contraction term pair per (k, hbar), drawn without
    replacement; pairs are reshuffled only once a level has used them all."""
    levels = sorted(pairs)
    pools = {lvl: [] for lvl in levels}
    while True:
        batch = []
        for lvl in levels:
            if not pools[lvl]:
                pools[lvl] = list(pairs[lvl])
                rng.shuffle(pools[lvl])
            batch.append(quad(lvl[0], lvl[1], pools[lvl].pop()))
        rng.shuffle(batch)
        yield batch


def round_count(workload: str, seconds: float) -> int:
    """The fewest whole rounds whose nominal length covers `seconds` (at
    least one)."""
    return max(1, math.ceil(seconds / ROUND_SECONDS[workload]))


def quad_levels() -> list[tuple[str, str]]:
    return [(k, h) for k in QUAD_KS for h in HBARS]


def anchor(workload: str, json_path: str) -> tuple[Session, tuple[str, str]]:
    """The workload's first session, which is also what ``cli_wall_s`` runs
    in a fresh interpreter, and the (k, hbar) that ``setup_s`` binds at.
    It is fixed per workload so that those two metrics compare like with
    like across seeds."""
    if workload == "integer-mix":
        return verify_all("2", "1", json_path), ("2", "1")
    if workload == "fractional-levels":
        return (verify_all(FRACTIONAL_ANCHOR, "1", json_path),
                (FRACTIONAL_ANCHOR, "1"))
    if workload == "quadrature-crosscheck":
        return _cli(["contract", "Lambda_plus", "Lambda_minus", "--k", "2",
                     "--hbar", "1", "--at", "0,-5"],
                    {"rc": 0, "agree_tol": QUAD_TOL},
                    "contract Lambda_plus Lambda_minus k=2 hbar=1 at 0,-5"), ("2", "1")
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload: str, seed: int, text: str, json_path: str, alg_path: str,
           quad_pairs: dict | None = None):
    """The seeded, endless sequence of rounds of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "integer-mix":
        return _integer_mix(rng, text, json_path, alg_path)
    if workload == "fractional-levels":
        return _fractional_levels(rng, json_path)
    if workload == "quadrature-crosscheck":
        if not quad_pairs:
            raise ValueError("quadrature-crosscheck needs the contraction pairs")
        return _quadrature(rng, quad_pairs)
    raise ValueError(f"unknown workload {workload!r}")
