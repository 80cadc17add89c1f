"""A fixed piece of reference work that tells how fast the host runs now.

The benchmark's host is a shared VM whose speed swings by up to a factor of
two, in phases of seconds to minutes, with no change in the program.  The
client brackets every timed piece of the program (a warm session, a fresh
interpreter) by two calls of `sample()` on the same CPU, and reports its
time in *reference seconds*: the measured seconds times
``REFERENCE_S / reference``, where ``reference`` is the mean of the two
samples.  A program that got faster reads faster; a host that got slower
slows the program and the reference alike and cancels out.

The work is standard library only and never touches coset_forge, so no
change to the program can move it.  It mixes what the program spends its
time on: rational arithmetic on small polynomials, dict and list handling,
and complex elementary functions.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from time import perf_counter

# About the median of `sample()` over the runs made on the 2-core VM the
# benchmark was built on (single samples ranged from 1.8 to 4 ms).  Only a
# scale: it makes reference seconds read close to wall seconds there.
REFERENCE_S = 0.0026
REPEATS = 3


def _work() -> complex:
    p = [Fraction(i + 1, i + 2) for i in range(12)]
    acc: dict[int, Fraction] = {}
    for r in range(3):
        q = [Fraction(0)] * (2 * len(p))
        for i, a in enumerate(p):
            for j, b in enumerate(p):
                q[i + j] += a * b
        acc[r] = q[len(p)]
    z = complex(acc[0])
    for i in range(1500):
        z += cmath.exp(complex(i * 1e-3, -i * 2e-3)) * cmath.log(1 + i)
    return z


def sample() -> float:
    """Mean wall seconds of a few runs of the reference work."""
    t0 = perf_counter()
    for _ in range(REPEATS):
        _work()
    return (perf_counter() - t0) / REPEATS


def to_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two samples, in reference seconds."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
