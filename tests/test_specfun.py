"""Special-function tests against an independent high-precision oracle.

The oracle shifts the argument by 200 integer steps with compensated
summation of the logs and applies Stirling's series at the shifted point,
where it is accurate to ~1e-14; it shares no code path with the library's
reflection/shift implementation below Re z = 10.
"""

import cmath
import math

import pytest

from coset_forge.errors import NonFiniteValue, PoleAtNonPositiveInteger
from coset_forge.specfun import log_gamma

_STIRLING = [
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
    -3617 / 122400, 43867 / 244188, -174611 / 125400, 77683 / 5796,
    -236364091 / 1506960, 657931 / 300, -3392780147 / 93960,
    1723168255201 / 2492028,
]


def _stirling(z: complex) -> complex:
    out = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi)
    zi = 1.0 / z
    z2 = zi * zi
    term = zi
    for c in _STIRLING:
        out += c * term
        term *= z2
    return out


def oracle_log_gamma(z: complex) -> complex:
    """200-step recurrence shift with Kahan summation, then Stirling."""
    z = complex(z)
    if z.imag < 0:
        return oracle_log_gamma(z.conjugate()).conjugate()
    sr = si = cr = ci = 0.0
    for j in range(200):
        l = cmath.log(z + j)
        for val, idx in ((l.real, 0), (l.imag, 1)):
            if idx == 0:
                y = val - cr
                t = sr + y
                cr = (t - sr) - y
                sr = t
            else:
                y = val - ci
                t = si + y
                ci = (t - si) - y
                si = t
    return _stirling(z + 200) - complex(sr, si)


def rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1.0)


def oracle_grid(n: int = 200, rmax: float = 50.0):
    """Deterministic low-discrepancy grid avoiding the negative real axis."""
    golden = 0.6180339887498949
    pts = []
    for j in range(n):
        r = 0.4 + (rmax - 0.4) * j / (n - 1)
        theta = -math.pi + 0.15 + (2 * math.pi - 0.3) * ((j * golden) % 1.0)
        pts.append(r * cmath.exp(1j * theta))
    return pts


def test_log_gamma_trivial_values():
    assert abs(log_gamma(1.0)) < 1e-14
    assert rel_err(log_gamma(0.5), math.log(math.sqrt(math.pi))) < 1e-13


def test_log_gamma_frozen_oracle_value():
    # frozen from oracle_log_gamma(2+3j)
    frozen = complex(-2.092851753092532, 2.3023965434668696)
    assert rel_err(oracle_log_gamma(2 + 3j), frozen) < 1e-13
    assert rel_err(log_gamma(2 + 3j), frozen) < 1e-12


def test_log_gamma_matches_oracle_on_grid():
    for z in oracle_grid():
        assert rel_err(log_gamma(z), oracle_log_gamma(z)) < 1e-12, z


def test_log_gamma_large_modulus_domain():
    # stated accuracy domain extends to |z| ~ 1e3
    for z in (1000.0, 950 + 300j, -700 + 680j, 2.5 - 999j):
        assert rel_err(log_gamma(z), oracle_log_gamma(z)) < 1e-12, z


def test_log_gamma_reflection_branch_against_oracle():
    # exercise Re z < 0 near the axis, where the reflection formula is used
    for x in (-0.3, -1.7, -5.4, -19.2):
        for y in (1e-6, 0.02, 0.4):
            z = complex(x, y)
            assert rel_err(log_gamma(z), oracle_log_gamma(z)) < 1e-11, z


def test_log_gamma_pole_rejection():
    for z in (0.0, -1.0, -7.0, -3 + 1e-13j):
        with pytest.raises(PoleAtNonPositiveInteger):
            log_gamma(z)
    with pytest.raises(NonFiniteValue):
        log_gamma(complex("inf"))


def test_reflection_identity_mod_2pi():
    # log_gamma(z) + log_gamma(1-z) - log(pi/sin(pi z)) in 2*pi*i*Z off the axis
    for j in range(100):
        z = complex(-3.0 + 6.0 * j / 99, 0.35 + 1.5 * ((j * 7) % 10) / 10)
        if abs(z.real - round(z.real)) < 1e-6:
            continue
        s = log_gamma(z) + log_gamma(1 - z) - cmath.log(math.pi / cmath.sin(math.pi * z))
        assert abs(s.real) < 1e-10
        assert abs(s.imag / (2 * math.pi) - round(s.imag / (2 * math.pi))) < 1e-10


def test_recurrence_identity():
    for j in range(60):
        z = complex(-8.0 + 16.0 * j / 59, 0.7 + 0.05 * j)
        ratio = cmath.exp(log_gamma(z + 1) - log_gamma(z))
        assert abs(ratio - z) <= 1e-12 * max(abs(z), 1.0)


def test_conjugation_symmetry():
    for z in (0.3 + 2j, 5 - 1j, 11.5 + 0.25j):
        assert rel_err(log_gamma(z.conjugate()), log_gamma(z).conjugate()) < 1e-14


def test_gamma_ratio_identities():
    def gamma_ratio(x, a, b):
        """Gamma(x+a) / Gamma(x+b) through log_gamma."""
        return cmath.exp(log_gamma(x + a) - log_gamma(x + b))

    assert rel_err(gamma_ratio(3.0, 1.0, 0.0), 3.0) < 1e-12
    assert rel_err(gamma_ratio(1.2 + 0.4j, 0.7, 0.7), 1.0) < 1e-14
    # frozen from the oracle: Gamma(x+1/3)/Gamma(x-1/3) at x = 1.5+0.5i
    frozen = complex(1.0367621883285318, 0.3210933549113492)
    got = gamma_ratio(1.5 + 0.5j, 1 / 3, -1 / 3)
    via_oracle = cmath.exp(oracle_log_gamma(1.5 + 0.5j + 1 / 3)
                           - oracle_log_gamma(1.5 + 0.5j - 1 / 3))
    assert rel_err(via_oracle, frozen) < 1e-13
    assert rel_err(got, frozen) < 1e-12
