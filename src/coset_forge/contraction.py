"""Two-operator contraction integrals and exchange structure functions.

A contraction is the scalar

    <A(u) B(v)> = int_0^inf f(t) g(-t) K(t) dt

with f the t>0 branch of the left exponent, g the t<0 branch of the right
one and K the oscillator commutator density.  The integrand always has the
shape  R(zeta(t)) e^{-iwt} / t  with w = u - v, R an exact Laurent rational
in zeta = e^{hbar t/(2L)}, and at worst a 1/t singularity at the origin.

Two evaluation routes are kept deliberately independent:

  * quad_eval: double-exponential quadrature of the Frullani-regularized
    integrand (the a e^{-t}/t reference term subtracted, a the exact 1/t
    coefficient);
  * closed_form: exact reduction.  After pulling the denominator into a
    single cyclotomic factor 1 - zeta^{-2M}, every numerator monomial is a
    term d e^{-xDt}/(t(1-e^{-Dt})), and Binet's integral for log Gamma gives
    the regularized value  sum_j d_j log Gamma(x_j) + (sum_j d_j x_j) log D
    exactly.  The Gamma arguments are x_j = iw/(s hbar) + shift with exact
    rational scale s and shift.

Exchange factors S with A(u)B(v) = S(u-v) B(v)A(u) are differences of two
contractions; their log divergences must cancel exactly, which is checked
symbolically.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from fractions import Fraction

from .errors import (DivergenceMismatch, IllPosedContraction, NonTelescoping,
                     OutsideConvergenceStrip, QuadratureNonConvergent)
from .exact import (GR, GR_I, GR_ONE, ExactConst, LaurentRational, _raw,
                    as_fraction, merge)
from .modes import AlgebraParams, ExpTrigTerm, Kernel, ModeFunction
from .specfun import log_gamma

# numpy is imported inside _IntegrandEvaluator, its only user here: its
# import is about half of start-up, and the verify path never runs
# quadrature.

__all__ = [
    "StructureFunction", "ContractionIntegrand", "contract", "quad_eval",
    "closed_form", "exchange_factor",
]

_MINUS_ONE = GR(-1)


def gamma_key(scale: GR, shift: Fraction) -> tuple[int, int, int, int, int]:
    """The key of Gamma(iw/(scale*hbar) + shift) in StructureFunction.gammas."""
    return scale.a, scale.b, scale.q, shift.numerator, shift.denominator


def linear_key(rho: GR) -> tuple[int, int, int]:
    """The key of (iw + rho*hbar) in StructureFunction.linears."""
    return rho.a, rho.b, rho.q


class StructureFunction:
    """Product of integer powers of linear factors (iw + rho*hbar), Gamma
    factors and an exact constant."""

    __slots__ = ("gammas", "linears", "const")

    def __init__(self, gammas=None, linears=None, const=None):
        # gammas: {(a, b, q, n, d): int exponent} for Gamma(iw/(s*hbar) + n/d)
        # with scale s = (a + b*i)/q, the fields of a GR, and n/d in lowest
        # terms, d > 0: plain integers, so a merge hashes them in C
        self.gammas: dict[tuple[int, int, int, int, int], int] = dict(gammas or {})
        # linears: {(a, b, q): int exponent} for (iw + rho*hbar)^exponent
        # with rho = (a + b*i)/q, the fields of a GR
        self.linears: dict[tuple[int, int, int], int] = dict(linears or {})
        self.const: ExactConst = const if const is not None else ExactConst.one()

    # -- constructors -----------------------------------------------------
    @staticmethod
    def one() -> "StructureFunction":
        return StructureFunction()

    @staticmethod
    def from_linear(rho, exponent: int = 1) -> "StructureFunction":
        return StructureFunction(linears={linear_key(GR.of(rho)): exponent})

    @staticmethod
    def from_gamma(scale, shift, exponent: int = 1) -> "StructureFunction":
        return StructureFunction(gammas={gamma_key(GR.of(scale), as_fraction(shift)):
                                         exponent})

    # -- algebra -----------------------------------------------------------
    def __mul__(self, other: "StructureFunction") -> "StructureFunction":
        g = dict(self.gammas)
        for key, e in other.gammas.items():
            merge(g, key, e)
        l = dict(self.linears)
        for key, e in other.linears.items():
            merge(l, key, e)
        return StructureFunction(g, l, self.const.times(other.const))

    def inverse(self) -> "StructureFunction":
        return StructureFunction({k: -e for k, e in self.gammas.items()},
                                 {k: -e for k, e in self.linears.items()},
                                 self.const.inverse())

    def negate_w(self) -> "StructureFunction":
        """Re-express the same function with w replaced by -w."""
        g = {}
        for (a, b, q, n, d), e in self.gammas.items():
            key = (-a, -b, q, n, d)
            g[key] = g.get(key, 0) + e
        l = {}
        odd = 0
        for (a, b, q), e in self.linears.items():
            # (i(-w) + rho*hbar) = -(iw - rho*hbar)
            key = (-a, -b, q)
            l[key] = l.get(key, 0) + e
            odd += e % 2
        c = self.const.times_base(_MINUS_ONE, 0, 1) if odd % 2 else self.const
        return StructureFunction(g, l, c)

    def wick_rotate(self) -> "StructureFunction":
        """Substitute hbar -> -i hbar."""
        g = {}
        for (a, b, q, n, d), e in self.gammas.items():
            key = (b, -a, q, n, d)          # (a + b*i) * -i = b - a*i
            g[key] = g.get(key, 0) + e
        l = {}
        for (a, b, q), e in self.linears.items():
            key = (b, -a, q)
            l[key] = l.get(key, 0) + e
        return StructureFunction(g, l, self.const.wick_rotate())

    # -- canonical form ----------------------------------------------------
    def normalize(self) -> "StructureFunction":
        """Merge Gamma factors modulo the recurrence Gamma(x+1) = x Gamma(x).

        Within each (scale, shift mod 1) class the factor is reduced to the
        representative shift in [0,1); an integer offset n is emitted as one
        linear factor (iw + q*scale*hbar) per unit step and the exact
        constant (scale*hbar)^{-n}, multiplied in once per Gamma factor.
        """
        gammas: dict[tuple[int, int, int, int, int], int] = {}
        linears = dict(self.linears)
        const = self.const
        for (sa, sb, sq, an, d), e in self.gammas.items():
            # shift an/d = n + rn/d with rn/d in [0, 1), still in lowest terms
            n, rn = divmod(an, d)
            merge(gammas, (sa, sb, sq, rn, d), e)
            sign = 1 if n > 0 else -1
            for j in (range(0, n) if n > 0 else range(n, 0)):
                # rho = s * (rn + j*d)/d, in lowest terms
                x = rn + j * d
                g = math.gcd(sa * x, sb * x, sq * d)
                merge(linears, (sa * x // g, sb * x // g, sq * d // g), sign * e)
            const = const.times_base(_raw(sa, sb, sq), 1, -n * e)
        return StructureFunction(gammas, {k: v for k, v in linears.items() if v},
                                 const)

    def is_one(self) -> bool:
        n = self.normalize()
        return not n.gammas and not n.linears and n.const.is_one()

    def symbolic_eq(self, other: "StructureFunction") -> bool:
        return (self * other.inverse()).is_one()

    # -- evaluation ----------------------------------------------------------
    def log_eval(self, w: complex, hbar: float) -> complex:
        """log S(w) at hbar.  The Gamma factors and then the linear factors
        are summed in sorted key order, so the value depends only on the
        factor multisets."""
        s = cmath.log(self.const.eval(hbar))
        for (sa, sb, sq, n, d), e in sorted(self.gammas.items()):
            s += e * log_gamma(1j * w / (complex(sa / sq, sb / sq) * hbar) + n / d)
        for (a, b, q), e in sorted(self.linears.items()):
            s += e * cmath.log(1j * w + complex(a / q, b / q) * hbar)
        return s

    def eval(self, w: complex, hbar: float) -> complex:
        return cmath.exp(self.log_eval(w, hbar))

    # -- pole bookkeeping ----------------------------------------------------
    def residue_at_simple_pole(self, rho0: GR) -> tuple[GR, int]:
        """Exact residue in w at the simple pole iw = -rho0*hbar of a purely
        rational structure function (Gamma-free after normalization).

        Returns (gr, hbar_power): the residue is gr * hbar^hbar_power times
        the function's exact constant.
        """
        n = self.normalize()
        if n.gammas:
            raise NonTelescoping("residues of Gamma poles are not exact here")
        key0 = linear_key(rho0)
        if n.linears.get(key0, 0) != -1:
            raise ValueError("not a simple pole of this function")
        # near iw = -rho0 hbar: (iw + rho0 hbar) = i (w - w0), so
        # Res_w = (1/i) prod_{rho != rho0} ((rho - rho0) hbar)^e
        gr = GR_ONE / GR_I
        hpow = 0
        for key, e in n.linears.items():
            if key == key0:
                continue
            base = _raw(*key) - rho0
            for _ in range(abs(e)):
                gr = gr * base if e > 0 else gr / base
            hpow += e
        return gr, hpow

    def __repr__(self):
        bits = []
        if not self.const.is_one():
            bits.append(repr(self.const))
        # describe() strings in reports order the Gamma factors by the text
        # "(scale, Fraction(n, d))" of each
        gammas = sorted(((_raw(sa, sb, sq), n, d, e)
                         for (sa, sb, sq, n, d), e in self.gammas.items()),
                        key=lambda g: f"({g[0]!r}, Fraction({g[1]}, {g[2]}))")
        for s, n, d, e in gammas:
            a = n if d == 1 else f"{n}/{d}"
            bits.append(f"Gamma(iw/({s!r}h)+{a})^{e}")
        for rho, e in sorted((repr(_raw(*key)), e) for key, e in self.linears.items()):
            bits.append(f"(iw+{rho}h)^{e}")
        return " * ".join(bits) if bits else "1"

    def describe(self) -> str:
        return repr(self.normalize())


class ContractionIntegrand:
    """Canonical contraction integrand R(zeta) e^{-iwt}/t on (0, inf)."""

    def __init__(self, lattice: int, rational: LaurentRational):
        self.lattice = lattice
        self.rational = rational
        try:
            self.log_divergence_coeff: Fraction = rational.limit_at_one()
        except ZeroDivisionError:
            raise IllPosedContraction(
                "integrand diverges faster than 1/t at the origin")
        self._growth = None
        self._evaluator = None

    def is_zero(self) -> bool:
        return self.rational.is_zero()

    def max_growth(self) -> Fraction:
        """Largest exponential growth rate of R(zeta(t)), in hbar*t units."""
        if self.is_zero():
            return Fraction(-10 ** 9)
        return Fraction(self.rational.num.max_exp() - self.rational.den_degree(),
                        2 * self.lattice)

    def strip_bound(self, hbar: float) -> float:
        """Absolute convergence requires Im w < -bound."""
        if self._growth is None:  # the float rate, once per integrand
            self._growth = float(self.max_growth())
        return self._growth * hbar

    def evaluator(self, hbar: float) -> "_IntegrandEvaluator":
        if self._evaluator is None or self._evaluator.hbar != hbar:
            self._evaluator = _IntegrandEvaluator(self, hbar)
        return self._evaluator


class _IntegrandEvaluator:
    """Vectorized numeric evaluation of the regularized integrand."""

    SERIES_ORDER = 10

    def __init__(self, I: ContractionIntegrand, hbar: float):
        import numpy as np
        self.hbar = hbar
        self.a = float(I.log_divergence_coeff)
        self.eta = hbar / (2.0 * I.lattice)
        num, den = I.rational.num, I.rational.den
        self.nshift = num.max_exp()
        self.dshift = den.max_exp()
        self.scale_hint = max(abs(self.nshift), abs(self.dshift), 1.0) * self.eta
        self.base_rate = (self.nshift - self.dshift) * self.eta
        # the nonzero coefficients, ascending; int / int rounds correctly,
        # so each is float() of its rational
        nterms, dterms = num.terms(), den.terms()
        self.nexp = np.array([e - self.nshift for e, _ in nterms], dtype=float)
        self.ncoef = np.array([c / num.q for _, c in nterms], dtype=complex)
        self.dexp = np.array([e - self.dshift for e, _ in dterms], dtype=float)
        self.dcoef = np.array([c / den.q for _, c in dterms], dtype=complex)
        # exact Taylor coefficients of R(zeta(t)) in powers of (eta t),
        # and their float values g_r = c_r eta^r, converted once here
        nser = num.taylor_at_one(self.SERIES_ORDER + 4)
        dser = den.taylor_at_one(self.SERIES_ORDER + 4)
        self.series = _series_divide(nser, dser, self.SERIES_ORDER)
        self.float_series = [complex(c) * self.eta ** r
                             for r, c in enumerate(self.series)]
        # the w-free factors of series_coeffs: m! and a (-1)^m / m!
        self.fact = [float(math.factorial(m)) for m in range(self.SERIES_ORDER + 1)]
        self.ref_series = [self.a * ((-1.0) ** m / f) for m, f in enumerate(self.fact)]
        # per refinement level: t, wgt, t as a list, ratio, b, the index of
        # ratio[0] and the node count of each s_hi seen
        empty = np.empty(0)
        self._levels = [(empty, empty, [], empty, empty, 0, {})
                        for _ in range(_DE_MAX_LEVEL + 1)]
        # the offset level at which the last point stopped: the next point
        # takes the levels up to it in its first pass, the first point 0-3
        self.depth = 3

    def level(self, j: int, s_hi: float, reach: float):
        """Refinement level j (0 the base grid, j >= 1 the offset grid of step
        2^-j) up to the upper node cutoff s_hi, as (t, wgt, n, ratio, b):
        ascending nodes and weights, the n nodes with t * reach < 0.01 that
        take the series, and R(zeta(t)) and a e^{-t} at the rest.

        None of it depends on w, so each level keeps its nodes for the
        largest s_hi asked so far, the node count of every s_hi asked, and
        ratio and b for the nodes from the smallest series cutoff asked so
        far.  arange runs only for a new s_hi; it fills start + i*step, so a
        longer level extends a shorter one, and a point computes R only at
        nodes no earlier point had and none it sends to the series."""
        import numpy as np
        t, wgt, nodes, ratio, b, first, counts = self._levels[j]
        known = len(t)
        m = counts.get(s_hi)
        if m is None:
            h = 0.5 ** max(j, 1)
            if j:
                s = np.arange(_DE_S_LO + h / 2.0, s_hi, h)
            else:
                s = np.arange(_DE_S_LO, s_hi + h / 2.0, h)
            m = counts[s_hi] = len(s)
            if m > known:
                t = np.exp(0.5 * math.pi * np.sinh(s))
                wgt = 0.5 * math.pi * np.cosh(s) * t
                nodes = t.tolist()
        n = _series_cutoff(nodes, m, reach)
        if n > known:  # the level's first point: nothing stored reaches it
            ratio, b, first = ratio[:0], b[:0], n
            known = n
        if n < first or m > known:
            (r0, b0), (r1, b1) = self._far(t[n:first]), self._far(t[known:m])
            ratio = np.concatenate((r0, ratio, r1))
            b = np.concatenate((b0, b, b1))
            first = min(first, n)
        self._levels[j] = t, wgt, nodes, ratio, b, first, counts
        return t[:m], wgt[:m], n, ratio[n - first:m - first], b[n - first:m - first]

    def values(self, levels, w: complex, s_hi: float,
               coeffs: list[complex]) -> list[tuple[np.ndarray, np.ndarray]]:
        """(integrand values, weights) of each of the levels at the strip
        point w, with series_coeffs(w) given: one exp over all their far
        nodes and one Horner over all their series nodes."""
        import numpy as np
        reach = abs(w) + self.scale_hint + 1.0
        got = [self.level(j, s_hi, reach) for j in levels]
        if len(got) == 1:
            t, _, n, ratio, b = got[0]
            tt, tn = t[n:], t[:n]
        else:
            tt = np.concatenate([t[n:] for t, _, n, _, _ in got])
            tn = np.concatenate([t[:n] for t, _, n, _, _ in got])
            ratio = np.concatenate([g[3] for g in got])
            b = np.concatenate([g[4] for g in got])
        far = (ratio * np.exp((self.base_rate - 1j * w) * tt) - b) / tt
        # h(t) by Horner, in place, the nodes cast to complex once rather
        # than in each product; the constant term cancels exactly, so the
        # series starts at coeffs[1]
        near, tn = np.zeros(tn.shape, dtype=complex), tn.astype(complex)
        for c in coeffs[:0:-1]:
            near *= tn
            near += c
        out, i, k = [], 0, 0
        for t, wgt, n, _, _ in got:
            m = len(t)
            out.append((np.concatenate((near[i:i + n], far[k:k + m - n])), wgt))
            i, k = i + n, k + m - n
        return out

    def _far(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """R(zeta(t)) and a e^{-t} at nodes t away from the origin."""
        import numpy as np
        lz = self.eta * t
        numv = (self.ncoef[None, :] * np.exp(np.outer(lz, self.nexp))).sum(axis=1)
        denv = (self.dcoef[None, :] * np.exp(np.outer(lz, self.dexp))).sum(axis=1)
        return numv / denv, self.a * np.exp(-t)

    def series_coeffs(self, w: complex) -> list[complex]:
        """Taylor coefficients of R(zeta(t)) e^{-iwt} - a e^{-t} in powers of
        t, whose quotient by t is the integrand h(t) near the origin."""
        n = self.SERIES_ORDER
        g = self.float_series
        x = -1j * w
        # summed as Python complexes, the same floats as in an array
        coeffs = [0j] * (n + 1)
        for m, (fact, ref) in enumerate(zip(self.fact, self.ref_series)):
            em = x ** m / fact
            for r in range(n + 1 - m):
                coeffs[r + m] += g[r] * em
            coeffs[m] -= ref
        return coeffs


def _series_cutoff(nodes: list[float], m: int, reach: float) -> int:
    """The first i < m with nodes[i] * reach >= 0.01, else m: the index
    searchsorted(t[:m] * reach, 0.01) gives, the same float products taken
    in Python.  bisect guesses it; the products either side fix it."""
    i = bisect_left(nodes, 0.01 / reach, 0, m)
    while i < m and nodes[i] * reach < 0.01:
        i += 1
    while i and nodes[i - 1] * reach >= 0.01:
        i -= 1
    return i


def _series_divide(nser: list[Fraction], dser: list[Fraction],
                   order: int) -> list[Fraction]:
    """Series quotient q with nser = dser * q, allowing a common leading zero."""
    lead = 0
    while lead < len(dser) and not dser[lead]:
        if nser[lead]:
            raise IllPosedContraction("integrand pole at t=0 beyond 1/t")
        lead += 1
    d = dser[lead:]
    nn = nser[lead:]
    q: list[Fraction] = []
    for r in range(order + 1):
        acc = nn[r] if r < len(nn) else Fraction(0)
        for j in range(1, min(r, len(d) - 1) + 1):
            acc = acc - d[j] * q[r - j]
        q.append(acc / d[0])
    return q


# ---------------------------------------------------------------------------
# contraction construction

def contract(f: ModeFunction, g: ModeFunction, K: Kernel,
             params: AlgebraParams) -> ContractionIntegrand:
    """Integrand of <A(u) B(v)>: f's t>0 branch against g's t<0 branch
    reflected, times the commutator density (its 1/(hbar^2 t) divisor is
    carried implicitly: hbar powers must cancel and the 1/t is part of the
    integrand shape)."""
    terms = []
    for tf in f.positive_branch:
        for tg in g.negative_branch:
            tr = tg.reflected()
            coeff = tf.coeff * tr.coeff * K.sign
            hpow = tf.hbar_power + tr.hbar_power - 2
            if hpow != 0:
                raise IllPosedContraction(
                    f"unbalanced hbar power {hpow} in contraction")
            sinh = tuple(list(tf.sinh_factors) + list(tr.sinh_factors)
                         + list(K.sinh_factors()))
            terms.append(ExpTrigTerm(coeff, 0, tf.tilt() + tr.tilt(), Fraction(0), sinh))
    lattice = math.lcm(*(d for t in terms for d in t.denominators()))
    total = LaurentRational.zero()
    for t in terms:
        total = total + t.laurent(lattice)
    return ContractionIntegrand(lattice, total)


# ---------------------------------------------------------------------------
# quadrature

_DE_MAX_LEVEL = 8  # offset levels after the base grid: at most 2,978-3,648
# nodes in all (decay 10 down to 1e-3), each evaluated once
_DE_TOL = 1e-10  # error estimate at which refinement stops
_DE_S_LO = -math.asinh(2.0 * 42.0 / math.pi)  # t ~ e^{-42}, weight kills the rest


def quad_eval(I: ContractionIntegrand, w: complex, params: AlgebraParams) -> complex:
    """Frullani-regularized contraction integral by exp-sinh quadrature.

    Requires w inside the absolute-convergence strip Im w < -sigma*hbar.
    """
    if I.is_zero():
        return 0j
    hbar = params.hbar_float
    bound = I.strip_bound(hbar)
    decay = -(w.imag + bound)
    if decay <= 0:
        raise OutsideConvergenceStrip(w, -bound)
    ev = I.evaluator(hbar)
    coeffs = ev.series_coeffs(w)  # once for all levels

    # node range: t = exp(pi/2 sinh(s)); cover until e^{-decay t} is negligible
    t_max = 60.0 / min(decay, 1.0) if decay < 1.0 else 60.0 / decay + 10.0
    s_hi = math.asinh(max(2.0 * math.log(t_max) / math.pi, 1.0)) + 0.5

    # the first pass takes the levels up to the one at which the integrand's
    # previous point stopped, the rest come one pass each; each level is
    # summed over its own nodes in its own order, so every partial sum, and
    # with it the stopping level, is the same float however the passes fall
    h = 0.5
    batch = ev.values(range(ev.depth + 1), w, s_hi, coeffs)
    total = (batch[0][0] * batch[0][1]).sum() * h
    prev = None
    for level in range(1, _DE_MAX_LEVEL + 1):
        f, wgt = (batch[level] if level < len(batch)
                  else ev.values([level], w, s_hi, coeffs)[0])
        mid = (f * wgt).sum() * h
        new = 0.5 * (total + mid)
        h *= 0.5
        err = abs(new - total)
        prev, total = total, new
        ev.depth = level
        if err <= max(_DE_TOL * 0.1, 1e-14 * (1.0 + abs(new))):
            return complex(total)
    if abs(total - prev) > _DE_TOL * (1.0 + abs(total)):
        raise QuadratureNonConvergent(
            f"error estimate {abs(total - prev):.2e} above {_DE_TOL:.1e} at node cap, "
            f"w = {w}, strip bound {bound}")
    return complex(total)


# ---------------------------------------------------------------------------
# closed form

def closed_form(I: ContractionIntegrand, params: AlgebraParams) -> StructureFunction:
    """Exact structure function with exp(closed_form) = exp(quad_eval).

    Pure exponential families reduce by Frullani to linear factors.  A
    squarefree cyclotomic denominator divides zeta^{2M} - 1 for the family
    order M; the quotient, found by exact integer division, turns the
    integrand into families over the single factor 1 - zeta^{-2M}, which
    reduce to Gamma factors with the exact regularization constant
    D^{sum d_j x_j}.  Denominators with repeated roots do not telescope and
    raise NonTelescoping.
    """
    if I.is_zero():
        return StructureFunction.one()
    R, L = I.rational, I.lattice
    num = R.num
    if not R.factors:
        # denominator 1: purely exponential families
        linears: dict[tuple[int, int, int], int] = {}
        for m, a in num.terms():
            e = _as_int(a, num.q, "Frullani family coefficient")
            # rho = -m/(2L)
            g = math.gcd(m, 2 * L)
            merge(linears, (-m // g, 0, 2 * L // g), -e)
        return StructureFunction(linears=linears)

    # denominator must divide zeta^{2M} - 1 for the family order M
    M = _family_order(R, L)
    if M is None:
        raise NonTelescoping(
            "family order exceeds the cap; families do not reduce to Gamma factors")
    # every order d divides 2M and den is squarefree, so den divides
    # zeta^{2M} - 1: R = N q zeta^{-2M} / (1 - zeta^{-2M}), q an integer
    # polynomial
    pnum = num * R.cofactor(2 * M)
    scale = GR(Fraction(M, L))
    sa, sq = scale.a, scale.q
    gammas: dict[tuple[int, int, int, int, int], int] = {}
    dsum = 0
    s1n = 0          # S1 = s1n / (2M)
    for m, a in pnum.terms():
        d = _as_int(a, pnum.q, "Gamma family coefficient")
        # term d zeta^{m-2M} = d e^{(m-2M) eta t}: x = iw/D - (m-2M)/(2M)
        n = 2 * M - m
        g = math.gcd(n, 2 * M)
        gammas[sa, 0, sq, n // g, 2 * M // g] = d
        dsum += d
        s1n -= d * (m - 2 * M)
    if dsum:
        raise IllPosedContraction("family coefficients do not sum to zero")
    # regularization constant D^{S1} with D = scale * hbar
    s1 = Fraction(s1n, 2 * M)
    out = StructureFunction(gammas, const=ExactConst.one().times_base(scale, 1, s1))
    # internal consistency: -S1 must equal the 1/t coefficient
    if -s1 != I.log_divergence_coeff:
        raise IllPosedContraction(
            f"divergence bookkeeping mismatch: {-s1} vs {I.log_divergence_coeff}")
    return out


def _as_int(a: int, q: int, what: str) -> int:
    """The coefficient a/q as an integer."""
    if a % q:
        raise NonTelescoping(f"{what} {Fraction(a, q)} is not an integer")
    return a // q


def _family_order(R: LaurentRational, L: int) -> int | None:
    """Smallest M with den | (zeta^{2M} - 1), read off the cyclotomic factors
    of the denominator: a repeated factor raises NonTelescoping at once,
    naming the repeated factor of least order; otherwise M is the least M
    with lcm(d) | 2M over the factor orders d.  None if M exceeds the cap
    8*L*deg(den)."""
    repeated = [(d, m) for d, m in R.factors.items() if m > 1]
    if repeated:
        d, m = min(repeated)
        raise NonTelescoping(
            f"denominator has repeated roots (cyclotomic factor of order "
            f"{d}, multiplicity {m}); families do not reduce to Gamma factors")
    order = math.lcm(*R.factors)
    M = order if order % 2 else order // 2
    return M if M <= 8 * L * max(1, R.den_degree()) else None


# ---------------------------------------------------------------------------
# exchange factors

def exchange_factor(f: ModeFunction, g: ModeFunction, K: Kernel,
                    params: AlgebraParams) -> StructureFunction:
    """S(w) with A(u)B(v) = S(u-v) B(v)A(u), from the two contraction
    orderings.  The log-divergence coefficients must cancel exactly."""
    fwd = contract(f, g, K, params)
    rev = contract(g, f, K, params)
    if fwd.log_divergence_coeff != rev.log_divergence_coeff:
        raise DivergenceMismatch(
            f"1/t coefficients differ: {fwd.log_divergence_coeff} vs "
            f"{rev.log_divergence_coeff}")
    s_f = closed_form(fwd, params)
    s_r = closed_form(rev, params)
    # returned unreduced: the raw Gamma multiset is meaningful on its own
    # (golden-factor comparisons); callers normalize when cancelling.
    return s_f * s_r.negate_w().inverse()
