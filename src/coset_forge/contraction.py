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
from fractions import Fraction

from .errors import (DivergenceMismatch, IllPosedContraction, NonTelescoping,
                     OutsideConvergenceStrip, QuadratureNonConvergent)
from .exact import (GR, GR_I, GR_ONE, GR_ZERO, ExactConst, LaurentRational,
                    _gr, _raw, as_fraction, merge)
from .modes import AlgebraParams, ExpTrigTerm, Kernel, ModeFunction, _lcm
from .specfun import log_gamma

# numpy is imported inside quad_eval and _IntegrandEvaluator, its only users
# here: its import is about half of start-up, and the verify path never runs
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
    factors, an optional exponential-linear term, and an exact constant."""

    __slots__ = ("gammas", "linears", "const", "exp_linear", "_plan")

    def __init__(self, gammas=None, linears=None, const=None, exp_linear=Fraction(0)):
        # gammas: {(a, b, q, n, d): int exponent} for Gamma(iw/(s*hbar) + n/d)
        # with scale s = (a + b*i)/q, the fields of a GR, and n/d in lowest
        # terms, d > 0: plain integers, so a merge hashes them in C
        self.gammas: dict[tuple[int, int, int, int, int], int] = dict(gammas or {})
        # linears: {(a, b, q): int exponent} for (iw + rho*hbar)^exponent
        # with rho = (a + b*i)/q, the fields of a GR
        self.linears: dict[tuple[int, int, int], int] = dict(linears or {})
        self.const: ExactConst = const if const is not None else ExactConst.one()
        self.exp_linear = as_fraction(exp_linear)
        # float lowering for the last hbar evaluated at (see _float_plan)
        self._plan = None

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

    @staticmethod
    def from_const_gr(g: GR) -> "StructureFunction":
        return StructureFunction(const=ExactConst.one().times_gr(g))

    # -- algebra -----------------------------------------------------------
    def __mul__(self, other: "StructureFunction") -> "StructureFunction":
        g = dict(self.gammas)
        for key, e in other.gammas.items():
            merge(g, key, e)
        l = dict(self.linears)
        for key, e in other.linears.items():
            merge(l, key, e)
        x, y = self.exp_linear, other.exp_linear
        # Fraction arithmetic only when both terms are there
        return StructureFunction(g, l, self.const.times(other.const),
                                 x + y if x and y else x or y)

    def inverse(self) -> "StructureFunction":
        x = self.exp_linear
        return StructureFunction({k: -e for k, e in self.gammas.items()},
                                 {k: -e for k, e in self.linears.items()},
                                 self.const.inverse(), -x if x else x)

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
        c = self.const.times_gr(_MINUS_ONE) if odd % 2 else self.const
        x = self.exp_linear
        return StructureFunction(g, l, c, -x if x else x)

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
        return StructureFunction(g, l, self.const.wick_rotate(), self.exp_linear)

    # -- canonical form ----------------------------------------------------
    def normalize(self) -> "StructureFunction":
        """Merge Gamma factors modulo the recurrence Gamma(x+1) = x Gamma(x).

        Within each (scale, shift mod 1) class the factor is reduced to the
        representative shift in [0,1); integer offsets are emitted as linear
        factors (iw + q*scale*hbar) with exact constants (scale*hbar)^{-1}.
        """
        gammas: dict[tuple[int, int, int, int, int], int] = {}
        linears = dict(self.linears)
        const = self.const
        for key, e in self.gammas.items():
            sa, sb, sq, an, d = key
            n = an // d
            if not n:
                merge(gammas, key, e)
                continue
            # shift an/d = n + rn/d with rn/d in [0, 1), still in lowest terms
            rn = an - n * d
            merge(gammas, (sa, sb, sq, rn, d), e)
            s = _raw(sa, sb, sq)
            js = range(0, n) if n > 0 else range(n, 0)
            sign = 1 if n > 0 else -1
            for j in js:
                # rho = s * (rn + j*d)/d, in lowest terms
                x = rn + j * d
                g = math.gcd(sa * x, sb * x, sq * d)
                merge(linears, (sa * x // g, sb * x // g, sq * d // g), sign * e)
                const = const.times_base(s, 1, -sign * e)
        return StructureFunction(gammas, {k: v for k, v in linears.items() if v},
                                 const, self.exp_linear)

    def is_one(self) -> bool:
        n = self.normalize()
        return (not n.gammas and not n.linears and n.exp_linear == 0
                and n.const.is_one())

    def symbolic_eq(self, other: "StructureFunction") -> bool:
        return (self * other.inverse()).is_one()

    # -- evaluation ----------------------------------------------------------
    def _float_plan(self, hbar: float) -> tuple:
        """The exact data lowered to floats at one hbar, kept until the next
        hbar: (hbar, log const, ((e, scale*hbar, shift), ...),
        ((e, rho*hbar), ...), exp_linear).  Factors are only changed while a
        function is being built (normalize), never after it is evaluated, so
        the plan does not go stale."""
        plan = self._plan
        if plan is None or plan[0] != hbar:
            plan = self._plan = (
                hbar, cmath.log(self.const.eval(hbar)),
                tuple((e, complex(sa / sq, sb / sq) * hbar, n / d)
                      for (sa, sb, sq, n, d), e in self.gammas.items()),
                tuple((e, complex(a / q, b / q) * hbar)
                      for (a, b, q), e in self.linears.items()),
                float(self.exp_linear))
        return plan

    def log_eval(self, w: complex, hbar: float, memo: dict | None = None) -> complex:
        """log S(w) at hbar, with the float operations of a direct evaluation
        in the same order.  A memo maps Gamma arguments to their log Gamma
        values; any number of functions may share one, and the result is
        bit-identical with or without it."""
        _, s, gammas, linears, exp_linear = self._float_plan(hbar)
        for e, d, a in gammas:
            x = 1j * w / d + a
            if memo is None:
                s += e * log_gamma(x)
                continue
            lg = memo.get(x)
            if lg is None:
                lg = memo[x] = log_gamma(x)
            s += e * lg
        for e, r in linears:
            s += e * cmath.log(1j * w + r)
        if exp_linear:
            s += exp_linear * 1j * w / hbar
        return s

    def eval(self, w: complex, hbar: float, memo: dict | None = None) -> complex:
        return cmath.exp(self.log_eval(w, hbar, memo))

    # -- pole bookkeeping ----------------------------------------------------
    def rational_poles(self, hbar: float) -> list[tuple[complex, int]]:
        """Poles coming from linear factors, as (w0, order)."""
        out = []
        for (a, b, q), e in self.normalize().linears.items():
            if e < 0:
                out.append((1j * complex(a / q, b / q) * hbar, -e))
        return out

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
        if self.exp_linear:
            bits.append(f"exp({self.exp_linear} iw/h)")
        return " * ".join(bits) if bits else "1"

    def describe(self) -> str:
        return repr(self.normalize())


class ContractionIntegrand:
    """Canonical contraction integrand R(zeta) e^{-iwt}/t on (0, inf)."""

    def __init__(self, terms: list[ExpTrigTerm], lattice: int,
                 rational: LaurentRational):
        self.terms = list(terms)
        self.lattice = lattice
        self.rational = rational
        try:
            a = rational.limit_at_one()
        except ZeroDivisionError:
            raise IllPosedContraction(
                "integrand diverges faster than 1/t at the origin")
        if not a.is_real():
            raise IllPosedContraction(f"log-divergence coefficient {a} not real")
        self.log_divergence_coeff: Fraction = a.re
        self._evaluator = None

    def is_zero(self) -> bool:
        return self.rational.is_zero()

    def max_growth(self) -> Fraction:
        """Largest exponential growth rate of R(zeta(t)), in hbar*t units."""
        if self.is_zero():
            return Fraction(-10 ** 9)
        return Fraction(self.rational.num.max_exp() - self.rational.den.max_exp(),
                        2 * self.lattice)

    def strip_bound(self, hbar: float) -> float:
        """Absolute convergence requires Im w < -bound."""
        return float(self.max_growth()) * hbar

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
        # the nonzero coefficients, ascending; int / int rounds correctly,
        # so each is complex() of its Gaussian rational
        nterms, dterms = num.terms(), den.terms()
        self.nexp = np.array([e - self.nshift for e, _, _ in nterms], dtype=float)
        self.ncoef = np.array([complex(a / num.q, b / num.q) for _, a, b in nterms])
        self.dexp = np.array([e - self.dshift for e, _, _ in dterms], dtype=float)
        self.dcoef = np.array([complex(a / den.q, b / den.q) for _, a, b in dterms])
        # exact Taylor coefficients of R(zeta(t)) in powers of (eta t)
        nser = num.taylor_at_one(self.SERIES_ORDER + 4)
        dser = den.taylor_at_one(self.SERIES_ORDER + 4)
        self.series = _series_divide(nser, dser, self.SERIES_ORDER)

    def scale_hint(self) -> float:
        m = max(abs(self.nshift), abs(self.dshift), 1.0)
        return m * self.eta

    def __call__(self, t: np.ndarray, w: complex) -> np.ndarray:
        import numpy as np
        t = np.asarray(t, dtype=float)
        small = t * (abs(w) + self.scale_hint() + 1.0) < 0.01
        out = np.empty(t.shape, dtype=complex)
        if np.any(~small):
            tt = t[~small]
            lz = self.eta * tt
            numv = (self.ncoef[None, :] * np.exp(np.outer(lz, self.nexp))).sum(axis=1)
            denv = (self.dcoef[None, :] * np.exp(np.outer(lz, self.dexp))).sum(axis=1)
            expo = np.exp(((self.nshift - self.dshift) * self.eta - 1j * w) * tt)
            out[~small] = (numv / denv * expo - self.a * np.exp(-tt)) / tt
        if np.any(small):
            tt = t[small]
            out[small] = self._series_eval(tt, w)
        return out

    def _series_eval(self, t: np.ndarray, w: complex) -> np.ndarray:
        # h(t) = [R(zeta(t)) e^{-iwt} - a e^{-t}]/t as an exact-coefficient series
        import numpy as np
        n = self.SERIES_ORDER
        g = [complex(c) * self.eta ** r for r, c in enumerate(self.series)]
        coeffs = np.zeros(n + 1, dtype=complex)
        fact = 1.0
        for m in range(n + 1):
            if m:
                fact *= m
            em = (-1j * w) ** m / fact
            am = (-1.0) ** m / fact
            for r in range(n + 1 - m):
                coeffs[r + m] += g[r] * em
            coeffs[m] -= self.a * am
        # constant term cancels exactly; divide by t
        out = np.zeros(t.shape, dtype=complex)
        for r in range(n, 0, -1):
            out = out * t + coeffs[r]
        return out


def _series_divide(nser: list[GR], dser: list[GR], order: int) -> list[GR]:
    """Series quotient q with nser = dser * q, allowing a common leading zero."""
    lead = 0
    while lead < len(dser) and dser[lead].is_zero():
        if not nser[lead].is_zero():
            raise IllPosedContraction("integrand pole at t=0 beyond 1/t")
        lead += 1
    d = dser[lead:]
    nn = nser[lead:]
    q: list[GR] = []
    for r in range(order + 1):
        acc = nn[r] if r < len(nn) else GR_ZERO
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
            coeff = tf.coeff * tr.coeff * GR.of(K.sign)
            hpow = tf.hbar_power + tr.hbar_power - 2
            if hpow != 0:
                raise IllPosedContraction(
                    f"unbalanced hbar power {hpow} in contraction")
            sinh = tuple(list(tf.sinh_factors) + list(tr.sinh_factors)
                         + list(K.sinh_factors()))
            terms.append(ExpTrigTerm(coeff, 0, tf.tilt() + tr.tilt(), Fraction(0), sinh))
    dens = [1]
    for t in terms:
        dens.extend(t.denominators())
    lattice = _lcm(*dens)
    total = LaurentRational.zero()
    for t in terms:
        total = total + t.laurent(lattice)
    return ContractionIntegrand(terms, lattice, total)


# ---------------------------------------------------------------------------
# quadrature

_DE_MAX_LEVEL = 8  # 2^14 node cap is reached at level 8 with the base grid


def quad_eval(I: ContractionIntegrand, w: complex, params: AlgebraParams,
              tol: float = 1e-10) -> complex:
    """Frullani-regularized contraction integral by exp-sinh quadrature.

    Requires w inside the absolute-convergence strip Im w < -sigma*hbar.
    """
    import numpy as np
    if I.is_zero():
        return 0.0
    hbar = params.hbar_float
    bound = I.strip_bound(hbar)
    decay = -(w.imag + bound)
    if decay <= 0:
        raise OutsideConvergenceStrip(w, -bound)
    ev = I.evaluator(hbar)

    # node range: t = exp(pi/2 sinh(s)); cover until e^{-decay t} is negligible
    t_max = 60.0 / min(decay, 1.0) if decay < 1.0 else 60.0 / decay + 10.0
    s_hi = math.asinh(max(2.0 * math.log(t_max) / math.pi, 1.0)) + 0.5
    s_lo = -math.asinh(2.0 * 42.0 / math.pi)  # t ~ e^{-42}, weight kills the rest

    def level_nodes(h: float, offset: bool) -> tuple[np.ndarray, np.ndarray]:
        if offset:
            s = np.arange(s_lo + h / 2.0, s_hi, h)
        else:
            s = np.arange(s_lo, s_hi + h / 2.0, h)
        u = 0.5 * math.pi * np.sinh(s)
        t = np.exp(u)
        wgt = 0.5 * math.pi * np.cosh(s) * t
        return t, wgt

    h = 0.5
    t, wgt = level_nodes(h, offset=False)
    total = np.sum(ev(t, w) * wgt) * h
    prev = None
    for _ in range(_DE_MAX_LEVEL):
        t, wgt = level_nodes(h, offset=True)
        mid = np.sum(ev(t, w) * wgt) * h
        new = 0.5 * (total + mid)
        h *= 0.5
        err = abs(new - total)
        prev, total = total, new
        if err <= max(tol * 0.1, 1e-14 * (1.0 + abs(new))):
            return complex(total)
    if abs(total - prev) > tol * (1.0 + abs(total)):
        raise QuadratureNonConvergent(
            f"error estimate {abs(total - prev):.2e} above {tol:.1e} at node cap")
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
        for m, a, b in num.terms():
            e = _as_int(a, b, num.q, "Frullani family coefficient")
            # rho = -m/(2L)
            g = math.gcd(m, 2 * L)
            merge(linears, (-m // g, 0, 2 * L // g), -e)
        return StructureFunction(linears=linears)

    # denominator must divide zeta^{2M} - 1 for the family order M
    M = _family_order(R, L)
    if M is None:
        raise NonTelescoping(
            "family order exceeds the cap; families do not reduce to Gamma factors")
    qpoly = R.cofactor(2 * M)
    if qpoly is None:
        raise NonTelescoping("denominator does not divide the cyclotomic target")
    # R = N q zeta^{-2M} / (1 - zeta^{-2M}), q a Gaussian-integer polynomial.
    # The Gamma factors are inserted in the order the sparse product N * q
    # first meets each exponent (a sum that cancels leaves and comes back
    # at the end): the evaluation sums them in that order.
    pnum: dict[int, tuple[int, int]] = {}
    qterms = qpoly.terms()
    for e1, a1, b1 in num.terms():
        for e2, a2, b2 in qterms:
            e = e1 + e2
            a, b = pnum.get(e, (0, 0))
            a, b = a + a1 * a2 - b1 * b2, b + a1 * b2 + b1 * a2
            if a or b:
                pnum[e] = (a, b)
            else:
                del pnum[e]
    scale = GR(Fraction(M, L))
    sa, sq = scale.a, scale.q
    gammas: dict[tuple[int, int, int, int, int], int] = {}
    dsum = 0
    s1n = 0          # S1 = s1n / (2M)
    for m, (a, b) in pnum.items():
        d = _as_int(a, b, num.q, "Gamma family coefficient")
        # term d zeta^{m-2M} = d e^{(m-2M) eta t}: x = iw/D - (m-2M)/(2M)
        n = 2 * M - m
        g = math.gcd(n, 2 * M)
        merge(gammas, (sa, 0, sq, n // g, 2 * M // g), d)
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


def _as_int(a: int, b: int, q: int, what: str) -> int:
    """The coefficient (a + b*i)/q as an integer."""
    if b or a % q:
        raise NonTelescoping(f"{what} {_gr(a, b, q)!r} is not an integer")
    return a // q


def _family_order(R: LaurentRational, L: int) -> int | None:
    """Smallest M with den | (zeta^{2M} - 1), read off the cyclotomic factors
    of the denominator: a repeated factor raises NonTelescoping at once;
    otherwise M is the least M with lcm(d) | 2M over the factor orders d.
    None if M exceeds the cap 8*L*deg(den)."""
    for key, m in R.factors.items():
        if m > 1:
            raise NonTelescoping(
                f"denominator has repeated roots (cyclotomic factor of order "
                f"{abs(key)}, multiplicity {m}); families do not reduce to Gamma factors")
    order = _lcm(*(abs(key) for key in R.factors))
    M = order if order % 2 else order // 2
    return M if M <= 8 * L * max(1, R.den.max_exp()) else None


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
