"""Two-operator contraction integrals and exchange structure functions.

A contraction is the scalar

    <A(u) B(v)> = int_0^inf f(t) g(-t) K(t) dt

with f the t>0 branch of the left exponent, g the t<0 branch of the right
one and K the oscillator commutator density.  The integrand always has the
shape  R(zeta(t)) e^{-iwt} / t  with w = u - v, R an exact Laurent rational
in zeta = e^{hbar t/(2L)}, and at worst a 1/t singularity at the origin.

Every route starts from one product per term pair, c e^{tau hbar t}
prod_j sinh(beta_j hbar t)^{e_j} in integers (_pair_product: the t<0 term
reflected, K's factors merged in, the hbar balance checked).  contract sums
a pair set's products as one Laurent rational (modes.sinh_laurent), which
two evaluation routes then read independently:

  * quad_eval: double-exponential quadrature of the Frullani-regularized
    integrand (the a e^{-t}/t reference term subtracted, a the exact 1/t
    coefficient);
  * closed_form: exact reduction.  After pulling the denominator into a
    single cyclotomic factor 1 - zeta^{-2M}, every numerator monomial is a
    term d e^{-xDt}/(t(1-e^{-Dt})), and Binet's integral for log Gamma gives
    the regularized value  sum_j d_j log Gamma(x_j) + (sum_j d_j x_j) log D
    exactly.  The Gamma arguments are x_j = iw/(s hbar) + shift with exact
    rational scale s and shift.

The verify path derives each term pair's closed form with pair_closed_form,
straight from the pair's product, with no Laurent rational: its counts of
each cyclotomic factor are the denominator.  Where a term pair refuses,
the family's summed integrand decides: its closed_form, which contract
prints, so a family derives on both paths or on neither.  The two exact
routes share their last two steps.  _family_order decides from the
denominator's cyclotomic factors whether the families telescope, and at
which family order M; _integrated turns the families into Frullani's
linear factors or Binet's Gamma factors (DLMF 5.9).  The reductions to
those families stay apart, so the pair rule's agreement with closed_form
on every product, exceptions included, still checks one against the
other; the product itself is checked against the terms' and the kernel's
own float values.

Exchange factors S with A(u)B(v) = S(u-v) B(v)A(u) are differences of two
contractions; their log divergences must cancel exactly, which is checked
symbolically.
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_left
from fractions import Fraction

from .errors import (DivergenceMismatch, IllPosedContraction, MissingDependency,
                     NonFiniteValue, NonTelescoping, OutsideConvergenceStrip,
                     QuadratureNonConvergent)
from .exact import (GR, GR_I, GR_ONE, ExactConst, LaurentRational, _divisors,
                    _over_binomial, _phi_binomials, _raw, _times_phis,
                    _unit_factors, as_fraction, merge)
from .modes import (AlgebraParams, ExpTrigTerm, Kernel, ModeFunction,
                    sinh_laurent, times_binomial)
from .specfun import log_gamma

# numpy is imported only for quadrature (require_numpy, which
# _IntegrandEvaluator calls first): its import is about half of start-up,
# and the verify path runs quadrature only for a relation that does not
# telescope.

__all__ = [
    "StructureFunction", "ContractionIntegrand", "contract", "quad_eval",
    "closed_form", "pair_closed_form", "exchange_factor", "require_numpy",
]


def require_numpy():
    """numpy, which quadrature needs; a MissingDependency, not an import
    error, when it is not installed."""
    try:
        import numpy
    except ModuleNotFoundError as exc:
        raise MissingDependency(
            "quadrature needs numpy, which is not installed") from exc
    return numpy

_MINUS_ONE = GR(-1)


def gamma_key(scale: GR, shift: Fraction) -> tuple[int, int, int, int, int]:
    """The key of Gamma(iw/(scale*hbar) + shift) in StructureFunction.gammas."""
    return scale.a, scale.b, scale.q, shift.numerator, shift.denominator


def linear_key(rho: GR) -> tuple[int, int, int]:
    """The key of (iw + rho*hbar) in StructureFunction.linears."""
    return rho.a, rho.b, rho.q


class StructureFunction:
    """Product of integer powers of linear factors (iw + rho*hbar), Gamma
    factors and an exact constant; never changed, so normalize() keeps one."""

    __slots__ = ("gammas", "linears", "const", "_normal", "_bound")

    def __init__(self, gammas=None, linears=None, const=None):
        # gammas: {(a, b, q, n, d): int exponent} for Gamma(iw/(s*hbar) + n/d)
        # with scale s = (a + b*i)/q, the fields of a GR, and n/d in lowest
        # terms, d > 0: plain integers, so a merge hashes them in C
        self.gammas: dict[tuple[int, int, int, int, int], int] = dict(gammas or {})
        # linears: {(a, b, q): int exponent} for (iw + rho*hbar)^exponent
        # with rho = (a + b*i)/q, the fields of a GR
        self.linears: dict[tuple[int, int, int], int] = dict(linears or {})
        self.const: ExactConst = const if const is not None else ExactConst.one()
        self._normal: StructureFunction | None = None
        self._bound: tuple | None = None

    @staticmethod
    def _made(gammas: dict, linears: dict, const: ExactConst) -> "StructureFunction":
        """The function with these factors, keeping the dicts it is given:
        for dicts just built, which no one else holds."""
        sf = object.__new__(StructureFunction)
        sf.gammas, sf.linears, sf.const = gammas, linears, const
        sf._normal = sf._bound = None
        return sf

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
    def product(factors) -> "StructureFunction":
        """The product of `factors` in one pass, merged in their order: the
        factor itself when there is one, 1 when there is none."""
        if len(factors) == 1:
            return factors[0]
        g: dict[tuple[int, int, int, int, int], int] = {}
        l: dict[tuple[int, int, int], int] = {}
        const = ExactConst.one()
        for sf in factors:
            for key, e in sf.gammas.items():
                merge(g, key, e)
            for key, e in sf.linears.items():
                merge(l, key, e)
            const = const.times(sf.const)
        return StructureFunction._made(g, l, const)

    @staticmethod
    def exchange(s_f: "StructureFunction", s_r: "StructureFunction"
                 ) -> "StructureFunction":
        """S_f(w) / S_r(-w) in one pass, the exchange factor of the two
        orderings' closed forms: S_f's factors, then S_r's with w and the
        exponent negated; (i(-w) + rho*hbar) = -(iw - rho*hbar) gives S_r's
        constant a sign for an odd total linear exponent."""
        g = dict(s_f.gammas)
        for (a, b, q, n, d), e in s_r.gammas.items():
            merge(g, (-a, -b, q, n, d), -e)
        l = dict(s_f.linears)
        for (a, b, q), e in s_r.linears.items():
            merge(l, (-a, -b, q), -e)
        c = s_r.const
        if sum(s_r.linears.values()) % 2:
            c = c.times_base(_MINUS_ONE, 0, 1)
        return StructureFunction._made(g, l, s_f.const.times(c.inverse()))

    # -- algebra -----------------------------------------------------------
    def __mul__(self, other: "StructureFunction") -> "StructureFunction":
        g = dict(self.gammas)
        for key, e in other.gammas.items():
            merge(g, key, e)
        l = dict(self.linears)
        for key, e in other.linears.items():
            merge(l, key, e)
        return StructureFunction._made(g, l, self.const.times(other.const))

    def inverse(self) -> "StructureFunction":
        return StructureFunction._made({k: -e for k, e in self.gammas.items()},
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
        return StructureFunction._made(g, l, c)

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
        return StructureFunction._made(g, l, self.const.wick_rotate())

    # -- canonical form ----------------------------------------------------
    def normalize(self) -> "StructureFunction":
        """Merge Gamma factors modulo the recurrence Gamma(x+1) = x Gamma(x).

        Within each (scale, shift mod 1) class the factor is reduced to the
        representative shift in [0,1); an integer offset n is emitted as one
        linear factor (iw + q*scale*hbar) per unit step and the exact
        constant (scale*hbar)^{-n}, multiplied in once per scale with the
        summed power.  A scale the constant cannot hold (not i^j times a
        positive rational) raises ValueError once it has an integer offset.
        """
        if self._normal is not None:
            return self._normal
        gammas: dict[tuple[int, int, int, int, int], int] = {}
        linears = dict(self.linears)
        # per scale with an integer offset: the summed power n*e
        powers: dict[tuple[int, int, int], int] = {}
        for (sa, sb, sq, an, d), e in self.gammas.items():
            # shift an/d = n + rn/d with rn/d in [0, 1), still in lowest terms
            n, rn = divmod(an, d)
            merge(gammas, (sa, sb, sq, rn, d), e)
            if not n * e:   # no step, and no power of the scale to check
                continue
            sign = 1 if n > 0 else -1
            for j in (range(0, n) if n > 0 else range(n, 0)):
                # rho = s * (rn + j*d)/d, in lowest terms
                x = rn + j * d
                g = math.gcd(sa * x, sb * x, sq * d)
                merge(linears, (sa * x // g, sb * x // g, sq * d // g), sign * e)
            scale = (sa, sb, sq)
            powers[scale] = powers.get(scale, 0) + n * e
        const = self.const
        for scale, p in powers.items():
            if p:
                const = const.times_base(_raw(*scale), 1, -p)
            else:
                _unit_factors(*scale)   # refuses the scale as times_base would
        self._normal = StructureFunction._made(
            gammas, {k: v for k, v in linears.items() if v}, const)
        return self._normal

    def is_one(self) -> bool:
        n = self.normalize()
        return not n.gammas and not n.linears and n.const.is_one()

    def raw_eq(self, other: "StructureFunction") -> bool:
        """The same Gamma factors, linear factors and constant, as they
        stand: equal values at every point, bit for bit."""
        return (self.gammas == other.gammas and self.linears == other.linears
                and self.const == other.const)

    def symbolic_eq(self, other: "StructureFunction") -> bool:
        """Equal normalized forms, normalize being multiplicative; a complex
        Gamma scale may normalize only once it cancels in self / other."""
        try:
            a, b = self.normalize(), other.normalize()
        except ValueError:
            return (self * other.inverse()).is_one()
        return a.raw_eq(b)

    # -- evaluation ----------------------------------------------------------
    def log_eval(self, w: complex, hbar: float) -> complex:
        """log S(w) at hbar.  The Gamma factors and then the linear factors
        are summed in sorted key order, so the value depends only on the
        factor multisets."""
        _, s, gammas, linears = self._bind(hbar)
        iw = 1j * w
        for e, scale, shift in gammas:
            s += e * log_gamma(iw / scale + shift)
        for e, rho in linears:
            s += e * cmath.log(iw + rho)
        return s

    def _bind(self, hbar: float) -> tuple:
        """What log_eval needs at hbar before w comes in: hbar, the log of
        the constant, (e, scale*hbar, shift) for each Gamma factor and
        (e, rho*hbar) for each linear factor, in sorted key order.  Kept for
        the last hbar asked."""
        bound = self._bound
        if bound is None or bound[0] != hbar:
            bound = self._bound = (
                hbar, cmath.log(self.const.eval(hbar)),
                [(e, complex(sa / sq, sb / sq) * hbar, n / d)
                 for (sa, sb, sq, n, d), e in sorted(self.gammas.items())],
                [(e, complex(a / q, b / q) * hbar)
                 for (a, b, q), e in sorted(self.linears.items())])
        return bound

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
    """Numeric evaluation of the regularized integrand h, one refinement
    level sum at a time.

    A level with m nodes and series cutoff n sums

        sum_i wgt_i h(t_i) = sum_{r=1..10} c_r(w) M_{r-1}[n]
                             + A[n:m] . exp((base_rate - iw) t[n:m])
                             - a sum G[n:m]

    with c_r(w) the series coefficients and three w-free inputs: the weight
    moments M and the window sum of G = wgt e^{-t}/t, kept with the level's
    node table, which every integrand shares, and A = wgt R(zeta(t))/t at
    the far nodes, kept here.  R has rational coefficients, so it is taken
    in real arithmetic; c(w) is one product of a w-free Toeplitz matrix of
    R's series with the powers of -iw.
    """

    SERIES_ORDER = 10

    def __init__(self, I: ContractionIntegrand, hbar: float):
        np = require_numpy()
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
        self.ncoef = np.array([c / num.q for _, c in nterms])
        self.dexp = np.array([e - self.dshift for e, _ in dterms], dtype=float)
        self.dcoef = np.array([c / den.q for _, c in dterms])
        # Taylor coefficients of R(zeta(t)) in powers of (eta t), each the
        # float of its exact value, and g_r = c_r eta^r in powers of t;
        # powers of eta beyond the float range raise NonFiniteValue
        self.series = _series_quotient(nterms, num.q, dterms, den.q, self.SERIES_ORDER)
        try:
            self.float_series = [complex(c) * self.eta ** r
                                 for r, c in enumerate(self.series)]
            finite = all(map(cmath.isfinite, self.float_series))
        except OverflowError:
            finite = False
        if not finite:
            raise NonFiniteValue(f"the small-t series overflows at hbar = {hbar}")
        # the w-free factors of series_coeffs: the lower triangular Toeplitz
        # matrix of g_r, whose row r is the convolution's r-th output, m!
        # and a (-1)^m / m!
        order = self.SERIES_ORDER
        self.toeplitz = np.append(self.float_series, 0j)[_toeplitz_index(order)]
        self.fact = [float(math.factorial(m)) for m in range(order + 1)]
        self.ref_series = np.array([self.a * ((-1.0) ** m / f)
                                    for m, f in enumerate(self.fact)])
        # per refinement level: A and the node index of its first entry
        self._weights = [(np.empty(0, dtype=complex), 0)
                         for _ in range(_DE_MAX_LEVEL + 1)]

    def level_sums(self, w: complex, s_hi: float):
        """sum_i wgt_i h(t_i) over each refinement level in turn, the base
        grid first, up to the upper node cutoff s_hi at the strip point w."""
        import numpy as np
        reach = abs(w) + self.scale_hint + 1.0
        rate = self.base_rate - 1j * w
        # once for all levels; the constant term cancels exactly
        c = self.series_coeffs(w)[1:]
        for j in range(_DE_MAX_LEVEL + 1):
            # the node count and A read in place where they are known; the
            # table and A are built, or grown, only on a miss
            table = _TABLES[j]
            m = table[3].get(s_hi) if table else None
            if m is None:
                table, m = _node_table(j, s_hi)
            t, wgt, nodes, _, moments, g = table
            n = _series_cutoff(nodes, m, reach)
            A, first = self._weights[j]
            if first <= n and m <= first + len(A):
                far = A[n - first:m - first]
            else:
                far = self._far_weights(j, t, wgt, n, m)
            yield (moments[n].dot(c) + far.dot(np.exp(rate * t[n:m]))
                   - self.a * _window_sum(j, g, n, m))

    def _far_weights(self, j: int, t: np.ndarray, wgt: np.ndarray, n: int,
                     m: int) -> np.ndarray:
        """A at the nodes n..m-1 of level j.  Each level keeps A from the
        smallest series cutoff to the largest node count asked so far, so a
        point computes R only at nodes no earlier point had and none it
        sends to the series."""
        import numpy as np
        A, first = self._weights[j]
        known = first + len(A)
        if not len(A):  # the level's first point
            first = known = n
        blocks = [A]
        if n < first:
            blocks.insert(0, self._far(t[n:first], wgt[n:first]))
        if m > known:
            blocks.append(self._far(t[known:m], wgt[known:m]))
        if len(blocks) > 1:
            A = np.concatenate(blocks)
            first = min(first, n)
            self._weights[j] = A, first
        return A[n - first:m - first]

    def _far(self, t: np.ndarray, wgt: np.ndarray) -> np.ndarray:
        """wgt R(zeta(t)) / t at nodes t away from the origin, in blocks of
        at most _FAR_ENTRIES node x term entries; each node is summed alone.
        R is real, so it is taken in real arithmetic and made complex once,
        for the dot products it meets."""
        import numpy as np
        step = max(1, _FAR_ENTRIES // max(len(self.nexp), len(self.dexp)))
        r = np.empty(len(t))
        for i in range(0, len(t), step):
            lz = self.eta * t[i:i + step]
            r[i:i + step] = (_branch_sums(lz, self.nexp, self.ncoef)
                             / _branch_sums(lz, self.dexp, self.dcoef))
        return (wgt * r / t).astype(complex)

    def series_coeffs(self, w: complex) -> np.ndarray:
        """Taylor coefficients of R(zeta(t)) e^{-iwt} - a e^{-t} in powers of
        t, whose quotient by t is the integrand h(t) near the origin: the
        product of the series of R(zeta(t)) and e^{-iwt}, as the Toeplitz
        matrix of the one times the coefficients of the other, less the
        series of a e^{-t}.  Powers of -iw beyond the float range raise
        NonFiniteValue."""
        x = -1j * w
        try:
            powers = [x ** m / f for m, f in enumerate(self.fact)]
            if cmath.isfinite(powers[-1]):  # |x^m| grows with m once |x| >= 1
                return self.toeplitz.dot(powers) - self.ref_series
        except OverflowError:
            pass
        raise NonFiniteValue(f"the small-t series overflows at w = {w}")


@functools.cache
def _toeplitz_index(order: int) -> np.ndarray:
    """Entry [r][m] is r - m for m <= r, else order + 1: indexing the series
    g_0..g_order with a zero appended by it gives their lower triangular
    Toeplitz matrix."""
    import numpy as np
    r = np.arange(order + 1)
    return np.where(r[:, None] >= r, r[:, None] - r, order + 1)


def _branch_sums(lz: np.ndarray, exps: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] exp(lz exps[k]) at each lz, as the row sums of
    coefs * exp(outer(lz, exps)).  numpy adds a row of fewer than 8 entries
    onto 0 in order, left to right, so such a branch is summed term by term,
    which gives the same bits without the outer product; a longer row numpy
    sums pairwise, so that form is kept."""
    import numpy as np
    if len(exps) >= 8:
        return (coefs * np.exp(np.outer(lz, exps))).sum(axis=1)
    s = np.zeros(len(lz))
    for e, c in zip(exps, coefs):
        s += c * np.exp(lz * e)
    return s


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


def _series_quotient(nterms: list[tuple[int, int]], qn: int,
                     dterms: list[tuple[int, int]], qd: int, order: int) -> list[float]:
    """The Taylor coefficients Q_0..Q_order of num(e^s) / den(e^s) in s,
    each the float of its exact value, from integers alone: num has the
    terms (m, c_m) over the denominator qn, and den the terms (m, d_m)
    over qd.

    With F_r = order!/r!, alpha_r = F_r sum_m c_m m^r and beta_r =
    F_r sum_m d_m m^r, the series division runs over one common
    denominator: Q_r = gamma_r / (qn beta_0^(r+1)) with gamma_r =
    alpha_r qd beta_0^r - sum_{j=1..r} beta_j gamma_{r-j} beta_0^(j-1),
    and int / int rounds correctly.  beta_0 is not 0: a contraction
    integrand has no pole at zeta = 1 (limit_at_one)."""
    def power_sums(terms: list[tuple[int, int]]) -> list[int]:
        exps, v = zip(*terms)
        out = []
        for r in range(order + 1):
            out.append(math.factorial(order) // math.factorial(r) * sum(v))
            v = [x * e for x, e in zip(v, exps)]
        return out

    alpha, beta = power_sums(nterms), power_sums(dterms)
    b0 = beta[0]
    gamma: list[int] = []
    for r in range(order + 1):
        acc = alpha[r] * qd * b0 ** r
        for j in range(1, r + 1):
            acc -= beta[j] * gamma[r - j] * b0 ** (j - 1)
        gamma.append(acc)
    return [g / (qn * b0 ** (r + 1)) for r, g in enumerate(gamma)]


# ---------------------------------------------------------------------------
# contraction construction

def contract(f: ModeFunction, g: ModeFunction, K: Kernel,
             params: AlgebraParams) -> ContractionIntegrand:
    """Integrand of <A(u) B(v)>: the products (_pair_product) of f's t>0
    branch against g's t<0 branch, each as a Laurent rational on the lcm
    lattice of all their tilts and slopes, zero products included, summed."""
    products = [_pair_product(tf, tg, K)
                for tf in f.positive_branch for tg in g.negative_branch]
    lattice = math.lcm(*(d for _, _, _, td, factors in products
                         for d in (td, *(bd for (_, bd), _ in factors))))
    total = LaurentRational.zero()
    for cn, cd, tn, td, factors in products:
        total = total + sinh_laurent(cn, cd, tn, td, factors, lattice)
    return ContractionIntegrand(lattice, total)


def _pair_product(tf: ExpTrigTerm, tg: ExpTrigTerm, K: Kernel) -> tuple:
    """The product c e^{tau hbar t} prod_j sinh(beta_j hbar t)^{e_j} of tf
    on t > 0, tg on t < 0 reflected, and K's density times hbar^2 t, whose
    hbar^2 the terms must cancel: (cn, cd, tn, td, factors), coefficient
    cn/cd, tilt tn/td in lowest terms and factors the pairs ((bn, bd), e),
    e != 0, of each slope bn/bd, in their order in tf, tg and K."""
    cf, df, hf, tnf, tdf, ff, _ = tf.ints()
    cg, dg, hg, tng, tdg, fg, odd = tg.ints()
    if hf + hg != 2:
        raise IllPosedContraction(f"unbalanced hbar power {hf + hg - 2} in contraction")
    slope = K.slope_b
    slopes: dict[tuple[int, int], int] = {}
    for beta, e in ff + fg + (((1, 1), 1),
                              ((slope.numerator, slope.denominator), 1)):
        slopes[beta] = slopes.get(beta, 0) + e
    # tg reflected: t -> -t flips the tilt and each odd sinh power
    tn, td = tnf * tdg - tng * tdf, tdf * tdg
    g = math.gcd(tn, td)
    return (cf * cg * K.sign * (-1 if odd else 1), df * dg, tn // g, td // g,
            [(beta, e) for beta, e in slopes.items() if e])


# ---------------------------------------------------------------------------
# quadrature

_DE_MAX_LEVEL = 8  # offset levels after the base grid: at most 2,978-3,648
# nodes in all (decay 10 down to 1e-3), each evaluated once
_DE_TOL = 1e-10  # error estimate at which refinement stops
_FAR_ENTRIES = 1 << 18  # bounds the temporaries of _IntegrandEvaluator._far
_DE_S_LO = -math.asinh(2.0 * 42.0 / math.pi)  # t ~ e^{-42}, weight kills the rest
# per refinement level, shared by every integrand: the table _node_table
# builds, and the window sums of its G, {(n, m): sum G[n:m]}
_TABLES: list = [None] * (_DE_MAX_LEVEL + 1)
_WINDOWS: list[dict] = [{} for _ in range(_DE_MAX_LEVEL + 1)]
_KEPT = 1024  # node counts, and window sums, a level keeps at most


def _node_table(j: int, s_hi: float):
    """Refinement level j (0 the base grid, j >= 1 the offset grid of step
    2^-j) as its node table and the node count m up to the upper cutoff
    s_hi.  The table is (t, wgt, nodes, counts, M, G): ascending nodes and
    weights up to the largest s_hi asked so far, t as a list, the node count
    of each s_hi asked, M[n][r] = sum_{i<n} wgt_i t_i^r over the nodes
    t < 0.01, the only ones a series cutoff can take (reach >= 1), and
    G = wgt e^{-t}/t.

    It depends on nothing but j.  arange runs only for a new s_hi; it fills
    start + i*step and cumsum adds in order, so a longer table extends a
    shorter one exactly."""
    import numpy as np
    table = _TABLES[j]
    counts = table[3] if table else {}
    m = counts.get(s_hi)
    if m is None:
        h = 0.5 ** max(j, 1)
        if j:
            s = np.arange(_DE_S_LO + h / 2.0, s_hi, h)
        else:
            s = np.arange(_DE_S_LO, s_hi + h / 2.0, h)
        m = len(s)
        if table is None or m > len(table[0]):
            t = np.exp(0.5 * math.pi * np.sinh(s))
            wgt = 0.5 * math.pi * np.cosh(s) * t
            k = int(t.searchsorted(0.01))
            powers = np.vander(t[:k], _IntegrandEvaluator.SERIES_ORDER, increasing=True)
            # complex, as the series coefficients they meet are
            moments = np.zeros((k + 1, powers.shape[1]), dtype=complex)
            np.cumsum(wgt[:k, None] * powers, axis=0, out=moments[1:])
            table = _TABLES[j] = (t, wgt, t.tolist(), counts, moments,
                                  wgt * np.exp(-t) / t)
            _WINDOWS[j].clear()
        if len(counts) >= _KEPT:  # bounded: a forgotten s_hi costs an arange
            counts.clear()
        counts[s_hi] = m
    return table, m


def _window_sum(j: int, g: np.ndarray, n: int, m: int) -> float:
    """G[n:m].sum() of level j, its table's G being g, taken once per window
    and kept until the table is rebuilt.  Strip points share few windows, so
    nearly every level sum finds its window kept; a difference of prefix
    sums would lose digits to cancellation."""
    sums = _WINDOWS[j]
    s = sums.get((n, m))
    if s is None:
        if len(sums) >= _KEPT:  # bounded as the node counts are
            sums.clear()
        s = sums[n, m] = g[n:m].sum()
    return s


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

    # node range: t = exp(pi/2 sinh(s)); cover until e^{-decay t} is negligible
    t_max = 60.0 / min(decay, 1.0) if decay < 1.0 else 60.0 / decay + 10.0
    s_hi = math.asinh(max(2.0 * math.log(t_max) / math.pi, 1.0)) + 0.5

    sums = I.evaluator(hbar).level_sums(w, s_hi)
    h = 0.5
    total = next(sums) * h
    prev = None
    for mid in sums:
        new = 0.5 * (total + mid * h)
        h *= 0.5
        err = abs(new - total)
        prev, total = total, new
        if err <= max(_DE_TOL * 0.1, 1e-14 * (1.0 + abs(new))):
            return complex(total)
    if not abs(total - prev) <= _DE_TOL * (1.0 + abs(total)):  # NaN fails too
        raise QuadratureNonConvergent(
            f"error estimate {abs(total - prev):.2e} above {_DE_TOL:.1e} at node cap, "
            f"w = {w}, strip bound {bound}")
    return complex(total)


# ---------------------------------------------------------------------------
# closed form

def closed_form(I: ContractionIntegrand, params: AlgebraParams) -> StructureFunction:
    """Exact structure function with exp(closed_form) = exp(quad_eval): the
    denominator's family order M (_family_order), then the numerator over
    zeta^{2M} - 1 on zeta's lattice 2L (_integrated).  zeta^{2M} - 1 is the
    product of the Phi_d over d | 2M and den holds some of them once each,
    so for M > 0 the numerator is multiplied by the others."""
    if I.is_zero():
        return StructureFunction.one()
    R, L = I.rational, I.lattice
    M = _family_order(R.factors, L)
    lo, coeffs = R.num.lo, R.num.coeffs
    if M:
        coeffs = _times_phis(coeffs, [(d, 1) for d in _divisors(2 * M)
                                      if d not in R.factors])
    return _integrated([(lo + j, c) for j, c in enumerate(coeffs) if c], R.num.q,
                       2 * L, 2 * M, I.log_divergence_coeff)


def _as_int(a: int, q: int, what: str) -> int:
    """The coefficient a/q as an integer."""
    if a % q:
        raise NonTelescoping(f"{what} {Fraction(a, q)} is not an integer")
    return a // q


def _family_order(factors: dict[int, int], L: int) -> int:
    """Smallest M with den | (zeta^{2M} - 1), zeta = e^{hbar t/(2L)}, read
    off the denominator's cyclotomic factors {order on zeta: multiplicity}:
    0 for no factor.  A repeated factor raises NonTelescoping at once,
    naming the repeated factor of least order; otherwise M is the least M
    with lcm(d) | 2M over the factor orders d, and one past the cap
    8*L*deg(den) raises NonTelescoping too."""
    if not factors:
        return 0
    if max(factors.values()) > 1:
        raise NonTelescoping(
            "denominator has repeated roots (cyclotomic factor of order {}, multiplicity "
            "{}); families do not reduce to Gamma factors".format(
                *min((d, m) for d, m in factors.items() if m > 1)))
    order = math.lcm(*factors)
    M = order if order % 2 else order // 2
    # deg(den) = sum phi(d) >= 1, each factor simple: the degree is summed
    # only for an M the cap could refuse
    if M > 8 * L and M > 8 * L * sum(j * mu for d in factors for j, mu in _phi_binomials(d)):
        raise NonTelescoping(
            "family order exceeds the cap; families do not reduce to Gamma factors")
    return M


def _integrated(terms: list[tuple[int, int]], div: int, L: int, M: int,
                limit: Fraction) -> StructureFunction:
    """The Frullani-regularized integral of P(X) e^{-iwt} / t over (0, inf)
    for M = 0, and of P(X) e^{-iwt} / (t (X^M - 1)) for M > 0, with
    X = e^{hbar t/L} and P = sum_x c_x X^x / div given by its terms (x, c_x),
    each c_x / div an integer (DLMF 5.9):
      * M = 0, Frullani's integral: prod_x (iw - x hbar/L)^{-c_x/div};
      * M > 0, Binet's: prod_x Gamma(iw L/(M hbar) + (M - x)/M)^{d_x}
        (M hbar/L)^{S1}, d_x = c_x / div, S1 = sum_x d_x (M - x)/M; the d_x
        must sum to zero and -S1 must be limit, the 1/t coefficient."""
    if not M:
        linears: dict[tuple[int, int, int], int] = {}
        for x, c in terms:
            g = math.gcd(x, L)
            linears[-x // g, 0, L // g] = -_as_int(c, div, "Frullani family coefficient")
        return StructureFunction._made({}, linears, ExactConst.one())
    g = math.gcd(M, L)
    sa, sq = M // g, L // g
    gammas: dict[tuple[int, int, int, int, int], int] = {}
    dsum = s1n = 0      # S1 = s1n / M
    for x, c in terms:
        d = _as_int(c, div, "Gamma family coefficient")
        n = M - x
        g = math.gcd(n, M)
        gammas[sa, 0, sq, n // g, M // g] = d
        dsum += d
        s1n += d * n
    if dsum:
        raise IllPosedContraction("family coefficients do not sum to zero")
    s1 = Fraction(s1n, M)
    if -s1 != limit:
        raise IllPosedContraction(f"divergence bookkeeping mismatch: {-s1} vs {limit}")
    return StructureFunction._made(
        gammas, {}, ExactConst.one().times_base(_raw(sa, 0, sq), 1, s1))


def pair_closed_form(tf: ExpTrigTerm, tg: ExpTrigTerm, K: Kernel
                     ) -> tuple[StructureFunction, Fraction]:
    """closed_form(I) and I.log_divergence_coeff, I the contraction of tf on
    t > 0 against tg on t < 0 over K, straight from their merged product
    c e^{tau hbar t} prod_j sinh(beta_j hbar t)^{e_j} (_pair_product), in
    integers.

    On the product's lattice L, with X = e^{hbar t/L} and b_j = beta_j L,
    sinh(beta_j hbar t) = X^{-b_j} (X^{2 b_j} - 1)/2, and X^n - 1 is the
    product of the cyclotomic Phi_d(X) over d | n: the product holds Phi_d
    to the power c_d = sum_j e_j [d | 2 b_j], read only at divisors of a
    denominator's 2 b_j.  The Phi_d with c_d < 0 are the denominator for
    _family_order, and P(X) / (X^M - 1) the families for _integrated, with
    the t -> 0 limit c prod_j beta_j^{e_j}; the checks are closed_form's
    and contract's, in their order."""
    cn, cd, tn, td, factors = _pair_product(tf, tg, K)
    if not cn:
        return StructureFunction.one(), Fraction(0)
    s = sum(e for _, e in factors)
    if s < 0:
        raise IllPosedContraction("integrand diverges faster than 1/t at the origin")
    L = math.lcm(td, *(bd for (_, bd), _ in factors))
    # (2 b_j, e_j); the t -> 0 limit c prod_j beta_j^{e_j} is
    # c prod_j (2 b_j)^{e_j} when sum_j e_j = 0, else 0
    ints = [(2 * bn * (L // bd), e) for (bn, bd), e in factors]
    limit = Fraction(0) if s else Fraction(
        cn * math.prod(b ** e for b, e in ints if e > 0),
        cd * math.prod(b ** -e for b, e in ints if e < 0))
    counts = {d: 0 for b, e in ints if e < 0 for d in _divisors(b)}
    for b, e in ints:
        for d in counts:
            if b % d == 0:
                counts[d] += e
    # on zeta = X^{1/2}: Phi_d(X) = Phi_2d(zeta), times Phi_d(zeta) for odd d
    den: dict[int, int] = {}
    for d, c in counts.items():
        if c < 0:
            den[2 * d] = -c
            if d % 2:
                den[d] = -c
    M = _family_order(den, L)
    exps = dict(ints)
    if M:
        exps[M] = exps.get(M, 0) + 1
    # c X^x0 times the numerator's binomials, X^M - 1 among them, sparse;
    # dense only to divide by a binomial that X^M - 1 does not cancel
    poly = {tn * (L // td) - sum(b * e for b, e in ints) // 2: cn}
    for b, e in exps.items():
        poly = times_binomial(poly, b, max(e, 0))
    over = [b for b, e in exps.items() for _ in range(-e)]
    if over:
        lo = min(poly)
        p = [0] * (max(poly) - lo + 1)
        for x, c in poly.items():
            p[x - lo] = c
        for b in over:
            p = _over_binomial(p, b)
        terms = [(lo + i, c) for i, c in enumerate(p) if c]
    else:
        terms = sorted((x, c) for x, c in poly.items() if c)
    return _integrated(terms, cd << s, L, M, limit), limit


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
    return StructureFunction.exchange(s_f, s_r)
