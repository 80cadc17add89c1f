"""Exact algebra of vertex-operator exponent coefficient functions.

A mode function g(t) is the coefficient of the oscillator a(t) in an
exponent exp{ integral g(t) a(t) dt }, split into t>0 and t<0 branches.
Terms live in a small grammar: rational coefficients times an
integer power of hbar, one exponential tilt e^{alpha*hbar*t}, and integer
powers of sinh(beta*hbar*t), all times the spectral phase e^{-iut}, which
stays implicit: an argument shift u -> u + i*gamma*hbar adds gamma to the
tilt of every term.

Equality is decided in integers: per branch, f - g times the common
denominator D = prod sinh(beta*hbar*t)^m is expanded as a sparse sum of
exponentials e^{x*hbar*t/L}, L the lcm of all slope and tilt denominators,
and f equals g iff it is empty, which is sound and complete (exponentials
of distinct real rates are linearly independent).  The canonical form, a
Laurent rational in zeta = e^{hbar*t/(2L)}, is read only by the tests, as
the reference these sums replaced; a term prints in the `.alg` grammar.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ExcludedLevel, NonMeromorphicProduct
from .exact import LaurentRational, as_fraction, binomial_quotient

__all__ = [
    "AlgebraParams", "Kernel", "ExpTrigTerm", "ModeFunction",
    "shift_argument", "equals", "times_binomial", "sinh_laurent",
]


def _read_only(self, name, value=None):
    """__setattr__ and __delattr__ of the immutable records: their fields
    are set once, in __init__, through object.__setattr__."""
    raise AttributeError(f"cannot change field {name!r} of an immutable "
                         f"{type(self).__name__}")


_set = object.__setattr__


class AlgebraParams:
    """Level k (positive rational, k not in {0, -2}) and deformation hbar > 0."""

    __slots__ = ("k", "hbar")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, k: Fraction, hbar: Fraction = Fraction(1)):
        k = as_fraction(k)
        hbar = as_fraction(hbar)
        if k == 0 or k == -2:
            raise ExcludedLevel(f"level k={k} is excluded")
        if k < 0:
            raise ExcludedLevel(f"level k={k} must be positive")
        if hbar <= 0:
            raise ValueError("hbar must be positive")
        _set(self, "k", k)
        _set(self, "hbar", hbar)

    @property
    def hbar_float(self) -> float:
        return float(self.hbar)


class Kernel:
    """Commutator density sign * sinh(hbar t) sinh(slope_b * hbar t) / (hbar^2 t).

    The sinh-product numerator is even in t; the full density, carrying the
    1/t divisor, is odd, as the antisymmetry of a commutator requires.
    """

    __slots__ = ("family", "sign", "slope_b")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, family: str, sign: int, slope_b: Fraction):
        slope_b = as_fraction(slope_b)
        if sign not in (1, -1):
            raise ValueError("kernel sign must be +1 or -1")
        if slope_b <= 0:
            raise ValueError("kernel slope must be positive")
        _set(self, "family", family)
        _set(self, "sign", sign)
        _set(self, "slope_b", slope_b)

    def eval_density(self, t: float, hbar: float) -> float:
        return (self.sign * math.sinh(hbar * t)
                * math.sinh(float(self.slope_b) * hbar * t) / (hbar * hbar * t))


def sinh_laurent(cn: int, cd: int, tn: int, td: int, factors,
                 lattice: int) -> LaurentRational:
    """(cn/cd) e^{(tn/td) hbar t} prod sinh(beta hbar t)^p over the pairs
    ((bn, bd), p) of factors, beta = bn/bd, as a Laurent rational in
    zeta = e^{hbar t/(2 lattice)}: with n = 2 beta lattice,
    sinh(beta hbar t)^p = 2^-p zeta^{-n p} (zeta^{2n} - 1)^p."""
    e, r = divmod(tn * 2 * lattice, td)
    if r:
        raise NonMeromorphicProduct(f"tilt {Fraction(tn, td)} not on lattice 1/{lattice}")
    powers, twos = [], 0
    for (bn, bd), p in factors:
        n, r = divmod(bn * 2 * lattice, bd)
        if r:
            raise NonMeromorphicProduct(f"slope {Fraction(bn, bd)} not on lattice 1/{lattice}")
        e -= n * p
        twos += p
        powers.append((2 * n, p))
    return binomial_quotient(Fraction(cn, cd) / Fraction(2) ** twos, e, powers)


class ExpTrigTerm:
    """One grammar term, the coefficient of the spectral phase e^{-iut}:

        coeff * hbar^hbar_power * e^{tilt*hbar*t} * prod_j sinh(beta_j*hbar*t)^{e_j}

    A declared exp(a*h*t) and an argument shift u -> u + i*g*hbar both
    multiply the term by an exponential, so both add to its one tilt.  The
    coefficient is rational.  Slopes are normalized positive at
    construction (sign absorbed into coeff), merged and kept sorted.
    """

    __slots__ = ("coeff", "hbar_power", "tilt", "sinh_factors", "_hash", "_ints")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, coeff: Fraction, hbar_power: int = 1,
                 tilt: Fraction = Fraction(0),
                 sinh_factors: tuple[tuple[Fraction, int], ...] = ()):
        coeff = as_fraction(coeff)
        merged: dict[Fraction, int] = {}
        for beta, e in sinh_factors:
            beta = as_fraction(beta)
            e = int(e)
            if beta == 0:
                raise ValueError("sinh slope must be nonzero")
            if beta < 0:
                beta = -beta
                if e % 2:
                    coeff = -coeff
            merged[beta] = merged.get(beta, 0) + e
        _set(self, "coeff", coeff)
        _set(self, "hbar_power", hbar_power)
        _set(self, "tilt", as_fraction(tilt))
        _set(self, "sinh_factors",
             tuple(sorted((b, e) for b, e in merged.items() if e)))
        _set(self, "_hash", None)
        _set(self, "_ints", None)

    def _with(self, coeff: Fraction, tilt: Fraction) -> "ExpTrigTerm":
        """This term with another coefficient and tilt, both Fractions: its
        slopes are already positive, merged and sorted, so the new term is
        built from its fields rather than through __init__."""
        term = object.__new__(ExpTrigTerm)
        _set(term, "coeff", coeff)
        _set(term, "hbar_power", self.hbar_power)
        _set(term, "tilt", tilt)
        _set(term, "sinh_factors", self.sinh_factors)
        _set(term, "_hash", None)
        _set(term, "_ints", None)
        return term

    def _key(self):
        return (self.coeff, self.hbar_power, self.tilt, self.sinh_factors)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        # computed once: terms key the closed-form cache of a catalog
        h = self._hash
        if h is None:
            h = hash(self._key())
            _set(self, "_hash", h)
        return h

    def __repr__(self):
        """The term in the `.alg` exponent grammar, which parses back to it."""
        p = self.hbar_power
        text = f"({self.coeff})" + " * hbar" * max(p, 0) + " / hbar" * max(-p, 0)
        if self.tilt:
            text += f" * exp(({self.tilt})*h*t)"
        for beta, e in self.sinh_factors:
            text += f" * sinh(({beta})*h*t)" + (f"^{e}" if e != 1 else "")
        return text

    def ints(self) -> tuple:
        """The term in integers, computed once: (cn, cd, hbar_power, tn, td,
        factors, odd) with coefficient cn/cd, tilt tn/td in lowest terms,
        factors the pairs ((bn, bd), e) of each slope bn/bd and exponent,
        and odd the parity of the summed sinh exponents."""
        v = self._ints
        if v is None:
            c, tau = self.coeff, self.tilt
            v = (c.numerator, c.denominator, self.hbar_power, tau.numerator,
                 tau.denominator,
                 tuple(((b.numerator, b.denominator), e)
                       for b, e in self.sinh_factors),
                 sum(e for _, e in self.sinh_factors) % 2)
            _set(self, "_ints", v)
        return v

    def denominators(self):
        yield self.tilt.denominator
        for beta, _ in self.sinh_factors:
            yield beta.denominator

    def laurent(self, lattice: int) -> LaurentRational:
        cn, cd, _, tn, td, factors, _ = self.ints()
        return sinh_laurent(cn, cd, tn, td, factors, lattice)

    def eval(self, t: float, hbar: float) -> float:
        """Numeric value at real t, spectral phase e^{-iut} omitted (u = 0)."""
        v = float(self.coeff) * hbar ** self.hbar_power
        v *= math.exp(float(self.tilt) * hbar * t)
        for beta, e in self.sinh_factors:
            v *= math.sinh(float(beta) * hbar * t) ** e
        return v


class ModeFunction:
    """Exponent coefficient function with separate t>0 and t<0 branches."""

    __slots__ = ("positive_branch", "negative_branch")

    def __init__(self, positive_branch=(), negative_branch=()):
        self.positive_branch = tuple(positive_branch)
        self.negative_branch = tuple(negative_branch)

    @staticmethod
    def zero() -> "ModeFunction":
        return ModeFunction((), ())

    def is_structurally_zero(self) -> bool:
        return not self.positive_branch and not self.negative_branch

    def is_zero(self) -> bool:
        """Whether both branches sum to zero."""
        return _vanishes(self.positive_branch) and _vanishes(self.negative_branch)

    def __add__(self, other: "ModeFunction") -> "ModeFunction":
        if other.is_structurally_zero():
            return self
        if self.is_structurally_zero():
            return other
        return ModeFunction(self.positive_branch + other.positive_branch,
                            self.negative_branch + other.negative_branch)

    def __neg__(self) -> "ModeFunction":
        def neg(terms):
            return tuple(t._with(-t.coeff, t.tilt) for t in terms)
        return ModeFunction(neg(self.positive_branch), neg(self.negative_branch))

    def __sub__(self, other):
        return self + (-other)

    def lattice(self) -> int:
        return math.lcm(*(d for t in self.positive_branch + self.negative_branch
                          for d in t.denominators()))

    def canonical(self):
        """Canonical form: per branch, {hbar_power: reduced LaurentRational}."""
        lattice, branches = self.lattice(), []
        for terms in (self.positive_branch, self.negative_branch):
            acc: dict[int, LaurentRational] = {}
            for t in terms:
                lr = t.laurent(lattice)
                prev = acc.get(t.hbar_power)
                acc[t.hbar_power] = lr if prev is None else prev + lr
            branches.append({p: lr for p, lr in acc.items() if not lr.is_zero()})
        return lattice, branches[0], branches[1]

    def eval_branch(self, t: float, hbar: float) -> complex:
        """Numeric value of the branch containing t (u = 0 convention)."""
        terms = self.positive_branch if t > 0 else self.negative_branch
        return sum((term.eval(t, hbar) for term in terms), 0j)

    def __repr__(self):
        return (f"ModeFunction(+:{list(self.positive_branch)!r}, "
                f"-:{list(self.negative_branch)!r})")


def shift_argument(f: ModeFunction, delta) -> ModeFunction:
    """Replace u by u + i*delta*hbar, i.e. multiply every term by e^{delta*hbar*t}.

    Additive in delta; shift_argument(f, 0) is f.
    """
    delta = as_fraction(delta)
    if delta == 0:
        return f
    def sh(terms):
        return tuple(t._with(t.coeff, t.tilt + delta) for t in terms)
    return ModeFunction(sh(f.positive_branch), sh(f.negative_branch))


def times_binomial(poly: dict[int, int], m: int, e: int) -> dict[int, int]:
    """poly * (X^m - 1)^e, poly = {x: c} the sparse integer sum of c X^x;
    coefficients that cancel stay in the map as 0."""
    for _ in range(e):
        times = {x: -c for x, c in poly.items()}
        for x, c in poly.items():
            times[x + m] = times.get(x + m, 0) + c
        poly = times
    return poly


def _sinh_product(c: int, x: int, powers) -> dict[int, int]:
    """c X^x prod (X^b - X^-b)^n over the pairs (b, n) of powers."""
    poly = {x - sum(b * n for b, n in powers): c}
    for b, n in powers:
        poly = times_binomial(poly, 2 * b, n)
    return poly


def _expand(signed) -> tuple[dict[int, dict[int, int]], list, int]:
    """One branch, the sum of sign * term over the (sign, term) pairs, times
    D = prod sinh(beta hbar t)^m, m the highest power of sinh(beta hbar t)
    any term divides by.  With X = e^{hbar t/L}, L the lcm of the tilt and
    slope denominators, sinh(beta hbar t) = (X^b - X^-b)/2, b = beta L: so
    returns ({hbar_power: {x: c}}, the pairs (b, m) of D, L), the sum as
    c X^x over one integer scale that absorbs each term's 2^-n."""
    L = scale = 1
    depth: dict[tuple[int, int], int] = {}
    rows = []
    for s, t in signed:
        cn, cd, hpow, tn, td, factors, _ = t.ints()
        L = math.lcm(L, td, *(bd for (_, bd), _ in factors))
        scale = math.lcm(scale, cd)
        for beta, e in factors:
            if -e > depth.get(beta, 0):
                depth[beta] = -e
        rows.append((s * cn, cd, hpow, tn, td, factors, sum(e for _, e in factors)))
    top = max((row[-1] for row in rows), default=0)
    sums: dict[int, dict[int, int]] = {}
    for c, cd, hpow, tn, td, factors, n in rows:
        powers = dict(depth)
        for beta, e in factors:
            powers[beta] = powers.get(beta, 0) + e
        poly = sums.setdefault(hpow, {})
        for x, v in _sinh_product(c * (scale // cd) << (top - n), tn * (L // td), [
                (bn * (L // bd), m) for (bn, bd), m in powers.items() if m]).items():
            poly[x] = poly.get(x, 0) + v
    return sums, [(bn * (L // bd), m) for (bn, bd), m in depth.items()], L


def _vanishes(plus, minus=()) -> bool:
    """Whether the terms plus, less the terms minus, of one branch sum to 0."""
    sums = _expand([(1, t) for t in plus] + [(-1, t) for t in minus])[0]
    return not any(any(poly.values()) for poly in sums.values())


def equals(f: ModeFunction, g: ModeFunction) -> bool:
    """Exact equality of mode functions, branch by branch."""
    return (_vanishes(f.positive_branch, g.positive_branch)
            and _vanishes(f.negative_branch, g.negative_branch))
