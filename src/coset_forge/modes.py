"""Exact algebra of vertex-operator exponent coefficient functions.

A mode function g(t) is the coefficient of the oscillator a(t) in an
exponent exp{ integral g(t) a(t) dt }, split into t>0 and t<0 branches.
Terms live in a small grammar: Gaussian-rational coefficients times an
integer power of hbar, exponential tilts e^{alpha*hbar*t}, spectral phases
e^{-i(u + i*gamma*hbar)t}, and integer powers of sinh(beta*hbar*t).

Equality is decided through a canonical form: each branch embeds into the
field of Laurent rationals in zeta = e^{hbar*t/(2L)}, L the lcm of all slope
and shift denominators.  Two mode functions are equal iff their reduced
Laurent rationals coincide on a common lattice, which is sound and complete
for this grammar (a rational function of zeta vanishing on an interval of
the positive axis vanishes identically).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ExcludedLevel, MixedSpectralArguments, NonMeromorphicProduct
from .exact import GR, LaurentRational, as_fraction, binomial_quotient

__all__ = [
    "AlgebraParams", "Kernel", "ExpTrigTerm", "ModeFunction",
    "shift_argument", "equals",
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

    @property
    def slope_a(self) -> Fraction:
        return Fraction(1)

    def sinh_factors(self) -> tuple[tuple[Fraction, int], ...]:
        if self.slope_b == self.slope_a:
            return ((self.slope_a, 2),)
        return tuple(sorted(((self.slope_a, 1), (self.slope_b, 1))))

    def eval_density(self, t: float, hbar: float) -> float:
        return (self.sign * math.sinh(hbar * t)
                * math.sinh(float(self.slope_b) * hbar * t) / (hbar * hbar * t))


def _lcm(*xs: int) -> int:
    out = 1
    for x in xs:
        out = out * x // math.gcd(out, x)
    return out


def _sinh_exponent(beta: Fraction, lattice: int) -> int:
    """n with sinh(beta*hbar*t) = (zeta^n - zeta^-n)/2, zeta = e^{hbar t/(2 lattice)}."""
    e, r = divmod(beta.numerator * 2 * lattice, beta.denominator)
    if r:
        raise NonMeromorphicProduct(f"slope {beta} not on lattice 1/{lattice}")
    return e


class ExpTrigTerm:
    """One grammar term:

        coeff * hbar^hbar_power * e^{shift*hbar*t}
              * prod_j sinh(beta_j*hbar*t)^{e_j} * e^{-i(u + i*spectral_shift*hbar)t}

    Slopes are normalized positive at construction (sign absorbed into coeff),
    merged and kept sorted.
    """

    __slots__ = ("coeff", "hbar_power", "shift", "spectral_shift",
                 "sinh_factors", "_hash")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, coeff: GR, hbar_power: int = 1,
                 shift: Fraction = Fraction(0),
                 spectral_shift: Fraction = Fraction(0),
                 sinh_factors: tuple[tuple[Fraction, int], ...] = ()):
        if not isinstance(coeff, GR):
            coeff = GR.of(coeff)
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
        _set(self, "shift", as_fraction(shift))
        _set(self, "spectral_shift", as_fraction(spectral_shift))
        _set(self, "sinh_factors",
             tuple(sorted((b, e) for b, e in merged.items() if e)))
        _set(self, "_hash", None)

    def _key(self):
        return (self.coeff, self.hbar_power, self.shift, self.spectral_shift,
                self.sinh_factors)

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
        return ("ExpTrigTerm(coeff={!r}, hbar_power={!r}, shift={!r}, "
                "spectral_shift={!r}, sinh_factors={!r})".format(*self._key()))

    def tilt(self) -> Fraction:
        """Net exponential tilt (shift + spectral shift), in hbar*t units."""
        return self.shift + self.spectral_shift

    def max_growth(self) -> Fraction:
        """Largest exponential slope of the term, in hbar*t units."""
        g = self.tilt()
        for beta, e in self.sinh_factors:
            g += e * beta
        return g

    def denominators(self):
        yield self.shift.denominator
        yield self.spectral_shift.denominator
        for beta, _ in self.sinh_factors:
            yield beta.denominator

    def laurent(self, lattice: int) -> LaurentRational:
        # e = (shift + spectral_shift) * 2 * lattice, in integers
        s, t = self.shift, self.spectral_shift
        e, r = divmod((s.numerator * t.denominator + t.numerator * s.denominator)
                      * 2 * lattice, s.denominator * t.denominator)
        if r:
            raise NonMeromorphicProduct(f"tilt {self.tilt()} not on lattice 1/{lattice}")
        # sinh(beta*hbar*t)^p = 2^-p zeta^{-n p} (zeta^{2n} - 1)^p
        powers = []
        twos = 0
        for beta, p in self.sinh_factors:
            n = _sinh_exponent(beta, lattice)
            e -= n * p
            twos += p
            powers.append((2 * n, p))
        c = self.coeff
        if twos > 0:
            c = c.times_ratio(1, 2 ** twos)
        elif twos < 0:
            c = c.times_ratio(2 ** -twos, 1)
        return binomial_quotient(c, e, powers)

    def reflected(self) -> "ExpTrigTerm":
        """The term evaluated at -t, re-expressed for t > 0."""
        coeff = self.coeff
        for _, e in self.sinh_factors:
            if e % 2:
                coeff = -coeff
        return ExpTrigTerm(coeff, self.hbar_power, -self.shift,
                           -self.spectral_shift, self.sinh_factors)

    def eval(self, t: float, hbar: float) -> complex:
        """Numeric value at real t, spectral phase e^{-iut} omitted (u = 0)."""
        v = complex(self.coeff) * hbar ** self.hbar_power
        v *= math.exp(float(self.tilt()) * hbar * t)
        for beta, e in self.sinh_factors:
            v *= math.sinh(float(beta) * hbar * t) ** e
        return v


class ModeFunction:
    """Exponent coefficient function with separate t>0 and t<0 branches."""

    __slots__ = ("variable", "positive_branch", "negative_branch", "_canon")

    def __init__(self, positive_branch=(), negative_branch=(), variable="u"):
        self.variable = variable
        self.positive_branch = tuple(positive_branch)
        self.negative_branch = tuple(negative_branch)
        self._canon = None

    @staticmethod
    def zero(variable="u") -> "ModeFunction":
        return ModeFunction((), (), variable)

    def is_structurally_zero(self) -> bool:
        return not self.positive_branch and not self.negative_branch

    def __add__(self, other: "ModeFunction") -> "ModeFunction":
        if other.is_structurally_zero():
            return self
        if self.is_structurally_zero():
            return other
        if self.variable != other.variable:
            raise MixedSpectralArguments(
                f"cannot mix spectral variables {self.variable} and {other.variable}")
        return ModeFunction(self.positive_branch + other.positive_branch,
                            self.negative_branch + other.negative_branch,
                            self.variable)

    def __neg__(self) -> "ModeFunction":
        return self.scale(GR(Fraction(-1)))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "ModeFunction":
        s = GR.of(s)
        def sc(terms):
            return tuple(ExpTrigTerm(t.coeff * s, t.hbar_power, t.shift,
                                     t.spectral_shift, t.sinh_factors)
                         for t in terms)
        return ModeFunction(sc(self.positive_branch), sc(self.negative_branch),
                            self.variable)

    def lattice(self) -> int:
        dens = [1]
        for t in self.positive_branch + self.negative_branch:
            dens.extend(t.denominators())
        return _lcm(*dens)

    def canonical(self, lattice: int | None = None):
        """Canonical form: per branch, {hbar_power: reduced LaurentRational}."""
        own = self.lattice()
        if lattice is None:
            lattice = own
        elif lattice % own:
            raise ValueError("requested lattice does not refine this function's lattice")
        if self._canon is not None and self._canon[0] == lattice:
            return self._canon
        branches = []
        for terms in (self.positive_branch, self.negative_branch):
            acc: dict[int, LaurentRational] = {}
            for t in terms:
                lr = t.laurent(lattice)
                if lr.is_zero():
                    continue
                prev = acc.get(t.hbar_power)
                acc[t.hbar_power] = lr if prev is None else prev + lr
            branches.append({p: lr for p, lr in acc.items() if not lr.is_zero()})
        canon = (lattice, branches[0], branches[1])
        if lattice == own:
            self._canon = canon
        return canon

    def eval_branch(self, t: float, hbar: float) -> complex:
        """Numeric value of the branch containing t (u = 0 convention)."""
        terms = self.positive_branch if t > 0 else self.negative_branch
        return sum((term.eval(t, hbar) for term in terms), 0j)

    def __repr__(self):
        return (f"ModeFunction({self.variable}; +:{list(self.positive_branch)!r}, "
                f"-:{list(self.negative_branch)!r})")


def shift_argument(f: ModeFunction, delta) -> ModeFunction:
    """Replace u by u + i*delta*hbar, i.e. multiply every term by e^{delta*hbar*t}.

    Additive in delta; shift_argument(f, 0) is f.
    """
    delta = as_fraction(delta)
    if delta == 0:
        return f
    def sh(terms):
        return tuple(ExpTrigTerm(t.coeff, t.hbar_power, t.shift,
                                 t.spectral_shift + delta, t.sinh_factors)
                     for t in terms)
    return ModeFunction(sh(f.positive_branch), sh(f.negative_branch), f.variable)


def equals(f: ModeFunction, g: ModeFunction, params: AlgebraParams | None = None) -> bool:
    """Exact equality of mode functions via canonical forms on a joint lattice."""
    if f.variable != g.variable:
        raise MixedSpectralArguments(
            f"comparing functions of {f.variable} and {g.variable}")
    joint = _lcm(f.lattice(), g.lattice())
    _, fp, fn = f.canonical(joint)
    _, gp, gn = g.canonical(joint)
    return fp == gp and fn == gn
