"""Exact arithmetic helpers: Laurent polynomials with rational
coefficients, quotients of them by products of cyclotomic polynomials,
rational functions of the level k, and exact multiplicative constants.
Gaussian rationals carry the structure-function data that the Wick
rotation makes complex: Gamma scales, linear-factor offsets, constants,
pole positions and residues.

All symbolic decisions elsewhere in the package (equality of exponents,
cancellation of Gamma factors, divergence matching) reduce to arithmetic in
these types, so they must be exact.  Floating point enters only at
evaluation time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .errors import VanishingDenominator


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction (or a string)."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    f = as_fraction(x)
    return f.numerator, f.denominator


def _qstr(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


class GR:
    """Gaussian rational (a + b*i)/q with integers a, b, q: q > 0 and
    gcd(a, b, q) = 1, so equal values have equal fields.

    GR(re, im) takes ints or Fractions; `re` and `im` read the parts back as
    Fractions.  GRs hold structure-function data only: Gamma scales,
    linear-factor offsets, constants, pole positions and residues.  Grammar
    term coefficients are Fractions.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, re=0, im=0):
        rn, rd = _ratio(re)
        jn, jd = _ratio(im)
        # lcm of coprime-reduced denominators leaves gcd(a, b, q) = 1
        q = rd * jd // math.gcd(rd, jd)
        self.a, self.b, self.q = rn * (q // rd), jn * (q // jd), q

    @staticmethod
    def of(x) -> "GR":
        if isinstance(x, GR):
            return x
        if isinstance(x, complex):
            raise TypeError("build GR from exact values, not floats")
        n, d = _ratio(x)
        return _raw(n, 0, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.q)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.q)

    def __eq__(self, other):
        if type(other) is not GR:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.q == other.q

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __add__(self, other):
        o = other if type(other) is GR else GR.of(other)
        q = self.q
        if q == o.q:
            return _gr(self.a + o.a, self.b + o.b, q)
        p = o.q
        return _gr(self.a * p + o.a * q, self.b * p + o.b * q, q * p)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.a, -self.b, self.q)

    def __sub__(self, other):
        return self + (-GR.of(other))

    def __rsub__(self, other):
        return GR.of(other) + (-self)

    def __mul__(self, other):
        o = other if type(other) is GR else GR.of(other)
        # one side is 1 in most products of exact constants
        if o.a == 1 and o.q == 1 and not o.b:
            return self
        a, b = self.a, self.b
        if a == 1 and self.q == 1 and not b:
            return o
        c, d = o.a, o.b
        return _gr(a * c - b * d, a * d + b * c, self.q * o.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GR.of(other)
        c, d = o.a, o.b
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero GR")
        a, b, p = self.a, self.b, o.q
        return _gr(p * (a * c + b * d), p * (b * c - a * d), self.q * n)

    def __rtruediv__(self, other):
        return GR.of(other) / self

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self):
        return bool(self.a or self.b)

    def __complex__(self):
        # int / int rounds correctly, as float(Fraction) does
        return complex(self.a / self.q, self.b / self.q)

    def __repr__(self):
        a, b, q = self.a, self.b, self.q
        if not b:
            return _qstr(a, q)
        if not a:
            return f"{_qstr(b, q)}*i"
        sign = "+" if b > 0 else "-"
        return f"({_qstr(a, q)}{sign}{_qstr(abs(b), q)}*i)"


def _raw(a: int, b: int, q: int) -> GR:
    """(a + b*i)/q from fields already in lowest terms."""
    g = object.__new__(GR)
    g.a, g.b, g.q = a, b, q
    return g


def _gr(a: int, b: int, q: int) -> GR:
    """(a + b*i)/q for q > 0, brought to lowest terms."""
    g = math.gcd(a, b, q)
    if g != 1:
        a, b, q = a // g, b // g, q // g
    return _raw(a, b, q)


GR_ONE = _raw(1, 0, 1)
GR_I = _raw(0, 1, 1)


# ---------------------------------------------------------------------------
# Cyclotomic denominators.
#
# Every denominator in the engine is a product of sinh binomials
# zeta^{-n} (zeta^{2n} - 1) / 2, so up to a unit and a power of zeta it is a
# product of cyclotomic polynomials Phi_d, each keyed by its order d.  No
# Phi_d is built on its own: Phi_d = prod_{j | d} (zeta^j - 1)^mu(d/j), and
# multiplying by or dividing exactly by zeta^j - 1 is a sparse step, linear
# in the length.  All coefficients are integers over one denominator and
# every Phi_d is monic with integer coefficients, so cancellation is exact
# integer arithmetic.

@functools.lru_cache(maxsize=1024)
def _divisors(n: int) -> tuple[int, ...]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(sorted(set(small + [n // d for d in small])))


def _mobius(n: int) -> int:
    """The Moebius function mu(n), by trial division."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@functools.lru_cache(maxsize=1024)
def _phi_binomials(d: int) -> tuple[tuple[int, int], ...]:
    """Phi_d as the pairs (j, mu(d/j)), mu nonzero, of its binomial product."""
    return tuple((j, mu) for j in _divisors(d) if (mu := _mobius(d // j)))


def _times_binomial(p: list[int], j: int) -> list[int]:
    """p * (zeta^j - 1), ascending integer coefficients."""
    out = [0] * j + p
    out[:len(p)] = map(operator.sub, out[:len(p)], p)
    return out


def _over_binomial(p: list[int], j: int) -> list[int] | None:
    """p / (zeta^j - 1) for a nonzero p, or None if zeta^j - 1 does not
    divide p.

    q_i = q_{i-j} - p_i, so each residue class mod j of q is a running sum
    of that class of -p, and each block of j coefficients of q is the block
    before it minus that block of p; the loop runs over the fewer of the
    two.  The division is exact when the top j coefficients of p continue
    the recursion: p_i = q_{i-j} for i >= len(q)."""
    n = len(p) - j
    if n < 0:
        return None
    if j * j <= n:
        q = [0] * n
        for r in range(j):
            q[r::j] = [-x for x in itertools.accumulate(p[r:n:j])]
    else:
        q = [-x for x in p[:min(j, n)]]
        for b in range(j, n, j):
            q += map(operator.sub, q[b - j:b], p[b:min(b + j, n)])
    return q if p[n:] == ([0] * j + q)[n:] else None


def _times_phis(p: list[int], counts) -> list[int] | None:
    """p * prod Phi_d^c over the pairs (d, c) of counts, c of either sign,
    through the binomials of each Phi_d; None if that is not a polynomial.

    All multiplications come first, so every division is exact when the
    product is a polynomial."""
    exps: dict[int, int] = {}
    for d, c in counts:
        for j, mu in _phi_binomials(d):
            exps[j] = exps.get(j, 0) + c * mu
    for j, e in exps.items():
        for _ in range(e):
            p = _times_binomial(p, j)
    for j, e in exps.items():
        for _ in range(-e):
            p = _over_binomial(p, j)
            if p is None:
                return None
    return p


class LaurentPoly:
    """Laurent polynomial with rational coefficients held as integers over
    one denominator: coeffs[j] / q at exponent lo + j.

    Always normalized (see make): nonzero end coefficients and q > 0 coprime
    to the coefficients, so equal polynomials have equal fields.  The zero
    polynomial has coeffs == [].
    """

    __slots__ = ("lo", "coeffs", "q")

    def __init__(self, lo: int, coeffs: list[int], q: int):
        self.lo, self.coeffs, self.q = lo, coeffs, q

    @staticmethod
    def make(lo: int, coeffs: list[int], q: int) -> "LaurentPoly":
        a, b = 0, len(coeffs)
        while a < b and not coeffs[a]:
            a += 1
        while b > a and not coeffs[b - 1]:
            b -= 1
        if a == b:
            return _ZERO
        if a or b < len(coeffs):
            coeffs = coeffs[a:b]
        g = math.gcd(q, *coeffs)
        if g > 1:
            coeffs = [x // g for x in coeffs]
            q //= g
        return LaurentPoly(lo + a, coeffs, q)

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_exp(self) -> int:
        return self.lo + len(self.coeffs) - 1

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, c) of each nonzero coefficient c/q, exponents
        ascending."""
        return [(self.lo + j, c) for j, c in enumerate(self.coeffs) if c]

    def __eq__(self, other):
        if type(other) is not LaurentPoly:
            return NotImplemented
        return (self.lo == other.lo and self.q == other.q
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.lo, self.q, tuple(self.coeffs)))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        q = math.lcm(self.q, other.q)
        lo = min(self.lo, other.lo)
        n = max(self.max_exp(), other.max_exp()) + 1 - lo
        coeffs = [0] * n
        for p in (self, other):
            s, off = q // p.q, p.lo - lo
            for j, x in enumerate(p.coeffs):
                coeffs[off + j] += x * s
        return LaurentPoly.make(lo, coeffs, q)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{_qstr(c, self.q)}*Z^{e}" for e, c in self.terms())


_ZERO = LaurentPoly(0, [], 1)


def binomial_quotient(coeff: Fraction, lo: int,
                      powers: list[tuple[int, int]]) -> "LaurentRational":
    """coeff * zeta^lo * prod (zeta^m - 1)^p over the pairs (m, p) of powers,
    m > 0, built reduced.

    Its reduced form is read off the counts of each Phi_d, d | m: the
    factors counted negative are the denominator, and those counted
    positive make the numerator."""
    count: dict[int, int] = {}
    for m, p in powers:
        for d in _divisors(m):
            count[d] = count.get(d, 0) + p
    num = _times_phis([1], [(d, c) for d, c in count.items() if c > 0])
    a = coeff.numerator
    n = LaurentPoly.make(lo, [x * a for x in num], coeff.denominator)
    return LaurentRational._make(n, {d: -c for d, c in count.items() if c < 0})


def _key(factors: dict[int, int]) -> tuple:
    """Hashable form of a multiset; factors of multiplicity 0 drop out."""
    return tuple(sorted((k, m) for k, m in factors.items() if m))


@functools.lru_cache(maxsize=1024)
def _den(key: tuple) -> LaurentPoly:
    """Product of the Phi_d^m over the pairs (d, m) of a multiset given by
    _key."""
    return LaurentPoly(0, _times_phis([1], key), 1)


class LaurentRational:
    """Quotient of a Laurent polynomial by a product of cyclotomic
    polynomials, kept reduced.

    The denominator is carried as the multiset `factors`, {d: multiplicity
    of Phi_d}.  A single grammar term is built reduced by binomial_quotient,
    which counts the factors and divides nothing; a sum built here is
    reduced by dividing the numerator by each Phi_d while it divides,
    through the binomials of Phi_d.  Normal form: no factor of the
    denominator divides the numerator.  `num` is the numerator and `den`
    the product of the factors, which has minimum exponent 0 and leading
    coefficient 1.
    """

    __slots__ = ("num", "factors")

    def __init__(self, num: LaurentPoly, factors: dict[int, int] | None = None):
        if num.is_zero():
            self.num, self.factors = num, {}
        else:
            self.num, self.factors = self._reduce(num, factors or {})

    @staticmethod
    def _reduce(n: LaurentPoly, factors: dict[int, int]) -> tuple[LaurentPoly, dict[int, int]]:
        p, left = n.coeffs, {}
        for d, m in factors.items():
            while m:
                q = _times_phis(p, ((d, -1),))
                if q is None:
                    break
                p, m = q, m - 1
            if m:
                left[d] = m
        # Phi_d is monic and primitive: the quotient keeps n's content and
        # nonzero ends
        return (n if p is n.coeffs else LaurentPoly(n.lo, p, n.q)), left

    @staticmethod
    def _make(n: LaurentPoly, factors: dict[int, int]) -> "LaurentRational":
        """An already reduced quotient."""
        r = object.__new__(LaurentRational)
        r.num, r.factors = n, factors if not n.is_zero() else {}
        return r

    @property
    def den(self) -> LaurentPoly:
        return _den(_key(self.factors))

    def den_degree(self) -> int:
        """Degree of den, the sum of deg Phi_d = sum_{j | d} j mu(d/j)."""
        return sum(m * j * mu for d, m in self.factors.items()
                   for j, mu in _phi_binomials(d))

    @staticmethod
    def zero() -> "LaurentRational":
        return LaurentRational._make(_ZERO, {})

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, LaurentRational):
            return NotImplemented
        return self.factors == other.factors and self.num == other.num

    def __hash__(self):
        return hash((self.num, _key(self.factors)))

    def __add__(self, other: "LaurentRational") -> "LaurentRational":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        fa, fb = self.factors, other.factors
        if fa == fb:
            return LaurentRational(self.num + other.num, fa)
        lcm = {d: max(fa.get(d, 0), fb.get(d, 0)) for d in fa.keys() | fb.keys()}
        # a monic primitive cofactor keeps each numerator normalized
        na, nb = (LaurentPoly(n.lo, _times_phis(n.coeffs, [
            (d, m - f.get(d, 0)) for d, m in lcm.items()]), n.q)
                  for n, f in ((self.num, fa), (other.num, fb)))
        return LaurentRational(na + nb, lcm)

    def limit_at_one(self) -> Fraction:
        """lim_{zeta->1} of the rational function; raises if it diverges.

        Only Phi_1 = zeta - 1 vanishes at 1, and a reduced numerator is not
        divisible by it when the denominator holds it.  For d > 1,
        Phi_d(1) = prod_{j | d} j^mu(d/j): p when d is a power of the prime
        p, and 1 otherwise."""
        if self.factors.get(1):
            raise ZeroDivisionError("pole at zeta = 1")
        up = down = 1
        for d, m in self.factors.items():
            for j, mu in _phi_binomials(d):
                if mu > 0:
                    up *= j ** m
                else:
                    down *= j ** m
        return Fraction(sum(self.num.coeffs) * down, self.num.q * up)

    def __repr__(self):
        if not self.factors:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


# ---------------------------------------------------------------------------
# Rational functions of the level parameter k (for the definition DSL, where
# expressions must stay symbolic until k is bound).

_Q0, _Q1 = Fraction(0), Fraction(1)


class KRat:
    """Rational function of k with Fraction coefficients, degree kept small.

    Its operators also take a Fraction on either side, which shifts or
    scales the numerator alone.  A KRat is false when it is zero."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict[int, Fraction], den: dict[int, Fraction] | None = None):
        self.num = {e: v for e, v in num.items() if v}
        self.den = {e: v for e, v in den.items() if v} if den else {0: _Q1}
        if not self.den:
            raise ZeroDivisionError("KRat zero denominator")
        if not self.num:
            self.den = {0: _Q1}

    @staticmethod
    def const(x) -> "KRat":
        return KRat({0: as_fraction(x)})

    @staticmethod
    def k() -> "KRat":
        return KRat({1: _Q1})

    def as_constant(self) -> Fraction | None:
        """The value when it does not depend on k, that is when the
        numerator is a constant multiple of the denominator; else None."""
        e, d = next(iter(self.den.items()))
        c = self.num.get(e, _Q0) / d
        return c if self.num == {e: c * v for e, v in self.den.items() if c} else None

    def _mul_poly(a, b):
        out: dict[int, Fraction] = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, _Q0) + v1 * v2
        return {e: v for e, v in out.items() if v}

    def _shift(self, c: Fraction) -> "KRat":
        """self + c"""
        num = dict(self.num)
        for e, v in self.den.items():
            num[e] = num.get(e, _Q0) + c * v
        return KRat(num, self.den)

    def _scale(self, op, c: Fraction) -> "KRat":
        """self * c or self / c"""
        return KRat({e: op(v, c) for e, v in self.num.items()}, self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "KRat | Fraction") -> "KRat":
        if not isinstance(other, KRat):
            return self._shift(other)
        n1 = KRat._mul_poly(self.num, other.den)
        n2 = KRat._mul_poly(other.num, self.den)
        num = dict(n1)
        for e, v in n2.items():
            num[e] = num.get(e, _Q0) + v
        return KRat(num, KRat._mul_poly(self.den, other.den))

    __radd__ = _shift

    def __neg__(self):
        return KRat({e: -v for e, v in self.num.items()}, dict(self.den))

    def __sub__(self, other: "KRat | Fraction") -> "KRat":
        return self + (-other)

    def __rsub__(self, other: Fraction) -> "KRat":
        return (-self)._shift(other)

    def __mul__(self, other: "KRat | Fraction") -> "KRat":
        if not isinstance(other, KRat):
            return self._scale(operator.mul, other)
        return KRat(KRat._mul_poly(self.num, other.num),
                    KRat._mul_poly(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other: "KRat | Fraction") -> "KRat":
        if not isinstance(other, KRat):
            return self._scale(operator.truediv, other)
        if not other.num:
            raise ZeroDivisionError("KRat division by zero")
        return KRat(KRat._mul_poly(self.num, other.den),
                    KRat._mul_poly(self.den, other.num))

    def __rtruediv__(self, other: Fraction) -> "KRat":
        return KRat.const(other) / self

    def bind(self, k: Fraction) -> Fraction:
        nn, nd = _poly_at(self.num, k)
        dn, dd = _poly_at(self.den, k)
        if not dn:
            raise VanishingDenominator(
                f"k-expression {self!r} has a vanishing denominator at k={k}")
        return Fraction(nn * dd, nd * dn)

    def __repr__(self):
        def side(p):
            return " + ".join(
                (f"{v}" if e == 0 else (f"{v}*k" if e == 1 else f"{v}*k^{e}"))
                for e, v in sorted(p.items()))
        if self.den == {0: _Q1}:
            return side(self.num) or "0"
        return f"({side(self.num)})/({side(self.den)})"


def _poly_at(p: dict[int, Fraction], k: Fraction) -> tuple[int, int]:
    """sum_e p[e] k^e as an integer pair (numerator, denominator > 0), over
    the common denominator; the exponents of a KRat are never negative."""
    a, b = k.numerator, k.denominator
    top = max(p, default=0)
    den = math.lcm(*(v.denominator for v in p.values())) * b ** top
    return sum(v.numerator * (den // v.denominator // b ** e) * a ** e
               for e, v in p.items()), den


def merge(factors: dict, key, e: int) -> None:
    """Multiply a multiset {factor: exponent} by key^e in place.  A factor
    whose exponent reaches 0 is dropped."""
    v = factors.get(key, 0) + e
    if v:
        factors[key] = v
    else:
        factors.pop(key, None)


# ---------------------------------------------------------------------------
# Exact multiplicative constants of the form
#     i^(phase in quarter turns) * prod_p p^{q_p} * hbar^{q_h}
# These arise from Gamma-shift normalization ((s*hbar)^{+-1} factors) and
# from the log D regularization terms (D^{sum d_j x_j}).

class ExactConst:
    """i^phase * prod_p p^(e_p) * hbar^hbar_pow, phase in quarter turns.

    The rational exponents phase, e_p and hbar_pow are held as integer
    numerators (`ph`, `pe`, `hb`) over one shared denominator `den`, the
    least one, with the phase reduced into [0, 4), so equal constants have
    equal fields and one repr.  Constants are never changed in place; every
    operation returns a new one (or self).  `pe` holds no zero exponent;
    eval sums the prime logarithms in ascending order of the primes.
    `phase`, `primes` and `hbar_pow` read the exponents back as Fractions.
    """

    __slots__ = ("den", "ph", "pe", "hb")

    def __init__(self, den: int = 1, ph: int = 0,
                 pe: dict[int, int] | None = None, hb: int = 0):
        """The constant with exponents ph/den (modulo 4), pe[p]/den and
        hb/den."""
        pe = {} if pe is None else pe
        ph %= 4 * den
        g = math.gcd(den, ph, hb, *pe.values())
        if g != 1:
            den, ph, hb = den // g, ph // g, hb // g
            pe = {p: e // g for p, e in pe.items()}
        self.den, self.ph, self.pe, self.hb = den, ph, pe, hb

    @staticmethod
    def one() -> "ExactConst":
        return _CONST_ONE

    @property
    def phase(self) -> Fraction:
        return Fraction(self.ph, self.den)

    @property
    def hbar_pow(self) -> Fraction:
        return Fraction(self.hb, self.den)

    @property
    def primes(self) -> dict[int, Fraction]:
        return {p: Fraction(e, self.den) for p, e in self.pe.items()}

    def is_one(self) -> bool:
        return not self.ph and not self.hb and not self.pe

    def times_base(self, base: GR, hbar_pow: int, exponent) -> "ExactConst":
        """Multiply by (base * hbar^hbar_pow)^exponent, base a Gaussian rational
        of the form i^j * q with q a positive rational; exponent an int or a
        Fraction."""
        xn, xd = exponent.numerator, exponent.denominator
        if not xn:
            return self
        j, factors = _unit_factors(base.a, base.b, base.q)
        den = math.lcm(self.den, xd)
        f, x = den // self.den, xn * (den // xd)      # exponent = x / den
        pe = {p: e * f for p, e in self.pe.items()}
        for p, e in factors:
            merge(pe, p, e * x)
        return ExactConst(den, self.ph * f + j * x, pe, self.hb * f + hbar_pow * x)

    def times(self, other: "ExactConst") -> "ExactConst":
        if other.is_one():
            return self
        if self.is_one():
            return other
        den = math.lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        pe = {p: e * f1 for p, e in self.pe.items()}
        for p, e in other.pe.items():
            merge(pe, p, e * f2)
        return ExactConst(den, self.ph * f1 + other.ph * f2, pe,
                          self.hb * f1 + other.hb * f2)

    def inverse(self) -> "ExactConst":
        return ExactConst(self.den, -self.ph, {p: -e for p, e in self.pe.items()},
                          -self.hb)

    def wick_rotate(self) -> "ExactConst":
        """hbar -> -i*hbar: each power of hbar contributes a -i phase."""
        if not self.hb:
            return self
        # (-i)^{q} = i^{-q} = quarter-turn phase -q
        return ExactConst(self.den, self.ph - self.hb, self.pe, self.hb)

    def as_gr(self) -> GR:
        """Exact Gaussian-rational value; requires integer prime powers,
        a quarter-turn phase and no hbar content."""
        if self.hb:
            raise ValueError("constant carries hbar content")
        den = self.den
        if self.ph % den:
            raise ValueError("constant phase is not a quarter turn")
        out = _UNITS[self.ph // den]
        for p, e in self.pe.items():
            if e % den:
                raise ValueError(f"constant has fractional power of {p}")
            n = e // den
            out = out * (_raw(p ** n, 0, 1) if n >= 0 else _raw(1, 0, p ** -n))
        return out

    def eval(self, hbar: float) -> complex:
        # each exponent as n / den: int / int rounds correctly, as
        # float(Fraction) does, so the value is that of the Fraction form;
        # a quarter-turn phase is the exact unit
        den = self.den
        if self.ph % den:
            ph = self.ph / den * math.pi / 2.0
            v = complex(math.cos(ph), math.sin(ph))
        else:
            v = complex(_UNITS[self.ph // den])
        lg = 0.0
        for p, e in sorted(self.pe.items()):
            lg += e / den * math.log(p)
        lg += self.hb / den * math.log(hbar)
        return v * math.exp(lg)

    def __eq__(self, other):
        if not isinstance(other, ExactConst):
            return NotImplemented
        return (self.den == other.den and self.ph == other.ph
                and self.pe == other.pe and self.hb == other.hb)

    def __repr__(self):
        den = self.den
        parts = [f"i^{_qstr(self.ph, den)}"] if self.ph else []
        for p, e in sorted(self.pe.items()):
            parts.append(f"{p}^{_qstr(e, den)}")
        if self.hb:
            parts.append(f"hbar^{_qstr(self.hb, den)}")
        return "*".join(parts) if parts else "1"


_CONST_ONE = ExactConst()
_UNITS = (GR_ONE, GR_I, _raw(-1, 0, 1), _raw(0, -1, 1))


@functools.lru_cache(maxsize=1024)
def _unit_factors(a: int, b: int, q: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(j, ((p, e), ...)) with (a + b*i)/q = i^j * prod p^e, the primes of
    the numerator ascending, then those of the denominator; raises
    ValueError unless the value is i^j times a positive rational."""
    if not b and a:
        n, j = abs(a), 0 if a > 0 else 2
    elif not a and b:
        n, j = abs(b), 1 if b > 0 else 3
    else:
        raise ValueError(f"constant base {_raw(a, b, q)!r} is not of the form "
                         f"i^j * rational")
    out: dict[int, int] = {}
    for m, sgn in ((n, 1), (q, -1)):
        d = 2
        while d * d <= m:
            while m % d == 0:
                out[d] = out.get(d, 0) + sgn
                m //= d
            d += 1
        if m > 1:
            out[m] = out.get(m, 0) + sgn
    return j, tuple(out.items())
