"""Exact arithmetic helpers: Gaussian rationals, Laurent polynomials and
Laurent rational functions over them, and exact multiplicative constants.

All symbolic decisions elsewhere in the package (equality of exponents,
cancellation of Gamma factors, divergence matching) reduce to arithmetic in
these types, so they must be exact.  Floating point enters only at
evaluation time.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
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


_P = sys.hash_info.modulus


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


def _qhash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for d > 0, by the numeric hash of the language
    reference; n/d need not be in lowest terms."""
    if d == 1:
        return hash(n)
    try:
        h = abs(n) % _P * pow(d, -1, _P) % _P
    except ValueError:                  # P divides d
        return hash(Fraction(n, d))
    if n < 0:
        h = -h
    return -2 if h == -1 else h


class GR:
    """Gaussian rational (a + b*i)/q with integers a, b, q: q > 0 and
    gcd(a, b, q) = 1, so equal values have equal fields.

    GR(re, im) takes ints or Fractions; `re` and `im` read the parts back as
    Fractions, and the hash is hash((re, im)).
    """

    __slots__ = ("a", "b", "q", "_hash")

    def __init__(self, re=0, im=0):
        rn, rd = _ratio(re)
        jn, jd = _ratio(im)
        # lcm of coprime-reduced denominators leaves gcd(a, b, q) = 1
        q = rd * jd // math.gcd(rd, jd)
        self.a, self.b, self.q = rn * (q // rd), jn * (q // jd), q
        self._hash = None

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
        # computed once: GRs key the Gamma and linear-factor dicts and are
        # hashed on every merge.  A tuple's hash depends only on the hashes
        # of its items, and an int below the modulus hashes to itself.
        h = self._hash
        if h is None:
            h = self._hash = hash((_qhash(self.a, self.q), _qhash(self.b, self.q)))
        return h

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

    def times_ratio(self, n: int, d: int) -> "GR":
        """self * n/d for integers n and d > 0."""
        return _gr(self.a * n, self.b * n, self.q * d)

    def conj(self) -> "GR":
        return _raw(self.a, -self.b, self.q)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_real(self) -> bool:
        return not self.b

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
    g.a, g.b, g.q, g._hash = a, b, q, None
    return g


def _gr(a: int, b: int, q: int) -> GR:
    """(a + b*i)/q for q > 0, brought to lowest terms."""
    g = math.gcd(a, b, q)
    if g != 1:
        a, b, q = a // g, b // g, q // g
    return _raw(a, b, q)


GR_ZERO = _raw(0, 0, 1)
GR_ONE = _raw(1, 0, 1)
GR_I = _raw(0, 1, 1)


# ---------------------------------------------------------------------------
# Cyclotomic denominators.
#
# Every denominator in the engine is a product of sinh binomials
# zeta^{-n} (zeta^{2n} - 1) / 2, so up to a unit and a power of zeta it is a
# product of cyclotomic polynomials Phi_d.  Over Q(i), Phi_d is irreducible
# when 4 does not divide d; when 4 | d it splits into the conjugate halves
# g_d = gcd(Phi_d, zeta^{d/4} - i) and conj(g_d).  A factor is named by an
# integer key: d for Phi_d (4 not dividing d), +d for g_d and -d for
# conj(g_d) (4 | d).  All factors are monic with Gaussian-integer
# coefficients, so cancellation is exact integer division.  A single term
# arrives reduced (binomial_quotient, below); trial division by the factors
# is left for sums and products of terms (LaurentRational._reduce).
#
# The halves need no gcd.  With m = d/4, a root of zeta^m - i has order d/e
# for an odd e | m, and zeta^{m/e} is i or -i as e is 1 or 3 mod 4.  So
# zeta^m - i is the product over odd e | m of g_{d/e} (e = 1 mod 4) or
# conj(g_{d/e}) (e = 3 mod 4), and g_d is zeta^m - i divided by the factors
# with e > 1, all of lower order.

@functools.lru_cache(maxsize=1024)
def _divisors(n: int) -> tuple[int, ...]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(sorted(set(small + [n // d for d in small])))


def _conv(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    nz = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nz:
                out[i + j] += x * y
    return out


def _div_monic(r: list[int], f: list[int]) -> list[int] | None:
    """Exact quotient of ascending integer coefficient lists by a monic f,
    or None if f does not divide r."""
    m = len(f) - 1
    if len(r) <= m:
        return None
    r = list(r)
    low = [(j, a) for j, a in enumerate(f[:m]) if a]
    for i in range(len(r) - 1, m - 1, -1):
        c = r[i]
        if c:
            b = i - m
            for j, a in low:
                r[b + j] -= c * a
    # entries at and above m are never touched once passed: the quotient
    if any(r[:m]):
        return None
    return r[m:]


def _div_monic_gauss(rr: list[int], ri: list[int] | None, fr: list[int],
                     fi: list[int]) -> tuple[list[int], list[int]] | None:
    """_div_monic over the Gaussian integers (real parts, imaginary parts)."""
    m = len(fr) - 1
    if len(rr) <= m:
        return None
    rr = list(rr)
    ri = list(ri) if ri is not None else [0] * len(rr)
    low = [(j, a, b) for j, (a, b) in enumerate(zip(fr[:m], fi[:m])) if a or b]
    for i in range(len(rr) - 1, m - 1, -1):
        cr, ci = rr[i], ri[i]
        if cr or ci:
            base = i - m
            for j, a, b in low:
                rr[base + j] -= cr * a - ci * b
                ri[base + j] -= cr * b + ci * a
    if any(rr[:m]) or any(ri[:m]):
        return None
    return rr[m:], ri[m:]


class LaurentPoly:
    """Laurent polynomial with Gaussian-rational coefficients held as
    Gaussian integers over one denominator: (re[j] + i*im[j]) / q at
    exponent lo + j.

    Always normalized (see make): nonzero end coefficients, q > 0 coprime to
    the coefficients, im None when every imaginary part vanishes, so equal
    polynomials have equal fields.  The zero polynomial has re == [].
    """

    __slots__ = ("lo", "re", "im", "q")

    def __init__(self, lo: int, re: list[int], im: list[int] | None, q: int):
        self.lo, self.re, self.im, self.q = lo, re, im, q

    @staticmethod
    def make(lo: int, re: list[int], im: list[int] | None, q: int) -> "LaurentPoly":
        if im is not None and not any(im):
            im = None
        a, b = 0, len(re)
        if im is None:
            while a < b and not re[a]:
                a += 1
            while b > a and not re[b - 1]:
                b -= 1
        else:
            while a < b and not (re[a] or im[a]):
                a += 1
            while b > a and not (re[b - 1] or im[b - 1]):
                b -= 1
        if a == b:
            return _ZERO
        if a or b < len(re):
            re = re[a:b]
            im = None if im is None else im[a:b]
        g = math.gcd(q, *re) if im is None else math.gcd(q, *re, *im)
        if g > 1:
            re = [x // g for x in re]
            im = None if im is None else [x // g for x in im]
            q //= g
        return LaurentPoly(lo + a, re, im, q)

    def is_zero(self) -> bool:
        return not self.re

    def degree(self) -> int:
        return len(self.re) - 1

    def max_exp(self) -> int:
        return self.lo + len(self.re) - 1

    def terms(self) -> list[tuple[int, int, int]]:
        """(exponent, re, im) of each nonzero coefficient (re + i*im)/q,
        exponents ascending."""
        im = self.im or itertools.repeat(0)
        return [(self.lo + j, a, b) for j, (a, b) in enumerate(zip(self.re, im))
                if a or b]

    def taylor_at_one(self, order: int) -> list[GR]:
        """Coefficients of sum_m c_m e^{m s} expanded in s up to s^order.

        Used for exact small-argument expansions: coefficient r is
        (1/r!) sum_m c_m m^r.
        """
        terms = self.terms()
        out = []
        fact = 1
        for r in range(order + 1):
            if r:
                fact *= r
            out.append(_gr(sum(a * e ** r for e, a, _ in terms),
                           sum(b * e ** r for e, _, b in terms), self.q * fact))
        return out

    def __eq__(self, other):
        if type(other) is not LaurentPoly:
            return NotImplemented
        return (self.lo == other.lo and self.q == other.q
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.lo, self.q, tuple(self.re),
                     None if self.im is None else tuple(self.im)))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.re:
            return other
        if not other.re:
            return self
        q = math.lcm(self.q, other.q)
        lo = min(self.lo, other.lo)
        n = max(self.lo + len(self.re), other.lo + len(other.re)) - lo
        re = [0] * n
        im = None if self.im is None and other.im is None else [0] * n
        for p in (self, other):
            s, off = q // p.q, p.lo - lo
            for j, x in enumerate(p.re):
                re[off + j] += x * s
            if p.im is not None:
                for j, x in enumerate(p.im):
                    im[off + j] += x * s
        return LaurentPoly.make(lo, re, im, q)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.re or not other.re:
            return _ZERO
        re = _conv(self.re, other.re)
        im = None
        if self.im is not None and other.im is not None:
            for j, x in enumerate(_conv(self.im, other.im)):
                re[j] -= x
        if self.im is not None or other.im is not None:
            im = [0] * len(re)
            for a, b in ((self.re, other.im), (self.im, other.re)):
                if a is not None and b is not None:
                    for j, x in enumerate(_conv(a, b)):
                        im[j] += x
        return LaurentPoly.make(self.lo + other.lo, re, im, self.q * other.q)

    def divide(self, f: "LaurentPoly") -> "LaurentPoly | None":
        """Exact quotient by a monic Gaussian-integer polynomial f with
        f.lo == 0 and f(0) != 0, or None if f does not divide self."""
        if f.im is None:
            re = _div_monic(self.re, f.re)
            if re is None:
                return None
            im = None
            if self.im is not None:
                im = _div_monic(self.im, f.re)
                if im is None:
                    return None
        else:
            out = _div_monic_gauss(self.re, self.im, f.re, f.im)
            if out is None:
                return None
            re, im = out
        return LaurentPoly.make(self.lo, re, im, self.q)

    def __repr__(self):
        if not self.re:
            return "0"
        q = self.q
        return " + ".join(f"{_gr(a, b, q)!r}*Z^{e}" for e, a, b in self.terms())


_ZERO = LaurentPoly(0, [], None, 1)
_ONE = LaurentPoly(0, [1], None, 1)


@functools.lru_cache(maxsize=1024)
def _cyclotomic(d: int) -> list[int]:
    """Phi_d as ascending integer coefficients."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in _divisors(d)[:-1]:
        p = _div_monic(p, _cyclotomic(e))
    return p


@functools.lru_cache(maxsize=1024)
def _factor(key: int) -> LaurentPoly:
    """The monic irreducible factor named by key (see above)."""
    if key % 4:
        return LaurentPoly(0, _cyclotomic(key), None, 1)
    if key < 0:
        g = _factor(-key)
        return LaurentPoly(0, g.re, [-y for y in g.im], 1)
    m = key // 4
    g = LaurentPoly(0, [0] * m + [1], [-1] + [0] * m, 1)  # zeta^m - i
    for e in _divisors(m)[1:]:
        if e % 2:
            g = g.divide(_factor(key // e if e % 4 == 1 else -(key // e)))
    return g


# ---------------------------------------------------------------------------
# Products of binomials.
#
# A single grammar term is c * zeta^s * prod_j (zeta^{m_j} - 1)^{p_j}, so its
# reduced form is read off the counts of each Phi_d, d | m_j: the factors
# counted negative are the denominator, and those counted positive make the
# numerator, built from binomials by Phi_d = prod_{j | d} (zeta^j - 1)^mu(d/j).
# Multiplying by or dividing exactly by zeta^j - 1 is a sparse step, linear
# in the length, so no dense factor is ever divided by trial.

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
    return [x - y for x, y in zip([0] * j + p, p + [0] * j)]


def _over_binomial(p: list[int], j: int) -> list[int]:
    """p / (zeta^j - 1), the division exact: q_i = q_{i-j} - p_i, so each
    residue class mod j of q is a running sum of that class of -p."""
    n = len(p) - j
    q = [0] * n
    for r in range(min(j, n)):
        q[r:n:j] = [-x for x in itertools.accumulate(p[r:n:j])]
    return q


def binomial_quotient(coeff: GR, lo: int,
                      powers: list[tuple[int, int]]) -> "LaurentRational":
    """coeff * zeta^lo * prod (zeta^m - 1)^p over the pairs (m, p) of powers,
    m > 0, built reduced.  The denominator holds the factors of the negative
    powers in the order they first name them, as a LaurentRational reduced
    from the unreduced product would hold them."""
    count: dict[int, int] = {}
    named: dict[int, None] = {}         # orders named by a negative power
    for m, p in powers:
        for d in _divisors(m):
            count[d] = count.get(d, 0) + p
            if p < 0:
                named[d] = None
    factors: dict[int, int] = {}
    for d in named:
        c = count[d]
        if c < 0:
            factors[d] = -c
            if d % 4 == 0:
                factors[-d] = -c
    exps: dict[int, int] = {}
    for d, c in count.items():
        if c > 0:
            for j, mu in _phi_binomials(d):
                exps[j] = exps.get(j, 0) + c * mu
    num = [1]
    for j, e in exps.items():
        for _ in range(e):
            num = _times_binomial(num, j)
    for j, e in exps.items():
        for _ in range(-e):
            num = _over_binomial(num, j)
    a, b = coeff.a, coeff.b
    n = LaurentPoly.make(lo, [x * a for x in num],
                         [x * b for x in num] if b else None, coeff.q)
    return LaurentRational._make(n, factors)


def _key(factors: dict[int, int]) -> tuple:
    """Hashable form of a multiset; factors of multiplicity 0 drop out."""
    return tuple(sorted((k, m) for k, m in factors.items() if m))


@functools.lru_cache(maxsize=1024)
def _product(key: tuple) -> LaurentPoly:
    """Product of the factors of a multiset given by _key."""
    p = _ONE
    for f, m in key:
        for _ in range(m):
            p = p * _factor(f)
    return p


class LaurentRational:
    """Quotient of a Laurent polynomial by a product of cyclotomic factors,
    kept reduced.

    The denominator is carried as the multiset `factors`, {factor key:
    multiplicity}.  A single grammar term is built reduced by
    binomial_quotient, which counts the factors and divides nothing; a sum
    or product built here is reduced by exact trial division of the
    numerator by each factor while it divides.  Normal form: no factor of
    the denominator divides the numerator, and the denominator (the product
    of the factors) has minimum exponent 0 and leading coefficient 1.
    `num` is the numerator and `den` the product of the factors.
    """

    __slots__ = ("num", "factors")

    def __init__(self, num: LaurentPoly, factors: dict[int, int] | None = None):
        if num.is_zero():
            self.num, self.factors = num, {}
        else:
            self.num, self.factors = self._reduce(num, factors or {})

    @staticmethod
    def _reduce(n: LaurentPoly, factors: dict[int, int]) -> tuple[LaurentPoly, dict[int, int]]:
        left = {}
        for key, m in factors.items():
            f = _factor(key)
            while m:
                q = n.divide(f)
                if q is None:
                    break
                n, m = q, m - 1
            if m:
                left[key] = m
        return n, left

    @staticmethod
    def _make(n: LaurentPoly, factors: dict[int, int]) -> "LaurentRational":
        """An already reduced quotient."""
        r = object.__new__(LaurentRational)
        r.num, r.factors = n, factors if not n.is_zero() else {}
        return r

    @property
    def den(self) -> LaurentPoly:
        return _product(_key(self.factors))

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
        lcm = {k: max(fa.get(k, 0), fb.get(k, 0)) for k in fa.keys() | fb.keys()}
        na = self.num * _product(_key({k: m - fa.get(k, 0) for k, m in lcm.items()}))
        nb = other.num * _product(_key({k: m - fb.get(k, 0) for k, m in lcm.items()}))
        return LaurentRational(na + nb, lcm)

    def __mul__(self, other: "LaurentRational") -> "LaurentRational":
        factors = dict(self.factors)
        for key, m in other.factors.items():
            factors[key] = factors.get(key, 0) + m
        return LaurentRational(self.num * other.num, factors)

    def cofactor(self, n: int) -> LaurentPoly | None:
        """(zeta^n - 1) / den by exact integer division, or None if den does
        not divide zeta^n - 1."""
        return LaurentPoly(0, [-1] + [0] * (n - 1) + [1], None, 1).divide(self.den)

    def limit_at_one(self) -> GR:
        """lim_{zeta->1} of the rational function; raises if it diverges.

        Only Phi_1 = zeta - 1 vanishes at 1, and a reduced numerator is not
        divisible by it when the denominator holds it."""
        if self.factors.get(1):
            raise ZeroDivisionError("pole at zeta = 1")
        n, d = self.num, self.den
        return _gr(sum(n.re), sum(n.im or ()), n.q) / _raw(sum(d.re), sum(d.im or ()), 1)

    def __repr__(self):
        if not self.factors:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


# ---------------------------------------------------------------------------
# Rational functions of the level parameter k (for the definition DSL, where
# expressions must stay symbolic until k is bound).

class KRat:
    """Rational function of k with Fraction coefficients, degree kept small."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict[int, Fraction], den: dict[int, Fraction] | None = None):
        self.num = {e: v for e, v in num.items() if v}
        self.den = {e: v for e, v in (den or {0: Fraction(1)}).items() if v}
        if not self.den:
            raise ZeroDivisionError("KRat zero denominator")
        if not self.num:
            self.den = {0: Fraction(1)}

    @staticmethod
    def const(x) -> "KRat":
        return KRat({0: as_fraction(x)})

    @staticmethod
    def k() -> "KRat":
        return KRat({1: Fraction(1)})

    def _mul_poly(a, b):
        out: dict[int, Fraction] = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + v1 * v2
        return {e: v for e, v in out.items() if v}

    def __add__(self, other: "KRat") -> "KRat":
        n1 = KRat._mul_poly(self.num, other.den)
        n2 = KRat._mul_poly(other.num, self.den)
        num = dict(n1)
        for e, v in n2.items():
            num[e] = num.get(e, Fraction(0)) + v
        return KRat(num, KRat._mul_poly(self.den, other.den))

    def __neg__(self):
        return KRat({e: -v for e, v in self.num.items()}, dict(self.den))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "KRat") -> "KRat":
        return KRat(KRat._mul_poly(self.num, other.num),
                    KRat._mul_poly(self.den, other.den))

    def __truediv__(self, other: "KRat") -> "KRat":
        if not other.num:
            raise ZeroDivisionError("KRat division by zero")
        return KRat(KRat._mul_poly(self.num, other.den),
                    KRat._mul_poly(self.den, other.num))

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
        if self.den == {0: Fraction(1)}:
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
    whose exponent reaches 0 is dropped, and re-enters at the end of the
    insertion order if it comes back."""
    v = factors.get(key, 0) + e
    if v:
        factors[key] = v
    else:
        factors.pop(key, None)


# ---------------------------------------------------------------------------
# Exact multiplicative constants of the form
#     mult * i^(phase/2 pi units) * prod_p p^{q_p} * hbar^{q_h}
# These arise from Gamma-shift normalization ((s*hbar)^{+-1} factors) and
# from the log D regularization terms (D^{sum d_j x_j}).

class ExactConst:
    """mult * i^phase * prod_p p^(e_p) * hbar^hbar_pow, phase in quarter turns.

    The rational exponents phase, e_p and hbar_pow are held as integer
    numerators (`ph`, `pe`, `hb`) over one shared denominator `den`, the
    least one, so equal exponents have equal fields.  Constants are never
    changed in place; every operation returns a new one (or self).  `pe`
    holds no zero exponent and keeps its primes in insertion order, as eval
    sums their logarithms in that order.  `phase`, `primes` and `hbar_pow`
    read the exponents back as Fractions.
    """

    __slots__ = ("mult", "den", "ph", "pe", "hb")

    def __init__(self, mult: GR = GR_ONE, den: int = 1, ph: int = 0,
                 pe: dict[int, int] | None = None, hb: int = 0):
        """The constant with exponents ph/den, pe[p]/den and hb/den."""
        pe = {} if pe is None else pe
        g = math.gcd(den, ph, hb, *pe.values())
        if g != 1:
            den, ph, hb = den // g, ph // g, hb // g
            pe = {p: e // g for p, e in pe.items()}
        self.mult, self.den, self.ph, self.pe, self.hb = mult, den, ph, pe, hb

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

    def _exponents_zero(self) -> bool:
        return not self.ph and not self.hb and not self.pe

    def times_gr(self, g: GR) -> "ExactConst":
        return ExactConst(self.mult * g, self.den, self.ph, self.pe, self.hb)

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
        return ExactConst(self.mult, den, self.ph * f + j * x, pe,
                          self.hb * f + hbar_pow * x)

    def times(self, other: "ExactConst") -> "ExactConst":
        if other._exponents_zero():
            return self if other.mult == GR_ONE else self.times_gr(other.mult)
        if self._exponents_zero() and self.mult == GR_ONE:
            return other
        den = math.lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        pe = {p: e * f1 for p, e in self.pe.items()}
        for p, e in other.pe.items():
            merge(pe, p, e * f2)
        return ExactConst(self.mult * other.mult, den, self.ph * f1 + other.ph * f2,
                          pe, self.hb * f1 + other.hb * f2)

    def inverse(self) -> "ExactConst":
        return ExactConst(GR_ONE / self.mult, self.den, -self.ph,
                          {p: -e for p, e in self.pe.items()}, -self.hb)

    def wick_rotate(self) -> "ExactConst":
        """hbar -> -i*hbar: each power of hbar contributes a -i phase."""
        if not self.hb:
            return self
        # (-i)^{q} = i^{-q} = quarter-turn phase -q
        return ExactConst(self.mult, self.den, self.ph - self.hb, self.pe, self.hb)

    def canonical(self) -> "ExactConst":
        """Fold a unit-times-positive-rational multiplier into phase/primes."""
        m = self.mult
        if m == GR_ONE:
            return self
        try:
            j, factors = _unit_factors(m.a, m.b, m.q)
        except ValueError:
            return self
        den = self.den
        pe = dict(self.pe)
        for p, e in factors:
            merge(pe, p, e * den)
        return ExactConst(GR_ONE, den, self.ph + j * den, pe, self.hb)

    def is_one(self) -> bool:
        c = self.canonical()
        return (c.mult == GR_ONE and c.ph % (4 * c.den) == 0
                and not c.pe and not c.hb)

    def as_gr(self) -> GR:
        """Exact Gaussian-rational value; requires integer prime powers,
        a quarter-turn phase and no hbar content."""
        if self.hb:
            raise ValueError("constant carries hbar content")
        den = self.den
        if self.ph % den:
            raise ValueError("constant phase is not a quarter turn")
        out = self.mult * _UNITS[self.ph // den % 4]
        for p, e in self.pe.items():
            if e % den:
                raise ValueError(f"constant has fractional power of {p}")
            n = e // den
            out = out * (_raw(p ** n, 0, 1) if n >= 0 else _raw(1, 0, p ** -n))
        return out

    def eval(self, hbar: float) -> complex:
        # each exponent as n / den: int / int rounds correctly, as
        # float(Fraction) does, so the value is that of the Fraction form
        den = self.den
        v = complex(self.mult)
        ph = self.ph / den * math.pi / 2.0
        v *= complex(math.cos(ph), math.sin(ph))
        lg = 0.0
        for p, e in self.pe.items():
            lg += e / den * math.log(p)
        lg += self.hb / den * math.log(hbar)
        return v * math.exp(lg)

    def __eq__(self, other):
        if not isinstance(other, ExactConst):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return (a.mult == b.mult and a.den == b.den
                and (a.ph - b.ph) % (4 * a.den) == 0
                and a.pe == b.pe and a.hb == b.hb)

    def __repr__(self):
        den = self.den
        parts = []
        if self.mult != GR_ONE:
            parts.append(repr(self.mult))
        if self.ph % (4 * den):
            parts.append(f"i^{_qstr(self.ph, den)}")
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
