"""The integer-backed exact scalars agree with their Fraction-based
originals.

`FracGR` and `FracConst` below are the Gaussian rational (a pair of
Fractions) and the exact constant (a dict of Fraction exponents) the package
used before `GR` and `ExactConst` were rebuilt on integers, kept as the
reference.  Besides their names, `FracConst` follows two later changes of
`ExactConst`: it holds no Gaussian-rational multiplier and reduces its phase
into [0, 4) quarter turns, and its `eval` takes a quarter-turn phase as the
exact unit and sums the prime logarithms in ascending order of the primes.
Every operation is run on both, and the results must be equal value for
value, including the strings that reports print and the bits of `eval`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from coset_forge.exact import GR, ExactConst, as_fraction


# -- the reference: the Fraction-based originals ------------------------------

@dataclass(frozen=True)
class FracGR:
    """Gaussian rational a + b*i with exact Fraction components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "FracGR":
        if isinstance(x, FracGR):
            return x
        if isinstance(x, complex):
            raise TypeError("build FracGR from exact values, not floats")
        return FracGR(as_fraction(x), Fraction(0))

    def __hash__(self):
        # computed once: GRs key the Gamma and linear-factor dicts and are
        # hashed on every merge; equal to hash((re, im)) like the default
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.re, self.im))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        o = FracGR.of(other)
        return FracGR(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return FracGR(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-FracGR.of(other))

    def __rsub__(self, other):
        return FracGR.of(other) + (-self)

    def __mul__(self, other):
        o = other if type(other) is FracGR else FracGR.of(other)
        # one side is 1 in most products of exact constants
        if o.im == 0 and o.re == 1:
            return self
        if self.im == 0 and self.re == 1:
            return o
        return FracGR(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = FracGR.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GR")
        return FracGR((self.re * o.re + self.im * o.im) / n,
                  (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return FracGR.of(other) / self

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


FRAC_ONE = FracGR(Fraction(1))


@dataclass
class FracConst:
    # quarter-turn phase units in [0, 4): value includes exp(i*pi/2 * phase)
    phase: Fraction
    primes: dict[int, Fraction]
    hbar_pow: Fraction

    def __post_init__(self):
        self.phase %= 4

    @staticmethod
    def one() -> "FracConst":
        return FracConst(Fraction(0), {}, Fraction(0))

    def copy(self) -> "FracConst":
        return FracConst(self.phase, dict(self.primes), self.hbar_pow)

    def times_base(self, base: FracGR, hbar_pow: int, exponent: Fraction) -> "FracConst":
        """Multiply by (base * hbar^hbar_pow)^exponent, base a Gaussian rational
        of the form i^j * q with q a positive rational."""
        if exponent == 0:
            return self.copy()
        q, j = _split_unit(base)
        out = self.copy()
        out.phase = (out.phase + Fraction(j) * exponent) % 4
        out.hbar_pow += Fraction(hbar_pow) * exponent
        for p, e in _factor_fraction(q).items():
            out.primes[p] = out.primes.get(p, Fraction(0)) + Fraction(e) * exponent
            if not out.primes[p]:
                del out.primes[p]
        return out

    def times(self, other: "FracConst") -> "FracConst":
        out = self.copy()
        out.phase = (out.phase + other.phase) % 4
        out.hbar_pow += other.hbar_pow
        for p, e in other.primes.items():
            out.primes[p] = out.primes.get(p, Fraction(0)) + e
            if not out.primes[p]:
                del out.primes[p]
        return out

    def inverse(self) -> "FracConst":
        return FracConst(-self.phase, {p: -e for p, e in self.primes.items()},
                         -self.hbar_pow)

    def wick_rotate(self) -> "FracConst":
        """hbar -> -i*hbar: each power of hbar contributes a -i phase."""
        out = self.copy()
        # (-i)^{q} = i^{-q} = quarter-turn phase -q
        out.phase = (out.phase - self.hbar_pow) % 4
        return out

    def is_one(self) -> bool:
        return self.phase == 0 and not self.primes and self.hbar_pow == 0

    def as_gr(self) -> FracGR:
        """Exact Gaussian-rational value; requires integer prime powers,
        a quarter-turn phase and no hbar content."""
        if self.hbar_pow != 0:
            raise ValueError("constant carries hbar content")
        if self.phase.denominator != 1:
            raise ValueError("constant phase is not a quarter turn")
        out = _FRAC_UNITS[int(self.phase)]
        for p, e in self.primes.items():
            if e.denominator != 1:
                raise ValueError(f"constant has fractional power of {p}")
            q = Fraction(p) ** int(e)
            out = out * FracGR(q)
        return out

    def eval(self, hbar: float) -> complex:
        if self.phase.denominator == 1:
            v = complex(_FRAC_UNITS[int(self.phase)])
        else:
            ph = float(self.phase) * math.pi / 2.0
            v = complex(math.cos(ph), math.sin(ph))
        lg = 0.0
        for p, e in sorted(self.primes.items()):
            lg += float(e) * math.log(p)
        lg += float(self.hbar_pow) * math.log(hbar)
        return v * math.exp(lg)

    def __eq__(self, other):
        if not isinstance(other, FracConst):
            return NotImplemented
        return (self.phase == other.phase and self.primes == other.primes
                and self.hbar_pow == other.hbar_pow)

    def __repr__(self):
        parts = []
        if self.phase:
            parts.append(f"i^{self.phase}")
        for p, e in sorted(self.primes.items()):
            parts.append(f"{p}^{e}")
        if self.hbar_pow:
            parts.append(f"hbar^{self.hbar_pow}")
        return "*".join(parts) if parts else "1"


_FRAC_UNITS = (FRAC_ONE, FracGR(Fraction(0), Fraction(1)), FracGR(Fraction(-1)),
               FracGR(Fraction(0), Fraction(-1)))


def _split_unit(g: FracGR) -> tuple[Fraction, int]:
    """Write g = i^j * q with q > 0 rational; g must be of that form."""
    if g.im == 0:
        if g.re > 0:
            return g.re, 0
        if g.re < 0:
            return -g.re, 2
    if g.re == 0:
        if g.im > 0:
            return g.im, 1
        if g.im < 0:
            return -g.im, 3
    raise ValueError(f"constant base {g!r} is not of the form i^j * rational")


def _factor_fraction(q: Fraction) -> dict[int, int]:
    out: dict[int, int] = {}
    for n, sgn in ((q.numerator, 1), (q.denominator, -1)):
        n = abs(n)
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + sgn
                n //= d
            d += 1
        if n > 1:
            out[n] = out.get(n, 0) + sgn
    return {p: e for p, e in out.items() if e}


# -- comparison helpers -----------------------------------------------------------

def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def same_gr(g: GR, f: FracGR) -> None:
    assert type(g) is GR
    assert (g.re, g.im) == (f.re, f.im)
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert repr(g) == repr(f)
    assert bits(complex(g)) == bits(complex(f))
    assert (bool(g), g.is_zero()) == (bool(f), f.is_zero())


def same_const(c: ExactConst, f: FracConst) -> None:
    assert 0 <= c.ph < 4 * c.den
    assert c.phase == f.phase and c.hbar_pow == f.hbar_pow
    assert c.primes == f.primes
    assert repr(c) == repr(f)
    assert c.is_one() == f.is_one()
    got, want = outcome(c.as_gr), outcome(f.as_gr)
    if isinstance(want, FracGR):
        same_gr(got, want)
    else:
        assert got == want
    for hbar in (1.0, 0.5, 3.0):
        assert bits(c.eval(hbar)) == bits(f.eval(hbar))


def outcome(fn):
    """fn's value, or its exception as (type, message)."""
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def agree(new, ref, check) -> bool:
    """Run both routes: the same exception, or values `check` accepts.
    True when there is a value to go on with."""
    got, want = outcome(new), outcome(ref)
    if isinstance(want, tuple):
        assert got == want
        return False
    check(got, want)
    return True


# -- Gaussian rationals --------------------------------------------------------------

_q = st.fractions(min_value=-20, max_value=20, max_denominator=60)
_pairs = st.tuples(_q, _q)
_scalars = _q | st.integers(-5, 5)


@settings(max_examples=200, deadline=None)
@given(_pairs, _pairs, _scalars)
def test_gr_agrees_with_the_fraction_pair(x, y, r):
    g, h = GR(*x), GR(*y)
    f, k = FracGR(*x), FracGR(*y)
    same_gr(g, f)
    same_gr(GR.of(r), FracGR.of(r))
    for new, ref in (
            (lambda: g + h, lambda: f + k), (lambda: g - h, lambda: f - k),
            (lambda: g * h, lambda: f * k), (lambda: g / h, lambda: f / k),
            (lambda: -g, lambda: -f),
            (lambda: g + r, lambda: f + r), (lambda: r + g, lambda: r + f),
            (lambda: g - r, lambda: f - r), (lambda: r - g, lambda: r - f),
            (lambda: g * r, lambda: f * r), (lambda: r * g, lambda: r * f),
            (lambda: g / r, lambda: f / r), (lambda: r / g, lambda: r / f)):
        agree(new, ref, same_gr)
    assert (g == h) == (f == k) and (g != h) == (f != k)
    assert (g == GR(*x)) and not (g == x[0])      # a GR equals GRs only


# -- exact constants --------------------------------------------------------------

# (j, q) is the base i^j * q; j = 4 stands for q + q*i, which is not of that form
_bases = st.tuples(st.integers(0, 4),
                   st.fractions(min_value=Fraction(1, 40), max_value=40,
                                max_denominator=40))
_exponents = st.fractions(min_value=-6, max_value=6, max_denominator=24) | st.integers(-3, 3)
_ops = st.lists(st.one_of(
    st.tuples(st.just("times_base"), _bases, st.just(0), st.just(1)),
    st.tuples(st.just("times_base"), _bases, st.integers(-2, 2), _exponents),
    st.tuples(st.just("times"), _bases, _bases, st.integers(-2, 2), _exponents),
    st.tuples(st.just("inverse")),
    st.tuples(st.just("wick_rotate")),
), max_size=12)


def _base(num, j, q):
    return num(*[(q, 0), (0, q), (-q, 0), (0, -q), (q, q)][j])


def _apply(c, op, num, const):
    """One operation on a constant of class `const` over scalars `num`."""
    kind = op[0]
    if kind == "times_base":
        return c.times_base(_base(num, *op[1]), op[2], op[3])
    if kind == "times":
        other = const.one().times_base(_base(num, *op[1]), 0, 1).times_base(
            _base(num, *op[2]), op[3], op[4])
        return c.times(other)
    return getattr(c, kind)()


@settings(max_examples=150, deadline=None)
@given(_ops, _ops)
def test_exact_const_agrees_with_the_fraction_dict(ops, more):
    c, f = ExactConst.one(), FracConst.one()
    same_const(c, f)
    for op in ops:
        if not agree(lambda: _apply(c, op, GR, ExactConst),
                     lambda: _apply(f, op, FracGR, FracConst), same_const):
            return
        c, f = _apply(c, op, GR, ExactConst), _apply(f, op, FracGR, FracConst)
    # equality, against an unrelated constant and against equal ones
    d, g = ExactConst.one(), FracConst.one()
    for op in more:
        try:
            d, g = _apply(d, op, GR, ExactConst), _apply(g, op, FracGR, FracConst)
        except (ArithmeticError, ValueError):
            break
    assert (c == d) == (f == g) and (d == c) == (g == f)
    minus_one = (GR(-1), FracGR(Fraction(-1)))
    for new, ref in ((c.times_base(minus_one[0], 0, 2), f.times_base(minus_one[1], 0, 2)),
                     (c.wick_rotate().wick_rotate().wick_rotate().wick_rotate(),
                      f.wick_rotate().wick_rotate().wick_rotate().wick_rotate())):
        assert (c == new) == (f == ref)
        assert (new == c) == (ref == f)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.integers(-30, 30),
       st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]),
                       st.integers(-30, 30).filter(bool), max_size=4),
       st.integers(-30, 30))
def test_exact_const_fields_are_exponents_over_one_denominator(den, ph, pe, hb):
    c = ExactConst(den, ph, pe, hb)
    f = FracConst(Fraction(ph, den), {p: Fraction(e, den) for p, e in pe.items()},
                  Fraction(hb, den))
    same_const(c, f)
    # the least denominator
    assert math.gcd(c.den, c.ph, c.hb, *c.pe.values()) == 1


def _fields(c: ExactConst):
    return c.den, c.ph, c.pe, c.hb, repr(c)


@settings(max_examples=150, deadline=None)
@given(_ops, _ops, st.integers(-3, 3), st.permutations(range(3)))
def test_equal_constants_have_equal_fields(ops, more, turns, order):
    c = ExactConst.one()
    for op in ops:
        try:
            c = _apply(c, op, GR, ExactConst)
        except ValueError:
            return      # a base that is not i^j * rational
    x = ExactConst.one()
    for op in more:
        try:
            x = _apply(x, op, GR, ExactConst)
        except ValueError:
            break
    # the same exponents by other routes: times an unrelated constant and its
    # inverse; rebuilt from the exponents in another order, the phase
    # shifted by whole turns; and four Wick rotations, each adding
    # -hbar_pow quarter turns, undone by a phase
    def primes(d):
        for p, e in reversed(list(c.primes.items())):
            d = d.times_base(GR(p), 0, e)
        return d

    steps = [lambda d: d.times_base(GR(0, 1), 0, c.phase + 4 * turns),
             lambda d: d.times(ExactConst.one().times_base(GR(1), 1, c.hbar_pow)),
             primes]
    rebuilt = ExactConst.one()
    for i in order:
        rebuilt = steps[i](rebuilt)
    rotated = c.wick_rotate().wick_rotate().wick_rotate().wick_rotate() \
        .times_base(GR(0, 1), 0, 4 * c.hbar_pow)
    for other in (c.times(x).times(x.inverse()), rebuilt, rotated):
        assert _fields(other) == _fields(c)
        assert other == c
