"""Definition-file parser for the `.alg` format.

A definition file declares the session parameters, the Heisenberg kernels,
the currents (primitive ones by their exponent expressions, composite ones
by products and sums of earlier currents with argument shifts), and the
relations to verify.  The expression grammar is deliberately small:
rationals and rational functions of k, hbar powers, exponential tilts
E(a*h*t), sinh(b*h*t)^n factors, and the spectral phase E(-i*u*t), which
every exponent carries implicitly and may be written for emphasis.

Parsing is deterministic recursive descent; every syntax error reports
line, column and the expected token set.  Printing a parsed file with
render() and reparsing gives an equal DefinitionFile.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import NamedTuple

from .algebra import Catalog, Current, NormalOrderedTerm, Relation
from .contraction import StructureFunction, gamma_key, linear_key
from .errors import DuplicateName, ParseError, UndeclaredName
from .exact import GR, GR_I, GR_ONE, ExactConst, KRat
from .modes import AlgebraParams, ExpTrigTerm, Kernel, ModeFunction, shift_argument

__all__ = ["parse_definitions", "DefinitionFile"]

_KEYWORDS = {
    "params", "kernel", "current", "relation", "commutator_delta", "on",
    "pos", "neg", "sign", "slope", "k", "hbar", "h", "t", "u", "v", "i",
    "exp", "sinh", "Gamma", "iw", "w", "x", "with", "rotate", "tol", "shape",
    "poles", "residues", "rotate_sector",
}

# One token per match, after optional blanks; the most frequent kinds come
# first.  The grammar is ASCII: any other character, a non-ASCII digit or
# letter included, lands in the last group and is rejected with its
# position.  A float has a fraction part ("2." counts) or an exponent; "1e"
# is the number 1 followed by the name e.
_TOKEN_RE = re.compile(r"""[ \t\r]*(?:
      (==|[\^@{}()=;:,*/+\-])                                  # 1 punct
    | ([A-Za-z_][A-Za-z0-9_]*)                                 # 2 name
    | ([0-9]+(?:\.[0-9]*(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))  # 3 float
    | ([0-9]+)                                                 # 4 number
    | (\#.*)                                                   # 5 comment
    | ([^ \t\r]))                                              # 6 error
    """, re.VERBOSE)
_KIND = (None, "punct", None, "float", "number")


class Token(NamedTuple):
    kind: str          # "ident", "keyword", "number", "float", "punct", "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    toks = []
    append = toks.append
    new = tuple.__new__     # a Token without the Python-level constructor
    for line, src in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(src):
            g = m.lastindex
            word = m.group(g)
            if g == 2:
                kind = "keyword" if word in _KEYWORDS else "ident"
            elif g == 5:
                break
            elif g == 6:
                raise ParseError(line, m.start(g) + 1, {"token"}, word)
            else:
                kind = _KIND[g]
            append(new(Token, (kind, word, line, m.start(g) + 1)))
    # the end sits after the last line, short of a trailing comment
    hash_at = src.find("#")
    append(Token("eof", "", line, (len(src) if hash_at < 0 else hash_at) + 1))
    return toks


# ---------------------------------------------------------------------------
# k-expression values

# A k-expression stays a Fraction while it is constant, as most are, and
# becomes a KRat once it involves k: constants fold with Fraction arithmetic
# alone, and binding a constant costs nothing.
KVal = Fraction | KRat

_ARITH = {"+": operator.add, "-": operator.sub,
          "*": operator.mul, "/": operator.truediv}
_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_I = GR(_ZERO, Fraction(-1))
_K = KRat.k()   # shared: KRat arithmetic never changes its operands


def _lift(x: KVal) -> KRat:
    return x if isinstance(x, KRat) else KRat.const(x)


def _kop(op, a: KVal, b: KVal) -> KVal:
    """a op b.  A KRat meets a constant by scaling or shifting its numerator
    rather than by a product of coefficient dicts."""
    if isinstance(a, Fraction):
        if isinstance(b, Fraction):
            return op(a, b)
        if op is operator.add:
            return _shift(b, a)
        if op is operator.sub:
            return _shift(-b, a)
        if op is operator.mul:
            return _scale(b, operator.mul, a)
        return _lift(a) / b
    if isinstance(b, Fraction):
        if op is operator.add:
            return _shift(a, b)
        if op is operator.sub:
            return _shift(a, -b)
        return _scale(a, op, b)
    return op(a, b)


def _shift(x: KRat, c: Fraction) -> KRat:
    """x + c"""
    num = dict(x.num)
    for e, v in x.den.items():
        num[e] = num.get(e, _ZERO) + c * v
    return KRat(num, x.den)


def _scale(x: KRat, op, c: Fraction) -> KRat:
    """x * c or x / c"""
    return KRat({e: op(v, c) for e, v in x.num.items()}, x.den)


def _is_zero(x: KVal) -> bool:
    return not (x.num if isinstance(x, KRat) else x)


def _at(x: KVal, k: Fraction) -> Fraction:
    """The value of a k-expression at level k."""
    return x if isinstance(x, Fraction) else x.bind(k)


# ---------------------------------------------------------------------------
# declaration records

class TermDecl:
    __slots__ = ("coeff", "hbar_power", "shift", "sinh")

    def __init__(self, coeff: KVal, hbar_power: int, shift: KVal,
                 sinh: list[tuple[KVal, int]]):
        self.coeff = coeff
        self.hbar_power = hbar_power
        self.shift = shift
        self.sinh = sinh

    def __eq__(self, other):
        return (isinstance(other, TermDecl)
                and _krat_eq(self.coeff, other.coeff)
                and self.hbar_power == other.hbar_power
                and _krat_eq(self.shift, other.shift)
                and len(self.sinh) == len(other.sinh)
                and all(_krat_eq(a, c) and b == d for (a, b), (c, d)
                        in zip(self.sinh, other.sinh)))


class CompositeRef:
    __slots__ = ("name", "inverse", "shift")

    def __init__(self, name: str, inverse: bool = False,
                 shift: KVal | None = None):
        self.name = name
        self.inverse = inverse
        self.shift = shift

    def __eq__(self, other):
        return (isinstance(other, CompositeRef) and self.name == other.name
                and self.inverse == other.inverse
                and _opt_krat_eq(self.shift, other.shift))


class CompositeTerm:
    __slots__ = ("coeff", "hbar_power", "refs")

    def __init__(self, coeff: KVal, hbar_power: int,
                 refs: list[CompositeRef]):
        self.coeff = coeff
        self.hbar_power = hbar_power
        self.refs = refs

    def __eq__(self, other):
        return (isinstance(other, CompositeTerm)
                and _krat_eq(self.coeff, other.coeff)
                and self.hbar_power == other.hbar_power
                and self.refs == other.refs)


class CurrentDecl:
    __slots__ = ("name", "kernel", "pos", "neg", "composite")

    def __init__(self, name: str, kernel: str | None = None,
                 pos: list[TermDecl] | None = None,
                 neg: list[TermDecl] | None = None,
                 composite: list[CompositeTerm] | None = None):
        self.name = name
        self.kernel = kernel            # primitive currents
        self.pos = [] if pos is None else pos
        self.neg = [] if neg is None else neg
        self.composite = composite      # composite currents


class KernelDecl:
    __slots__ = ("name", "sign", "slope")

    def __init__(self, name: str, sign: int, slope: KVal):
        self.name = name
        self.sign = sign
        self.slope = slope

    def __eq__(self, other):
        return (isinstance(other, KernelDecl) and self.name == other.name
                and self.sign == other.sign and _krat_eq(self.slope, other.slope))


class FactorDecl:
    __slots__ = ("kind", "offset", "scale", "scale_sign", "shift", "exponent",
                 "scalar")

    def __init__(self, kind: str, offset: KVal | None = None,
                 scale: KVal | None = None, scale_sign: int = 1,
                 shift: KVal | None = None, exponent: int = 1,
                 scalar: KVal | None = None):
        self.kind = kind                # "w", "iw", "gamma", "scalar"
        self.offset = offset            # w/iw: (w + offset*hbar)
        self.scale = scale              # gamma: x@scale, sign folded in
        self.scale_sign = scale_sign
        self.shift = shift
        self.exponent = exponent
        self.scalar = scalar

    def __eq__(self, other):
        return (isinstance(other, FactorDecl) and self.kind == other.kind
                and _opt_krat_eq(self.offset, other.offset)
                and _opt_krat_eq(self.scale, other.scale)
                and self.scale_sign == other.scale_sign
                and _opt_krat_eq(self.shift, other.shift)
                and self.exponent == other.exponent
                and _opt_krat_eq(self.scalar, other.scalar))


class RelationDecl:
    __slots__ = ("name", "kind", "left_factors", "left_pair", "right_factors",
                 "right_pair", "rotate", "tol")

    def __init__(self, name: str, kind: str, left_factors: list[FactorDecl],
                 left_pair: tuple[str, str], right_factors: list[FactorDecl],
                 right_pair: tuple[str, str], rotate: str = "none",
                 tol: float | None = None):
        self.name = name
        self.kind = kind                # "exchange" | "shape"
        self.left_factors = left_factors
        self.left_pair = left_pair
        self.right_factors = right_factors
        self.right_pair = right_pair
        self.rotate = rotate
        self.tol = tol


class CommutatorDecl:
    __slots__ = ("name_a", "name_b", "poles", "residues")

    def __init__(self, name_a: str, name_b: str, poles: list[KVal],
                 residues: list[tuple[str, KVal]]):
        self.name_a = name_a
        self.name_b = name_b
        self.poles = poles
        self.residues = residues

    def __eq__(self, other):
        return (isinstance(other, CommutatorDecl)
                and self.name_a == other.name_a and self.name_b == other.name_b
                and len(self.poles) == len(other.poles)
                and all(_krat_eq(a, b) for a, b in zip(self.poles, other.poles))
                and len(self.residues) == len(other.residues)
                and all(n == m and _krat_eq(a, b) for (n, a), (m, b)
                        in zip(self.residues, other.residues)))


def _krat_eq(a: KVal, b: KVal) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    a, b = _lift(a), _lift(b)
    return KRat._mul_poly(a.num, b.den) == KRat._mul_poly(b.num, a.den)


def _opt_krat_eq(a, b):
    if a is None or b is None:
        return a is None and b is None
    return _krat_eq(a, b)


class DefinitionFile:
    __slots__ = ("k", "hbars", "rotation_sector", "kernels", "currents",
                 "relations", "commutators")

    def __init__(self, k: KRat, hbars: list[KRat], rotation_sector: str | None,
                 kernels: list[KernelDecl], currents: list[CurrentDecl],
                 relations: list[RelationDecl],
                 commutators: list[CommutatorDecl]):
        self.k = k
        self.hbars = hbars
        self.rotation_sector = rotation_sector
        self.kernels = kernels
        self.currents = currents
        self.relations = relations
        self.commutators = commutators

    def __eq__(self, other):
        if not isinstance(other, DefinitionFile):
            return NotImplemented
        return (
            _krat_eq(self.k, other.k)
            and len(self.hbars) == len(other.hbars)
            and all(_krat_eq(a, b) for a, b in zip(self.hbars, other.hbars))
            and self.rotation_sector == other.rotation_sector
            and self.kernels == other.kernels
            and _currents_eq(self.currents, other.currents)
            and _relations_eq(self.relations, other.relations)
            and self.commutators == other.commutators)

    # -- canonical rendering ------------------------------------------------
    def render(self) -> str:
        out = []
        out.append("params {")
        out.append(f"  k = {_krat_str(self.k)};")
        out.append("  hbar = " + ", ".join(_krat_str(h) for h in self.hbars) + ";")
        out.append("}")
        if self.rotation_sector:
            out.append(f"rotate_sector {self.rotation_sector};")
        for kd in self.kernels:
            sg = "+1" if kd.sign > 0 else "-1"
            out.append(f"kernel {kd.name} {{ sign = {sg}; slope = {_krat_str(kd.slope)}; }}")
        for cd in self.currents:
            if cd.composite is None:
                out.append(f"current {cd.name} on {cd.kernel} {{")
                for label, terms in (("pos", cd.pos), ("neg", cd.neg)):
                    if terms:
                        out.append(f"  {label}: " + " + ".join(
                            _term_str(t) for t in terms) + ";")
                out.append("}")
            else:
                out.append(f"current {cd.name} = "
                           + " + ".join(_cterm_str(t) for t in cd.composite) + ";")
        for rd in self.relations:
            out.append(_relation_str(rd))
        for cm in self.commutators:
            out.append(f"commutator_delta {cm.name_a} {cm.name_b} {{")
            out.append("  poles: " + ", ".join(_krat_str(p) for p in cm.poles) + ";")
            out.append("  residues: " + ", ".join(
                f"{n} @ ({_krat_str(s)})" for n, s in cm.residues) + ";")
            out.append("}")
        return "\n".join(out) + "\n"

    # -- binding --------------------------------------------------------------
    def bind(self, k_override: Fraction | None = None,
             hbar_override: list[Fraction] | None = None):
        """Evaluate all declarations at a concrete level, producing the
        algebra parameters, the catalog, the relation list and the
        commutator-delta specifications."""
        # the declared k must be a constant; bind at 0 evaluates it
        kval = k_override if k_override is not None else self.k.bind(_ZERO)
        hbars = (hbar_override if hbar_override is not None
                 else [h.bind(kval) for h in self.hbars])
        if not hbars:
            hbars = [Fraction(1)]
        params = AlgebraParams(kval, hbars[0])
        # AlgebraParams holds and checks the first; the report lists them all
        if any(h <= 0 for h in hbars):
            raise ValueError("hbar must be positive")
        cat = Catalog(params)
        cat.rotation_sector = self.rotation_sector
        for kd in self.kernels:
            cat.kernels[kd.name] = Kernel(kd.name, kd.sign, _at(kd.slope, kval))
        for cd in self.currents:
            if cd.composite is None:
                mf = ModeFunction(
                    [_bind_term(t, kval) for t in cd.pos],
                    [_bind_term(t, kval) for t in cd.neg])
                cur = Current(cd.name,
                              (NormalOrderedTerm(GR(Fraction(1)), 0,
                                                 {cd.kernel: mf}),))
            else:
                cur = _bind_composite(cd, cat, kval)
            cat.currents[cd.name] = cur
        relations = [_bind_relation(rd, kval) for rd in self.relations]
        commutators = [
            {"pair": (cm.name_a, cm.name_b),
             "poles": [_at(p, kval) for p in cm.poles],
             "residues": [(n, _at(s, kval)) for n, s in cm.residues]}
            for cm in self.commutators]
        return params, cat, relations, commutators, hbars


def _currents_eq(a: list[CurrentDecl], b: list[CurrentDecl]) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.name, x.kernel) != (y.name, y.kernel):
            return False
        if (x.composite is None) != (y.composite is None):
            return False
        if x.composite is None:
            if x.pos != y.pos or x.neg != y.neg:
                return False
        elif x.composite != y.composite:
            return False
    return True


def _relations_eq(a: list[RelationDecl], b: list[RelationDecl]) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.name, x.kind, x.left_pair, x.right_pair, x.rotate, x.tol) != \
           (y.name, y.kind, y.left_pair, y.right_pair, y.rotate, y.tol):
            return False
        if x.left_factors != y.left_factors or x.right_factors != y.right_factors:
            return False
    return True


# rendering helpers ----------------------------------------------------------

def _krat_str(x: KVal) -> str:
    if isinstance(x, Fraction):
        return str(x)

    def poly(p):
        bits = []
        for e in sorted(p, reverse=True):
            v = p[e]
            if e == 0:
                bits.append(str(v))
            else:
                # a power as a product: the grammar has no '^' on k
                power = "*".join(["k"] * e)
                bits.append(power if v == 1 else f"{v}*{power}")
        return " + ".join(bits) if bits else "0"
    if x.den == {0: Fraction(1)}:
        body = poly(x.num)
        return body if len(x.num) <= 1 else f"({body})"
    return f"({poly(x.num)})/({poly(x.den)})"


def _term_str(t: TermDecl) -> str:
    bits = [_krat_str(t.coeff)]
    if t.hbar_power == 1:
        bits.append("hbar")
    elif t.hbar_power != 0:
        bits.append(f"hbar^{t.hbar_power}")
    if not _krat_eq(t.shift, _ZERO):
        bits.append(f"exp({_krat_str(t.shift)}*h*t)")
    bits.append("exp(-i*u*t)")
    num = " * ".join(bits)
    for beta, e in t.sinh:
        if e > 0:
            num += f" * sinh({_krat_str(beta)}*h*t)" + (f"^{e}" if e != 1 else "")
        else:
            num += f" / sinh({_krat_str(beta)}*h*t)" + (f"^{-e}" if e != -1 else "")
    return num


def _cterm_str(t: CompositeTerm) -> str:
    bits = [f"({_krat_str(t.coeff)}"
            + ("/hbar" if t.hbar_power == -1 else
               (f"*hbar^{t.hbar_power}" if t.hbar_power else "")) + ")"]
    for r in t.refs:
        s = r.name
        if r.inverse:
            s += "^-1"
        if r.shift is not None:
            s += f"@({_krat_str(r.shift)})"
        bits.append(s)
    return " * ".join(bits)


def _factor_str(f: FactorDecl) -> str:
    if f.kind == "scalar":
        return _krat_str(f.scalar)
    if f.kind in ("w", "iw"):
        off = ""
        if f.offset is not None and not _krat_eq(f.offset, _ZERO):
            off = f" + {_krat_str(f.offset)}*hbar"
        body = f"({f.kind}{off})"
    else:
        sg = "" if f.scale_sign > 0 else "-"
        body = f"Gamma({sg}x@{_krat_str(f.scale)} + {_krat_str(f.shift)})"
    if f.exponent != 1:
        body += f"^{f.exponent}"
    return body


def _relation_str(rd: RelationDecl) -> str:
    def side(factors, pair, pvars):
        bits = [_factor_str(f) for f in factors]
        bits.append(f"{pair[0]}({pvars[0]}) {pair[1]}({pvars[1]})")
        return (" * ".join(bits[:-1]) + " * " if len(bits) > 1 else "") + bits[-1]
    lhs = side(rd.left_factors, rd.left_pair, ("u", "v"))
    rhs = side(rd.right_factors, rd.right_pair, ("v", "u"))
    body = f"relation {rd.name} : "
    if rd.kind == "shape":
        body += f"shape {rd.left_pair[0]}(u) {rd.left_pair[1]}(v)"
    else:
        body += f"{lhs} == {rhs}"
    opts = []
    if rd.rotate != "none":
        opts.append(f"rotate = {rd.rotate}")
    if rd.tol is not None:
        opts.append(f"tol = {rd.tol:g}")
    if opts:
        body += " with " + ", ".join(opts)
    return body + ";"


# binding helpers -------------------------------------------------------------

def _bind_term(t: TermDecl, k: Fraction) -> ExpTrigTerm:
    return ExpTrigTerm(GR(_at(t.coeff, k)), t.hbar_power, _at(t.shift, k),
                       _ZERO, tuple((_at(b, k), e) for b, e in t.sinh))


def _bind_composite(cd: CurrentDecl, cat: Catalog, k: Fraction) -> Current:
    out_terms: list[NormalOrderedTerm] = []
    for term in cd.composite:
        # expand the reference product bilinearly over referenced terms
        partial = [(GR(_at(term.coeff, k)), term.hbar_power, {})]
        for ref in term.refs:
            if ref.name not in cat.currents:
                raise UndeclaredName(f"current {ref.name!r} not declared before use")
            sub = cat.currents[ref.name]
            new_partial = []
            for coeff, hpow, exps in partial:
                for st in sub.terms:
                    merged = dict(exps)
                    for fam, mf in st.exponents.items():
                        g = mf
                        if ref.inverse:
                            g = -g
                        if ref.shift is not None:
                            g = shift_argument(g, _at(ref.shift, k))
                        merged[fam] = g if fam not in merged else merged[fam] + g
                    if ref.inverse and len(sub.terms) > 1:
                        raise UndeclaredName(
                            f"cannot invert composite current {ref.name!r}")
                    new_partial.append((coeff * st.coeff,
                                        hpow + st.hbar_power, merged))
            partial = new_partial
        for coeff, hpow, exps in partial:
            out_terms.append(NormalOrderedTerm(coeff, hpow, exps))
    return Current(cd.name, tuple(out_terms))


def _bind_side(factors: list[FactorDecl], k: Fraction) -> StructureFunction:
    """The product of one side's factors, gathered as a chain of
    StructureFunction products would gather it: each Gamma or linear factor
    adds its exponent under its key, in first-seen order, and a key whose
    exponent cancels is dropped; the scalars, and (-i)^n from each
    (w + a*hbar)^n = ((iw + i*a*hbar) * -i)^n, multiply one constant."""
    gammas: dict[tuple[int, int, int, int, int], int] = {}
    linears: dict[tuple[int, int, int], int] = {}
    mult = GR_ONE
    for f in factors:
        e = f.exponent
        if f.kind == "scalar":
            mult = mult * GR(_at(f.scalar, k))
            continue
        if f.kind == "gamma":
            exps = gammas
            key = gamma_key(GR(_at(f.scale, k) * f.scale_sign), _at(f.shift, k))
        else:
            exps = linears
            rho = GR(_at(f.offset, k) if f.offset is not None else _ZERO)
            if f.kind == "w":
                rho = GR_I * rho
                for _ in range(abs(e)):
                    mult = mult * (_MINUS_I if e > 0 else GR_I)
            key = linear_key(rho)
        exps[key] = exps.get(key, 0) + e
        if not exps[key]:
            del exps[key]
    return StructureFunction(gammas, linears,
                             ExactConst(mult))


def _bind_relation(rd: RelationDecl, k: Fraction) -> Relation:
    rel = Relation(rd.name, rd.kind, rd.left_pair, rd.right_pair,
                   left_factor=_bind_side(rd.left_factors, k),
                   right_factor=_bind_side(rd.right_factors, k),
                   rotate=rd.rotate)
    if rd.tol is not None:
        rel.tolerance = rd.tol
    return rel


# ---------------------------------------------------------------------------
# the parser

class _Parser:
    def __init__(self, text: str):
        self.toks = toks = _tokenize(text)
        # what accept/expect match: the text of a punctuation mark or a
        # keyword, None for any other token
        self.keys = [t.text if t.kind in ("punct", "keyword") else None
                     for t in toks]
        self.i = 0

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def error(self, expected: set[str]):
        t = self.cur
        raise ParseError(t.line, t.col, expected, t.text or "end of input")

    def accept(self, text: str) -> bool:
        if self.keys[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.keys[self.i] != text:
            self.error({repr(text)})
        self.i += 1

    def expect_ident(self) -> str:
        t = self.toks[self.i]
        if t.kind != "ident":
            self.error({"identifier"})
        self.i += 1
        return t.text

    def expect_number(self) -> Fraction:
        t = self.toks[self.i]
        if t.kind != "number":
            self.error({"number"})
        self.i += 1
        return Fraction(int(t.text))

    # -- k-rational expressions -------------------------------------------
    def kexpr(self, stop: str | None = None) -> KVal:
        """A k-expression.  In a context ended by `* <stop>` (stop = 'h' or
        'hbar'), a multiplicative chain halts before the stop word."""
        val = self.kterm(stop)
        while (op := self.keys[self.i]) in ("+", "-"):
            self.i += 1
            val = _kop(_ARITH[op], val, self.kterm(stop))
        return val

    def kterm(self, stop: str | None = None) -> KVal:
        val = self.kfactor()
        while (op := self.keys[self.i]) in ("*", "/"):
            if self.toks[self.i + 1].text == stop:
                break
            self.i += 1
            val = _kop(_ARITH[op], val,
                       self.divisor() if op == "/" else self.kfactor())
        return val

    def divisor(self) -> KVal:
        """A k-factor that divides; one that is identically zero is an
        error at its first token."""
        t = self.toks[self.i]
        val = self.kfactor()
        if _is_zero(val):
            raise ParseError(t.line, t.col, {"nonzero divisor"}, t.text)
        return val

    def exponent(self) -> int:
        """An optional integer power `^ [-]N`; 1 if there is none."""
        if not self.accept("^"):
            return 1
        neg = self.accept("-")
        e = int(self.expect_number())
        return -e if neg else e

    def kfactor(self) -> KVal:
        if self.accept("-"):
            return -self.kfactor()
        if self.accept("+"):
            return self.kfactor()
        if self.cur.kind == "number":
            return self.expect_number()
        if self.accept("k"):
            return _K
        if self.accept("("):
            v = self.kexpr()
            self.expect(")")
            return v
        self.error({"number", "'k'", "'('", "'-'"})

    # -- top level -----------------------------------------------------------
    def file(self) -> DefinitionFile:
        k: KVal = Fraction(2)
        hbars: list[KVal] = []
        sector = None
        kernels, currents, relations, commutators = [], [], [], []
        names = set()
        while self.cur.kind != "eof":
            if self.accept("params"):
                k, hbars = self.params_block(k, hbars)
            elif self.accept("rotate_sector"):
                sector = self.expect_ident()
                self.expect(";")
            elif self.accept("kernel"):
                kd = self.kernel_block()
                if kd.name in names:
                    raise DuplicateName(f"kernel {kd.name!r} declared twice")
                names.add(kd.name)
                kernels.append(kd)
            elif self.accept("current"):
                cd = self.current_block({k.name for k in kernels},
                                        {c.name for c in currents})
                if cd.name in names:
                    raise DuplicateName(f"current {cd.name!r} declared twice")
                names.add(cd.name)
                currents.append(cd)
            elif self.accept("relation"):
                rd = self.relation_block({c.name for c in currents})
                if any(r.name == rd.name for r in relations):
                    raise DuplicateName(f"relation {rd.name!r} declared twice")
                relations.append(rd)
            elif self.accept("commutator_delta"):
                commutators.append(self.commutator_block(
                    {c.name for c in currents}))
            else:
                self.error({"'params'", "'kernel'", "'current'", "'relation'",
                            "'commutator_delta'", "'rotate_sector'"})
        if sector is not None and sector not in {kd.name for kd in kernels}:
            raise UndeclaredName(f"rotate_sector {sector!r} names no declared kernel")
        return DefinitionFile(_lift(k), [_lift(h) for h in hbars], sector,
                              kernels, currents, relations, commutators)

    def params_block(self, k, hbars):
        self.expect("{")
        while not self.accept("}"):
            if self.accept("k"):
                self.expect("=")
                k = self.kexpr()
                self.expect(";")
            elif self.accept("hbar"):
                self.expect("=")
                hbars = [self.kexpr()]
                while self.accept(","):
                    hbars.append(self.kexpr())
                self.expect(";")
            else:
                self.error({"'k'", "'hbar'", "'}'"})
        return k, hbars

    def kernel_block(self) -> KernelDecl:
        name = self.expect_ident()
        self.expect("{")
        self.expect("sign")
        self.expect("=")
        sign = 1
        if self.accept("-"):
            sign = -1
        else:
            self.accept("+")
        if self.expect_number() != 1:
            self.error({"'1'"})
        self.expect(";")
        self.expect("slope")
        self.expect("=")
        slope = self.kexpr()
        self.expect(";")
        self.expect("}")
        return KernelDecl(name, sign, slope)

    def current_block(self, kernel_names, current_names) -> CurrentDecl:
        name = self.expect_ident()
        if self.accept("on"):
            kname = self.expect_ident()
            if kname not in kernel_names:
                raise UndeclaredName(f"kernel {kname!r} not declared before use")
            self.expect("{")
            pos, neg = [], []
            while not self.accept("}"):
                if self.accept("pos"):
                    self.expect(":")
                    pos = self.exponent_expr()
                    self.expect(";")
                elif self.accept("neg"):
                    self.expect(":")
                    neg = self.exponent_expr()
                    self.expect(";")
                else:
                    self.error({"'pos'", "'neg'", "'}'"})
            return CurrentDecl(name, kernel=kname, pos=pos, neg=neg)
        self.expect("=")
        comp = self.composite_expr(current_names)
        self.expect(";")
        return CurrentDecl(name, composite=comp)

    # -- exponent expressions -------------------------------------------------
    def exponent_expr(self) -> list[TermDecl]:
        terms = []
        sign = -1 if self.accept("-") else 1
        if sign > 0:
            self.accept("+")
        terms.append(self.exponent_term(sign))
        while (op := self.keys[self.i]) in ("+", "-"):
            self.i += 1
            terms.append(self.exponent_term(1 if op == "+" else -1))
        return terms

    def exponent_term(self, sign: int) -> TermDecl:
        coeff: KVal = Fraction(sign)
        hpow = 0
        shift: KVal = _ZERO
        sinh: list[tuple[KVal, int]] = []
        invert = False

        def add_factor():
            nonlocal coeff, hpow, shift
            mul = -1 if invert else 1
            if self.accept("hbar"):
                hpow += mul
                return
            if self.cur.kind == "number" or self.keys[self.i] == "(":
                if invert:
                    coeff = _kop(operator.truediv, coeff, self.divisor())
                else:
                    coeff = _kop(operator.mul, coeff, self.kfactor())
                return
            if self.accept("exp"):
                self.expect("(")
                if self.accept("-"):
                    if self.accept("i"):
                        # spectral phase E(-i*u*t), implicit anyway
                        self.expect("*")
                        self.expect("u")
                        self.expect("*")
                        self.expect("t")
                        self.expect(")")
                        return
                    inner = -self.kexpr("h")
                else:
                    inner = self.kexpr("h")
                self.expect("*")
                self.expect("h")
                self.expect("*")
                self.expect("t")
                self.expect(")")
                shift = _kop(operator.add if mul > 0 else operator.sub,
                             shift, inner)
                return
            if self.accept("sinh"):
                self.expect("(")
                beta = self.kexpr("h")
                self.expect("*")
                self.expect("h")
                self.expect("*")
                self.expect("t")
                self.expect(")")
                sinh.append((beta, mul * self.exponent()))
                return
            self.error({"number", "'hbar'", "'exp'", "'sinh'", "'('"})

        add_factor()
        while (op := self.keys[self.i]) in ("*", "/"):
            invert = op == "/"
            self.i += 1
            add_factor()
        return TermDecl(coeff, hpow, shift, sinh)

    # -- composite expressions -------------------------------------------------
    def composite_expr(self, current_names) -> list[CompositeTerm]:
        terms: list[CompositeTerm] = []
        sign = -1 if self.accept("-") else 1
        terms.extend(self.composite_term(sign, current_names))
        while (op := self.keys[self.i]) in ("+", "-"):
            self.i += 1
            terms.extend(self.composite_term(1 if op == "+" else -1,
                                             current_names))
        return terms

    def composite_term(self, sign: int, current_names) -> list[CompositeTerm]:
        # a product of scalars, current references, and grouped sums;
        # grouped sums distribute
        factors: list[list[CompositeTerm]] = []

        def atom() -> list[CompositeTerm]:
            if self.cur.kind == "number":
                return [CompositeTerm(self.expect_number(), 0, [])]
            if self.accept("k"):
                return [CompositeTerm(_K, 0, [])]
            if self.accept("hbar"):
                return [CompositeTerm(_ONE, 1, [])]
            if self.cur.kind == "ident":
                nm = self.expect_ident()
                if nm not in current_names:
                    raise UndeclaredName(f"current {nm!r} not declared before use")
                inverse = False
                shift = None
                if self.accept("^"):
                    self.expect("-")
                    if self.expect_number() != 1:
                        self.error({"'1'"})
                    inverse = True
                if self.accept("@"):
                    self.expect("(")
                    shift = self.kexpr()
                    self.expect(")")
                return [CompositeTerm(_ONE, 0, [CompositeRef(nm, inverse, shift)])]
            if self.accept("("):
                inner = self.composite_expr(current_names)
                self.expect(")")
                return inner
            self.error({"number", "'k'", "'hbar'", "identifier", "'('"})

        factors.append(atom())
        while (op := self.keys[self.i]) in ("*", "/"):
            self.i += 1
            t = self.toks[self.i]
            nxt = atom()
            if op == "/":
                if len(nxt) != 1 or nxt[0].refs:
                    self.error({"scalar divisor"})
                d = nxt[0]
                if _is_zero(d.coeff):
                    raise ParseError(t.line, t.col, {"nonzero divisor"}, t.text)
                nxt = [CompositeTerm(_kop(operator.truediv, _ONE, d.coeff),
                                     -d.hbar_power, [])]
            factors.append(nxt)

        out = [CompositeTerm(Fraction(sign), 0, [])]
        for fac in factors:
            nxt = []
            for left in out:
                for right in fac:
                    nxt.append(CompositeTerm(_kop(operator.mul, left.coeff,
                                                  right.coeff),
                                             left.hbar_power + right.hbar_power,
                                             left.refs + right.refs))
            out = nxt
        return out

    # -- relations ---------------------------------------------------------------
    def relation_block(self, current_names) -> RelationDecl:
        name = self.expect_ident()
        self.expect(":")
        if self.accept("shape"):
            pair = self.pair(current_names, ("u", "v"))
            rotate, tol = self.relation_opts()
            self.expect(";")
            return RelationDecl(name, "shape", [], pair, [], pair[::-1],
                                rotate, tol)
        lf, lpair = self.side(current_names, ("u", "v"))
        self.expect("==")
        rf, rpair = self.side(current_names, ("v", "u"))
        if rpair != lpair[::-1]:
            self.error({f"reversed pair {lpair[::-1]}"})
        rotate, tol = self.relation_opts()
        self.expect(";")
        return RelationDecl(name, "exchange", lf, lpair, rf, rpair, rotate, tol)

    def relation_opts(self):
        rotate, tol = "none", None
        if self.accept("with"):
            while True:
                if self.accept("rotate"):
                    self.expect("=")
                    word = self.cur.text
                    if word not in ("none", "global", "c_sector"):
                        self.error({"'none'", "'global'", "'c_sector'"})
                    self.i += 1
                    rotate = "c-sector" if word == "c_sector" else word
                elif self.accept("tol"):
                    self.expect("=")
                    if self.cur.kind in ("float", "number"):
                        tol = float(self.cur.text)
                        self.i += 1
                    else:
                        self.error({"tolerance value"})
                else:
                    self.error({"'rotate'", "'tol'"})
                if not self.accept(","):
                    break
        return rotate, tol

    def side(self, current_names, pvars):
        factors = []
        while True:
            if self.cur.kind == "ident":
                pair = self.pair(current_names, pvars)
                return factors, pair
            factors.append(self.relation_factor())
            self.expect("*")

    def relation_factor(self) -> FactorDecl:
        if self.cur.kind == "number":
            return FactorDecl("scalar", scalar=self.expect_number())
        if self.accept("Gamma"):
            self.expect("(")
            ssign = -1 if self.accept("-") else 1
            self.expect("x")
            self.expect("@")
            scale = self.kfactor()
            if self.accept("+"):
                shift = self.kexpr()
            elif self.accept("-"):
                shift = -self.kexpr()
            else:
                shift = _ZERO
            self.expect(")")
            return FactorDecl("gamma", scale=scale, scale_sign=ssign,
                              shift=shift, exponent=self.exponent())
        if self.accept("("):
            kind = self.keys[self.i]
            if kind in ("w", "iw"):
                self.i += 1
                offset: KVal = _ZERO
                if self.accept("+"):
                    offset = self.kexpr_until_hbar()
                elif self.accept("-"):
                    offset = -self.kexpr_until_hbar()
                self.expect(")")
                return FactorDecl(kind, offset=offset, exponent=self.exponent())
            scalar = self.kexpr()
            self.expect(")")
            return FactorDecl("scalar", scalar=scalar)
        self.error({"'('", "'Gamma'", "number", "identifier"})

    def kexpr_until_hbar(self) -> KVal:
        """Parse `<kexpr> * hbar`, returning the kexpr."""
        val = self.kexpr("hbar")
        self.expect("*")
        self.expect("hbar")
        return val

    def pair(self, current_names, pvars) -> tuple[str, str]:
        a = self.expect_ident()
        if a not in current_names:
            raise UndeclaredName(f"current {a!r} not declared before use")
        self.expect("(")
        self.expect(pvars[0])
        self.expect(")")
        b = self.expect_ident()
        if b not in current_names:
            raise UndeclaredName(f"current {b!r} not declared before use")
        self.expect("(")
        self.expect(pvars[1])
        self.expect(")")
        return (a, b)

    def commutator_block(self, current_names) -> CommutatorDecl:
        a = self.expect_ident()
        b = self.expect_ident()
        for nm in (a, b):
            if nm not in current_names:
                raise UndeclaredName(f"current {nm!r} not declared before use")
        self.expect("{")
        self.expect("poles")
        self.expect(":")
        poles = [self.kexpr()]
        while self.accept(","):
            poles.append(self.kexpr())
        self.expect(";")
        self.expect("residues")
        self.expect(":")
        residues = []
        while True:
            nm = self.expect_ident()
            if nm not in current_names:
                raise UndeclaredName(f"current {nm!r} not declared before use")
            self.expect("@")
            self.expect("(")
            residues.append((nm, self.kexpr()))
            self.expect(")")
            if not self.accept(","):
                break
        self.expect(";")
        self.expect("}")
        return CommutatorDecl(a, b, poles, residues)


def parse_definitions(text: str) -> DefinitionFile:
    """Parse `.alg` text into a validated DefinitionFile."""
    return _Parser(text).file()
