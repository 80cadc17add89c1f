"""Definition-file parser for the `.alg` format.

A definition file declares the session parameters, the Heisenberg kernels,
the currents (primitive ones by their exponent expressions, composite ones
by products and sums of earlier currents with argument shifts), and the
relations to verify.  The expression grammar is deliberately small:
rationals and rational functions of k, hbar powers, exponential tilts
E(a*h*t), sinh(b*h*t)^n factors, and the spectral phase E(-i*u*t), which
every exponent carries implicitly and may be written for emphasis.

Parsing is deterministic recursive descent over the token texts of one
regex scan; every syntax error reports line, column and the expected token
set, counted by scanning again only when the error is raised.
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction

from .algebra import Catalog, Current, NormalOrderedTerm, Relation
from .contraction import StructureFunction
from .errors import (DuplicateName, ExcludedLevel, InvalidOption, ParseError,
                     UndeclaredName)
from .exact import ExactConst, KRat, _raw, merge
from .modes import AlgebraParams, ExpTrigTerm, Kernel, ModeFunction, shift_argument

__all__ = ["parse_definitions", "DefinitionFile"]

_KEYWORDS = {
    "params", "kernel", "current", "relation", "commutator_delta", "on",
    "pos", "neg", "sign", "slope", "k", "hbar", "h", "t", "u", "v", "i",
    "exp", "sinh", "Gamma", "iw", "w", "x", "with", "rotate", "shape",
    "poles", "residues",
}

# One token per match, after any blanks and comments.  The grammar is
# ASCII: any other character, a non-ASCII digit or letter included, is a
# token of its own that no rule accepts, rejected with its position.  A
# number is a run of digits ("2.5" is 2 and a stray ".", "1e5" is 1 and
# the name e5).  The end of input is the empty token.
_TOKEN_RE = re.compile(r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (  ==|[\^@{}()=;:,*/+\-]     # punct
     | [A-Za-z_][A-Za-z0-9_]*    # name
     | [0-9]+                    # number
     | [^ \t\r\n]                # error
     | \Z)
    """, re.VERBOSE)
_PUNCT = frozenset("^@{}()=;:,*/+-") | {"=="}


def _words(text: str) -> list[str]:
    """The token texts the parser reads, ending in one empty string.  A
    character outside the grammar is reported, with its position, before
    any syntax error."""
    words = _TOKEN_RE.findall(text)
    # trailing blanks end in one empty match and the end itself in another
    if len(words) > 1 and not words[-2]:
        words.pop()
    # only the scan's last alternative matches one character that is not
    # punctuation or an ASCII letter, digit or underscore
    bad = {w for w in set(words) if len(w) == 1 and w not in _PUNCT
           and not (w.isascii() and (w.isalnum() or w == "_"))}
    if bad:
        at = next(i for i, w in enumerate(words) if w in bad)
        raise ParseError(*_place(text, at), {"token"}, words[at])
    return words


def _place(text: str, index: int) -> tuple[int, int]:
    """The 1-based line and column of token `index` of `text`, found by the
    same scan as _words, repeated only to place a diagnostic.  The end of
    input sits after the last line, short of a trailing comment."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), index, None))
    if m[1]:
        at = m.start(1)
        return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    last = text[text.rfind("\n") + 1:]
    hash_at = last.find("#")
    return (text.count("\n") + 1,
            (len(last) if hash_at < 0 else hash_at) + 1)


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
_MINUS_ONE = Fraction(-1)
_MINUS_I = _raw(0, -1, 1)
_K = KRat.k()   # shared: KRat arithmetic never changes its operands


def _binder(k: Fraction):
    """The function that gives a k-expression's value at level k.  The
    parser builds a repeated k-expression once, so each distinct one is
    evaluated once."""
    values: dict[KRat, Fraction] = {}

    def at(x: KVal) -> Fraction:
        if isinstance(x, Fraction):
            return x
        v = values.get(x)
        if v is None:
            v = values[x] = x.bind(k)
        return v
    return at


# ---------------------------------------------------------------------------
# declaration records

class TermDecl:
    __slots__ = ("coeff", "hbar_power", "tilt", "sinh")

    def __init__(self, coeff: KVal, hbar_power: int, tilt: KVal,
                 sinh: list[tuple[KVal, int]]):
        self.coeff = coeff
        self.hbar_power = hbar_power
        self.tilt = tilt
        self.sinh = sinh


class CompositeRef:
    __slots__ = ("name", "inverse", "shift")

    def __init__(self, name: str, inverse: bool = False,
                 shift: KVal | None = None):
        self.name = name
        self.inverse = inverse
        self.shift = shift


class CompositeTerm:
    __slots__ = ("coeff", "hbar_power", "refs")

    def __init__(self, coeff: KVal, hbar_power: int,
                 refs: list[CompositeRef]):
        self.coeff = coeff
        self.hbar_power = hbar_power
        self.refs = refs


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


class RelationDecl:
    __slots__ = ("name", "kind", "pair", "left_factors", "right_factors",
                 "rotate")

    def __init__(self, name: str, kind: str, pair: tuple[str, str],
                 left_factors: list[FactorDecl],
                 right_factors: list[FactorDecl], rotate: str = "none"):
        self.name = name
        self.kind = kind                # "exchange" | "shape"
        self.pair = pair                # (A, B) of A(u) B(v)
        self.left_factors = left_factors
        self.right_factors = right_factors
        self.rotate = rotate


class CommutatorDecl:
    __slots__ = ("name_a", "name_b", "poles", "residues")

    def __init__(self, name_a: str, name_b: str, poles: list[KVal],
                 residues: list[tuple[str, KVal]]):
        self.name_a = name_a
        self.name_b = name_b
        self.poles = poles
        self.residues = residues


class DefinitionFile:
    __slots__ = ("k", "hbars", "kernels", "currents", "relations",
                 "commutators")

    def __init__(self, k: Fraction, hbars: list[KVal],
                 kernels: list[KernelDecl], currents: list[CurrentDecl],
                 relations: list[RelationDecl],
                 commutators: list[CommutatorDecl]):
        self.k = k
        self.hbars = hbars
        self.kernels = kernels
        self.currents = currents
        self.relations = relations
        self.commutators = commutators

    # -- binding --------------------------------------------------------------
    def bind(self, k_override: Fraction | None = None,
             hbar_override: list[Fraction] | None = None):
        """Evaluate all declarations at a concrete level, producing the
        algebra parameters, the catalog, the relation list and the
        commutator-delta specifications."""
        kval = k_override if k_override is not None else self.k
        at = _binder(kval)
        for h in hbar_override or ():
            if h <= 0:
                raise InvalidOption(f"hbar override {h} is not positive")
        hbars = (hbar_override if hbar_override is not None
                 else [at(h) for h in self.hbars]) or [_ONE]
        for h in self.hbars if hbar_override is None else ():
            if at(h) <= 0:
                _exclude("params", "hbar", h, "is not positive", kval)
        # AlgebraParams holds the first; the report lists them all
        params = AlgebraParams(kval, hbars[0])
        cat = Catalog(params)
        for kd in self.kernels:
            slope = at(kd.slope)
            if slope <= 0:
                _exclude(f"kernel {kd.name!r}", "slope", kd.slope,
                         "is not positive", kval)
            cat.kernels[kd.name] = Kernel(kd.name, kd.sign, slope)
        for cd in self.currents:
            if cd.composite is None:
                mf = ModeFunction(
                    [_bind_term(cd.name, t, at, kval) for t in cd.pos],
                    [_bind_term(cd.name, t, at, kval) for t in cd.neg])
                cur = Current(cd.name,
                              (NormalOrderedTerm(_ONE, 0, {cd.kernel: mf}),))
            else:
                cur = _bind_composite(cd, cat, at)
            cat.currents[cd.name] = cur
        relations = [_bind_relation(rd, at, kval) for rd in self.relations]
        commutators = [
            {"pair": (cm.name_a, cm.name_b),
             "poles": [at(p) for p in cm.poles],
             "residues": [(n, at(s)) for n, s in cm.residues]}
            for cm in self.commutators]
        return params, cat, relations, commutators, hbars


# binding helpers -------------------------------------------------------------

def _exclude(where: str, what: str, expr: KVal, fails: str, k: Fraction):
    """Refuse level k: `what` of the declaration `where`, the k-expression
    `expr`, `fails` there."""
    raise ExcludedLevel(f"{where}: {what} ({expr!r}) {fails} at k={k}")


def _bind_term(cur: str, t: TermDecl, at, k: Fraction) -> ExpTrigTerm:
    sinh = tuple((at(b), e) for b, e in t.sinh)
    for (b, _), (v, _) in zip(t.sinh, sinh):
        if not v:
            _exclude(f"current {cur!r}", "sinh slope", b, "vanishes", k)
    return ExpTrigTerm(at(t.coeff), t.hbar_power, at(t.tilt), sinh)


def _bind_composite(cd: CurrentDecl, cat: Catalog, at) -> Current:
    out_terms: list[NormalOrderedTerm] = []
    for term in cd.composite:
        # expand the reference product bilinearly over referenced terms
        partial = [(at(term.coeff), term.hbar_power, {})]
        for ref in term.refs:
            sub = cat.currents[ref.name]    # the parser checked it is earlier
            new_partial = []
            for coeff, hpow, exps in partial:
                for st in sub.terms:
                    merged = dict(exps)
                    for fam, mf in st.exponents.items():
                        g = mf
                        if ref.inverse:
                            g = -g
                        if ref.shift is not None:
                            g = shift_argument(g, at(ref.shift))
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


def _bind_relation(rd: RelationDecl, at, k: Fraction) -> Relation:
    """The bound relation, its target the right side over the left side, in
    one pass: each Gamma or linear factor is merged into one multiset under
    the key its bound values' numerators and denominators make, the left
    side's with negated exponents; the scalars multiply one constant, and
    (-i)^n from each (w + a*hbar)^n = ((iw + i*a*hbar) * -i)^n joins it once,
    as (-i) to the summed n.  A scalar or a Gamma scale that vanishes at k
    excludes the level, the left side's first."""
    rel = rd.name
    gammas: dict[tuple[int, int, int, int, int], int] = {}
    linears: dict[tuple[int, int, int], int] = {}
    const = ExactConst.one()
    w_power = 0
    for sign, factors in ((-1, rd.left_factors), (1, rd.right_factors)):
        for f in factors:
            e = sign * f.exponent
            if f.kind == "scalar":
                v = at(f.scalar)
                if not v:
                    _exclude(f"relation {rel!r}", "scalar factor", f.scalar,
                             "vanishes", k)
                const = const.times_base(_raw(v.numerator, 0, v.denominator), 0, sign)
            elif f.kind == "gamma":
                scale = at(f.scale)
                if not scale:
                    _exclude(f"relation {rel!r}", "Gamma scale", f.scale, "vanishes", k)
                shift = at(f.shift)
                merge(gammas, (scale.numerator * f.scale_sign, 0, scale.denominator,
                               shift.numerator, shift.denominator), e)
            else:
                rho = at(f.offset) if f.offset is not None else _ZERO
                if f.kind == "w":    # iw + i*rho*hbar
                    w_power += e
                    key = (0, rho.numerator, rho.denominator)
                else:
                    key = (rho.numerator, 0, rho.denominator)
                merge(linears, key, e)
    const = const.times_base(_MINUS_I, 0, w_power)
    return Relation(rel, rd.kind, rd.pair,
                    StructureFunction._made(gammas, linears, const), rd.rotate)


# ---------------------------------------------------------------------------
# the parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _words(text)
        self.i = 0
        # the k-expression values built so far, by number text, by operation
        # and the identity of its operands, and (KRats) by coefficients: a
        # repeated expression is folded once and is one object, which
        # DefinitionFile.bind evaluates once per level
        self.folded: dict = {}
        # every declaration made so far, by (namespace, name), to its kind:
        # kernels and currents share one namespace, relations have their
        # own, and k, hbar and each commutator_delta pair are named by kind
        self.declared: dict[tuple[str, str | None], str] = {}
        self.primitive: set[str] = set()    # currents declared on a kernel

    def declare(self, kind: str, name: str | None = None) -> None:
        """Record a declaration that a file makes at most once: the kernel,
        current or relation `name`, once declared in full, or `kind` itself."""
        key = ("current" if kind == "kernel" else kind, name)
        if key in self.declared:
            raise DuplicateName(f"{kind} declared twice" if name is None
                                else f"{kind} {name!r} declared twice")
        self.declared[key] = kind

    def known(self, name: str, kind: str = "current") -> str:
        """`name`, which must name a `kind` declared before its use."""
        if self.declared.get(("current", name)) != kind:
            raise UndeclaredName(f"{kind} {name!r} not declared before use")
        return name

    def error(self, expected: set[str], at: int | None = None):
        """A ParseError at token `at`, the current one by default; only here
        is the text scanned for positions."""
        at = self.i if at is None else at
        raise ParseError(*_place(self.text, at), expected,
                         self.toks[at] or "end of input")

    def accept(self, text: str) -> bool:
        if self.toks[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, *texts: str) -> None:
        """The tokens `texts`, in order."""
        for text in texts:
            if self.toks[self.i] != text:
                self.error({repr(text)})
            self.i += 1

    def at_ident(self) -> bool:
        t = self.toks[self.i]
        return t.isidentifier() and t not in _KEYWORDS

    def at_number(self) -> bool:
        return self.toks[self.i].isdigit()

    def expect_ident(self) -> str:
        if not self.at_ident():
            self.error({"identifier"})
        self.i += 1
        return self.toks[self.i - 1]

    def expect_number(self) -> Fraction:
        t = self.toks[self.i]
        if not t.isdigit():
            self.error({"number"})
        self.i += 1
        v = self.folded.get(t)
        if v is None:
            v = self.folded[t] = Fraction(int(t))
        return v

    # -- k-rational expressions -------------------------------------------
    def op(self, sym: str, a: KVal, b: KVal) -> KVal:
        """a sym b, folded once per operation on the same two objects.  The
        entry keeps both operands alive, so no id in a key is reused within
        the parse, and no Fraction is hashed."""
        key = (sym, id(a), id(b))
        entry = self.folded.get(key)
        if entry is None:
            entry = self.folded[key] = (self.intern(_ARITH[sym](a, b)), a, b)
        return entry[0]

    def positive(self, what: str) -> KVal:
        """A k-expression; a constant one, k/k included, must be positive."""
        at = self.i
        v = self.kexpr()
        c = v.as_constant() if isinstance(v, KRat) else v
        if not v or c is not None and c < 0:
            self.error({f"positive {what}"}, at)
        return v

    def neg(self, a: KVal) -> KVal:
        return self.op("-", _ZERO, a)

    def intern(self, v: KVal) -> KVal:
        """v, or the KRat with its coefficients that was built first, keyed
        by integer (exponent, numerator, denominator) triples."""
        if isinstance(v, KRat):
            v = self.folded.setdefault(
                (frozenset((e, c.numerator, c.denominator) for e, c in v.num.items()),
                 frozenset((e, c.numerator, c.denominator) for e, c in v.den.items())),
                v)
        return v

    def kexpr(self, stop: str | None = None) -> KVal:
        """A k-expression.  In a context ended by `* <stop>` (stop = 'h' or
        'hbar'), a multiplicative chain halts before the stop word."""
        val = self.kterm(stop)
        while (op := self.toks[self.i]) in ("+", "-"):
            self.i += 1
            val = self.op(op, val, self.kterm(stop))
        return val

    def kterm(self, stop: str | None = None) -> KVal:
        val = self.kfactor()
        while (op := self.toks[self.i]) in ("*", "/"):
            if self.toks[self.i + 1] == stop:
                break
            self.i += 1
            val = self.op(op, val,
                          self.divisor() if op == "/" else self.kfactor())
        return val

    def divisor(self) -> KVal:
        """A k-factor that divides; one that is identically zero is an
        error at its first token."""
        at = self.i
        val = self.kfactor()
        if not val:
            self.error({"nonzero divisor"}, at)
        return val

    def exponent(self) -> int:
        """An optional integer power `^ [-]N`; 1 if there is none."""
        if not self.accept("^"):
            return 1
        neg = self.accept("-")
        e = int(self.expect_number())
        return -e if neg else e

    def kfactor(self) -> KVal:
        t = self.toks[self.i]
        if t.isdigit():
            return self.expect_number()
        if t not in ("k", "(", "-", "+"):
            self.error({"number", "'k'", "'('", "'-'"})
        self.i += 1
        if t == "k":
            return _K
        if t == "-":
            return self.neg(self.kfactor())
        if t == "+":
            return self.kfactor()
        v = self.kexpr()
        self.expect(")")
        return v

    # -- top level -----------------------------------------------------------
    def file(self) -> DefinitionFile:
        k = Fraction(2)
        hbars: list[KVal] = []
        kernels, currents, relations, commutators = [], [], [], []
        while self.toks[self.i]:
            if self.accept("params"):
                k, hbars = self.params_block(k, hbars)
            elif self.accept("kernel"):
                kd = self.kernel_block()
                self.declare("kernel", kd.name)
                kernels.append(kd)
            elif self.accept("current"):
                cd = self.current_block()
                self.declare("current", cd.name)
                currents.append(cd)
            elif self.accept("relation"):
                rd = self.relation_block()
                self.declare("relation", rd.name)
                relations.append(rd)
            elif self.accept("commutator_delta"):
                cm = self.commutator_block()
                self.declare(f"commutator_delta {cm.name_a} {cm.name_b}")
                commutators.append(cm)
            else:
                self.error({"'params'", "'kernel'", "'current'", "'relation'",
                            "'commutator_delta'"})
        return DefinitionFile(k, hbars, kernels, currents, relations,
                              commutators)

    def params_block(self, k, hbars):
        self.expect("{")
        while not self.accept("}"):
            if self.accept("k"):
                self.expect("=")
                at = self.i
                k = self.kexpr()
                if isinstance(k, KRat):
                    # the level is what k stands for everywhere else
                    self.error({"constant level"}, at)
                self.expect(";")
                self.declare("k")
            elif self.accept("hbar"):
                self.expect("=")
                hbars = [self.positive("hbar")]
                while self.accept(","):
                    hbars.append(self.positive("hbar"))
                self.expect(";")
                self.declare("hbar")
            else:
                self.error({"'k'", "'hbar'", "'}'"})
        return k, hbars

    def kernel_block(self) -> KernelDecl:
        name = self.expect_ident()
        self.expect("{", "sign", "=")
        sign = 1
        if self.accept("-"):
            sign = -1
        else:
            self.accept("+")
        if self.expect_number() != 1:
            self.error({"'1'"})
        self.expect(";", "slope", "=")
        slope = self.positive("slope")
        self.expect(";", "}")
        return KernelDecl(name, sign, slope)

    def current_block(self) -> CurrentDecl:
        name = self.expect_ident()
        if self.accept("on"):
            kname = self.known(self.expect_ident(), "kernel")
            self.primitive.add(name)
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
        comp = self.composite_expr()
        self.expect(";")
        return CurrentDecl(name, composite=comp)

    # -- exponent expressions -------------------------------------------------
    def exponent_expr(self) -> list[TermDecl]:
        terms = []
        sign = -1 if self.accept("-") else 1
        if sign > 0:
            self.accept("+")
        terms.append(self.exponent_term(sign))
        while (op := self.toks[self.i]) in ("+", "-"):
            self.i += 1
            terms.append(self.exponent_term(1 if op == "+" else -1))
        return terms

    def exponent_term(self, sign: int) -> TermDecl:
        coeff: KVal = _ONE if sign > 0 else _MINUS_ONE
        hpow = 0
        tilt: KVal = _ZERO
        sinh: list[tuple[KVal, int]] = []
        invert = False

        def add_factor():
            nonlocal coeff, hpow, tilt
            mul = -1 if invert else 1
            if self.accept("hbar"):
                hpow += mul
                return
            if self.at_number() or self.toks[self.i] == "(":
                if invert:
                    coeff = self.op("/", coeff, self.divisor())
                else:
                    coeff = self.op("*", coeff, self.kfactor())
                return
            if self.accept("exp"):
                self.expect("(")
                if self.accept("-"):
                    if self.accept("i"):
                        # spectral phase E(-i*u*t), implicit anyway
                        self.expect("*", "u", "*", "t", ")")
                        return
                    inner = self.neg(self.kexpr("h"))
                else:
                    inner = self.kexpr("h")
                self.expect("*", "h", "*", "t", ")")
                tilt = self.op("+" if mul > 0 else "-", tilt, inner)
                return
            if self.accept("sinh"):
                self.expect("(")
                at = self.i
                beta = self.kexpr("h")
                if not beta:
                    self.error({"nonzero slope"}, at)
                self.expect("*", "h", "*", "t", ")")
                sinh.append((beta, mul * self.exponent()))
                return
            self.error({"number", "'hbar'", "'exp'", "'sinh'", "'('"})

        add_factor()
        while (op := self.toks[self.i]) in ("*", "/"):
            invert = op == "/"
            self.i += 1
            add_factor()
        return TermDecl(coeff, hpow, tilt, sinh)

    # -- composite expressions -------------------------------------------------
    def composite_expr(self) -> list[CompositeTerm]:
        terms: list[CompositeTerm] = []
        sign = -1 if self.accept("-") else 1
        terms.extend(self.composite_term(sign))
        while (op := self.toks[self.i]) in ("+", "-"):
            self.i += 1
            terms.extend(self.composite_term(1 if op == "+" else -1))
        return terms

    def composite_term(self, sign: int) -> list[CompositeTerm]:
        # a product of scalars, current references, and grouped sums;
        # grouped sums distribute
        factors: list[list[CompositeTerm]] = []

        def atom() -> list[CompositeTerm]:
            if self.at_number():
                return [CompositeTerm(self.expect_number(), 0, [])]
            if self.accept("k"):
                return [CompositeTerm(_K, 0, [])]
            if self.accept("hbar"):
                return [CompositeTerm(_ONE, 1, [])]
            if self.at_ident():
                nm = self.known(self.expect_ident())
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
                inner = self.composite_expr()
                self.expect(")")
                return inner
            self.error({"number", "'k'", "'hbar'", "identifier", "'('"})

        factors.append(atom())
        while (op := self.toks[self.i]) in ("*", "/"):
            self.i += 1
            at = self.i
            nxt = atom()
            if op == "/":
                if len(nxt) != 1 or nxt[0].refs:
                    self.error({"scalar divisor"})
                d = nxt[0]
                if not d.coeff:
                    self.error({"nonzero divisor"}, at)
                nxt = [CompositeTerm(self.op("/", _ONE, d.coeff),
                                     -d.hbar_power, [])]
            factors.append(nxt)

        out = [CompositeTerm(_ONE if sign > 0 else _MINUS_ONE, 0, [])]
        for fac in factors:
            nxt = []
            for left in out:
                for right in fac:
                    nxt.append(CompositeTerm(self.op("*", left.coeff,
                                                     right.coeff),
                                             left.hbar_power + right.hbar_power,
                                             left.refs + right.refs))
            out = nxt
        return out

    # -- relations ---------------------------------------------------------------
    def relation_block(self) -> RelationDecl:
        name = self.expect_ident()
        self.expect(":")
        if self.accept("shape"):
            pair = self.pair(("u", "v"))
            rotate = self.rotation()
            self.expect(";")
            return RelationDecl(name, "shape", pair, [], [], rotate)
        lf, lpair = self.side(("u", "v"))
        self.expect("==")
        rf, rpair = self.side(("v", "u"))
        if rpair != lpair[::-1]:
            self.error({f"reversed pair {lpair[::-1]}"})
        rotate = self.rotation()
        self.expect(";")
        return RelationDecl(name, "exchange", lpair, lf, rf, rotate)

    def rotation(self) -> str:
        if not self.accept("with"):
            return "none"
        self.expect("rotate", "=")
        rotate = self.toks[self.i]
        if rotate not in ("none", "global"):
            self.error({"'none'", "'global'"})
        self.i += 1
        return rotate

    def side(self, pvars):
        factors = []
        while True:
            if self.at_ident():
                return factors, self.pair(pvars)
            factors.append(self.relation_factor())
            self.expect("*")

    def relation_factor(self) -> FactorDecl:
        at = self.i
        if self.at_number():
            return self.scalar_factor(at, self.expect_number())
        if self.accept("Gamma"):
            self.expect("(")
            ssign = -1 if self.accept("-") else 1
            self.expect("x", "@")
            at = self.i
            scale = self.kfactor()
            if not scale:
                self.error({"nonzero scale"}, at)
            if self.accept("+"):
                shift = self.kexpr()
            elif self.accept("-"):
                shift = self.neg(self.kexpr())
            else:
                shift = _ZERO
            self.expect(")")
            return FactorDecl("gamma", scale=scale, scale_sign=ssign,
                              shift=shift, exponent=self.exponent())
        if self.accept("("):
            kind = self.toks[self.i]
            if kind in ("w", "iw"):
                self.i += 1
                offset: KVal = _ZERO
                if self.accept("+"):
                    offset = self.kexpr_until_hbar()
                elif self.accept("-"):
                    offset = self.neg(self.kexpr_until_hbar())
                self.expect(")")
                return FactorDecl(kind, offset=offset, exponent=self.exponent())
            scalar = self.kexpr()
            self.expect(")")
            return self.scalar_factor(at, scalar)
        self.error({"'('", "'Gamma'", "number", "identifier"})

    def scalar_factor(self, at: int, val: KVal) -> FactorDecl:
        """A scalar factor of a relation side, first token `at`; one that
        is identically zero is an error there."""
        if not val:
            self.error({"nonzero scalar"}, at)
        return FactorDecl("scalar", scalar=val)

    def kexpr_until_hbar(self) -> KVal:
        """Parse `<kexpr> * hbar`, returning the kexpr."""
        val = self.kexpr("hbar")
        self.expect("*", "hbar")
        return val

    def pair(self, pvars) -> tuple[str, str]:
        a = self.known(self.expect_ident())
        self.expect("(", pvars[0], ")")
        b = self.known(self.expect_ident())
        self.expect("(", pvars[1], ")")
        return (a, b)

    def commutator_block(self) -> CommutatorDecl:
        a = self.expect_ident()
        b = self.expect_ident()
        self.known(a)
        self.known(b)
        self.expect("{", "poles", ":")
        poles = [self.kexpr()]
        while self.accept(","):
            poles.append(self.kexpr())
        self.expect(";", "residues", ":")
        residues = []
        while True:
            nm = self.known(self.expect_ident())
            if nm not in self.primitive:
                raise UndeclaredName(f"commutator_delta {a} {b}: residue target "
                                     f"{nm!r} is not declared on a kernel")
            self.expect("@", "(")
            residues.append((nm, self.kexpr()))
            self.expect(")")
            if not self.accept(","):
                break
        self.expect(";", "}")
        return CommutatorDecl(a, b, poles, residues)


def parse_definitions(text: str) -> DefinitionFile:
    """Parse `.alg` text into a validated DefinitionFile."""
    return _Parser(text).file()
