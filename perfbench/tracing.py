"""In-memory spans around the public functions of each coset_forge layer.

Only the traced worker imports this module; the untraced worker installs
no wrappers.  A span is (name, start, end, parent, session).  Names bound by
value in other modules (``from .contraction import closed_form``) are
patched wherever they are bound, so every call site sees the wrapper.

Self time of a span is its duration minus the union of its direct
children's intervals.  Busy time of a layer is the union of all its span
intervals, so recursion and the CLI's verification thread pool are not
counted twice.  Spans that run in a pool thread with no open span of their
own get the main thread's innermost open span as parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from array import array
from time import perf_counter

# (module, attribute path, span name)
SPANS = (
    ("coset_forge.cli", "run", "cli.run"),
    ("coset_forge.dsl", "parse_definitions", "dsl.parse_definitions"),
    ("coset_forge.dsl", "DefinitionFile.bind", "dsl.bind"),
    ("coset_forge.algebra", "verify_relation", "algebra.verify_relation"),
    ("coset_forge.algebra", "ef_commutator_analysis",
     "algebra.ef_commutator_analysis"),
    ("coset_forge.algebra", "classical_limit", "algebra.classical_limit"),
    ("coset_forge.contraction", "contract", "contraction.contract"),
    ("coset_forge.contraction", "closed_form", "contraction.closed_form"),
    ("coset_forge.contraction", "_family_order", "contraction.family_order"),
    ("coset_forge.contraction", "quad_eval", "contraction.quad_eval"),
    ("coset_forge.contraction", "StructureFunction.eval", "contraction.sf_eval"),
    ("coset_forge.contraction", "StructureFunction.normalize",
     "contraction.normalize"),
    ("coset_forge.exact", "LaurentRational.__init__", "exact.laurent_rational"),
    ("coset_forge.exact", "poly_gcd", "exact.poly_gcd"),
    ("coset_forge.modes", "equals", "modes.equals"),
    ("coset_forge.modes", "ModeFunction.canonical", "modes.canonical"),
    ("coset_forge.modes", "ExpTrigTerm.laurent", "modes.laurent"),
    ("coset_forge.specfun", "log_gamma", "specfun.log_gamma"),
)
SPAN_NAMES = tuple(name for _, _, name in SPANS)
# spans whose raised exceptions are counted as that layer's errors
ERROR_SPANS = ("contraction.closed_form", "contraction.quad_eval")
# closed-form cache lookups: Catalog._single_pair_closed
CACHE_HOOK = ("coset_forge.algebra", "Catalog._single_pair_closed")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ix: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.session = array("i")
        self.session_id = -1
        self.errors = {n: 0 for n in ERROR_SPANS}
        self.cache_lookups = 0
        self.cache_hits = 0
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> dict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
        return counts

    def _open(self, ix: int) -> tuple[int, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else -1
        with self._lock:
            sid = len(self.start)
            self.name.append(ix)
            self.parent.append(parent)
            self.session.append(self.session_id)
            self.end.append(0.0)
            self.start.append(perf_counter())
        stack.append(sid)
        counts = self._counts()
        counts[ix] = counts.get(ix, 0) + 1
        return sid, stack

    def _index(self, span: str) -> int:
        ix = self._ix.setdefault(span, len(self.names))
        if ix == len(self.names):
            self.names.append(span)
        return ix

    def wrap(self, fn, span: str):
        ix = self._index(span)
        counted = span in self.errors
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, stack = tracer._open(ix)
            try:
                return fn(*args, **kwargs)
            except Exception:
                if counted:
                    tracer.errors[span] += 1
                raise
            finally:
                tracer.end[sid] = perf_counter()
                stack.pop()

        return traced

    def wrap_cache(self, fn, closed_form_span: str):
        """Count closed-form cache lookups and those that needed no
        closed_form call in the same thread."""
        ix = self._index(closed_form_span)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts = tracer._counts()
            before = counts.get(ix, 0)
            out = fn(*args, **kwargs)
            hit = counts.get(ix, 0) == before
            with tracer._lock:
                tracer.cache_lookups += 1
                tracer.cache_hits += hit
            return out

        return counted

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        for module, path, span in SPANS:
            self._patch(module, path, lambda fn, s=span: self.wrap(fn, s))
        self._patch(*CACHE_HOOK, lambda fn: self.wrap_cache(
            fn, "contraction.closed_form"))

    def _patch(self, module: str, path: str, make) -> None:
        mod = importlib.import_module(module)
        owner, attr = mod, path
        if "." in path:
            cls_name, attr = path.split(".", 1)
            owner = getattr(mod, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        wrapped = make(original)
        if owner is not mod:
            setattr(owner, attr, wrapped)
            return
        # module-level function: rebind it everywhere it was imported by value
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "coset_forge"
                                     or name.startswith("coset_forge.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)

    # -- summary -------------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, busy_s (union of intervals) and self_s."""
        n = len(self.start)
        start, end, name, parent = self.start, self.end, self.name, self.parent
        children: dict[int, list[int]] = {}
        by_name: dict[int, list[int]] = {}
        for i in range(n):
            if parent[i] >= 0:
                children.setdefault(parent[i], []).append(i)
            by_name.setdefault(name[i], []).append(i)
        out = {}
        for ix, span in enumerate(self.names):
            ids = by_name.get(ix, [])
            busy = _union([(start[i], end[i]) for i in ids])
            self_s = 0.0
            for i in ids:
                kids = children.get(i, ())
                covered = _union([(max(start[c], start[i]), min(end[c], end[i]))
                                  for c in kids]) if kids else 0.0
                self_s += (end[i] - start[i]) - covered
            out[span] = {"calls": len(ids), "busy_s": busy, "self_s": self_s}
        return out

    def busy(self, spans) -> float:
        """Union of the intervals of all spans with one of these names."""
        ixs = {self._ix[n] for n in spans if n in self._ix}
        return _union([(self.start[i], self.end[i])
                       for i in range(len(self.start)) if self.name[i] in ixs])

    def write(self, path: str) -> None:
        """Every span as CSV: id,name,start,end,parent,session."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,session\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.session[i]}\n")


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
