"""Benchmark worker: imports coset_forge once and runs sessions on request.

Reads one JSON request per line on stdin and answers with one JSON line on
the original stdout; anything else the program prints goes to stderr or is
captured per session.  Started by run.py with ``src`` on PYTHONPATH.

Requests (``op``):
  hello                       versions, once imports are done
  cli    argv                 one ``coset-forge`` invocation through cli.run
  pairs  levels               bind paper.alg per (k, hbar) and list the
                              contraction term pairs with both branches
  quad   k hbar pair points   contract, closed_form, then quad_eval against
                              StructureFunction.eval at strip points
  trace_on                    install the span wrappers (tracing.py)
  finish [trace_path groups]   peak RSS, span summary and the busy time of
                              each named group of spans, then exit
"""

from __future__ import annotations

import cmath
import contextlib
import importlib.resources
import io
import json
import os
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter, process_time

from coset_forge import cli, contraction, dsl
from coset_forge.errors import CosetForgeError

_CATALOGS: dict = {}
_TRACER = None


def _cpu() -> float:
    """CPU seconds of this process (all threads) and of its reaped children,
    so work moved into a short-lived process pool is still counted."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + r.ru_utime + r.ru_stime


def _catalog_text() -> str:
    return (importlib.resources.files("coset_forge") / "data" / "paper.alg").read_text()


def run_cli(msg: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = perf_counter(), _cpu()
        try:
            rc = cli.run(msg["argv"])
        except SystemExit as exc:          # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # untyped error escaping the CLI
            return {"dt": perf_counter() - t0, "untyped": traceback.format_exc()}
        dt, cpu = perf_counter() - t0, _cpu() - c0
    return {"dt": dt, "cpu": cpu, "rc": rc, "stdout": out.getvalue()[-20000:],
            "stderr": err.getvalue()[-4000:]}


def bind_pairs(levels: list) -> dict:
    """Contraction term pairs of the DSL-bound catalog per level, as
    [current_a, current_b, term_a, term_b, family]: every pair of terms
    sharing a kernel family where the left exponent has a t>0 branch and the
    right one a t<0 branch (the others contract to zero by construction)."""
    text = _catalog_text()
    out = {}
    for k, hbar in levels:
        df = dsl.parse_definitions(text)
        params, cat, _, _, _ = df.bind(Fraction(k), [Fraction(hbar)])
        _CATALOGS[(k, hbar)] = (params, cat)
        pairs = []
        for a, ca in cat.currents.items():
            for b, cb in cat.currents.items():
                for ia, ta in enumerate(ca.terms):
                    for ib, tb in enumerate(cb.terms):
                        for fam in cat.kernels:
                            f, g = ta.exponents.get(fam), tb.exponents.get(fam)
                            if f is None or g is None:
                                continue
                            if f.positive_branch and g.negative_branch:
                                pairs.append([a, b, ia, ib, fam])
        out[f"{k}|{hbar}"] = pairs
    return out


def run_quad(msg: dict) -> dict:
    """One cross-checked contraction pair; the strip points are those of the
    acceptance suite's quadrature criterion."""
    params, cat = _CATALOGS[(msg["k"], msg["hbar"])]
    a, b, ia, ib, fam = msg["pair"]
    f = cat.currents[a].terms[ia].exponents[fam]
    g = cat.currents[b].terms[ib].exponents[fam]
    npts = msg["points"]
    t0, c0 = perf_counter(), _cpu()
    try:
        integrand = contraction.contract(f, g, cat.kernels[fam], params)
        sf = contraction.closed_form(integrand, params)
        hf = params.hbar_float
        scale = hf * max(1.0, float(params.k))
        base = max(0.0, integrand.strip_bound(hf))
        worst = 0.0
        for j in range(npts):
            w = complex((-2.0 + 4.0 * j / (npts - 1)) * scale,
                        -(base + (0.3 + 0.45 * (j % 5) / 5) * scale))
            q = cmath.exp(contraction.quad_eval(integrand, w, params))
            c = sf.eval(w, hf)
            worst = max(worst, abs(q - c) / abs(c))
    except CosetForgeError as exc:
        return {"dt": perf_counter() - t0, "typed": f"{type(exc).__name__}: {exc}"}
    except Exception:
        return {"dt": perf_counter() - t0, "untyped": traceback.format_exc()}
    return {"dt": perf_counter() - t0, "cpu": _cpu() - c0,
            "worst": worst}


def finish(msg: dict) -> dict:
    out = {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if _TRACER is not None:
        out["spans"] = _TRACER.summary()
        out["errors"] = dict(_TRACER.errors)
        out["cache"] = {"lookups": _TRACER.cache_lookups,
                        "hits": _TRACER.cache_hits}
        out["missing_hooks"] = list(_TRACER.missing)
        out["span_count"] = len(_TRACER.start)
        out["groups"] = {label: _TRACER.busy(spans)
                         for label, spans in msg.get("groups", {}).items()}
        if msg.get("trace_path"):
            _TRACER.write(msg["trace_path"])
    return out


def handle(msg: dict) -> dict:
    global _TRACER
    op = msg["op"]
    if _TRACER is not None and "sid" in msg:
        _TRACER.session_id = msg["sid"]
    if op == "hello":
        # only if the program imported it: importing numpy (or package
        # metadata) here would add to the worker's peak RSS
        numpy = sys.modules.get("numpy")
        return {"python": sys.version.split()[0],
                "numpy": getattr(numpy, "__version__", None), "pid": os.getpid()}
    if op == "cli":
        return run_cli(msg)
    if op == "quad":
        return run_quad(msg)
    if op == "pairs":
        return {"pairs": bind_pairs(msg["levels"])}
    if op == "trace_on":
        from tracing import Tracer
        _TRACER = Tracer()
        _TRACER.install()
        return {}
    if op == "finish":
        return finish(msg)
    raise ValueError(f"unknown op {op!r}")


def main() -> None:
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    for line in sys.stdin:
        msg = json.loads(line)
        proto.write(json.dumps(handle(msg)) + "\n")
        proto.flush()
        if msg["op"] == "finish":
            break
    proto.close()


if __name__ == "__main__":
    main()
