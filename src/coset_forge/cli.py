"""Batch verification driver.

    coset-forge <catalog|contract|verify|poles|limit|report> [file]
        [--k R] [--hbar R[,R...]] [--grid-n N] [--grid-range A,B]
        [--tol X] [--json PATH] [--rotate <c-sector|global|none>]
        [--relation NAME] [--all] [--at RE,IM] [--pair A,B]

Exit codes: 0 all checks pass, 1 verification failure, 2 input error.
``verify``, ``report`` and ``limit`` refuse a run that would check nothing.
With ``--json -`` the report is the only thing written to stdout; the
human-readable lines go to stderr.  ``catalog`` writes no report and
rejects ``--json``.
JSON reports are deterministic: the bytes of json.dumps(payload,
sort_keys=True, indent=1) plus a newline, every float rendered with 17
significant digits (lowercase exponent) as a decimal string, grids built
from fixed rules rather than random draws.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.resources
import math
import sys
from fractions import Fraction

try:
    # the C escaper json.encoder wraps, without importing the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:     # an interpreter without the _json accelerator
    from json.encoder import encode_basestring_ascii as _quote

from .algebra import (ClassicalBraid, VerificationReport,
                      classical_limit, default_grid, ef_commutator_analysis,
                      verify_relation)
from .contraction import closed_form, contract, quad_eval
from .dsl import parse_definitions
from .errors import (CosetForgeError, InvalidOption, NonConvergent,
                     NothingToVerify, ParseError)

SCHEMA_VERSION = "1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_c(z: complex) -> dict:
    return {"re": _fmt(z.real), "im": _fmt(z.imag)}


def _load(path: str | None):
    if path is None:
        res = importlib.resources.files("coset_forge") / "data" / "paper.alg"
        return res.read_text()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_rational(flag: str, text: str) -> Fraction:
    """A --k or --hbar value: a rational whose float is nonzero and finite,
    as every later float evaluation needs."""
    try:
        x = Fraction(text)
        nonzero = float(x) != 0.0
    except (ValueError, ZeroDivisionError, OverflowError):
        nonzero = False
    if not nonzero:
        raise InvalidOption(
            f"{flag} must be a rational, nonzero and finite as a float, "
            f"got {text!r}")
    return x


def _parse_hbar(text: str) -> Fraction:
    """One --hbar value: a rational as _parse_rational reads it, positive."""
    h = _parse_rational("--hbar", text)
    if h <= 0:
        raise InvalidOption(f"--hbar values must be positive, got {text!r}")
    return h


def _check_numeric_flags(args) -> None:
    """Reject a tolerance no residual can meet and grid flags under which no
    point, or no finite point, would be checked."""
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise InvalidOption(f"--tol must be finite and non-negative, got {args.tol}")
    if args.grid_n < 1:
        raise InvalidOption(f"--grid-n must be at least 1, got {args.grid_n}")
    if args.grid_range:
        lo, hi = _parse_two_floats("--grid-range", args.grid_range)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0 or hi <= 0:
            raise InvalidOption(
                f"--grid-range bounds must be finite and positive, got {args.grid_range}")
        if lo > hi:
            raise InvalidOption(
                f"--grid-range lower bound exceeds upper bound: {args.grid_range}")


def _parse_two_floats(flag: str, text: str) -> tuple[float, float]:
    try:
        a, b = (float(x) for x in text.split(","))
    except ValueError:
        raise InvalidOption(
            f"{flag} must be two comma-separated numbers, got {text!r}") from None
    return a, b


def _parse_at(text: str) -> complex:
    re, im = _parse_two_floats("--at", text)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise InvalidOption(f"--at must be finite, got {text}")
    return complex(re, im)


def _parse_pair(text: str, currents) -> tuple[str, str]:
    names = [x.strip() for x in text.split(",")]
    if len(names) != 2 or not all(names):
        raise InvalidOption(f"--pair must be two current names A,B, got {text!r}")
    unknown = [n for n in names if n not in currents]
    if unknown:
        raise InvalidOption(f"--pair names unknown currents: {', '.join(unknown)}")
    return names[0], names[1]


def _bind_session(args):
    _check_numeric_flags(args)
    text = _load(args.file)
    df = parse_definitions(text)
    k = _parse_rational("--k", args.k) if args.k else None
    hbars = [_parse_hbar(h) for h in args.hbar.split(",")] if args.hbar else None
    params, cat, rels, comms, hbars = df.bind(k, hbars)
    if args.rotate:
        for rel in rels:
            rel.rotate = args.rotate
    if args.tol is not None:
        for rel in rels:
            rel.tolerance = args.tol
    return df, params, cat, rels, comms, hbars


def _require_checks(rels, comms) -> None:
    """Refuse a run that would pass without checking anything."""
    if not rels and not comms:
        raise NothingToVerify(
            "the definition file declares no relation and no commutator_delta")


def _session_grid(args, params, avoid=None):
    lo, hi = 0.1, 10.0
    if args.grid_range:
        lo, hi = _parse_two_floats("--grid-range", args.grid_range)
    return default_grid(params, n=args.grid_n, lo=lo, hi=hi, avoid=avoid)


def _report_to_dict(rep: VerificationReport) -> dict:
    return {
        "id": rep.rel_id,
        "kind": rep.kind,
        "pass": rep.passed,
        "symbolic_pass": rep.symbolic_pass,
        "max_rel_err": _fmt(rep.max_rel_err),
        "grid": [_fmt_c(w) for w in rep.grid],
        "residuals": [_fmt(r) for r in rep.residuals],
        "derived_factor": rep.derived_factor,
        "expected_factor": rep.expected_factor,
        "poles": [
            {"w_exact": _fmt_c(p["w_exact"]), "w_numeric": _fmt_c(p["w_numeric"]),
             "abs_err": _fmt(p["abs_err"]),
             "pairs": [list(x) for x in p["pairs"]]}
            for p in rep.poles],
        "residue_ops": [
            {"pole_w": _fmt_c(r["pole_w"]), "scalar": r["scalar_gr"],
             "scalar_hbar_power": r["scalar_hbar_power"],
             "matches": r["matches"],
             "derived_u1_shift": r["derived_u1_shift"],
             "sector_exponents_vanish": r["sector_exponents_vanish"]}
            for r in rep.residue_ops],
        "limit_fit": ({} if not rep.limit_fit else {
            "order": _fmt(rep.limit_fit["order"]),
            "errors": [_fmt(e) for e in rep.limit_fit["errors"]],
            "target": _fmt_c(rep.limit_fit["target"]),
            "skipped": bool(rep.limit_fit.get("skipped", False))}),
        "notes": list(rep.notes),
    }


def _run_relations(cat, rels, args) -> list[VerificationReport]:
    grid = _session_grid(args, cat.params)
    reports = [verify_relation(cat, rel, grid=grid) for rel in rels]
    return sorted(reports, key=lambda r: r.rel_id)


def _run_commutators(cat, comms, args) -> list[VerificationReport]:
    out = []
    for cm in comms:
        out.append(ef_commutator_analysis(
            cat, e_name=cm["pair"][0], f_name=cm["pair"][1],
            expected_poles=cm["poles"], residue_targets=cm["residues"]))
    return out


def _run_limits(cat, hbars_seq, pairs) -> list[VerificationReport]:
    out = []
    for (a, b) in pairs:
        ab = 1 if a == b else -1
        braid = ClassicalBraid(1, ab, cat.params.k)
        try:
            rep = classical_limit(cat, (a, b), braid, hbars_seq,
                                  w=1.0 + 0.002j)
        except NonConvergent as exc:
            rep = VerificationReport(f"limit[{a},{b};ab={ab}]",
                                     "classical-limit", False, None,
                                     float("nan"), notes=[str(exc)])
        out.append(rep)
    return out


def _to_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=1), byte for byte.

    An indent sends the stdlib to its pure-Python encoder; this walk does
    the same work in fewer calls, emitting a string leaf together with its
    key.  Dict keys must be strings."""
    chunks: list[str] = []
    _write_json(obj, chunks.append, "\n")
    return "".join(chunks)


def _write_json(obj, emit, nl: str) -> None:
    if isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = nl + " "
        sep, lead = "," + inner, "{" + inner
        for key in sorted(obj):
            value = obj[key]
            if type(value) is str:
                emit(f"{lead}{_quote(key)}: {_quote(value)}")
            else:
                emit(f"{lead}{_quote(key)}: ")
                _write_json(value, emit, inner)
            lead = sep
        emit(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = nl + " "
        sep, lead = "," + inner, "[" + inner
        for value in obj:
            if type(value) is str:
                emit(lead + _quote(value))
            else:
                emit(lead)
                _write_json(value, emit, inner)
            lead = sep
        emit(nl + "]")
    elif isinstance(obj, str):
        emit(_quote(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj != obj:
            emit("NaN")
        elif obj == math.inf:
            emit("Infinity")
        elif obj == -math.inf:
            emit("-Infinity")
        else:
            emit(float.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} "
                        "is not JSON serializable")


def _emit_json(path: str, payload: dict) -> None:
    blob = _to_json(payload)
    if path == "-":
        sys.stdout.write(blob + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")


def _text_stream(args):
    """Where the human-readable lines go: stderr when the JSON report takes
    stdout, so that stdout parses as JSON."""
    return sys.stderr if args.json == "-" else sys.stdout


def _print_report_lines(reports, out):
    for rep in reports:
        mark = "PASS" if rep.passed else "FAIL"
        extra = ""
        if rep.kind == "classical-limit" and rep.limit_fit:
            extra = f" order={_fmt(rep.limit_fit['order'])}"
        print(f"{mark} {rep.rel_id} kind={rep.kind} "
              f"max_rel_err={_fmt(rep.max_rel_err)}{extra}", file=out)
        for note in rep.notes:
            print(f"     note: {note}", file=out)


# ---------------------------------------------------------------------------
# subcommands

def cmd_catalog(args) -> int:
    if args.json:
        raise InvalidOption("--json: catalog writes no JSON report")
    df, params, cat, rels, comms, hbars = _bind_session(args)
    print(f"level k = {params.k}, hbar = {', '.join(str(h) for h in hbars)}")
    for name in sorted(cat.currents):
        cur = cat.currents[name]
        print(f"current {name}: {len(cur.terms)} term(s)")
        for i, term in enumerate(cur.terms):
            pref = f"{term.coeff!r}"
            if term.hbar_power:
                pref += f"*hbar^{term.hbar_power}"
            print(f"  term {i}: prefactor {pref}")
            for fam, mf in sorted(term.exponents.items()):
                lat, pos, neg = mf.canonical()
                for label, branch in (("t>0", pos), ("t<0", neg)):
                    for hpow, lr in sorted(branch.items()):
                        print(f"    {fam} {label}: hbar^{hpow} * [{lr!r}], "
                              f"zeta = exp(h t/{2 * lat})")
    return 0


def cmd_contract(args) -> int:
    w = _parse_at(args.at) if args.at else None
    df, params, cat, rels, comms, hbars = _bind_session(args)
    a, b = args.currents
    if a not in cat.currents or b not in cat.currents:
        raise CosetForgeError(f"unknown currents {a!r}, {b!r}")
    ca, cb = cat[a], cat[b]
    if len(ca.terms) != 1 or len(cb.terms) != 1:
        raise CosetForgeError("contract expects primitive currents")
    out = _text_stream(args)
    families = []
    for fam in cat.kernels:
        fa = ca.terms[0].exponents.get(fam)
        fb = cb.terms[0].exponents.get(fam)
        if fa is None or fb is None:
            continue
        I = contract(fa, fb, cat.kernels[fam], params)
        if I.is_zero():
            print(f"family {fam}: zero contraction", file=out)
            families.append({"family": fam, "zero": True})
            continue
        sf = closed_form(I, params)
        bound = I.strip_bound(params.hbar_float)
        wv = w if w is not None else complex(0.7, -(max(bound, 0.0) + 1.0))
        q = cmath.exp(quad_eval(I, wv, params))
        c = cmath.exp(sf.log_eval(wv, params.hbar_float))
        print(f"family {fam}: strip Im w < {_fmt(-bound)}; at w = {wv}", file=out)
        print(f"  log divergence coeff a = {I.log_divergence_coeff}", file=out)
        print(f"  quadrature   exp(I) = {q}", file=out)
        print(f"  closed form  value  = {c}", file=out)
        desc = sf.describe()
        print(f"  closed form  = {desc}", file=out)
        families.append({
            "family": fam, "zero": False, "strip_im_w_below": _fmt(-bound),
            "w": _fmt_c(wv), "log_divergence_coeff": str(I.log_divergence_coeff),
            "quadrature": _fmt_c(q), "closed_form_value": _fmt_c(c),
            "closed_form": desc})
    if all(f["zero"] for f in families):
        print("currents share no kernel family; all contractions vanish", file=out)
    if args.json:
        _emit_json(args.json, {
            "schema_version": SCHEMA_VERSION,
            "params": {"k": str(params.k), "hbar": [str(params.hbar)]},
            "currents": [a, b],
            "families": families})
    return 0


def cmd_verify(args) -> int:
    df, params, cat, rels, comms, hbars = _bind_session(args)
    _require_checks(rels, comms)
    if args.relation:
        rels = [r for r in rels if r.rel_id == args.relation]
        if not rels:
            raise CosetForgeError(f"no relation named {args.relation!r}")
        comms = []
    reports = _run_relations(cat, rels, args)
    if not args.relation:
        reports += _run_commutators(cat, comms, args)
    out = _text_stream(args)
    _print_report_lines(reports, out)
    ok = all(r.passed for r in reports)
    if args.json:
        payload = _payload(params, hbars, reports)
        _emit_json(args.json, payload)
    print(("all relations hold" if ok else "verification FAILED"), file=out)
    return 0 if ok else 1


def cmd_poles(args) -> int:
    df, params, cat, rels, comms, hbars = _bind_session(args)
    if not comms:
        raise CosetForgeError("no commutator_delta declaration in the file")
    reports = _run_commutators(cat, comms, args)
    out = _text_stream(args)
    for rep in reports:
        _print_report_lines([rep], out)
        for p in rep.poles:
            print(f"  pole at w = {p['w_exact']}; numeric |err| = {_fmt(p['abs_err'])}",
                  file=out)
        for r in rep.residue_ops:
            print(f"  residue at w = {r['pole_w']}: scalar {r['scalar_gr']} "
                  f"* hbar^{r['scalar_hbar_power']}, matches {r['matches']}, "
                  f"derived shift {r['derived_u1_shift']}", file=out)
    ok = all(r.passed for r in reports)
    if args.json:
        _emit_json(args.json, _payload(params, hbars, reports))
    return 0 if ok else 1


def cmd_limit(args) -> int:
    df, params, cat, rels, comms, hbars = _bind_session(args)
    seq = (hbars if args.hbar
           else [Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)])
    if args.pair:
        pairs = [_parse_pair(args.pair, cat.currents)]
    else:
        pairs = [(r.left_pair[0], r.left_pair[1])
                 for r in rels if r.kind == "shape"]
        if not pairs:
            raise NothingToVerify(
                "the definition file declares no shape relation; name a pair "
                "with --pair")
    reports = _run_limits(cat, seq, pairs)
    _print_report_lines(reports, _text_stream(args))
    ok = all(r.passed for r in reports)
    if args.json:
        _emit_json(args.json, _payload(params, seq, reports))
    return 0 if ok else 1


def cmd_report(args) -> int:
    df, params, cat, rels, comms, hbars = _bind_session(args)
    _require_checks(rels, comms)
    reports = _run_relations(cat, rels, args)
    reports += _run_commutators(cat, comms, args)
    shape_pairs = [(r.left_pair[0], r.left_pair[1])
                   for r in rels if r.kind == "shape"]
    seq = [Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)]
    reports += _run_limits(cat, seq, shape_pairs)
    payload = _payload(params, hbars, reports)
    _emit_json(args.json or "-", payload)
    ok = all(r.passed for r in reports)
    return 0 if ok else 1


def _payload(params, hbars, reports) -> dict:
    rel_dicts = [_report_to_dict(r) for r in
                 sorted(reports, key=lambda r: (r.kind, r.rel_id))]
    # the flat list shares the grid points and residuals formatted above
    flat = [{"relation": d["id"], "w": w, "residual": res}
            for d in rel_dicts for w, res in zip(d["grid"], d["residuals"])]
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {"k": str(params.k),
                   "hbar": [str(h) for h in hbars]},
        "relations": rel_dicts,
        "residuals": flat,
        "poles": [p for r in rel_dicts for p in r["poles"]],
        "limit_fits": [
            {"id": r["id"], **r["limit_fit"]}
            for r in rel_dicts if r["limit_fit"]],
        "pass": all(r["pass"] for r in rel_dicts),
    }


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coset-forge",
        description="verify the deformed coset vertex-operator relations")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", nargs="?", default=None,
                       help="definition file (.alg); defaults to the shipped catalog")
        p.add_argument("--k", default=None, help="override the level (rational)")
        p.add_argument("--hbar", default=None,
                       help="override hbar values, comma-separated rationals")
        p.add_argument("--grid-n", type=int, default=25)
        p.add_argument("--grid-range", default=None, metavar="A,B")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--json", default=None, metavar="PATH")
        p.add_argument("--rotate", default=None,
                       choices=["none", "c-sector", "global"],
                       help="force a rotation mode on every relation")

    p = sub.add_parser("catalog", help="print the bound current catalog")
    common(p)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("contract", help="quadrature vs closed form for a pair")
    common(p)
    # a tuple metavar breaks argparse's usage message for a missing pair
    p.add_argument("currents", nargs=2, metavar="CURRENT")
    p.add_argument("--at", default=None, metavar="RE,IM")
    p.set_defaults(fn=cmd_contract)

    p = sub.add_parser("verify", help="verify declared relations")
    common(p)
    p.add_argument("--all", action="store_true",
                   help="verify every declared relation (default)")
    p.add_argument("--relation", default=None, help="verify a single relation")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("poles", help="ordering-difference pole/residue analysis")
    common(p)
    p.set_defaults(fn=cmd_poles)

    p = sub.add_parser("limit", help="classical-limit degeneration fits")
    common(p)
    p.add_argument("--pair", default=None, metavar="A,B")
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("report", help="full verification run as JSON")
    common(p)
    p.set_defaults(fn=cmd_report)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        _fail(args, "parse", exc)
        return 2
    except (CosetForgeError, OSError, ValueError) as exc:
        _fail(args, type(exc).__name__, exc)
        return 2


def _fail(args, kind, exc):
    if getattr(args, "json", None):
        _emit_json(args.json, {
            "schema_version": SCHEMA_VERSION,
            "error": {"kind": kind, "message": str(exc)}})
    print(f"error: {exc}", file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
