"""Batch verification driver.

    coset-forge <catalog|contract|verify|poles|limit|report> [file]
        [--k R] [--hbar R[,R...]] [--json PATH] [--relation NAME]
        [CURRENT CURRENT] [--at RE,IM] [--pair A,B]

Each subcommand accepts only the options it reads.  The command line picks
the file, the level and what to run; a relation's Wick rotation is declared
with it in the file, and the tolerance is fixed.
Exit codes: 0 all checks pass, 1 verification failure (a claim refused
by one of REFUSALS included: that row FAILs), 2 input error.
``verify``, ``report`` and ``limit`` refuse a run that would check nothing.
With ``--json -`` the report is the only thing written to stdout; the
human-readable lines go to stderr.  ``catalog`` writes no report.
``limit`` reads ``--hbar`` as the hbar -> 0 sequence, at least three strictly
decreasing values; ``contract`` reads a single value; every other
subcommand reads the deformation values.
JSON reports are deterministic: the bytes of json.dumps(payload,
sort_keys=True, indent=1) plus a newline, every float rendered with 17
significant digits (lowercase exponent) as a decimal string, the points of
a quadrature-only check built from a fixed rule rather than random draws.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import os
import sys
from fractions import Fraction

try:
    # the C escaper json.encoder wraps, without importing the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:     # an interpreter without the _json accelerator
    from json.encoder import encode_basestring_ascii as _quote

from .algebra import (ClassicalBraid, VerificationReport, classical_limit,
                      ef_commutator_analysis, verify_relation)
from .contraction import closed_form, contract, quad_eval
from .dsl import parse_definitions
from .errors import (CosetForgeError, DivergenceMismatch, InvalidOption,
                     NonConvergent, NonFiniteValue, NonTelescoping,
                     NothingToVerify, ParseError, ResidueMismatch,
                     UnexpectedPole)

SCHEMA_VERSION = "5"
# the hbar -> 0 sequence of the classical limits, unless --hbar gives one
LIMIT_HBARS = (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_c(z: complex) -> dict:
    return {"re": _fmt(z.real), "im": _fmt(z.imag)}


def _load(path: str | None):
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "paper.alg")
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


def _parse_at(text: str) -> complex:
    try:
        re, im = (float(x) for x in text.split(","))
    except ValueError:
        raise InvalidOption(
            f"--at must be two comma-separated numbers, got {text!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise InvalidOption(f"--at must be finite, got {text}")
    return complex(re, im)


def _require_names(names, ok, what: str) -> None:
    """Raise InvalidOption naming each of `names` for which ok() is false."""
    bad = [n for n in names if not ok(n)]
    if bad:
        raise InvalidOption(f"{what}: {', '.join(bad)}")


def _parse_pair(text: str, currents) -> tuple[str, str]:
    names = [x.strip() for x in text.split(",")]
    if len(names) != 2 or not all(names):
        raise InvalidOption(f"--pair must be two current names A,B, got {text!r}")
    _require_names(names, currents.__contains__, "--pair names unknown currents")
    return names[0], names[1]


def _bind_session(args):
    df = parse_definitions(_load(args.file))
    k = _parse_rational("--k", args.k) if args.k else None
    hbars = [_parse_hbar(h) for h in args.hbar.split(",")] if args.hbar else None
    return df.bind(k, hbars)


def _require_checks(rels, comms) -> None:
    """Refuse a run that would pass without checking anything."""
    if not rels and not comms:
        raise NothingToVerify(
            "the definition file declares no relation and no commutator_delta")


def _report_to_dict(rep: VerificationReport) -> dict:
    """The report's row.  A row with a numeric residual lists it with its
    points and the residual at each; a row on the symbolic route has none."""
    row = {
        "id": rep.rel_id,
        "kind": rep.kind,
        "pass": rep.passed,
        "symbolic_pass": rep.symbolic_pass,
        "derived_factor": rep.derived_factor,
        "expected_factor": rep.expected_factor,
        "poles": [
            {"w_exact": _fmt_c(p["w_exact"]),
             "pairs": [list(x) for x in p["pairs"]]}
            for p in rep.poles],
        "residue_ops": [
            {"pole_w": _fmt_c(r["pole_w"]), "scalar": r["scalar_gr"],
             "scalar_hbar_power": r["scalar_hbar_power"],
             "matches": r["matches"],
             "derived_u1_shift": r["derived_u1_shift"],
             "sector_exponents_vanish": r["sector_exponents_vanish"]}
            for r in rep.residue_ops],
        "limit_fit": _limit_fit_to_dict(rep.limit_fit),
        "notes": list(rep.notes),
    }
    if rep.max_rel_err is not None:
        row["max_rel_err"] = _fmt(rep.max_rel_err)
        row["residuals"] = [_fmt(r) for r in rep.residuals]
        row["grid"] = [_fmt_c(w) for w in rep.grid]
    return row


def _limit_fit_to_dict(fit: dict) -> dict:
    if not fit:
        return {}
    order = fit["order"]
    return {
        "exponent": str(fit["exponent"]),
        "braid_exponent": str(fit["braid_exponent"]),
        "x_power": str(fit["x_power"]),
        "const_phase": str(fit["const_phase"]),
        "order": None if order is None else str(order),
        "correction": None if order is None else repr(fit["correction"]),
        "n_max": str(fit["n_max"]),
        "errors": [_fmt(e) for e in fit["errors"]],
        "target": _fmt_c(fit["target"]),
        "check_hbar": _fmt(fit["check_hbar"]),
        "check_errors": [_fmt(e) for e in fit["check_errors"]]}


# what refuses a row's claim or leaves it undecidable: that row FAILs and the
# run goes on.  A missing numpy or an ill-posed contraction ends the run
REFUSALS = (DivergenceMismatch, NonTelescoping, UnexpectedPole, ResidueMismatch,
            NonConvergent)


def _row(rel_id: str, kind: str, check, *args) -> VerificationReport:
    """check(*args), or, when it raises one of REFUSALS, the row's FAIL: the
    error text as its note, no residual and no symbolic verdict."""
    try:
        return check(*args)
    except REFUSALS as exc:
        return VerificationReport(rel_id, kind, False, None, float("nan"),
                                  notes=[str(exc)])


def _run_relations(cat, rels) -> list[VerificationReport]:
    reports = [_row(rel.rel_id, rel.kind, verify_relation, cat, rel) for rel in rels]
    return sorted(reports, key=lambda r: r.rel_id)


def _run_commutators(cat, comms) -> list[VerificationReport]:
    return [_row("[{},{}]".format(*cm["pair"]), "commutator-delta",
                 ef_commutator_analysis, cat, *cm["pair"], cm["poles"],
                 cm["residues"]) for cm in comms]


def _run_limits(cat, hbars_seq, pairs) -> list[VerificationReport]:
    """The classical limit of each current pair (A, B) in `pairs`."""
    return [_row(f"limit[{a},{b};ab={ab}]", "classical-limit", classical_limit,
                 cat, (a, b), ClassicalBraid(1, ab, cat.params.k), hbars_seq)
            for a, b in pairs for ab in [1 if a == b else -1]]


def _to_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=1), byte for byte.

    An indent sends the stdlib to its pure-Python encoder; this walk does
    the same work in fewer calls.  A list or dict whose values are all
    strings is written with one join, and a string leaf together with its
    key.  Dict keys must be strings."""
    chunks: list[str] = []
    _write_json(obj, chunks, "\n")
    return "".join(chunks)


def _write_json(obj, chunks: list, nl: str) -> None:
    """Append the text of `obj` at indent `nl` to `chunks`."""
    if isinstance(obj, (dict, list, tuple)):
        if not obj:
            chunks.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = nl + " "
        sep = "," + inner
        if isinstance(obj, dict):
            # string items collect in buf, written in one piece up to the
            # next container value
            buf = []
            lead = "{" + inner
            for k in sorted(obj):
                value = obj[k]
                if type(value) is str:
                    buf.append(f"{lead}{_quote(k)}: {_quote(value)}")
                else:
                    buf.append(f"{lead}{_quote(k)}: ")
                    chunks.append("".join(buf))
                    buf = []
                    _write_json(value, chunks, inner)
                lead = sep
            buf.append(nl + "}")
            chunks.append("".join(buf))
        elif all(type(v) is str for v in obj):
            chunks.append("[" + inner + sep.join(map(_quote, obj)) + nl + "]")
        else:
            lead = "[" + inner
            for value in obj:
                if type(value) is str:
                    chunks.append(lead + _quote(value))
                else:
                    chunks.append(lead)
                    _write_json(value, chunks, inner)
                lead = sep
            chunks.append(nl + "]")
    elif isinstance(obj, str):
        chunks.append(_quote(obj))
    elif obj is None:
        chunks.append("null")
    elif obj is True:
        chunks.append("true")
    elif obj is False:
        chunks.append("false")
    elif isinstance(obj, int):
        chunks.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj != obj:
            chunks.append("NaN")
        elif obj == math.inf:
            chunks.append("Infinity")
        elif obj == -math.inf:
            chunks.append("-Infinity")
        else:
            chunks.append(float.__repr__(obj))
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
        if rep.max_rel_err is not None:
            extra = f" max_rel_err={_fmt(rep.max_rel_err)}"
        if rep.kind == "classical-limit" and rep.limit_fit:
            extra += _limit_line(rep.limit_fit)
        print(f"{mark} {rep.rel_id} kind={rep.kind}{extra}", file=out)
        for note in rep.notes:
            print(f"     note: {note}", file=out)


def _limit_line(fit: dict) -> str:
    text = (f" exponent={fit['exponent']}"
            f" (braid {fit['braid_exponent']} mod 2)")
    if fit["order"] is None:
        return text + f"; no power-law term up to n = {fit['n_max']}"
    return text + f"; order={fit['order']} (coefficient {fit['correction']!r})"


# ---------------------------------------------------------------------------
# subcommands

def cmd_catalog(args) -> int:
    """Each bound current's terms, and under each term one line per grammar
    term of each exponent branch, in the `.alg` exponent grammar."""
    params, cat, rels, comms, hbars = _bind_session(args)
    print(f"level k = {params.k}, hbar = {', '.join(str(h) for h in hbars)}")
    for name in sorted(cat.currents):
        cur = cat.currents[name]
        print(f"current {name}: {len(cur.terms)} term(s)")
        for i, term in enumerate(cur.terms):
            pref = str(term.coeff)
            if term.hbar_power:
                pref += f"*hbar^{term.hbar_power}"
            print(f"  term {i}: prefactor {pref}")
            for fam, mf in sorted(term.exponents.items()):
                for label, branch in (("t>0", mf.positive_branch),
                                      ("t<0", mf.negative_branch)):
                    for t in branch:
                        print(f"    {fam} {label}: {t!r}")
    return 0


def _exp(log: complex, fam: str, w: complex) -> complex:
    """A contraction's printed value exp(log), which must be a finite float."""
    try:
        return cmath.exp(log)
    except OverflowError:
        raise NonFiniteValue(f"family {fam}: exp({log}) overflows at w = {w}") from None


def cmd_contract(args) -> int:
    w = _parse_at(args.at) if args.at else None
    if "," in (args.hbar or ""):
        raise InvalidOption(f"--hbar takes one value for contract, got {args.hbar!r}")
    params, cat, rels, comms, hbars = _bind_session(args)
    a, b = args.currents
    _require_names((a, b), cat.currents.__contains__,
                   "contract names unknown currents")
    _require_names((a, b), lambda n: len(cat[n].terms) == 1,
                   "contract expects primitive currents; composite")
    out = _text_stream(args)
    families = []
    for fam, fa, fb in cat.shared_families(cat[a].terms[0], cat[b].terms[0]):
        I = contract(fa, fb, cat.kernels[fam], params)
        if I.is_zero():
            print(f"family {fam}: zero contraction", file=out)
            families.append({"family": fam, "zero": True})
            continue
        sf = closed_form(I, params)
        bound = I.strip_bound(params.hbar_float)
        wv = w if w is not None else complex(0.7, -(max(bound, 0.0) + 1.0))
        q = _exp(quad_eval(I, wv, params), fam, wv)
        c = _exp(sf.log_eval(wv, params.hbar_float), fam, wv)
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
    if not families:
        print("currents share no kernel family; all contractions vanish", file=out)
    if args.json:
        _emit_json(args.json, {
            "schema_version": SCHEMA_VERSION,
            "params": {"k": str(params.k), "hbar": [str(params.hbar)]},
            "currents": [a, b],
            "families": families})
    return 0


def cmd_verify(args) -> int:
    params, cat, rels, comms, hbars = _bind_session(args)
    _require_checks(rels, comms)
    if args.relation:
        _require_names([args.relation], {r.rel_id for r in rels}.__contains__,
                       "--relation names an unknown relation")
        rels = [r for r in rels if r.rel_id == args.relation]
        comms = []
    reports = _run_relations(cat, rels) + _run_commutators(cat, comms)
    out = _text_stream(args)
    _print_report_lines(reports, out)
    code = _finish(args.json, params, hbars, reports)
    print(("verification FAILED" if code else "all relations hold"), file=out)
    return code


def cmd_poles(args) -> int:
    params, cat, rels, comms, hbars = _bind_session(args)
    if not comms:
        raise NothingToVerify("no commutator_delta declaration in the file")
    reports = _run_commutators(cat, comms)
    out = _text_stream(args)
    for rep in reports:
        _print_report_lines([rep], out)
        for p in rep.poles:
            print(f"  pole at w = {p['w_exact']}, term pairs {p['pairs']}",
                  file=out)
        for r in rep.residue_ops:
            print(f"  residue at w = {r['pole_w']}: scalar {r['scalar_gr']} "
                  f"* hbar^{r['scalar_hbar_power']}, matches {r['matches']}, "
                  f"derived shift {r['derived_u1_shift']}", file=out)
    return _finish(args.json, params, hbars, reports)


def cmd_limit(args) -> int:
    params, cat, rels, comms, hbars = _bind_session(args)
    seq = LIMIT_HBARS
    if args.hbar:
        seq = hbars
        if len(seq) < 3 or any(b >= a for a, b in zip(seq, seq[1:])):
            raise InvalidOption(
                "--hbar is the hbar -> 0 sequence for limit: at least 3 "
                f"strictly decreasing values, got {args.hbar!r}")
    if args.pair:
        pairs = [_parse_pair(args.pair, cat.currents)]
    else:
        pairs = _shape_pairs(rels)
        if not pairs:
            raise NothingToVerify(
                "the definition file declares no shape relation; name a pair "
                "with --pair")
    reports = _run_limits(cat, seq, pairs)
    _print_report_lines(reports, _text_stream(args))
    return _finish(args.json, params, seq, reports)


def cmd_report(args) -> int:
    params, cat, rels, comms, hbars = _bind_session(args)
    _require_checks(rels, comms)
    reports = (_run_relations(cat, rels) + _run_commutators(cat, comms)
               + _run_limits(cat, LIMIT_HBARS, _shape_pairs(rels)))
    return _finish(args.json, params, hbars, reports)


def _finish(path, params, hbars, reports) -> int:
    """The end of a report command: the payload written to `path` when one
    is given; 0 if every row passed, else 1."""
    if path:
        _emit_json(path, _payload(params, hbars, reports))
    return 0 if all(r.passed for r in reports) else 1


def _shape_pairs(rels) -> list[tuple[str, str]]:
    """The ordered pair of each shape relation, each once, in declaration
    order: a pair has one classical limit, however many rows name it."""
    return list(dict.fromkeys(r.pair for r in rels if r.kind == "shape"))


def _payload(params, hbars, reports) -> dict:
    rel_dicts = [_report_to_dict(r) for r in
                 sorted(reports, key=lambda r: (r.kind, r.rel_id))]
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {"k": str(params.k),
                   "hbar": [str(h) for h in hbars]},
        "relations": rel_dicts,
        "pass": all(r["pass"] for r in rel_dicts),
    }


class _Once(argparse.Action):
    """Store an option's value, as argparse's default action does, and note
    the option in the namespace's `repeated` list when it was given before:
    run() refuses a repeat rather than let the last value win."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("given", set())
        if self.dest in given:
            vars(namespace).setdefault("repeated", []).append(self.option_strings[0])
        given.add(self.dest)
        setattr(namespace, self.dest, values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="coset-forge",
        description="verify the deformed coset vertex-operator relations")
    sub = ap.add_subparsers(dest="command", required=True)

    def session(name, fn, summary,
                hbar_help="override hbar values, comma-separated rationals",
                writes_json=True):
        # how a relation is checked is declared in the file, not here
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        p.add_argument("file", nargs="?", default=None,
                       help="definition file (.alg); defaults to the shipped catalog")
        p.add_argument("--k", default=None, action=_Once,
                       help="override the level (rational)")
        p.add_argument("--hbar", default=None, action=_Once, help=hbar_help)
        if writes_json:
            p.add_argument("--json", default=None, action=_Once, metavar="PATH")
        return p

    session("catalog", cmd_catalog, "print the bound current catalog",
            writes_json=False)

    p = session("contract", cmd_contract, "quadrature vs closed form for a pair",
                hbar_help="override the hbar value, a single rational")
    # a tuple metavar breaks argparse's usage message for a missing pair
    p.add_argument("currents", nargs=2, metavar="CURRENT")
    p.add_argument("--at", default=None, action=_Once, metavar="RE,IM")

    p = session("verify", cmd_verify, "verify declared relations")
    p.add_argument("--relation", default=None, action=_Once,
                   help="verify a single relation; by default every one")

    session("poles", cmd_poles, "ordering-difference pole/residue analysis")

    p = session("limit", cmd_limit, "exact classical limits of the shape pairs",
                hbar_help="the hbar -> 0 sequence, at least 3 strictly "
                          "decreasing rationals")
    p.add_argument("--pair", default=None, action=_Once, metavar="A,B")

    session("report", cmd_report, "full verification run as JSON").set_defaults(json="-")
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        repeated = getattr(args, "repeated", None)
        if repeated:
            if "--json" in repeated:    # neither path is the report's
                args.json = None
            raise InvalidOption(f"{repeated[0]} given more than once")
        return args.fn(args)
    except ParseError as exc:
        _fail(args, "parse", exc)
        return 2
    except (CosetForgeError, OSError, ValueError) as exc:
        _fail(args, type(exc).__name__, exc)
        return 2


def _fail(args, kind, exc):
    if getattr(args, "json", None):
        try:
            _emit_json(args.json, {
                "schema_version": SCHEMA_VERSION,
                "error": {"kind": kind, "message": str(exc)}})
        except OSError:
            pass    # the path itself cannot be written; stderr still says why
    print(f"error: {exc}", file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
