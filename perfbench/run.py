"""coset-forge benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ``src``.  One
client (this process) sends sessions one at a time to one worker process
(perfbench/worker.py), a closed loop with no extra threads.  The worker
imports coset_forge once, so sessions are warm; a session that runs past
the cap is killed with its worker, counted as failed, and the run goes on
with a fresh worker.

Every timed piece (a warm session, a fresh interpreter) is bracketed by two
samples of a fixed reference work (perfbench/calibrate.py), and the gated
times are in reference seconds, so that the host's swings in speed cancel
out; wall and CPU seconds are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
sessions twice, first untraced and then with span wrappers around each
layer's public functions, and prints the per-layer metrics plus the tracing
overhead.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run's metadata.  See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import platform
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads as W  # noqa: E402
from tracing import ERROR_SPANS, SPAN_NAMES  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
CATALOG = SRC / "coset_forge" / "data" / "paper.alg"
WORK_BASE = ROOT / ".perfbench"

SESSION_CAP_S = 30.0      # per-session wall cap
# No session starts after this much loop time, even mid-round, so that a run
# ends within 180 s even for a much slower program.
LOOP_DEADLINE_S = 90.0
STARTUP_TIMEOUT_S = 120.0
FRESH_REPEATS = 6        # fresh interpreters per run, for setup_s and cli_ref_s

SETUP_SNIPPET = """\
import sys, importlib.resources
from fractions import Fraction
import coset_forge.cli
from coset_forge.dsl import parse_definitions
text = (importlib.resources.files("coset_forge") / "data" / "paper.alg").read_text()
parse_definitions(text).bind(Fraction(sys.argv[1]), [Fraction(sys.argv[2])])
"""

# span groups whose share of the traced session time each traced run prints
SHARE_GROUPS = {
    "exact.* + contraction.family_order": [
        "exact.laurent_rational", "exact.poly_gcd", "contraction.family_order"],
    "contraction.quad_eval": ["contraction.quad_eval"],
}

E2E_UNITS = {"setup_s": "s", "verdict_ref_s.p50": "s",
             "verdicts_per_ref_s": "1/s", "cli_ref_s": "s", "peak_rss_mb": "MB"}


class OverCap(Exception):
    pass


class WorkerDied(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """One worker process and its request/response pipe."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.info = self.call({"op": "hello"}, STARTUP_TIMEOUT_S)
        except (OverCap, WorkerDied):
            self.close()
            raise

    def call(self, msg: dict, timeout: float) -> dict:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerDied(f"worker exited with {self.proc.poll()}") from exc
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise OverCap(f"no answer within {timeout:g} s")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for fh in (self.proc.stdin, self.proc.stdout):
            try:
                fh.close()
            except BrokenPipeError:
                pass

    def finish(self, trace_path: str | None = None,
               groups: dict | None = None) -> dict:
        try:
            return self.call({"op": "finish", "trace_path": trace_path,
                              "groups": groups or {}}, STARTUP_TIMEOUT_S)
        finally:
            self.close()


# ---------------------------------------------------------------------------
# judging one session against its known answer

def _judge_cli(s: W.Session, resp: dict, json_path: Path,
               counters: dict | None = None) -> None:
    """Judge a CLI session; add its grid and route counts to `counters`."""
    rc = resp["rc"]
    if rc not in (0, 1):
        s.outcome, s.detail = "failed", f"exit code {rc}: {resp['stderr'][-300:]}"
        return
    if "agree_tol" in s.expect:   # `contract` prints quadrature vs closed form
        q, c = (_printed_complex(resp["stdout"], label)
                for label in (r"quadrature\s+exp\(I\)", r"closed form\s+value"))
        agree = (q is not None and c is not None
                 and abs(q - c) <= s.expect["agree_tol"] * abs(c))
        s.rows = 1
        s.outcome = "ok" if rc == s.expect["rc"] and agree else "wrong"
        s.detail = "" if agree else f"quadrature {q} vs closed form {c}"
        return
    try:
        report = json.loads(json_path.read_text())
        rels = report["relations"]
    except (OSError, ValueError, KeyError) as exc:
        s.outcome, s.detail = "failed", f"no JSON report: {exc}"
        return
    s.rows = len(rels)
    fails = sorted(r["id"] for r in rels if not r["pass"])
    ok = (rc == s.expect["rc"] and s.rows == s.expect["rows"]
          and fails == s.expect["fail"])
    s.outcome = "ok" if ok else "wrong"
    if not ok:
        s.detail = f"exit {rc}, {s.rows} rows, FAIL {fails}"
    if counters is not None:
        residuals = report.get("residuals", [])
        counters["grid_points"] += len(residuals)
        counters["grid_nan_points"] += sum(
            1 for r in residuals if r["residual"] == "nan")
        counters["numeric_only"] += sum(
            1 for r in rels
            if any("quadrature-only" in n for n in r.get("notes", [])))


def _printed_complex(text: str, label: str) -> complex | None:
    m = re.search(label + r"\s+=\s+(\S+)", text)
    try:
        return complex(m.group(1)) if m else None
    except ValueError:
        return None


def _judge_quad(s: W.Session, resp: dict) -> None:
    s.rows = 1
    if "typed" in resp:
        s.outcome, s.detail = "wrong", resp["typed"]
    elif resp["worst"] <= s.expect["agree_tol"]:
        s.outcome = "ok"
    else:
        s.outcome, s.detail = "wrong", f"max relative error {resp['worst']:.3e}"


class Runner:
    """Feeds sessions to a worker, restarting it after a cap or a crash."""

    def __init__(self, first: W.Session, work: Path, trace: bool, cap: float,
                 quad_levels: list | None):
        self.first, self.trace, self.cap = first, trace, cap
        self.quad_levels = quad_levels
        self.json_path = work / "report.json"
        self.alg_path = work / "mutated.alg"
        self.catalog_text = CATALOG.read_text()
        self.counters = {"grid_points": 0, "grid_nan_points": 0,
                         "numeric_only": 0}
        self.rss_mb = 0.0
        self.info: dict = {}
        self.pairs: dict | None = None
        self.worker: Worker | None = None
        self.warmups: list[W.Session] = []
        self.ref_samples: list[float] = []   # reference samples around sessions

    def start(self) -> None:
        """A fresh worker: bind the quadrature catalogs, run the first
        session once untimed, then install the tracer if asked."""
        self.worker = Worker()
        self.info = self.worker.info
        if self.quad_levels:
            resp = self.worker.call({"op": "pairs", "levels": self.quad_levels},
                                    STARTUP_TIMEOUT_S)
            self.pairs = {tuple(key.split("|")): v
                          for key, v in resp["pairs"].items()}
        warm = copy_session(self.first)
        self._execute(warm, STARTUP_TIMEOUT_S, sid=-1, count=False)
        self.warmups.append(warm)
        if self.trace and self.worker is not None:
            self.worker.call({"op": "trace_on"}, STARTUP_TIMEOUT_S)

    def _execute(self, s: W.Session, timeout: float, sid: int,
                 count: bool = True) -> None:
        if s.mutation is not None:
            self.alg_path.write_text(
                W.apply_mutation(self.catalog_text, s.mutation))
        self.json_path.unlink(missing_ok=True)
        ref0 = calibrate.sample()
        try:
            resp = self.worker.call({"op": s.op, **s.args, "sid": sid}, timeout)
        except (OverCap, WorkerDied) as exc:
            s.outcome = "overcap" if isinstance(exc, OverCap) else "failed"
            s.detail = str(exc)
            self.close()      # the killed worker's peak RSS is lost
            return
        ref1 = calibrate.sample()
        self.ref_samples += [ref0, ref1]
        s.dt, s.cpu = resp["dt"], resp.get("cpu")
        s.ref = calibrate.to_reference(s.dt, ref0, ref1)
        if "untyped" in resp:
            s.outcome, s.detail = "failed", resp["untyped"][-600:]
        elif s.op == "quad":
            _judge_quad(s, resp)
        else:
            _judge_cli(s, resp, self.json_path,
                       self.counters if count else None)

    def run(self, sessions: list[W.Session], deadline: float = LOOP_DEADLINE_S,
            before=None) -> list[W.Session]:
        """The sessions in order, calling `before(i)` ahead of the i-th; no
        session starts after `deadline` seconds."""
        done: list[W.Session] = []
        t0 = time.monotonic()
        for s in sessions:
            if time.monotonic() - t0 >= deadline:
                break
            if before is not None:
                before(len(done))
            if self.worker is None:
                self.start()
            self._execute(s, self.cap, sid=len(done))
            done.append(s)
        return done

    def finish(self, trace_path: str | None = None,
               groups: dict | None = None) -> dict:
        if self.worker is None:
            return {}
        out = self.worker.finish(trace_path, groups)
        self.worker = None
        self.rss_mb = max(self.rss_mb, out.get("rss_mb", 0.0))
        return out

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None


def copy_session(s: W.Session) -> W.Session:
    return W.Session(s.op, s.args, s.expect, s.label, s.mutation)


# ---------------------------------------------------------------------------
# fresh-interpreter measurements

def _child_cpu() -> float:
    """CPU seconds of all reaped child processes (and their threads)."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _timed_child(argv: list[str], timeout: float) -> tuple[dict, object]:
    """Run a fresh interpreter; its wall, CPU and reference seconds (the
    wall time against reference samples taken just before and after)."""
    ref0 = calibrate.sample()
    t0, c0 = time.perf_counter(), _child_cpu()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=timeout)
    wall, cpu = time.perf_counter() - t0, _child_cpu() - c0
    ref = calibrate.to_reference(wall, ref0, calibrate.sample())
    return {"wall": wall, "cpu": cpu, "ref": ref}, proc


def measure_setup(level: tuple[str, str], repeats: int) -> list[dict]:
    """Times of fresh interpreters that import the CLI and parse and bind
    the shipped catalog at `level`."""
    out = []
    for _ in range(repeats):
        t, proc = _timed_child(["-c", SETUP_SNIPPET, *level], STARTUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr[-600:]}")
        out.append(t)
    return out


def measure_cli(anchor: W.Session, json_path: Path, repeats: int, cap: float
                ) -> tuple[list[dict], list[W.Session]]:
    """Times of fresh `python -m coset_forge.cli` processes running the
    first session, and each of them judged."""
    times, judged = [], []
    for _ in range(repeats):
        json_path.unlink(missing_ok=True)
        s = copy_session(anchor)
        judged.append(s)
        try:
            t, proc = _timed_child(["-m", "coset_forge.cli",
                                    *anchor.args["argv"]], cap)
        except subprocess.TimeoutExpired:
            s.outcome, s.detail = "overcap", f"fresh CLI ran past {cap:g} s"
            continue
        s.dt, s.cpu, s.ref = t["wall"], t["cpu"], t["ref"]
        times.append(t)
        _judge_cli(s, {"rc": proc.returncode, "stdout": proc.stdout,
                       "stderr": proc.stderr}, json_path)
    return times, judged


# ---------------------------------------------------------------------------
# statistics

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def tail_percentile(n: int) -> int | None:
    """p90 with at least 100 samples, otherwise the highest whole percentile
    that leaves at least ten samples above it (None below 20 samples)."""
    if n >= 100:
        return 90
    if n < 20:
        return None
    return math.floor(100 * (n - 10) / n)


def session_stats(done: list[W.Session]) -> dict:
    """Counts, and per clock (reference, wall and CPU seconds) the median,
    the tail percentile, the total and verdict rows per second."""
    timed = [s for s in done if s.outcome in ("ok", "wrong")]
    rows = sum(s.rows for s in timed)
    out = {"attempted": len(done), "completed": len(timed),
           "wrong": sum(s.outcome == "wrong" for s in done),
           "failed": sum(s.outcome in ("failed", "overcap") for s in done),
           "overcap": sum(s.outcome == "overcap" for s in done), "rows": rows}
    for clock, values in (("ref", [s.ref for s in timed]),
                          ("wall", [s.dt for s in timed]),
                          ("cpu", [s.cpu for s in timed])):
        if not values or None in values:
            continue
        tp = tail_percentile(len(values))
        out[clock] = {"p50": statistics.median(values), "total": sum(values),
                      "per_s": rows / sum(values) if sum(values) else 0.0,
                      "tail": None if tp is None else
                      {"name": f"p{tp}", "value": percentile(values, tp)}}
    return out


# ---------------------------------------------------------------------------
# one run

def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of the machine, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_share(start, end) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if start is None or end is None or end[1] <= start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[dict, dict, list[str]]:
    """Returns (result, metadata, human-readable lines)."""
    cap = SESSION_CAP_S
    jiffies = cpu_jiffies()
    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "session_cap_s": cap, "nproc": os.cpu_count(),
            "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": git_commit(),
            "loadavg_at_start": list(os.getloadavg())}
    json_path = str(work / "report.json")
    first, first_level = W.anchor(workload, json_path)
    quad_levels = ([list(lv) for lv in W.quad_levels()]
                   if workload == "quadrature-crosscheck" else None)
    meta["first_session"] = first.label
    meta["rounds"] = W.round_count(workload, seconds / 2 if trace else seconds)
    runners = [Runner(first, work, False, cap, quad_levels)]
    try:
        runners[0].start()
        meta["numpy"] = runners[0].info.get("numpy")
        plan = W.rounds(workload, seed, CATALOG.read_text(), json_path,
                        str(work / "mutated.alg"), runners[0].pairs)
        if runners[0].pairs:
            meta["pairs_per_level"] = {"|".join(k): len(v)
                                       for k, v in runners[0].pairs.items()}
        if trace:
            return _traced(workload, seed, cap, work, plan, runners, meta)
        return _untraced(first, first_level, cap, plan, runners[0], meta)
    finally:
        meta["cpu_steal_share"] = steal_share(jiffies, cpu_jiffies())
        for r in runners:
            r.close()


def _planned(plan, n_rounds: int) -> list[W.Session]:
    return [s for batch in itertools.islice(plan, n_rounds) for s in batch]


def _untraced(first, first_level, cap, plan, runner, meta):
    # one set-up and one CLI interpreter at each of FRESH_REPEATS points
    # spread evenly over the timed sessions, first and last included, so
    # that their medians see the whole run, not one spell of the host
    sessions = _planned(plan, meta["rounds"])
    due = [round(i * len(sessions) / (FRESH_REPEATS - 1))
           for i in range(FRESH_REPEATS)]
    setup, cli_times, cli_judged = [], [], []

    def fresh(i: int) -> None:
        while due and due[0] <= i:
            due.pop(0)
            setup.extend(measure_setup(first_level, 1))
            times, judged = measure_cli(first, runner.json_path, 1, cap)
            cli_times.extend(times)
            cli_judged.extend(judged)

    done = runner.run(sessions, before=fresh)
    runner.finish()
    fresh(len(sessions))
    st = session_stats(done)
    wrong = st["wrong"] + sum(s.outcome != "ok"
                              for s in runner.warmups + cli_judged)
    nan = float("nan")

    def med(samples, clock):
        return statistics.median(t[clock] for t in samples) if samples else nan

    ref = st.get("ref", {})
    metrics = {
        "setup_s": med(setup, "ref"),
        "verdict_ref_s.p50": ref.get("p50", nan),
        "verdicts_per_ref_s": ref.get("per_s", nan),
        "cli_ref_s": med(cli_times, "ref"),
        "peak_rss_mb": runner.rss_mb,
    }
    failed_share = st["failed"] / max(1, st["attempted"])
    meta.update(samples={"setup_s": len(setup), "cli_ref_s": len(cli_times),
                         "sessions": st["completed"]},
                sessions=st["attempted"], rows=st["rows"],
                wrong_verdicts=wrong, failed_sessions=st["failed"],
                overcap_sessions=st["overcap"], failed_share=failed_share,
                session_ref_s=ref, session_wall_s=st.get("wall", {}),
                session_cpu_s=st.get("cpu", {}),
                setup_samples=setup, cli_samples=cli_times,
                reference_sample_s={
                    "median": statistics.median(runner.ref_samples),
                    "n": len(runner.ref_samples)} if runner.ref_samples else None)
    lines = [f"{name:<20} {metrics[name]:.6g} {unit}"
             for name, unit in E2E_UNITS.items()]
    lines.append("not gated:")
    for clock, label in (("wall", "wall"), ("cpu", "CPU")):
        lines.append(f"{'setup_' + clock + '_s':<20} {med(setup, clock):.6g} "
                     f"s ({label})")
        lines.append(f"{'cli_' + clock + '_s':<20} "
                     f"{med(cli_times, clock):.6g} s ({label})")
    if ref.get("tail"):
        lines.append(f"{'verdict_ref_s.' + ref['tail']['name']:<20} "
                     f"{ref['tail']['value']:.6g} s")
    for clock in ("wall", "cpu"):
        sc = st.get(clock)
        if not sc:
            continue
        lines.append(f"{'verdict_' + clock + '_s.p50':<20} {sc['p50']:.6g} s")
        if sc["tail"]:
            lines.append(f"{'verdict_' + clock + '_s.' + sc['tail']['name']:<20} "
                         f"{sc['tail']['value']:.6g} s")
        lines.append(f"{'verdicts_per_' + clock + '_s':<20} "
                     f"{sc['per_s']:.6g} 1/s")
    lines += [f"{'wrong_verdicts':<20} {wrong} count",
              f"{'failed_share':<20} {failed_share:.6g} ratio "
              f"({st['failed']}/{st['attempted']})",
              f"samples: sessions n={st['completed']}, setup_s "
              f"n={len(setup)}, cli_ref_s n={len(cli_times)}"]
    lines += _controls(done, meta)
    meta["problems"] = _problems(done + runner.warmups + cli_judged)
    meta["sessions_file"] = _dump_sessions(meta, done)
    result = {"correct": wrong == 0, "attempted": st["attempted"],
              "failed": st["failed"],
              "metrics": {n: {"value": v, "unit": E2E_UNITS[n]}
                          for n, v in metrics.items()}}
    return result, meta, lines


def _traced(workload, seed, cap, work, plan, runners, meta):
    """Half the time untraced, then the same sessions again traced."""
    phase_a = runners[0]
    done_a = phase_a.run(_planned(plan, meta["rounds"]), LOOP_DEADLINE_S / 2.0)
    phase_a.finish()
    phase_b = Runner(phase_a.first, work, True, cap, phase_a.quad_levels)
    runners.append(phase_b)
    phase_b.start()
    done_b = phase_b.run([copy_session(s) for s in done_a],
                         LOOP_DEADLINE_S / 2.0)
    trace_path = WORK_BASE / f"trace-{workload}-{seed}.csv"
    fin = phase_b.finish(str(trace_path), SHARE_GROUPS)
    st_a, st_b = session_stats(done_a), session_stats(done_b)
    checks = phase_a.warmups + phase_b.warmups
    wrong = st_a["wrong"] + st_b["wrong"] + sum(s.outcome != "ok" for s in checks)
    attempted = st_a["attempted"] + st_b["attempted"]
    failed = st_a["failed"] + st_b["failed"]
    metrics = layer_metrics(fin, phase_b.counters,
                            st_b.get("ref", {}).get("p50"),
                            st_a.get("ref", {}).get("p50"))
    meta.update(sessions=attempted, wrong_verdicts=wrong,
                failed_sessions=failed,
                failed_share=failed / max(1, attempted),
                samples={"untraced": st_a["completed"],
                         "traced": st_b["completed"]},
                span_count=fin.get("span_count"),
                missing_hooks=fin.get("missing_hooks"),
                trace_file=str(trace_path.relative_to(ROOT)))
    lines = [f"{name:<44} {m['value']:.6g} {m['unit']}"
             for name, m in metrics.items()]
    lines.append(f"{'wrong_verdicts':<44} {wrong} count")
    wall_b = st_b.get("wall", {}).get("total")
    shares = {label: busy / wall_b if wall_b else None
              for label, busy in fin.get("groups", {}).items()}
    meta["session_time_shares"] = shares
    lines += [f"share of traced session time in {label}: {v:.1%}"
              for label, v in shares.items() if v is not None]
    lines += _controls(done_a, meta)
    meta["problems"] = _problems(done_a + done_b + checks)
    meta["sessions_file"] = _dump_sessions(meta, done_a + done_b)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, meta, lines


def _controls(done: list[W.Session], meta: dict) -> list[str]:
    controls = [s for s in done if s.mutation]
    caught = sum(s.outcome == "ok" for s in controls)
    meta["mutated_controls"] = {"run": len(controls), "caught": caught}
    if not controls:
        return []
    return [f"mutated controls: {caught}/{len(controls)} exit 1 with FAIL on "
            f"exactly the mutated relation (expected: all)"]


def _dump_sessions(meta: dict, sessions: list[W.Session]) -> str:
    """Every session of the run as CSV, for looking into a spread."""
    path = WORK_BASE / (f"sessions-{meta['workload']}-{meta['seed']}"
                        f"-trace{meta['trace']}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["label", "outcome", "seconds", "cpu_seconds",
                      "reference_seconds", "rows"])
        out.writerows([s.label, s.outcome, s.dt, s.cpu, s.ref, s.rows]
                      for s in sessions)
    return str(path.relative_to(ROOT))


def _problems(sessions: list[W.Session]) -> list[str]:
    return [f"{s.outcome}: {s.label}: {s.detail}"
            for s in sessions if s.outcome != "ok"][:20]


def layer_metrics(fin: dict, counters: dict, p50_traced, p50_untraced) -> dict:
    spans = fin.get("spans", {})
    out = {}
    for name in SPAN_NAMES:
        sp = spans.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = {"value": sp["calls"], "unit": "count"}
        out[f"{name}.busy_s"] = {"value": sp["busy_s"], "unit": "s"}
        out[f"{name}.self_s"] = {"value": sp["self_s"], "unit": "s"}
    errors = fin.get("errors", {})
    for name in ERROR_SPANS:
        out[f"{name}.errors"] = {"value": errors.get(name, 0), "unit": "count"}
    cache = fin.get("cache", {"lookups": 0, "hits": 0})
    out["algebra.cf_cache.lookups"] = {"value": cache["lookups"], "unit": "count"}
    out["algebra.cf_cache.hit_ratio"] = {
        "value": cache["hits"] / cache["lookups"] if cache["lookups"] else 0.0,
        "unit": "ratio"}
    out["algebra.numeric_only.count"] = {"value": counters["numeric_only"],
                                         "unit": "count"}
    out["algebra.grid_points"] = {"value": counters["grid_points"], "unit": "count"}
    out["algebra.grid_nan_points"] = {"value": counters["grid_nan_points"],
                                      "unit": "count"}
    ratio = (p50_traced / p50_untraced
             if p50_traced and p50_untraced else float("nan"))
    out["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return out


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(W.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "coset_forge" / "cli.py", CATALOG)
               if not p.is_file()]
    if missing:
        print(f"error: program sources not found: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    # One CPU for the client, the worker and every fresh interpreter (the
    # mask is inherited), so that the reference samples the client and the
    # worker take see the same CPU as the program they bracket.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK_BASE.mkdir(exist_ok=True)
    work = WORK_BASE / f"work-{os.getpid()}"
    work.mkdir()
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {}
        for name in names:
            result, meta, lines = run_workload(name, args.seed, args.seconds,
                                               bool(args.trace), work)
            print(f"== {name} (seed {args.seed}, trace {args.trace})")
            for line in lines:
                print("  " + line)
            for p in meta["problems"]:
                print("  problem: " + p)
            print(json.dumps({"meta": meta}))
            results[name] = result
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
