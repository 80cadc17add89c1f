"""Tests of the benchmark itself (not of coset_forge).

    python3 perfbench/selftest.py

Run from the repository root.  Covers the per-session cap with a level that
does not finish (k = 1/1000), the mutated known-answer controls, seeded
schedules and their round counts, reference seconds, the span arithmetic,
and the refusal to run without the program.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


class SessionCap(unittest.TestCase):
    def test_overcap_session_counts_as_failed_and_run_continues(self):
        run.WORK_BASE.mkdir(exist_ok=True)
        work = run.WORK_BASE / "selftest-cap"
        work.mkdir(exist_ok=True)
        json_path = str(work / "report.json")
        first, _ = W.anchor("integer-mix", json_path)
        runner = run.Runner(first, work, False, cap=3.0, quad_levels=None)
        # k = 1/1000 has not finished after 150 s; it must hit the 3 s cap
        slow = W.verify_all("1/1000", "1", json_path)
        quick = W.verify_one("2", "1", "E_E", json_path)
        try:
            t0 = time.monotonic()
            done = runner.run([slow, quick])
            elapsed = time.monotonic() - t0
            runner.finish()
        finally:
            runner.close()
            shutil.rmtree(work, ignore_errors=True)
        self.assertEqual([s.outcome for s in done], ["overcap", "ok"])
        self.assertLess(elapsed, 60.0)
        stats = run.session_stats(done)
        self.assertEqual((stats["attempted"], stats["failed"],
                          stats["completed"]), (2, 1, 1))


class MutatedControls(unittest.TestCase):
    def test_mutations_fail_exactly_the_mutated_relation(self):
        text = run.CATALOG.read_text()
        sites = W.mutation_sites(text)
        picks = [next(s for s in sites if s["relation"] == "E_E"
                      and s["old"] == "(w + 1*hbar)"),
                 next(s for s in sites if s["relation"] == "Lambda_p_Lambda_m")]
        self.assertEqual(picks[0]["new"], "(w + (1 + 1)*hbar)")
        run.WORK_BASE.mkdir(exist_ok=True)
        work = run.WORK_BASE / "selftest-mut"
        work.mkdir(exist_ok=True)
        json_path, alg_path = str(work / "report.json"), str(work / "mutated.alg")
        first, _ = W.anchor("integer-mix", json_path)
        runner = run.Runner(first, work, False, cap=60.0, quad_levels=None)
        sessions = [W.verify_all(k, "1", json_path, alg_path, mutation=site)
                    for site in picks for k in ("2", "5/2")]
        try:
            done = runner.run(sessions)
            runner.finish()
        finally:
            runner.close()
            shutil.rmtree(work, ignore_errors=True)
        for s in done:
            self.assertEqual(s.outcome, "ok", s.label + " " + s.detail)

    def test_every_exchange_relation_has_a_site(self):
        text = run.CATALOG.read_text()
        sites = W.mutation_sites(text)
        for site in sites:
            mutated = W.apply_mutation(text, site)
            self.assertNotEqual(mutated, text)
        self.assertEqual(len({s["relation"] for s in sites}), 20)


class Schedules(unittest.TestCase):
    def _labels(self, workload, seed, n_rounds, pairs=None):
        it = W.rounds(workload, seed, run.CATALOG.read_text(), "r.json",
                      "m.alg", pairs)
        return [[s.label for s in next(it)] for _ in range(n_rounds)]

    def test_same_seed_same_inputs(self):
        pairs = {lv: [["A", "B", 0, 0, "f"], ["A", "C", 0, 0, "f"]]
                 for lv in W.quad_levels()}
        for wl in W.WORKLOADS:
            self.assertEqual(self._labels(wl, 7, 3, pairs),
                             self._labels(wl, 7, 3, pairs))
            self.assertNotEqual(self._labels(wl, 7, 3, pairs),
                                self._labels(wl, 8, 3, pairs))

    def test_integer_rounds_balance_kinds(self):
        labels = self._labels("integer-mix", 3, 1)[0]
        self.assertEqual(len(labels), 42)
        kinds = [lb.split()[0] + (" mutated" if "mutated" in lb else
                                  " one" if "--relation" in lb else "")
                 for lb in labels]
        self.assertEqual(kinds.count("report"), 14)
        self.assertEqual(kinds.count("verify mutated"), 14)
        self.assertEqual(kinds.count("verify one"), 14)

    def test_fractional_levels_never_repeat(self):
        labels = sum(self._labels("fractional-levels", 5, 4), [])
        self.assertEqual(len(labels), len(set(labels)))
        self.assertNotIn(f"verify k={W.FRACTIONAL_ANCHOR} hbar=1", labels)


class Percentiles(unittest.TestCase):
    def test_tail_rule(self):
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(50), 80)
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50), 2.0)


class Reference(unittest.TestCase):
    def test_reference_seconds(self):
        ref = calibrate.REFERENCE_S
        self.assertAlmostEqual(calibrate.to_reference(2.0, ref, ref), 2.0)
        # a host running at half speed doubles both: the reading stays
        self.assertAlmostEqual(
            calibrate.to_reference(4.0, 2 * ref, 2 * ref), 2.0)
        self.assertGreater(calibrate.sample(), 0.0)

    def test_rounds_are_fixed_by_seconds(self):
        for wl in W.WORKLOADS:
            self.assertEqual(W.round_count(wl, 0.0), 1)
            self.assertEqual(W.round_count(wl, 10 * W.ROUND_SECONDS[wl]), 10)
            self.assertEqual(
                W.round_count(wl, 10.5 * W.ROUND_SECONDS[wl]), 11)


class Spans(unittest.TestCase):
    def test_self_and_busy_time(self):
        tr = tracing.Tracer()

        def leaf():
            time.sleep(0.02)

        def outer():
            time.sleep(0.02)
            traced_leaf()
            traced_leaf()

        traced_leaf = tr.wrap(leaf, "leaf")
        traced_outer = tr.wrap(outer, "outer")
        traced_outer()
        threads = [threading.Thread(target=traced_leaf) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            self.assertFalse(t.is_alive())
        s = tr.summary()
        self.assertEqual((s["outer"]["calls"], s["leaf"]["calls"]), (1, 4))
        self.assertAlmostEqual(s["outer"]["self_s"], 0.02, delta=0.015)
        # the two threaded leaves overlap: busy counts their union once
        self.assertAlmostEqual(s["leaf"]["busy_s"], 0.06, delta=0.025)
        self.assertAlmostEqual(s["leaf"]["self_s"], 0.08, delta=0.03)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_the_program(self):
        bare = run.WORK_BASE / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "integer-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
