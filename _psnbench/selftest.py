#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 _psnbench/selftest.py

Each workload is run twice with the same seed in traced mode and once
untraced (one timed run each), and the tests check that

- every child span lies inside its parent, and the self times of one run
  add up to its root span;
- every count is identical across the two same-seed invocations;
- every metric the benchmark defines is printed with its unit on every
  workload (a value that does not apply reads n/a with the reason);
- the last line is the contract's JSON object;
- in a directory that holds only BENCHMARK.json and the benchmark, the
  benchmark fails without printing a result.

It takes about two minutes on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
BENCH = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
RESULTS = os.path.join(ROOT, ".bench_build", "results")
SEED = 7
WORKLOADS = ["hall-score", "calm-window", "stream-modal", "classic-strobe"]

# Every metric the benchmark's issue names: the six end-to-end metrics,
# then the per-layer table.
METRICS = [
    "wall_s", "sim_events_per_s", "setup_s", "peak_rss_mb", "f1", "fail_rate",
    "detection.truth_s", "detection.truth_ns_per_update", "detection.truth_minor_words",
    "detection.create_s", "detection.updates_merge_s", "detection.score_s",
    "detection.updates", "detection.occurrences", "detection.truth_intervals",
    "scenarios.populate_s", "sim.run_s", "sim.run_minor_words_per_event",
    "sim.events", "sim.windows", "sim.events_per_window",
    "sim.parallel_s", "sim.drain_s", "sim.fold_s", "sim.imbalance_events", "sim.amdahl_limit",
    "network.messages", "network.words", "network.dropped", "network.cross_shard_msgs",
    "network.peak_mail_ints", "clocks.words_per_update",
    "lattice.observe_s", "lattice.observe_ns_per_event", "lattice.minor_words_per_event",
    "lattice.events_observed", "lattice.peak_live_cuts", "lattice.peak_live_events",
    "gc.minor_collections", "gc.major_collections",
    "util.pool_first_dispatch_s", "control.queue_ns", "trace.overhead",
]


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=cwd, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def load(workload, trace, suffix=".json"):
    with open(os.path.join(RESULTS, "%s-seed%d-trace%d%s" % (workload, SEED, trace, suffix))) as fh:
        return json.load(fh)


def table(lines):
    """metric name -> unit, from the printed table."""
    rows = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            rows[parts[0]] = parts[2]
    return rows


class Traced(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            first = bench(w, 1)
            counts_first = load(w, 1)["counts"]
            second = bench(w, 1)
            cls.runs[w] = (first, counts_first, second, load(w, 1), load(w, 1, ".spans.json"))

    def test_spans_nest_and_self_times_sum_to_root(self):
        for w, (_, _, _, _, spans) in self.runs.items():
            by_run = {}
            for s in spans["spans"]:
                by_run.setdefault(s["run"], {})[s["id"]] = s
            self.assertTrue(by_run, w)
            for run, members in by_run.items():
                roots = [s for s in members.values() if s["parent"] == -1]
                self.assertEqual([r["name"] for r in roots], ["run"], (w, run))
                root = roots[0]
                for s in members.values():
                    self.assertLessEqual(s["start_ns"], s["end_ns"], (w, s["name"]))
                    if s is root:
                        continue
                    parent = members[s["parent"]]
                    self.assertGreaterEqual(s["start_ns"], parent["start_ns"], (w, s["name"]))
                    self.assertLessEqual(s["end_ns"], parent["end_ns"], (w, s["name"]))
                self.assertEqual(sum(s["self_ns"] for s in members.values()),
                                 root["end_ns"] - root["start_ns"], (w, run))
                names = {s["name"] for s in members.values() if s["parent"] == root["id"]}
                for child in ("setup", "sim.run", "detection.updates_merge", "report"):
                    self.assertIn(child, names, w)

    def test_counts_identical_across_same_seed_invocations(self):
        for w, (_, counts_first, _, second, _) in self.runs.items():
            self.assertTrue(counts_first, w)
            self.assertEqual(counts_first, second["counts"], w)

    def test_every_metric_printed_with_unit(self):
        for w, ((code, lines), _, _, result, _) in self.runs.items():
            self.assertEqual(code, 0, w)
            rows = table(lines)
            for m in METRICS:
                self.assertIn(m, rows, (w, m))
                self.assertEqual(rows[m], result["metrics"][m]["unit"], (w, m))

    def test_last_line_holds_the_per_layer_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for w, ((_, lines), _, _, _, _) in self.runs.items():
            last = json.loads(lines[-1])
            self.assertEqual(sorted(last), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(last["correct"], w)
            self.assertEqual(sorted(last["metrics"]), sorted(m["name"] for m in spec["per_layer"]))


class Untraced(unittest.TestCase):
    def test_last_line_holds_the_end_to_end_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for w in WORKLOADS:
            code, lines = bench(w, 0)
            self.assertEqual(code, 0, w)
            last = json.loads(lines[-1])
            self.assertTrue(last["correct"], w)
            self.assertEqual(last["failed"], 0, w)
            for m in spec["end_to_end"]:
                got = last["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"], (w, m["name"]))
                self.assertGreater(got["value"], 0, (w, m["name"]))
            for m in METRICS[:6]:
                self.assertIn(m, table(lines), (w, m))

    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, BENCH), os.path.join(bare, BENCH),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("calm-window", 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertFalse([l for l in lines if l.startswith("{")])


if __name__ == "__main__":
    unittest.main(verbosity=2)
