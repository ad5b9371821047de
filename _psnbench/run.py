#!/usr/bin/env python3
"""End-to-end scenario benchmark for the psn library.

Usage (from the repository root):

    python3 _psnbench/run.py --workload hall-score --seed 1 --seconds 20 --trace 0
    python3 _psnbench/run.py --workload calm-window --seed 1 --seconds 20 --trace 1

The script copies the repository's lib/ and the benchmark's OCaml sources
into a staging dune workspace under .bench_build/, builds the benchmark
executable there, runs one workload in a fresh process, and summarises its
raw samples.  Every line but the last is for people: a table of every
metric with its unit, the run metadata, and where the full result and the
spans were written.  The last line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1.

Exit status is 0 when a result was printed, non-zero (and no result) when
the program could not be built or run.  See README.md beside this file.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
RESULTS = os.path.join(BUILD, "results")
EXE = os.path.join(WS, "_build", "default", "bench", "psnbench.exe")
WORKLOADS = ["hall-score", "calm-window", "stream-modal", "classic-strobe"]
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- staging and build -----------------------------------------------------


def source_files():
    """(relative destination, absolute source) for every staged file."""
    lib = os.path.join(ROOT, "lib")
    if not os.path.isdir(lib) or not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise BenchError("no lib/ and dune-project here: run from the repository root")
    files = []
    for dirpath, dirnames, filenames in os.walk(lib):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "_")))
        for f in sorted(filenames):
            if f == "dune" or f.endswith((".ml", ".mli")):
                src = os.path.join(dirpath, f)
                files.append((os.path.relpath(src, ROOT), src))
    ocaml = os.path.join(BENCH_DIR, "ocaml")
    files.append(("dune-project", os.path.join(ocaml, "dune-project")))
    for f in sorted(os.listdir(ocaml)):
        if f == "dune" or f.endswith(".ml"):
            files.append((os.path.join("bench", f), os.path.join(ocaml, f)))
    return files


def stage():
    """Mirror the sources into the staging workspace; returns a digest of lib/."""
    wanted = {}
    lib_digest = hashlib.sha256()
    for rel, src in source_files():
        with open(src, "rb") as fh:
            data = fh.read()
        wanted[rel] = data
        if rel.startswith("lib" + os.sep):
            lib_digest.update(rel.encode() + b"\0" + data + b"\0")
    for rel, data in wanted.items():
        dst = os.path.join(WS, rel)
        try:
            with open(dst, "rb") as fh:
                if fh.read() == data:
                    continue
        except OSError:
            pass
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as fh:
            fh.write(data)
    for top in ("lib", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(WS, top)):
            for f in filenames:
                rel = os.path.relpath(os.path.join(dirpath, f), WS)
                if rel not in wanted:
                    os.remove(os.path.join(dirpath, f))
    return lib_digest.hexdigest()[:16]


def dune_env():
    env = dict(os.environ)
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    if shutil.which("dune") is None:
        raise BenchError("dune not found on PATH")
    cmd = ["dune", "build", "--root", WS, "--display", "quiet", "./bench/psnbench.exe"]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=dune_env())
    if proc.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError("build failed (dune exit %d)" % proc.returncode)


def run_exe(args):
    proc = subprocess.run(
        [EXE] + args,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        timeout=RUN_TIMEOUT_S,
        cwd=ROOT,
        text=True,
    )
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(args), proc.returncode))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("%s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


# --- summary -----------------------------------------------------------------


def median(xs):
    return statistics.median(xs) if xs else None


def tail(xs):
    """Highest percentile with at least ten samples beyond it, as (value, pct)."""
    n = len(xs)
    if n < 11:
        return None, None
    k = n - 11
    return sorted(xs)[k], 100.0 * (k + 1) / n


class Table:
    """Every metric of one run: name -> (value or None, unit, note)."""

    def __init__(self):
        self.rows = {}

    def add(self, name, value, unit, note=""):
        self.rows[name] = (value, unit, note)

    def na(self, name, unit, why):
        self.rows[name] = (None, unit, "n/a: " + why)

    def lines(self):
        out = []
        for name, (value, unit, note) in self.rows.items():
            shown = "n/a" if value is None else "%.6g" % value
            out.append("  %-36s %14s  %-12s %s" % (name, shown, unit, note))
        return out


def end_to_end(raw, rss, table):
    its = [it for it in raw["iterations"] if not it["traced"] and "wall_ns" in it]
    n = len(its)
    walls = [it["wall_ns"] / 1e9 for it in its]
    p, pct = tail(walls)
    note = "public entry point, median of %d runs; " % n
    note += ("p%.0f = %.6g s" % (pct, p)) if p is not None else "no tail percentile below 11 runs"
    table.add("wall_s", median(walls), "s", note)
    # One engine-rate sample per repetition, over all of its copy engine
    # runs: a hall-score engine run lasts ~40 ms, shorter than the spells
    # in which the machine runs fast or slow, so single engine runs
    # would make a two-humped sample.
    rates = [sum(c["events"] for c in it["copies"]) / (sum(c["sim_run_ns"] for c in it["copies"]) / 1e9)
             for it in its]
    table.add("sim_events_per_s", median(rates), "events/s",
              "copy's engine runs, median of %d repetitions (%d engine runs)"
              % (n, sum(len(it["copies"]) for it in its)))
    setups = [c["setup_ns"] / 1e9 for it in its for c in it["copies"]]
    table.add("setup_s", median(setups), "s", "copy's set-up, median of %d set-ups" % len(setups))
    if rss["peak_rss_kb"] is not None:
        table.add("peak_rss_mb", rss["peak_rss_kb"] / 1024.0, "MB",
                  "VmHWM of a fresh process that runs the workload once")
    else:
        table.na("peak_rss_mb", "MB", "no /proc/self/status")
    f1s = [it["f1"] for it in its if it.get("f1") is not None]
    if f1s:
        table.add("f1", median(f1s), "ratio", "deterministic per seed")
    else:
        table.na("f1", "ratio", "no ground truth in this workload")
    attempted = len(raw["iterations"])
    failed = sum(1 for it in raw["iterations"] if not it["ok"])
    table.add("fail_rate", failed / attempted if attempted else 1.0, "ratio",
              "%d of %d runs" % (failed, attempted))


def spans_by_run(raw):
    runs = {}
    for s in raw["spans"]:
        runs.setdefault(s["run"], []).append(s)
    return runs


def phase_stats(runs):
    """name -> list over traced runs of (duration_ns, self_ns, minor_words, minor_gcs, major_gcs)."""
    stats = {}
    for spans in runs.values():
        for s in spans:
            stats.setdefault(s["name"], []).append(
                (s["end_ns"] - s["start_ns"], s["self_ns"], s["minor_words"],
                 s["minor_collections"], s["major_collections"]))
    return stats


def per_layer(raw, table, pool):
    counts = raw["counts"]
    runs = spans_by_run(raw)
    stats = phase_stats(runs)
    traced = [it for it in raw["iterations"] if it["traced"] and "wall_ns" in it]
    untraced = [it for it in raw["iterations"] if not it["traced"] and "wall_ns" in it]

    def dur_s(name):
        return median([d for d, *_ in stats[name]]) / 1e9 if name in stats else None

    def words(name):
        return median([w for _, _, w, _, _ in stats[name]]) if name in stats else None

    def host(name):
        vals = [it["host"][name] for it in traced if name in it.get("host", {})]
        return median(vals)

    updates = counts.get("detection.updates", 0)
    events = counts.get("sim.events", 0)
    windows = counts.get("sim.windows", 0)
    sharded = windows > 0

    for name in ["detection.create", "detection.updates_merge", "scenarios.populate", "sim.run"]:
        table.add(name + "_s", dur_s(name), "s", "median span over %d traced runs" % len(runs))
    if "detection.truth" in stats:
        truth = dur_s("detection.truth")
        table.add("detection.truth_s", truth, "s", "Ground_truth.intervals")
        table.add("detection.truth_ns_per_update", truth * 1e9 / max(updates, 1), "ns/update")
        table.add("detection.truth_minor_words", words("detection.truth"), "words")
        table.add("detection.score_s", dur_s("detection.score"), "s", "Metrics.score")
    else:
        table.na("detection.truth_s", "s", "no ground truth in this workload")
        table.na("detection.truth_ns_per_update", "ns/update", "no ground truth in this workload")
        table.add("detection.truth_minor_words", 0.0, "words", "no ground-truth phase")
        table.na("detection.score_s", "s", "nothing is scored in this workload")
    for name in ["detection.updates", "detection.occurrences", "detection.truth_intervals"]:
        table.add(name, counts.get(name, 0), "count")
    run_words = words("sim.run")
    table.add("sim.run_minor_words_per_event", run_words / max(events, 1), "words/event")
    table.add("sim.events", events, "count")
    table.add("sim.windows", windows, "count", "" if sharded else "0: single substrate")
    table.add("sim.events_per_window", events / windows if sharded else 0.0, "events/window",
              "" if sharded else "0: single substrate")
    for name in ["sim.parallel_s", "sim.drain_s", "sim.fold_s"]:
        if sharded:
            table.add(name, host(name), "s", "Exec.stats -> Analyze.sharded")
        else:
            table.na(name, "s", "single substrate has no windows")
    table.add("sim.imbalance_events", counts.get("sim.imbalance_events", 0.0), "ratio",
              "" if sharded else "0: single substrate")
    table.add("sim.amdahl_limit", host("sim.amdahl_limit") if sharded else 0.0, "ratio",
              "" if sharded else "0: single substrate")
    for name in ["network.messages", "network.words", "network.dropped",
                 "network.cross_shard_msgs", "network.peak_mail_ints"]:
        table.add(name, counts.get(name, 0.0), "count")
    table.add("clocks.words_per_update", counts.get("network.words", 0.0) / max(updates, 1),
              "words/update")
    replays = raw.get("lattice_replays", [])
    if replays:
        observe = median([r["observe_ns"] for r in replays])
        ev = replays[0]["events"]
        table.add("lattice.observe_s", observe / 1e9, "s", "replay of %d stamps" % ev)
        table.add("lattice.observe_ns_per_event", observe / ev, "ns/event")
        table.add("lattice.minor_words_per_event", median([r["minor_words"] for r in replays]) / ev,
                  "words/event")
    else:
        table.na("lattice.observe_s", "s", "no streaming lattice in this workload")
        table.na("lattice.observe_ns_per_event", "ns/event", "no streaming lattice in this workload")
        table.add("lattice.minor_words_per_event", 0.0, "words/event", "no streaming lattice")
    for name in ["lattice.events_observed", "lattice.peak_live_cuts", "lattice.peak_live_events"]:
        table.add(name, counts.get(name, 0.0), "count")
    for gc, idx in (("gc.minor_collections", 3), ("gc.major_collections", 4)):
        table.add(gc, median([s[idx] for s in stats.get("run", [])]), "count", "whole run")
        for name in stats:
            if name != "run":
                table.add("%s.%s" % (gc, name), median([s[idx] for s in stats[name]]), "count")
    table.add("util.pool_first_dispatch_s", pool["first_s"], "s",
              "fresh process; warm dispatch %.3g s" % pool["warm_s"])
    c = raw["control"]
    table.add("control.queue_ns", (c["queue_ns_before"] + c["queue_ns_after"]) / 2, "ns",
              "mean of before and after")
    t_wall = median([it["wall_ns"] for it in traced])
    u_wall = median([it["wall_ns"] for it in untraced])
    table.add("trace.overhead", t_wall / u_wall, "ratio",
              "%d traced copy runs / %d public runs" % (len(traced), len(untraced)))
    root = median([d for d, *_ in stats.get("run", [])])
    for name in stats:
        if name != "run":
            self_ns = median([s for _, s, *_ in stats[name]])
            table.add("share." + name, self_ns / root, "ratio", "self time / root span")


def write_spans(path, raw):
    out = []
    for run_id, spans in sorted(spans_by_run(raw).items()):
        root = min(s["start_ns"] for s in spans)
        for s in spans:
            out.append({
                "run": run_id, "id": s["id"], "parent": s["parent"], "name": s["name"],
                "start_ns": s["start_ns"] - root, "end_ns": s["end_ns"] - root,
                "self_ns": s["self_ns"], "minor_words": s["minor_words"],
                "minor_collections": s["minor_collections"],
                "major_collections": s["major_collections"],
            })
    with open(path, "w") as fh:
        json.dump({"schema": "psnbench-spans/1", "workload": raw["workload"],
                   "seed": raw["seed"], "spans": out}, fh, indent=1)


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        lib_digest = stage()
        build()
        workload = ["--workload", args.workload, "--seed", str(args.seed)]
        raw = run_exe(["run"] + workload + ["--seconds", repr(args.seconds),
                                            "--trace", str(args.trace)])
        rss = run_exe(["rss"] + workload)
        pool = run_exe(["pool-dispatch"]) if args.trace else None
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log("psnbench: %s" % e)
        return 1

    done = [it for it in raw["iterations"] if "wall_ns" in it]
    if not any(not it["traced"] for it in done) or (args.trace and not any(it["traced"] for it in done)):
        reasons = [raw["reference"]["error"]] + [it["error"] for it in raw["iterations"]]
        log("psnbench: no run completed: %s" % "; ".join(r for r in reasons if r))
        return 1

    table = Table()
    end_to_end(raw, rss, table)
    if args.trace:
        per_layer(raw, table, pool)
    table.add("control.queue_ns.before", raw["control"]["queue_ns_before"], "ns")
    table.add("control.queue_ns.after", raw["control"]["queue_ns_after"], "ns")
    probes = [it["control_ns"] for it in raw["iterations"]]
    table.add("control.queue_ns.range", max(probes) / min(probes), "ratio",
              "slowest / fastest short probe after each of %d repetitions" % len(probes))

    attempted = len(raw["iterations"])
    failed = sum(1 for it in raw["iterations"] if not it["ok"])
    errors = sorted({it["error"] for it in raw["iterations"] if it.get("error")})
    if not raw["counts_stable"]:
        errors.append("counts differ between runs of one seed")
    rss_ok = all(it.get("events") in (None, rss["events"]) for it in raw["iterations"])
    if not rss_ok:
        errors.append("the peak-RSS run processed a different event count")
    correct = failed == 0 and raw["counts_stable"] and rss_ok and attempted > 0

    meta = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_rev": git_rev(),
        "lib_digest": lib_digest,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": attempted,
        "reference_s": raw["reference"]["seconds"],
    }
    meta.update(raw["meta"])

    keys = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in keys:
        value, unit, _ = table.rows.get(m["name"], (None, None, None))
        if value is None or unit != m["unit"]:
            log("psnbench: metric %s unavailable (unit %s)" % (m["name"], unit))
            return 1
        metrics[m["name"]] = {"value": value, "unit": unit}

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"schema": "psnbench-result/1", "workload": args.workload, "meta": meta,
                   "config": raw["config"], "correct": correct, "errors": errors,
                   "metrics": {k: {"value": v, "unit": u, "note": n}
                               for k, (v, u, n) in table.rows.items()},
                   "iterations": raw["iterations"], "counts": raw["counts"]}, fh, indent=1)
    if args.trace:
        write_spans(stem + ".spans.json", raw)

    print("psnbench %s seed=%d trace=%d: %d runs, %d failed%s" % (
        args.workload, args.seed, args.trace, attempted, failed,
        "" if not errors else " (%s)" % "; ".join(errors)))
    print("  %-36s %14s  %-12s %s" % ("metric", "value", "unit", "note"))
    for line in table.lines():
        print(line)
    print("meta " + json.dumps(meta, sort_keys=True))
    print("config " + json.dumps(raw["config"], sort_keys=True))
    print("result %s.json%s" % (os.path.relpath(stem, ROOT),
                               " spans %s.spans.json" % os.path.relpath(stem, ROOT) if args.trace else ""))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
