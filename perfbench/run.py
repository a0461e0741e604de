#!/usr/bin/env python3
"""The dfmkit benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>] [--trace 0|1]
    python3 perfbench/run.py ... --design-seed <n>   # recheck on another design
    python3 perfbench/run.py --self-test

Run from the root of a dfmkit checkout. Each run first builds the driver
(perfbench/CMakeLists.txt compiles the library from src/ into
.bench_build/), then:

  * --trace 0 sets up the workload in two extra fresh processes and once
    in the measuring process, and reports the median as setup_s; the
    measuring process then runs the workload for --seconds and reports
    the end-to-end metrics (op_p50_ms, op_p90_ms, ops_per_s, peak_rss_mb);
  * --trace 1 runs half the time untraced and half traced, prints the
    tracing overhead, the layer walk and the self time per span, writes
    the span file under .bench_build/spans/, and reports the per-layer
    metrics.

What an "op" is differs per workload (a cold flow, an edit, a fix
proposal, a served edit); perfbench/meta.json records it, the layer map,
the seeds, and the report counts pinned for the default design. --seed
drives the edit streams; the designs come from --design-seed (default in
meta.json), fixed so that runs on different seeds measure the same
work. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SETUP_RUNS = 3  # setup_s is the median of this many set-ups
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures and builds the driver; exits 1 (no result) on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            if len(steps) == 2 and cmd is steps[0]:
                shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit(1)


def driver(args, run_dir):
    """Runs the driver; returns (text lines, result dict)."""
    cmd = [DRIVER] + args + ["--out-dir", os.path.relpath(run_dir, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out: " + " ".join(cmd))
        sys.exit(1)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(proc.stdout[-4000:])
        log("perfbench: driver failed (exit %d): %s"
            % (proc.returncode, " ".join(cmd)))
        sys.exit(1)
    return lines[:-1], json.loads(lines[-1])


def pin_mismatches(summary, pins):
    """Fields of `summary` that differ from the pinned values."""
    return sorted(k for k, v in pins.items() if summary.get(k) != v)


def run(workload, seed, seconds, trace, design_seed=None, tiny=False,
        quiet=False):
    """One benchmark run; returns the result dict (the JSON line)."""
    meta = load_json(os.path.join(HERE, "meta.json"))
    if workload not in meta["workloads"]:
        log("perfbench: unknown workload '%s' (known: %s)"
            % (workload, ", ".join(meta["workloads"])))
        sys.exit(2)
    run_dir = os.path.join(BUILD, "runs", "%d-%s" % (os.getpid(), workload))
    os.makedirs(run_dir, exist_ok=True)
    if design_seed is None:
        design_seed = meta["design_seed"]
    base = ["--workload", workload, "--seed", str(seed),
            "--design-seed", str(design_seed)]
    if tiny:
        base.append("--tiny")
    try:
        setups, rss = [], []
        if not trace:
            for _ in range(SETUP_RUNS - 1):
                _, res = driver(base + ["--setup-only"], run_dir)
                setups.append(res["metrics"]["setup_s"]["value"])
                rss.append(res["metrics"]["peak_rss_mb"]["value"])
        lines, res = driver(base + ["--seconds", str(seconds),
                                    "--trace", "1" if trace else "0"], run_dir)
        for f in os.listdir(run_dir):
            if f.endswith("-spans.json"):
                os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
                kept = os.path.join(BUILD, "spans", f)
                shutil.move(os.path.join(run_dir, f), kept)
                lines.append("span file: " + os.path.relpath(kept, ROOT))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct, failed = res["correct"], res["failed"]
    notes = []
    pins = meta["pins"].get(workload)
    if (pins and res.get("summary") and design_seed == meta["design_seed"]
            and not tiny):
        bad = pin_mismatches(res["summary"], pins)
        if bad:
            correct = False
            failed += 1
            notes.append("FAILED: report differs from the pinned values in: "
                         + ", ".join(bad))
    metrics = res["metrics"]
    if not trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        # The peak after set-up depends on how the pool threads' allocations
        # interleave; the largest of the three set-ups is the steady figure.
        rss.append(metrics["peak_rss_mb"]["value"])
        metrics["peak_rss_mb"]["value"] = max(rss)
    if not quiet:
        for line in lines:
            print(line)
        for note in notes:
            print(note)
        print("%-24s %14s" % ("metric", "value"))
        for name, m in metrics.items():
            print("%-24s %14.4f %s" % (name, m["value"], m["unit"]))
        print("samples %d, attempted %d, failed %d, setup runs %s"
              % (res.get("samples", 0), res["attempted"], failed,
                 ", ".join("%.3f" % s for s in setups) if setups else "-"))
    return {"correct": bool(correct), "attempted": int(res["attempted"]),
            "failed": int(failed), "metrics": metrics}


def self_test():
    """A tiny pass of every workload, untraced on the default seeds and
    traced on a second seed and a second design:
    every metric BENCHMARK.json names must print with its unit, every
    gate must pass, and the gates must be able to fail."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    meta = load_json(os.path.join(HERE, "meta.json"))
    build()
    problems = []
    proc = subprocess.run([DRIVER, "--gate-selftest"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    print(proc.stdout.rstrip())
    if proc.returncode != 0:
        problems.append("the report gate accepts a report with a moved rect")
    pins = meta["pins"]["signoff_cold"]
    broken = dict(pins, composite=pins["composite"] + 1e-9)
    if pin_mismatches(broken, pins) != ["composite"]:
        problems.append("the pinned-count gate misses a changed composite")
    want = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    seeds = {False: meta["default_seed"], True: meta["second_seed"]}
    for name in meta["workloads"]:
        for trace in (False, True):
            res = run(name, seeds[trace], 1, trace,
                      design_seed=seeds[trace], tiny=True, quiet=True)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            tag = "%s trace=%d seed=%d" % (name, trace, seeds[trace])
            if got != want[trace]:
                problems.append("%s: metrics %s, want %s" % (tag, got, want[trace]))
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%d failed=%d"
                                % (tag, res["correct"], res["attempted"],
                                   res["failed"]))
            # Every time is measured on every workload, never a constant 0.
            zero = [k for k, m in res["metrics"].items()
                    if m["value"] <= 0 and (not trace or m["unit"] == "ms")]
            if zero:
                problems.append("%s: not positive: %s" % (tag, ", ".join(zero)))
            print("%-40s attempted %5d  failed %d  metrics %d ok"
                  % (tag, res["attempted"], res["failed"], len(got)))
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--design-seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print one line each")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    if args.self_test:
        return self_test()
    meta = load_json(os.path.join(HERE, "meta.json"))
    seed = meta["default_seed"] if args.seed is None else args.seed
    if args.all:
        build()
        out = {}
        for w in meta["workloads"]:
            print("== %s" % w)
            out[w] = run(w, seed, args.seconds, bool(args.trace),
                         args.design_seed)
        print(json.dumps(out))
        return 0
    if not args.workload:
        ap.error("--workload, --all or --self-test is required")
    build()
    print(json.dumps(run(args.workload, seed, args.seconds, bool(args.trace),
                         args.design_seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
