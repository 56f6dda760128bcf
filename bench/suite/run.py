#!/usr/bin/env python3
"""Build kvmarm_bench from this checkout and run it.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/suite/run.py --smoke

The first form builds the benchmark package (bench/suite/CMakeLists.txt)
into the build directory, then runs one workload; the last line of standard
output is the run's JSON result. Build output goes to standard error. With
--trace 1 the Chrome trace is written next to the binary.

--smoke builds, runs every workload at CI sizes and checks the output
against BENCHMARK.json: every listed workload ran correctly, every listed
metric is present with its unit and a finite value, the seed changes every
workload's generated inputs, and the trace file loads.

The build directory is --build-dir, else $CARGO_TARGET_DIR, else
.bench_build; a relative path is taken from the repository root.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src" % ROOT)
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", build_dir, "--target",
                      "kvmarm_bench", "-j", "4"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if rc != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "kvmarm_bench")


def run(cmd):
    """Run the benchmark with its output passed straight through."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))


def check_metrics(where, got, spec, problems):
    names = [m["name"] for m in spec]
    if sorted(got) != sorted(names):
        problems.append("%s: metrics %s, BENCHMARK.json lists %s"
                        % (where, sorted(got), sorted(names)))
        return
    for m in spec:
        entry = got[m["name"]]
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s is not a finite number" % (where,
                                                               m["name"]))
        if entry.get("unit") != m["unit"]:
            problems.append("%s: %s has unit %r, BENCHMARK.json says %r"
                            % (where, m["name"], entry.get("unit"),
                               m["unit"]))


def smoke(binary, build_dir):
    trace_file = os.path.join(build_dir, "smoke-trace.json")
    try:
        proc = subprocess.run([binary, "--smoke", "--trace-file", trace_file],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("smoke run timed out")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = [] if proc.returncode == 0 else [
        "kvmarm_bench --smoke exited %d" % proc.returncode]
    seen = []
    for line in proc.stdout.splitlines():
        rec = json.loads(line)["smoke"]
        name = rec["workload"]
        seen.append(name)
        result = rec["result"]
        if not result["correct"] or result["failed"] or \
                result["attempted"] < 1:
            problems.append("%s: %d of %d units failed" % (
                name, result["failed"], result["attempted"]))
        check_metrics(name + " end_to_end", result["metrics"],
                      spec["end_to_end"], problems)
        check_metrics(name + " per_layer", rec["per_layer"],
                      spec["per_layer"], problems)
        if rec["plan_hash"][0] == rec["plan_hash"][1]:
            problems.append("%s: seeds 1 and 2 generated the same inputs"
                            % name)
    listed = [w["name"] for w in spec["workloads"]]
    if seen != listed:
        problems.append("ran workloads %s, BENCHMARK.json lists %s"
                        % (seen, listed))
    try:
        with open(trace_file) as f:
            if not json.load(f)["traceEvents"]:
                problems.append("trace file has no spans")
    except (OSError, ValueError, KeyError) as e:
        problems.append("trace file %s does not load: %s" % (trace_file, e))
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: %s (%d workloads)" % ("FAILED" if problems else "ok",
                                        len(seen)))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--build-dir")
    args = ap.parse_args()

    build_dir = (args.build_dir or os.environ.get("CARGO_TARGET_DIR")
                 or ".bench_build")
    build_dir = os.path.join(ROOT, build_dir)
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    binary = build(build_dir)
    if args.smoke:
        return smoke(binary, build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-file", os.path.join(
            build_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
