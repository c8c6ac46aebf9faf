#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the simulator sources plus the benchmark binary) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls rebuild incrementally. The binary's stdout is passed
through: its last line is the result object
{"correct", "attempted", "failed", "metrics"}, and the line before it records
the host and build fingerprint. With --trace 1 the span buffer is written to
<build dir>/traces/<workload>.json (the latest traced run of each workload).

The printed metric names and units are checked against BENCHMARK.json: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1. The
exit status is non-zero when the build fails, an output mismatches its
reference, or the metrics do not match the declaration.
"""
import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; the first one in a checkout, which also
# configures and builds, within 900 s.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 890


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir, fresh):
    """Configures (when fresh), then builds the binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if fresh:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=FIRST_RUN_LIMIT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def check_result(result, spec, trace):
    """Schema check of the binary's result line against BENCHMARK.json."""
    if set(result) != RESULT_KEYS:
        fail("result keys are %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail("'%s' is not a whole number" % key)
    if result["attempted"] < 1:
        fail("nothing was attempted")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    missing = sorted(set(declared) - set(got))
    extra = sorted(set(got) - set(declared))
    if missing or extra:
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s"
             % (missing, extra))
    for name, m in got.items():
        if not NAME_RE.match(name):
            fail("bad metric name %r" % name)
        if m.get("unit") != declared[name]:
            fail("metric %s has unit %r, declared %r"
                 % (name, m.get("unit"), declared[name]))
        if not isinstance(m.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)

    started = time.monotonic()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    fresh = not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    binary = build(build_dir, fresh)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, args.workload + ".json")]
    # The simulator's global pool is never used by the workloads; cap it so
    # no path can start more threads than the workloads budget.
    env = dict(os.environ, LIGHTATOR_THREADS="2")
    budget = ((FIRST_RUN_LIMIT_S if fresh else RUN_LIMIT_S)
              - (time.monotonic() - started))
    if budget <= 0:
        fail("no time left to run after the build")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=budget, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark binary did not finish within %.0f s" % budget)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 3) or not lines:
        fail("benchmark binary exited with status %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON")
    check_result(result, spec, args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 3)


if __name__ == "__main__":
    main()
