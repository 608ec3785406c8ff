#!/usr/bin/env python3
"""Builds and runs the socket-to-reply benchmark (see README.md).

    python3 perfbench/run.py --workload hot_keys --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 45

The first form runs one workload and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The second runs every workload untraced and traced and prints every
metric by name with its unit.

The benchmark is built from the repository's sources (../src) into
.bench_build/perfbench at the repository root. Run it from anywhere; it
reads and writes nothing outside the repository.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("hot_keys", "cold_keys", "zipf_churn")
# One run must end within this many seconds once the benchmark is built.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step, showing its output only when it fails."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail(f"failed ({p.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no FABIUS sources at {os.path.join(ROOT, 'src')}; "
             "the benchmark builds them from the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], timeout=120)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs], timeout=600)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace, requests=None):
    """Runs the binary once; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if requests:
        cmd += ["--requests", str(requests)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return p.returncode, p.stdout.splitlines()


def check_result(line, trace):
    """Parses the result line and checks it names every metric."""
    try:
        r = json.loads(line)
    except (json.JSONDecodeError, TypeError):
        fail("the benchmark printed no result line")
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(r)}")
    missing = [m for m in expected_metrics(trace) if m not in r["metrics"]]
    if missing:
        fail(f"result lacks metrics {missing}")
    return r


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=None,
                    help="a fixed request count per phase instead of a "
                         "time budget")
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    build()

    if a.workload != "all":
        code, lines = run_one(a.workload, a.seed, a.seconds, a.trace,
                              a.requests)
        for line in lines[:-1]:
            print(line)
        r = check_result(lines[-1] if lines else "", a.trace)
        print(json.dumps(r))
        sys.exit(code if code else (0 if r["correct"] else 1))

    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_one(w, a.seed, a.seconds, trace, a.requests)
            r = check_result(lines[-1] if lines else "", trace)
            ok &= code == 0 and r["correct"]
            print(f"\n== {w} ({'traced' if trace else 'untraced'}): "
                  f"correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}")
            for name, m in r["metrics"].items():
                print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
