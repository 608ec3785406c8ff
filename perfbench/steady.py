#!/usr/bin/env python3
"""Checks that the benchmark repeats: spreads and exact simulated counters.

    python3 perfbench/steady.py                      # 10 seeds per workload
    python3 perfbench/steady.py --runs 5 --workloads cold_keys
    python3 perfbench/steady.py --runs 0 --determinism

Spread check: runs the same build --runs times per workload, each with
another seed, and reports for every end-to-end metric its median, first
and third quartile (statistics.quantiles(n=4)) and the spread, the
quartile distance as a share of the median. A spread is "steady" below a
third of the metric's bound in BENCHMARK.json, "fits" below the bound
and "WIDE" above it. setup_s is reported but, like the bound it carries,
judged only on its median.

Determinism check: runs a fixed request sequence (same seed, --requests
per phase) twice per workload and compares the simulated counters
sim_cycles_per_req and gen.instr_per_word exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, requests=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    if requests:
        cmd += ["--requests", str(requests)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"steady: {' '.join(cmd)} failed ({p.returncode})")
    return lines


def spreads(spec, workloads, runs, seconds, seed_base):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = "steady"
    for w in workloads:
        values = {name: [] for name in bounds}
        for i in range(runs):
            r = json.loads(run(w, seed_base + i, seconds)[-1])
            if not r["correct"] or r["failed"]:
                sys.exit(f"steady: {w} seed {seed_base + i}: correct="
                         f"{r['correct']} failed={r['failed']}")
            for name in bounds:
                values[name].append(r["metrics"][name]["value"])
        print(f"\n{w}: {runs} runs, seeds {seed_base}..{seed_base + runs - 1}")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            if name == "setup_s":
                verdict = "median only"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "fits"
                worst = "fits" if worst == "steady" else worst
            else:
                verdict = "WIDE"
                worst = "WIDE"
            print(f"  {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6.3f}  {verdict}")
    return worst


def fixed_sequence(lines):
    for line in lines:
        if line.startswith("fixed-sequence:"):
            return dict(kv.split("=") for kv in line.split()[1:])
    sys.exit("steady: no fixed-sequence line in the benchmark output")


def determinism(workloads, requests, seed):
    same = True
    for w in workloads:
        a = fixed_sequence(run(w, seed, 60, requests))
        b = fixed_sequence(run(w, seed, 60, requests))
        for name in a:
            ok = a[name] == b[name]
            same &= ok
            print(f"  {w:<12} {name:<20} {a[name]:>22} {b[name]:>22}  "
                  f"{'exact' if ok else 'DIFFERS'}")
    return same


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    # zipf_churn runs on request but is not in BENCHMARK.json (README.md).
    known = ("hot_keys", "cold_keys", "zipf_churn")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=101)
    ap.add_argument("--workloads", nargs="+", choices=known, default=names)
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--requests", type=int, default=4000,
                    help="requests per phase for --determinism")
    a = ap.parse_args()

    status = 0
    if a.runs:
        worst = spreads(spec, a.workloads, a.runs, a.seconds, a.seed_base)
        print(f"\nworst spread verdict: {worst}")
        status |= worst == "WIDE"
    if a.determinism:
        print(f"\nfixed sequence of {a.requests} requests per phase, run "
              "twice:")
        status |= not determinism(a.workloads, a.requests, a.seed_base)
    sys.exit(status)


if __name__ == "__main__":
    main()
