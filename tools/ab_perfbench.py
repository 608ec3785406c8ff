#!/usr/bin/env python3
"""Paired A/B runs of perfbench: a base revision against the working tree.

    python3 tools/ab_perfbench.py --base HEAD --workload cold_keys \\
        --workload hot_keys --seconds 45 --pairs 10

Exports both trees into a temporary directory (the base with
`git archive`, the change from the working tree's tracked and untracked
files), builds perfbench in each through its own perfbench/run.py, then
alternates the two `perfbench/run.py --workload W --seconds S --trace 0`
runs N times per workload. The pair order flips every pair, so a slow
stretch of host noise hits both sides.

For every end-to-end metric it prints the median of each side, the
change/base ratio of the medians, how many pairs the change won (by the
metric's "better" direction in the change's BENCHMARK.json) and the
base's interquartile range. One pair proves nothing on a bimodal metric;
the win count and the base's spread say whether a difference is real.

Exit code: 0 when every run replied correctly, 1 otherwise, 2 on usage
or build errors. stdlib only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"ab_perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def export_rev(rev, dest):
    """Writes the tree of \\p rev into \\p dest."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        fail(f"git archive {rev} failed")


def export_worktree(dest):
    """Copies the working tree's tracked and untracked, not ignored,
    files into \\p dest."""
    out = subprocess.run(["git", "-C", REPO, "ls-files", "-z", "--cached",
                          "--others", "--exclude-standard"],
                         check=True, stdout=subprocess.PIPE).stdout
    for rel in sorted(set(p for p in out.decode().split("\0") if p)):
        src = os.path.join(REPO, rel)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        dst = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)


def run_bench(tree, workload, seconds, requests=None):
    """One perfbench/run.py run; returns its result object."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    if requests:
        cmd += ["--requests", str(requests)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(p.stderr)
        fail(f"no result line from {' '.join(cmd)} (exit {p.returncode})")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def report(workload, runs, better):
    print(f"\n== {workload}: {len(runs['base'])} pairs")
    print(f"  {'metric':<24} {'base med':>12} {'change med':>12} "
          f"{'ratio':>7} {'wins':>6} {'base IQR':>23}")
    for name, direction in better.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]
                if name in r["metrics"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]
                  if name in r["metrics"]]
        if not base or len(base) != len(change):
            continue
        wins = sum((c > b) if direction == "higher" else (c < b)
                   for b, c in zip(base, change))
        mb, mc = statistics.median(base), statistics.median(change)
        lo, hi = quartiles(base)
        ratio = mc / mb if mb else float("nan")
        print(f"  {name:<24} {mb:>12.6g} {mc:>12.6g} {ratio:>7.3f} "
              f"{wins:>3}/{len(base):<2} [{lo:>10.6g}, {hi:>10.6g}]")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"  {side}: {failed} of {attempted} requests failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD",
                    help="base revision (default HEAD)")
    ap.add_argument("--workload", action="append", required=True,
                    choices=("hot_keys", "cold_keys", "zipf_churn"))
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--pairs", type=int, default=10)
    a = ap.parse_args()
    if a.pairs < 1 or a.seconds < 1:
        fail("--pairs and --seconds must be at least 1")

    work = tempfile.mkdtemp(prefix="ab_perfbench.")
    trees = {"base": os.path.join(work, "base"),
             "change": os.path.join(work, "change")}
    try:
        export_rev(a.base, trees["base"])
        os.makedirs(trees["change"])
        export_worktree(trees["change"])
        # A short fixed-count run builds each tree before timing starts.
        for side, tree in trees.items():
            print(f"building {side} in {tree}", flush=True)
            run_bench(tree, a.workload[0], 1, requests=50)

        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            better = {m["name"]: m["better"]
                      for m in json.load(f)["end_to_end"]}
        ok = True
        for w in a.workload:
            runs = {"base": [], "change": []}
            for i in range(a.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    r = run_bench(trees[side], w, a.seconds)
                    ok &= bool(r["correct"])
                    runs[side].append(r)
                print(f"  {w} pair {i + 1}/{a.pairs} done", flush=True)
            report(w, runs, better)
        sys.exit(0 if ok else 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
