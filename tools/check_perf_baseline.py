#!/usr/bin/env python3
"""Perf regression gates over the bench JSON reports.

Two modes, selected with --mode:

dispatch (default, over BENCH_host_micro.json)
    Raw instr/s numbers are hardware-dependent, so CI cannot assert on
    them directly. Instead the gate checks the *normalized dispatch
    ratio*

        BM_VmDispatch.instr/s / BM_VmDispatchNoCache.instr/s

    i.e. the predecoded-block engine's speedup over the reference
    interpreter measured within one run on one machine. Host speed
    cancels out of the ratio, so a drop can only mean the cached
    dispatch path itself got slower relative to the (hook-free by
    construction) slow path. Baseline:
    bench/baselines/host_micro.json.

    The traced/disabled ratio (BM_VmDispatchTraced vs BM_VmDispatch) is
    reported for the log but not gated: with tracing armed, events
    really are recorded, and that cost is allowed.

codegen-cost (over BENCH_table_codegen_cost.json)
    Gates two averages over the same rows, both simulated and so
    deterministic across hosts:

        AVERAGE instrs/instr   generator instructions executed per
                               instruction generated (the paper's
                               headline table)
        AVERAGE cycles/instr   the same in simulated cycles, which add
                               the modeled I-cache flush penalties, so a
                               generator that flushes more often fails
                               here even when it executes no more

    Both regress UPWARD (more generator work per emitted instruction),
    so the gate fails when either exceeds baseline * (1 + tolerance).
    Baseline: bench/baselines/table_codegen_cost.json.

wire (over one or more BENCH_wire.json files)
    Gates the wire front-end's host-normalized throughput ratio

        pipelined_rps / inprocess_rps

    i.e. what fraction of the in-process SpecServer rate survives the
    trip through the reactor, framing, and loopback TCP, measured
    within one run so host speed cancels out. Wall-clock throughput on
    a shared runner is noisy in one direction only — interference can
    slow a run down but never speed it up — so pass SEVERAL runs via
    --current and the gate takes the best, the stable estimator of
    what the stack can actually do. Fails when that best ratio drops
    more than the tolerance below baseline (the committed baseline is
    deliberately the low end of warm local runs, so the gate catches
    structural regressions — a reintroduced per-reply syscall, a
    wakeup storm — not scheduler luck). Baseline:
    bench/baselines/wire.json.

    With --scale BENCH_wire_scale.json the mode additionally gates the
    sharded reactor's 4-shard/1-shard aggregate throughput factor
    (scaling_factor_4v1 from the bench's 1/2/4 shard sweep). The
    factor is host-normalized by construction — both rates come from
    the same run on the same machine — but it is only MEANINGFUL with
    cores to scale onto, so the gate is skipped (loudly) when the
    report's host_cores is below 4. Fails when the factor drops more
    than the tolerance below the baseline's scaling_factor_4v1.

service (over BENCH_service.json)
    Gates the specialization service's cache economics, which are all
    measured in *simulated* cycles at the modeled 25 MHz clock and are
    therefore deterministic across hosts:

        warm_cache_hit_rate        floor-gated vs baseline
        throughput_scaling_1_to_4  floor-gated vs baseline
        admission_hit_rate_margin  floor-gated vs baseline (the
                                   doorkeeper's hit-rate points over
                                   plain LRU under a one-shot scan)
        warm_start_gen_words       must be exactly 0 (a restored cache
                                   serves its first warm request without
                                   entering the generator)
        warm_phase_gen_instr_words must be exactly 0

    cache_hit_speedup and warm_start_speedup are reported for the log
    but not gated. Baseline: bench/baselines/service.json.

Refresh any baseline with --write-baseline after an intentional
change. stdlib only — no pip installs in CI.
"""

import argparse
import json
import sys


def load_metrics(path):
    with open(path) as f:
        report = json.load(f)
    return report.get("metrics", {})


def dispatch_ratio(metrics, path):
    try:
        cached = metrics["BM_VmDispatch.instr/s"]
        slow = metrics["BM_VmDispatchNoCache.instr/s"]
    except KeyError as k:
        sys.exit(f"error: {path} is missing metric {k}")
    if slow <= 0:
        sys.exit(f"error: {path} has non-positive BM_VmDispatchNoCache rate")
    return cached / slow


AVERAGE_KEY = "AVERAGE instrs/instr"
CYCLES_AVERAGE_KEY = "AVERAGE cycles/instr"


def check_codegen_cost(args, metrics):
    for key in (AVERAGE_KEY, CYCLES_AVERAGE_KEY):
        if key not in metrics:
            sys.exit(f"error: {args.current[0]} is missing metric '{key}'")
    avg = metrics[AVERAGE_KEY]
    cycles_avg = metrics[CYCLES_AVERAGE_KEY]

    if args.write_baseline:
        baseline = {
            "comment": "Codegen-cost baseline for "
                       "tools/check_perf_baseline.py --mode codegen-cost. "
                       "Refresh with --write-baseline after intentional "
                       "specializer changes.",
            "average_instrs_per_instr": avg,
            "average_cycles_per_instr": cycles_avg,
            "metrics": dict(sorted(metrics.items())),
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"wrote baseline average_instrs_per_instr={avg:.3f} "
              f"average_cycles_per_instr={cycles_avg:.3f} to {args.baseline}")
        return

    with open(args.baseline) as f:
        base = json.load(f)
    base_avg = base["average_instrs_per_instr"]
    ceiling = base_avg * (1.0 + args.tolerance)
    if "average_cycles_per_instr" not in base:
        sys.exit(f"error: {args.baseline} lacks average_cycles_per_instr; "
                 f"refresh it with --write-baseline")
    base_cycles = base["average_cycles_per_instr"]
    cycles_ceiling = base_cycles * (1.0 + args.tolerance)

    print(f"codegen cost (generator instrs per generated instr): "
          f"current {avg:.3f}, baseline {base_avg:.3f}, "
          f"ceiling {ceiling:.3f} (tolerance {args.tolerance:.0%})")
    print(f"codegen cost (simulated cycles per generated instr): "
          f"current {cycles_avg:.3f}, baseline {base_cycles:.3f}, "
          f"ceiling {cycles_ceiling:.3f} (tolerance {args.tolerance:.0%})")

    # Per-workload deltas for the log: the average can hide one workload
    # regressing while another improves.
    for key, base_val in sorted(base.get("metrics", {}).items()):
        if key in (AVERAGE_KEY, CYCLES_AVERAGE_KEY) or key not in metrics:
            continue
        cur = metrics[key]
        if base_val:
            print(f"  {key}: {cur:.3f} (baseline {base_val:.3f}, "
                  f"{(cur / base_val - 1.0):+.1%})")

    if avg > ceiling:
        sys.exit(f"FAIL: average codegen cost {avg:.3f} is more than "
                 f"{args.tolerance:.0%} above baseline {base_avg:.3f} — "
                 f"the specializer got more expensive per generated "
                 f"instruction")
    if cycles_avg > cycles_ceiling:
        sys.exit(f"FAIL: average codegen cycles {cycles_avg:.3f} are more "
                 f"than {args.tolerance:.0%} above baseline "
                 f"{base_cycles:.3f} — the generators flush more, or more "
                 f"bytes, per generated instruction")
    print("OK: codegen cost within tolerance of baseline")


SERVICE_FLOOR_KEYS = (
    "warm_cache_hit_rate",
    "throughput_scaling_1_to_4",
    "admission_hit_rate_margin",
)
SERVICE_ZERO_KEYS = ("warm_start_gen_words", "warm_phase_gen_instr_words")


def check_service(args, metrics):
    path = args.current[0]
    for key in SERVICE_FLOOR_KEYS + SERVICE_ZERO_KEYS:
        if key not in metrics:
            sys.exit(f"error: {path} is missing metric {key}")

    # The zero gates are absolute — a single generated word on the warm
    # path means the cache (or its persistence) stopped doing its job.
    for key in SERVICE_ZERO_KEYS:
        val = metrics[key]
        print(f"  {key}: {val:g} (must be 0)")
        if val != 0:
            sys.exit(f"FAIL: {key} is {val:g}, expected exactly 0 — the "
                     f"warm path entered the generator")

    for key in ("cache_hit_speedup", "warm_start_speedup"):
        if key in metrics:
            print(f"  {key}: {metrics[key]:.2f}x (informational)")

    if args.write_baseline:
        baseline = {
            "comment": "Service cache-economics baseline for "
                       "tools/check_perf_baseline.py --mode service. All "
                       "gated metrics are simulated-cycle derived and "
                       "deterministic across hosts. Refresh with "
                       "--write-baseline after intentional cache-policy "
                       "or scheduler changes.",
            "metrics": dict(sorted(metrics.items())),
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"wrote service baseline to {args.baseline}")
        return

    with open(args.baseline) as f:
        base = json.load(f)["metrics"]
    failed = []
    for key in SERVICE_FLOOR_KEYS:
        if key not in base:
            sys.exit(f"error: {args.baseline} has no {key} — refresh it "
                     f"with --write-baseline")
        cur, base_val = metrics[key], base[key]
        floor = base_val * (1.0 - args.tolerance)
        ok = cur >= floor
        print(f"  {key}: current {cur:.3f}, baseline {base_val:.3f}, "
              f"floor {floor:.3f} ({'ok' if ok else 'FAIL'})")
        if not ok:
            failed.append(key)
    if failed:
        sys.exit(f"FAIL: service metrics below baseline floor "
                 f"(tolerance {args.tolerance:.0%}): {', '.join(failed)}")
    print("OK: service cache economics within tolerance of baseline")


def wire_ratio(metrics, path):
    try:
        pipelined = metrics["pipelined_rps"]
        inprocess = metrics["inprocess_rps"]
    except KeyError as k:
        sys.exit(f"error: {path} is missing metric {k}")
    if inprocess <= 0:
        sys.exit(f"error: {path} has non-positive inprocess_rps")
    return pipelined / inprocess


def check_wire_scaling(args, base):
    """The sharded-reactor gate: 4-shard/1-shard aggregate throughput
    from BENCH_wire_scale.json, skipped on hosts without enough cores
    for the comparison to mean anything."""
    metrics = load_metrics(args.scale)
    host_cores = metrics.get("host_cores", 0)
    factor = metrics.get("scaling_factor_4v1")
    if factor is None:
        sys.exit(f"error: {args.scale} is missing metric "
                 f"scaling_factor_4v1 (run the full 1/2/4 sweep, not "
                 f"--shards N)")

    print(f"shard scaling (4-shard/1-shard aggregate rps): "
          f"{factor:.2f}x on a {host_cores}-core host")
    if host_cores < 4:
        print(f"SKIP: shard-scaling gate needs >= 4 host cores to be "
              f"meaningful, this runner has {host_cores} — factor "
              f"recorded but not gated")
        return

    base_factor = base.get("scaling_factor_4v1")
    if base_factor is None:
        sys.exit(f"error: {args.baseline} has no scaling_factor_4v1 — "
                 f"refresh it with --write-baseline --scale on a "
                 f">=4-core host")
    floor = base_factor * (1.0 - args.tolerance)
    print(f"  baseline {base_factor:.2f}x, floor {floor:.2f}x "
          f"(tolerance {args.tolerance:.0%})")
    if factor < floor:
        sys.exit(f"FAIL: 4-shard scaling factor {factor:.2f}x is more "
                 f"than {args.tolerance:.0%} below baseline "
                 f"{base_factor:.2f}x — the sharded reactor stopped "
                 f"scaling across cores")
    print("OK: shard scaling factor within tolerance of baseline")


def check_wire(args):
    best, best_path = None, None
    for path in args.current:
        metrics = load_metrics(path)
        ratio = wire_ratio(metrics, path)
        speedup = metrics.get("pipeline_speedup_vs_serial", 0.0)
        print(f"  {path}: pipelined/in-process {ratio:.3f} "
              f"(pipelined {metrics.get('pipelined_rps', 0):.0f} req/s, "
              f"pipeline speedup {speedup:.2f}x serial)")
        if best is None or ratio > best:
            best, best_path = ratio, path

    if args.write_baseline:
        baseline = {
            "comment": "Wire-throughput baseline for "
                       "tools/check_perf_baseline.py --mode wire: the "
                       "pipelined/in-process rate ratio, best of N runs. "
                       "Keep this at the LOW end of warm local runs so "
                       "the gate catches structural regressions, not "
                       "scheduler noise. Refresh with --write-baseline "
                       "after intentional wire-path changes.",
            "pipelined_over_inprocess": best,
            "metrics": dict(sorted(load_metrics(best_path).items())),
        }
        # Preserve (or refresh, on a capable host) the shard-scaling
        # floor so a ratio-only rewrite cannot silently drop the gate.
        factor = None
        if args.scale:
            scale_metrics = load_metrics(args.scale)
            if scale_metrics.get("host_cores", 0) >= 4:
                factor = scale_metrics.get("scaling_factor_4v1")
        if factor is None:
            try:
                with open(args.baseline) as f:
                    factor = json.load(f).get("scaling_factor_4v1")
            except (OSError, ValueError):
                factor = None
        if factor is not None:
            baseline["scaling_factor_4v1"] = factor
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"wrote baseline pipelined_over_inprocess={best:.3f} "
              f"to {args.baseline}")
        return

    with open(args.baseline) as f:
        base = json.load(f)
    base_ratio = base["pipelined_over_inprocess"]
    floor = base_ratio * (1.0 - args.tolerance)

    print(f"wire ratio (pipelined/in-process): best of {len(args.current)} "
          f"runs {best:.3f}, baseline {base_ratio:.3f}, floor {floor:.3f} "
          f"(tolerance {args.tolerance:.0%})")

    if best < floor:
        sys.exit(f"FAIL: wire throughput ratio {best:.3f} is more than "
                 f"{args.tolerance:.0%} below baseline {base_ratio:.3f} — "
                 f"the reactor/framing path lost throughput relative to "
                 f"the in-process server")
    print("OK: wire throughput within tolerance of baseline")

    if args.scale:
        check_wire_scaling(args, base)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", required=True, nargs="+",
                    help="bench JSON from this run (BENCH_host_micro.json, "
                         "BENCH_table_codegen_cost.json, or — several "
                         "accepted in wire mode — BENCH_wire.json)")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline JSON")
    ap.add_argument("--mode",
                    choices=["dispatch", "codegen-cost", "wire", "service"],
                    default="dispatch",
                    help="which gate to run (default: dispatch)")
    ap.add_argument("--scale", default=None,
                    help="wire mode only: BENCH_wire_scale.json from this "
                         "run; additionally gates scaling_factor_4v1 "
                         "(skipped when the report's host_cores < 4)")
    ap.add_argument("--tolerance", type=float, default=0.03,
                    help="allowed fractional regression (default 0.03)")
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite the baseline from --current instead of "
                         "checking")
    args = ap.parse_args()

    if args.mode == "wire":
        check_wire(args)
        return
    if len(args.current) != 1:
        sys.exit(f"error: --mode {args.mode} takes exactly one --current "
                 f"report")

    metrics = load_metrics(args.current[0])

    if args.mode == "codegen-cost":
        check_codegen_cost(args, metrics)
        return

    if args.mode == "service":
        check_service(args, metrics)
        return

    ratio = dispatch_ratio(metrics, args.current[0])

    if args.write_baseline:
        baseline = {
            "comment": "Perf baseline for tools/check_perf_baseline.py. "
                       "Refresh with --write-baseline after intentional "
                       "dispatch-engine changes.",
            "dispatch_ratio": ratio,
            "metrics": {k: v for k, v in sorted(metrics.items())
                        if k.startswith("BM_VmDispatch")},
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"wrote baseline dispatch_ratio={ratio:.3f} to {args.baseline}")
        return

    with open(args.baseline) as f:
        base = json.load(f)
    base_ratio = base["dispatch_ratio"]
    floor = base_ratio * (1.0 - args.tolerance)

    print(f"dispatch ratio (cached/reference): current {ratio:.3f}, "
          f"baseline {base_ratio:.3f}, floor {floor:.3f} "
          f"(tolerance {args.tolerance:.0%})")

    traced = metrics.get("BM_VmDispatchTraced.instr/s")
    disabled = metrics.get("BM_VmDispatch.instr/s")
    if traced and disabled:
        print(f"trace-armed overhead (informational): "
              f"{disabled / traced:.3f}x slower than trace-disabled")

    if ratio < floor:
        sys.exit(f"FAIL: dispatch ratio {ratio:.3f} is more than "
                 f"{args.tolerance:.0%} below baseline {base_ratio:.3f} — "
                 f"the trace-disabled dispatch path regressed")
    print("OK: trace-disabled dispatch within tolerance of baseline")


if __name__ == "__main__":
    main()
