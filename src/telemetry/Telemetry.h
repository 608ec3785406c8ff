//===- Telemetry.h - Unified stats snapshot + exporters ---------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TelemetrySnapshot is the one-call observability surface (see
/// docs/TELEMETRY.md): every counter struct the layers publish, the
/// machine-level gauges (code epoch, live specializations, code-space
/// bytes), per-entry-point profiles, and — at the service level — the
/// pool counters. Machine::telemetry() fills the machine-level fields;
/// SpecServer::telemetry() sums worker snapshots with operator+=.
///
/// Exporters: metrics() is the one list of metric names; writeText(),
/// summaryLine(), the wire StatsReply and the fabserve/fabc printouts
/// all render it. writeChromeTrace() serializes TraceRing events as
/// Chrome trace_event JSON loadable in chrome://tracing or Perfetto.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_TELEMETRY_TELEMETRY_H
#define FAB_TELEMETRY_TELEMETRY_H

#include "telemetry/Stats.h"
#include "telemetry/TraceRing.h"

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace fab {

/// Integer metrics as (dotted name, value) pairs, e.g. ("vm.executed",
/// 123456) or ("worker.0.served", 17).
using MetricList = std::vector<std::pair<std::string, uint64_t>>;

/// Per-entry-point specialization profile, accumulated by the Machine
/// facade (specialize() and the by-name/at-address call paths).
struct EntryPointProfile {
  std::string Fn;
  uint64_t Specializations = 0; ///< successful specialize() runs
  uint64_t MemoHits = 0;        ///< ... answered by the in-VM memo table
  uint64_t DynWords = 0;        ///< dynamic words emitted on its behalf
  uint64_t GenInstrs = 0;       ///< guest instructions its generator ran
  uint64_t Calls = 0;           ///< calls (by name or at its addresses)

  EntryPointProfile &operator+=(const EntryPointProfile &R) {
    Specializations += R.Specializations;
    MemoHits += R.MemoHits;
    DynWords += R.DynWords;
    GenInstrs += R.GenInstrs;
    Calls += R.Calls;
    return *this;
  }
};

/// One worker's load/robustness row, preserved through aggregation so
/// operators can spot a single hot or failing worker that a pool-wide
/// sum would hide (fabserve prints one line per row).
struct WorkerLoadRow {
  unsigned Worker = 0;
  uint64_t QueueHighWater = 0;
  uint64_t Shed = 0;
  uint64_t DeadlineMisses = 0;
  uint64_t Retried = 0;
  uint64_t BreakerOpens = 0;
  uint64_t Served = 0;
  uint64_t Errors = 0;
};

/// One reactor shard's row in a sharded wire front-end (docs/WIRE.md
/// "Sharding"): the shard's own connection counters and event-loop
/// gauges, preserved through aggregation — like WorkerLoadRow — so a
/// single hot or starved shard is visible where the pool-wide sum
/// would hide it. WireServer::telemetry() guarantees the aggregate
/// Net/Reactor blocks are exactly the sum over these rows.
struct ShardLoadRow {
  unsigned Shard = 0;
  NetStats Net;
  ReactorStats Reactor;
};

/// The unified stats snapshot. Machine-level fields are filled for a
/// bare Machine; the service-level block stays zero outside a pool.
/// operator+= aggregates across workers: counters add, high-water marks
/// take the max, and entry profiles merge by function name.
struct TelemetrySnapshot {
  // -- Machine level ---------------------------------------------------------
  VmStats Vm;
  SpecializationStats Memo;
  RecoveryStats Recovery;
  DecodeCacheStats DecodeCache;
  uint64_t CodeEpoch = 0;          ///< max across aggregated machines
  uint64_t SpecializationsLive = 0;
  uint64_t CodeSpaceUsed = 0;      ///< bytes, summed across machines
  unsigned DegradedMachines = 0;
  uint64_t TraceRecorded = 0;      ///< TraceRing events accepted
  uint64_t TraceDropped = 0;       ///< ... overwritten before being read

  // -- Service level (zero for a bare Machine) -------------------------------
  unsigned Workers = 0;
  uint64_t Submitted = 0;
  uint64_t Served = 0;
  uint64_t Errors = 0;
  uint64_t Rejected = 0;       ///< refused at submit (shutdown only;
                               ///< queue-full refusals count as Shed)
  uint64_t Coalesced = 0;
  uint64_t QueueHighWater = 0; ///< max across workers
  uint64_t BusyCyclesTotal = 0;
  /// Pool makespan in simulated cycles: the busiest worker's serving
  /// cycles. Each worker is an independent simulated machine (one core
  /// each in a real deployment), so requests/second at the modeled clock
  /// is Served / (BusyCyclesMax / 25 MHz).
  uint64_t BusyCyclesMax = 0;
  uint64_t HeapRecycles = 0;
  SpecCacheStats Cache;
  OverloadStats Overload;     ///< shedding / deadline / retry / breaker
  LatencyStats Latency;       ///< wall-clock submit-to-resolve histogram
  unsigned BreakersOpen = 0;  ///< gauge: entry-point breakers open now
  /// One row per aggregated worker (operator+= concatenates).
  std::vector<WorkerLoadRow> WorkerLoads;

  // -- Wire front-end (zero unless a WireServer fills it in) -----------------
  /// Totals across the listener and every connection, live and closed.
  /// WireServer::telemetry() guarantees these are exactly the sum of the
  /// per-connection counters it also exposes.
  NetStats Net;
  /// Event-loop gauges summed across every reactor shard carrying
  /// those connections.
  ReactorStats Reactor;
  /// One row per reactor shard (operator+= concatenates). Aggregate
  /// Net/Reactor above are exactly the sum of these rows.
  std::vector<ShardLoadRow> ShardLoads;

  // -- Per entry point -------------------------------------------------------
  std::vector<EntryPointProfile> Entries; ///< sorted by Fn

  /// The paper's headline ratio: generator instructions executed per
  /// instruction generated (0 when nothing was emitted).
  double generatorEfficiency() const {
    return Memo.GenDynWords ? static_cast<double>(Memo.GenExecuted) /
                                  static_cast<double>(Memo.GenDynWords)
                            : 0.0;
  }

  TelemetrySnapshot &operator+=(const TelemetrySnapshot &R);

  /// Every integer metric, in a fixed order: machine, server (with one
  /// row per worker), net, reactor, one row per shard, one row per entry
  /// point. A section whose counters are all unset is left out.
  MetricList metrics() const;

  /// One line per metrics() entry, `fab.<name> <value>`, then the
  /// derived ratios memo.generator_efficiency and reactor.wakeup_batch.
  void writeText(std::ostream &OS) const;
  std::string text() const;

  /// One-line `name=value` summary of selected metrics() entries for
  /// live reporting (fabserve --report-interval).
  std::string summaryLine() const;
};

namespace telemetry {

/// One exported event track: events from one ring, labeled and assigned
/// a tid (workers map to tids so per-worker activity lands on its own
/// Chrome trace row).
struct TraceTrack {
  int Tid = 0;
  std::string Label;
  std::vector<TraceEvent> Events;
};

/// Chrome trace_event JSON ({"traceEvents": [...]}): SpecializeBegin/End
/// become duration begin/end pairs, everything else instant events, with
/// SimInstr/Epoch/args attached. Timestamps are the events' wall-clock
/// stamps in microseconds, so tracks from concurrent workers align.
void writeChromeTrace(std::ostream &OS, const std::vector<TraceTrack> &Tracks);

} // namespace telemetry
} // namespace fab

#endif // FAB_TELEMETRY_TELEMETRY_H
