//===- Telemetry.cpp ------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>

using namespace fab;
using namespace fab::telemetry;

//===----------------------------------------------------------------------===//
// Clock and name interning
//===----------------------------------------------------------------------===//

uint64_t fab::telemetry::traceNowNs() {
  // One steady epoch for the whole process so rings owned by different
  // workers produce comparable stamps.
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

namespace {

struct NameTable {
  std::mutex M;
  std::deque<std::string> Names{""}; // id 0 = empty
  std::map<std::string, uint16_t, std::less<>> Ids;

  static NameTable &get() {
    static NameTable T;
    return T;
  }
};

} // namespace

uint16_t fab::telemetry::internName(std::string_view Name) {
  if (Name.empty())
    return 0;
  NameTable &T = NameTable::get();
  std::lock_guard<std::mutex> L(T.M);
  auto It = T.Ids.find(Name);
  if (It != T.Ids.end())
    return It->second;
  if (T.Names.size() > 0xFFFF)
    return 0; // table full: events fall back to the anonymous id
  auto Id = static_cast<uint16_t>(T.Names.size());
  T.Names.emplace_back(Name);
  T.Ids.emplace(std::string(Name), Id);
  return Id;
}

const std::string &fab::telemetry::internedName(uint16_t Id) {
  NameTable &T = NameTable::get();
  std::lock_guard<std::mutex> L(T.M);
  return T.Names[Id < T.Names.size() ? Id : 0];
}

const char *fab::telemetry::eventName(EventKind K) {
  switch (K) {
  case EventKind::SpecializeBegin:
    return "specialize_begin";
  case EventKind::SpecializeEnd:
    return "specialize_end";
  case EventKind::MemoHit:
    return "memo_hit";
  case EventKind::MemoMiss:
    return "memo_miss";
  case EventKind::TemplateFlush:
    return "template_flush";
  case EventKind::CodeGuardTrip:
    return "code_guard_trip";
  case EventKind::CodeSpaceReset:
    return "code_space_reset";
  case EventKind::PlainFallback:
    return "plain_fallback";
  case EventKind::BlockBuild:
    return "block_build";
  case EventKind::BlockInvalidate:
    return "block_invalidate";
  case EventKind::WorkerBegin:
    return "worker_begin";
  case EventKind::WorkerComplete:
    return "worker_complete";
  case EventKind::RequestShed:
    return "request_shed";
  case EventKind::RequestRetry:
    return "request_retry";
  case EventKind::BreakerOpen:
    return "breaker_open";
  case EventKind::BreakerProbe:
    return "breaker_probe";
  case EventKind::BreakerClose:
    return "breaker_close";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Snapshot aggregation
//===----------------------------------------------------------------------===//

TelemetrySnapshot &TelemetrySnapshot::operator+=(const TelemetrySnapshot &R) {
  Vm += R.Vm;
  Memo += R.Memo;
  Recovery += R.Recovery;
  DecodeCache += R.DecodeCache;
  CodeEpoch = std::max(CodeEpoch, R.CodeEpoch);
  SpecializationsLive += R.SpecializationsLive;
  CodeSpaceUsed += R.CodeSpaceUsed;
  DegradedMachines += R.DegradedMachines;
  TraceRecorded += R.TraceRecorded;
  TraceDropped += R.TraceDropped;

  Workers += R.Workers;
  Submitted += R.Submitted;
  Served += R.Served;
  Errors += R.Errors;
  Rejected += R.Rejected;
  Coalesced += R.Coalesced;
  QueueHighWater = std::max(QueueHighWater, R.QueueHighWater);
  BusyCyclesTotal += R.BusyCyclesTotal;
  BusyCyclesMax = std::max(BusyCyclesMax, R.BusyCyclesMax);
  HeapRecycles += R.HeapRecycles;
  Cache += R.Cache;
  Overload += R.Overload;
  Latency += R.Latency;
  BreakersOpen += R.BreakersOpen;
  WorkerLoads.insert(WorkerLoads.end(), R.WorkerLoads.begin(),
                     R.WorkerLoads.end());
  Net += R.Net;
  Reactor += R.Reactor;
  ShardLoads.insert(ShardLoads.end(), R.ShardLoads.begin(),
                    R.ShardLoads.end());

  // Merge profiles by function name, keeping Entries sorted.
  std::map<std::string, EntryPointProfile> ByFn;
  for (const EntryPointProfile &P : Entries)
    ByFn[P.Fn] += P;
  for (const EntryPointProfile &P : R.Entries)
    ByFn[P.Fn] += P;
  Entries.clear();
  for (auto &[Fn, P] : ByFn) {
    P.Fn = Fn;
    Entries.push_back(P);
  }
  return *this;
}

//===----------------------------------------------------------------------===//
// Metric list and its text exporters
//===----------------------------------------------------------------------===//

namespace {

bool hasReactorSection(const TelemetrySnapshot &T) {
  return T.Reactor.Wakeups || T.Reactor.OpenConns || T.Reactor.IdleClosed;
}

/// The one place metric names are spelled. With \p SummaryOnly, keeps
/// just the fields summaryLine() shows (those added with Summary).
MetricList buildMetrics(const TelemetrySnapshot &T, bool SummaryOnly) {
  MetricList L;
  constexpr bool Summary = true;
  auto Add = [&](std::string Name, uint64_t V, bool InSummary = false) {
    if (!SummaryOnly || InSummary)
      L.emplace_back(std::move(Name), V);
  };
  Add("vm.executed", T.Vm.Executed, Summary);
  Add("vm.executed_static", T.Vm.ExecutedStatic);
  Add("vm.executed_dynamic", T.Vm.ExecutedDynamic);
  Add("vm.loads", T.Vm.Loads);
  Add("vm.stores", T.Vm.Stores);
  Add("vm.dyn_words_written", T.Vm.DynWordsWritten);
  Add("vm.flushes", T.Vm.Flushes);
  Add("vm.flushed_bytes", T.Vm.FlushedBytes);
  Add("vm.cycles", T.Vm.Cycles);
  Add("memo.generator_runs", T.Memo.GeneratorRuns, Summary);
  Add("memo.hits", T.Memo.MemoHits, Summary);
  Add("memo.misses", T.Memo.MemoMisses);
  Add("memo.gen_executed", T.Memo.GenExecuted);
  Add("memo.gen_dyn_words", T.Memo.GenDynWords, Summary);
  Add("recovery.watermark_resets", T.Recovery.WatermarkResets, Summary);
  Add("recovery.fault_resets", T.Recovery.FaultResets, Summary);
  Add("recovery.recovered_retries", T.Recovery.RecoveredRetries);
  Add("recovery.generator_faults", T.Recovery.GeneratorFaults);
  Add("recovery.plain_fallback_calls", T.Recovery.PlainFallbackCalls);
  Add("decode_cache.blocks_built", T.DecodeCache.BlocksBuilt);
  Add("decode_cache.block_runs", T.DecodeCache.BlockRuns);
  Add("decode_cache.fast_insts", T.DecodeCache.FastInsts);
  Add("decode_cache.slow_insts", T.DecodeCache.SlowInsts);
  Add("decode_cache.fused_ops", T.DecodeCache.FusedOps);
  Add("decode_cache.invalidations", T.DecodeCache.Invalidations);
  Add("machine.code_epoch", T.CodeEpoch, Summary);
  Add("machine.specializations_live", T.SpecializationsLive, Summary);
  Add("machine.code_space_used", T.CodeSpaceUsed);
  Add("machine.degraded", T.DegradedMachines, Summary);
  Add("trace.recorded", T.TraceRecorded);
  Add("trace.dropped", T.TraceDropped);
  if (T.Workers) {
    Add("server.workers", T.Workers, Summary);
    Add("server.submitted", T.Submitted);
    Add("server.served", T.Served, Summary);
    Add("server.errors", T.Errors, Summary);
    Add("server.rejected", T.Rejected);
    Add("server.coalesced", T.Coalesced, Summary);
    Add("server.queue_high_water", T.QueueHighWater);
    Add("server.busy_cycles_total", T.BusyCyclesTotal);
    Add("server.busy_cycles_max", T.BusyCyclesMax);
    Add("server.heap_recycles", T.HeapRecycles);
    Add("server.shed", T.Overload.Shed, Summary);
    Add("server.deadline_misses", T.Overload.DeadlineMisses, Summary);
    Add("server.retried", T.Overload.Retried, Summary);
    Add("server.retry_successes", T.Overload.RetrySuccesses);
    Add("server.breaker_opens", T.Overload.BreakerOpens, Summary);
    Add("server.breaker_fallbacks", T.Overload.BreakerFallbacks);
    Add("server.breaker_probes", T.Overload.BreakerProbes);
    Add("server.breaker_fast_fails", T.Overload.BreakerFastFails);
    Add("server.breakers_open", T.BreakersOpen);
    Add("server.latency_count", T.Latency.Count);
    Add("server.latency_p50_ns", T.Latency.quantileNs(0.50));
    Add("server.latency_p99_ns", T.Latency.quantileNs(0.99));
    Add("server.latency_max_ns", T.Latency.MaxNs);
    Add("cache.hits", T.Cache.Hits, Summary);
    Add("cache.misses", T.Cache.Misses, Summary);
    Add("cache.evictions", T.Cache.Evictions);
    Add("cache.rehydrations", T.Cache.Rehydrations);
    Add("cache.invalidated", T.Cache.Invalidated);
    Add("cache.admission_rejects", T.Cache.AdmissionRejects);
    Add("cache.admission_admits", T.Cache.AdmissionAdmits);
    Add("cache.compactions", T.Cache.Compactions);
    Add("cache.compact_kept", T.Cache.CompactKept);
    Add("cache.compact_dropped", T.Cache.CompactDropped);
    Add("cache.profile_gated", T.Cache.ProfileGated);
    Add("cache.warm_restored", T.Cache.WarmRestored);
    for (const WorkerLoadRow &W : T.WorkerLoads) {
      std::string P = "worker." + std::to_string(W.Worker) + '.';
      Add(P + "queue_high_water", W.QueueHighWater, Summary);
      Add(P + "shed", W.Shed);
      Add(P + "deadline_misses", W.DeadlineMisses);
      Add(P + "retried", W.Retried);
      Add(P + "breaker_opens", W.BreakerOpens);
      Add(P + "served", W.Served);
      Add(P + "errors", W.Errors);
    }
  }
  if (T.Net.Connections || T.Net.FramesIn) {
    Add("net.connections", T.Net.Connections);
    Add("net.disconnects", T.Net.Disconnects);
    Add("net.frames_in", T.Net.FramesIn);
    Add("net.frames_out", T.Net.FramesOut);
    Add("net.bytes_in", T.Net.BytesIn);
    Add("net.bytes_out", T.Net.BytesOut);
    Add("net.read_batches", T.Net.ReadBatches);
    Add("net.batched_frames", T.Net.BatchedFrames);
    Add("net.submits", T.Net.Submits);
    Add("net.invalidates", T.Net.Invalidates);
    Add("net.stats_requests", T.Net.StatsRequests);
    Add("net.errors_out", T.Net.ErrorsOut);
    Add("net.protocol_errors", T.Net.ProtocolErrors);
    Add("net.pipeline_high_water", T.Net.PipelineHighWater);
    Add("net.cap_rejects", T.Net.CapRejects);
  }
  if (hasReactorSection(T)) {
    Add("reactor.shards", T.ShardLoads.size());
    Add("reactor.wakeups", T.Reactor.Wakeups);
    Add("reactor.events_dispatched", T.Reactor.EventsDispatched);
    Add("reactor.timer_ticks", T.Reactor.TimerTicks);
    Add("reactor.idle_closed", T.Reactor.IdleClosed);
    Add("reactor.accept_rejects", T.Reactor.AcceptRejects);
    Add("reactor.write_stalls", T.Reactor.WriteStalls);
    Add("reactor.write_stall_peak_bytes", T.Reactor.WriteStallPeakBytes);
    Add("reactor.open_conns", T.Reactor.OpenConns);
    Add("reactor.peak_conns", T.Reactor.PeakConns);
  }
  for (const ShardLoadRow &S : T.ShardLoads) {
    std::string P = "shard." + std::to_string(S.Shard) + '.';
    Add(P + "connections", S.Net.Connections);
    Add(P + "disconnects", S.Net.Disconnects);
    Add(P + "frames_in", S.Net.FramesIn);
    Add(P + "frames_out", S.Net.FramesOut);
    Add(P + "bytes_in", S.Net.BytesIn);
    Add(P + "bytes_out", S.Net.BytesOut);
    Add(P + "submits", S.Net.Submits);
    Add(P + "cap_rejects", S.Net.CapRejects);
    Add(P + "wakeups", S.Reactor.Wakeups);
    Add(P + "events_dispatched", S.Reactor.EventsDispatched);
    Add(P + "idle_closed", S.Reactor.IdleClosed);
    Add(P + "accept_rejects", S.Reactor.AcceptRejects);
    Add(P + "open_conns", S.Reactor.OpenConns);
    Add(P + "peak_conns", S.Reactor.PeakConns);
  }
  for (const EntryPointProfile &E : T.Entries) {
    std::string P = "entry." + E.Fn + '.';
    Add(P + "specializations", E.Specializations);
    Add(P + "memo_hits", E.MemoHits);
    Add(P + "dyn_words", E.DynWords);
    Add(P + "gen_instrs", E.GenInstrs);
    Add(P + "calls", E.Calls);
  }
  return L;
}

/// The derived ratios writeText prints after the list. The first is the
/// paper's headline number, which summaryLine also shows.
std::vector<std::pair<const char *, double>>
derivedRatios(const TelemetrySnapshot &T) {
  std::vector<std::pair<const char *, double>> R{
      {"memo.generator_efficiency", T.generatorEfficiency()}};
  if (hasReactorSection(T))
    R.emplace_back("reactor.wakeup_batch", T.Reactor.wakeupBatch());
  return R;
}

} // namespace

MetricList TelemetrySnapshot::metrics() const {
  return buildMetrics(*this, /*SummaryOnly=*/false);
}

void TelemetrySnapshot::writeText(std::ostream &OS) const {
  for (const auto &[Name, V] : metrics())
    OS << "fab." << Name << ' ' << V << '\n';
  for (const auto &[Name, V] : derivedRatios(*this))
    OS << "fab." << Name << ' ' << V << '\n';
}

std::string TelemetrySnapshot::text() const {
  std::ostringstream OS;
  writeText(OS);
  return OS.str();
}

std::string TelemetrySnapshot::summaryLine() const {
  std::ostringstream OS;
  for (const auto &[Name, V] : buildMetrics(*this, /*SummaryOnly=*/true))
    OS << Name << '=' << V << ' ';
  const auto [Name, V] = derivedRatios(*this).front();
  OS << Name << '=' << V;
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Chrome trace exporter
//===----------------------------------------------------------------------===//

namespace {

void jsonEscape(std::ostream &OS, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (static_cast<unsigned char>(C) < 0x20)
      OS << "\\u00" << "0123456789abcdef"[(C >> 4) & 0xF]
         << "0123456789abcdef"[C & 0xF];
    else
      OS << C;
  }
}

void writeCommonArgs(std::ostream &OS, const TraceEvent &E) {
  OS << "\"args\":{\"sim_instr\":" << E.SimInstr << ",\"epoch\":" << E.Epoch
     << ",\"arg0\":" << E.Arg0 << ",\"arg1\":" << E.Arg1 << "}";
}

} // namespace

void fab::telemetry::writeChromeTrace(std::ostream &OS,
                                      const std::vector<TraceTrack> &Tracks) {
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  auto Emit = [&](const TraceTrack &T, const TraceEvent &E, char Ph,
                  const std::string &Name) {
    if (!First)
      OS << ",";
    First = false;
    // trace_event timestamps are microseconds (double).
    OS << "\n{\"name\":\"";
    jsonEscape(OS, Name);
    OS << "\",\"cat\":\"fabius\",\"ph\":\"" << Ph << "\",\"ts\":"
       << static_cast<double>(E.TimeNs) / 1000.0 << ",\"pid\":1,\"tid\":"
       << T.Tid << ",";
    if (Ph == 'i')
      OS << "\"s\":\"t\",";
    writeCommonArgs(OS, E);
    OS << "}";
  };

  for (const TraceTrack &T : Tracks) {
    if (!T.Label.empty()) {
      if (!First)
        OS << ",";
      First = false;
      OS << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
         << T.Tid << ",\"args\":{\"name\":\"";
      jsonEscape(OS, T.Label);
      OS << "\"}}";
    }
    for (const TraceEvent &E : T.Events) {
      // Begin/end pairs share one span name so viewers pair them.
      std::string Name;
      switch (E.Kind) {
      case EventKind::SpecializeBegin:
      case EventKind::SpecializeEnd:
        Name = "specialize";
        break;
      case EventKind::WorkerBegin:
      case EventKind::WorkerComplete:
        Name = "serve";
        break;
      default:
        Name = eventName(E.Kind);
        break;
      }
      if (E.Name)
        Name += ":" + internedName(E.Name);
      switch (E.Kind) {
      case EventKind::SpecializeBegin:
      case EventKind::WorkerBegin:
        Emit(T, E, 'B', Name);
        break;
      case EventKind::SpecializeEnd:
      case EventKind::WorkerComplete:
        Emit(T, E, 'E', Name);
        break;
      default:
        Emit(T, E, 'i', Name);
        break;
      }
    }
  }
  OS << "\n]}\n";
}
