//===- perfbench.cpp - Socket-to-reply benchmark --------------------------===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
//
// One request, measured from the bytes a client writes to a loopback
// socket to the reply it reads back, against an in-process SpecServer
// (2 pool workers) behind a WireServer (1 reactor shard). One client
// thread drives a closed loop over one connection, in two phases:
//
//   serial     one request in flight: round-trip time;
//   pipelined  a window of 32 in flight: throughput and loaded latency.
//
// Every reply is checked against the host oracle stored with its
// request (Workload.h). Typed refusals and lost connections are counted
// as failures and never retried.
//
// With --trace 1 the same untraced phases run first, then a traced run
// on a fresh set of identically warmed layers replays the stream one
// request at a time through each layer's public entry point, timing a
// span around each call from this file and reading telemetry() counter
// deltas before and after it:
//
//   encodeSubmit / FrameReader + decodeSubmit   wire codec
//   FabClient::call                             net and everything below
//   SpecServer::call                            service
//   Machine::specialize                         core + backend generator
//   Machine::invoke<int32_t>(addr, ...)         vm
//
// A layer's self time is its span minus the spans of its children on
// the request's blocking path (the generator is a child only when the
// service missed its cache). The traced run also repeats the pipelined
// phase and reports its end-to-end numbers beside the untraced ones, so
// tracing overhead is a stated number.
//
// Usage: perfbench --workload hot_keys|cold_keys|zipf_churn --seed N
//                  --seconds S --trace 0|1 [--requests N]
//
// --requests N replaces every time budget by a request count, so the
// simulated counters of a fixed request sequence can be compared across
// runs. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "backend/Backend.h"
#include "core/Fabius.h"
#include "ml/Parser.h"
#include "ml/TypeCheck.h"
#include "net/FabClient.h"
#include "net/WireServer.h"
#include "service/SpecServer.h"
#include "staging/Staging.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace fab;
using namespace perfbench;
using fab::service::Value;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}
double nsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::nano>(B - A).count();
}

constexpr unsigned PoolWorkers = 2;
constexpr size_t Window = 32;
/// Set-ups per untraced run; setup_s is their median.
constexpr unsigned SetupRepeats = 5;
/// Rounds per phase; timing statistics are medians over rounds.
constexpr unsigned Rounds = 20;
constexpr unsigned CompileRepeats = 20;
constexpr unsigned PingRounds = 1000;
/// Upper bound on requests replayed layer by layer (span memory).
constexpr size_t MaxReplay = 20000;

[[noreturn]] void fail(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(1);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}
double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }
double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}
double ratio(double Num, double Den) { return Den != 0.0 ? Num / Den : 0.0; }

//===----------------------------------------------------------------------===//
// Outcome accounting
//===----------------------------------------------------------------------===//

/// Requests sent in one phase and what became of them.
struct Tally {
  uint64_t Sent = 0, Ok = 0;
  uint64_t Rejected = 0, Deadline = 0, CircuitOpen = 0, ConnLost = 0,
           OtherErr = 0, Mismatch = 0;

  uint64_t failed() const {
    return Rejected + Deadline + CircuitOpen + ConnLost + OtherErr + Mismatch;
  }
  Tally &operator+=(const Tally &R) {
    Sent += R.Sent;
    Ok += R.Ok;
    Rejected += R.Rejected;
    Deadline += R.Deadline;
    CircuitOpen += R.CircuitOpen;
    ConnLost += R.ConnLost;
    OtherErr += R.OtherErr;
    Mismatch += R.Mismatch;
    return *this;
  }

  /// Files an error code from either range (FabErrc or WireErrc).
  void refuse(uint16_t Code) {
    if (Code == net::wireCode(FabErrc::Rejected))
      ++Rejected;
    else if (Code == net::wireCode(FabErrc::DeadlineExceeded))
      ++Deadline;
    else if (Code == net::wireCode(FabErrc::CircuitOpen))
      ++CircuitOpen;
    else if (Code == net::wireCode(net::WireErrc::ConnectionLost))
      ++ConnLost;
    else
      ++OtherErr;
  }

  /// Checks a successful reply's value against the oracle. Invalidate
  /// replies carry a drop count, which is correct when non-negative.
  bool check(const Request &Q, int32_t Got) {
    bool Good = Q.K == Request::Kind::Call ? Got == Q.Oracle : Got >= 0;
    if (Good) {
      ++Ok;
      return true;
    }
    if (++Mismatch <= 5)
      std::fprintf(stderr, "perfbench: %s replied %d, oracle says %d\n",
                   Q.Fn.c_str(), Got, Q.Oracle);
    return false;
  }

  bool settle(const Request &Q, const net::WireReply &R) {
    ++Sent;
    if (!R.Ok) {
      refuse(R.ErrCode);
      return false;
    }
    return check(Q, R.Value);
  }
  bool settle(const Request &Q, const FabResult<int32_t> &R) {
    ++Sent;
    if (!R.ok()) {
      refuse(static_cast<uint16_t>(R.error().Code));
      return false;
    }
    return check(Q, *R);
  }

  void print(const char *Phase, double Seconds) const {
    std::printf("phase %-18s sent %8llu  succeeded %8llu  failed %llu "
                "(rejected %llu, deadline_exceeded %llu, circuit_open %llu, "
                "connection_lost %llu, other %llu, mismatched %llu)  %.3f s\n",
                Phase, (unsigned long long)Sent, (unsigned long long)Ok,
                (unsigned long long)failed(), (unsigned long long)Rejected,
                (unsigned long long)Deadline, (unsigned long long)CircuitOpen,
                (unsigned long long)ConnLost, (unsigned long long)OtherErr,
                (unsigned long long)Mismatch, Seconds);
  }
};

/// Every tally of the run, in the order the phases ran.
std::vector<std::pair<std::string, Tally>> AllTallies;

//===----------------------------------------------------------------------===//
// Phases
//===----------------------------------------------------------------------===//

/// A phase ends after Seconds, or after Requests when that is set.
struct Budget {
  double Seconds = 0;
  size_t Requests = 0;
  bool done(double Elapsed, size_t Sent) const {
    return Requests ? Sent >= Requests : Elapsed >= Seconds;
  }
  Budget perRound() const {
    return {Seconds / Rounds, (Requests + Rounds - 1) / Rounds};
  }
  /// Requests to generate ahead for a stream that never repeats: the
  /// budget at 3x the fastest cold_keys rate seen (~10k/s).
  size_t maxRequests() const {
    return Requests ? Requests : static_cast<size_t>(Seconds * 30000) + 1;
  }
};

/// Position in a workload's timed stream.
class Cursor {
public:
  explicit Cursor(const Stream &S) : S(&S) {}
  /// Readies up to \p N requests of a stream that never repeats; the
  /// requests of the previous round must no longer be in use.
  void beginRound(size_t N) {
    if (S->Fresh) {
      Fresh = S->Fresh(Chunk++, N);
      Next = 0;
    }
  }
  bool exhausted() const { return S->Fresh && Next >= Fresh.size(); }
  const Request &take() {
    return S->Fresh ? Fresh[Next++] : S->Timed[Next++ % S->Timed.size()];
  }

private:
  const Stream *S;
  std::vector<Request> Fresh;
  uint64_t Chunk = 0;
  size_t Next = 0;
};

/// One stretch of closed-loop traffic: its length and the latency of
/// each correct reply.
struct Round {
  double Seconds = 0;
  std::vector<double> LatUs;
};

/// A phase runs as rounds interleaved with the other phase's rounds, so
/// a stretch of host noise lands in few rounds of each; every timing
/// statistic is the median over rounds of the per-round value.
struct Phase {
  Tally T;
  std::vector<Round> Rounds;

  double acrossRounds(const std::function<double(const Round &)> &Stat) const {
    std::vector<double> V;
    for (const Round &R : Rounds)
      if (!R.LatUs.empty())
        V.push_back(Stat(R));
    return median(V);
  }
  double ratePerS() const {
    return acrossRounds([](const Round &R) {
      return ratio(static_cast<double>(R.LatUs.size()), R.Seconds);
    });
  }
  double latencyUs(double Q) const {
    return acrossRounds([Q](const Round &R) { return quantile(R.LatUs, Q); });
  }
  double seconds() const {
    double S = 0;
    for (const Round &R : Rounds)
      S += R.Seconds;
    return S;
  }
  size_t samples() const {
    size_t N = 0;
    for (const Round &R : Rounds)
      N += R.LatUs.size();
    return N;
  }
};

/// A closed-loop client: anything that can serve one request
/// synchronously, or keep a window of them in flight.
struct Endpoint {
  virtual ~Endpoint() = default;
  virtual bool serial(const Request &Q, Tally &T) = 0;
  /// Starts \p Q; false when the endpoint cannot take requests any more.
  virtual bool start(const Request &Q, Tally &T) = 0;
  /// Completes the oldest started request; true when its reply was
  /// correct.
  virtual bool finishOldest(Tally &T) = 0;
};

class WireEndpoint : public Endpoint {
public:
  explicit WireEndpoint(net::FabClient &C) : C(C) {}
  bool serial(const Request &Q, Tally &T) override {
    net::WireReply R = Q.K == Request::Kind::Call
                           ? C.call(Q.Fn, Q.Early, Q.Late)
                           : C.invalidate(Q.Fn);
    return T.settle(Q, R);
  }
  bool start(const Request &Q, Tally &T) override {
    uint64_t Tag = Q.K == Request::Kind::Call
                       ? C.submit(Q.Fn, Q.Early, Q.Late)
                       : C.submitInvalidate(Q.Fn);
    if (!Tag) {
      T.settle(Q, net::WireReply{});
      return false;
    }
    Open.push_back({Tag, &Q});
    return true;
  }
  bool finishOldest(Tally &T) override {
    auto [Tag, Q] = Open.front();
    Open.pop_front();
    return T.settle(*Q, C.wait(Tag));
  }

private:
  net::FabClient &C;
  std::deque<std::pair<uint64_t, const Request *>> Open;
};

class InProcessEndpoint : public Endpoint {
public:
  explicit InProcessEndpoint(service::SpecServer &S) : S(S) {}
  bool serial(const Request &Q, Tally &T) override {
    return T.settle(Q, Q.K == Request::Kind::Call
                           ? S.call(Q.Fn, Q.Early, Q.Late)
                           : S.invalidate(Q.Fn));
  }
  bool start(const Request &Q, Tally &) override {
    if (Q.K == Request::Kind::Call) {
      Open.push_back({S.submit(Q.Fn, Q.Early, Q.Late), &Q});
    } else {
      auto P = std::make_shared<std::promise<FabResult<int32_t>>>();
      Open.push_back({P->get_future(), &Q});
      S.invalidateAsync(Q.Fn, [P](FabResult<int32_t> R) {
        P->set_value(std::move(R));
      });
    }
    return true;
  }
  bool finishOldest(Tally &T) override {
    auto [F, Q] = std::move(Open.front());
    Open.pop_front();
    return T.settle(*Q, F.get());
  }

private:
  service::SpecServer &S;
  std::deque<std::pair<std::future<FabResult<int32_t>>, const Request *>> Open;
};

/// Runs one round of one-at-a-time requests into \p P.
void runSerial(Endpoint &E, Cursor &Cur, const Budget &B, Phase &P) {
  Cur.beginRound(B.maxRequests());
  Round R;
  auto T0 = Clock::now();
  for (size_t Sent = 0;; ++Sent) {
    auto Now = Clock::now();
    if (B.done(secondsBetween(T0, Now), Sent) || Cur.exhausted())
      break;
    bool Good = E.serial(Cur.take(), P.T);
    auto T1 = Clock::now();
    if (Good)
      R.LatUs.push_back(usBetween(Now, T1));
    R.Seconds = secondsBetween(T0, T1);
    if (P.T.ConnLost)
      break;
  }
  P.Rounds.push_back(std::move(R));
}

/// Runs one round with a window of requests in flight into \p P.
/// Replies are consumed in submission order, so a request's latency
/// includes waiting behind an older one that completes later.
void runPipelined(Endpoint &E, Cursor &Cur, const Budget &B, Phase &P) {
  Cur.beginRound(B.maxRequests());
  Round R;
  std::deque<Clock::time_point> Started;
  bool Issuing = true;
  size_t Sent = 0;
  auto T0 = Clock::now();
  for (;;) {
    while (Issuing && Started.size() < Window) {
      auto Now = Clock::now();
      if (B.done(secondsBetween(T0, Now), Sent) || Cur.exhausted() ||
          !E.start(Cur.take(), P.T)) {
        Issuing = false;
        break;
      }
      ++Sent;
      Started.push_back(Now);
    }
    if (Started.empty())
      break;
    bool Good = E.finishOldest(P.T);
    auto T1 = Clock::now();
    if (Good)
      R.LatUs.push_back(usBetween(Started.front(), T1));
    Started.pop_front();
    R.Seconds = secondsBetween(T0, T1);
  }
  P.Rounds.push_back(std::move(R));
}

void record(const std::string &Name, const Tally &T, double Seconds) {
  T.print(Name.c_str(), Seconds);
  AllTallies.emplace_back(Name, T);
}

//===----------------------------------------------------------------------===//
// The serving stack
//===----------------------------------------------------------------------===//

/// A fixed thread layout over four CPUs: the client alone on the first,
/// the reactor and acceptor on the second, the pool workers on the other
/// two. New threads inherit the mask of the thread that creates them, so
/// the stack is built under the matching mask. Unpinned placement is
/// bimodal on small virtual machines: round-trip times moved by 2x from
/// run to run depending on whether a wakeup landed on an idle CPU.
class Layout {
public:
  Layout() {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
      return;
    for (int C = 0; C < CPU_SETSIZE && Cpus.size() < 4; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
    if (Cpus.size() < 4)
      Cpus.clear();
  }
  bool pinned() const { return !Cpus.empty(); }
  void client() const { pin({0}); }
  void reactor() const { pin({1}); }
  void workers() const { pin({2, 3}); }

private:
  void pin(std::initializer_list<int> Slots) const {
    if (!pinned())
      return;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    for (int S : Slots)
      CPU_SET(Cpus[S], &Set);
    sched_setaffinity(0, sizeof(Set), &Set);
  }
  std::vector<int> Cpus;
};
const Layout Threads;

/// How fabserve compiles the served program: deferred, `eval` memoized.
FabiusOptions servedOptions() {
  FabiusOptions Opts = FabiusOptions::deferred();
  Opts.Backend.MemoizedSelfCalls.insert("eval");
  return Opts;
}

/// Compilation + SpecServer (+ WireServer and a connected client).
struct Stack {
  std::unique_ptr<Compilation> Comp;
  std::unique_ptr<service::SpecServer> Server;
  std::unique_ptr<net::WireServer> Wire;
  net::FabClient Client;

  explicit Stack(bool OverWire) {
    Comp = std::make_unique<Compilation>(
        compileOrDie(programSource(), servedOptions()));
    service::ServerOptions SO;
    SO.Pool.Workers = PoolWorkers;
    Threads.workers();
    Server = std::make_unique<service::SpecServer>(*Comp, SO);
    if (OverWire) {
      net::WireOptions WO;
      WO.Shards = 1;
      Wire = std::make_unique<net::WireServer>(*Server, WO);
      Threads.reactor();
      std::string Err;
      if (!Wire->start(&Err) ||
          !Client.connect("127.0.0.1", Wire->port(), &Err))
        fail("cannot start the wire server: " + Err);
    }
    Threads.client();
  }
  ~Stack() {
    Client.close();
    if (Wire)
      Wire->stop();
    Server->shutdown();
  }
  Stack(const Stack &) = delete;
  Stack &operator=(const Stack &) = delete;

  TelemetrySnapshot telemetry() const {
    return Wire ? Wire->telemetry() : Server->telemetry();
  }
  std::unique_ptr<Endpoint> endpoint() {
    if (Wire)
      return std::make_unique<WireEndpoint>(Client);
    return std::make_unique<InProcessEndpoint>(*Server);
  }
};

void warm(Endpoint &E, const Stream &S, Tally &T) {
  for (const Request &Q : S.Warmup)
    E.serial(Q, T);
}

/// Counter deltas between two snapshots of one stack, normalized per
/// request served in between.
struct Delta {
  TelemetrySnapshot A, B;
  double served() const { return static_cast<double>(B.Served - A.Served); }
  template <typename F> double d(F Field) const {
    return static_cast<double>(Field(B) - Field(A));
  }
  template <typename F> double perReq(F Field) const {
    return ratio(d(Field), served());
  }
  template <typename F> double perKreq(F Field) const {
    return 1000.0 * perReq(Field);
  }
};

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

//===----------------------------------------------------------------------===//
// Metrics output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

void printMetrics(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("\n%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-36s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

void printJson(bool Correct, const std::vector<Metric> &Ms) {
  Tally All;
  for (const auto &[Name, T] : AllTallies)
    All += T;
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(All.Sent);
  S += ", \"failed\": " + std::to_string(All.failed());
  S += ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      S += ", ";
    S += "\"" + Ms[I].Name + "\": {\"value\": " + num(Ms[I].Value) +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
}

//===----------------------------------------------------------------------===//
// The untraced run
//===----------------------------------------------------------------------===//

struct Untraced {
  Phase Serial, Piped;
  double SetupS = 0;
  double SimCyclesPerReq = 0;
  double GenInstrPerWord = 0;

  std::vector<Metric> endToEnd() const {
    return {{"req_per_s", Piped.ratePerS(), "1/s"},
            {"rtt_p50_us", Serial.latencyUs(0.50), "us"},
            {"sim_cycles_per_req", SimCyclesPerReq, "cycles"},
            {"setup_s", SetupS, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"}};
  }
  /// The tails, reported with the per-layer metrics: on a 4-vCPU virtual
  /// machine with 10-20% of its time stolen by the host, their spread
  /// over ten seeds reached 0.37 (loaded, hot_keys) and 1.2 (serial,
  /// cold_keys) of their median, past the largest bound allowed.
  std::vector<Metric> tails() const {
    return {{"rtt_p99_us", Serial.latencyUs(0.99), "us"},
            {"loaded_p99_us", Piped.latencyUs(0.99), "us"}};
  }
};

/// Sets up \p Repeats times, keeping the last stack; returns it with the
/// median set-up time (compile, server start, warm-up).
std::unique_ptr<Stack> setUp(const Stream &S, unsigned Repeats,
                             double &MedianS) {
  std::unique_ptr<Stack> Live;
  std::vector<double> Times;
  Tally T;
  for (unsigned I = 0; I < Repeats; ++I) {
    Live.reset();
    auto T0 = Clock::now();
    Live = std::make_unique<Stack>(/*OverWire=*/true);
    warm(*Live->endpoint(), S, T);
    Times.push_back(secondsBetween(T0, Clock::now()));
  }
  record("setup+warmup", T, sum(Times));
  MedianS = median(Times);
  return Live;
}

Untraced runUntraced(Stack &St, const Stream &S, const Budget &Serial,
                     const Budget &Piped, double SetupS) {
  Untraced U;
  U.SetupS = SetupS;
  Cursor Cur(S);
  auto E = St.endpoint();
  Delta D;
  D.A = St.telemetry();
  for (unsigned R = 0; R < Rounds; ++R) {
    runSerial(*E, Cur, Serial.perRound(), U.Serial);
    runPipelined(*E, Cur, Piped.perRound(), U.Piped);
  }
  D.B = St.telemetry();
  record("serial", U.Serial.T, U.Serial.seconds());
  record("pipelined", U.Piped.T, U.Piped.seconds());
  U.SimCyclesPerReq =
      D.perReq([](const TelemetrySnapshot &T) { return T.BusyCyclesTotal; });
  U.GenInstrPerWord =
      ratio(D.d([](const TelemetrySnapshot &T) { return T.Memo.GenExecuted; }),
            D.d([](const TelemetrySnapshot &T) { return T.Memo.GenDynWords; }));
  std::printf("samples: serial %zu, pipelined %zu, each in %u interleaved "
              "rounds\n",
              U.Serial.samples(), U.Piped.samples(), Rounds);
  // The exact simulated counters of this request sequence; two runs
  // with the same seed and --requests must print the same line.
  std::printf("fixed-sequence: sim_cycles_per_req=%s gen.instr_per_word=%s\n",
              num(U.SimCyclesPerReq).c_str(), num(U.GenInstrPerWord).c_str());
  return U;
}

//===----------------------------------------------------------------------===//
// The traced run
//===----------------------------------------------------------------------===//

/// The core layers driven directly: one Machine, with early vectors
/// interned by content as the pool's workers intern them (so a repeated
/// early value is answered by the in-VM memo, as in the pool).
class CoreLayer {
public:
  explicit CoreLayer(const Compilation &C) : C(C) { rebuild(); }

  struct Spans {
    double SpecUs = 0, RunUs = 0;
    uint64_t Words = 0, RunInstrs = 0;
  };

  /// Specializes and runs \p Q; false when either step failed or the
  /// result disagrees with the oracle (counted in \p T).
  bool replay(const Request &Q, Tally &T, Spans &Out) {
    // Recycle on heap pressure, with the pool's margin.
    if (std::max(M->heap().heapTop(), M->vm().reg(Hp)) >
        layout::HeapEnd - (1u << 20))
      rebuild();
    std::vector<uint32_t> Early = materialize(Q.Early, /*Intern=*/true);
    VmStats S0 = M->vm().stats();
    auto T0 = Clock::now();
    FabResult<uint32_t> Addr = M->specialize(Q.Fn, Early);
    auto T1 = Clock::now();
    VmStats S1 = M->vm().stats();
    if (!Addr)
      return T.settle(Q, FabResult<int32_t>(Addr.error()));
    std::vector<uint32_t> Late = materialize(Q.Late, /*Intern=*/false);
    auto T2 = Clock::now();
    FabResult<int32_t> R = M->invoke<int32_t>(*Addr, Late);
    auto T3 = Clock::now();
    VmStats S2 = M->vm().stats();
    Out.SpecUs = usBetween(T0, T1);
    Out.RunUs = usBetween(T2, T3);
    Out.Words = S1.DynWordsWritten - S0.DynWordsWritten;
    Out.RunInstrs = S2.Executed - S1.Executed;
    return T.settle(Q, R);
  }

private:
  void rebuild() {
    M.emplace(C);
    Intern.clear();
  }
  std::vector<uint32_t> materialize(const std::vector<Value> &Vals,
                                    bool InternVecs) {
    M->heap().advanceTo(M->vm().reg(Hp));
    std::vector<uint32_t> Words;
    for (const Value &V : Vals) {
      if (V.K == Value::Kind::Int) {
        Words.push_back(static_cast<uint32_t>(V.I));
      } else if (InternVecs) {
        auto [It, Fresh] = Intern.try_emplace(V.Vec, 0);
        if (Fresh)
          It->second = M->heap().vector(V.Vec);
        Words.push_back(It->second);
      } else {
        Words.push_back(M->heap().vector(V.Vec));
      }
    }
    return Words;
  }

  const Compilation &C;
  std::optional<Machine> M;
  std::map<std::vector<int32_t>, uint32_t> Intern;
};

/// Spans of one replayed request.
struct Trace {
  double EncodeNs, DecodeNs, NetUs, ServiceUs;
  CoreLayer::Spans Core;
  bool ServiceHit; ///< the service answered from its cache

  double genUs() const { return ServiceHit ? 0.0 : Core.SpecUs; }
  double serviceSelfUs() const { return ServiceUs - genUs() - Core.RunUs; }
  double netSelfUs() const { return NetUs - ServiceUs; }
};

/// The wire codec on its own: the client's encode of \p Q, and the
/// server's framing + decode of those bytes (checked to round-trip).
void timeCodec(const Request &Q, uint64_t Tag, Trace &Tr) {
  net::SubmitBody B{Q.Fn, Q.Early, Q.Late, 0, 0};
  auto T0 = Clock::now();
  std::vector<uint8_t> Bytes = net::encodeSubmit(Tag, B);
  auto T1 = Clock::now();
  net::FrameReader FR;
  net::Frame F;
  net::SubmitBody Out;
  FR.feed(Bytes.data(), Bytes.size());
  bool Ok = FR.next(F) == net::FrameReader::Status::Ready &&
            net::decodeSubmit(F, Out);
  auto T2 = Clock::now();
  if (!Ok || Out.Fn != Q.Fn || !(Out.Early == Q.Early) || !(Out.Late == Q.Late))
    fail("wire codec did not round-trip a " + Q.Fn + " request");
  Tr.EncodeNs = nsBetween(T0, T1);
  Tr.DecodeNs = nsBetween(T1, T2);
}

uint64_t cacheHits(const TelemetrySnapshot &T) { return T.Cache.Hits; }
uint64_t genWords(const TelemetrySnapshot &T) { return T.Memo.GenDynWords; }

std::vector<double> column(const std::vector<Trace> &Ts,
                           const std::function<double(const Trace &)> &F) {
  std::vector<double> V;
  for (const Trace &T : Ts)
    V.push_back(F(T));
  return V;
}

std::vector<Metric> compileMetrics() {
  FabiusOptions Opts = servedOptions();
  std::string Src = programSource();
  std::vector<double> Parse, Check, Stage, Gen;
  for (unsigned I = 0; I < CompileRepeats; ++I) {
    DiagnosticEngine Diags;
    ml::TypeContext Types;
    CompiledUnit Unit;
    auto T0 = Clock::now();
    std::unique_ptr<ml::Program> P = ml::parse(Src, Diags);
    auto T1 = Clock::now();
    bool Ok = !Diags.hasErrors() && ml::typecheck(*P, Types, Diags);
    auto T2 = Clock::now();
    Ok = Ok && analyzeStaging(*P, Diags);
    auto T3 = Clock::now();
    Ok = Ok && compileProgram(*P, Opts.Backend, Unit, Diags);
    auto T4 = Clock::now();
    if (!Ok)
      fail("compile failed:\n" + Diags.str());
    Parse.push_back(usBetween(T0, T1));
    Check.push_back(usBetween(T1, T2));
    Stage.push_back(usBetween(T2, T3));
    Gen.push_back(usBetween(T3, T4));
  }
  return {{"ml.parse_us", median(Parse), "us"},
          {"ml.typecheck_us", median(Check), "us"},
          {"staging.analyze_us", median(Stage), "us"},
          {"backend.compile_us", median(Gen), "us"}};
}

struct TracedBudgets {
  Budget Replay, Piped, InProcess;
};

std::vector<Metric> runTraced(const Stream &S, const TracedBudgets &B,
                              const Untraced &U) {
  // Three identically warmed copies of the layers: behind the wire, in
  // process, and a bare Machine. Each sees the same request sequence, so
  // each takes the same path for the same request.
  Stack Wire(/*OverWire=*/true), Proc(/*OverWire=*/false);
  CoreLayer Core(*Wire.Comp);
  {
    Tally T;
    auto T0 = Clock::now();
    auto WE = Wire.endpoint(), PE = Proc.endpoint();
    warm(*WE, S, T);
    warm(*PE, S, T);
    CoreLayer::Spans Ignored;
    for (const Request &Q : S.Warmup)
      if (Q.K == Request::Kind::Call)
        Core.replay(Q, T, Ignored);
    record("traced warmup", T, secondsBetween(T0, Clock::now()));
  }

  // -- Layer replay, one request at a time.
  std::vector<Trace> Ts;
  Tally TNet, TSvc, TCore;
  Cursor Cur(S);
  Cur.beginRound(std::min(B.Replay.maxRequests(), MaxReplay));
  size_t PathMismatches = 0;
  auto TR0 = Clock::now();
  for (uint64_t Tag = 1;; ++Tag) {
    if (B.Replay.done(secondsBetween(TR0, Clock::now()), TNet.Sent) ||
        Cur.exhausted() || Ts.size() >= MaxReplay)
      break;
    const Request &Q = Cur.take();
    if (Q.K == Request::Kind::Invalidate) {
      TNet.settle(Q, Wire.Client.invalidate(Q.Fn));
      TSvc.settle(Q, Proc.Server->invalidate(Q.Fn));
      continue;
    }
    Trace Tr{};
    timeCodec(Q, Tag, Tr);

    Delta DW, DP;
    DW.A = Wire.telemetry();
    auto T0 = Clock::now();
    net::WireReply RW = Wire.Client.call(Q.Fn, Q.Early, Q.Late);
    auto T1 = Clock::now();
    DW.B = Wire.telemetry();
    bool Good = TNet.settle(Q, RW);

    DP.A = Proc.telemetry();
    auto T2 = Clock::now();
    FabResult<int32_t> RP = Proc.Server->call(Q.Fn, Q.Early, Q.Late);
    auto T3 = Clock::now();
    DP.B = Proc.telemetry();
    Good &= TSvc.settle(Q, RP);
    Good &= Core.replay(Q, TCore, Tr.Core);
    if (!Good)
      continue;

    Tr.NetUs = usBetween(T0, T1);
    Tr.ServiceUs = usBetween(T2, T3);
    Tr.ServiceHit = DP.d(cacheHits) > 0;
    // The wire-side and in-process stacks must take the same path.
    PathMismatches += DW.d(cacheHits) != DP.d(cacheHits) ||
                      DW.d(genWords) != DP.d(genWords);
    Ts.push_back(Tr);
  }
  double ReplayS = secondsBetween(TR0, Clock::now());
  record("replay net", TNet, ReplayS);
  record("replay service", TSvc, ReplayS);
  record("replay core", TCore, ReplayS);
  if (Ts.empty())
    fail("the layer replay completed no request");

  std::vector<double> Ping;
  for (unsigned I = 0; I < PingRounds; ++I) {
    auto T0 = Clock::now();
    if (!Wire.Client.ping())
      fail("ping failed");
    Ping.push_back(usBetween(T0, Clock::now()));
  }

  // -- Pipelined again, on the traced stack, then the same slice of the
  //    stream in process.
  Cursor ProcCur = Cur;
  Delta DW;
  DW.A = Wire.telemetry();
  auto WE = Wire.endpoint();
  Phase Piped, InProc;
  for (unsigned R = 0; R < Rounds; ++R)
    runPipelined(*WE, Cur, B.Piped.perRound(), Piped);
  DW.B = Wire.telemetry();
  record("traced pipelined", Piped.T, Piped.seconds());
  auto PE = Proc.endpoint();
  for (unsigned R = 0; R < Rounds; ++R)
    runPipelined(*PE, ProcCur, B.InProcess.perRound(), InProc);
  record("in-process pipelined", InProc.T, InProc.seconds());

  // -- Self times along each request's blocking path.
  auto NetUs = column(Ts, [](const Trace &T) { return T.NetUs; });
  auto GenUs = column(Ts, [](const Trace &T) { return T.genUs(); });
  size_t Negative = 0;
  std::vector<double> SumErr;
  for (const Trace &T : Ts) {
    double Parts[] = {T.netSelfUs(), T.serviceSelfUs(), T.genUs(),
                      T.Core.RunUs};
    double Clamped = 0;
    bool Neg = false;
    for (double P : Parts) {
      Neg |= P < 0;
      Clamped += std::max(0.0, P);
    }
    Negative += Neg;
    SumErr.push_back(ratio(std::fabs(Clamped - T.NetUs), T.NetUs));
  }
  double GenSpecUs = 0, GenWords = 0, RunUs = 0, RunInstrs = 0;
  for (const Trace &T : Ts) {
    if (T.Core.Words) {
      GenSpecUs += T.Core.SpecUs;
      GenWords += static_cast<double>(T.Core.Words);
    }
    RunUs += T.Core.RunUs;
    RunInstrs += static_cast<double>(T.Core.RunInstrs);
  }

  auto served = [&](auto F) { return DW.perReq(F); };
  auto perKreq = [&](auto F) { return DW.perKreq(F); };
  double Traced = Piped.ratePerS(), InProcRate = InProc.ratePerS();
  double Untr = U.Piped.ratePerS();
  double TracedRtt50 = median(NetUs), TracedRtt99 = quantile(NetUs, 0.99);

  std::vector<Metric> Ms = compileMetrics();
  std::vector<Metric> More = {
      // Generator: core specialize + backend emission.
      {"core.specialize_us",
       median(column(Ts, [](const Trace &T) { return T.Core.SpecUs; })), "us"},
      {"gen.host_ns_per_word", ratio(GenSpecUs * 1000.0, GenWords), "ns"},
      {"gen.instr_per_word",
       ratio(DW.d([](const TelemetrySnapshot &T) { return T.Memo.GenExecuted; }),
             DW.d(genWords)),
       "instr"},
      {"gen.words_per_req", served(genWords), "words"},
      {"gen.share_of_net", ratio(sum(GenUs), sum(NetUs)), "share"},
      {"gen.sim_share",
       ratio(DW.d([](const TelemetrySnapshot &T) { return T.Memo.GenExecuted; }),
             DW.d([](const TelemetrySnapshot &T) { return T.Vm.Executed; })),
       "share"},
      // VM.
      {"core.run_us",
       median(column(Ts, [](const Trace &T) { return T.Core.RunUs; })), "us"},
      {"vm.host_ns_per_instr", ratio(RunUs * 1000.0, RunInstrs), "ns"},
      {"vm.instr_per_req",
       served([](const TelemetrySnapshot &T) { return T.Vm.Executed; }),
       "instr"},
      {"vm.blocks_built_per_req",
       served([](const TelemetrySnapshot &T) {
         return T.DecodeCache.BlocksBuilt;
       }),
       "blocks"},
      {"vm.block_invalidations_per_req",
       served([](const TelemetrySnapshot &T) {
         return T.DecodeCache.Invalidations;
       }),
       "blocks"},
      {"vm.fast_path_share",
       ratio(DW.d([](const TelemetrySnapshot &T) {
               return T.DecodeCache.FastInsts;
             }),
             DW.d([](const TelemetrySnapshot &T) {
               return T.DecodeCache.FastInsts + T.DecodeCache.SlowInsts;
             })),
       "share"},
      // Service.
      {"service.call_p50_us",
       median(column(Ts, [](const Trace &T) { return T.ServiceUs; })), "us"},
      {"service.call_p99_us",
       quantile(column(Ts, [](const Trace &T) { return T.ServiceUs; }), 0.99),
       "us"},
      {"service.self_us",
       median(column(Ts, [](const Trace &T) { return T.serviceSelfUs(); })),
       "us"},
      {"service.inprocess_req_per_s", InProcRate, "1/s"},
      {"service.cache_hit_rate",
       ratio(DW.d(cacheHits),
             DW.d([](const TelemetrySnapshot &T) {
               return T.Cache.Hits + T.Cache.Misses;
             })),
       "share"},
      {"service.admission_rejects_per_kreq",
       perKreq([](const TelemetrySnapshot &T) {
         return T.Cache.AdmissionRejects;
       }),
       "count"},
      {"service.evictions_per_kreq",
       perKreq([](const TelemetrySnapshot &T) { return T.Cache.Evictions; }),
       "count"},
      {"service.compactions_per_kreq",
       perKreq([](const TelemetrySnapshot &T) { return T.Cache.Compactions; }),
       "count"},
      {"service.invalidated_per_kreq",
       perKreq([](const TelemetrySnapshot &T) { return T.Cache.Invalidated; }),
       "count"},
      {"service.heap_recycles_per_kreq",
       perKreq([](const TelemetrySnapshot &T) { return T.HeapRecycles; }),
       "count"},
      {"core.resets_per_kreq",
       perKreq([](const TelemetrySnapshot &T) {
         return T.Recovery.WatermarkResets + T.Recovery.FaultResets;
       }),
       "count"},
      // Net.
      {"net.ping_rtt_us", median(Ping), "us"},
      {"net.self_us",
       median(column(Ts, [](const Trace &T) { return T.netSelfUs(); })), "us"},
      {"net.encode_ns",
       median(column(Ts, [](const Trace &T) { return T.EncodeNs; })), "ns"},
      {"net.decode_ns",
       median(column(Ts, [](const Trace &T) { return T.DecodeNs; })), "ns"},
      {"net.frames_per_read_batch",
       ratio(DW.d([](const TelemetrySnapshot &T) { return T.Net.FramesIn; }),
             DW.d([](const TelemetrySnapshot &T) { return T.Net.ReadBatches; })),
       "frames"},
      {"net.reactor_wakeups_per_kreq",
       perKreq([](const TelemetrySnapshot &T) { return T.Reactor.Wakeups; }),
       "count"},
      {"net.overhead_factor", ratio(InProcRate, Untr), "x"},
      // The traced run's own end-to-end numbers, and what tracing cost.
      {"traced.req_per_s", Traced, "1/s"},
      {"traced.rtt_p50_us", TracedRtt50, "us"},
      {"traced.rtt_p99_us", TracedRtt99, "us"},
      {"traced.loaded_p99_us", Piped.latencyUs(0.99), "us"},
      {"trace.overhead_req_per_s", ratio(Untr, Traced) - 1.0, "share"},
      {"trace.overhead_rtt_p50", ratio(TracedRtt50, U.Serial.latencyUs(0.5)) - 1.0,
       "share"},
      // Self times summed along each request's blocking path against its
      // net span: a negative self time means a child span outlasted its
      // parent.
      {"trace.negative_self_share",
       ratio(static_cast<double>(Negative), static_cast<double>(Ts.size())),
       "share"},
      {"trace.self_sum_error", median(SumErr), "share"},
      {"trace.path_mismatch_share",
       ratio(static_cast<double>(PathMismatches),
             static_cast<double>(Ts.size())),
       "share"},
      {"trace.replayed_requests", static_cast<double>(Ts.size()), "count"},
  };
  Ms.insert(Ms.end(), More.begin(), More.end());

  std::printf("\ntraced vs untraced end to end:\n");
  std::printf("  %-16s %14s %14s\n", "metric", "untraced", "traced");
  std::printf("  %-16s %14.1f %14.1f\n", "req_per_s", Untr, Traced);
  std::printf("  %-16s %14.2f %14.2f\n", "rtt_p50_us",
              U.Serial.latencyUs(0.5), TracedRtt50);
  std::printf("  %-16s %14.2f %14.2f\n", "rtt_p99_us",
              U.Serial.latencyUs(0.99), TracedRtt99);
  std::printf("  %-16s %14.2f %14.2f\n", "loaded_p99_us",
              U.Piped.latencyUs(0.99), Piped.latencyUs(0.99));
  std::printf("\nblocking path (sums over %zu replayed requests): net %.0f us"
              " = net.self %.0f + service.self %.0f + generator %.0f + vm "
              "%.0f\n",
              Ts.size(), sum(NetUs),
              sum(column(Ts, [](const Trace &T) { return T.netSelfUs(); })),
              sum(column(Ts, [](const Trace &T) { return T.serviceSelfUs(); })),
              sum(GenUs), RunUs);
  return Ms;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "hot_keys|cold_keys|zipf_churn --seed N --seconds S "
               "--trace 0|1 [--requests N]\n",
               Msg);
  std::exit(2);
}

uint64_t parseNum(const char *S) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!End || *End || End == S)
    usage("malformed number");
  return V;
}

} // namespace

int main(int argc, char **argv) {
  std::optional<Workload> W;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  size_t Fixed = 0;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + A).c_str());
    const char *V = argv[++I];
    if (A == "--workload") {
      if (!(W = parseWorkload(V)))
        usage("unknown workload");
    } else if (A == "--seed") {
      Seed = parseNum(V);
    } else if (A == "--seconds") {
      Seconds = static_cast<double>(parseNum(V));
    } else if (A == "--trace") {
      Traced = parseNum(V) != 0;
    } else if (A == "--requests") {
      Fixed = parseNum(V);
    } else {
      usage(("unknown option " + A).c_str());
    }
  }
  if (!W || Seconds <= 0)
    usage("--workload and a positive --seconds are required");

  Stream S = makeStream(*W, Seed);
  std::printf("perfbench: workload %s, seed %llu, %s, %u pool workers, 1 "
              "reactor shard, 1 client thread on 1 connection, window %zu, "
              "threads %s\n",
              workloadName(*W), (unsigned long long)Seed,
              Fixed ? (std::to_string(Fixed) + " requests per phase").c_str()
                    : (std::to_string(Seconds) + " s").c_str(),
              PoolWorkers, Window, Threads.pinned() ? "pinned" : "unpinned");

  auto share = [&](double F) {
    Budget B;
    B.Seconds = Seconds * F;
    B.Requests = Fixed;
    return B;
  };
  double SetupS = 0;
  std::unique_ptr<Stack> St = setUp(S, Traced ? 1 : SetupRepeats, SetupS);
  Untraced U = Traced ? runUntraced(*St, S, share(0.15), share(0.20), SetupS)
                      : runUntraced(*St, S, share(0.4), share(0.6), SetupS);
  St.reset();

  std::vector<Metric> Out = U.endToEnd();
  printMetrics("end-to-end (untraced):", Out);
  printMetrics("tails (untraced):", U.tails());
  if (Traced) {
    Out = runTraced(S, {share(0.30), share(0.20), share(0.15)}, U);
    printMetrics("per-layer (traced):", Out);
  }

  Tally All;
  for (const auto &[Name, T] : AllTallies)
    All += T;
  double ErrorRate = ratio(static_cast<double>(All.failed()),
                           static_cast<double>(All.Sent));
  std::printf("\nerror_rate %.6g (%llu of %llu requests failed, were "
              "refused or mismatched)\n",
              ErrorRate, (unsigned long long)All.failed(),
              (unsigned long long)All.Sent);
  if (Traced) {
    for (const Metric &M : U.tails())
      Out.push_back(M);
    Out.push_back({"error_rate", ErrorRate, "share"});
  }
  bool Correct = All.Mismatch == 0 && All.Sent > 0;
  printJson(Correct, Out);
  return Correct ? 0 : 1;
}
