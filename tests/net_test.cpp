//===- net_test.cpp - Wire protocol + TCP front-end tests -----------------===//
//
// Covers src/net/ (docs/WIRE.md): the pure codec (frame round trips,
// preamble validation, incremental FrameReader over fragmented input,
// decode limits), and the loopback integration of WireServer +
// FabClient over a real SpecServer — pipelined out-of-order completion,
// four concurrent clients running mixed submit/call/invalidate traffic
// validated byte-for-byte against an in-process SpecServer oracle,
// overload refusals arriving as typed Error frames with retry-after
// hints (never disconnects), and TelemetrySnapshot::Net summing exactly
// across connections.
//
//===----------------------------------------------------------------------===//

#include "net/FabClient.h"
#include "net/WireServer.h"

#include "bpf/Bpf.h"
#include "support/Rng.h"
#include "workloads/MlPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

using namespace fab;
using namespace fab::net;
using fab::service::ServerOptions;
using fab::service::SpecServer;
using fab::service::Value;

namespace {

std::string mixedSrc() {
  return std::string(workloads::MatmulSrc) + "\n" + workloads::EvalSrc;
}

FabiusOptions mixedOptions() {
  FabiusOptions Opts = FabiusOptions::deferred();
  Opts.Backend.MemoizedSelfCalls.insert("eval");
  return Opts;
}

struct MixedRequest {
  std::string Fn;
  std::vector<Value> Early, Late;
};

std::vector<MixedRequest> mixedWorkload(size_t Count, uint64_t Seed) {
  Rng R(Seed);
  const uint32_t N = 16;
  std::vector<std::vector<int32_t>> Rows;
  for (int I = 0; I < 6; ++I) {
    std::vector<int32_t> Row(N);
    for (uint32_t J = 0; J < N; ++J)
      Row[J] = static_cast<int32_t>(R.next() % 100) - 20;
    Rows.push_back(Row);
  }
  bpf::Program Filter = bpf::telnetFilter();
  auto Trace = bpf::makeTrace(16, Seed ^ 0x9E3779B9u);

  std::vector<MixedRequest> Reqs;
  for (size_t I = 0; I < Count; ++I) {
    if (I % 3 == 2) {
      MixedRequest Q;
      Q.Fn = "eval";
      Q.Early = {Value::ofVec(Filter.Words), Value::ofInt(0)};
      Q.Late = {Value::ofInt(0), Value::ofInt(0),
                Value::ofVec(std::vector<int32_t>(16, 0)),
                Value::ofVec(Trace[I % Trace.size()])};
      Reqs.push_back(std::move(Q));
    } else {
      std::vector<int32_t> Col(N);
      for (uint32_t J = 0; J < N; ++J)
        Col[J] = static_cast<int32_t>(R.next() % 50) - 10;
      MixedRequest Q;
      Q.Fn = "dotloop";
      Q.Early = {Value::ofVec(Rows[I % Rows.size()]), Value::ofInt(0),
                 Value::ofInt(static_cast<int32_t>(N))};
      Q.Late = {Value::ofVec(Col), Value::ofInt(0)};
      Reqs.push_back(std::move(Q));
    }
  }
  return Reqs;
}

/// A WireServer over a fresh SpecServer on an ephemeral loopback port.
struct LoopbackServer {
  explicit LoopbackServer(const Compilation &C, unsigned Workers = 2,
                          WireOptions WO = {}) {
    ServerOptions SO;
    SO.Pool.Workers = Workers;
    Server = std::make_unique<SpecServer>(C, SO);
    Wire = std::make_unique<WireServer>(*Server, WO);
    std::string Err;
    Started = Wire->start(&Err);
    EXPECT_TRUE(Started) << Err;
  }
  ~LoopbackServer() {
    Wire->stop();
    Server->shutdown();
  }
  FabClient client() {
    FabClient Cl;
    std::string Err;
    EXPECT_TRUE(Cl.connect("127.0.0.1", Wire->port(), &Err)) << Err;
    return Cl;
  }

  std::unique_ptr<SpecServer> Server;
  std::unique_ptr<WireServer> Wire;
  bool Started = false;
};

} // namespace

//===----------------------------------------------------------------------===//
// Codec
//===----------------------------------------------------------------------===//

TEST(WireCodec, PreambleRoundTrip) {
  std::vector<uint8_t> P = encodePreamble();
  ASSERT_EQ(P.size(), PreambleBytes);
  EXPECT_EQ(decodePreamble(P.data(), P.size()), PreambleStatus::Ok);

  std::vector<uint8_t> Bad = P;
  Bad[0] ^= 0xFF;
  EXPECT_EQ(decodePreamble(Bad.data(), Bad.size()), PreambleStatus::BadMagic);

  std::vector<uint8_t> Ver = P;
  Ver[4] = 0x63; // version 99
  Ver[5] = 0x00;
  EXPECT_EQ(decodePreamble(Ver.data(), Ver.size()),
            PreambleStatus::BadVersion);
}

TEST(WireCodec, SubmitRoundTrip) {
  SubmitBody In;
  In.Fn = "dotloop";
  In.Early = {Value::ofVec({1, -2, 3}), Value::ofInt(0), Value::ofInt(3)};
  In.Late = {Value::ofVec({}), Value::ofInt(-7)};
  In.DeadlineNs = 123456789;
  In.MaxRetries = 2;

  std::vector<uint8_t> Bytes = encodeSubmit(0xDEADBEEFCAFEull, In);
  FrameReader FR;
  FR.feed(Bytes.data(), Bytes.size());
  Frame F;
  ASSERT_EQ(FR.next(F), FrameReader::Status::Ready);
  EXPECT_EQ(F.H.Type, FrameType::SubmitSpecialize);
  EXPECT_EQ(F.H.Tag, 0xDEADBEEFCAFEull);

  SubmitBody Out;
  ASSERT_TRUE(decodeSubmit(F, Out));
  EXPECT_EQ(Out.Fn, In.Fn);
  ASSERT_EQ(Out.Early.size(), 3u);
  EXPECT_EQ(Out.Early[0].Vec, (std::vector<int32_t>{1, -2, 3}));
  EXPECT_EQ(Out.Early[2].I, 3);
  ASSERT_EQ(Out.Late.size(), 2u);
  EXPECT_TRUE(Out.Late[0].Vec.empty());
  EXPECT_EQ(Out.Late[1].I, -7);
  EXPECT_EQ(Out.DeadlineNs, In.DeadlineNs);
  EXPECT_EQ(Out.MaxRetries, In.MaxRetries);
}

TEST(WireCodec, ReplyRoundTrips) {
  Frame F;
  FrameReader FR;

  std::vector<uint8_t> R = encodeResult(7, -123);
  FR.feed(R.data(), R.size());
  ASSERT_EQ(FR.next(F), FrameReader::Status::Ready);
  int32_t V = 0;
  ASSERT_TRUE(decodeResult(F, V));
  EXPECT_EQ(V, -123);

  std::vector<uint8_t> E =
      encodeError(9, wireCode(FabErrc::Rejected), 250, "queue full");
  FR.feed(E.data(), E.size());
  ASSERT_EQ(FR.next(F), FrameReader::Status::Ready);
  ErrorBody EB;
  ASSERT_TRUE(decodeError(F, EB));
  EXPECT_EQ(EB.Code, 5u); // FabErrc::Rejected is ABI-locked to 5
  EXPECT_EQ(EB.RetryAfterUs, 250u);
  EXPECT_EQ(EB.Message, "queue full");

  MetricList Pairs = {{"served", 41}, {"errors", 1}};
  std::vector<uint8_t> S = encodeStatsReply(11, Pairs);
  FR.feed(S.data(), S.size());
  ASSERT_EQ(FR.next(F), FrameReader::Status::Ready);
  MetricList Out;
  ASSERT_TRUE(decodeStatsReply(F, Out));
  EXPECT_EQ(Out, Pairs);

  std::vector<uint8_t> I = encodeInvalidateReply(13, 99);
  FR.feed(I.data(), I.size());
  ASSERT_EQ(FR.next(F), FrameReader::Status::Ready);
  uint64_t Dropped = 0;
  ASSERT_TRUE(decodeInvalidateReply(F, Dropped));
  EXPECT_EQ(Dropped, 99u);
}

TEST(WireCodec, FrameReaderHandlesFragmentation) {
  // Three frames delivered one byte at a time must still parse exactly.
  std::vector<uint8_t> Stream;
  for (uint64_t T = 1; T <= 3; ++T) {
    std::vector<uint8_t> F = encodePing(T);
    Stream.insert(Stream.end(), F.begin(), F.end());
  }
  FrameReader FR;
  Frame F;
  unsigned Got = 0;
  for (uint8_t B : Stream) {
    FR.feed(&B, 1);
    while (FR.next(F) == FrameReader::Status::Ready) {
      ++Got;
      EXPECT_EQ(F.H.Type, FrameType::Ping);
      EXPECT_EQ(F.H.Tag, Got);
    }
  }
  EXPECT_EQ(Got, 3u);
  EXPECT_EQ(FR.pendingBytes(), 0u);
}

TEST(WireCodec, DecodeRejectsMalformedPayloads) {
  // Trailing garbage after a valid payload is a framing bug.
  SubmitBody B;
  B.Fn = "f";
  std::vector<uint8_t> Bytes = encodeSubmit(1, B);
  Frame F;
  FrameReader FR;
  FR.feed(Bytes.data(), Bytes.size());
  ASSERT_EQ(FR.next(F), FrameReader::Status::Ready);
  F.Payload.push_back(0);
  F.H.Len++;
  SubmitBody Out;
  EXPECT_FALSE(decodeSubmit(F, Out));

  // Truncated payload.
  FR.feed(Bytes.data(), Bytes.size());
  ASSERT_EQ(FR.next(F), FrameReader::Status::Ready);
  F.Payload.pop_back();
  EXPECT_FALSE(decodeSubmit(F, Out));

  // A value list longer than the ceiling is refused without allocating.
  std::vector<uint8_t> P;
  putStr(P, "f");
  putU16(P, 0xFFFF); // 65535 values
  Frame Big;
  Big.H.Type = FrameType::Call;
  Big.Payload = P;
  Big.H.Len = static_cast<uint32_t>(P.size());
  EXPECT_FALSE(decodeSubmit(Big, Out));
}

TEST(WireCodec, StatsReplyNeverExceedsWhatTheClientDecodes) {
  // A snapshot with many worker, shard and entry rows: its metric list is
  // longer than one StatsReply may carry.
  TelemetrySnapshot T;
  T.Workers = 64;
  for (unsigned W = 0; W < 64; ++W)
    T.WorkerLoads.push_back({W, W, 0, 0, 0, 0, W, 0});
  T.Net.Connections = 1;
  T.Reactor.Wakeups = 1;
  for (unsigned Sh = 0; Sh < 64; ++Sh)
    T.ShardLoads.push_back({Sh, {}, {}});
  for (int I = 0; I < 1000; ++I)
    T.Entries.push_back({"fn" + std::to_string(I), 1, 0, 0, 0, 1});
  const MetricList All = T.metrics();
  ASSERT_GT(All.size(), MaxStatsPairs);

  FrameReader FR;
  Frame F;
  std::vector<uint8_t> B = encodeStatsReply(7, All);
  FR.feed(B.data(), B.size());
  ASSERT_EQ(FR.next(F), FrameReader::Status::Ready);
  MetricList Out;
  ASSERT_TRUE(decodeStatsReply(F, Out));
  // The reply is the list's first MaxStatsPairs entries; the aggregate
  // sections come before the per-row ones, so they all arrive.
  ASSERT_EQ(Out.size(), MaxStatsPairs);
  EXPECT_TRUE(std::equal(Out.begin(), Out.end(), All.begin()));

  // A list within the cap arrives whole.
  T.Entries.resize(10);
  B = encodeStatsReply(8, T.metrics());
  FR.feed(B.data(), B.size());
  ASSERT_EQ(FR.next(F), FrameReader::Status::Ready);
  ASSERT_TRUE(decodeStatsReply(F, Out));
  EXPECT_EQ(Out, T.metrics());
}

TEST(WireCodec, OversizedFrameRefusedBeforeAllocation) {
  FrameReader FR(/*MaxFrameBytes=*/1024);
  std::vector<uint8_t> Hdr;
  putU32(Hdr, 1u << 30); // 1 GiB length prefix
  Hdr.push_back(static_cast<uint8_t>(FrameType::Call));
  Hdr.push_back(0);
  putU16(Hdr, 0);
  putU64(Hdr, 42); // tag
  FR.feed(Hdr.data(), Hdr.size());
  Frame F;
  EXPECT_EQ(FR.next(F), FrameReader::Status::TooLarge);
  EXPECT_EQ(FR.offendingTag(), 42u);
}

//===----------------------------------------------------------------------===//
// Loopback integration
//===----------------------------------------------------------------------===//

TEST(WireLoopback, PingCallInvalidateStats) {
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  LoopbackServer S(C);
  FabClient Cl = S.client();

  EXPECT_TRUE(Cl.ping());

  // dotloop([1,2,3], 0, 3) . ([4,5,6], 0) = 32, against the host oracle.
  WireReply R = Cl.call(
      "dotloop", {Value::ofVec({1, 2, 3}), Value::ofInt(0), Value::ofInt(3)},
      {Value::ofVec({4, 5, 6}), Value::ofInt(0)});
  ASSERT_TRUE(R.Ok) << R.Message;
  EXPECT_EQ(R.Value, 32);

  // Same key again: served from cache, same value.
  R = Cl.call("dotloop",
              {Value::ofVec({1, 2, 3}), Value::ofInt(0), Value::ofInt(3)},
              {Value::ofVec({4, 5, 6}), Value::ofInt(0)});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value, 32);

  // Invalidate drops the cached specialization; the next call still
  // returns the right answer (it re-specializes).
  WireReply Inv = Cl.invalidate("dotloop");
  ASSERT_TRUE(Inv.Ok) << Inv.Message;
  EXPECT_EQ(Inv.Value, 1);
  R = Cl.call("dotloop",
              {Value::ofVec({1, 2, 3}), Value::ofInt(0), Value::ofInt(3)},
              {Value::ofVec({4, 5, 6}), Value::ofInt(0)});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value, 32);

  MetricList P;
  ASSERT_TRUE(Cl.stats(P));
  auto get = [&](const std::string &K) -> uint64_t {
    for (const auto &KV : P)
      if (KV.first == K)
        return KV.second;
    ADD_FAILURE() << "missing stats key " << K;
    return 0;
  };
  EXPECT_EQ(get("cache.invalidated"), 1u);
  EXPECT_GE(get("server.served"), 3u);
  EXPECT_GE(get("net.frames_in"), 5u);
}

TEST(WireLoopback, StatsReplyAndWriteTextRenderTheMetricList) {
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  LoopbackServer S(C);
  FabClient Cl = S.client();
  // The same key twice: one cache miss, then one hit.
  for (int I = 0; I < 2; ++I) {
    WireReply R = Cl.call(
        "dotloop", {Value::ofVec({1, 2, 3}), Value::ofInt(0), Value::ofInt(3)},
        {Value::ofVec({4, 5, 6}), Value::ofInt(0)});
    ASSERT_TRUE(R.Ok) << R.Message;
  }

  MetricList Reply;
  ASSERT_TRUE(Cl.stats(Reply));
  const TelemetrySnapshot T = S.Wire->telemetry();
  const MetricList Local = T.metrics();

  // Same names, same order. The stats exchange itself moves only net and
  // reactor counters, so served work and cache counters agree exactly.
  auto names = [](const MetricList &L) {
    std::vector<std::string> N;
    for (const auto &KV : L)
      N.push_back(KV.first);
    return N;
  };
  EXPECT_EQ(names(Reply), names(Local));
  auto value = [](const MetricList &L, const std::string &Name) -> uint64_t {
    for (const auto &[N, V] : L)
      if (N == Name)
        return V;
    ADD_FAILURE() << "missing metric " << Name;
    return 0;
  };
  for (const char *Name : {"server.served", "cache.hits", "cache.misses",
                           "memo.gen_dyn_words", "entry.dotloop.calls"})
    EXPECT_EQ(value(Reply, Name), value(Local, Name)) << Name;
  EXPECT_EQ(value(Reply, "server.served"), 2u);
  EXPECT_EQ(value(Reply, "cache.hits"), 1u);
  EXPECT_EQ(value(Reply, "reactor.shards"), S.Wire->shards());

  // writeText: one `fab.<name> <value>` line per list entry, in order,
  // then exactly the two derived ratios.
  std::istringstream Text(T.text());
  std::string Line;
  for (const auto &[N, V] : Local) {
    ASSERT_TRUE(std::getline(Text, Line));
    EXPECT_EQ(Line, "fab." + N + " " + std::to_string(V));
  }
  for (const char *Ratio :
       {"fab.memo.generator_efficiency ", "fab.reactor.wakeup_batch "}) {
    ASSERT_TRUE(std::getline(Text, Line));
    EXPECT_EQ(Line.rfind(Ratio, 0), 0u) << Line;
  }
  EXPECT_FALSE(std::getline(Text, Line)) << Line;
}

TEST(WireLoopback, PipelinedRepliesArriveOutOfOrderSafely) {
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  LoopbackServer S(C, /*Workers=*/4);
  FabClient Cl = S.client();

  // Issue a window of submits with distinct keys (they fan out across
  // workers and complete in arbitrary order), then wait newest-first —
  // the reverse of submission order.
  const int K = 24;
  std::vector<uint64_t> Tags;
  std::vector<int32_t> Expect;
  for (int I = 0; I < K; ++I) {
    std::vector<int32_t> Row = {I + 1, I + 2, I + 3};
    std::vector<int32_t> Col = {2, 3, 4};
    int32_t Dot = 0;
    for (int J = 0; J < 3; ++J)
      Dot += Row[J] * Col[J];
    Tags.push_back(Cl.submit(
        "dotloop", {Value::ofVec(Row), Value::ofInt(0), Value::ofInt(3)},
        {Value::ofVec(Col), Value::ofInt(0)}));
    ASSERT_NE(Tags.back(), 0u);
    Expect.push_back(Dot);
  }
  for (int I = K - 1; I >= 0; --I) {
    WireReply R = Cl.wait(Tags[I]);
    ASSERT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.Value, Expect[I]) << "request " << I;
  }

  TelemetrySnapshot T = S.Wire->telemetry();
  EXPECT_GE(T.Net.PipelineHighWater, 2u);
}

TEST(WireLoopback, FourConcurrentClientsMatchInProcessOracle) {
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());

  // The oracle: the same requests through an in-process SpecServer.
  ServerOptions OracleSO;
  OracleSO.Pool.Workers = 2;
  SpecServer Oracle(C, OracleSO);

  LoopbackServer S(C, /*Workers=*/4);

  const unsigned NumClients = 4;
  const size_t PerClient = 90;
  const size_t Window = 12; // pipelining depth
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  std::vector<uint64_t> FramesSent(NumClients, 0);

  for (unsigned Ci = 0; Ci < NumClients; ++Ci)
    Threads.emplace_back([&, Ci] {
      std::vector<MixedRequest> Reqs = mixedWorkload(PerClient, 1000 + Ci);
      FabClient Cl;
      std::string Err;
      if (!Cl.connect("127.0.0.1", S.Wire->port(), &Err)) {
        ++Failures;
        return;
      }
      size_t Next = 0;
      std::vector<std::pair<uint64_t, size_t>> InFlight;
      uint64_t Sent = 0;
      while (Next < Reqs.size() || !InFlight.empty()) {
        while (Next < Reqs.size() && InFlight.size() < Window) {
          uint64_t Tag;
          if (Next % 10 == 9) {
            // Mixed-in invalidate traffic, pipelined like everything else.
            Tag = Cl.submitInvalidate(Reqs[Next].Fn);
          } else {
            Tag = Cl.submit(Reqs[Next].Fn, Reqs[Next].Early,
                            Reqs[Next].Late);
          }
          if (Tag == 0) {
            ++Failures;
            return;
          }
          ++Sent;
          InFlight.emplace_back(Tag, Next);
          ++Next;
        }
        auto Oldest = InFlight.front();
        InFlight.erase(InFlight.begin());
        WireReply R = Cl.wait(Oldest.first);
        if (!R.Ok) {
          ++Failures;
          continue;
        }
        if (Oldest.second % 10 == 9)
          continue; // invalidate reply: a drop count, no oracle value
        auto F = Oracle.submit(Reqs[Oldest.second].Fn,
                               Reqs[Oldest.second].Early,
                               Reqs[Oldest.second].Late);
        FabResult<int32_t> Want = F.get();
        if (!Want.ok() || *Want != R.Value)
          ++Failures;
      }
      FramesSent[Ci] = Sent;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);

  // Exact accounting: the pool-wide Net block equals the sum of the
  // per-connection rows, and the request counters equal what the
  // clients actually sent.
  TelemetrySnapshot T = S.Wire->telemetry();
  NetStats Sum;
  for (const ConnStatsRow &Row : S.Wire->connectionStats())
    Sum += Row.Net;
  EXPECT_EQ(T.Net.FramesIn, Sum.FramesIn);
  EXPECT_EQ(T.Net.FramesOut, Sum.FramesOut);
  EXPECT_EQ(T.Net.BytesIn, Sum.BytesIn);
  EXPECT_EQ(T.Net.BytesOut, Sum.BytesOut);
  EXPECT_EQ(T.Net.Submits, Sum.Submits);
  EXPECT_EQ(T.Net.Connections, NumClients);

  uint64_t TotalSent = 0;
  for (uint64_t N : FramesSent)
    TotalSent += N;
  EXPECT_EQ(T.Net.FramesIn, TotalSent);
  EXPECT_EQ(T.Net.FramesOut, TotalSent); // one reply per request
  EXPECT_EQ(T.Net.Submits + T.Net.Invalidates, TotalSent);
  EXPECT_EQ(T.Net.ProtocolErrors, 0u);
}

TEST(WireLoopback, OverloadSurfacesAsTypedErrorsNotDisconnects) {
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  LoopbackServer S(C);
  FabClient Cl = S.client();

  // Unknown function: typed error, ABI code 0, connection stays up.
  WireReply R = Cl.call("nosuchfn", {Value::ofInt(1)}, {Value::ofInt(2)});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrCode, wireCode(FabErrc::UnknownFunction));
  EXPECT_TRUE(Cl.ping()) << "connection must survive a typed error";

  // A 1ns deadline is always already exceeded at dequeue: typed
  // DeadlineExceeded, no disconnect.
  R = Cl.call("dotloop",
              {Value::ofVec({1, 2, 3}), Value::ofInt(0), Value::ofInt(3)},
              {Value::ofVec({4, 5, 6}), Value::ofInt(0)},
              /*DeadlineNs=*/1, /*MaxRetries=*/0);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrCode, wireCode(FabErrc::DeadlineExceeded));
  EXPECT_TRUE(Cl.ping());

  // Shut the SpecServer down underneath the wire: every further submit
  // is refused with Rejected plus the configured retry-after hint —
  // still over a healthy connection.
  S.Server->shutdown();
  R = Cl.call("dotloop",
              {Value::ofVec({1, 2, 3}), Value::ofInt(0), Value::ofInt(3)},
              {Value::ofVec({4, 5, 6}), Value::ofInt(0)});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrCode, wireCode(FabErrc::Rejected));
  EXPECT_GT(R.RetryAfterUs, 0u) << "Rejected must carry a retry hint";
  EXPECT_TRUE(Cl.ping());

  TelemetrySnapshot T = S.Wire->telemetry();
  EXPECT_GE(T.Net.ErrorsOut, 3u);
  EXPECT_EQ(T.Net.ProtocolErrors, 0u);
}

TEST(WireLoopback, CircuitOpenArrivesAsTypedError) {
  // Force the breaker open: every dotloop request trips an injected
  // fault, so after FailureThreshold consecutive failures the entry
  // point fast-fails with CircuitOpen (deferred image: no Plain
  // fallback), which the wire must carry as a typed error with the
  // breaker's retry hint.
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SO.Pool.Breaker.Enabled = true;
  SO.Pool.Breaker.FailureThreshold = 3;
  SO.Pool.BeforeRequest = [](unsigned, Machine &M, uint64_t) {
    FaultInjector FI;
    FI.Armed = true;
    FI.OneShot = true;
    FI.AfterInstructions = 1;
    FI.Kind = Fault::BadAccess;
    M.vm().injectFault(FI);
  };
  SpecServer Server(C, SO);
  WireServer Wire(Server);
  std::string Err;
  ASSERT_TRUE(Wire.start(&Err)) << Err;

  FabClient Cl;
  ASSERT_TRUE(Cl.connect("127.0.0.1", Wire.port(), &Err)) << Err;

  WireReply R;
  bool SawCircuitOpen = false;
  for (int I = 0; I < 10 && !SawCircuitOpen; ++I) {
    R = Cl.call("dotloop",
                {Value::ofVec({1, 2, 3}), Value::ofInt(0), Value::ofInt(3)},
                {Value::ofVec({4, 5, 6}), Value::ofInt(0)},
                /*DeadlineNs=*/0, /*MaxRetries=*/0);
    EXPECT_FALSE(R.Ok);
    if (R.ErrCode == wireCode(FabErrc::CircuitOpen)) {
      SawCircuitOpen = true;
      EXPECT_GT(R.RetryAfterUs, 0u) << "CircuitOpen must carry a retry hint";
    }
  }
  EXPECT_TRUE(SawCircuitOpen);
  EXPECT_TRUE(Cl.ping()) << "breaker refusals must not cost the connection";

  Cl.close();
  Wire.stop();
  Server.shutdown();
}

TEST(WireLoopback, ReadBatchingCoalescesPipelinedFrames) {
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  LoopbackServer S(C);

  // A burst of pings written as ONE send() almost always lands in one
  // server-side recv(); retry a few bursts so a scheduler hiccup cannot
  // flake the assertion.
  bool Batched = false;
  for (int Attempt = 0; Attempt < 20 && !Batched; ++Attempt) {
    // 32 ping frames in one buffer, one sendAll: one wire burst.
    std::vector<uint8_t> Burst;
    for (uint64_t T = 1; T <= 32; ++T) {
      std::vector<uint8_t> F = encodePing(T);
      Burst.insert(Burst.end(), F.begin(), F.end());
    }
    Socket Raw = Socket::connectTcp("127.0.0.1", S.Wire->port());
    ASSERT_TRUE(Raw.valid());
    std::vector<uint8_t> Pre = encodePreamble();
    ASSERT_TRUE(Raw.sendAll(Pre.data(), Pre.size()));
    uint8_t Their[PreambleBytes];
    ASSERT_TRUE(Raw.recvAll(Their, sizeof(Their)));
    ASSERT_TRUE(Raw.sendAll(Burst.data(), Burst.size()));
    // Drain the 32 pongs.
    size_t Want = 32 * FrameHeaderBytes;
    std::vector<uint8_t> Got(Want);
    ASSERT_TRUE(Raw.recvAll(Got.data(), Want));
    Raw.close();

    TelemetrySnapshot T = S.Wire->telemetry();
    Batched = T.Net.BatchedFrames >= 2;
  }
  EXPECT_TRUE(Batched)
      << "pipelined frames never shared a read batch across 20 bursts";
}

//===----------------------------------------------------------------------===//
// Socket syscall loops on non-blocking fds
//===----------------------------------------------------------------------===//

namespace {

/// A connected loopback socket pair via a throwaway listener.
std::pair<Socket, Socket> loopbackPair() {
  Listener L;
  EXPECT_TRUE(L.listen("127.0.0.1", 0, 4));
  Socket A = Socket::connectTcp("127.0.0.1", L.port());
  Socket B = L.accept(/*TimeoutMs=*/2000);
  EXPECT_TRUE(A.valid());
  EXPECT_TRUE(B.valid());
  return {std::move(A), std::move(B)};
}

} // namespace

TEST(SocketIo, SendAllRecvAllSurviveNonBlockingFds) {
  // Regression for the reactor migration: sendAll/recvAll are the
  // blocking client's primitives, and they must stay short-write and
  // EAGAIN correct even when someone (a transport, a test, a future TLS
  // layer) has switched the fd to O_NONBLOCK. A multi-megabyte transfer
  // overflows every kernel buffer, so the EAGAIN/POLLOUT path runs many
  // times.
  auto P = loopbackPair();
  ASSERT_TRUE(P.first.setNonBlocking(true));
  ASSERT_TRUE(P.second.setNonBlocking(true));

  const size_t N = 4 << 20;
  std::vector<uint8_t> Sent(N);
  for (size_t I = 0; I < N; ++I)
    Sent[I] = static_cast<uint8_t>((I * 131) ^ (I >> 8));

  std::thread Writer(
      [&] { EXPECT_TRUE(P.first.sendAll(Sent.data(), Sent.size())); });
  std::vector<uint8_t> Got(N, 0);
  EXPECT_TRUE(P.second.recvAll(Got.data(), Got.size()));
  Writer.join();
  EXPECT_EQ(Sent, Got) << "non-blocking EAGAIN handling dropped or "
                          "reordered bytes";
}

TEST(SocketIo, NonBlockingPrimitivesReportWouldBlockAndEof) {
  auto P = loopbackPair();
  ASSERT_TRUE(P.second.setNonBlocking(true));

  // Nothing buffered: recvNb must report would-block, not EOF.
  uint8_t Byte = 0;
  bool Eof = true;
  EXPECT_EQ(P.second.recvNb(&Byte, 1, Eof), 0);
  EXPECT_FALSE(Eof);

  // Data arrives: recvNb returns it.
  ASSERT_TRUE(P.first.sendAll("x", 1));
  for (int Spin = 0; Spin < 1000; ++Spin) {
    long R = P.second.recvNb(&Byte, 1, Eof);
    if (R == 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(Byte, 'x');

  // Peer closes: recvNb reports orderly EOF, distinct from would-block.
  P.first.close();
  for (int Spin = 0; Spin < 1000 && !Eof; ++Spin) {
    if (P.second.recvNb(&Byte, 1, Eof) < 0)
      break;
    if (!Eof)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(Eof);
}

TEST(SocketIo, SendNbSignalsFullKernelBuffer) {
  auto P = loopbackPair();
  ASSERT_TRUE(P.first.setNonBlocking(true));

  // Stuff the pipe until sendNb reports would-block (0). The receiver
  // is not reading, so a few MB at most gets this there.
  std::vector<uint8_t> Chunk(64 * 1024, 0xAB);
  bool SawWouldBlock = false;
  size_t Total = 0;
  for (int I = 0; I < 4096 && !SawWouldBlock; ++I) {
    long W = P.first.sendNb(Chunk.data(), Chunk.size());
    ASSERT_GE(W, 0) << "healthy socket must not error";
    if (W == 0)
      SawWouldBlock = true;
    else
      Total += static_cast<size_t>(W);
  }
  EXPECT_TRUE(SawWouldBlock) << "sent " << Total
                             << " bytes without ever filling the buffer";
}

//===----------------------------------------------------------------------===//
// Reactor front-end: caps, fallback, admission
//===----------------------------------------------------------------------===//

namespace {

/// A server whose single worker stalls WorkMs per request — requests
/// pile up in flight so the cap logic is deterministic.
struct SlowServer {
  SlowServer(const Compilation &C, WireOptions WO, unsigned WorkMs) {
    ServerOptions SO;
    SO.Pool.Workers = 1;
    SO.Pool.BeforeRequest = [WorkMs](unsigned, Machine &, uint64_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(WorkMs));
    };
    Server = std::make_unique<SpecServer>(C, SO);
    Wire = std::make_unique<WireServer>(*Server, WO);
    std::string Err;
    EXPECT_TRUE(Wire->start(&Err)) << Err;
  }
  ~SlowServer() {
    Wire->stop();
    Server->shutdown();
  }
  std::unique_ptr<SpecServer> Server;
  std::unique_ptr<WireServer> Wire;
};

/// Pipelines \p Count distinct-key dotloop submits on \p Cl as fast as
/// the socket accepts them, then collects every reply. Returns
/// {oks, capRejects}; fails the test on any other outcome.
std::pair<unsigned, unsigned> burstSubmits(FabClient &Cl, int Count) {
  std::vector<uint64_t> Tags;
  for (int I = 0; I < Count; ++I) {
    // Distinct early keys so the pool coalescer cannot merge them.
    uint64_t Tag = Cl.submit(
        "dotloop",
        {Value::ofVec({I + 1, I + 7, I + 13}), Value::ofInt(0),
         Value::ofInt(3)},
        {Value::ofVec({1, 1, 1}), Value::ofInt(0)});
    EXPECT_NE(Tag, 0u);
    Tags.push_back(Tag);
  }
  unsigned Oks = 0, Rejects = 0;
  for (uint64_t Tag : Tags) {
    WireReply R = Cl.wait(Tag);
    if (R.Ok) {
      ++Oks;
    } else {
      EXPECT_EQ(R.ErrCode, wireCode(FabErrc::Rejected))
          << "cap refusal must be the typed Rejected, got " << R.Message;
      EXPECT_GT(R.RetryAfterUs, 0u)
          << "cap refusal must carry a retry-after hint";
      ++Rejects;
    }
  }
  return {Oks, Rejects};
}

} // namespace

TEST(WireLoopback, GlobalInFlightCapRejectsWithTypedErrorAndHint) {
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  WireOptions WO;
  WO.MaxInFlightGlobal = 4;
  SlowServer S(C, WO, /*WorkMs=*/100);

  FabClient Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect("127.0.0.1", S.Wire->port(), &Err)) << Err;

  // 12 submits land at the reactor within a few ms; the single worker
  // stalls 100ms per request, so exactly MaxInFlightGlobal are admitted
  // before the first completion and the rest bounce off the cap.
  auto Counts = burstSubmits(Cl, 12);
  EXPECT_EQ(Counts.first, 4u);
  EXPECT_EQ(Counts.second, 8u);

  // The connection survives the refusals.
  EXPECT_TRUE(Cl.ping());

  // Exact accounting: the aggregate CapRejects equals what the client
  // observed, and equals the sum over per-connection rows.
  TelemetrySnapshot T = S.Wire->telemetry();
  EXPECT_EQ(T.Net.CapRejects, 8u);
  uint64_t RowSum = 0;
  for (const ConnStatsRow &Row : S.Wire->connectionStats())
    RowSum += Row.Net.CapRejects;
  EXPECT_EQ(RowSum, T.Net.CapRejects);
  EXPECT_LE(T.Net.PipelineHighWater, 4u)
      << "the cap must bound in-flight depth";
  EXPECT_EQ(T.Net.ErrorsOut, 8u);
  EXPECT_EQ(T.Net.ProtocolErrors, 0u) << "cap refusals are not protocol "
                                         "violations";
}

TEST(WireLoopback, PerConnCapAppliesPerConnection) {
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  WireOptions WO;
  WO.MaxInFlightPerConn = 2;
  SlowServer S(C, WO, /*WorkMs=*/100);

  FabClient A, B;
  std::string Err;
  ASSERT_TRUE(A.connect("127.0.0.1", S.Wire->port(), &Err)) << Err;
  ASSERT_TRUE(B.connect("127.0.0.1", S.Wire->port(), &Err)) << Err;

  // Each connection gets its own budget of 2 — the second client's
  // admissions are not eaten by the first one's.
  auto CA = burstSubmits(A, 6);
  auto CB = burstSubmits(B, 6);
  EXPECT_EQ(CA.first, 2u);
  EXPECT_EQ(CA.second, 4u);
  EXPECT_EQ(CB.first, 2u);
  EXPECT_EQ(CB.second, 4u);

  TelemetrySnapshot T = S.Wire->telemetry();
  EXPECT_EQ(T.Net.CapRejects, 8u);
  EXPECT_LE(T.Net.PipelineHighWater, 2u);
}

TEST(WireLoopback, PollFallbackReactorServesCorrectly) {
  // The poll(2) backend must be a drop-in for epoll: same protocol, same
  // accounting, chosen via WireOptions.
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  WireOptions WO;
  WO.ForcePollReactor = true;
  LoopbackServer S(C, /*Workers=*/2, WO);
  EXPECT_FALSE(S.Wire->reactorUsingEpoll());

  FabClient Cl = S.client();
  EXPECT_TRUE(Cl.ping());
  WireReply R = Cl.call(
      "dotloop", {Value::ofVec({1, 2, 3}), Value::ofInt(0), Value::ofInt(3)},
      {Value::ofVec({4, 5, 6}), Value::ofInt(0)});
  ASSERT_TRUE(R.Ok) << R.Message;
  EXPECT_EQ(R.Value, 32);

  // Pipelined traffic batches exactly as with epoll.
  auto Counts = burstSubmits(Cl, 8);
  EXPECT_EQ(Counts.first, 8u);
  EXPECT_EQ(Counts.second, 0u);

  TelemetrySnapshot T = S.Wire->telemetry();
  EXPECT_EQ(T.Net.FramesIn, T.Net.FramesOut);
  EXPECT_EQ(T.Net.ProtocolErrors, 0u);
  EXPECT_GE(T.Reactor.Wakeups, 1u);
}

TEST(WireLoopback, MaxConnsRefusesExtraConnectionsWithTypedError) {
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  WireOptions WO;
  WO.MaxConns = 2;
  LoopbackServer S(C, /*Workers=*/2, WO);

  FabClient A = S.client();
  FabClient B = S.client();
  ASSERT_TRUE(A.ping());
  ASSERT_TRUE(B.ping());

  // The third connection gets the preamble, a typed Rejected with a
  // retry hint on tag 0, then EOF — and never reaches the reactor.
  Socket Extra = Socket::connectTcp("127.0.0.1", S.Wire->port());
  ASSERT_TRUE(Extra.valid());
  uint8_t Their[PreambleBytes];
  ASSERT_TRUE(Extra.recvAll(Their, sizeof(Their)));
  EXPECT_EQ(decodePreamble(Their, sizeof(Their)), PreambleStatus::Ok);

  FrameReader FR;
  Frame F;
  uint8_t Buf[512];
  bool GotError = false;
  for (;;) {
    if (FR.next(F) == FrameReader::Status::Ready) {
      GotError = true;
      break;
    }
    long N = Extra.recvSome(Buf, sizeof(Buf));
    if (N <= 0)
      break;
    FR.feed(Buf, static_cast<size_t>(N));
  }
  ASSERT_TRUE(GotError) << "expected a typed refusal before the close";
  EXPECT_EQ(F.H.Type, FrameType::Error);
  EXPECT_EQ(F.H.Tag, 0u);
  ErrorBody E;
  ASSERT_TRUE(decodeError(F, E));
  EXPECT_EQ(E.Code, wireCode(FabErrc::Rejected));
  EXPECT_GT(E.RetryAfterUs, 0u);
  uint8_t Extra1;
  EXPECT_LE(Extra.recvSome(&Extra1, 1), 0) << "expected EOF after refusal";

  // The two admitted connections are untouched, and the refusal shows
  // up in the reactor gauges without fabricating a connection row.
  EXPECT_TRUE(A.ping());
  EXPECT_TRUE(B.ping());
  TelemetrySnapshot T = S.Wire->telemetry();
  EXPECT_EQ(T.Reactor.AcceptRejects, 1u);
  EXPECT_EQ(T.Net.Connections, 2u);
  EXPECT_EQ(S.Wire->liveConnections(), 2u);
}
