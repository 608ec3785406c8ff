//===- shard_test.cpp - Sharded reactor front-end tests -------------------===//
//
// Covers the N-event-loop topology of docs/WIRE.md "Sharding": handoff
// round-robin pins connections to shards deterministically, telemetry
// sums exactly across per-shard rows, closed connections fold into an
// O(shards) aggregate under heavy churn, invalidation broadcasts across
// shards, a pooled client matches the in-process oracle while spread
// over every shard, idle reaping is shard-local, and the poll-fallback
// reactor leaves semantics unchanged.
//
// Every test here uses handoff mode (UseReusePort = false) unless it is
// specifically about SO_REUSEPORT: kernel hashing over loopback is not
// controllable, round-robin handoff is — connect order IS shard order.
//
//===----------------------------------------------------------------------===//

#include "net/FabClient.h"
#include "net/WireServer.h"

#include "support/Rng.h"
#include "workloads/MlPrograms.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>

using namespace fab;
using namespace fab::net;
using fab::service::ServerOptions;
using fab::service::SpecServer;
using fab::service::Value;

namespace {

/// A WireServer over a fresh SpecServer on an ephemeral loopback port.
struct ShardedServer {
  explicit ShardedServer(const Compilation &C, WireOptions WO,
                         unsigned Workers = 2) {
    ServerOptions SO;
    SO.Pool.Workers = Workers;
    Server = std::make_unique<SpecServer>(C, SO);
    Wire = std::make_unique<WireServer>(*Server, WO);
    std::string Err;
    Started = Wire->start(&Err);
    EXPECT_TRUE(Started) << Err;
  }
  ~ShardedServer() {
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

WireOptions handoff(unsigned Shards) {
  WireOptions WO;
  WO.Shards = Shards;
  WO.UseReusePort = false;
  return WO;
}

const std::vector<Value> DotEarly = {Value::ofVec({1, 2, 3}), Value::ofInt(0),
                                     Value::ofInt(3)};
const std::vector<Value> DotLate = {Value::ofVec({4, 5, 6}), Value::ofInt(0)};

/// Spin-waits until the server has folded down to \p Want live
/// connections (client-side close is observed asynchronously).
bool waitForLive(WireServer &W, unsigned Want, int DeadlineMs = 5000) {
  for (int I = 0; I < DeadlineMs; ++I) {
    if (W.liveConnections() == Want)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return W.liveConnections() == Want;
}

void expectExactSums(WireServer &W) {
  TelemetrySnapshot T = W.telemetry();
  ASSERT_EQ(T.ShardLoads.size(), W.shards());

  NetStats RowSum;
  for (const ConnStatsRow &Row : W.connectionStats())
    RowSum += Row.Net;
  NetStats ShardSum;
  ReactorStats ReactorSum;
  for (const ShardLoadRow &S : T.ShardLoads) {
    ShardSum += S.Net;
    ReactorSum += S.Reactor;
  }

  // Aggregate == sum over shard rows == sum over connection rows, field
  // by field, no tolerance.
  for (const NetStats *Sum : {&RowSum, &ShardSum}) {
    EXPECT_EQ(T.Net.Connections, Sum->Connections);
    EXPECT_EQ(T.Net.Disconnects, Sum->Disconnects);
    EXPECT_EQ(T.Net.FramesIn, Sum->FramesIn);
    EXPECT_EQ(T.Net.FramesOut, Sum->FramesOut);
    EXPECT_EQ(T.Net.BytesIn, Sum->BytesIn);
    EXPECT_EQ(T.Net.BytesOut, Sum->BytesOut);
    EXPECT_EQ(T.Net.Submits, Sum->Submits);
    EXPECT_EQ(T.Net.Invalidates, Sum->Invalidates);
    EXPECT_EQ(T.Net.ErrorsOut, Sum->ErrorsOut);
    EXPECT_EQ(T.Net.CapRejects, Sum->CapRejects);
  }
  EXPECT_EQ(T.Reactor.IdleClosed, ReactorSum.IdleClosed);
  EXPECT_EQ(T.Reactor.AcceptRejects, ReactorSum.AcceptRejects);
  EXPECT_EQ(T.Reactor.OpenConns, ReactorSum.OpenConns);
}

} // namespace

//===----------------------------------------------------------------------===//
// Topology
//===----------------------------------------------------------------------===//

TEST(ShardTopology, HandoffRoundRobinPinsConnectionsDeterministically) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  ShardedServer S(C, handoff(4));
  ASSERT_EQ(S.Wire->shards(), 4u);
  EXPECT_FALSE(S.Wire->usingReusePort());

  // Two full rounds of connects: every shard ends up with exactly two.
  std::vector<FabClient> Cls;
  for (int I = 0; I < 8; ++I)
    Cls.push_back(S.client());
  ASSERT_TRUE(waitForLive(*S.Wire, 8));
  for (unsigned Sh = 0; Sh < 4; ++Sh)
    EXPECT_EQ(S.Wire->liveConnections(Sh), 2u) << "shard " << Sh;

  // Traffic through every client exercises every shard's loop.
  for (FabClient &Cl : Cls) {
    WireReply R = Cl.call("dotloop", DotEarly, DotLate);
    ASSERT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.Value, 32);
  }
  expectExactSums(*S.Wire);

  // Every connection row names a real shard, and each shard's row sum
  // matches its ShardLoadRow.
  TelemetrySnapshot T = S.Wire->telemetry();
  std::vector<NetStats> PerShard(4);
  for (const ConnStatsRow &Row : S.Wire->connectionStats()) {
    ASSERT_LT(Row.Shard, 4u);
    PerShard[Row.Shard] += Row.Net;
  }
  for (const ShardLoadRow &SL : T.ShardLoads) {
    EXPECT_EQ(SL.Net.FramesIn, PerShard[SL.Shard].FramesIn);
    EXPECT_EQ(SL.Net.Submits, PerShard[SL.Shard].Submits);
    EXPECT_EQ(SL.Net.Connections, PerShard[SL.Shard].Connections);
  }
}

TEST(ShardTopology, ReusePortListenersServeTrafficOnOnePort) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  WireOptions WO;
  WO.Shards = 2;
  WO.UseReusePort = true;
  ShardedServer S(C, WO);
  ASSERT_EQ(S.Wire->shards(), 2u);
  // Linux always has SO_REUSEPORT; the fleet must have come up.
  ASSERT_TRUE(S.Wire->usingReusePort());

  // Which shard the kernel hashes each connection to is its business;
  // totals and semantics must not depend on it.
  std::vector<FabClient> Cls;
  for (int I = 0; I < 6; ++I)
    Cls.push_back(S.client());
  ASSERT_TRUE(waitForLive(*S.Wire, 6));
  unsigned Spread = 0;
  for (unsigned Sh = 0; Sh < 2; ++Sh)
    Spread += S.Wire->liveConnections(Sh);
  EXPECT_EQ(Spread, 6u);

  for (FabClient &Cl : Cls) {
    WireReply R = Cl.call("dotloop", DotEarly, DotLate);
    ASSERT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.Value, 32);
  }
  expectExactSums(*S.Wire);
}

//===----------------------------------------------------------------------===//
// Churn: closed-connection retention is O(shards), sums stay exact
//===----------------------------------------------------------------------===//

TEST(ShardChurn, TenThousandDisconnectsRetainOneAggregateRowPerShard) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  ShardedServer S(C, handoff(2));

  const unsigned Churn = 10000;
  const unsigned Batch = 50; // keep + drop in waves, not one at a time
  unsigned Opened = 0;
  uint64_t PingsSent = 0;
  while (Opened < Churn) {
    std::vector<FabClient> Wave;
    for (unsigned I = 0; I < Batch && Opened < Churn; ++I, ++Opened) {
      FabClient Cl;
      ASSERT_TRUE(Cl.connect("127.0.0.1", S.Wire->port()));
      ASSERT_TRUE(Cl.ping());
      ++PingsSent;
      Wave.push_back(std::move(Cl));
    }
    for (FabClient &Cl : Wave)
      Cl.close();
    Wave.clear();
  }
  ASSERT_TRUE(waitForLive(*S.Wire, 0));

  // The leak regression: rows must NOT grow with connection count. With
  // everything closed there is exactly one aggregate row per shard that
  // ever owned a connection.
  std::vector<ConnStatsRow> Rows = S.Wire->connectionStats();
  ASSERT_LE(Rows.size(), S.Wire->shards());
  uint64_t FoldedConns = 0, FoldedDiscs = 0, FoldedPings = 0;
  for (const ConnStatsRow &Row : Rows) {
    EXPECT_FALSE(Row.Live);
    EXPECT_EQ(Row.ConnId, 0u);
    FoldedConns += Row.Net.Connections;
    FoldedDiscs += Row.Net.Disconnects;
    FoldedPings += Row.Net.FramesIn;
  }
  EXPECT_EQ(FoldedConns, Churn);
  EXPECT_EQ(FoldedDiscs, Churn);
  EXPECT_EQ(FoldedPings, PingsSent);

  // And the aggregate telemetry still sums exactly over the folded rows.
  expectExactSums(*S.Wire);
  TelemetrySnapshot T = S.Wire->telemetry();
  EXPECT_EQ(T.Net.Connections, Churn);
  EXPECT_EQ(T.Net.Disconnects, Churn);
  EXPECT_EQ(T.Reactor.OpenConns, 0u);
}

//===----------------------------------------------------------------------===//
// Cross-shard semantics
//===----------------------------------------------------------------------===//

TEST(ShardInvalidate, BroadcastIsObservedByClientsOnOtherShards) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  ShardedServer S(C, handoff(4), /*Workers=*/2);

  // One client per shard, in handoff order.
  std::vector<FabClient> Cls;
  for (int I = 0; I < 4; ++I)
    Cls.push_back(S.client());
  ASSERT_TRUE(waitForLive(*S.Wire, 4));

  // Warm the cache from shard 0's client.
  WireReply R = Cls[0].call("dotloop", DotEarly, DotLate);
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(R.Value, 32);

  // Invalidate from a client pinned to a DIFFERENT shard: the pool is
  // shared, so the drop is global, not shard-local.
  WireReply Inv = Cls[3].invalidate("dotloop");
  ASSERT_TRUE(Inv.Ok) << Inv.Message;
  EXPECT_GE(Inv.Value, 1);

  // Every shard's client still computes the right answer afterwards
  // (re-specialization on first touch).
  for (FabClient &Cl : Cls) {
    R = Cl.call("dotloop", DotEarly, DotLate);
    ASSERT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.Value, 32);
  }

  // The invalidation is visible in the shared counters from any shard.
  MetricList P;
  ASSERT_TRUE(Cls[1].stats(P));
  uint64_t Invalidated = 0, Shards = 0;
  for (const auto &KV : P) {
    if (KV.first == "cache.invalidated")
      Invalidated = KV.second;
    if (KV.first == "reactor.shards")
      Shards = KV.second;
  }
  EXPECT_GE(Invalidated, 1u);
  EXPECT_EQ(Shards, 4u);
}

TEST(ShardPool, PooledClientMatchesInProcessOracleAcrossFourShards) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());

  ServerOptions OracleSO;
  OracleSO.Pool.Workers = 2;
  SpecServer Oracle(C, OracleSO);

  ShardedServer S(C, handoff(4), /*Workers=*/4);

  FabClientPool Pool(4);
  std::string Err;
  ASSERT_TRUE(Pool.connect("127.0.0.1", S.Wire->port(), &Err)) << Err;
  ASSERT_EQ(Pool.connectedCount(), 4u);
  ASSERT_TRUE(waitForLive(*S.Wire, 4));
  for (unsigned Sh = 0; Sh < 4; ++Sh)
    EXPECT_EQ(S.Wire->liveConnections(Sh), 1u) << "shard " << Sh;

  // A pipelined window through the pool: submissions round-robin over
  // all four shards, replies come back through the encoded slot, and
  // every value must match the in-process oracle byte for byte.
  Rng R(42);
  const uint32_t N = 8;
  const size_t Rounds = 24, Window = 8;
  std::vector<std::pair<uint64_t, int32_t>> InFlight; // pool tag, want
  for (size_t I = 0; I < Rounds; ++I) {
    std::vector<int32_t> Row(N), Col(N);
    for (uint32_t J = 0; J < N; ++J) {
      Row[J] = static_cast<int32_t>(R.next() % 100) - 20;
      Col[J] = static_cast<int32_t>(R.next() % 50) - 10;
    }
    std::vector<Value> Early = {Value::ofVec(Row), Value::ofInt(0),
                                Value::ofInt(static_cast<int32_t>(N))};
    std::vector<Value> Late = {Value::ofVec(Col), Value::ofInt(0)};

    FabResult<int32_t> Want = Oracle.submit("dotloop", Early, Late).get();
    ASSERT_TRUE(Want.ok());

    uint64_t Tag = Pool.submit("dotloop", Early, Late);
    ASSERT_NE(Tag, 0u);
    InFlight.emplace_back(Tag, *Want);
    if (InFlight.size() >= Window) {
      auto Oldest = InFlight.front();
      InFlight.erase(InFlight.begin());
      WireReply Got = Pool.wait(Oldest.first);
      ASSERT_TRUE(Got.Ok) << Got.Message;
      EXPECT_EQ(Got.Value, Oldest.second);
    }
  }
  for (const auto &Pending : InFlight) {
    WireReply Got = Pool.wait(Pending.first);
    ASSERT_TRUE(Got.Ok) << Got.Message;
    EXPECT_EQ(Got.Value, Pending.second);
  }

  // All four connections carried traffic — the pool really did spread
  // the window across shards.
  TelemetrySnapshot T = S.Wire->telemetry();
  for (const ShardLoadRow &SL : T.ShardLoads)
    EXPECT_GT(SL.Net.Submits, 0u) << "shard " << SL.Shard;
  EXPECT_EQ(T.Net.Submits, Rounds);
  expectExactSums(*S.Wire);
}

//===----------------------------------------------------------------------===//
// Shard-local idle reaping
//===----------------------------------------------------------------------===//

TEST(ShardIdle, IdleConnReapedOnItsShardWhileOtherShardsUntouched) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  WireOptions WO = handoff(2);
  WO.IdleTimeoutMs = 150;
  ShardedServer S(C, WO);

  FabClient Idle = S.client(); // shard 0: will go quiet and be reaped
  FabClient Busy = S.client(); // shard 1: keeps completing frames
  ASSERT_TRUE(waitForLive(*S.Wire, 2));

  // Keep shard 1 busy well past several idle windows.
  auto Until = std::chrono::steady_clock::now() + std::chrono::milliseconds(600);
  while (std::chrono::steady_clock::now() < Until) {
    WireReply R = Busy.call("dotloop", DotEarly, DotLate);
    ASSERT_TRUE(R.Ok) << R.Message;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  ASSERT_TRUE(waitForLive(*S.Wire, 1));
  EXPECT_EQ(S.Wire->liveConnections(0), 0u) << "idle conn must be reaped";
  EXPECT_EQ(S.Wire->liveConnections(1), 1u) << "busy conn must survive";
  EXPECT_TRUE(Busy.ping());

  TelemetrySnapshot T = S.Wire->telemetry();
  EXPECT_EQ(T.Reactor.IdleClosed, 1u);
  for (const ShardLoadRow &SL : T.ShardLoads) {
    if (SL.Shard == 0)
      EXPECT_EQ(SL.Reactor.IdleClosed, 1u);
    else
      EXPECT_EQ(SL.Reactor.IdleClosed, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Poll-fallback parity
//===----------------------------------------------------------------------===//

TEST(ShardFallback, PollBackendHandoffModeServesIdenticalResults) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  WireOptions WO = handoff(2);
  WO.ForcePollReactor = true;
  ShardedServer S(C, WO);
  ASSERT_FALSE(S.Wire->reactorUsingEpoll());
  ASSERT_FALSE(S.Wire->usingReusePort());

  std::vector<FabClient> Cls;
  for (int I = 0; I < 4; ++I)
    Cls.push_back(S.client());
  ASSERT_TRUE(waitForLive(*S.Wire, 4));
  EXPECT_EQ(S.Wire->liveConnections(0), 2u);
  EXPECT_EQ(S.Wire->liveConnections(1), 2u);

  for (FabClient &Cl : Cls) {
    WireReply R = Cl.call("dotloop", DotEarly, DotLate);
    ASSERT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.Value, 32);
    EXPECT_TRUE(Cl.ping());
  }
  expectExactSums(*S.Wire);
}
