//===- FabClient.h - Blocking wire-protocol client --------------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of docs/WIRE.md: a blocking connection to a
/// WireServer that supports pipelining. submit()/submitInvalidate()
/// write a request and return its tag immediately; wait(tag) reads
/// replies — buffering any that answer other outstanding tags — until
/// that tag's reply arrives. Issue many submits, then wait in any
/// order: that is the whole pipelining contract, and bench_wire's
/// throughput numbers come from exactly this pattern.
///
/// A FabClient is NOT thread-safe; give each thread its own connection
/// (the server is built for many connections, not shared handles).
/// Every failure is returned in-band: a dead socket synthesizes a
/// WireErrc::ConnectionLost reply rather than throwing.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_NET_FABCLIENT_H
#define FAB_NET_FABCLIENT_H

#include "net/Socket.h"
#include "net/Wire.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fab {
namespace net {

/// One reply, success or typed refusal. For Result frames Value is the
/// call result; for InvalidateReply it is the pool-wide drop count.
struct WireReply {
  bool Ok = false;
  int32_t Value = 0;
  uint16_t ErrCode = wireCode(WireErrc::ConnectionLost);
  uint32_t RetryAfterUs = 0; ///< advisory backoff hint from the server
  std::string Message;
};

class FabClient {
public:
  FabClient() = default;

  /// Connects and completes the preamble handshake. False + \p Err on
  /// refusal (unreachable, wrong magic/version from the peer).
  bool connect(const std::string &Host, uint16_t Port,
               std::string *Err = nullptr);

  bool connected() const { return Sock.valid() && !Dead; }
  void close();

  /// Pipelined submission: writes a SubmitSpecialize (with options) or
  /// Call (without) frame and returns its tag without waiting. Tag 0 is
  /// returned when the write failed (the connection is then dead).
  uint64_t submit(const std::string &Fn, const std::vector<service::Value> &Early,
                  const std::vector<service::Value> &Late,
                  uint64_t DeadlineNs = 0, uint32_t MaxRetries = 0);
  uint64_t submitCall(const std::string &Fn,
                      const std::vector<service::Value> &Early,
                      const std::vector<service::Value> &Late);
  uint64_t submitInvalidate(const std::string &Fn);

  /// Blocks until \p Tag's reply arrives, buffering replies to other
  /// outstanding tags on the way. Synthesizes ConnectionLost when the
  /// socket dies first.
  WireReply wait(uint64_t Tag);

  /// Synchronous conveniences: submit + wait.
  WireReply call(const std::string &Fn, const std::vector<service::Value> &Early,
                 const std::vector<service::Value> &Late,
                 uint64_t DeadlineNs = 0, uint32_t MaxRetries = 0);
  WireReply invalidate(const std::string &Fn);

  /// Round trip of an empty frame; false when the connection is dead.
  bool ping();

  /// Fetches the server's self-describing counter pairs.
  bool stats(MetricList &Out);

  /// Frames received over the connection's lifetime (RTT bookkeeping in
  /// bench_wire).
  uint64_t repliesReceived() const { return Replies; }

private:
  WireReply toReply(const Frame &F);
  bool readFrame(Frame &Out);
  uint64_t sendFrame(const std::vector<uint8_t> &Bytes);
  WireReply lost();

  Socket Sock;
  FrameReader FR;
  bool Dead = false;
  uint64_t NextTag = 1;
  uint64_t Replies = 0;
  std::map<uint64_t, Frame> PendingByTag; ///< replies read while waiting
                                          ///< for a different tag
};

/// A fleet of K pipelined connections behind one blocking handle. On a
/// sharded server (docs/WIRE.md "Sharding") each connection lands on
/// its own shard — kernel-hashed under SO_REUSEPORT, round-robin in
/// handoff mode — so one caller can exercise several event loops at
/// once instead of serializing through a single connection.
///
/// Submissions round-robin across connected slots and return a *pool
/// tag* that encodes the owning slot: PoolTag = ClientTag * K + Slot.
/// Decode is exact (Slot = PoolTag % K, ClientTag = PoolTag / K) and
/// the failure sentinel survives: per-connection tags start at 1, so
/// every real pool tag is >= K > 0 and 0 still means "the write
/// failed". wait() routes to the encoded slot, so the issue-many /
/// wait-any-order pipelining contract is unchanged.
///
/// Dead slots are redialed lazily at the next submit that lands on
/// them; connect() is idempotent and only dials slots that are down.
/// Like FabClient, a pool is NOT thread-safe — share nothing, or give
/// each thread its own pool.
class FabClientPool {
public:
  /// \p Conns == 0 = auto: derived from hardware_concurrency (see
  /// autoConns()).
  explicit FabClientPool(unsigned Conns = 0);

  /// The Conns == 0 policy: half the hardware threads, clamped to
  /// [1, 4] — enough to spread across a sharded server without turning
  /// one caller into a connection flood.
  static unsigned autoConns();

  /// Dials every slot that is not currently connected (idempotent).
  /// True when ALL slots are up; \p Err carries the first failure.
  bool connect(const std::string &Host, uint16_t Port,
               std::string *Err = nullptr);

  unsigned size() const { return static_cast<unsigned>(Slots.size()); }
  unsigned connectedCount() const;
  bool connected() const { return connectedCount() == size(); }
  void close();

  /// Pipelined submission on the next slot (round-robin, skipping —
  /// and lazily redialing — dead slots). Returns the pool tag, 0 on
  /// failure.
  uint64_t submit(const std::string &Fn,
                  const std::vector<service::Value> &Early,
                  const std::vector<service::Value> &Late,
                  uint64_t DeadlineNs = 0, uint32_t MaxRetries = 0);
  uint64_t submitCall(const std::string &Fn,
                      const std::vector<service::Value> &Early,
                      const std::vector<service::Value> &Late);
  uint64_t submitInvalidate(const std::string &Fn);

  /// Blocks on the slot encoded in \p PoolTag until its reply arrives.
  WireReply wait(uint64_t PoolTag);

  WireReply call(const std::string &Fn,
                 const std::vector<service::Value> &Early,
                 const std::vector<service::Value> &Late,
                 uint64_t DeadlineNs = 0, uint32_t MaxRetries = 0);
  WireReply invalidate(const std::string &Fn);

  /// Pings every connected slot; false when none is up or any ping
  /// fails.
  bool ping();

  /// Fetches counters over one connected slot (the server's stats are
  /// global, any slot sees the same totals).
  bool stats(MetricList &Out);

  /// Sum of frames received across all slots.
  uint64_t repliesReceived() const;

private:
  /// Next usable slot index (round-robin with lazy redial); size() when
  /// nothing is connectable.
  unsigned pick();

  std::vector<FabClient> Slots;
  std::string Host;
  uint16_t Port = 0;
  unsigned Next = 0;
};

} // namespace net
} // namespace fab

#endif // FAB_NET_FABCLIENT_H
