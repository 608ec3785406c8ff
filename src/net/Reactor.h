//===- Reactor.h - epoll/poll readiness loop + timer wheel ------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readiness core under the wire front-end: one Reactor instance,
/// owned by one thread, multiplexes every connection socket through
/// epoll (level-triggered) or a poll(2) fallback when epoll is missing
/// or the owner forces it. Registration carries an opaque u64
/// cookie the owner uses to find its connection; the reactor itself
/// knows nothing about framing or connections.
///
/// wakeup() is the only cross-thread entry point: it writes one byte to
/// a self-pipe registered inside the set, so worker threads finishing a
/// request can pull the reactor out of wait() without touching any
/// socket. The pipe is drained internally — wait() never reports it as
/// an event, it just returns so the owner can inspect its queues.
///
/// TimerWheel is the companion coarse-deadline structure (idle-connection
/// reaping): a hashed wheel of TickMs buckets with lazy cancellation —
/// the owner re-checks liveness when an id fires and simply reschedules
/// if the deadline moved. O(1) schedule, O(entries-in-tick) advance.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_NET_REACTOR_H
#define FAB_NET_REACTOR_H

#include <poll.h>

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fab {
namespace net {

/// Readiness interest / event bits.
enum : unsigned {
  EvRead = 1u,  ///< readable (or EOF pending)
  EvWrite = 2u, ///< writable
  EvError = 4u, ///< error/hangup (always reported, never requested)
};

/// One readiness report from Reactor::wait().
struct ReactorEvent {
  uint64_t Cookie = 0;
  unsigned Mask = 0; ///< EvRead | EvWrite | EvError bits
};

/// Single-threaded readiness multiplexer. All methods except wakeup()
/// must be called from the owning thread; wakeup() is safe from any
/// thread and is async-signal-unfriendly only in that it may drop the
/// write when the pipe is full — which is fine, a full pipe already
/// guarantees the loop will wake.
class Reactor {
public:
  /// \p ForcePoll selects the poll(2) backend even where epoll exists
  /// (coverage for the fallback path; WireOptions::ForcePollReactor).
  explicit Reactor(bool ForcePoll = false);
  ~Reactor();

  Reactor(const Reactor &) = delete;
  Reactor &operator=(const Reactor &) = delete;

  /// False only when the self-pipe (or epoll fd) could not be created;
  /// such a reactor must not be used.
  bool valid() const { return WakeRd >= 0; }

  /// True when the epoll backend is live (telemetry / tests).
  bool usingEpoll() const { return EpollFd >= 0; }

  /// Registers \p Fd with the given interest bits; \p Cookie comes back
  /// in every event for it. One registration per fd.
  bool add(int Fd, unsigned Interest, uint64_t Cookie);

  /// Changes the interest bits of a registered fd.
  bool modify(int Fd, unsigned Interest);

  /// Unregisters an fd (before the owner closes it).
  void remove(int Fd);

  /// Blocks up to \p TimeoutMs (-1 = forever) and appends readiness
  /// reports to \p Out (not cleared). Returns the number appended; a
  /// plain wakeup() or timeout can legitimately return 0. Never reports
  /// the internal wake pipe.
  size_t wait(std::vector<ReactorEvent> &Out, int TimeoutMs);

  /// Cross-thread: makes the next (or current) wait() return promptly.
  void wakeup();

  size_t watchedFds() const { return Fds.size(); }

private:
  struct Watch {
    unsigned Interest = 0;
    uint64_t Cookie = 0;
  };

  void drainWakePipe();

  int EpollFd = -1; ///< -1 = poll backend
  int WakeRd = -1, WakeWr = -1;
  std::unordered_map<int, Watch> Fds; ///< all registrations (both backends)
  std::vector<::pollfd> PollScratch;  ///< poll backend reuse buffer
};

/// Hashed timer wheel with coarse ticks and lazy cancellation. Not
/// thread-safe; lives on the reactor thread next to the Reactor.
class TimerWheel {
public:
  /// \p TickMs is the firing granularity — idle timeouts are reaped
  /// within one tick after they elapse, which is the right coarseness
  /// for second-scale idle limits.
  explicit TimerWheel(uint64_t TickMs = 50) : TickMs(TickMs ? TickMs : 1) {}

  /// Arms (or re-arms) \p Id to fire at \p DeadlineMs (absolute,
  /// steady-clock). Duplicate schedules of one id are allowed; the owner
  /// de-duplicates on fire.
  void schedule(uint64_t Id, uint64_t DeadlineMs);

  /// Collects every id whose deadline is <= \p NowMs into \p Fired.
  /// Returns the count fired.
  size_t advance(uint64_t NowMs, std::vector<uint64_t> &Fired);

  /// Milliseconds until the next possible firing, clamped to one tick;
  /// -1 when nothing is armed (the reactor can then sleep indefinitely).
  int msUntilNext(uint64_t NowMs) const;

  size_t armed() const { return Pending; }

private:
  struct Entry {
    uint64_t Id = 0;
    uint64_t DeadlineMs = 0;
  };
  static constexpr size_t Slots = 64;

  uint64_t TickMs;
  uint64_t LastTick = 0; ///< last tick index fully advanced past
  size_t Pending = 0;
  std::vector<Entry> Wheel[Slots];
};

} // namespace net
} // namespace fab

#endif // FAB_NET_REACTOR_H
