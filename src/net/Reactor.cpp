//===- Reactor.cpp - epoll/poll readiness loop + timer wheel --------------===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "net/Reactor.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#define FAB_HAVE_EPOLL 1
#else
#define FAB_HAVE_EPOLL 0
#endif

using namespace fab;
using namespace fab::net;

namespace {

bool setNonBlockingFd(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

#if FAB_HAVE_EPOLL
uint32_t toEpoll(unsigned Interest) {
  uint32_t E = 0;
  if (Interest & EvRead)
    E |= EPOLLIN;
  if (Interest & EvWrite)
    E |= EPOLLOUT;
  return E; // level-triggered on purpose: unread bytes keep firing
}
#endif

short toPoll(unsigned Interest) {
  short E = 0;
  if (Interest & EvRead)
    E |= POLLIN;
  if (Interest & EvWrite)
    E |= POLLOUT;
  return E;
}

unsigned fromPoll(short Revents) {
  unsigned M = 0;
  if (Revents & (POLLIN | POLLHUP))
    M |= EvRead; // HUP drains as a read that returns EOF
  if (Revents & POLLOUT)
    M |= EvWrite;
  if (Revents & (POLLERR | POLLNVAL))
    M |= EvError;
  return M;
}

} // namespace

Reactor::Reactor(bool ForcePoll) {
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return;
  if (!setNonBlockingFd(Pipe[0]) || !setNonBlockingFd(Pipe[1])) {
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return;
  }
  WakeRd = Pipe[0];
  WakeWr = Pipe[1];

#if FAB_HAVE_EPOLL
  if (!ForcePoll) {
    EpollFd = ::epoll_create1(0);
    if (EpollFd >= 0) {
      epoll_event Ev;
      std::memset(&Ev, 0, sizeof(Ev));
      Ev.events = EPOLLIN;
      Ev.data.u64 = 0; // cookie 0 is reserved for the wake pipe
      if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeRd, &Ev) != 0) {
        ::close(EpollFd);
        EpollFd = -1;
      }
    }
  }
#else
  (void)ForcePoll;
#endif
}

Reactor::~Reactor() {
  if (EpollFd >= 0)
    ::close(EpollFd);
  if (WakeRd >= 0)
    ::close(WakeRd);
  if (WakeWr >= 0)
    ::close(WakeWr);
}

bool Reactor::add(int Fd, unsigned Interest, uint64_t Cookie) {
  if (Fd < 0 || !valid())
    return false;
#if FAB_HAVE_EPOLL
  if (EpollFd >= 0) {
    epoll_event Ev;
    std::memset(&Ev, 0, sizeof(Ev));
    Ev.events = toEpoll(Interest);
    Ev.data.u64 = Cookie;
    if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev) != 0)
      return false;
  }
#endif
  Fds[Fd] = Watch{Interest, Cookie};
  return true;
}

bool Reactor::modify(int Fd, unsigned Interest) {
  auto It = Fds.find(Fd);
  if (It == Fds.end())
    return false;
  if (It->second.Interest == Interest)
    return true;
#if FAB_HAVE_EPOLL
  if (EpollFd >= 0) {
    epoll_event Ev;
    std::memset(&Ev, 0, sizeof(Ev));
    Ev.events = toEpoll(Interest);
    Ev.data.u64 = It->second.Cookie;
    if (::epoll_ctl(EpollFd, EPOLL_CTL_MOD, Fd, &Ev) != 0)
      return false;
  }
#endif
  It->second.Interest = Interest;
  return true;
}

void Reactor::remove(int Fd) {
  auto It = Fds.find(Fd);
  if (It == Fds.end())
    return;
#if FAB_HAVE_EPOLL
  if (EpollFd >= 0)
    ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, Fd, nullptr);
#endif
  Fds.erase(It);
}

void Reactor::drainWakePipe() {
  char Buf[256];
  while (::read(WakeRd, Buf, sizeof(Buf)) > 0) {
  }
}

void Reactor::wakeup() {
  char One = 1;
  // EAGAIN means the pipe already holds an unread wakeup — the loop is
  // guaranteed to return, nothing more to do.
  ssize_t Rc;
  do {
    Rc = ::write(WakeWr, &One, 1);
  } while (Rc < 0 && errno == EINTR);
}

size_t Reactor::wait(std::vector<ReactorEvent> &Out, int TimeoutMs) {
  if (!valid())
    return 0;
  size_t Before = Out.size();

#if FAB_HAVE_EPOLL
  if (EpollFd >= 0) {
    epoll_event Evs[128];
    int N;
    do {
      N = ::epoll_wait(EpollFd, Evs, 128, TimeoutMs);
    } while (N < 0 && errno == EINTR);
    for (int I = 0; I < N; ++I) {
      if (Evs[I].data.u64 == 0) {
        drainWakePipe();
        continue;
      }
      unsigned M = 0;
      if (Evs[I].events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP))
        M |= EvRead;
      if (Evs[I].events & EPOLLOUT)
        M |= EvWrite;
      if (Evs[I].events & EPOLLERR)
        M |= EvError;
      if (M)
        Out.push_back(ReactorEvent{Evs[I].data.u64, M});
    }
    return Out.size() - Before;
  }
#endif

  PollScratch.clear();
  PollScratch.push_back(pollfd{WakeRd, POLLIN, 0});
  for (const auto &KV : Fds)
    PollScratch.push_back(pollfd{KV.first, toPoll(KV.second.Interest), 0});

  int N;
  do {
    N = ::poll(PollScratch.data(), PollScratch.size(), TimeoutMs);
  } while (N < 0 && errno == EINTR);
  if (N <= 0)
    return 0;

  if (PollScratch[0].revents & POLLIN)
    drainWakePipe();
  for (size_t I = 1; I < PollScratch.size(); ++I) {
    unsigned M = fromPoll(PollScratch[I].revents);
    if (!M)
      continue;
    auto It = Fds.find(PollScratch[I].fd);
    if (It != Fds.end())
      Out.push_back(ReactorEvent{It->second.Cookie, M});
  }
  return Out.size() - Before;
}

//===----------------------------------------------------------------------===//
// TimerWheel
//===----------------------------------------------------------------------===//

void TimerWheel::schedule(uint64_t Id, uint64_t DeadlineMs) {
  // Ceiling, not floor: a deadline landing mid-tick must go into the
  // first tick that STARTS at or after it. With floor placement the
  // slot is walked while NowMs is still short of the deadline, LastTick
  // moves past it, and the entry silently waits a whole revolution.
  uint64_t Tick = (DeadlineMs + TickMs - 1) / TickMs;
  Wheel[Tick % Slots].push_back(Entry{Id, DeadlineMs});
  ++Pending;
}

size_t TimerWheel::advance(uint64_t NowMs, std::vector<uint64_t> &Fired) {
  uint64_t NowTick = NowMs / TickMs;
  size_t Before = Fired.size();
  if (NowTick < LastTick)
    return 0;
  // Never walk more than one full revolution: past that every slot has
  // been visited once and re-visiting finds nothing new.
  uint64_t From = LastTick + 1;
  if (NowTick - LastTick > Slots)
    From = NowTick - Slots + 1;
  for (uint64_t T = From; T <= NowTick; ++T) {
    auto &Slot = Wheel[T % Slots];
    for (size_t I = 0; I < Slot.size();) {
      if (Slot[I].DeadlineMs <= NowMs) {
        Fired.push_back(Slot[I].Id);
        Slot[I] = Slot.back();
        Slot.pop_back();
        --Pending;
      } else {
        ++I; // a future revolution's entry sharing this slot
      }
    }
  }
  LastTick = NowTick;
  return Fired.size() - Before;
}

int TimerWheel::msUntilNext(uint64_t NowMs) const {
  if (!Pending)
    return -1;
  // Coarse by design: wake at the next tick boundary and let advance()
  // decide what actually fired. Keeps the loop free of a heap while
  // bounding idle wakeups to 1/TickMs only while timers are armed.
  uint64_t Next = (NowMs / TickMs + 1) * TickMs;
  uint64_t Delta = Next > NowMs ? Next - NowMs : 1;
  return static_cast<int>(Delta > TickMs ? TickMs : Delta);
}
