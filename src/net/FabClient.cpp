//===- FabClient.cpp - Blocking wire-protocol client ----------------------===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "net/FabClient.h"

#include <thread>

using namespace fab;
using namespace fab::net;

bool FabClient::connect(const std::string &Host, uint16_t Port,
                        std::string *Err) {
  close();
  Sock = Socket::connectTcp(Host, Port, Err);
  if (!Sock.valid())
    return false;
  std::vector<uint8_t> Pre = encodePreamble();
  if (!Sock.sendAll(Pre.data(), Pre.size())) {
    if (Err)
      *Err = "connection closed during handshake";
    close();
    return false;
  }
  uint8_t Their[PreambleBytes];
  if (!Sock.recvAll(Their, sizeof(Their))) {
    if (Err)
      *Err = "no preamble from server";
    close();
    return false;
  }
  switch (decodePreamble(Their, sizeof(Their))) {
  case PreambleStatus::Ok:
    Dead = false;
    return true;
  case PreambleStatus::BadMagic:
    if (Err)
      *Err = "peer is not a fabwire server (bad magic)";
    break;
  case PreambleStatus::BadVersion:
    if (Err)
      *Err = "wire version mismatch";
    break;
  }
  close();
  return false;
}

void FabClient::close() {
  Sock.close();
  Dead = true;
  PendingByTag.clear();
  FR = FrameReader();
}

WireReply FabClient::lost() {
  Dead = true;
  WireReply R;
  R.Ok = false;
  R.ErrCode = wireCode(WireErrc::ConnectionLost);
  R.Message = "connection lost before the reply arrived";
  return R;
}

uint64_t FabClient::sendFrame(const std::vector<uint8_t> &Bytes) {
  if (!connected())
    return 0;
  uint64_t Tag = NextTag++;
  if (!Sock.sendAll(Bytes.data(), Bytes.size())) {
    Dead = true;
    return 0;
  }
  return Tag;
}

uint64_t FabClient::submit(const std::string &Fn,
                           const std::vector<service::Value> &Early,
                           const std::vector<service::Value> &Late,
                           uint64_t DeadlineNs, uint32_t MaxRetries) {
  if (!connected())
    return 0;
  SubmitBody B;
  B.Fn = Fn;
  B.Early = Early;
  B.Late = Late;
  B.DeadlineNs = DeadlineNs;
  B.MaxRetries = MaxRetries;
  std::vector<uint8_t> F = encodeSubmit(NextTag, B);
  return sendFrame(F);
}

uint64_t FabClient::submitCall(const std::string &Fn,
                               const std::vector<service::Value> &Early,
                               const std::vector<service::Value> &Late) {
  if (!connected())
    return 0;
  SubmitBody B;
  B.Fn = Fn;
  B.Early = Early;
  B.Late = Late;
  std::vector<uint8_t> F = encodeCall(NextTag, B);
  return sendFrame(F);
}

uint64_t FabClient::submitInvalidate(const std::string &Fn) {
  if (!connected())
    return 0;
  std::vector<uint8_t> F = encodeInvalidate(NextTag, Fn);
  return sendFrame(F);
}

bool FabClient::readFrame(Frame &Out) {
  uint8_t Chunk[16 * 1024];
  for (;;) {
    FrameReader::Status St = FR.next(Out);
    if (St == FrameReader::Status::Ready)
      return true;
    if (St == FrameReader::Status::TooLarge)
      return false; // a server reply should never trip the ceiling
    long N = Sock.recvSome(Chunk, sizeof(Chunk));
    if (N <= 0)
      return false;
    FR.feed(Chunk, static_cast<size_t>(N));
  }
}

WireReply FabClient::toReply(const Frame &F) {
  WireReply R;
  switch (F.H.Type) {
  case FrameType::Result: {
    int32_t V = 0;
    if (!decodeResult(F, V))
      return lost();
    R.Ok = true;
    R.Value = V;
    R.ErrCode = 0;
    return R;
  }
  case FrameType::InvalidateReply: {
    uint64_t Dropped = 0;
    if (!decodeInvalidateReply(F, Dropped))
      return lost();
    R.Ok = true;
    R.Value = static_cast<int32_t>(Dropped);
    R.ErrCode = 0;
    return R;
  }
  case FrameType::Error: {
    ErrorBody E;
    if (!decodeError(F, E))
      return lost();
    R.Ok = false;
    R.ErrCode = E.Code;
    R.RetryAfterUs = E.RetryAfterUs;
    R.Message = E.Message;
    return R;
  }
  case FrameType::Pong:
    R.Ok = true;
    R.ErrCode = 0;
    return R;
  default:
    // A reply kind this client does not model (StatsReply is handled by
    // stats()); treat as a protocol breakdown.
    return lost();
  }
}

WireReply FabClient::wait(uint64_t Tag) {
  if (Tag == 0)
    return lost();
  for (;;) {
    auto It = PendingByTag.find(Tag);
    if (It != PendingByTag.end()) {
      Frame F = std::move(It->second);
      PendingByTag.erase(It);
      return toReply(F);
    }
    if (Dead)
      return lost();
    Frame F;
    if (!readFrame(F))
      return lost();
    ++Replies;
    if (F.H.Tag == Tag)
      return toReply(F);
    PendingByTag.emplace(F.H.Tag, std::move(F));
  }
}

WireReply FabClient::call(const std::string &Fn,
                          const std::vector<service::Value> &Early,
                          const std::vector<service::Value> &Late,
                          uint64_t DeadlineNs, uint32_t MaxRetries) {
  return wait(submit(Fn, Early, Late, DeadlineNs, MaxRetries));
}

WireReply FabClient::invalidate(const std::string &Fn) {
  return wait(submitInvalidate(Fn));
}

bool FabClient::ping() {
  if (!connected())
    return false;
  uint64_t Tag = sendFrame(encodePing(NextTag));
  if (!Tag)
    return false;
  return wait(Tag).Ok;
}

//===----------------------------------------------------------------------===//
// FabClientPool
//===----------------------------------------------------------------------===//

unsigned FabClientPool::autoConns() {
  unsigned H = std::thread::hardware_concurrency();
  if (H <= 2)
    return 1;
  return std::min(4u, H / 2);
}

FabClientPool::FabClientPool(unsigned Conns)
    : Slots(Conns ? Conns : autoConns()) {}

bool FabClientPool::connect(const std::string &H, uint16_t P,
                            std::string *Err) {
  Host = H;
  Port = P;
  bool AllUp = true;
  for (FabClient &C : Slots) {
    if (C.connected())
      continue;
    std::string E;
    if (!C.connect(Host, Port, &E)) {
      AllUp = false;
      if (Err && Err->empty())
        *Err = E;
    }
  }
  return AllUp;
}

unsigned FabClientPool::connectedCount() const {
  unsigned N = 0;
  for (const FabClient &C : Slots)
    if (C.connected())
      ++N;
  return N;
}

void FabClientPool::close() {
  for (FabClient &C : Slots)
    C.close();
}

unsigned FabClientPool::pick() {
  const unsigned K = size();
  for (unsigned Tried = 0; Tried < K; ++Tried) {
    unsigned I = Next;
    Next = (Next + 1) % K;
    if (Slots[I].connected())
      return I;
    // Lazy redial: a slot that died (or was never dialed) comes back
    // the next time the rotation lands on it and the server is there.
    if (!Host.empty() && Slots[I].connect(Host, Port))
      return I;
  }
  return K;
}

uint64_t FabClientPool::submit(const std::string &Fn,
                               const std::vector<service::Value> &Early,
                               const std::vector<service::Value> &Late,
                               uint64_t DeadlineNs, uint32_t MaxRetries) {
  unsigned I = pick();
  if (I >= size())
    return 0;
  uint64_t Tag = Slots[I].submit(Fn, Early, Late, DeadlineNs, MaxRetries);
  return Tag ? Tag * size() + I : 0;
}

uint64_t FabClientPool::submitCall(const std::string &Fn,
                                   const std::vector<service::Value> &Early,
                                   const std::vector<service::Value> &Late) {
  unsigned I = pick();
  if (I >= size())
    return 0;
  uint64_t Tag = Slots[I].submitCall(Fn, Early, Late);
  return Tag ? Tag * size() + I : 0;
}

uint64_t FabClientPool::submitInvalidate(const std::string &Fn) {
  unsigned I = pick();
  if (I >= size())
    return 0;
  uint64_t Tag = Slots[I].submitInvalidate(Fn);
  return Tag ? Tag * size() + I : 0;
}

WireReply FabClientPool::wait(uint64_t PoolTag) {
  if (PoolTag == 0) {
    WireReply R;
    R.Message = "connection lost before the reply arrived";
    return R;
  }
  return Slots[PoolTag % size()].wait(PoolTag / size());
}

WireReply FabClientPool::call(const std::string &Fn,
                              const std::vector<service::Value> &Early,
                              const std::vector<service::Value> &Late,
                              uint64_t DeadlineNs, uint32_t MaxRetries) {
  return wait(submit(Fn, Early, Late, DeadlineNs, MaxRetries));
}

WireReply FabClientPool::invalidate(const std::string &Fn) {
  return wait(submitInvalidate(Fn));
}

bool FabClientPool::ping() {
  bool Any = false;
  for (FabClient &C : Slots) {
    if (!C.connected())
      continue;
    Any = true;
    if (!C.ping())
      return false;
  }
  return Any;
}

bool FabClientPool::stats(MetricList &Out) {
  for (FabClient &C : Slots)
    if (C.connected())
      return C.stats(Out);
  return false;
}

uint64_t FabClientPool::repliesReceived() const {
  uint64_t N = 0;
  for (const FabClient &C : Slots)
    N += C.repliesReceived();
  return N;
}

bool FabClient::stats(MetricList &Out) {
  if (!connected())
    return false;
  uint64_t Tag = sendFrame(encodeStats(NextTag));
  if (!Tag)
    return false;
  // StatsReply carries pairs, not a WireReply; wait for the raw frame.
  for (;;) {
    auto It = PendingByTag.find(Tag);
    Frame F;
    if (It != PendingByTag.end()) {
      F = std::move(It->second);
      PendingByTag.erase(It);
    } else {
      if (Dead || !readFrame(F)) {
        Dead = true;
        return false;
      }
      ++Replies;
      if (F.H.Tag != Tag) {
        PendingByTag.emplace(F.H.Tag, std::move(F));
        continue;
      }
    }
    return F.H.Type == FrameType::StatsReply && decodeStatsReply(F, Out);
  }
}
