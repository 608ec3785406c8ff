//===- Wire.cpp -----------------------------------------------------------===//

#include "net/Wire.h"

#include <algorithm>
#include <cstring>

using namespace fab;
using namespace fab::net;
using fab::service::Value;

//===----------------------------------------------------------------------===//
// Encoding
//===----------------------------------------------------------------------===//

void fab::net::putU16(std::vector<uint8_t> &B, uint16_t V) {
  B.push_back(static_cast<uint8_t>(V));
  B.push_back(static_cast<uint8_t>(V >> 8));
}

void fab::net::putU32(std::vector<uint8_t> &B, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void fab::net::putU64(std::vector<uint8_t> &B, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void fab::net::putStr(std::vector<uint8_t> &B, const std::string &S) {
  // Length is clamped at encode time too: the decoder would refuse a
  // longer string, so truncation here would only hide a caller bug —
  // assert-like behaviour is not worth a crash path, clamp instead.
  uint16_t N = static_cast<uint16_t>(
      S.size() > MaxStringBytes ? MaxStringBytes : S.size());
  putU16(B, N);
  B.insert(B.end(), S.begin(), S.begin() + N);
}

void fab::net::putValue(std::vector<uint8_t> &B, const Value &V) {
  if (V.K == Value::Kind::Int) {
    B.push_back(0);
    putU32(B, static_cast<uint32_t>(V.I));
  } else {
    B.push_back(1);
    putU32(B, static_cast<uint32_t>(V.Vec.size()));
    for (int32_t E : V.Vec)
      putU32(B, static_cast<uint32_t>(E));
  }
}

std::vector<uint8_t> fab::net::encodePreamble() {
  std::vector<uint8_t> B;
  putU32(B, WireMagic);
  putU16(B, WireVersion);
  putU16(B, 0);
  return B;
}

std::vector<uint8_t> fab::net::encodeFrame(FrameType T, uint64_t Tag,
                                           const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> B;
  B.reserve(FrameHeaderBytes + Payload.size());
  putU32(B, static_cast<uint32_t>(Payload.size()));
  B.push_back(static_cast<uint8_t>(T));
  B.push_back(0); // flags
  putU16(B, 0);   // reserved
  putU64(B, Tag);
  B.insert(B.end(), Payload.begin(), Payload.end());
  return B;
}

namespace {

void putValueList(std::vector<uint8_t> &B, const std::vector<Value> &Vs) {
  putU16(B, static_cast<uint16_t>(Vs.size()));
  for (const Value &V : Vs)
    putValue(B, V);
}

std::vector<uint8_t> submitPayload(const SubmitBody &S, bool WithOptions) {
  std::vector<uint8_t> P;
  putStr(P, S.Fn);
  putValueList(P, S.Early);
  putValueList(P, S.Late);
  if (WithOptions) {
    putU64(P, S.DeadlineNs);
    putU32(P, S.MaxRetries);
  }
  return P;
}

} // namespace

std::vector<uint8_t> fab::net::encodeSubmit(uint64_t Tag,
                                            const SubmitBody &B) {
  return encodeFrame(FrameType::SubmitSpecialize, Tag,
                     submitPayload(B, /*WithOptions=*/true));
}

std::vector<uint8_t> fab::net::encodeCall(uint64_t Tag, const SubmitBody &B) {
  return encodeFrame(FrameType::Call, Tag,
                     submitPayload(B, /*WithOptions=*/false));
}

std::vector<uint8_t> fab::net::encodeInvalidate(uint64_t Tag,
                                                const std::string &Fn) {
  std::vector<uint8_t> P;
  putStr(P, Fn);
  return encodeFrame(FrameType::Invalidate, Tag, P);
}

std::vector<uint8_t> fab::net::encodeStats(uint64_t Tag) {
  return encodeFrame(FrameType::Stats, Tag, {});
}

std::vector<uint8_t> fab::net::encodePing(uint64_t Tag) {
  return encodeFrame(FrameType::Ping, Tag, {});
}

std::vector<uint8_t> fab::net::encodeResult(uint64_t Tag, int32_t V) {
  std::vector<uint8_t> P;
  putU32(P, static_cast<uint32_t>(V));
  return encodeFrame(FrameType::Result, Tag, P);
}

std::vector<uint8_t> fab::net::encodeError(uint64_t Tag, uint16_t Code,
                                           uint32_t RetryAfterUs,
                                           const std::string &Message) {
  std::vector<uint8_t> P;
  putU16(P, Code);
  putU16(P, 0); // reserved
  putU32(P, RetryAfterUs);
  putStr(P, Message);
  return encodeFrame(FrameType::Error, Tag, P);
}

std::vector<uint8_t> fab::net::encodeStatsReply(uint64_t Tag,
                                                const MetricList &Pairs) {
  const size_t N = std::min<size_t>(Pairs.size(), MaxStatsPairs);
  std::vector<uint8_t> P;
  putU32(P, static_cast<uint32_t>(N));
  for (size_t I = 0; I < N; ++I) {
    putStr(P, Pairs[I].first);
    putU64(P, Pairs[I].second);
  }
  return encodeFrame(FrameType::StatsReply, Tag, P);
}

std::vector<uint8_t> fab::net::encodeInvalidateReply(uint64_t Tag,
                                                     uint64_t Dropped) {
  std::vector<uint8_t> P;
  putU64(P, Dropped);
  return encodeFrame(FrameType::InvalidateReply, Tag, P);
}

std::vector<uint8_t> fab::net::encodePong(uint64_t Tag) {
  return encodeFrame(FrameType::Pong, Tag, {});
}

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

const char *fab::net::wireErrcName(uint16_t Code) {
  switch (Code) {
  case 0:
    return "unknown_function";
  case 1:
    return "trapped";
  case 2:
    return "out_of_fuel";
  case 3:
    return "code_space_exhausted";
  case 4:
    return "degraded";
  case 5:
    return "rejected";
  case 6:
    return "deadline_exceeded";
  case 7:
    return "circuit_open";
  case 100:
    return "bad_magic";
  case 101:
    return "bad_version";
  case 102:
    return "bad_frame";
  case 103:
    return "frame_too_large";
  case 104:
    return "unknown_type";
  case 105:
    return "connection_lost";
  }
  return "unrecognized";
}

PreambleStatus fab::net::decodePreamble(const uint8_t *B, size_t N) {
  if (N < PreambleBytes)
    return PreambleStatus::BadMagic;
  uint32_t Magic = static_cast<uint32_t>(B[0]) |
                   static_cast<uint32_t>(B[1]) << 8 |
                   static_cast<uint32_t>(B[2]) << 16 |
                   static_cast<uint32_t>(B[3]) << 24;
  if (Magic != WireMagic)
    return PreambleStatus::BadMagic;
  uint16_t Version =
      static_cast<uint16_t>(B[4] | static_cast<uint16_t>(B[5]) << 8);
  if (Version != WireVersion)
    return PreambleStatus::BadVersion;
  return PreambleStatus::Ok;
}

namespace {

/// Bounds-checked forward reader over one payload. Every getter returns
/// false once the cursor has failed; callers chain reads and test once.
class Cursor {
public:
  Cursor(const uint8_t *P, size_t N) : P(P), Left(N) {}

  bool u8(uint8_t &V) {
    if (!take(1))
      return false;
    V = P[-1];
    return true;
  }
  bool u16(uint16_t &V) {
    if (!take(2))
      return false;
    V = static_cast<uint16_t>(P[-2] | static_cast<uint16_t>(P[-1]) << 8);
    return true;
  }
  bool u32(uint32_t &V) {
    if (!take(4))
      return false;
    V = static_cast<uint32_t>(P[-4]) | static_cast<uint32_t>(P[-3]) << 8 |
        static_cast<uint32_t>(P[-2]) << 16 | static_cast<uint32_t>(P[-1]) << 24;
    return true;
  }
  bool u64(uint64_t &V) {
    uint32_t Lo, Hi;
    if (!u32(Lo) || !u32(Hi))
      return false;
    V = static_cast<uint64_t>(Hi) << 32 | Lo;
    return true;
  }
  bool str(std::string &S) {
    uint16_t N;
    if (!u16(N) || N > MaxStringBytes || !take(N))
      return false;
    S.assign(reinterpret_cast<const char *>(P - N), N);
    return true;
  }
  bool value(Value &V) {
    uint8_t K;
    if (!u8(K))
      return false;
    if (K == 0) {
      uint32_t W;
      if (!u32(W))
        return false;
      V = Value::ofInt(static_cast<int32_t>(W));
      return true;
    }
    if (K != 1)
      return false;
    uint32_t N;
    if (!u32(N) || N > MaxVecElems || Left < 4 * static_cast<size_t>(N))
      return false;
    std::vector<int32_t> Vec(N);
    for (uint32_t I = 0; I < N; ++I) {
      uint32_t W = 0;
      if (!u32(W))
        return false;
      Vec[I] = static_cast<int32_t>(W);
    }
    V = Value::ofVec(std::move(Vec));
    return true;
  }
  bool valueList(std::vector<Value> &Out) {
    uint16_t N;
    if (!u16(N) || N > MaxValuesPerList)
      return false;
    Out.resize(N);
    for (uint16_t I = 0; I < N; ++I)
      if (!value(Out[I]))
        return false;
    return true;
  }
  /// A well-formed payload is fully consumed: trailing bytes are a
  /// framing bug, not padding.
  bool done() const { return Ok && Left == 0; }

private:
  bool take(size_t N) {
    if (!Ok || Left < N) {
      Ok = false;
      return false;
    }
    P += N;
    Left -= N;
    return true;
  }

  const uint8_t *P;
  size_t Left;
  bool Ok = true;
};

} // namespace

bool fab::net::decodeSubmit(const Frame &F, SubmitBody &Out) {
  Cursor C(F.Payload.data(), F.Payload.size());
  if (!C.str(Out.Fn) || !C.valueList(Out.Early) || !C.valueList(Out.Late))
    return false;
  Out.DeadlineNs = 0;
  Out.MaxRetries = 0;
  if (F.H.Type == FrameType::SubmitSpecialize &&
      (!C.u64(Out.DeadlineNs) || !C.u32(Out.MaxRetries)))
    return false;
  return C.done();
}

bool fab::net::decodeInvalidate(const Frame &F, std::string &Fn) {
  Cursor C(F.Payload.data(), F.Payload.size());
  return C.str(Fn) && C.done();
}

bool fab::net::decodeResult(const Frame &F, int32_t &V) {
  Cursor C(F.Payload.data(), F.Payload.size());
  uint32_t W;
  if (!C.u32(W) || !C.done())
    return false;
  V = static_cast<int32_t>(W);
  return true;
}

bool fab::net::decodeError(const Frame &F, ErrorBody &Out) {
  Cursor C(F.Payload.data(), F.Payload.size());
  uint16_t Rsvd;
  return C.u16(Out.Code) && C.u16(Rsvd) && C.u32(Out.RetryAfterUs) &&
         C.str(Out.Message) && C.done();
}

bool fab::net::decodeStatsReply(const Frame &F, MetricList &Out) {
  Cursor C(F.Payload.data(), F.Payload.size());
  uint32_t N;
  if (!C.u32(N) || N > MaxStatsPairs)
    return false;
  Out.clear();
  Out.reserve(N);
  for (uint32_t I = 0; I < N; ++I) {
    std::string Name;
    uint64_t V;
    if (!C.str(Name) || !C.u64(V))
      return false;
    Out.emplace_back(std::move(Name), V);
  }
  return C.done();
}

bool fab::net::decodeInvalidateReply(const Frame &F, uint64_t &Dropped) {
  Cursor C(F.Payload.data(), F.Payload.size());
  return C.u64(Dropped) && C.done();
}

FrameReader::Status FrameReader::next(Frame &Out) {
  // Compact once the consumed prefix dominates, so a long-lived
  // connection does not grow its buffer without bound.
  if (Pos > 4096 && Pos > Buf.size() / 2) {
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<long>(Pos));
    Pos = 0;
  }
  size_t Avail = Buf.size() - Pos;
  if (Avail < FrameHeaderBytes)
    return Status::NeedMore;
  const uint8_t *H = Buf.data() + Pos;
  uint32_t Len = static_cast<uint32_t>(H[0]) | static_cast<uint32_t>(H[1]) << 8 |
                 static_cast<uint32_t>(H[2]) << 16 |
                 static_cast<uint32_t>(H[3]) << 24;
  if (Len > MaxBytes) {
    BadTag = 0;
    for (int I = 0; I < 8; ++I)
      BadTag |= static_cast<uint64_t>(H[8 + I]) << (8 * I);
    return Status::TooLarge;
  }
  if (Avail < FrameHeaderBytes + Len)
    return Status::NeedMore;
  Out.H.Len = Len;
  Out.H.Type = static_cast<FrameType>(H[4]);
  Out.H.Flags = H[5];
  Out.H.Tag = 0;
  for (int I = 0; I < 8; ++I)
    Out.H.Tag |= static_cast<uint64_t>(H[8 + I]) << (8 * I);
  Out.Payload.assign(H + FrameHeaderBytes, H + FrameHeaderBytes + Len);
  Pos += FrameHeaderBytes + Len;
  return Status::Ready;
}
