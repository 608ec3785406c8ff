//===- wire_fuzz_test.cpp - Hostile-input tests for the wire listener -----===//
//
// The robustness half of docs/WIRE.md: a live WireServer fed truncated
// frames, oversized length prefixes, wrong magic, wrong version,
// mid-frame disconnects, and seeded random garbage must never crash,
// must answer protocol violations with a clean typed Error frame or a
// dropped connection (per the grammar's rules), and must keep serving
// well-behaved clients on other connections throughout. The pure codec
// is also fuzzed directly: FrameReader + decoders over random bytes
// can refuse input but never read out of bounds (ASan enforces).
//
//===----------------------------------------------------------------------===//

#include "net/FabClient.h"
#include "net/WireServer.h"

#include "support/Rng.h"
#include "workloads/MlPrograms.h"

#include <gtest/gtest.h>

#include <poll.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <thread>

using namespace fab;
using namespace fab::net;
using fab::service::ServerOptions;
using fab::service::SpecServer;
using fab::service::Value;

namespace {

/// One shared server for the whole suite: surviving every hostile case
/// below on the SAME instance is the point.
struct FuzzServerFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    C = new Compilation(compileOrDie(workloads::MatmulSrc,
                                     FabiusOptions::deferred()));
    ServerOptions SO;
    SO.Pool.Workers = 2;
    Server = new SpecServer(*C, SO);
    WireOptions WO;
    WO.MaxFrameBytes = 1 << 20; // 1 MiB ceiling: cheap to overflow in tests
    Wire = new WireServer(*Server, WO);
    std::string Err;
    ASSERT_TRUE(Wire->start(&Err)) << Err;
  }
  static void TearDownTestSuite() {
    // The server must still be fully functional after every abuse case.
    FabClient Cl;
    std::string Err;
    ASSERT_TRUE(Cl.connect("127.0.0.1", Wire->port(), &Err)) << Err;
    WireReply R = Cl.call(
        "dotloop", {Value::ofVec({1, 2, 3}), Value::ofInt(0), Value::ofInt(3)},
        {Value::ofVec({4, 5, 6}), Value::ofInt(0)});
    EXPECT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.Value, 32);
    Cl.close();
    Wire->stop();
    Server->shutdown();
    delete Wire;
    delete Server;
    delete C;
    Wire = nullptr;
    Server = nullptr;
    C = nullptr;
  }

  /// A raw connection that has completed the preamble handshake.
  static Socket handshaked() {
    Socket S = Socket::connectTcp("127.0.0.1", Wire->port());
    EXPECT_TRUE(S.valid());
    std::vector<uint8_t> Pre = encodePreamble();
    EXPECT_TRUE(S.sendAll(Pre.data(), Pre.size()));
    uint8_t Their[PreambleBytes];
    EXPECT_TRUE(S.recvAll(Their, sizeof(Their)));
    EXPECT_EQ(decodePreamble(Their, sizeof(Their)), PreambleStatus::Ok);
    return S;
  }

  /// Asserts a healthy client on a FRESH connection still gets correct
  /// service — the "other clients unaffected" invariant.
  static void expectServiceHealthy() {
    FabClient Cl;
    std::string Err;
    ASSERT_TRUE(Cl.connect("127.0.0.1", Wire->port(), &Err)) << Err;
    WireReply R = Cl.call(
        "dotloop", {Value::ofVec({2, 2, 2}), Value::ofInt(0), Value::ofInt(3)},
        {Value::ofVec({5, 6, 7}), Value::ofInt(0)});
    ASSERT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.Value, 36);
  }

  /// Reads one frame off a raw socket (test-side convenience).
  static bool readFrame(Socket &S, Frame &Out) {
    FrameReader FR;
    uint8_t Buf[4096];
    for (;;) {
      switch (FR.next(Out)) {
      case FrameReader::Status::Ready:
        return true;
      case FrameReader::Status::TooLarge:
        return false;
      case FrameReader::Status::NeedMore:
        break;
      }
      long N = S.recvSome(Buf, sizeof(Buf));
      if (N <= 0)
        return false;
      FR.feed(Buf, static_cast<size_t>(N));
    }
  }

  static Compilation *C;
  static SpecServer *Server;
  static WireServer *Wire;
};

Compilation *FuzzServerFixture::C = nullptr;
SpecServer *FuzzServerFixture::Server = nullptr;
WireServer *FuzzServerFixture::Wire = nullptr;

} // namespace

TEST_F(FuzzServerFixture, BadMagicIsDroppedSilently) {
  Socket S = Socket::connectTcp("127.0.0.1", Wire->port());
  ASSERT_TRUE(S.valid());
  const char Junk[8] = {'G', 'E', 'T', ' ', '/', ' ', 'H', 'T'};
  ASSERT_TRUE(S.sendAll(Junk, sizeof(Junk)));
  // The server's own preamble arrives (it is sent on accept), then the
  // connection closes with no Error frame.
  uint8_t Their[PreambleBytes];
  ASSERT_TRUE(S.recvAll(Their, sizeof(Their)));
  uint8_t Extra;
  EXPECT_LE(S.recvSome(&Extra, 1), 0) << "expected EOF after bad magic";
  expectServiceHealthy();
}

TEST_F(FuzzServerFixture, BadVersionGetsTypedErrorThenClose) {
  Socket S = Socket::connectTcp("127.0.0.1", Wire->port());
  ASSERT_TRUE(S.valid());
  std::vector<uint8_t> Pre = encodePreamble();
  Pre[4] = 0x2A; // version 42
  Pre[5] = 0x00;
  ASSERT_TRUE(S.sendAll(Pre.data(), Pre.size()));
  uint8_t Their[PreambleBytes];
  ASSERT_TRUE(S.recvAll(Their, sizeof(Their)));
  Frame F;
  ASSERT_TRUE(readFrame(S, F)) << "expected an Error frame, not a bare close";
  EXPECT_EQ(F.H.Type, FrameType::Error);
  EXPECT_EQ(F.H.Tag, 0u);
  ErrorBody E;
  ASSERT_TRUE(decodeError(F, E));
  EXPECT_EQ(E.Code, wireCode(WireErrc::BadVersion));
  uint8_t Extra;
  EXPECT_LE(S.recvSome(&Extra, 1), 0) << "expected EOF after version refusal";
  expectServiceHealthy();
}

TEST_F(FuzzServerFixture, OversizedFrameGetsTypedErrorThenClose) {
  Socket S = handshaked();
  std::vector<uint8_t> Hdr;
  putU32(Hdr, 512u << 20); // 512 MiB length prefix, over the 1 MiB ceiling
  Hdr.push_back(static_cast<uint8_t>(FrameType::Call));
  Hdr.push_back(0);
  putU16(Hdr, 0);
  putU64(Hdr, 777); // tag
  ASSERT_TRUE(S.sendAll(Hdr.data(), Hdr.size()));
  Frame F;
  ASSERT_TRUE(readFrame(S, F));
  EXPECT_EQ(F.H.Type, FrameType::Error);
  EXPECT_EQ(F.H.Tag, 777u) << "refusal must carry the offending tag";
  ErrorBody E;
  ASSERT_TRUE(decodeError(F, E));
  EXPECT_EQ(E.Code, wireCode(WireErrc::FrameTooLarge));
  uint8_t Extra;
  EXPECT_LE(S.recvSome(&Extra, 1), 0) << "stream is unrecoverable; must close";
  expectServiceHealthy();
}

TEST_F(FuzzServerFixture, MalformedPayloadGetsErrorAndConnectionSurvives) {
  Socket S = handshaked();
  // A Call frame whose payload is garbage: well-framed, undecodable.
  std::vector<uint8_t> Payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  std::vector<uint8_t> F = encodeFrame(FrameType::Call, 31, Payload);
  ASSERT_TRUE(S.sendAll(F.data(), F.size()));
  Frame R;
  ASSERT_TRUE(readFrame(S, R));
  EXPECT_EQ(R.H.Type, FrameType::Error);
  EXPECT_EQ(R.H.Tag, 31u);
  ErrorBody E;
  ASSERT_TRUE(decodeError(R, E));
  EXPECT_EQ(E.Code, wireCode(WireErrc::BadFrame));

  // The same connection keeps working afterwards.
  std::vector<uint8_t> Ping = encodePing(32);
  ASSERT_TRUE(S.sendAll(Ping.data(), Ping.size()));
  ASSERT_TRUE(readFrame(S, R));
  EXPECT_EQ(R.H.Type, FrameType::Pong);
  EXPECT_EQ(R.H.Tag, 32u);
}

TEST_F(FuzzServerFixture, UnknownFrameTypeIsRefusedPolitely) {
  Socket S = handshaked();
  std::vector<uint8_t> F = encodeFrame(static_cast<FrameType>(0x6F), 5, {});
  ASSERT_TRUE(S.sendAll(F.data(), F.size()));
  Frame R;
  ASSERT_TRUE(readFrame(S, R));
  EXPECT_EQ(R.H.Type, FrameType::Error);
  ErrorBody E;
  ASSERT_TRUE(decodeError(R, E));
  EXPECT_EQ(E.Code, wireCode(WireErrc::UnknownType));
  // Still alive.
  std::vector<uint8_t> Ping = encodePing(6);
  ASSERT_TRUE(S.sendAll(Ping.data(), Ping.size()));
  ASSERT_TRUE(readFrame(S, R));
  EXPECT_EQ(R.H.Type, FrameType::Pong);
}

TEST_F(FuzzServerFixture, MidFrameDisconnectLeavesOthersUnaffected) {
  // A well-behaved client with work in flight on another connection...
  FabClient Healthy;
  std::string Err;
  ASSERT_TRUE(Healthy.connect("127.0.0.1", Wire->port(), &Err)) << Err;
  uint64_t Tag = Healthy.submit(
      "dotloop", {Value::ofVec({3, 3, 3}), Value::ofInt(0), Value::ofInt(3)},
      {Value::ofVec({1, 2, 3}), Value::ofInt(0)});
  ASSERT_NE(Tag, 0u);

  // ...while a hostile one hangs up halfway through a frame header, and
  // another halfway through a payload.
  {
    Socket S = handshaked();
    uint8_t Half[7] = {0x10, 0, 0, 0, 0x01, 0, 0}; // 7 of 16 header bytes
    ASSERT_TRUE(S.sendAll(Half, sizeof(Half)));
    S.close();
  }
  {
    Socket S = handshaked();
    SubmitBody B;
    B.Fn = "dotloop";
    B.Early = {Value::ofVec({9, 9, 9}), Value::ofInt(0), Value::ofInt(3)};
    B.Late = {Value::ofVec({1, 1, 1}), Value::ofInt(0)};
    std::vector<uint8_t> F = encodeSubmit(99, B);
    ASSERT_TRUE(S.sendAll(F.data(), F.size() / 2)); // half the frame
    S.close();
  }

  WireReply R = Healthy.wait(Tag);
  ASSERT_TRUE(R.Ok) << R.Message;
  EXPECT_EQ(R.Value, 18);
  expectServiceHealthy();
}

TEST_F(FuzzServerFixture, SeededGarbageNeverKillsTheListener) {
  // 32 connections of seeded random bytes, some with a valid preamble
  // prefix so the garbage reaches the frame layer. Every connection may
  // be refused; the listener must survive them all.
  Rng R(20260808);
  for (int I = 0; I < 32; ++I) {
    Socket S = Socket::connectTcp("127.0.0.1", Wire->port());
    ASSERT_TRUE(S.valid());
    std::vector<uint8_t> Blob;
    if (I % 2 == 0) {
      std::vector<uint8_t> Pre = encodePreamble();
      Blob = Pre;
    }
    size_t N = 1 + R.next() % 512;
    for (size_t J = 0; J < N; ++J)
      Blob.push_back(static_cast<uint8_t>(R.next()));
    S.sendAll(Blob.data(), Blob.size()); // may fail if already refused
    if (R.next() % 2)
      S.shutdownBoth(); // half hang up abruptly
    S.close();
  }
  expectServiceHealthy();
  TelemetrySnapshot T = Wire->telemetry();
  EXPECT_GT(T.Net.ProtocolErrors, 0u);
}

//===----------------------------------------------------------------------===//
// Pure codec fuzz (no sockets): random bytes can be refused, never
// overread — ASan turns any slip into a failure.
//===----------------------------------------------------------------------===//

TEST(WireCodecFuzz, RandomBytesNeverOverread) {
  Rng R(0xF00D);
  for (int Round = 0; Round < 2000; ++Round) {
    size_t N = R.next() % 96;
    std::vector<uint8_t> Bytes(N);
    for (size_t I = 0; I < N; ++I)
      Bytes[I] = static_cast<uint8_t>(R.next());

    FrameReader FR(4096);
    FR.feed(Bytes.data(), Bytes.size());
    Frame F;
    for (int Guard = 0; Guard < 8; ++Guard) {
      if (FR.next(F) != FrameReader::Status::Ready)
        break;
      // Whatever frame emerged: run every decoder over it. They may all
      // say no; none may crash or overread.
      SubmitBody SB;
      std::string Fn;
      int32_t V;
      ErrorBody EB;
      MetricList SP;
      uint64_t U;
      (void)decodeSubmit(F, SB);
      (void)decodeInvalidate(F, Fn);
      (void)decodeResult(F, V);
      (void)decodeError(F, EB);
      (void)decodeStatsReply(F, SP);
      (void)decodeInvalidateReply(F, U);
    }
  }
}

TEST(WireCodecFuzz, MutatedValidFramesNeverOverread) {
  Rng R(0xBEEF);
  SubmitBody B;
  B.Fn = "dotloop";
  B.Early = {Value::ofVec({1, 2, 3, 4}), Value::ofInt(0), Value::ofInt(4)};
  B.Late = {Value::ofVec({5, 6, 7, 8}), Value::ofInt(0)};
  std::vector<uint8_t> Gold = encodeSubmit(1234, B);
  for (int Round = 0; Round < 2000; ++Round) {
    std::vector<uint8_t> Mut = Gold;
    // 1-4 random byte flips, anywhere including the length prefix.
    int Flips = 1 + static_cast<int>(R.next() % 4);
    for (int I = 0; I < Flips; ++I)
      Mut[R.next() % Mut.size()] ^= static_cast<uint8_t>(1 + R.next() % 255);
    FrameReader FR(1 << 20);
    FR.feed(Mut.data(), Mut.size());
    Frame F;
    if (FR.next(F) == FrameReader::Status::Ready) {
      SubmitBody Out;
      (void)decodeSubmit(F, Out); // refuse or accept; never crash
    }
  }
}

//===----------------------------------------------------------------------===//
// Slow loris vs. the idle-timeout reaper
//===----------------------------------------------------------------------===//

namespace {

/// Waits up to \p TimeoutMs for \p S to turn readable, then expects the
/// read to report EOF or reset — the server hung up on us.
bool sawServerHangup(fab::net::Socket &S, int TimeoutMs) {
  pollfd P{S.fd(), POLLIN, 0};
  int Rc;
  do {
    Rc = ::poll(&P, 1, TimeoutMs);
  } while (Rc < 0 && errno == EINTR);
  if (Rc <= 0)
    return false; // still open after the deadline: not reaped
  uint8_t Byte;
  return S.recvSome(&Byte, 1) <= 0;
}

} // namespace

TEST(WireIdleTimeout, SlowLorisIsReapedWhileHealthyClientsSurvive) {
  // Its own server: the shared fixture runs without idle timeouts (its
  // raw-socket cases hold connections open at leisure on purpose).
  Compilation C =
      compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  ServerOptions SO;
  SO.Pool.Workers = 2;
  SpecServer Server(C, SO);
  WireOptions WO;
  WO.IdleTimeoutMs = 200;
  WireServer Wire(Server, WO);
  std::string Err;
  ASSERT_TRUE(Wire.start(&Err)) << Err;

  // Eight loris connections: a valid handshake, then one frame-header
  // byte every 50ms. Dripped bytes never complete a frame, so they are
  // not activity — each connection must be reaped ~IdleTimeoutMs after
  // its preamble, long before the drip would finish a header.
  const int NumLoris = 8;
  std::atomic<int> Reaped{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I < NumLoris; ++I)
    Threads.emplace_back([&] {
      Socket S = Socket::connectTcp("127.0.0.1", Wire.port());
      ASSERT_TRUE(S.valid());
      std::vector<uint8_t> Pre = encodePreamble();
      ASSERT_TRUE(S.sendAll(Pre.data(), Pre.size()));
      uint8_t Their[PreambleBytes];
      ASSERT_TRUE(S.recvAll(Their, sizeof(Their)));
      // Drip all but the final header byte — the frame must never
      // complete, because a complete frame IS activity.
      std::vector<uint8_t> F = encodePing(1);
      for (size_t B = 0; B + 1 < F.size(); ++B) {
        if (!S.sendAll(&F[B], 1))
          break; // already reaped mid-drip
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (sawServerHangup(S, /*TimeoutMs=*/5000))
        ++Reaped;
      S.close();
    });

  // Meanwhile a healthy client completes a frame every ~60ms — well
  // inside the idle window. The reaper must never touch it.
  FabClient Cl;
  ASSERT_TRUE(Cl.connect("127.0.0.1", Wire.port(), &Err)) << Err;
  bool AllPingsOk = true;
  for (int I = 0; I < 16; ++I) {
    AllPingsOk = AllPingsOk && Cl.ping();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  for (std::thread &T : Threads)
    T.join();

  EXPECT_TRUE(AllPingsOk) << "idle reaper touched a healthy connection";
  EXPECT_EQ(Reaped.load(), NumLoris);
  EXPECT_TRUE(Cl.ping());

  TelemetrySnapshot T = Wire.telemetry();
  EXPECT_GE(T.Reactor.IdleClosed, static_cast<uint64_t>(NumLoris));
  EXPECT_EQ(Wire.liveConnections(), 1u) << "only the healthy client remains";

  Cl.close();
  Wire.stop();
  Server.shutdown();
}
