//===- generator_abi_test.cpp - Generator flush and register discipline ---===//
//
// Two contracts of the generating extensions that no result check sees:
//
//  * Flush discipline: one I-cache flush per outermost generator call.
//    A generator entered eagerly from another generator (a memoized tail
//    call) skips its flush, because the outermost generator flushes its
//    whole emitted range, nested code included. Lazy run-time generator
//    calls and host specialize() still flush. A missed flush shows up as a
//    coherence violation, so every case also asserts there are none.
//  * Register discipline: generators keep early state in $s0..$s7 and
//    must preserve them, because generated code keeps late values there
//    across lazy generator calls. A clobber would be a silent wrong answer.
//
//===----------------------------------------------------------------------===//

#include "bpf/Bpf.h"
#include "core/Fabius.h"
#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

using namespace fab;
using namespace fab::workloads;

namespace {

Compilation compileFor(const char *Src) {
  FabiusOptions Opts;
  Opts.Backend = deferredOptionsFor(Src);
  return compileOrDie(Src, Opts);
}

} // namespace

TEST(GeneratorFlush, TelnetFilterFirstCallFlushesOnceOverWholeRange) {
  Compilation C = compileFor(EvalSrc);
  Machine M(C.Unit);
  bpf::Program F = bpf::telnetFilter();
  auto Trace = bpf::makeTrace(4, 3);
  uint32_t Filter = M.heap().vector(F.Words);

  VmStats B = M.vm().stats();
  uint32_t Pkt = M.heap().vector(Trace[0]);
  EXPECT_EQ(M.invokeOrDie<int32_t>("runfilter", {Filter, Pkt}),
            bpf::interpret(F, Trace[0]));
  VmStats D = M.vm().stats() - B;
  // The filter specializes through a chain of nested eval generators;
  // only the outermost flushes, and its range is everything emitted.
  ASSERT_GT(D.DynWordsWritten, 20u);
  EXPECT_EQ(D.Flushes, 1u);
  EXPECT_EQ(D.FlushedBytes, M.codeSpaceUsed());

  for (size_t I = 1; I < Trace.size(); ++I) {
    VmStats B1 = M.vm().stats();
    uint32_t P = M.heap().vector(Trace[I]);
    EXPECT_EQ(M.invokeOrDie<int32_t>("runfilter", {Filter, P}),
              bpf::interpret(F, Trace[I]));
    EXPECT_EQ((M.vm().stats() - B1).Flushes, 0u) << "memo hit flushed";
  }
  EXPECT_EQ(M.vm().coherenceViolations(), 0u);
}

TEST(GeneratorFlush, VowelsFsmSpecializationFlushesOnce) {
  // The FSM's states reach each other through memoized tail calls, and
  // the Kleene stars make the memo cyclic: nested generators hit entries
  // still in progress. The specialization is still one flush.
  Compilation C = compileFor(RegexpSrc);
  Machine M(C.Unit);
  Nfa N = compileRegex(vowelsInOrderPattern());
  uint32_t Prog = M.heap().vector(N.Prog);

  VmStats B = M.vm().stats();
  uint32_t Spec = M.specializeOrDie("rmatch", {Prog, 0});
  VmStats D = M.vm().stats() - B;
  ASSERT_GT(D.DynWordsWritten, 20u);
  EXPECT_EQ(D.Flushes, 1u);
  EXPECT_EQ(D.FlushedBytes, M.codeSpaceUsed());

  for (const char *Word : {"facetious", "abstemious", "xyz"}) {
    uint32_t S = M.heap().string(Word);
    EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {S, 0}),
              nfaMatches(N, Word) ? 1 : 0)
        << Word;
  }
  EXPECT_EQ(M.vm().coherenceViolations(), 0u);
}

TEST(GeneratorFlush, LazyNonTailCallFlushesItsOwnCode) {
  // g is called from f's generated code in a non-tail position: its
  // generator runs lazily at run time, from generated code, and must
  // flush what it emits before the code jumps there.
  const char *Src = "fun g (k : int) (x : int) = x * k + 1\n"
                    "fun f (k : int) (x : int) = (g (k + 1) x) * 2 + k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);

  VmStats B0 = M.vm().stats();
  uint32_t Spec = M.specializeOrDie("f", {3});
  EXPECT_EQ((M.vm().stats() - B0).Flushes, 1u);

  VmStats B1 = M.vm().stats();
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {5}), (5 * 4 + 1) * 2 + 3);
  VmStats D1 = M.vm().stats() - B1;
  EXPECT_GT(D1.DynWordsWritten, 0u);
  EXPECT_EQ(D1.Flushes, 1u);
  EXPECT_EQ(D1.FlushedBytes, 4 * D1.DynWordsWritten);

  VmStats B2 = M.vm().stats();
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {6}), (6 * 4 + 1) * 2 + 3);
  EXPECT_EQ((M.vm().stats() - B2).Flushes, 0u);
  EXPECT_EQ(M.vm().coherenceViolations(), 0u);
}

TEST(GeneratorFlush, EarlyCallRunsOnlyFlushedCode) {
  // f's then-arm enters g's generator eagerly. Its else-arm calls h at
  // generation time, and h runs g k (directly, or through another
  // unstaged function) via g's ordinary entry: a memo hit on the code the
  // then-arm just emitted, run before f's generator finishes. That code
  // must already be flushed.
  const char *F = "fun f (k : int) (x : int) =\n"
                  "  if x = 0 then g k x else x + h k";
  const std::string G = "fun g (k : int) (x : int) = x * k + 1\n";
  for (const std::string &Src :
       {G + "fun h (k : int) = g k 5\n" + F,
        G + "fun h2 (k : int) = g k 5\nfun h (k : int) = h2 k\n" + F}) {
    SCOPED_TRACE(Src);
    Compilation C = compileOrDie(Src, FabiusOptions::deferred());
    Machine M(C.Unit);
    uint32_t Spec = M.specializeOrDie("f", {3});
    EXPECT_EQ(M.telemetry().Recovery.FaultResets, 0u);
    EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {0}), 1);
    EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {2}), 2 + 5 * 3 + 1);
    EXPECT_EQ(M.vm().coherenceViolations(), 0u);
  }
}

TEST(GeneratorFlush, RetryAfterNestedGuardTrapFlushes) {
  // A code-space guard placed so that the outermost eval generator passes
  // its own checks and the first nested eval generator trips: the nested
  // trap leaves no outer flush behind. The machine resets and retries,
  // and both the retry and the next unrelated specialization flush.
  std::string Src = std::string(MatmulSrc) + EvalSrc;
  bpf::Program F = bpf::telnetFilter();
  auto Trace = bpf::makeTrace(1, 5);
  std::vector<int32_t> Row(16, 3), Col(16, 2);

  // Everything before the filter emits the same code whatever the guard
  // margin, so a dry run finds where the filter's specialization starts.
  auto fill = [&](Machine &M) {
    for (int I = 0; I < 3; ++I) {
      Row[0] = I;
      M.specializeOrDie("dotloop", {M.heap().vector(Row), 0, 16});
    }
  };
  FabiusOptions Opts = FabiusOptions::deferred();
  Opts.Backend.MemoizedSelfCalls.insert("eval");
  uint32_t Start = 0;
  {
    Compilation Dry = compileOrDie(Src, Opts);
    Machine M(Dry.Unit);
    fill(M);
    constexpr uint32_t Line = Vm::IcacheLineBytes;
    Start = (M.codeSpaceUsed() + Line - 1) & ~(Line - 1);
  }
  // The guard traps once $cp reaches Start + 8: past the outer entry's
  // checks, before the first nested generator's.
  Opts.Backend.CodeSpaceGuardMargin = layout::DynCodeBytes - (Start + 8);
  Compilation C = compileOrDie(Src, Opts);
  Machine M(C.Unit);
  fill(M);

  uint32_t Filter = M.heap().vector(F.Words);
  VmStats B = M.vm().stats();
  uint32_t Spec = M.specializeOrDie("eval", {Filter, 0});
  VmStats D = M.vm().stats() - B;
  EXPECT_EQ(M.telemetry().Recovery.FaultResets, 1u);
  EXPECT_EQ(M.telemetry().Recovery.RecoveredRetries, 1u);
  EXPECT_EQ(D.Flushes, 1u) << "the retry flushes; the trapped try did not";
  EXPECT_EQ(D.FlushedBytes, M.codeSpaceUsed());
  uint32_t Mem =
      M.heap().vector(std::vector<int32_t>(bpf::ScratchWords, 0));
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {0, 0, Mem,
                                          M.heap().vector(Trace[0])}),
            bpf::interpret(F, Trace[0]));

  VmStats B1 = M.vm().stats();
  Row[0] = 99;
  uint32_t Dot = M.specializeOrDie("dotloop", {M.heap().vector(Row), 0, 16});
  EXPECT_EQ((M.vm().stats() - B1).Flushes, 1u);
  EXPECT_EQ(M.invokeOrDie<int32_t>(Dot, {M.heap().vector(Col), 0}),
            2 * (99 + 15 * 3));
  EXPECT_EQ(M.vm().coherenceViolations(), 0u);
}

namespace {

struct StagedEntry {
  const char *Name;
  const char *Src;
  const char *Fn;
  std::function<std::vector<uint32_t>(Machine &)> Early;
};

std::vector<StagedEntry> stagedEntries() {
  return {
      {"dotloop", MatmulSrc, "dotloop",
       [](Machine &M) -> std::vector<uint32_t> {
         return {M.heap().vector({1, 0, -2, 3}), 0, 4};
       }},
      {"fdotloop", FMatmulSrc, "fdotloop",
       [](Machine &M) -> std::vector<uint32_t> {
         return {M.heap().vectorF({1.5f, 0.0f, -2.0f}), 0, 3};
       }},
      {"eval", EvalSrc, "eval",
       [](Machine &M) -> std::vector<uint32_t> {
         return {M.heap().vector(bpf::telnetFilter().Words), 0};
       }},
      {"rmatch", RegexpSrc, "rmatch",
       [](Machine &M) -> std::vector<uint32_t> {
         return {M.heap().vector(compileRegex(vowelsInOrderPattern()).Prog),
                 0};
       }},
      {"lookup", AssocSrc, "lookup",
       [](Machine &M) -> std::vector<uint32_t> {
         return {buildAList(M, {{1, 10}, {4, 40}, {9, 90}})};
       }},
      {"member", MemberSrc, "member",
       [](Machine &M) -> std::vector<uint32_t> {
         return {buildISet(M, {2, 3, 5, 7, 11})};
       }},
      {"life member", LifeSrc, "member",
       [](Machine &M) -> std::vector<uint32_t> {
         return {buildISet(M, {0, 1, 2})};
       }},
      {"lexlt", IsortSrc, "lexlt",
       [](Machine &M) -> std::vector<uint32_t> {
         return {M.heap().string("staged"), 0, 6};
       }},
      {"rdot", CgSrc, "rdot",
       [](Machine &M) -> std::vector<uint32_t> {
         return {M.heap().vector({0, 2}), M.heap().vectorF({1.0f, -1.0f}), 0,
                 2};
       }},
      {"pk", PseudoknotSrc, "pk",
       [](Machine &M) -> std::vector<uint32_t> {
         return {M.heap().vector({0, 1, 0, 1}), 0, 4};
       }},
  };
}

} // namespace

TEST(GeneratorRegisters, CalleeSavedSurviveMissAndHit) {
  for (const StagedEntry &E : stagedEntries()) {
    SCOPED_TRACE(E.Name);
    Compilation C = compileFor(E.Src);
    Machine M(C.Unit);
    std::vector<uint32_t> Early = E.Early(M);
    auto plant = [&] {
      for (unsigned I = 0; I < 8; ++I)
        M.vm().setReg(S0 + I, 0x5EED0000u + I);
    };
    auto check = [&](const char *When) {
      for (unsigned I = 0; I < 8; ++I)
        EXPECT_EQ(M.vm().reg(S0 + I), 0x5EED0000u + I) << When << " $s" << I;
    };
    VmStats B = M.vm().stats();
    plant();
    uint32_t Miss = M.specializeOrDie(E.Fn, Early);
    ASSERT_GT((M.vm().stats() - B).DynWordsWritten, 0u) << "not a miss";
    check("memo miss");
    VmStats B1 = M.vm().stats();
    plant();
    uint32_t Hit = M.specializeOrDie(E.Fn, Early);
    EXPECT_EQ((M.vm().stats() - B1).DynWordsWritten, 0u) << "not a hit";
    EXPECT_EQ(Hit, Miss);
    check("memo hit");
  }
}

TEST(GeneratorRegisters, LoopUpdateAssignsEarlyArgumentsInParallel) {
  // An inlined self tail call assigns all new early arguments at once.
  // With the parameters in registers, a swap, a rotation and an argument
  // that reads another parameter must not see a half-updated state.
  const char *Src =
      "fun f (a : int, b : int, n : int) (x : int) =\n"
      "  if n = 0 then x + a * 1000 + b\n"
      "  else f (b, a + n, n - 1) (x + a)\n"
      "fun g (a : int, b : int, c : int, n : int) (x : int) =\n"
      "  if n = 0 then x + a * 10000 + b * 100 + c\n"
      "  else g (c, a, b, n - 1) (x * 3 + a)";
  auto hostF = [](int32_t A, int32_t B, int32_t N, int32_t X) {
    for (; N != 0; --N) {
      X += A;
      int32_t NewB = A + N;
      A = B;
      B = NewB;
    }
    return X + A * 1000 + B;
  };
  auto hostG = [](int32_t A, int32_t B, int32_t C, int32_t N, int32_t X) {
    for (; N != 0; --N) {
      X = X * 3 + A;
      int32_t OldC = C;
      C = B;
      B = A;
      A = OldC;
    }
    return X + A * 10000 + B * 100 + C;
  };
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t F = M.specializeOrDie("f", {3, 5, 6});
  EXPECT_EQ(M.invokeOrDie<int32_t>(F, {7}), hostF(3, 5, 6, 7));
  uint32_t G = M.specializeOrDie("g", {1, 2, 4, 5});
  EXPECT_EQ(M.invokeOrDie<int32_t>(G, {1}), hostG(1, 2, 4, 5, 1));
  EXPECT_EQ(M.vm().coherenceViolations(), 0u);
}
