//===- backend_deferred_test.cpp - Run-time code generation tests ---------===//
//
// Exercises the generating extensions produced in Deferred mode: staged
// equivalence against Plain mode, memoization, run-time inlining,
// backpatched late control flow, residualization with run-time instruction
// selection, and the I-cache flush discipline (the simulator traps if
// generated code runs from unflushed lines).
//
//===----------------------------------------------------------------------===//

#include "core/Fabius.h"

#include <gtest/gtest.h>

#include <bit>

using namespace fab;

namespace {

const char *DotProdSrc =
    "fun dotprod v1 v2 = loop (v1, 0, length v1) (v2, 0)\n"
    "and loop (v1 : int vector, i, n) (v2 : int vector, sum) =\n"
    "  if i = n then sum\n"
    "  else loop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))";

} // namespace

TEST(DeferredExec, DotProductViaWrapper) {
  Compilation C = compileOrDie(DotProdSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V1 = M.heap().vector({1, 2, 3});
  uint32_t V2 = M.heap().vector({4, 5, 6});
  EXPECT_EQ(M.callIntOrDie("dotprod", {V1, V2}), 32);
  EXPECT_GT(M.instructionsGenerated(), 0u);
  EXPECT_EQ(M.vm().coherenceViolations(), 0u);
}

TEST(DeferredExec, ExplicitSpecializeThenCall) {
  Compilation C = compileOrDie(DotProdSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V1 = M.heap().vector({2, 4, 6, 8});
  uint32_t V2 = M.heap().vector({1, 1, 1, 1});
  uint32_t V3 = M.heap().vector({1, 2, 3, 4});
  uint32_t Spec = M.specializeOrDie("loop", {V1, 0, 4});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {V2, 0}), 20);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {V3, 0}), 2 + 8 + 18 + 32);
}

TEST(DeferredExec, MemoizationReusesCode) {
  Compilation C = compileOrDie(DotProdSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V1 = M.heap().vector({1, 2, 3});
  uint32_t Spec1 = M.specializeOrDie("loop", {V1, 0, 3});
  uint64_t GenAfterFirst = M.instructionsGenerated();
  uint32_t Spec2 = M.specializeOrDie("loop", {V1, 0, 3});
  EXPECT_EQ(Spec1, Spec2);
  EXPECT_EQ(M.instructionsGenerated(), GenAfterFirst); // no re-emission
  // A different early key generates fresh code.
  uint32_t V2 = M.heap().vector({9, 9, 9});
  uint32_t Spec3 = M.specializeOrDie("loop", {V2, 0, 3});
  EXPECT_NE(Spec3, Spec1);
  EXPECT_GT(M.instructionsGenerated(), GenAfterFirst);
}

TEST(DeferredExec, SpecializationsAreLineAligned) {
  Compilation C = compileOrDie(DotProdSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V1 = M.heap().vector({1, 2});
  uint32_t Spec = M.specializeOrDie("loop", {V1, 0, 2});
  EXPECT_EQ(Spec % 16, 0u);
}

TEST(DeferredExec, UnrolledLoopIsBranchFreeStraightLine) {
  // The specialized dot product must be a contiguous unrolling: no jumps
  // between iterations (run-time inlining of the self tail call). We check
  // that executing it touches exactly the generated range sequentially by
  // counting dynamic instructions: every generated word between entry and
  // the return executes exactly once.
  Compilation C = compileOrDie(DotProdSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V1 = M.heap().vector({1, 2, 3, 4, 5});
  uint32_t V2 = M.heap().vector({5, 4, 3, 2, 1});
  uint32_t Spec = M.specializeOrDie("loop", {V1, 0, 5});
  uint64_t Generated = M.instructionsGenerated();
  VmStats Before = M.stats();
  EXPECT_EQ(M.callAtIntOrDie(Spec, {V2, 0}), 5 + 8 + 9 + 8 + 5);
  VmStats D = M.stats() - Before;
  // Straight line: every generated word executes exactly once, except the
  // five bounds-failure trap words (one per v2 subscript) skipped by their
  // in-bounds branch.
  EXPECT_EQ(D.ExecutedDynamic, Generated - 5);
}

TEST(DeferredExec, CodegenCostIsNearPaperReported) {
  // Paper: ~4.7 instructions executed per instruction generated for the
  // matmul dot-product generator; ~6 on average across benchmarks. Allow a
  // generous band around that.
  Compilation C = compileOrDie(DotProdSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  std::vector<int32_t> Elems(64);
  for (int I = 0; I < 64; ++I)
    Elems[I] = I * 7 % 23;
  uint32_t V1 = M.heap().vector(Elems);
  VmStats Before = M.stats();
  M.specializeOrDie("loop", {V1, 0, 64});
  VmStats D = M.stats() - Before;
  double PerInst = static_cast<double>(D.Executed) /
                   static_cast<double>(D.DynWordsWritten);
  EXPECT_GT(PerInst, 2.0);
  EXPECT_LT(PerInst, 20.0);
}

TEST(DeferredExec, ResidualizationLargeConstants) {
  // Early values that do not fit 16 bits force the lui/ori path of
  // run-time instruction selection.
  const char *Src = "fun f (k : int) (x : int) = x + k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  EXPECT_EQ(M.callIntOrDie("f", {5, 10}), 15);
  EXPECT_EQ(M.callIntOrDie("f", {0x123456, 1}), 0x123457);
  EXPECT_EQ(M.callIntOrDie("f", {static_cast<uint32_t>(-40000), 1}), -39999);
  EXPECT_EQ(M.callIntOrDie("f", {32767, 1}), 32768);
  EXPECT_EQ(M.callIntOrDie("f", {static_cast<uint32_t>(-32768), 1}), -32767);
}

TEST(DeferredExec, LateConditional) {
  const char *Src =
      "fun f (k : int) (x : int) = if x > k then x - k else k - x";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("f", {10});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {25}), 15);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {3}), 7);
}

TEST(DeferredExec, EarlyConditionalUnfolds) {
  // The early conditional must vanish: only the taken arm is generated.
  const char *Src =
      "fun f (k : int) (x : int) = if k > 0 then x + k else x - k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t SpecPos = M.specializeOrDie("f", {5});
  uint32_t SpecNeg = M.specializeOrDie("f", {static_cast<uint32_t>(-5)});
  EXPECT_EQ(M.callAtIntOrDie(SpecPos, {100}), 105);
  EXPECT_EQ(M.callAtIntOrDie(SpecNeg, {100}), 105); // x - (-5)
}

TEST(DeferredExec, NestedLateConditionals) {
  const char *Src = "fun f (k : int) (x : int) = "
                    "if x > k then (if x > k * 2 then 1 else 2) else "
                    "(if x < 0 then 3 else 4)";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("f", {10});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {25}), 1);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {15}), 2);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {static_cast<uint32_t>(-1)}), 3);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {5}), 4);
}

TEST(DeferredExec, LateLetBindings) {
  const char *Src = "fun f (k : int) (x : int) = "
                    "let val a = x * k val b = a + x in a * b end";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("f", {3});
  // a = 12, b = 16 for x = 4.
  EXPECT_EQ(M.callAtIntOrDie(Spec, {4}), 12 * 16);
}

TEST(DeferredExec, EarlyLetUnderLateCode) {
  const char *Src = "fun f (k : int) (x : int) = "
                    "let val kk = k * k in x + kk end";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("f", {7});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {1}), 50);
}

TEST(DeferredExec, VSubEarlyVectorLateIndex) {
  const char *Src = "fun f (v : int vector) (i : int) = v sub i";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V = M.heap().vector({7, 8, 9});
  uint32_t Spec = M.specializeOrDie("f", {V});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {0}), 7);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {2}), 9);
  ExecResult R = M.callAt(Spec, {3});
  EXPECT_EQ(R.Reason, StopReason::Trapped);
  EXPECT_EQ(R.TrapValue, static_cast<uint32_t>(TrapCode::Bounds));
}

TEST(DeferredExec, VSubLateVectorEarlyIndex) {
  const char *Src = "fun f (i : int) (v : int vector) = v sub i";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V = M.heap().vector({7, 8, 9});
  uint32_t Spec = M.specializeOrDie("f", {1});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {V}), 8);
  // Out-of-range early index against a short late vector traps.
  uint32_t Spec9 = M.specializeOrDie("f", {9});
  ExecResult R = M.callAt(Spec9, {V});
  EXPECT_EQ(R.Reason, StopReason::Trapped);
}

TEST(DeferredExec, VSubBothLate) {
  const char *Src =
      "fun f (k : int) (v : int vector, i : int) = v sub i + k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V = M.heap().vector({5, 6});
  uint32_t Spec = M.specializeOrDie("f", {100});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {V, 1}), 106);
}

TEST(DeferredExec, LateCaseDispatch) {
  const char *Src =
      "datatype shape = Circle of int | Rect of int * int | Point\n"
      "fun area (k : int) (s : shape) = case s of\n"
      "    Circle (r) => 3 * r * r + k\n"
      "  | Rect (w, h) => w * h + k\n"
      "  | Point => k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Circ = M.heap().cell(0, {4});
  uint32_t Rect = M.heap().cell(1, {3, 5});
  uint32_t Pt = M.heap().cell(2, {});
  uint32_t Spec = M.specializeOrDie("area", {1000});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {Circ}), 48 + 1000);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {Rect}), 15 + 1000);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {Pt}), 1000);
}

TEST(DeferredExec, EarlyCaseUnfoldsOverDatatype) {
  // The classic executable-data-structure example: an association list
  // known early becomes a chain of compares in generated code.
  const char *Src =
      "datatype alist = ANil | ACons of int * int * alist\n"
      "fun lookup (l : alist) (key : int) = case l of\n"
      "    ANil => ~1\n"
      "  | ACons (k, v, rest) => if key = k then v else lookup rest key";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t L = M.heap().cell(0, {});
  L = M.heap().cell(1, {3, 30, L});
  L = M.heap().cell(1, {2, 20, L});
  L = M.heap().cell(1, {1, 10, L});
  uint32_t Spec = M.specializeOrDie("lookup", {L});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {1}), 10);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {2}), 20);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {3}), 30);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {4}), -1);
  // No loads from the list in the generated code: the lookup executes
  // without touching memory (Figure 6 of the paper).
  VmStats Before = M.stats();
  M.callAtIntOrDie(Spec, {3});
  VmStats D = M.stats() - Before;
  EXPECT_EQ(D.Loads, 0u);
}

TEST(DeferredExec, MemoizedSelfTailCallBuildsCyclicCode) {
  // A counting loop whose staged program counter cycles: pc advances until
  // it wraps to 0, so the specializations form a cycle and only
  // memoization terminates generation (the regexp/FSM mechanism).
  const char *Src =
      "fun step (prog : int vector, pc) (acc : int) =\n"
      "  if acc >= 100 then acc\n"
      "  else step (prog, (pc + 1) mod 4) (acc + (prog sub pc))";
  FabiusOptions Opts = FabiusOptions::deferred();
  Opts.Backend.MemoizedSelfCalls.insert("step");
  Compilation C = compileOrDie(Src, Opts);
  Machine M(C.Unit);
  uint32_t Prog = M.heap().vector({1, 2, 3, 4});
  uint32_t Spec = M.specializeOrDie("step", {Prog, 0});
  // Sum 1,2,3,4 cyclically from 0 until >= 100: 10 per full cycle.
  int32_t Acc = 0;
  int Pc = 0;
  while (Acc < 100) {
    Acc += (Pc % 4) + 1;
    Pc = (Pc + 1) % 4;
  }
  EXPECT_EQ(M.callAtIntOrDie(Spec, {0}), Acc);
  // Generation terminated: exactly 4 specializations of `step` exist.
  uint64_t Gen = M.instructionsGenerated();
  M.specializeOrDie("step", {Prog, 1});
  EXPECT_EQ(M.instructionsGenerated(), Gen); // pc=1 already generated
}

TEST(DeferredExec, NonTailStagedCallLazySpecialization) {
  // Alternation-style backtracking: try the first staged branch, and if
  // it "fails" call the second. Non-tail staged calls use the lazy
  // two-step sequence in generated code.
  const char *Src =
      "fun leaf (k : int) (x : int) = if x > k then x else 0\n"
      "fun try (a, b) (x : int) =\n"
      "  let val r = leaf (a) (x) in\n"
      "    if r <> 0 then r else leaf (b) (x)\n"
      "  end";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("try", {10, 5});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {20}), 20); // first branch hits
  EXPECT_EQ(M.callAtIntOrDie(Spec, {7}), 7);   // second branch hits
  EXPECT_EQ(M.callAtIntOrDie(Spec, {3}), 0);   // both fail
}

TEST(DeferredExec, LateCallToUnstagedFunction) {
  const char *Src =
      "fun helper (x, y) = x * 10 + y\n"
      "fun f (k : int) (x : int) = helper (x, k) + helper (k, x)";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("f", {3});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {7}), 73 + 37);
}

TEST(DeferredExec, EarlyCallExecutedByGenerator) {
  // `square k` has only early inputs: it runs at specialization time and
  // its result is embedded as an immediate.
  const char *Src =
      "fun square x = x * x\n"
      "fun f (k : int) (x : int) = x + square k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("f", {9});
  VmStats Before = M.stats();
  EXPECT_EQ(M.callAtIntOrDie(Spec, {1}), 82);
  VmStats D = M.stats() - Before;
  // Executed code: the embedded constant, an add, a return plus host-call
  // glue; no call to square.
  EXPECT_LT(D.Executed, 10u);
}

TEST(DeferredExec, LateDatatypeAllocation) {
  const char *Src =
      "datatype box = Box of int * int\n"
      "fun f (k : int) (x : int) = unbox (Box (x + k, x * k))\n"
      "and unbox b = case b of Box (a, c) => a * 1000 + c";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("f", {5});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {2}), 7 * 1000 + 10);
}

TEST(DeferredExec, LateVectorWriteAndAlloc) {
  const char *Src =
      "fun f (n : int) (x : int) =\n"
      "  let val v = mkvec (n, x)\n"
      "      val u = vset (v, 1, 99)\n"
      "  in v sub 0 + v sub 1 end";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("f", {4});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {7}), 7 + 99);
}

TEST(DeferredExec, StagedRealArithmetic) {
  const char *Src =
      "fun axpy (a : real) (x : real, y : real) = a * x + y";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("axpy", {std::bit_cast<uint32_t>(2.5f)});
  ExecResult R = M.callAt(Spec, {std::bit_cast<uint32_t>(4.0f),
                                 std::bit_cast<uint32_t>(1.0f)});
  EXPECT_FLOAT_EQ(std::bit_cast<float>(R.V0), 11.0f);
}

TEST(DeferredExec, SparseStrengthReduction) {
  // When an early vector element is zero the entire multiply-add vanishes.
  // Compare generated-code sizes for a dense and a 90%-sparse row.
  const char *Src =
      "fun loop (v1 : int vector, i, n) (v2 : int vector, sum) =\n"
      "  if i = n then sum\n"
      "  else if v1 sub i = 0 then loop (v1, i + 1, n) (v2, sum)\n"
      "  else loop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  std::vector<int32_t> Dense(32, 3), Sparse(32, 0);
  Sparse[5] = 2;
  Sparse[20] = 4;
  uint32_t VD = M.heap().vector(Dense);
  uint32_t VS = M.heap().vector(Sparse);
  uint64_t G0 = M.instructionsGenerated();
  M.specializeOrDie("loop", {VD, 0, 32});
  uint64_t DenseWords = M.instructionsGenerated() - G0;
  uint64_t G1 = M.instructionsGenerated();
  M.specializeOrDie("loop", {VS, 0, 32});
  uint64_t SparseWords = M.instructionsGenerated() - G1;
  EXPECT_LT(SparseWords * 3, DenseWords); // far less code for sparse rows
  // And both compute correct results.
  uint32_t Ones = M.heap().vector(std::vector<int32_t>(32, 1));
  uint32_t SpecS = M.specializeOrDie("loop", {VS, 0, 32});
  EXPECT_EQ(M.callAtIntOrDie(SpecS, {Ones, 0}), 6);
}

//===----------------------------------------------------------------------===//
// Plain/deferred equivalence (property-style)
//===----------------------------------------------------------------------===//

struct EquivCase {
  const char *Name;
  const char *Src;
  const char *Fn;
  std::vector<std::vector<int32_t>> VecArgs; ///< heap vectors to allocate
  std::vector<uint32_t> ScalarArgs; ///< appended after vector handles
};

// Without this gtest prints the raw bytes of the case, string pointers
// included, so the listed test names would change from build to build.
void PrintTo(const EquivCase &TC, std::ostream *OS) { *OS << TC.Name; }

class DeferredEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(DeferredEquivalence, MatchesPlainMode) {
  const EquivCase &TC = GetParam();
  Compilation CPlain = compileOrDie(TC.Src, FabiusOptions::plain());
  Compilation CDef = compileOrDie(TC.Src, FabiusOptions::deferred());
  Machine MPlain(CPlain.Unit);
  Machine MDef(CDef.Unit);
  std::vector<uint32_t> ArgsP, ArgsD;
  for (const auto &V : TC.VecArgs) {
    ArgsP.push_back(MPlain.heap().vector(V));
    ArgsD.push_back(MDef.heap().vector(V));
  }
  for (uint32_t S : TC.ScalarArgs) {
    ArgsP.push_back(S);
    ArgsD.push_back(S);
  }
  EXPECT_EQ(MPlain.callIntOrDie(TC.Fn, ArgsP), MDef.callIntOrDie(TC.Fn, ArgsD))
      << TC.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, DeferredEquivalence,
    ::testing::Values(
        EquivCase{"dotprod",
                  "fun dotprod v1 v2 = loop (v1, 0, length v1) (v2, 0)\n"
                  "and loop (v1 : int vector, i, n) (v2 : int vector, sum) ="
                  " if i = n then sum else loop (v1, i + 1, n) "
                  "(v2, sum + (v1 sub i) * (v2 sub i))",
                  "dotprod",
                  {{3, 1, 4, 1, 5}, {9, 2, 6, 5, 3}},
                  {}},
        EquivCase{"power",
                  "fun power (n : int) (x : int) = if n = 0 then 1 "
                  "else x * power (n - 1) (x)",
                  "power",
                  {},
                  {7, 3}},
        EquivCase{"clamped_sum",
                  "fun f (lo, hi) (x, y) = "
                  "let val s = x + y in "
                  "if s < lo then lo else if s > hi then hi else s end",
                  "f",
                  {},
                  {0, 100, 160, static_cast<uint32_t>(-20)}},
        EquivCase{"poly_eval",
                  "fun horner (c : int vector, i, n) (x : int, acc) = "
                  "if i = n then acc "
                  "else horner (c, i + 1, n) (x, acc * x + (c sub i))\n"
                  "fun eval c x = horner (c, 0, length c) (x, 0)",
                  "eval",
                  {{2, 0, 1, 5}},
                  {3}},
        EquivCase{"min_scan",
                  "fun scan (v : int vector, i, n) (best : int) = "
                  "if i = n then best "
                  "else if (v sub i) < best then scan (v, i + 1, n) (v sub i)"
                  " else scan (v, i + 1, n) (best)\n"
                  "fun run v = scan (v, 0, length v) (1000000)",
                  "run",
                  {{5, 3, 8, 1, 9, 4}},
                  {}},
        EquivCase{"sum_squares",
                  "fun f (n : int) (k : int) = if n = 0 then k "
                  "else f (n - 1) (k + n * n)",
                  "f",
                  {},
                  {12, 0}}),
    [](const ::testing::TestParamInfo<EquivCase> &Info) {
      return Info.param.Name;
    });

TEST(DeferredEquivalence, MinScanNeedsDriver) {
  // (Companion to the table above: min_scan's `run` wrapper lives here.)
  const char *Src =
      "fun scan (v : int vector, i, n) (best : int) = "
      "if i = n then best "
      "else if (v sub i) < best then scan (v, i + 1, n) (v sub i)"
      " else scan (v, i + 1, n) (best)\n"
      "fun run v = scan (v, 0, length v) (1000000)";
  Compilation CPlain = compileOrDie(Src, FabiusOptions::plain());
  Compilation CDef = compileOrDie(Src, FabiusOptions::deferred());
  Machine MPlain(CPlain.Unit), MDef(CDef.Unit);
  std::vector<int32_t> V = {5, 3, 8, 1, 9, 4};
  EXPECT_EQ(MPlain.callIntOrDie("run", {MPlain.heap().vector(V)}),
            MDef.callIntOrDie("run", {MDef.heap().vector(V)}));
}

//===----------------------------------------------------------------------===//
// Ablation options still compute correct results
//===----------------------------------------------------------------------===//

class DeferredAblation : public ::testing::TestWithParam<int> {};

TEST_P(DeferredAblation, DotProductStillCorrect) {
  FabiusOptions Opts = FabiusOptions::deferred();
  switch (GetParam()) {
  case 0:
    Opts.Backend.RuntimeInstructionSelection = false;
    break;
  case 1:
    Opts.Backend.CoalesceCpUpdates = false;
    break;
  case 2:
    Opts.Backend.AlignSpecializations = false;
    break;
  case 3:
    Opts.Backend.Memoization = false;
    break;
  }
  Compilation C = compileOrDie(DotProdSrc, Opts);
  Machine M(C.Unit);
  uint32_t V1 = M.heap().vector({11, 22, 33});
  uint32_t V2 = M.heap().vector({2, 3, 4});
  EXPECT_EQ(M.callIntOrDie("dotprod", {V1, V2}), 22 + 66 + 132);
  EXPECT_EQ(M.vm().coherenceViolations(), 0u);
}

static std::string ablationName(const ::testing::TestParamInfo<int> &Info) {
  static const char *const Names[] = {"NoRTIS", "NoCoalesce", "NoAlign",
                                      "NoMemo"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllKnobs, DeferredAblation,
                         ::testing::Values(0, 1, 2, 3), ablationName);

TEST(DeferredExec, LateBitwiseOps) {
  const char *Src = "fun f (k : int) (x : int) = "
                    "andb (x, k) + orb (x, 15) + rsh (x, 4) + lsh (x, k)";
  Compilation CP = compileOrDie(Src, FabiusOptions::plain());
  Compilation CD = compileOrDie(Src, FabiusOptions::deferred());
  Machine MP(CP.Unit), MD(CD.Unit);
  for (uint32_t X : {0u, 0xABCDu, 0xFFFF0000u})
    EXPECT_EQ(MP.callIntOrDie("f", {3, X}), MD.callIntOrDie("f", {3, X}));
}

TEST(DeferredExec, EarlyBitwiseDecoding) {
  // Opcode-style decoding of an early value: all decode work vanishes.
  const char *Src =
      "fun f (instr : int) (a : int) =\n"
      "  let val op1 = rsh (instr, 16) in\n"
      "  if op1 = 1 then a + andb (instr, 255)\n"
      "  else if op1 = 2 then a - andb (instr, 255)\n"
      "  else 0 end";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Add5 = (1u << 16) | 5;
  uint32_t Sub3 = (2u << 16) | 3;
  EXPECT_EQ(M.callAtIntOrDie(M.specializeOrDie("f", {Add5}), {100}), 105);
  EXPECT_EQ(M.callAtIntOrDie(M.specializeOrDie("f", {Sub3}), {100}), 97);
}

TEST(DeferredExec, AutomaticRunTimeStrengthReduction) {
  // The paper's section 3.1 dot product with NO source-level zero test:
  // the backend's run-time strength reduction must still collapse zero
  // entries of the early vector to (at most) a move.
  const char *Src =
      "fun loop (v1 : int vector, i, n) (v2 : int vector, sum) ="
      " if i = n then sum"
      " else loop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  std::vector<int32_t> Dense(32, 3), Sparse(32, 0);
  Sparse[3] = 2;
  Sparse[19] = 5;
  uint32_t VD = M.heap().vector(Dense);
  uint32_t VS = M.heap().vector(Sparse);
  uint64_t G0 = M.instructionsGenerated();
  M.specializeOrDie("loop", {VD, 0, 32});
  uint64_t DenseWords = M.instructionsGenerated() - G0;
  uint64_t G1 = M.instructionsGenerated();
  uint32_t SpecS = M.specializeOrDie("loop", {VS, 0, 32});
  uint64_t SparseWords = M.instructionsGenerated() - G1;
  EXPECT_LT(SparseWords * 3, DenseWords);
  uint32_t Ones = M.heap().vector(std::vector<int32_t>(32, 1));
  EXPECT_EQ(M.callAtIntOrDie(SpecS, {Ones, 0}), 7);

  // With the optimization disabled the sparse code is as big as dense.
  FabiusOptions Off = FabiusOptions::deferred();
  Off.Backend.RuntimeStrengthReduction = false;
  Compilation C2 = compileOrDie(Src, Off);
  Machine M2(C2.Unit);
  uint32_t VS2 = M2.heap().vector(Sparse);
  uint32_t VD2 = M2.heap().vector(Dense);
  uint64_t H0 = M2.instructionsGenerated();
  M2.specializeOrDie("loop", {VS2, 0, 32});
  uint64_t SparseOff = M2.instructionsGenerated() - H0;
  uint64_t H1 = M2.instructionsGenerated();
  M2.specializeOrDie("loop", {VD2, 0, 32});
  uint64_t DenseOff = M2.instructionsGenerated() - H1;
  EXPECT_EQ(SparseOff, DenseOff);
  uint32_t Ones2 = M2.heap().vector(std::vector<int32_t>(32, 1));
  uint32_t SpecS2 = M2.specializeOrDie("loop", {VS2, 0, 32});
  EXPECT_EQ(M2.callAtIntOrDie(SpecS2, {Ones2, 0}), 7);
}

TEST(DeferredExec, StrengthReductionRealAccumulation) {
  const char *Src =
      "fun axpyacc (a : real) (x : real, acc : real) = acc + a * x";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t SpecZ = M.specializeOrDie("axpyacc", {std::bit_cast<uint32_t>(0.0f)});
  ExecResult R = M.callAt(SpecZ, {std::bit_cast<uint32_t>(5.0f),
                                  std::bit_cast<uint32_t>(2.5f)});
  EXPECT_FLOAT_EQ(std::bit_cast<float>(R.V0), 2.5f);
  uint32_t Spec2 = M.specializeOrDie("axpyacc", {std::bit_cast<uint32_t>(2.0f)});
  ExecResult R2 = M.callAt(Spec2, {std::bit_cast<uint32_t>(5.0f),
                                   std::bit_cast<uint32_t>(2.5f)});
  EXPECT_FLOAT_EQ(std::bit_cast<float>(R2.V0), 12.5f);
}

TEST(DeferredExec, JumpThreadingPreservesSemanticsAndShortensPaths) {
  // A staged forward-jump chain: memoized self calls produce emitted
  // jumps between specializations; threading must preserve results and
  // never lengthen execution.
  const char *Src =
      "fun hop (prog : int vector, pc) (acc : int) =\n"
      "  if pc >= length prog then acc\n"
      "  else if prog sub pc = 0 then hop (prog, pc + 1) (acc)\n"
      "  else hop (prog, pc + 1) (acc + prog sub pc)";
  FabiusOptions Base = FabiusOptions::deferred();
  Base.Backend.MemoizedSelfCalls.insert("hop");
  FabiusOptions Threaded = Base;
  Threaded.Backend.ThreadJumps = true;

  for (auto *Opts : {&Base, &Threaded}) {
    Compilation C = compileOrDie(Src, *Opts);
    Machine M(C.Unit);
    uint32_t P = M.heap().vector({0, 5, 0, 0, 7, 1});
    uint32_t Spec = M.specializeOrDie("hop", {P, 0});
    EXPECT_EQ(M.callAtIntOrDie(Spec, {100}), 113);
    EXPECT_EQ(M.vm().coherenceViolations(), 0u);
  }

  // Threaded execution runs at most as many dynamic instructions.
  auto DynCost = [&](const FabiusOptions &O) {
    Compilation C = compileOrDie(Src, O);
    Machine M(C.Unit);
    uint32_t P = M.heap().vector({0, 0, 0, 0, 0, 9});
    uint32_t Spec = M.specializeOrDie("hop", {P, 0});
    VmStats B = M.stats();
    M.callAtIntOrDie(Spec, {1});
    return (M.stats() - B).ExecutedDynamic;
  };
  EXPECT_LE(DynCost(Threaded), DynCost(Base));
}

TEST(DeferredExec, TailCallBetweenDistinctStagedFunctions) {
  // g tail-calls staged h (different function): the generator eagerly
  // specializes h and patches a direct jump (restore+j in non-leaf g).
  const char *Src =
      "fun h (m : int) (x : int) = x * m\n"
      "fun g (k : int, m : int) (x : int) = h (m) (x + k)";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("g", {10, 3});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {5}), (5 + 10) * 3);
  // h's specialization is shared through its own memo table.
  uint64_t Gen = M.instructionsGenerated();
  uint32_t SpecH = M.specializeOrDie("h", {3});
  EXPECT_EQ(M.instructionsGenerated(), Gen);
  EXPECT_EQ(M.callAtIntOrDie(SpecH, {7}), 21);
}

TEST(DeferredExec, MutuallyRecursiveStagedFunctions) {
  // Even/odd over an early counter via mutual staged tail calls; the
  // memo's in-progress entries terminate the cross-recursion.
  const char *Src =
      "fun even (n : int) (x : int) = if n = 0 then x else odd (n - 1) (x)\n"
      "fun odd (n : int) (x : int) = if n = 0 then 0 - x "
      "else even (n - 1) (x)";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  EXPECT_EQ(M.callAtIntOrDie(M.specializeOrDie("even", {6}), {42}), 42);
  EXPECT_EQ(M.callAtIntOrDie(M.specializeOrDie("even", {7}), {42}), -42);
}

TEST(DeferredExec, LateCaseInValuePosition) {
  // The case result feeds further late computation (value mode with end
  // holes), not a tail.
  const char *Src =
      "datatype t = A of int | B of int * int | C\n"
      "fun f (k : int) (v : t, x : int) =\n"
      "  x + (case v of A (a) => a + k | B (p, q) => p * q | C => 0 - k)";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("f", {100});
  uint32_t Av = M.heap().cell(0, {7});
  uint32_t Bv = M.heap().cell(1, {3, 4});
  uint32_t Cv = M.heap().cell(2, {});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {Av, 1000}), 1000 + 107);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {Bv, 1000}), 1000 + 12);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {Cv, 1000}), 1000 - 100);
}

TEST(DeferredExec, EarlyCaseInValuePosition) {
  const char *Src =
      "datatype cfg = Lin of int | Quad of int\n"
      "fun f (c : cfg) (x : int) =\n"
      "  1 + (case c of Lin (a) => a * x | Quad (a) => a * x * x)";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Lin = M.heap().cell(0, {5});
  uint32_t Quad = M.heap().cell(1, {2});
  EXPECT_EQ(M.callAtIntOrDie(M.specializeOrDie("f", {Lin}), {10}), 51);
  EXPECT_EQ(M.callAtIntOrDie(M.specializeOrDie("f", {Quad}), {10}), 201);
}

TEST(DeferredExec, LazyCallInsideLoopedGenerator) {
  // A non-tail staged call under an early loop: each unrolled iteration
  // embeds a lazy two-step call to a (shared) helper specialization.
  const char *Src =
      "fun inc (d : int) (x : int) = x + d\n"
      "fun rep (d : int, i, n) (x : int) =\n"
      "  if i = n then x\n"
      "  else let val y = inc (d) (x) in rep (d, i + 1, n) (y) end";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("rep", {7, 0, 5});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {1}), 1 + 7 * 5);
}

TEST(DeferredDiagnostics, TooManyEmittedCallArgsRejected) {
  // A late call to an unstaged function with 5 arguments cannot use the
  // 4-register emitted convention.
  const char *Src =
      "fun g (a, b, c, d, e) = a + b + c + d + e\n"
      "fun f (k : int) (x : int) = g (x, x, x, x, x) + k";
  DiagnosticEngine D;
  auto C = compile(Src, FabiusOptions::deferred(), D);
  EXPECT_FALSE(C.has_value());
  EXPECT_NE(D.str().find("more than 4 arguments"), std::string::npos)
      << D.str();
}

TEST(DeferredDiagnostics, TooManyEarlyParamsRejected) {
  const char *Src = "fun f (a, b, c, d, e) (x : int) = a + b + c + d + e + x";
  DiagnosticEngine D;
  auto C = compile(Src, FabiusOptions::deferred(), D);
  EXPECT_FALSE(C.has_value());
  EXPECT_NE(D.str().find("early parameters"), std::string::npos) << D.str();
}

TEST(DeferredExec, WrapperHandlesStackArguments) {
  // 2 early + 4 late = 6 wrapper parameters: two arrive on the stack.
  const char *Src =
      "fun f (k : int, m : int) (a, b, c, d) = k * a + m * b + c - d";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  EXPECT_EQ(M.callIntOrDie("f", {2, 3, 10, 20, 30, 40}),
            2 * 10 + 3 * 20 + 30 - 40);
}

TEST(DeferredExec, UnitParameterGroups) {
  const char *Src = "fun f (k : int) () = k * 2\n"
                    "fun g () (x : int) = x + 1";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  EXPECT_EQ(M.callIntOrDie("f", {21}), 42);
  uint32_t SpecG = M.specializeOrDie("g", {});
  EXPECT_EQ(M.callAtIntOrDie(SpecG, {41}), 42);
}
