//===- vm_smc_test.cpp - Decode-cache coherence and parity tests ----------===//
//
// The predecoded basic-block engine (docs/VM.md) must be bit-identical to
// the reference interpreter in every observable: results, registers,
// VmStats, fault PCs, trap values, coherence violations, debug output.
// These tests run the same program on both engines and compare everything,
// with emphasis on the hard cases: self-modifying code, fused-pair entry
// points, fuel boundaries, and host-initiated code writes.
//
// Note: under FAB_DECODE_CACHE=0 (the CI slow-path run) both machines use
// the reference interpreter and the parity checks are trivially true; the
// cache-sensitive assertions are gated on decodeCacheEnabled().
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "asmkit/Assembler.h"
#include "core/Fabius.h"
#include "runtime/HeapImage.h"
#include "runtime/Layout.h"

#include <gtest/gtest.h>

using namespace fab;

namespace {

/// Everything observable about one run.
struct RunOutcome {
  ExecResult R;
  VmStats S;
  uint64_t Violations = 0;
  std::string Output;
  uint32_t Regs[32] = {0};
};

RunOutcome runEngine(bool Cache, const std::vector<uint32_t> &Code,
                     uint64_t Fuel, bool Regions) {
  VmOptions VO;
  VO.EnableDecodeCache = Cache;
  VO.Fuel = Fuel;
  Vm M(VO);
  if (Regions)
    M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                     layout::DynCodeBase, layout::DynCodeEnd);
  M.setReg(Sp, layout::StackTop);
  M.setReg(Hp, layout::HeapBase);
  M.setReg(Cp, layout::DynCodeBase);
  M.writeBlock(layout::StaticCodeBase, Code.data(), Code.size());
  RunOutcome O;
  O.R = M.run(layout::StaticCodeBase);
  O.S = M.stats();
  O.Violations = M.coherenceViolations();
  O.Output = M.output();
  for (unsigned I = 0; I < 32; ++I)
    O.Regs[I] = M.reg(I);
  return O;
}

/// Runs \p Code on both engines and asserts every observable matches.
/// Returns the cache-on outcome for additional assertions. With
/// \p Regions false the VM declares no code regions, so every cached
/// block lies outside them.
RunOutcome expectParity(const std::vector<uint32_t> &Code,
                        uint64_t Fuel = 1'000'000, bool Regions = true) {
  RunOutcome On = runEngine(true, Code, Fuel, Regions);
  RunOutcome Off = runEngine(false, Code, Fuel, Regions);
  EXPECT_EQ(On.R.Reason, Off.R.Reason);
  EXPECT_EQ(On.R.FaultKind, Off.R.FaultKind);
  EXPECT_EQ(On.R.FaultPc, Off.R.FaultPc);
  EXPECT_EQ(On.R.TrapValue, Off.R.TrapValue);
  EXPECT_EQ(On.R.V0, Off.R.V0);
  EXPECT_EQ(On.S.Executed, Off.S.Executed);
  EXPECT_EQ(On.S.ExecutedStatic, Off.S.ExecutedStatic);
  EXPECT_EQ(On.S.ExecutedDynamic, Off.S.ExecutedDynamic);
  EXPECT_EQ(On.S.Loads, Off.S.Loads);
  EXPECT_EQ(On.S.Stores, Off.S.Stores);
  EXPECT_EQ(On.S.DynWordsWritten, Off.S.DynWordsWritten);
  EXPECT_EQ(On.S.Flushes, Off.S.Flushes);
  EXPECT_EQ(On.S.FlushedBytes, Off.S.FlushedBytes);
  EXPECT_EQ(On.S.Cycles, Off.S.Cycles);
  EXPECT_EQ(On.Violations, Off.Violations);
  EXPECT_EQ(On.Output, Off.Output);
  for (unsigned I = 0; I < 32; ++I)
    EXPECT_EQ(On.Regs[I], Off.Regs[I]) << "register $" << I;
  return On;
}

std::vector<uint32_t> assembled(void (*Emit)(Assembler &)) {
  Assembler A(layout::StaticCodeBase);
  Emit(A);
  A.finalize();
  return A.code();
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine parity on ordinary programs
//===----------------------------------------------------------------------===//

TEST(EngineParity, LoopWithFusedComparesAndCalls) {
  auto Code = assembled(+[](Assembler &A) {
    // sum = 0; for (i = 0; i < 10000; ++i) sum += i — the loop condition
    // compiles to slt+bne (a fused pair), li to lui+ori.
    Label Loop = A.newLabel(), Done = A.newLabel(), Fn = A.newLabel();
    A.li(T0, 0);        // i
    A.li(T1, 10000);    // n
    A.li(V0, 0);        // sum
    A.bind(Loop);
    A.slt(T2, T0, T1);
    A.beqz(T2, Done);
    A.addu(V0, V0, T0);
    A.addiu(T0, T0, 1);
    A.j(Loop);
    A.bind(Done);
    A.jal(Fn); // exercise call/return across blocks
    A.halt();
    A.bind(Fn);
    A.li(T3, 0x12340000); // lui-only li
    A.addu(V0, V0, Zero);
    A.jr(Ra);
  });
  RunOutcome On = expectParity(Code);
  EXPECT_EQ(On.R.Reason, StopReason::Halted);
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 49995000);
}

TEST(EngineParity, BranchIntoMiddleOfFusedLuiOri) {
  auto Code = assembled(+[](Assembler &A) {
    // The lui+ori pair fuses on first execution; the second pass enters
    // at the ori directly, which must execute as a standalone block.
    Label Mid = A.newLabel(), Done = A.newLabel();
    A.li(T0, 0);
    A.lui(V0, 0x1234);
    A.bind(Mid);
    A.ori(V0, V0, 0x5678);
    A.bnez(T0, Done);
    A.li(T0, 1);
    A.lui(V0, 0x4321);
    A.j(Mid);
    A.bind(Done);
    A.halt();
  });
  RunOutcome On = expectParity(Code);
  EXPECT_EQ(On.R.V0, 0x43215678u);
}

TEST(EngineParity, BranchIntoMiddleOfFusedCompareBranch) {
  auto Code = assembled(+[](Assembler &A) {
    Label Br = A.newLabel(), Took = A.newLabel();
    A.li(T0, 0);
    A.li(A0, 1);
    A.li(A1, 2);
    A.slt(T2, A0, A1); // fuses with the bne below on first execution
    A.bind(Br);
    A.bnez(T2, Took);
    A.li(V0, 77); // reached on the second, unfused visit
    A.halt();
    A.bind(Took);
    A.li(T0, 1);
    A.li(T2, 0);
    A.j(Br); // enter at the branch half of the pair
  });
  RunOutcome On = expectParity(Code);
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 77);
}

TEST(EngineParity, OutOfFuelAtEveryBoundary) {
  auto Code = assembled(+[](Assembler &A) {
    Label Loop = A.newLabel();
    A.li(T0, 0);
    A.bind(Loop);
    A.addiu(T0, T0, 1);
    A.xori(T1, T0, 3);
    A.j(Loop);
  });
  // Sweep the budget across several loop iterations so exhaustion lands on
  // every instruction of the block in turn; FaultPc and stats must match
  // the interpreter exactly (the fast path may never over- or under-run).
  for (uint64_t Fuel = 0; Fuel < 12; ++Fuel) {
    SCOPED_TRACE("fuel=" + std::to_string(Fuel));
    RunOutcome On = expectParity(Code, Fuel);
    EXPECT_EQ(On.R.Reason, StopReason::OutOfFuel);
  }
}

TEST(EngineParity, FaultKindsAndPcs) {
  // Undecodable word (fuel consumed, not counted as executed).
  expectParity(assembled(+[](Assembler &A) {
    A.li(T0, 1);
    A.data(0xFFFFFFFFu);
    A.halt();
  }));
  // Unaligned fetch target.
  expectParity(assembled(+[](Assembler &A) {
    A.li(T0, static_cast<int32_t>(layout::StaticCodeBase + 2));
    A.jr(T0);
  }));
  // Divide by zero mid-block.
  expectParity(assembled(+[](Assembler &A) {
    A.li(T0, 42);
    A.divq(V0, T0, Zero);
    A.halt();
  }));
  // Program trap with a payload.
  expectParity(assembled(+[](Assembler &A) {
    A.li(V0, 9);
    A.trap(TrapCode::MemoFull);
  }));
  // Load/store beyond memory.
  expectParity(assembled(+[](Assembler &A) {
    A.li(T0, 0x7FFFFFF0);
    A.lw(V0, 0, T0);
  }));
}

//===----------------------------------------------------------------------===//
// Self-modifying code
//===----------------------------------------------------------------------===//

namespace {

/// Generator torture: emit a 2-instruction function at $cp, flush, call;
/// overwrite the same I-cache line with a new body, re-flush, re-call.
void emitSmcTorture(Assembler &A) {
  // First body: v0 = 111.
  A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 111)));
  A.sw(T0, 0, Cp);
  A.li(T0, static_cast<int32_t>(encodeR(Funct::Jr, Zero, Ra, Zero)));
  A.sw(T0, 4, Cp);
  A.li(T1, 8);
  A.flush(Cp, T1);
  A.jalr(Cp, Ra);
  A.move(S0, V0);
  // Rewrite the same line: v0 = 222.
  A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 222)));
  A.sw(T0, 0, Cp);
  A.li(T1, 8);
  A.flush(Cp, T1);
  A.jalr(Cp, Ra);
  A.addu(V0, V0, S0);
  A.halt();
}

} // namespace

TEST(SelfModifyingCode, RewriteSameLineWithFlushMatchesInterpreter) {
  RunOutcome On = expectParity(assembled(&emitSmcTorture));
  ASSERT_TRUE(On.R.ok()) << On.R.describe();
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 333);
  EXPECT_EQ(On.S.DynWordsWritten, 3u);
  EXPECT_EQ(On.S.Flushes, 2u);
  EXPECT_EQ(On.Violations, 0u);
}

TEST(SelfModifyingCode, UnflushedRewriteStillTrapsIncoherent) {
  auto Code = assembled(+[](Assembler &A) {
    // Emit + flush + call (clean), then rewrite WITHOUT flushing and call
    // again: the stale-line fetch must still trap, at the same PC, with
    // exactly one recorded violation — cached blocks must not let the
    // rewritten line execute (or the old body run) silently.
    A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 1)));
    A.sw(T0, 0, Cp);
    A.li(T0, static_cast<int32_t>(encodeR(Funct::Jr, Zero, Ra, Zero)));
    A.sw(T0, 4, Cp);
    A.li(T1, 8);
    A.flush(Cp, T1);
    A.jalr(Cp, Ra);
    A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 2)));
    A.sw(T0, 0, Cp); // dirty again; no flush this time
    A.jalr(Cp, Ra);
    A.halt();
  });
  RunOutcome On = expectParity(Code);
  EXPECT_EQ(On.R.Reason, StopReason::Trapped);
  EXPECT_EQ(On.R.FaultKind, Fault::IcacheIncoherent);
  EXPECT_EQ(On.R.FaultPc, layout::DynCodeBase);
  EXPECT_EQ(On.Violations, 1u);
}

TEST(SelfModifyingCode, StaticCodeOverwritingItsOwnBlock) {
  auto Code = assembled(+[](Assembler &A) {
    // Static-region store that overwrites the NEXT instruction. The static
    // region has no dirty-line model (only the dynamic segment does), so
    // the new word must execute immediately — the cached block containing
    // both the store and its target must notice mid-block.
    Label Target = A.newLabel();
    A.la(T0, Target);
    A.li(T1, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 99)));
    A.sw(T1, 0, T0);
    A.bind(Target);
    A.addiu(V0, Zero, 1); // replaced by "addiu $v0, $zero, 99" just in time
    A.halt();
  });
  RunOutcome On = expectParity(Code);
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 99);
}

TEST(SelfModifyingCode, RepeatedRespecializationLoop) {
  auto Code = assembled(+[](Assembler &A) {
    // Re-emit a different constant-returning function at the same address
    // ten times, calling it after each flush: exercises repeated cached
    // block invalidation + rebuild over one line.
    Label Loop = A.newLabel(), Done = A.newLabel();
    A.li(S0, 0);  // iteration
    A.li(S1, 10); // count
    A.li(V0, 0);  // accumulated results
    A.bind(Loop);
    A.slt(T2, S0, S1);
    A.beqz(T2, Done);
    // body word: addiu $v1, $zero, <iteration>
    A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V1, Zero, 0)));
    A.addu(T0, T0, S0); // bake the iteration into the immediate
    A.sw(T0, 0, Cp);
    A.li(T0, static_cast<int32_t>(encodeR(Funct::Jr, Zero, Ra, Zero)));
    A.sw(T0, 4, Cp);
    A.li(T1, 8);
    A.flush(Cp, T1);
    A.jalr(Cp, Ra);
    A.addu(V0, V0, V1);
    A.addiu(S0, S0, 1);
    A.j(Loop);
    A.bind(Done);
    A.halt();
  });
  RunOutcome On = expectParity(Code);
  ASSERT_TRUE(On.R.ok()) << On.R.describe();
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 45); // 0+1+...+9
  EXPECT_EQ(On.Violations, 0u);
}

TEST(SelfModifyingCode, OutOfRegionRewriteRetiresCachedBlock) {
  auto Code = assembled(+[](Assembler &A) {
    // Without declared code regions every block lies outside them; a
    // guest store over a subroutine's first word must still retire the
    // subroutine's cached block, so the second call sees the new word.
    Label Fn = A.newLabel();
    A.jal(Fn);
    A.la(T0, Fn);
    A.li(T1, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 2)));
    A.sw(T1, 0, T0);
    A.jal(Fn);
    A.halt();
    A.bind(Fn);
    A.addiu(V0, Zero, 1);
    A.jr(Ra);
  });
  RunOutcome On = expectParity(Code, 1'000'000, /*Regions=*/false);
  ASSERT_TRUE(On.R.ok()) << On.R.describe();
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 2);
}

TEST(SelfModifyingCode, FlushRangesNearTheTopOfTheAddressSpaceReturn) {
  auto Code = assembled(+[](Assembler &A) {
    // Dirty one dynamic line, then flush a range ending just below 2^32
    // (a line walk in 32-bit arithmetic wraps to 0 and never ends) and one
    // spanning the whole address space, which must clean the dirty line
    // without walking 2^28 lines.
    A.li(T0, static_cast<int32_t>(encodeR(Funct::Jr, Zero, Ra, Zero)));
    A.sw(T0, 0, Cp);
    A.li(T0, static_cast<int32_t>(0xFFFFFFF0u));
    A.li(T1, 0xF);
    A.flush(T0, T1);
    A.li(T1, -1);
    A.flush(Zero, T1);
    A.li(V0, 5);
    A.jalr(Cp, Ra);
    A.halt();
  });
  RunOutcome On = expectParity(Code);
  ASSERT_TRUE(On.R.ok()) << On.R.describe();
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 5);
  EXPECT_EQ(On.Violations, 0u);
  // The charged cost is unchanged: one trap each plus the per-byte cost.
  VmOptions VO;
  EXPECT_EQ(On.S.Cycles, On.S.Executed + 2 * VO.FlushTrapCycles +
                             0xFu / VO.FlushBytesPerCycle +
                             0xFFFFFFFFu / VO.FlushBytesPerCycle);

  // The host-side flush shares the walk: both calls must return.
  Vm M;
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  M.store32(layout::DynCodeBase, 0);
  M.flushIcache(0xFFFFFFF0u, 0xF);
  M.flushIcache(0, 0xFFFFFFFFu);
}

//===----------------------------------------------------------------------===//
// First entry into dynamic code (interpreted; blocks built on re-entry)
//===----------------------------------------------------------------------===//

namespace {

/// Emits an 8-word function at $cp: seven `addiu $v0, $v0, 1` and `jr $ra`,
/// spanning two I-cache lines.
void emitStraightLineFunction(Assembler &A) {
  A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, V0, 1)));
  for (int16_t I = 0; I < 7; ++I)
    A.sw(T0, 4 * I, Cp);
  A.li(T0, static_cast<int32_t>(encodeR(Funct::Jr, Zero, Ra, Zero)));
  A.sw(T0, 28, Cp);
}

} // namespace

TEST(FirstEntry, UnflushedLineTrapsAtTheExactPc) {
  // Only the function's first line is flushed: the first entry runs four
  // instructions, then the fetch from the dirty second line traps.
  RunOutcome On = expectParity(assembled(+[](Assembler &A) {
    emitStraightLineFunction(A);
    A.li(T1, 16);
    A.flush(Cp, T1);
    A.li(V0, 0);
    A.jalr(Cp, Ra);
    A.halt();
  }));
  EXPECT_EQ(On.R.FaultKind, Fault::IcacheIncoherent);
  EXPECT_EQ(On.R.FaultPc, layout::DynCodeBase + 16);
  EXPECT_EQ(On.Regs[V0], 4u);
  EXPECT_EQ(On.Violations, 1u);

  // Flushed and run once, then one word rewritten without a flush: the
  // re-entry builds a block over a dirty line and must still trap there.
  On = expectParity(assembled(+[](Assembler &A) {
    emitStraightLineFunction(A);
    A.li(T1, 32);
    A.flush(Cp, T1);
    A.li(V0, 0);
    A.jalr(Cp, Ra);
    A.sw(T0, 24, Cp); // `jr $ra` over the seventh addiu
    A.jalr(Cp, Ra);
    A.halt();
  }));
  EXPECT_EQ(On.R.FaultKind, Fault::IcacheIncoherent);
  EXPECT_EQ(On.R.FaultPc, layout::DynCodeBase + 16);
  EXPECT_EQ(On.Regs[V0], 11u);
  EXPECT_EQ(On.Violations, 1u);
}

TEST(FirstEntry, OutOfFuelMidFirstEntryMatchesInterpreter) {
  auto Code = assembled(+[](Assembler &A) {
    emitStraightLineFunction(A);
    A.li(T1, 32);
    A.flush(Cp, T1);
    A.li(V0, 0);
    A.jalr(Cp, Ra);
    A.jalr(Cp, Ra);
    A.halt();
  });
  // Sweep the budget over the run's last 18 instructions (two entries of
  // eight, the jalr between them and the halt) so exhaustion lands on
  // every instruction of the first (interpreted) and second (cached)
  // entry.
  const uint64_t Total = expectParity(Code).S.Executed;
  ASSERT_GE(Total, 18u);
  unsigned InDynamicCode = 0;
  for (uint64_t Fuel = Total - 18; Fuel < Total; ++Fuel) {
    SCOPED_TRACE("fuel=" + std::to_string(Fuel));
    RunOutcome On = expectParity(Code, Fuel);
    if (On.R.Reason == StopReason::OutOfFuel &&
        On.R.FaultPc >= layout::DynCodeBase &&
        On.R.FaultPc < layout::DynCodeEnd)
      ++InDynamicCode;
  }
  EXPECT_EQ(InDynamicCode, 16u); // 8 instructions per entry, two entries
}

//===----------------------------------------------------------------------===//
// Host-write coherence (store32 / writeBlock / flushIcache)
//===----------------------------------------------------------------------===//

namespace {

Vm makeHostWriteVm() {
  Vm M;
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  M.setReg(Sp, layout::StackTop);
  Assembler A(layout::StaticCodeBase);
  A.li(T0, static_cast<int32_t>(layout::DynCodeBase));
  A.jalr(T0, Ra);
  A.halt();
  A.finalize();
  M.writeBlock(A.baseAddr(), A.code().data(), A.code().size());
  return M;
}

} // namespace

TEST(HostWriteCoherence, WriteBlockIntoDynRegionRequiresFlush) {
  Vm M = makeHostWriteVm();
  const uint32_t Body[2] = {encodeI(Opcode::Addiu, V0, Zero, 7),
                            encodeR(Funct::Jr, Zero, Ra, Zero)};
  M.writeBlock(layout::DynCodeBase, Body, 2);

  // Host writes obey the same discipline as guest sw: unflushed -> trap.
  ExecResult R = M.run(layout::StaticCodeBase);
  EXPECT_EQ(R.Reason, StopReason::Trapped);
  EXPECT_EQ(R.FaultKind, Fault::IcacheIncoherent);
  EXPECT_EQ(R.FaultPc, layout::DynCodeBase);
  EXPECT_EQ(M.coherenceViolations(), 1u);

  // flushIcache is the host-side flush: clean lines, no simulated cycles.
  uint64_t CyclesBefore = M.stats().Cycles;
  M.flushIcache(layout::DynCodeBase, 8);
  EXPECT_EQ(M.stats().Cycles, CyclesBefore);
  R = M.run(layout::StaticCodeBase);
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(static_cast<int32_t>(R.V0), 7);
}

TEST(HostWriteCoherence, Store32RewriteInvalidatesCachedBlock) {
  Vm M = makeHostWriteVm();
  const uint32_t Body[2] = {encodeI(Opcode::Addiu, V0, Zero, 7),
                            encodeR(Funct::Jr, Zero, Ra, Zero)};
  M.writeBlock(layout::DynCodeBase, Body, 2);
  M.flushIcache(layout::DynCodeBase, 8);
  ASSERT_EQ(static_cast<int32_t>(M.run(layout::StaticCodeBase).V0), 7);

  // A single host store32 rewrite: dirty again, so execute-before-flush
  // traps; after flushing, the NEW body must run (a stale cached block
  // returning 7 would be a coherence bug in the engine itself).
  M.store32(layout::DynCodeBase, encodeI(Opcode::Addiu, V0, Zero, 8));
  ExecResult R = M.run(layout::StaticCodeBase);
  EXPECT_EQ(R.FaultKind, Fault::IcacheIncoherent);
  M.flushIcache(layout::DynCodeBase, 8);
  R = M.run(layout::StaticCodeBase);
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(static_cast<int32_t>(R.V0), 8);
}

TEST(HostWriteCoherence, Store32OutsideRegionsInvalidatesCachedBlock) {
  // No code regions: the cached subroutine block lies outside both, and a
  // host store over it must still drop it.
  Vm M;
  M.setReg(Sp, layout::StackTop);
  Assembler A(layout::StaticCodeBase);
  Label Fn = A.newLabel();
  A.jal(Fn);
  A.halt();
  A.bind(Fn);
  A.addiu(V0, Zero, 1);
  A.jr(Ra);
  A.finalize();
  M.writeBlock(A.baseAddr(), A.code().data(), A.code().size());
  ASSERT_EQ(static_cast<int32_t>(M.run(layout::StaticCodeBase).V0), 1);
  M.store32(A.addrOf(Fn), encodeI(Opcode::Addiu, V0, Zero, 2));
  ExecResult R = M.run(layout::StaticCodeBase);
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(static_cast<int32_t>(R.V0), 2);
}

TEST(HostWriteCoherence, StaticCodeLoadBeforeRegionsIsClean) {
  // The Machine facade loads static code via writeBlock BEFORE declaring
  // code regions; that load must not mark anything dirty.
  Vm M;
  Assembler A(layout::StaticCodeBase);
  A.li(V0, 5);
  A.halt();
  A.finalize();
  M.writeBlock(A.baseAddr(), A.code().data(), A.code().size());
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  ExecResult R = M.run(layout::StaticCodeBase);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(static_cast<int32_t>(R.V0), 5);
  EXPECT_EQ(M.coherenceViolations(), 0u);
}

//===----------------------------------------------------------------------===//
// Decode-cache statistics and Machine integration
//===----------------------------------------------------------------------===//

TEST(DecodeCacheStats, CountersTrackEngineActivity) {
  auto Code = assembled(+[](Assembler &A) {
    Label Loop = A.newLabel(), Done = A.newLabel();
    A.li(T0, 0);
    A.li(T1, 100);
    A.bind(Loop);
    A.slt(T2, T0, T1);
    A.beqz(T2, Done);
    A.addiu(T0, T0, 1);
    A.j(Loop);
    A.bind(Done);
    A.move(V0, T0);
    A.halt();
  });
  VmOptions VO;
  Vm M(VO);
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  M.writeBlock(layout::StaticCodeBase, Code.data(), Code.size());
  ASSERT_EQ(static_cast<int32_t>(M.run(layout::StaticCodeBase).V0), 100);

  const DecodeCacheStats &DC = M.decodeCacheStats();
  const VmStats &S = M.stats();
  if (M.decodeCacheEnabled()) {
    EXPECT_GT(DC.BlocksBuilt, 0u);
    EXPECT_GT(DC.BlockRuns, DC.BlocksBuilt); // loop re-dispatches blocks
    EXPECT_GT(DC.FusedOps, 0u);              // li and slt+beqz fuse
    EXPECT_EQ(DC.FastInsts + DC.SlowInsts, S.Executed);
  } else {
    EXPECT_EQ(DC.BlocksBuilt, 0u);
    EXPECT_EQ(DC.FastInsts, 0u);
    EXPECT_EQ(DC.SlowInsts, S.Executed);
  }
}

namespace {

const char *DotSrc =
    "fun dotprod v1 v2 = loop (v1, 0, length v1) (v2, 0)\n"
    "and loop (v1 : int vector, i, n) (v2 : int vector, sum) =\n"
    "  if i = n then sum\n"
    "  else loop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))\n";

int32_t runDotprod(Machine &M) {
  uint32_t V1 = M.heap().vector({1, 2, 3, 4, 5});
  uint32_t V2 = M.heap().vector({6, 7, 8, 9, 10});
  ExecResult R = M.call("dotprod", {V1, V2});
  EXPECT_TRUE(R.ok()) << R.describe();
  return static_cast<int32_t>(R.V0);
}

} // namespace

TEST(MachineIntegration, FullPipelineStatsAreBitIdentical) {
  DiagnosticEngine Diags;
  auto C = compile(DotSrc, FabiusOptions::deferred(), Diags);
  ASSERT_TRUE(C) << Diags.str();

  VmOptions On, Off;
  Off.EnableDecodeCache = false;
  Machine MOn(C->Unit, On), MOff(C->Unit, Off);
  EXPECT_EQ(runDotprod(MOn), 130);
  EXPECT_EQ(runDotprod(MOff), 130);

  // The whole generate -> flush -> execute pipeline, same simulated world.
  const VmStats &A = MOn.stats(), &B = MOff.stats();
  EXPECT_EQ(A.Executed, B.Executed);
  EXPECT_EQ(A.ExecutedStatic, B.ExecutedStatic);
  EXPECT_EQ(A.ExecutedDynamic, B.ExecutedDynamic);
  EXPECT_EQ(A.Loads, B.Loads);
  EXPECT_EQ(A.Stores, B.Stores);
  EXPECT_EQ(A.DynWordsWritten, B.DynWordsWritten);
  EXPECT_EQ(A.Flushes, B.Flushes);
  EXPECT_EQ(A.FlushedBytes, B.FlushedBytes);
  EXPECT_EQ(A.Cycles, B.Cycles);
}

TEST(MachineIntegration, ResetCodeSpaceInvalidatesCachedBlocks) {
  DiagnosticEngine Diags;
  auto C = compile(DotSrc, FabiusOptions::deferred(), Diags);
  ASSERT_TRUE(C) << Diags.str();

  Machine M(C->Unit);
  // Dynamic code is predecoded on its second entry: call the same
  // specialization twice (the second call is a memo hit).
  uint32_t V1 = M.heap().vector({1, 2, 3, 4, 5});
  uint32_t V2 = M.heap().vector({6, 7, 8, 9, 10});
  EXPECT_EQ(M.invokeOrDie<int32_t>("dotprod", {V1, V2}), 130);
  EXPECT_EQ(M.invokeOrDie<int32_t>("dotprod", {V1, V2}), 130);
  uint64_t InvalBefore = M.vm().decodeCacheStats().Invalidations;
  M.resetCodeSpace();
  if (M.vm().decodeCacheEnabled()) {
    // Specialized code re-entered from the dynamic segment, so reset must
    // have dropped cached blocks there.
    EXPECT_GT(M.vm().decodeCacheStats().Invalidations, InvalBefore);
  }
  // Respecialization after reset still computes the right answer.
  EXPECT_EQ(runDotprod(M), 130);
}

namespace {

const char *ScaleSrc = "fun f (k : int) (x : int) = x * k + k";

} // namespace

TEST(MachineIntegration, RunOnceDynamicCodeBuildsNoBlocks) {
  DiagnosticEngine Diags;
  auto C = compile(ScaleSrc, FabiusOptions::deferred(), Diags);
  ASSERT_TRUE(C) << Diags.str();
  Machine M(C->Unit);
  const DecodeCacheStats &DC = M.vm().decodeCacheStats();
  uint32_t Spec = M.specializeOrDie("f", {7});

  // callAt runs only the specialized code: its first entry is
  // interpreted and predecodes nothing.
  uint64_t Built = DC.BlocksBuilt, Fast = DC.FastInsts;
  EXPECT_EQ(M.callAtIntOrDie(Spec, {100}), 707);
  EXPECT_EQ(DC.BlocksBuilt, Built);
  EXPECT_EQ(DC.FastInsts, Fast);

  // Coming back builds the block and runs it on the fast path.
  EXPECT_EQ(M.callAtIntOrDie(Spec, {100}), 707);
  if (M.vm().decodeCacheEnabled()) {
    EXPECT_GT(DC.BlocksBuilt, Built);
    EXPECT_GT(DC.FastInsts, Fast);
  }
}

TEST(MachineIntegration, ResetForgetsEntriesAtReusedAddresses) {
  DiagnosticEngine Diags;
  auto C = compile(ScaleSrc, FabiusOptions::deferred(), Diags);
  ASSERT_TRUE(C) << Diags.str();
  Machine M(C->Unit);
  const DecodeCacheStats &DC = M.vm().decodeCacheStats();
  uint32_t Spec = M.specializeOrDie("f", {7});
  EXPECT_EQ(M.callAtIntOrDie(Spec, {100}), 707);
  EXPECT_EQ(M.callAtIntOrDie(Spec, {100}), 707);

  // The reset rewinds $cp, so the next specialization lands on the same
  // address; its first entry must be interpreted again, not predecoded
  // because the old code there was once entered.
  M.resetCodeSpace();
  ASSERT_EQ(M.specializeOrDie("f", {9}), Spec);
  uint64_t Built = DC.BlocksBuilt, Fast = DC.FastInsts;
  EXPECT_EQ(M.callAtIntOrDie(Spec, {100}), 909);
  EXPECT_EQ(DC.BlocksBuilt, Built);
  EXPECT_EQ(DC.FastInsts, Fast);
}
