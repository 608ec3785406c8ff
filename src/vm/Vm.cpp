//===- Vm.cpp - FAB-32 simulator execution engine -------------------------===//
//
// Two-level interpretation (see docs/VM.md): run() dispatches predecoded
// basic blocks from a cache keyed by entry PC and falls back to the
// original per-instruction fetch/decode interpreter (stepSlow) whenever
// exact modeling demands it — fault injector armed, fuel nearly exhausted,
// or a dirty (unflushed) I-cache line under the block — and on the first
// entry into dynamic-segment code, which is predecoded only if execution
// comes back. The two tiers are bit-identical in every observable:
// registers, memory, VmStats, fault PCs, trap values, coherence-violation
// counts.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <sstream>

using namespace fab;

std::string ExecResult::describe() const {
  std::ostringstream OS;
  switch (Reason) {
  case StopReason::Halted:
    OS << "halted, v0=" << static_cast<int32_t>(V0);
    break;
  case StopReason::ReturnedToHost:
    OS << "returned, v0=" << static_cast<int32_t>(V0);
    break;
  case StopReason::OutOfFuel:
    OS << "out of fuel at pc=" << hex32(FaultPc);
    break;
  case StopReason::Trapped:
    OS << "trap at pc=" << hex32(FaultPc) << ": ";
    switch (FaultKind) {
    case Fault::None:
      OS << "none";
      break;
    case Fault::BadFetch:
      OS << "bad fetch";
      break;
    case Fault::BadAccess:
      OS << "bad access";
      break;
    case Fault::BadInstruction:
      OS << "bad instruction";
      break;
    case Fault::DivideByZero:
      OS << "divide by zero";
      break;
    case Fault::IcacheIncoherent:
      OS << "icache incoherent fetch";
      break;
    case Fault::ProgramTrap:
      OS << "program trap code " << TrapValue;
      break;
    case Fault::CodeSpaceExhausted:
      OS << "dynamic code space exhausted";
      break;
    }
    break;
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Micro-op dispatch tags
//===----------------------------------------------------------------------===//

namespace {

/// Dispatch codes for predecoded records. One tag per instruction form
/// (operand fields and immediates are pre-extracted) plus fused variants
/// for the two pairs the backend emits constantly: lui+ori constant
/// synthesis and compare+branch-on-result.
enum OpTag : uint8_t {
  TSll,
  TSrl,
  TSra,
  TSllv,
  TSrlv,
  TSrav,
  TJr,
  TJalr,
  TAddu,
  TSubu,
  TAnd,
  TOr,
  TXor,
  TNor,
  TSlt,
  TSltu,
  TMul,
  TDivq,
  TRem,
  TFAdd,
  TFSub,
  TFMul,
  TFDiv,
  TFLt,
  TFLe,
  TFEq,
  TCvtSW,
  TCvtWS,
  THalt,
  TFlush,
  TPutInt,
  TPutCh,
  TTrap,
  TJ,
  TJal,
  TBeq,
  TBne,
  TAddiu,
  TSlti,
  TSltiu,
  TAndi,
  TOri,
  TXori,
  TLui,
  TLw,
  TSw,
  /// An instruction whose only effect would be a write to $zero: counts
  /// toward every statistic but does nothing.
  TNop,
  /// An undecodable word: consumes fuel (the slow path charges fuel
  /// before decoding) then faults without counting as executed.
  TBadInst,
  /// lui rt, hi; ori rt, rt, lo  ->  rt = Aux (Len = 2).
  TLoadImm32,
  /// slt/sltu/slti/sltiu + beq/bne on the result against $zero (Len = 2).
  /// Shamt bits 0-1 select the compare (0 slt, 1 sltu, 2 slti, 3 sltiu);
  /// bit 2 is the branch sense (set = bne). The compare destination (Rd)
  /// is still written, exactly as the unfused pair would.
  TCmpBranch,
};

constexpr uint8_t CmpSlt = 0, CmpSltu = 1, CmpSlti = 2, CmpSltiu = 3;
constexpr uint8_t CmpBranchOnTrue = 4;

bool isBlockTerminator(uint8_t Tag) {
  switch (Tag) {
  case TJr:
  case TJalr:
  case TJ:
  case TJal:
  case TBeq:
  case TBne:
  case THalt:
  case TFlush:
  case TPutInt:
  case TPutCh:
  case TTrap:
  case TBadInst:
  case TCmpBranch:
    return true;
  default:
    return false;
  }
}

float floatOf(uint32_t Bits) { return std::bit_cast<float>(Bits); }
uint32_t bitsOf(float F) { return std::bit_cast<uint32_t>(F); }

uint8_t functTag(Funct Fn) {
  switch (Fn) {
  case Funct::Sll:
    return TSll;
  case Funct::Srl:
    return TSrl;
  case Funct::Sra:
    return TSra;
  case Funct::Sllv:
    return TSllv;
  case Funct::Srlv:
    return TSrlv;
  case Funct::Srav:
    return TSrav;
  case Funct::Jr:
    return TJr;
  case Funct::Jalr:
    return TJalr;
  case Funct::Addu:
    return TAddu;
  case Funct::Subu:
    return TSubu;
  case Funct::And:
    return TAnd;
  case Funct::Or:
    return TOr;
  case Funct::Xor:
    return TXor;
  case Funct::Nor:
    return TNor;
  case Funct::Slt:
    return TSlt;
  case Funct::Sltu:
    return TSltu;
  case Funct::Mul:
    return TMul;
  case Funct::Divq:
    return TDivq;
  case Funct::Rem:
    return TRem;
  case Funct::FAdd:
    return TFAdd;
  case Funct::FSub:
    return TFSub;
  case Funct::FMul:
    return TFMul;
  case Funct::FDiv:
    return TFDiv;
  case Funct::FLt:
    return TFLt;
  case Funct::FLe:
    return TFLe;
  case Funct::FEq:
    return TFEq;
  case Funct::CvtSW:
    return TCvtSW;
  case Funct::CvtWS:
    return TCvtWS;
  }
  return TNop;
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction and host memory access
//===----------------------------------------------------------------------===//

Vm::Vm(VmOptions Options) : Opts(Options) {
  assert(Opts.MemBytes >= 4 && (Opts.MemBytes & 3) == 0 &&
         "memory size must be word aligned and nonzero");
  assert(std::has_single_bit(Opts.IcacheLineBytes) &&
         "I-cache line size must be a power of two");
  LineShift = static_cast<uint32_t>(std::countr_zero(Opts.IcacheLineBytes));
  // Process-wide escape hatch so the whole test suite can run against the
  // reference interpreter without touching every construction site.
  if (const char *E = std::getenv("FAB_DECODE_CACHE"))
    if (E[0] == '0' && E[1] == '\0')
      Opts.EnableDecodeCache = false;
  // Same hatch for lifecycle tracing (forces it off even when a
  // construction site requested it).
  if (const char *E = std::getenv("FAB_TRACE"))
    if (E[0] == '0' && E[1] == '\0')
      Opts.EnableTrace = false;
  Ring.reset(Opts.TraceCapacity);
  Ring.setEnabled(Opts.EnableTrace);
  Mem.resize(Opts.MemBytes, 0);
  if (Opts.EnableDecodeCache)
    Quick.assign(QuickSlots, nullptr);
}

void Vm::setCodeRegions(uint32_t SLo, uint32_t SHi, uint32_t DLo,
                        uint32_t DHi) {
  // Dirty lines are tracked relative to the segment; carry the ones the
  // new segment still contains over to its bitmap.
  const BitSet OldDirty = std::move(Dirty);
  const uint32_t OldLine0 = DynLine0, OldLines = DynLines;
  StaticLo = SLo;
  StaticHi = SHi;
  DynLo = DLo;
  DynHi = DHi;
  DynLine0 = lineOf(DLo);
  DynLines = DHi > DLo ? lineOf(DHi - 1) - DynLine0 + 1 : 0;
  Dirty.reset(DynLines);
  Covered.reset(DynLines);
  Entered.reset(DHi > DLo ? dynWord(DHi - 1) + 1 : 0);
  DirtyCount = 0;
  for (uint32_t I = 0; I < OldLines; ++I)
    if (OldDirty.test(I) && isDynLine(OldLine0 + I))
      DirtyCount += Dirty.set(OldLine0 + I - DynLine0);
  // Region classes partition cached blocks; re-declaring regions could
  // split existing blocks differently, so start over.
  if (!Blocks.empty())
    clearDecodeCache();
}

size_t Vm::BitSet::assign(size_t Lo, size_t Hi, bool V) {
  size_t Changed = 0;
  while (Lo < Hi) {
    const size_t Bit = Lo & 63, N = std::min<size_t>(64 - Bit, Hi - Lo);
    const uint64_t Mask = (N == 64 ? ~uint64_t(0) : (uint64_t(1) << N) - 1)
                          << Bit;
    uint64_t &W = Words[Lo >> 6];
    const uint64_t Old = W;
    W = V ? Old | Mask : Old & ~Mask;
    Changed += static_cast<size_t>(std::popcount(Old ^ W));
    Lo += N;
  }
  return Changed;
}

uint32_t Vm::load32(uint32_t Addr) const {
  assert(inBounds(Addr) && (Addr & 3) == 0 && "host load out of range");
  uint32_t Value;
  std::memcpy(&Value, &Mem[Addr], 4);
  return Value;
}

void Vm::store32(uint32_t Addr, uint32_t Value) {
  assert(inBounds(Addr) && (Addr & 3) == 0 && "host store out of range");
  std::memcpy(&Mem[Addr], &Value, 4);
  noteHostWrite(Addr, 4);
}

void Vm::writeBlock(uint32_t Addr, const uint32_t *Words, size_t Count) {
  assert(inBounds(Addr + static_cast<uint32_t>(Count * 4) - 4) &&
         "host block write out of range");
  std::memcpy(&Mem[Addr], Words, Count * 4);
  noteHostWrite(Addr, static_cast<uint32_t>(Count * 4));
}

void Vm::noteHostWrite(uint32_t Lo, uint32_t Bytes) {
  uint32_t Hi = Lo + Bytes;
  // Host stores into the dynamic code segment obey the same coherence
  // discipline as guest `sw`: the touched lines become dirty and must be
  // flushed (guest `flush` or host flushIcache) before execution.
  const bool TouchesDyn = DynHi > DynLo && Lo < DynHi && Hi > DynLo;
  if (TouchesDyn)
    DirtyCount += Dirty.assign(dynLine(std::max(Lo, DynLo)),
                               dynLine(std::min(Hi, DynHi) - 1) + 1, true);
  // Predecoded blocks under the written range are stale regardless of
  // which code region they live in. A write touching neither region (heap
  // rows, call arguments, memo tables) can only hit blocks outside both.
  if (Blocks.empty() ||
      (!TouchesDyn && !OutsideBlocks && (Lo >= StaticHi || Hi <= StaticLo)))
    return;
  invalidateRange(Lo, Hi);
}

void Vm::flushIcache(uint32_t Addr, uint32_t Len) {
  // The lines [Addr, Addr + Len) names, in 64-bit arithmetic; an
  // unaligned Addr cleans its own line even when Len is 0.
  const uint64_t End = uint64_t(Addr) + Len;
  if (!DirtyCount || End <= (Addr & ~(Opts.IcacheLineBytes - 1)))
    return;
  const uint64_t First = lineOf(Addr), Last = (End - 1) >> LineShift;
  if (Last < DynLine0 || First >= uint64_t(DynLine0) + DynLines)
    return;
  const uint64_t L = std::max<uint64_t>(First, DynLine0) - DynLine0;
  const uint64_t H = std::min<uint64_t>(Last - DynLine0, DynLines - 1) + 1;
  DirtyCount -= Dirty.assign(L, H, false);
}

uint32_t Vm::fetch(uint32_t Addr) const {
  uint32_t Value;
  std::memcpy(&Value, &Mem[Addr], 4);
  return Value;
}

ExecResult Vm::stopFault(Fault Kind, uint32_t Pc, uint32_t TrapValue) {
  ExecResult R;
  R.Reason = StopReason::Trapped;
  R.FaultKind = Kind;
  R.FaultPc = Pc;
  R.TrapValue = TrapValue;
  R.V0 = Regs[V0];
  return R;
}

//===----------------------------------------------------------------------===//
// Block cache maintenance
//===----------------------------------------------------------------------===//

void Vm::clearDecodeCache() {
  if (Ring.enabled() && !Blocks.empty())
    Ring.record(telemetry::EventKind::BlockInvalidate, Stats.Executed,
                Blocks.begin()->first, Blocks.size());
  CacheStats.Invalidations += Blocks.size();
  ++CacheEpoch;
  // Move storage to Retired rather than destroying it: the capacity clear
  // can trigger mid-chain from lookupOrBuildBlock while a block is still
  // executing.
  for (auto &[Pc, B] : Blocks)
    Retired.push_back(std::move(B));
  Blocks.clear();
  LineOwners.clear();
  Covered.clearAll();
  OutsideBlocks = 0;
  if (!Quick.empty())
    std::fill(Quick.begin(), Quick.end(), nullptr);
}

void Vm::retireBlock(uint32_t EntryPc) {
  auto It = Blocks.find(EntryPc);
  if (It == Blocks.end())
    return;
  // Window 0: only back-to-back retirements (an invalidation flood from
  // one host write) coalesce into a single event with a count.
  if (Ring.enabled())
    Ring.recordMerged(telemetry::EventKind::BlockInvalidate, Stats.Executed,
                      /*Window=*/0, EntryPc, 1);
  Block *B = It->second.get();
  for (uint32_t L = B->FirstLine; L <= B->LastLine; ++L) {
    auto OIt = LineOwners.find(L);
    if (OIt == LineOwners.end())
      continue;
    auto &Owners = OIt->second;
    Owners.erase(std::remove(Owners.begin(), Owners.end(), EntryPc),
                 Owners.end());
    if (Owners.empty()) {
      LineOwners.erase(OIt);
      if (isDynLine(L))
        Covered.clear(L - DynLine0);
    }
  }
  if (Quick[quickSlot(EntryPc)] == B)
    Quick[quickSlot(EntryPc)] = nullptr;
  OutsideBlocks -= B->Region == 0;
  // Keep the storage alive until the next dispatch point: the retiring
  // store may have been issued from within this very block.
  Retired.push_back(std::move(It->second));
  Blocks.erase(It);
  ++CacheEpoch; // stale every chained successor pointer
  ++CacheStats.Invalidations;
}

void Vm::invalidateLineBlocks(uint32_t Addr) {
  auto It = LineOwners.find(lineOf(Addr));
  if (It == LineOwners.end())
    return;
  // retireBlock edits the owner lists; iterate over a snapshot.
  std::vector<uint32_t> Owners = It->second;
  for (uint32_t EntryPc : Owners)
    retireBlock(EntryPc);
}

void Vm::invalidateRange(uint32_t Lo, uint32_t Hi) {
  if (Lo >= Hi || LineOwners.empty())
    return;
  const uint64_t First = lineOf(Lo), Last = lineOf(Hi - 1);
  if (Last - First + 1 <= LineOwners.size() * 2) {
    for (uint64_t L = First; L <= Last; ++L)
      invalidateLineBlocks(static_cast<uint32_t>(L << LineShift));
    return;
  }
  // A wide write (e.g. loading a whole image) over a small cache: walk
  // the cached blocks instead of every line in the range.
  dropBlocks(Lo, Hi);
}

void Vm::dropBlocks(uint32_t Lo, uint32_t Hi) {
  uint64_t Dropped = 0;
  uint32_t FirstPc = ~0u;
  for (auto It = Blocks.begin(); It != Blocks.end();) {
    Block &B = *It->second;
    if (B.Base >= Hi || B.Base + 4 * B.InstCount <= Lo) {
      ++It;
      continue;
    }
    if (Quick[quickSlot(B.Base)] == &B)
      Quick[quickSlot(B.Base)] = nullptr;
    OutsideBlocks -= B.Region == 0;
    FirstPc = std::min(FirstPc, B.Base);
    ++Dropped;
    // Storage outlives the next dispatch point, as in retireBlock.
    Retired.push_back(std::move(It->second));
    It = Blocks.erase(It);
  }
  if (!Dropped)
    return;
  // Every owner of a line lying wholly inside [Lo, Hi) was dropped; any
  // other line keeps the owners that survived.
  for (auto It = LineOwners.begin(); It != LineOwners.end();) {
    const uint32_t L = It->first;
    auto &Owners = It->second;
    const uint64_t Begin = uint64_t(L) << LineShift;
    if (Begin < Lo || Begin + Opts.IcacheLineBytes > Hi)
      std::erase_if(Owners, [&](uint32_t Pc) { return !Blocks.count(Pc); });
    else
      Owners.clear();
    if (!Owners.empty()) {
      ++It;
      continue;
    }
    if (isDynLine(L))
      Covered.clear(L - DynLine0);
    It = LineOwners.erase(It);
  }
  ++CacheEpoch; // stale every chained successor pointer
  CacheStats.Invalidations += Dropped;
  if (Ring.enabled())
    Ring.record(telemetry::EventKind::BlockInvalidate, Stats.Executed,
                FirstPc, Dropped);
}

void Vm::invalidateDecodeCache(uint32_t Lo, uint32_t Hi) {
  if (Lo >= Hi)
    return;
  dropBlocks(Lo, Hi);
  if (Lo < DynHi && Hi > DynLo)
    Entered.assign(dynWord(std::max(Lo, DynLo)),
                   dynWord(std::min(Hi, DynHi) - 1) + 1, false);
}

bool Vm::noteCodeStore(uint32_t Addr) {
  if (inDynRegion(Addr)) {
    ++Stats.DynWordsWritten;
    markDirty(Addr);
    // No cached block overlaps an uncovered line.
    if (!Covered.test(dynLine(Addr)))
      return false;
  }
  if (LineOwners.empty())
    return false;
  const uint64_t Epoch = CacheEpoch;
  invalidateLineBlocks(Addr);
  return CacheEpoch != Epoch;
}

bool Vm::anyBlockLineDirty(const Block &B) const {
  for (uint32_t L = B.FirstLine; L <= B.LastLine; ++L)
    if (Dirty.test(L - DynLine0))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Block construction
//===----------------------------------------------------------------------===//

void Vm::buildBlock(uint32_t Pc, Block &B) {
  B.Base = Pc;
  B.Region = regionClass(Pc);
  B.Ops.reserve(8);
  const uint32_t Max = std::max(1u, Opts.MaxBlockInsts);
  uint32_t Count = 0;

  while (Count < Max) {
    if (!inBounds(Pc) || regionClass(Pc) != B.Region)
      break; // next instruction is the slow path's problem (BadFetch /
             // region straddle)
    Inst I;
    if (!decode(fetch(Pc), I)) {
      MicroOp Op;
      Op.Tag = TBadInst;
      B.Ops.push_back(Op);
      ++Count;
      break;
    }

    // Peek one ahead for pair fusion. Never fuse across the window cap,
    // a region boundary, or the end of memory.
    Inst N;
    bool HaveNext = false;
    if (Count + 2 <= Max && inBounds(Pc + 4) &&
        regionClass(Pc + 4) == B.Region)
      HaveNext = decode(fetch(Pc + 4), N);

    MicroOp Op;
    Op.Rs = I.Rs;
    Op.Rt = I.Rt;
    Op.Rd = I.Rd;
    Op.Shamt = I.Shamt;

    switch (I.Op) {
    case Opcode::Special:
      Op.Tag = functTag(I.Fn);
      // Pure ALU writes to $zero are architectural no-ops; Jr/Jalr are
      // control flow and Divq/Rem can still fault.
      if (I.Rd == 0 && Op.Tag != TJr && Op.Tag != TJalr &&
          Op.Tag != TDivq && Op.Tag != TRem)
        Op.Tag = TNop;
      // slt/sltu feeding a branch on the result against $zero.
      if ((Op.Tag == TSlt || Op.Tag == TSltu) && HaveNext &&
          (N.Op == Opcode::Beq || N.Op == Opcode::Bne) && N.Rs == I.Rd &&
          N.Rt == 0) {
        Op.Tag = TCmpBranch;
        Op.Len = 2;
        Op.Shamt = (I.Fn == Funct::Slt ? CmpSlt : CmpSltu);
        if (N.Op == Opcode::Bne)
          Op.Shamt |= CmpBranchOnTrue;
        Op.Aux = Pc + 8 + (static_cast<int32_t>(N.Imm) << 2);
      }
      break;
    case Opcode::Ext:
      switch (I.Ext) {
      case ExtFn::Halt:
        Op.Tag = THalt;
        break;
      case ExtFn::Flush:
        Op.Tag = TFlush;
        break;
      case ExtFn::PutInt:
        Op.Tag = TPutInt;
        break;
      case ExtFn::PutCh:
        Op.Tag = TPutCh;
        break;
      case ExtFn::Trap:
        Op.Tag = TTrap;
        break;
      }
      break;
    case Opcode::J:
    case Opcode::Jal:
      Op.Tag = I.Op == Opcode::J ? TJ : TJal;
      Op.Aux = (Pc & 0xF0000000u) | (I.Target << 2);
      break;
    case Opcode::Beq:
    case Opcode::Bne:
      Op.Tag = I.Op == Opcode::Beq ? TBeq : TBne;
      Op.Aux = Pc + 4 + (static_cast<int32_t>(I.Imm) << 2);
      break;
    case Opcode::Addiu:
      Op.Tag = I.Rt ? TAddiu : TNop;
      Op.Imm = static_cast<int32_t>(I.Imm);
      break;
    case Opcode::Slti:
    case Opcode::Sltiu:
      Op.Tag = I.Op == Opcode::Slti ? TSlti : TSltiu;
      Op.Imm = static_cast<int32_t>(I.Imm);
      if (I.Rt == 0)
        Op.Tag = TNop;
      else if (HaveNext && (N.Op == Opcode::Beq || N.Op == Opcode::Bne) &&
               N.Rs == I.Rt && N.Rt == 0) {
        Op.Rd = I.Rt; // compare destination
        Op.Tag = TCmpBranch;
        Op.Len = 2;
        Op.Shamt = (I.Op == Opcode::Slti ? CmpSlti : CmpSltiu);
        if (N.Op == Opcode::Bne)
          Op.Shamt |= CmpBranchOnTrue;
        Op.Aux = Pc + 8 + (static_cast<int32_t>(N.Imm) << 2);
      }
      break;
    case Opcode::Andi:
    case Opcode::Ori:
    case Opcode::Xori:
      Op.Tag = I.Rt == 0      ? TNop
               : I.Op == Opcode::Andi ? TAndi
               : I.Op == Opcode::Ori  ? TOri
                                      : TXori;
      Op.Imm = static_cast<int32_t>(static_cast<uint16_t>(I.Imm));
      break;
    case Opcode::Lui:
      Op.Tag = I.Rt ? TLui : TNop;
      Op.Aux = static_cast<uint32_t>(static_cast<uint16_t>(I.Imm)) << 16;
      // lui rt, hi; ori rt, rt, lo — the assembler's li expansion.
      if (I.Rt != 0 && HaveNext && N.Op == Opcode::Ori && N.Rs == I.Rt &&
          N.Rt == I.Rt) {
        Op.Tag = TLoadImm32;
        Op.Len = 2;
        Op.Rd = I.Rt;
        Op.Aux |= static_cast<uint16_t>(N.Imm);
      }
      break;
    case Opcode::Lw:
    case Opcode::Sw:
      Op.Tag = I.Op == Opcode::Lw ? TLw : TSw;
      Op.Imm = static_cast<int32_t>(I.Imm);
      break;
    }

    B.Ops.push_back(Op);
    Count += Op.Len;
    Pc += 4u * Op.Len;
    if (Op.Len == 2)
      ++CacheStats.FusedOps;
    if (isBlockTerminator(Op.Tag))
      break;
  }

  B.InstCount = Count;
  const uint32_t Line = Opts.IcacheLineBytes;
  B.FirstLine = B.Base / Line;
  B.LastLine = (B.Base + 4 * Count - 1) / Line;
}

Vm::Block *Vm::lookupOrBuildBlock(uint32_t Pc) {
  if (!inBounds(Pc) || (Pc & 3))
    return nullptr; // slow path raises BadFetch with exact accounting
  const uint32_t Slot = quickSlot(Pc);
  if (Block *B = Quick[Slot]; B && B->Base == Pc)
    return B;
  // A block starting at Pc would cover Pc's line, so an uncovered dynamic
  // line needs no map probe.
  const bool Dyn = inDynRegion(Pc);
  auto It = Dyn && !Covered.test(dynLine(Pc)) ? Blocks.end() : Blocks.find(Pc);
  if (It == Blocks.end()) {
    // Dynamic code is built on re-entry only; run() interprets (and
    // marks) the first entry.
    if (Dyn && !Entered.test(dynWord(Pc)))
      return nullptr;
    if (Blocks.size() >= std::max(1u, Opts.MaxCachedBlocks))
      clearDecodeCache();
    auto Owned = std::make_unique<Block>();
    buildBlock(Pc, *Owned);
    for (uint32_t L = Owned->FirstLine; L <= Owned->LastLine; ++L) {
      LineOwners[L].push_back(Pc);
      if (isDynLine(L))
        Covered.set(L - DynLine0);
    }
    OutsideBlocks += Owned->Region == 0;
    ++CacheStats.BlocksBuilt;
    if (TraceLive)
      Ring.record(telemetry::EventKind::BlockBuild, Stats.Executed, Pc,
                  Owned->InstCount);
    It = Blocks.emplace(Pc, std::move(Owned)).first;
  }
  Quick[Slot] = It->second.get();
  return It->second.get();
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

ExecResult Vm::call(uint32_t EntryPc, const std::vector<uint32_t> &Args) {
  assert(Args.size() <= 4 && "host call supports at most 4 register args");
  for (size_t I = 0; I < Args.size(); ++I)
    Regs[A0 + I] = Args[I];
  Regs[Ra] = HostReturnAddr;
  return run(EntryPc);
}

/// One instruction under the reference interpreter. Order of checks and
/// side effects is load-bearing: injector, fetch bounds, fuel, coherence,
/// decode, statistics, execute — matching the seed interpreter exactly.
bool Vm::stepSlow(RunState &S, ExecResult &R) {
  const uint32_t Pc = S.Pc;

  if (Opts.Injector.Armed) {
    const bool Fire = Opts.Injector.AtPc
                          ? Pc == Opts.Injector.AtPc
                          : S.ExecutedThisRun >= Opts.Injector.AfterInstructions;
    if (Fire) {
      FaultInjector FI = Opts.Injector;
      if (FI.OneShot)
        Opts.Injector.Armed = false;
      if (FI.Reason == StopReason::OutOfFuel) {
        R = ExecResult();
        R.Reason = StopReason::OutOfFuel;
        R.FaultPc = Pc;
        R.V0 = Regs[V0];
        return true;
      }
      R = stopFault(FI.Kind, Pc, FI.TrapValue);
      return true;
    }
  }
  ++S.ExecutedThisRun;
  if (!inBounds(Pc) || (Pc & 3)) {
    R = stopFault(Fault::BadFetch, Pc);
    return true;
  }
  if (S.Budget-- == 0) {
    R = ExecResult();
    R.Reason = StopReason::OutOfFuel;
    R.FaultPc = Pc;
    R.V0 = Regs[V0];
    return true;
  }

  // Coherence check: the generated-code discipline requires a flush
  // before executing freshly written dynamic code (paper section 3.4).
  if (DirtyCount && inDynRegion(Pc) && Dirty.test(dynLine(Pc))) {
    ++CoherenceViolations;
    if (Opts.TrapOnIncoherentFetch) {
      R = stopFault(Fault::IcacheIncoherent, Pc);
      return true;
    }
  }

  uint32_t Word = fetch(Pc);
  Inst I;
  if (!decode(Word, I)) {
    R = stopFault(Fault::BadInstruction, Pc);
    return true;
  }

  ++Stats.Executed;
  ++Stats.Cycles;
  ++CacheStats.SlowInsts;
  if (inStaticRegion(Pc))
    ++Stats.ExecutedStatic;
  else if (inDynRegion(Pc))
    ++Stats.ExecutedDynamic;

  uint32_t NextPc = Pc + 4;
  const uint32_t RsV = Regs[I.Rs];
  const uint32_t RtV = Regs[I.Rt];

  switch (I.Op) {
  case Opcode::Special: {
    uint32_t Result = 0;
    bool WriteRd = true;
    switch (I.Fn) {
    case Funct::Sll:
      Result = RtV << I.Shamt;
      break;
    case Funct::Srl:
      Result = RtV >> I.Shamt;
      break;
    case Funct::Sra:
      Result = static_cast<uint32_t>(static_cast<int32_t>(RtV) >> I.Shamt);
      break;
    case Funct::Sllv:
      Result = RtV << (RsV & 31);
      break;
    case Funct::Srlv:
      Result = RtV >> (RsV & 31);
      break;
    case Funct::Srav:
      Result = static_cast<uint32_t>(static_cast<int32_t>(RtV) >> (RsV & 31));
      break;
    case Funct::Jr:
      NextPc = RsV;
      WriteRd = false;
      break;
    case Funct::Jalr:
      Result = Pc + 4;
      NextPc = RsV;
      break;
    case Funct::Addu:
      Result = RsV + RtV;
      break;
    case Funct::Subu:
      Result = RsV - RtV;
      break;
    case Funct::And:
      Result = RsV & RtV;
      break;
    case Funct::Or:
      Result = RsV | RtV;
      break;
    case Funct::Xor:
      Result = RsV ^ RtV;
      break;
    case Funct::Nor:
      Result = ~(RsV | RtV);
      break;
    case Funct::Slt:
      Result = static_cast<int32_t>(RsV) < static_cast<int32_t>(RtV);
      break;
    case Funct::Sltu:
      Result = RsV < RtV;
      break;
    case Funct::Mul:
      Result = static_cast<uint32_t>(
          static_cast<int32_t>(RsV) *
          static_cast<int64_t>(static_cast<int32_t>(RtV)));
      break;
    case Funct::Divq:
      if (RtV == 0) {
        R = stopFault(Fault::DivideByZero, Pc);
        return true;
      }
      // INT_MIN / -1 wraps (hardware leaves it unspecified; we define it
      // so the reference interpreter can match).
      if (RsV == 0x80000000u && RtV == 0xFFFFFFFFu)
        Result = 0x80000000u;
      else
        Result = static_cast<uint32_t>(static_cast<int32_t>(RsV) /
                                       static_cast<int32_t>(RtV));
      break;
    case Funct::Rem:
      if (RtV == 0) {
        R = stopFault(Fault::DivideByZero, Pc);
        return true;
      }
      if (RsV == 0x80000000u && RtV == 0xFFFFFFFFu)
        Result = 0;
      else
        Result = static_cast<uint32_t>(static_cast<int32_t>(RsV) %
                                       static_cast<int32_t>(RtV));
      break;
    case Funct::FAdd:
      Result = bitsOf(floatOf(RsV) + floatOf(RtV));
      break;
    case Funct::FSub:
      Result = bitsOf(floatOf(RsV) - floatOf(RtV));
      break;
    case Funct::FMul:
      Result = bitsOf(floatOf(RsV) * floatOf(RtV));
      break;
    case Funct::FDiv:
      Result = bitsOf(floatOf(RsV) / floatOf(RtV));
      break;
    case Funct::FLt:
      Result = floatOf(RsV) < floatOf(RtV);
      break;
    case Funct::FLe:
      Result = floatOf(RsV) <= floatOf(RtV);
      break;
    case Funct::FEq:
      Result = floatOf(RsV) == floatOf(RtV);
      break;
    case Funct::CvtSW:
      Result = bitsOf(static_cast<float>(static_cast<int32_t>(RsV)));
      break;
    case Funct::CvtWS:
      Result = static_cast<uint32_t>(static_cast<int32_t>(floatOf(RsV)));
      break;
    }
    if (WriteRd && I.Rd != 0)
      Regs[I.Rd] = Result;
    break;
  }

  case Opcode::Ext:
    switch (I.Ext) {
    case ExtFn::Halt:
      R = ExecResult();
      R.Reason = StopReason::Halted;
      R.V0 = Regs[V0];
      return true;
    case ExtFn::Flush: {
      uint32_t Lo = RsV, Len = RtV;
      ++Stats.Flushes;
      Stats.FlushedBytes += Len;
      Stats.Cycles += Opts.FlushTrapCycles;
      if (Opts.FlushBytesPerCycle)
        Stats.Cycles += Len / Opts.FlushBytesPerCycle;
      flushIcache(Lo, Len);
      break;
    }
    case ExtFn::PutInt:
      Output += std::to_string(static_cast<int32_t>(RsV));
      break;
    case ExtFn::PutCh:
      Output += static_cast<char>(RsV & 0xFF);
      break;
    case ExtFn::Trap:
      R = stopFault(Fault::ProgramTrap, Pc, I.Shamt);
      return true;
    }
    break;

  case Opcode::J:
    NextPc = (Pc & 0xF0000000u) | (I.Target << 2);
    break;
  case Opcode::Jal:
    Regs[Ra] = Pc + 4;
    NextPc = (Pc & 0xF0000000u) | (I.Target << 2);
    break;
  case Opcode::Beq:
    if (RsV == RtV)
      NextPc = Pc + 4 + (static_cast<int32_t>(I.Imm) << 2);
    break;
  case Opcode::Bne:
    if (RsV != RtV)
      NextPc = Pc + 4 + (static_cast<int32_t>(I.Imm) << 2);
    break;
  case Opcode::Addiu:
    if (I.Rt != 0)
      Regs[I.Rt] = RsV + static_cast<uint32_t>(static_cast<int32_t>(I.Imm));
    break;
  case Opcode::Slti:
    if (I.Rt != 0)
      Regs[I.Rt] = static_cast<int32_t>(RsV) < static_cast<int32_t>(I.Imm);
    break;
  case Opcode::Sltiu:
    if (I.Rt != 0)
      Regs[I.Rt] = RsV < static_cast<uint32_t>(static_cast<int32_t>(I.Imm));
    break;
  case Opcode::Andi:
    if (I.Rt != 0)
      Regs[I.Rt] = RsV & static_cast<uint16_t>(I.Imm);
    break;
  case Opcode::Ori:
    if (I.Rt != 0)
      Regs[I.Rt] = RsV | static_cast<uint16_t>(I.Imm);
    break;
  case Opcode::Xori:
    if (I.Rt != 0)
      Regs[I.Rt] = RsV ^ static_cast<uint16_t>(I.Imm);
    break;
  case Opcode::Lui:
    if (I.Rt != 0)
      Regs[I.Rt] = static_cast<uint32_t>(static_cast<uint16_t>(I.Imm)) << 16;
    break;
  case Opcode::Lw: {
    uint32_t Addr = RsV + static_cast<uint32_t>(static_cast<int32_t>(I.Imm));
    if (!inBounds(Addr) || (Addr & 3)) {
      R = stopFault(Fault::BadAccess, Pc);
      return true;
    }
    ++Stats.Loads;
    // Loads from the read-only template pool are template-burst copies;
    // coalesce the per-word loads of one burst (the copy loop runs ~4
    // instructions per word, hence the window) into a single event.
    if (TraceLive && Addr >= TmplLo && Addr < TmplHi)
      Ring.recordMerged(telemetry::EventKind::TemplateFlush, Stats.Executed,
                        /*Window=*/16, Addr, 1);
    if (I.Rt != 0)
      Regs[I.Rt] = fetch(Addr);
    break;
  }
  case Opcode::Sw: {
    uint32_t Addr = RsV + static_cast<uint32_t>(static_cast<int32_t>(I.Imm));
    if (!inBounds(Addr) || (Addr & 3)) {
      R = stopFault(Fault::BadAccess, Pc);
      return true;
    }
    // Hard bound on dynamic-code emission: $cp is the dedicated code
    // pointer (never a temp), so a $cp-based store landing outside the
    // dynamic segment means the generator ran past DynCodeEnd (or was
    // mis-seated below DynCodeBase). Fault *before* writing so adjacent
    // regions (stack above, heap below) are never corrupted.
    if (I.Rs == Cp && DynHi != DynLo && !inDynRegion(Addr)) {
      R = stopFault(Fault::CodeSpaceExhausted, Pc);
      return true;
    }
    ++Stats.Stores;
    std::memcpy(&Mem[Addr], &RtV, 4);
    // Keep dirty lines and predecoded blocks coherent with code writes.
    if (mayTouchCode(Addr))
      noteCodeStore(Addr);
    break;
  }
  }

  S.Pc = NextPc;
  return false;
}

Vm::BlockExit Vm::execBlock(Block &B, RunState &S, ExecResult &R) {
  Block *Cur = &B;

for (;;) {
  uint32_t Pc = Cur->Base;
  uint64_t *RegionCtr = Cur->Region == 1   ? &Stats.ExecutedStatic
                        : Cur->Region == 2 ? &Stats.ExecutedDynamic
                                           : nullptr;
  const MicroOp *Ops = Cur->Ops.data();
  const size_t N = Cur->Ops.size();
  // Source instructions retired so far, accumulated locally and committed
  // to fuel + statistics at every exit. Equivalent to per-op updates
  // because counters are only observable after run() returns.
  uint64_t Done = 0;
  const auto Commit = [&] {
    S.Budget -= Done;
    Stats.Executed += Done;
    Stats.Cycles += Done;
    CacheStats.FastInsts += Done;
    if (RegionCtr)
      *RegionCtr += Done;
  };
  // Set by static-target terminators before `goto chain`: which of the
  // block's two successor slots (taken / fall-through) S.Pc went to.
  bool Taken = false;

  for (size_t Idx = 0; Idx < N; ++Idx) {
    // By reference is safe even under self-modifying code: a store that
    // retires Cur moves its storage to Retired, which outlives this call.
    const MicroOp &Op = Ops[Idx];
    if (Op.Tag == TBadInst) {
      // The slow path charges fuel before decoding, then faults without
      // counting the word as executed.
      Commit();
      --S.Budget;
      R = stopFault(Fault::BadInstruction, Pc);
      return BlockExit::Stopped;
    }
    Done += Op.Len; // fuel pre-checked against Cur->InstCount

    switch (Op.Tag) {
    case TNop:
      break;
    case TSll:
      Regs[Op.Rd] = Regs[Op.Rt] << Op.Shamt;
      break;
    case TSrl:
      Regs[Op.Rd] = Regs[Op.Rt] >> Op.Shamt;
      break;
    case TSra:
      Regs[Op.Rd] =
          static_cast<uint32_t>(static_cast<int32_t>(Regs[Op.Rt]) >> Op.Shamt);
      break;
    case TSllv:
      Regs[Op.Rd] = Regs[Op.Rt] << (Regs[Op.Rs] & 31);
      break;
    case TSrlv:
      Regs[Op.Rd] = Regs[Op.Rt] >> (Regs[Op.Rs] & 31);
      break;
    case TSrav:
      Regs[Op.Rd] = static_cast<uint32_t>(static_cast<int32_t>(Regs[Op.Rt]) >>
                                          (Regs[Op.Rs] & 31));
      break;
    case TAddu:
      Regs[Op.Rd] = Regs[Op.Rs] + Regs[Op.Rt];
      break;
    case TSubu:
      Regs[Op.Rd] = Regs[Op.Rs] - Regs[Op.Rt];
      break;
    case TAnd:
      Regs[Op.Rd] = Regs[Op.Rs] & Regs[Op.Rt];
      break;
    case TOr:
      Regs[Op.Rd] = Regs[Op.Rs] | Regs[Op.Rt];
      break;
    case TXor:
      Regs[Op.Rd] = Regs[Op.Rs] ^ Regs[Op.Rt];
      break;
    case TNor:
      Regs[Op.Rd] = ~(Regs[Op.Rs] | Regs[Op.Rt]);
      break;
    case TSlt:
      Regs[Op.Rd] = static_cast<int32_t>(Regs[Op.Rs]) <
                    static_cast<int32_t>(Regs[Op.Rt]);
      break;
    case TSltu:
      Regs[Op.Rd] = Regs[Op.Rs] < Regs[Op.Rt];
      break;
    case TMul:
      Regs[Op.Rd] = static_cast<uint32_t>(
          static_cast<int32_t>(Regs[Op.Rs]) *
          static_cast<int64_t>(static_cast<int32_t>(Regs[Op.Rt])));
      break;
    case TDivq: {
      const uint32_t RsV = Regs[Op.Rs], RtV = Regs[Op.Rt];
      if (RtV == 0) {
        Commit();
        R = stopFault(Fault::DivideByZero, Pc);
        return BlockExit::Stopped;
      }
      uint32_t Result;
      if (RsV == 0x80000000u && RtV == 0xFFFFFFFFu)
        Result = 0x80000000u;
      else
        Result = static_cast<uint32_t>(static_cast<int32_t>(RsV) /
                                       static_cast<int32_t>(RtV));
      if (Op.Rd)
        Regs[Op.Rd] = Result;
      break;
    }
    case TRem: {
      const uint32_t RsV = Regs[Op.Rs], RtV = Regs[Op.Rt];
      if (RtV == 0) {
        Commit();
        R = stopFault(Fault::DivideByZero, Pc);
        return BlockExit::Stopped;
      }
      uint32_t Result;
      if (RsV == 0x80000000u && RtV == 0xFFFFFFFFu)
        Result = 0;
      else
        Result = static_cast<uint32_t>(static_cast<int32_t>(RsV) %
                                       static_cast<int32_t>(RtV));
      if (Op.Rd)
        Regs[Op.Rd] = Result;
      break;
    }
    case TFAdd:
      Regs[Op.Rd] = bitsOf(floatOf(Regs[Op.Rs]) + floatOf(Regs[Op.Rt]));
      break;
    case TFSub:
      Regs[Op.Rd] = bitsOf(floatOf(Regs[Op.Rs]) - floatOf(Regs[Op.Rt]));
      break;
    case TFMul:
      Regs[Op.Rd] = bitsOf(floatOf(Regs[Op.Rs]) * floatOf(Regs[Op.Rt]));
      break;
    case TFDiv:
      Regs[Op.Rd] = bitsOf(floatOf(Regs[Op.Rs]) / floatOf(Regs[Op.Rt]));
      break;
    case TFLt:
      Regs[Op.Rd] = floatOf(Regs[Op.Rs]) < floatOf(Regs[Op.Rt]);
      break;
    case TFLe:
      Regs[Op.Rd] = floatOf(Regs[Op.Rs]) <= floatOf(Regs[Op.Rt]);
      break;
    case TFEq:
      Regs[Op.Rd] = floatOf(Regs[Op.Rs]) == floatOf(Regs[Op.Rt]);
      break;
    case TCvtSW:
      Regs[Op.Rd] =
          bitsOf(static_cast<float>(static_cast<int32_t>(Regs[Op.Rs])));
      break;
    case TCvtWS:
      Regs[Op.Rd] =
          static_cast<uint32_t>(static_cast<int32_t>(floatOf(Regs[Op.Rs])));
      break;

    case TAddiu:
      Regs[Op.Rt] = Regs[Op.Rs] + static_cast<uint32_t>(Op.Imm);
      break;
    case TSlti:
      Regs[Op.Rt] = static_cast<int32_t>(Regs[Op.Rs]) < Op.Imm;
      break;
    case TSltiu:
      Regs[Op.Rt] = Regs[Op.Rs] < static_cast<uint32_t>(Op.Imm);
      break;
    case TAndi:
      Regs[Op.Rt] = Regs[Op.Rs] & static_cast<uint32_t>(Op.Imm);
      break;
    case TOri:
      Regs[Op.Rt] = Regs[Op.Rs] | static_cast<uint32_t>(Op.Imm);
      break;
    case TXori:
      Regs[Op.Rt] = Regs[Op.Rs] ^ static_cast<uint32_t>(Op.Imm);
      break;
    case TLui:
      Regs[Op.Rt] = Op.Aux;
      break;
    case TLoadImm32:
      Regs[Op.Rd] = Op.Aux;
      break;

    case TLw: {
      const uint32_t Addr = Regs[Op.Rs] + static_cast<uint32_t>(Op.Imm);
      if (!inBounds(Addr) || (Addr & 3)) {
        Commit();
        R = stopFault(Fault::BadAccess, Pc);
        return BlockExit::Stopped;
      }
      ++Stats.Loads;
      // Template-burst copy detection; Stats.Executed is committed in
      // batches here, so add the local Done count for an exact stamp.
      if (TraceLive && Addr >= TmplLo && Addr < TmplHi)
        Ring.recordMerged(telemetry::EventKind::TemplateFlush,
                          Stats.Executed + Done, /*Window=*/16, Addr, 1);
      if (Op.Rt)
        Regs[Op.Rt] = fetch(Addr);
      break;
    }
    case TSw: {
      const uint32_t Addr = Regs[Op.Rs] + static_cast<uint32_t>(Op.Imm);
      if (!inBounds(Addr) || (Addr & 3)) {
        Commit();
        R = stopFault(Fault::BadAccess, Pc);
        return BlockExit::Stopped;
      }
      if (Op.Rs == Cp && DynHi != DynLo && !inDynRegion(Addr)) {
        Commit();
        R = stopFault(Fault::CodeSpaceExhausted, Pc);
        return BlockExit::Stopped;
      }
      ++Stats.Stores;
      const uint32_t Val = Regs[Op.Rt];
      std::memcpy(&Mem[Addr], &Val, 4);
      // Self-modifying code: the store may have retired this very block
      // (a store into its own instructions always does), so once any
      // block goes, bail out and let the dispatcher re-decode. (Retired
      // keeps Cur's storage alive; its fields stay readable.)
      if (mayTouchCode(Addr) && noteCodeStore(Addr)) [[unlikely]] {
        Commit();
        S.Pc = Pc + 4;
        return BlockExit::Next;
      }
      break;
    }

    // -- Block terminators -------------------------------------------------
    case TJr:
      Commit();
      S.Pc = Regs[Op.Rs];
      return BlockExit::Next;
    case TJalr: {
      Commit();
      const uint32_t Target = Regs[Op.Rs];
      if (Op.Rd)
        Regs[Op.Rd] = Pc + 4;
      S.Pc = Target;
      return BlockExit::Next;
    }
    case TJ:
      Commit();
      S.Pc = Op.Aux;
      Taken = true;
      goto chain;
    case TJal:
      Commit();
      Regs[Ra] = Pc + 4;
      S.Pc = Op.Aux;
      Taken = true;
      goto chain;
    case TBeq:
      Commit();
      Taken = Regs[Op.Rs] == Regs[Op.Rt];
      S.Pc = Taken ? Op.Aux : Pc + 4;
      goto chain;
    case TBne:
      Commit();
      Taken = Regs[Op.Rs] != Regs[Op.Rt];
      S.Pc = Taken ? Op.Aux : Pc + 4;
      goto chain;
    case TCmpBranch: {
      uint32_t Cond = 0;
      switch (Op.Shamt & 3) {
      case CmpSlt:
        Cond = static_cast<int32_t>(Regs[Op.Rs]) <
               static_cast<int32_t>(Regs[Op.Rt]);
        break;
      case CmpSltu:
        Cond = Regs[Op.Rs] < Regs[Op.Rt];
        break;
      case CmpSlti:
        Cond = static_cast<int32_t>(Regs[Op.Rs]) < Op.Imm;
        break;
      case CmpSltiu:
        Cond = Regs[Op.Rs] < static_cast<uint32_t>(Op.Imm);
        break;
      }
      Regs[Op.Rd] = Cond; // Rd != 0 guaranteed by the builder
      Taken = (Op.Shamt & CmpBranchOnTrue) ? Cond != 0 : Cond == 0;
      Commit();
      S.Pc = Taken ? Op.Aux : Pc + 8;
      goto chain;
    }

    case THalt:
      Commit();
      R = ExecResult();
      R.Reason = StopReason::Halted;
      R.V0 = Regs[V0];
      return BlockExit::Stopped;
    case TFlush: {
      Commit();
      const uint32_t Lo = Regs[Op.Rs], FlushLen = Regs[Op.Rt];
      ++Stats.Flushes;
      Stats.FlushedBytes += FlushLen;
      Stats.Cycles += Opts.FlushTrapCycles;
      if (Opts.FlushBytesPerCycle)
        Stats.Cycles += FlushLen / Opts.FlushBytesPerCycle;
      flushIcache(Lo, FlushLen);
      S.Pc = Pc + 4;
      return BlockExit::Next;
    }
    case TPutInt:
      Commit();
      Output += std::to_string(static_cast<int32_t>(Regs[Op.Rs]));
      S.Pc = Pc + 4;
      return BlockExit::Next;
    case TPutCh:
      Commit();
      Output += static_cast<char>(Regs[Op.Rs] & 0xFF);
      S.Pc = Pc + 4;
      return BlockExit::Next;
    case TTrap:
      Commit();
      R = stopFault(Fault::ProgramTrap, Pc, Op.Shamt);
      return BlockExit::Stopped;
    }

    Pc += 4u * Op.Len;
  }

  // Fell off the predecode window / region edge: straight-line successor.
  Commit();
  S.Pc = Pc;

chain:
  // Direct block-to-block transfer for static targets, skipping the
  // dispatch loop. Bail to run() whenever any of its bookkeeping is due:
  // retired storage to reclaim, fuel too low to pre-charge the successor,
  // or a dirty line demanding per-instruction coherence checks.
  if (!Retired.empty())
    return BlockExit::Next;
  Block *&Slot = Taken ? Cur->SuccTaken : Cur->SuccFall;
  uint64_t &SlotEpoch = Taken ? Cur->EpochTaken : Cur->EpochFall;
  Block *Nx = SlotEpoch == CacheEpoch ? Slot : nullptr;
  if (!Nx) {
    Nx = lookupOrBuildBlock(S.Pc);
    if (!Nx)
      return BlockExit::Next; // host return / BadFetch: run() decides
    Slot = Nx;
    SlotEpoch = CacheEpoch;
  }
  if (S.Budget < Nx->InstCount ||
      (Nx->Region == 2 && DirtyCount && anyBlockLineDirty(*Nx)))
    return BlockExit::Next;
  ++CacheStats.BlockRuns;
  Cur = Nx;
}
}

ExecResult Vm::run(uint32_t EntryPc) {
  RunState S{EntryPc, Opts.Fuel, 0};
  ExecResult R;
  const bool Fast = Opts.EnableDecodeCache;
  // Sample the atomic enable flag once per run; the per-instruction
  // instrumentation branches on this plain bool.
  TraceLive = Ring.enabled();

  while (true) {
    if (S.Pc == HostReturnAddr) {
      R = ExecResult();
      R.Reason = StopReason::ReturnedToHost;
      R.V0 = Regs[V0];
      return R;
    }
    // Fast tier. The slow path takes over whenever exactness needs the
    // per-instruction model: fault injector armed (injection points are
    // counted per instruction), fuel too low to pre-charge a whole
    // block, or a dirty line under the block (per-fetch coherence
    // checks must fire at the precise PC).
    if (Fast && !Opts.Injector.Armed) {
      if (!Retired.empty())
        Retired.clear();
      Block *B = lookupOrBuildBlock(S.Pc);
      if (B && S.Budget >= B->InstCount &&
          !(B->Region == 2 && DirtyCount && anyBlockLineDirty(*B))) {
        ++CacheStats.BlockRuns;
        if (execBlock(*B, S, R) == BlockExit::Stopped)
          return R;
        continue;
      }
      // First entry into dynamic code without a block: mark the entry and
      // interpret up to the first non-sequential PC or the segment's end.
      // Generated code mostly runs once, so the block waits for a return.
      if (!B && inDynRegion(S.Pc) && !(S.Pc & 3)) {
        Entered.set(dynWord(S.Pc));
        uint32_t Pc;
        do {
          Pc = S.Pc;
          if (stepSlow(S, R))
            return R;
        } while (S.Pc == Pc + 4 && inDynRegion(S.Pc));
        continue;
      }
    }
    if (stepSlow(S, R))
      return R;
  }
}

std::string Vm::disassembleRange(uint32_t Addr, unsigned Count) const {
  std::ostringstream OS;
  for (unsigned I = 0; I < Count; ++I) {
    uint32_t A = Addr + I * 4;
    OS << hex32(A) << ":  " << disassemble(load32(A), A) << '\n';
  }
  return OS.str();
}
