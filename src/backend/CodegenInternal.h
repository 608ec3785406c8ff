//===- CodegenInternal.h - Backend internals --------------------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Private interfaces shared by the plain and deferred code generators.
/// Not installed; include only from backend .cpp files.
///
/// Register conventions:
///
/// *Plain code*: named locals live in frame slots; expression temporaries
/// come from a free-list pool {t0..t7, v1}; $at, $t8, $t9 are scratch for
/// pseudo-instructions and instruction-encoding construction.
///
/// *Generator code*: as plain code, except that the early parameters and
/// early named values a register pays for live in callee-saved $s0..$s7
/// (EarlyRegs). They are saved, loaded and restored on the memo-miss path
/// only, so a memo hit runs the same instructions as a frame-slot
/// generator. Plain evaluation returns such a register *borrowed*: the
/// caller reads it but never writes it or returns it to the pool.
///
/// *Generated (dynamic) code*: late parameters arrive in $a0..$a3. In a
/// leaf specialization they stay there and named late locals are assigned
/// from the tail of the late temp pool. In a non-leaf specialization
/// (one that performs emitted calls), parameters and named locals live in
/// callee-saved $s0..$s7 (saved by an emitted prologue) and temporaries
/// that are live across an emitted call are pushed around it. $at is the
/// dedicated scratch register of emitted code (bounds checks, parallel
/// moves, lazy-call targets).
///
//===----------------------------------------------------------------------===//

#ifndef FAB_BACKEND_CODEGENINTERNAL_H
#define FAB_BACKEND_CODEGENINTERNAL_H

#include "asmkit/Assembler.h"
#include "backend/Backend.h"
#include "ml/Ast.h"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace fab {
namespace backend_detail {

/// Module-wide compilation state shared by all function compilers.
struct ModuleContext {
  const ml::Program &Prog;
  const BackendOptions &Opts;
  DiagnosticEngine &Diags;
  Assembler Asm;

  std::map<const ml::FunDef *, Label> FnLabels;  ///< plain entry / wrapper
  std::map<const ml::FunDef *, Label> GenLabels; ///< deferred: generator
  /// Second generator entry for callees of eager (memoized) tail calls.
  /// It runs the same memo lookup but marks the frame as nested, and a
  /// nested generator skips its I-cache flush: the outermost generator's
  /// flush of its whole emitted range already covers the callee's code.
  /// Empty when generation can run generated code (see
  /// generationRunsStagedCode).
  std::map<const ml::FunDef *, Label> NestedGenLabels;
  std::map<const ml::FunDef *, uint32_t> MemoAddrs;
  Label MkVecLabel;

  uint32_t DataBump = layout::StaticDataBase;

  /// Read-only emission templates (pre-encoded constant runs copied into
  /// the dynamic code segment by generators), interned so identical runs
  /// share one template. Loaded at layout::TemplateDataBase.
  std::vector<uint32_t> TemplatePool;
  std::map<std::vector<uint32_t>, uint32_t> TemplateIndex;

  ModuleContext(const ml::Program &P, const BackendOptions &O,
                DiagnosticEngine &D)
      : Prog(P), Opts(O), Diags(D), Asm(O.CodeBase) {}

  void error(SourceLoc Loc, std::string Msg) {
    Diags.error(Loc, std::move(Msg));
  }

  /// Allocates \p Words zero-initialized words in the static data region.
  uint32_t allocData(uint32_t Words);

  /// Interns \p Run in the template pool, returning its absolute address,
  /// or 0 when the template region is full (caller falls back to li/sw).
  uint32_t internTemplate(const std::vector<uint32_t> &Run);
};

/// Emits the in-VM runtime routines (currently __mkvec) and records their
/// labels in \p M.
void emitRuntimeRoutines(ModuleContext &M);

/// Adds to \p Out every staged function that staged function \p F's
/// generator enters eagerly: the callees of late staged tail calls that
/// are not inlined self tail calls (genTail's memoized tail call).
void collectEagerCallees(const ml::FunDef &F, const BackendOptions &Opts,
                         std::set<const ml::FunDef *> &Out);

/// True when some generator's early code calls an unstaged function that
/// can reach a staged call. Such a call runs generated code before the
/// outermost generator finishes, possibly code a nested generator emitted
/// and did not flush, so the program gets no nested generator entries.
bool generationRunsStagedCode(const ml::Program &P);

/// Pool of early/plain expression temporaries, in allocation order.
inline constexpr Reg TempOrder[9] = {T0, T1, T2, T3, T4, T5, T6, T7, V1};
/// Pool of late (generated-code) temporaries.
inline constexpr uint8_t LatePool[11] = {T0, T1, T2, T3, T4,
                                         T5, T6, T7, T8, T9, V1};
/// Generator frame slots available for backpatch holes.
inline constexpr unsigned MaxGenSlots = 48;

/// A value in *generated* code: a register number fixed at compile time.
struct LateReg {
  uint8_t R = 0;
  bool FromPool = false; ///< pool temporary (releasable) vs. named register
};

/// Compiles one function. Mode determines what is produced:
///  * PlainFn: ordinary code (curried groups concatenated).
///  * Wrapper: deferred-mode staged entry (calls generator, then code).
///  * Generator: the generating extension for a staged function.
class FnCompiler {
public:
  enum class Mode { PlainFn, Wrapper, Generator };

  FnCompiler(ModuleContext &M, const ml::FunDef &F, Mode M_);

  void compile();

private:
  using Expr = ml::Expr;
  using FunDef = ml::FunDef;

  // ====================== shared machinery ================================

  /// Pre-pass: computes generator leafness, late local register
  /// assignment, and whether inlined self tail calls occur under late
  /// conditionals (which forces the recursive body-procedure strategy;
  /// otherwise the generator loops, as in the paper, at no per-iteration
  /// frame cost).
  void scanBody(const Expr &E, bool IsTail, bool UnderLateCond);

  void emitPrologue();
  void emitEpilogue();
  uint32_t slotOffset(uint32_t Slot) const;

  // Early/plain temporaries (registers of the *running* function).
  // Free-list allocation: any release order is fine. Releasing a borrowed
  // early register (EarlyRegs) is a no-op.
  Reg allocTemp(SourceLoc Loc);
  void releaseTemp(Reg R);
  static bool isTemp(Reg R);
  /// Destination of an operation on \p Src: \p Hint when given (not
  /// Zero), else Src when it is a pool temporary (computed in place),
  /// else a fresh temporary. Src is released when it is not the result.
  Reg destFor(Reg Src, Reg Hint, SourceLoc Loc);
  /// Two-operand form: Hint, else L, else R if a temporary, else fresh.
  /// The operand that does not become the destination is released.
  Reg destFor2(Reg L, Reg R, Reg Hint, SourceLoc Loc);
  void spillTempsForCall();
  void reloadTempsAfterCall();

  // Plain expression evaluation; result in a pool temp, or a borrowed
  // early register. \p Hint (not Zero) names a register the outermost
  // operation may write its result to directly; the caller must ensure
  // nothing evaluated later reads Hint's old value.
  Reg evalPlain(const Expr &E, Reg Hint = Zero);
  /// The register holding early named value \p Slot, or Zero when the
  /// value lives in its frame slot.
  Reg earlyRegOf(uint32_t Slot) const;
  /// Stores \p V into the early named value \p Slot.
  void storeEarly(uint32_t Slot, Reg V);
  /// Evaluates \p E straight into the early named value \p Slot.
  void evalEarlyInto(uint32_t Slot, const Expr &E);
  /// Binds early named value \p Slot to the word at \p Off(\p Base).
  void loadEarlyField(uint32_t Slot, int32_t Off, Reg Base);
  /// Tail-position evaluation in plain code: direct self tail calls become
  /// jumps (the paper's ML compiler performs tail-call optimization, and
  /// the benchmark drivers rely on bounded stack usage).
  void evalPlainTail(const Expr &E);
  unsigned tempNeed(const Expr &E) const;
  Reg evalPlainCall(const Expr &E);
  void evalArgsToStage(const Expr &E, size_t First, size_t Count);
  void loadStagedArgsIntoRegs(size_t Count, uint32_t StackBase);
  Reg emitPlainVSub(const Expr &E, Reg Hint);
  Reg emitPlainBinary(const Expr &E, Reg Hint);
  void emitPlainCase(const Expr &E, Reg Result);
  /// Branches to \p Target when E's truth value equals \p WhenTrue,
  /// fusing comparisons into the branch (beq/bne/slt+bnez) instead of
  /// materializing a boolean. Falls through otherwise.
  void evalPlainCond(const Expr &E, Label Target, bool WhenTrue);

  // ====================== deferred machinery ==============================

  // Emission of generated-code words (runs inside the generator).
  void emitWordConst(uint32_t Word);
  /// Builds a word at generator run time: \p ConstPart OR'd with a field
  /// computed from \p FieldReg via (value >> Shr) << Shl masked to
  /// \p MaskBits bits. Used for immediates, jump targets.
  void emitWordDynamic(uint32_t ConstPart, Reg FieldReg, unsigned MaskBits,
                       unsigned Shr = 0);
  void flushCp();

  // Template-burst emission engine (see docs/INTERNALS.md, "Emission
  // strategy"). emitWordConst buffers words that are fully known when the
  // generator is compiled; the buffered run is flushed before anything
  // that needs the words in memory or $cp advanced.

  /// Flushes the buffered constant run: emits either a greedy li/sw
  /// sequence (with the T8/T9 peephole) or a template lw/sw copy,
  /// whichever executes fewer generator instructions. The copy-loop form
  /// for very long runs advances $cp and is only legal from flushCp();
  /// all other callers pass false and get position-independent stores.
  void flushConstRun(bool AllowCpAdvance);
  /// Loads \p Word into generator T8 with the fewest instructions given
  /// the tracked peephole state (may route through T9 for lui reuse).
  void materializeT8(uint32_t Word);
  /// Invalidates peephole knowledge if generator code was emitted since
  /// the last notePeephole() (branch targets, calls, or scratch use may
  /// have changed T8/T9 unpredictably).
  void syncPeephole();
  /// Marks the current assembly position as peephole-consistent.
  void notePeephole();

  // Late value plumbing.
  LateReg allocLate(SourceLoc Loc);
  void releaseLate(LateReg R);
  LateReg lateSlotReg(uint32_t Slot, SourceLoc Loc);
  void bindLateSlot(uint32_t Slot, LateReg Value);

  /// Compile-time value of an early expression when it is a literal
  /// (lets the generator skip run-time instruction-selection tests whose
  /// outcome is already known when the generator is compiled).
  static std::optional<int32_t> constEval(const Expr &E);

  /// Emits code that loads the generator-time value in \p EarlyVal into
  /// late register \p Target (run-time constant propagation with optional
  /// run-time instruction selection). \p Known short-circuits the RTIS
  /// test when the value is a compile-time literal.
  void emitResidualize(uint8_t TargetReg, Reg EarlyVal,
                       std::optional<int32_t> Known = std::nullopt);

  /// Generator-side conditional on whether the value in \p Val fits a
  /// 16-bit signed immediate: emits both emission paths and a run-time
  /// branch selecting between them (run-time instruction selection). With
  /// RTIS disabled only the general path is emitted; with \p Known set
  /// the test is resolved at generator-compile time and only the matching
  /// path is compiled (the emitted words are identical either way).
  void genIfFits16(Reg Val, const std::function<void()> &Small,
                   const std::function<void()> &Big,
                   std::optional<int32_t> Known = std::nullopt);

  /// Late expression evaluation: emits generated code computing E, returns
  /// the late register holding it.
  LateReg evalLate(const Expr &E);
  LateReg evalLateVSub(const Expr &E);
  LateReg evalLateBinary(const Expr &E);
  /// Emits the multiply \p MulE reusing the early factor value already in
  /// \p Fe instead of re-evaluating \p FactorE (single evaluation on the
  /// run-time strength-reduction fast path). The emitted words are
  /// identical to evalLate(MulE).
  LateReg emitLateMulWithFactor(const Expr &MulE, Reg Fe,
                                const Expr *FactorE);
  LateReg evalLateCase(const Expr &E);
  LateReg evalLateCall(const Expr &E);
  /// Shared emitted-call machinery. If \p StagedCallee is non-null the
  /// call is the lazy two-step sequence (generator then code); otherwise
  /// \p Target names ordinary static code.
  LateReg emitLateCallCommon(const Expr &E, const FunDef *StagedCallee,
                             Label Target, size_t FirstArg, size_t NumArgs);
  LateReg lateUnopDest(LateReg R);
  LateReg lateBinopDest(LateReg &L, LateReg &R);
  void emitMoveLate(uint8_t Dst, uint8_t Src);

  /// Tail-position generation: every path ends in emitted return or an
  /// emitted/generator-level tail transfer.
  void genTail(const Expr &E);
  /// Emitted word count of genTail(\p E), when that count is a
  /// generator-compile-time constant (a literal return or a
  /// register-resident variable return). A known length lets a late
  /// conditional emit its skip branch as one constant word instead of a
  /// reserve-hole/backpatch pair. nullopt for any shape whose length the
  /// generator cannot know statically; callers then fall back to a hole.
  std::optional<uint32_t> tailEmitLength(const Expr &E) const;
  /// Assigns an inlined self tail call's early arguments (loop strategy).
  void emitLoopUpdate(const Expr &E);
  void emitLateReturn(LateReg Value);
  void emitGeneratedPrologue();
  void emitRestoreFrame();

  /// One entry of an emitted parallel move into argument registers.
  struct MoveItem {
    uint8_t Dst;
    bool IsEarly;
    uint8_t SrcReg; ///< late source register (if !IsEarly)
    Reg EarlyReg;   ///< generator register holding the early value
    std::optional<int32_t> Known; ///< literal early value, if any
  };
  void emitParallelMove(std::vector<MoveItem> Moves);

  // Generator-side hole management (one-pass backpatching).
  uint32_t allocGenSlot();
  void freeGenSlot(uint32_t Off);
  /// Saves the current $cp into a generator frame slot and skips one word.
  uint32_t reserveHole();
  /// Patches a branch hole: ConstPart is the branch encoding with zero
  /// offset; the offset to the current $cp is computed at run time.
  void patchBranchHole(uint32_t HoleSlot, uint32_t ConstPart);
  /// Patches a jump hole targeting the current $cp.
  void patchJumpHoleToCp(uint32_t HoleSlot);
  /// Patches a jump hole targeting the address in \p AddrReg.
  void patchJumpHoleToReg(uint32_t HoleSlot, Reg AddrReg);

  /// Early key \p J for the memo path: $a0..$a3, or loaded into $t8.
  Reg memoKeyReg(size_t J);
  /// Memo lookup on the early keys. A hit returns through GenRetLabel;
  /// a miss falls through with the returned table/count/entry registers
  /// live for emitMissPath.
  struct MemoRegs {
    Reg Table = Zero, Count = Zero, Entry = Zero;
  };
  MemoRegs emitMemoLookup();
  /// Miss path shared by both entries: guard, alignment, in-progress memo
  /// entry, early registers, generated prologue.
  void emitMissPath(MemoRegs R);
  void emitGeneratorFinish();
  /// Picks the early named values that live in $s registers.
  void assignEarlyRegs();
  void emitCodeSpaceGuard();

  // ====================== wrappers / helpers ==============================

  void compilePlainBody();
  void compileWrapper();
  void compileGenerator();

  bool isStagedCallee(const Expr &E) const;
  bool isInlinableSelfTail(const Expr &E, bool IsTail) const;

  ModuleContext &M;
  Assembler &A;
  const ml::FunDef &F;
  Mode FMode;

  // Frame layout (byte offsets from $fp after prologue).
  uint32_t SpillOff = 0;
  uint32_t GenTmpOff = 0;
  uint32_t NumGenSlots = 0;
  uint32_t LocalOff = 0;
  uint32_t RaOff = 0;
  uint32_t FrameSize = 0;
  uint32_t Cp0Slot = 0; ///< generator frame slot holding the spec start
  uint32_t SaveOff = 0; ///< generator: save area of the $s registers used
  uint32_t NestedOff = 0; ///< generator: nonzero when entered nested

  // Early temp pool (free list).
  static constexpr unsigned NumTemps = 9;
  bool TempUsed[NumTemps] = {false};

  // Generator state.
  bool GenNonLeaf = false;
  bool HasInlinedSelfTail = false;
  bool NeedsBodyRecursion = false;
  bool HasNestedEntry = false; ///< some generator calls this one eagerly
  Label BodyStart;
  Label MissCommon;
  /// Early named value slot -> callee-saved register ($s0 upward).
  std::map<uint32_t, Reg> EarlyRegs;
  unsigned NumEarlySRegs = 0;
  std::map<uint32_t, uint8_t> LateSlotReg; ///< slot -> fixed late register
  unsigned NumLateParams = 0;
  unsigned NumLateSRegs = 0; ///< non-leaf: s-registers used (params+locals)
  unsigned LateTempLimit = 0;
  bool LateUsed[11] = {false};
  uint32_t PendingCp = 0;

  // Template-burst emission engine state. RunWords holds buffered
  // constant words whose stores are still pending; their $cp-relative
  // offsets are PendingCp - 4*RunWords.size() .. PendingCp - 4. KnownT8
  // and KnownT9Hi track the emit-time peephole (exact value in T8; T9
  // holding KnownT9Hi << 16 from a lui), valid only while no generator
  // code was assembled since GenWatermark.
  std::vector<uint32_t> RunWords;
  int64_t KnownT8 = -1;
  int64_t KnownT9Hi = -1;
  size_t GenWatermark = 0;
  std::vector<bool> GenSlotUsed;
  Label GenRetLabel;
  Label PlainBodyStart;
  Label PlainEpilogue;
};

} // namespace backend_detail
} // namespace fab

#endif // FAB_BACKEND_CODEGENINTERNAL_H
