// Instruction set of the AUTOVAC sandbox VM.
//
// A compact 32-bit register machine with x86-flavoured semantics: eight
// GPRs, ZF/SF/OF flags set by ALU ops and cmp/test (the signed branches
// read OF as x86 does), push/pop/call/ret through a stack in
// memory, and a `sys` instruction that traps to the sandbox kernel. This
// is the abstraction level a dynamic binary instrumentation framework
// (DynamoRIO in the paper) exposes: every retired instruction, its
// operands and its memory effects are observable.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "support/status.h"

namespace autovac::vm {

enum class Reg : uint8_t {
  kEax = 0,
  kEbx,
  kEcx,
  kEdx,
  kEsi,
  kEdi,
  kEbp,
  kEsp,
  kRegCount,
  // Pseudo-register denoting "no base register" in memory operands.
  kNone = 255,
};

inline constexpr size_t kNumRegs = static_cast<size_t>(Reg::kRegCount);

[[nodiscard]] std::string_view RegName(Reg reg);

enum class Op : uint8_t {
  kNop = 0,
  kHlt,        // stop execution (normal completion)
  kMovRI,      // r1 <- imm
  kMovRR,      // r1 <- r2
  kLoad,       // r1 <- mem32[r2 + imm]
  kStore,      // mem32[r1 + imm] <- r2
  kLoadB,      // r1 <- zero_extend(mem8[r2 + imm])
  kStoreB,     // mem8[r1 + imm] <- low8(r2)
  kLea,        // r1 <- r2 + imm
  kPushR,      // push r1
  kPushI,      // push imm
  kPopR,       // r1 <- pop
  kAddRR, kAddRI,
  kSubRR, kSubRI,
  kXorRR, kXorRI,
  kAndRR, kAndRI,
  kOrRR,  kOrRI,
  kMulRR, kMulRI,
  kShlRI, kShrRI,
  kNotR, kNegR, kIncR, kDecR,
  kCmpRR, kCmpRI,    // set ZF/SF/OF from r1 - operand
  kTestRR, kTestRI,  // set ZF/SF from r1 & operand, clear OF
  kJmp,   // pc <- imm
  kJz, kJnz, kJg, kJl, kJge, kJle,  // conditional, signed
  kCall,  // push pc+1; pc <- imm
  kRet,   // pc <- pop
  kSys,   // trap to kernel; imm = ApiId; args at [esp], [esp+4], ...
  kOpCount,
};

[[nodiscard]] std::string_view OpName(Op op);

// One decoded instruction. The VM executes a vector<Instruction>; the
// program counter is an index into that vector.
struct Instruction {
  Op op = Op::kNop;
  Reg r1 = Reg::kNone;
  Reg r2 = Reg::kNone;
  int64_t imm = 0;

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

inline constexpr size_t kNumOps = static_cast<size_t>(Op::kOpCount);

// Coarse opcode classes for the dispatch-mix telemetry: each retired
// instruction bumps one per-class counter (a plain array increment on
// the interpreter hot path; the registry sees one bulk add per run).
enum class OpClass : uint8_t {
  kControl = 0,  // nop/hlt
  kMove,         // mov/lea
  kMemory,       // load/store (word and byte)
  kStack,        // push/pop
  kAlu,          // arithmetic, logic, shifts, inc/dec
  kCompare,      // cmp/test
  kBranch,       // jmp + conditionals
  kCallRet,      // call/ret
  kSys,          // kernel traps
  kClassCount,
};

inline constexpr size_t kNumOpClasses =
    static_cast<size_t>(OpClass::kClassCount);

[[nodiscard]] const char* OpClassName(OpClass cls);

// Which operand only forms a load's or store's address.
enum class AddrOperand : uint8_t { kNone = 0, kR1, kR2 };

// The one description of an opcode. The CPU's dispatch counters, the
// forward dataflow passes (taint over label sets, byte origins; see
// vm/dataflow.h) and the backward slicer all read this row.
//
// The dataflow model: an instruction writes the join of its value
// sources (in the order r1, r2, memory, address register, control) to
// what it defines — r1, the memory at StepInfo::mem_addr, the flags.
struct OpInfo {
  OpClass cls = OpClass::kControl;
  bool writes_r1 = false;
  bool writes_mem = false;  // the StepInfo::mem_addr/mem_size range
  // Value sources.
  bool src_r1 = false;
  bool src_r2 = false;
  bool src_mem = false;  // the StepInfo::mem_addr/mem_size range
  AddrOperand addr = AddrOperand::kNone;
  bool writes_flags = false;
  // The written value joins an open control-dependence region's value.
  bool joins_control = false;
  bool is_branch = false;
  bool is_conditional = false;  // jz..jle: may open such a region
  bool is_predicate = false;    // cmp/test — the paper's vaccine trigger
};

namespace internal {

constexpr std::array<OpInfo, kNumOps> BuildOpInfoTable() {
  std::array<OpInfo, kNumOps> table{};
  auto set = [&table](Op op, OpInfo info) {
    table[static_cast<size_t>(op)] = info;
  };
  set(Op::kNop, {.cls = OpClass::kControl});
  set(Op::kHlt, {.cls = OpClass::kControl});
  // Only the data moves join the control label.
  set(Op::kMovRI,
      {.cls = OpClass::kMove, .writes_r1 = true, .joins_control = true});
  for (Op op : {Op::kMovRR, Op::kLea}) {
    set(op, {.cls = OpClass::kMove, .writes_r1 = true, .src_r2 = true,
             .joins_control = true});
  }
  for (Op op : {Op::kLoad, Op::kLoadB}) {
    set(op, {.cls = OpClass::kMemory, .writes_r1 = true, .src_mem = true,
             .addr = AddrOperand::kR2, .joins_control = true});
  }
  for (Op op : {Op::kStore, Op::kStoreB}) {
    set(op, {.cls = OpClass::kMemory, .writes_mem = true, .src_r2 = true,
             .addr = AddrOperand::kR1, .joins_control = true});
  }
  set(Op::kPushR, {.cls = OpClass::kStack, .writes_mem = true,
                   .src_r1 = true, .joins_control = true});
  set(Op::kPushI, {.cls = OpClass::kStack, .writes_mem = true});
  set(Op::kPopR,
      {.cls = OpClass::kStack, .writes_r1 = true, .src_mem = true});
  // ALU ops write r1 and the flags with the join of their sources; the
  // immediate and unary forms thus copy r1 to the flags.
  for (Op op : {Op::kAddRR, Op::kSubRR, Op::kXorRR, Op::kAndRR, Op::kOrRR,
                Op::kMulRR}) {
    set(op, {.cls = OpClass::kAlu, .writes_r1 = true, .src_r1 = true,
             .src_r2 = true, .writes_flags = true});
  }
  for (Op op : {Op::kAddRI, Op::kSubRI, Op::kXorRI, Op::kAndRI, Op::kOrRI,
                Op::kMulRI, Op::kShlRI, Op::kShrRI, Op::kNotR, Op::kNegR,
                Op::kIncR, Op::kDecR}) {
    set(op, {.cls = OpClass::kAlu, .writes_r1 = true, .src_r1 = true,
             .writes_flags = true});
  }
  for (Op op : {Op::kCmpRR, Op::kTestRR}) {
    set(op, {.cls = OpClass::kCompare, .src_r1 = true, .src_r2 = true,
             .writes_flags = true, .is_predicate = true});
  }
  for (Op op : {Op::kCmpRI, Op::kTestRI}) {
    set(op, {.cls = OpClass::kCompare, .src_r1 = true, .writes_flags = true,
             .is_predicate = true});
  }
  set(Op::kJmp, {.cls = OpClass::kBranch, .is_branch = true});
  for (Op op : {Op::kJz, Op::kJnz, Op::kJg, Op::kJl, Op::kJge, Op::kJle}) {
    set(op, {.cls = OpClass::kBranch, .is_branch = true,
             .is_conditional = true});
  }
  // call pushes a constant (its return pc); ret reads its stack slot and
  // defines nothing the dataflow passes track.
  set(Op::kCall,
      {.cls = OpClass::kCallRet, .writes_mem = true, .is_branch = true});
  set(Op::kRet,
      {.cls = OpClass::kCallRet, .src_mem = true, .is_branch = true});
  set(Op::kSys, {.cls = OpClass::kSys});
  return table;
}

inline constexpr std::array<OpInfo, kNumOps> kOpInfoTable =
    BuildOpInfoTable();

}  // namespace internal

[[nodiscard]] inline const OpInfo& GetOpInfo(Op op) {
  const auto index = static_cast<size_t>(op);
  AUTOVAC_CHECK_MSG(index < kNumOps, "bad opcode");
  return internal::kOpInfoTable[index];
}

// --- in-memory instruction encoding ------------------------------------
// Runtime-generated code (unpacker payloads) lives in guest memory as a
// fixed 8-byte little-endian encoding the CPU can decode when the program
// counter points above the static code segment:
//
//   byte 0   opcode          (must be < kOpCount)
//   byte 1   r1              (0..7 or 255 = kNone; see ValidOperands)
//   byte 2   r2              (0..7 or 255 = kNone)
//   byte 3   reserved, 0
//   bytes 4-7  imm32, little-endian, sign-extended on decode
//
// Control flow in this encoding is pc-relative (byte offsets), so packed
// payloads are position-independent and a packer can place them anywhere
// in .data or heap.
inline constexpr uint32_t kEncodedInstrSize = 8;

[[nodiscard]] std::array<uint8_t, kEncodedInstrSize> EncodeInstruction(
    const Instruction& inst);

// The operand check of every decoder of untrusted instructions (the
// encoding below, and vaccine slices read from JSON): `op` is an opcode,
// `r1` and `r2` each name a register or kNone, and r1 is not kNone when
// the opcode writes it (the CPU would store past its register file).
[[nodiscard]] bool ValidOperands(int64_t op, int64_t r1, int64_t r2);

// Returns false (leaving `out` untouched) when the bytes are not a valid
// encoding: operands that fail ValidOperands, or a nonzero reserved byte.
[[nodiscard]] bool DecodeInstruction(const uint8_t* bytes, Instruction* out);

}  // namespace autovac::vm
