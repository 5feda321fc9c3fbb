// Instruction set of the AUTOVAC sandbox VM.
//
// A compact 32-bit register machine with x86-flavoured semantics: eight
// GPRs, ZF/SF flags set by cmp/test, push/pop/call/ret through a stack in
// memory, and a `sys` instruction that traps to the sandbox kernel. This
// is the abstraction level a dynamic binary instrumentation framework
// (DynamoRIO in the paper) exposes: every retired instruction, its
// operands and its memory effects are observable.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

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
  kCmpRR, kCmpRI,    // set ZF/SF from r1 - operand
  kTestRR, kTestRI,  // set ZF/SF from r1 & operand
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

// Operand-usage classification, derivable from the opcode alone; the taint
// engine and the backward slicer share it.
struct OpInfo {
  bool reads_r1 = false;
  bool writes_r1 = false;
  bool reads_r2 = false;
  bool reads_mem = false;   // a memory load (address from r2+imm or esp)
  bool writes_mem = false;  // a memory store
  bool reads_flags = false;
  bool writes_flags = false;
  bool is_branch = false;
  bool is_predicate = false;  // cmp/test — the paper's vaccine trigger
};

[[nodiscard]] const OpInfo& GetOpInfo(Op op);

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
