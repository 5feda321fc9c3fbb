#include "vm/isa.h"

namespace autovac::vm {

std::string_view RegName(Reg reg) {
  switch (reg) {
    case Reg::kEax: return "eax";
    case Reg::kEbx: return "ebx";
    case Reg::kEcx: return "ecx";
    case Reg::kEdx: return "edx";
    case Reg::kEsi: return "esi";
    case Reg::kEdi: return "edi";
    case Reg::kEbp: return "ebp";
    case Reg::kEsp: return "esp";
    case Reg::kNone: return "<none>";
    default: return "<bad>";
  }
}

std::string_view OpName(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kHlt: return "hlt";
    case Op::kMovRI: return "mov";
    case Op::kMovRR: return "mov";
    case Op::kLoad: return "load";
    case Op::kStore: return "store";
    case Op::kLoadB: return "loadb";
    case Op::kStoreB: return "storeb";
    case Op::kLea: return "lea";
    case Op::kPushR: return "push";
    case Op::kPushI: return "push";
    case Op::kPopR: return "pop";
    case Op::kAddRR: case Op::kAddRI: return "add";
    case Op::kSubRR: case Op::kSubRI: return "sub";
    case Op::kXorRR: case Op::kXorRI: return "xor";
    case Op::kAndRR: case Op::kAndRI: return "and";
    case Op::kOrRR: case Op::kOrRI: return "or";
    case Op::kMulRR: case Op::kMulRI: return "mul";
    case Op::kShlRI: return "shl";
    case Op::kShrRI: return "shr";
    case Op::kNotR: return "not";
    case Op::kNegR: return "neg";
    case Op::kIncR: return "inc";
    case Op::kDecR: return "dec";
    case Op::kCmpRR: case Op::kCmpRI: return "cmp";
    case Op::kTestRR: case Op::kTestRI: return "test";
    case Op::kJmp: return "jmp";
    case Op::kJz: return "jz";
    case Op::kJnz: return "jnz";
    case Op::kJg: return "jg";
    case Op::kJl: return "jl";
    case Op::kJge: return "jge";
    case Op::kJle: return "jle";
    case Op::kCall: return "call";
    case Op::kRet: return "ret";
    case Op::kSys: return "sys";
    case Op::kOpCount: break;
  }
  return "<bad>";
}

const char* OpClassName(OpClass cls) {
  switch (cls) {
    case OpClass::kControl: return "control";
    case OpClass::kMove: return "move";
    case OpClass::kMemory: return "memory";
    case OpClass::kStack: return "stack";
    case OpClass::kAlu: return "alu";
    case OpClass::kCompare: return "compare";
    case OpClass::kBranch: return "branch";
    case OpClass::kCallRet: return "call";
    case OpClass::kSys: return "sys";
    case OpClass::kClassCount: break;
  }
  return "?";
}

namespace {

bool ValidRegister(int64_t reg) {
  return (reg >= 0 && reg < static_cast<int64_t>(Reg::kRegCount)) ||
         reg == static_cast<int64_t>(Reg::kNone);
}

}  // namespace

bool ValidOperands(int64_t op, int64_t r1, int64_t r2) {
  if (op < 0 || op >= static_cast<int64_t>(Op::kOpCount)) return false;
  if (!ValidRegister(r1) || !ValidRegister(r2)) return false;
  return r1 != static_cast<int64_t>(Reg::kNone) ||
         !GetOpInfo(static_cast<Op>(op)).writes_r1;
}

std::array<uint8_t, kEncodedInstrSize> EncodeInstruction(
    const Instruction& inst) {
  std::array<uint8_t, kEncodedInstrSize> out{};
  out[0] = static_cast<uint8_t>(inst.op);
  out[1] = static_cast<uint8_t>(inst.r1);
  out[2] = static_cast<uint8_t>(inst.r2);
  out[3] = 0;
  const auto imm = static_cast<uint32_t>(inst.imm);
  out[4] = static_cast<uint8_t>(imm);
  out[5] = static_cast<uint8_t>(imm >> 8);
  out[6] = static_cast<uint8_t>(imm >> 16);
  out[7] = static_cast<uint8_t>(imm >> 24);
  return out;
}

bool DecodeInstruction(const uint8_t* bytes, Instruction* out) {
  if (!ValidOperands(bytes[0], bytes[1], bytes[2]) || bytes[3] != 0) {
    return false;
  }
  const uint32_t imm = static_cast<uint32_t>(bytes[4]) |
                       (static_cast<uint32_t>(bytes[5]) << 8) |
                       (static_cast<uint32_t>(bytes[6]) << 16) |
                       (static_cast<uint32_t>(bytes[7]) << 24);
  out->op = static_cast<Op>(bytes[0]);
  out->r1 = static_cast<Reg>(bytes[1]);
  out->r2 = static_cast<Reg>(bytes[2]);
  out->imm = static_cast<int32_t>(imm);  // sign-extend relative offsets
  return true;
}

}  // namespace autovac::vm
