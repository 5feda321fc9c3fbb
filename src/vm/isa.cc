#include "vm/isa.h"

#include <array>

#include "support/status.h"

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

namespace {

std::array<OpInfo, static_cast<size_t>(Op::kOpCount)> BuildOpInfoTable() {
  std::array<OpInfo, static_cast<size_t>(Op::kOpCount)> table{};
  auto set = [&table](Op op, OpInfo info) {
    table[static_cast<size_t>(op)] = info;
  };
  // {reads_r1, writes_r1, reads_r2, reads_mem, writes_mem,
  //  reads_flags, writes_flags, is_branch, is_predicate}
  set(Op::kMovRI, {.writes_r1 = true});
  set(Op::kMovRR, {.writes_r1 = true, .reads_r2 = true});
  set(Op::kLoad, {.writes_r1 = true, .reads_r2 = true, .reads_mem = true});
  set(Op::kLoadB, {.writes_r1 = true, .reads_r2 = true, .reads_mem = true});
  set(Op::kStore, {.reads_r1 = true, .reads_r2 = true, .writes_mem = true});
  set(Op::kStoreB, {.reads_r1 = true, .reads_r2 = true, .writes_mem = true});
  set(Op::kLea, {.writes_r1 = true, .reads_r2 = true});
  set(Op::kPushR, {.reads_r1 = true, .writes_mem = true});
  set(Op::kPushI, {.writes_mem = true});
  set(Op::kPopR, {.writes_r1 = true, .reads_mem = true});
  const OpInfo alu_rr{.reads_r1 = true, .writes_r1 = true, .reads_r2 = true,
                      .writes_flags = true};
  const OpInfo alu_ri{.reads_r1 = true, .writes_r1 = true,
                      .writes_flags = true};
  for (Op op : {Op::kAddRR, Op::kSubRR, Op::kXorRR, Op::kAndRR, Op::kOrRR,
                Op::kMulRR}) {
    set(op, alu_rr);
  }
  for (Op op : {Op::kAddRI, Op::kSubRI, Op::kXorRI, Op::kAndRI, Op::kOrRI,
                Op::kMulRI, Op::kShlRI, Op::kShrRI}) {
    set(op, alu_ri);
  }
  const OpInfo unary{.reads_r1 = true, .writes_r1 = true, .writes_flags = true};
  for (Op op : {Op::kNotR, Op::kNegR, Op::kIncR, Op::kDecR}) set(op, unary);
  set(Op::kCmpRR, {.reads_r1 = true, .reads_r2 = true, .writes_flags = true,
                   .is_predicate = true});
  set(Op::kCmpRI, {.reads_r1 = true, .writes_flags = true,
                   .is_predicate = true});
  set(Op::kTestRR, {.reads_r1 = true, .reads_r2 = true, .writes_flags = true,
                    .is_predicate = true});
  set(Op::kTestRI, {.reads_r1 = true, .writes_flags = true,
                    .is_predicate = true});
  set(Op::kJmp, {.is_branch = true});
  for (Op op : {Op::kJz, Op::kJnz, Op::kJg, Op::kJl, Op::kJge, Op::kJle}) {
    set(op, {.reads_flags = true, .is_branch = true});
  }
  set(Op::kCall, {.writes_mem = true, .is_branch = true});
  set(Op::kRet, {.reads_mem = true, .is_branch = true});
  set(Op::kSys, {});
  return table;
}

}  // namespace

const OpInfo& GetOpInfo(Op op) {
  static const auto table = BuildOpInfoTable();
  const auto index = static_cast<size_t>(op);
  AUTOVAC_CHECK_MSG(index < table.size(), "bad opcode");
  return table[index];
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
