// One row per opcode, in the style of DrTaint's per-handler tables: each
// row pins what the VM does (the register or memory it writes, ZF/SF/OF,
// the next pc), which sources the backward slicer takes, and what
// vm::PropagateStep joins into the destination and the flags. Every row
// is also run on a vm::Cpu, and everything it changed beyond the row's
// declared destination fails the row.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/strings.h"
#include "vm/cpu.h"
#include "vm/dataflow.h"
#include "vm/memory.h"
#include "vm/program.h"

namespace autovac::vm {
namespace {

// Bits of the test shadow: each source starts as one of them.
constexpr uint32_t R1 = 1;   // eax, every row's r1 operand
constexpr uint32_t R2 = 2;   // ebx, every row's r2 value operand
constexpr uint32_t M = 4;    // the memory at StepInfo::mem_addr
constexpr uint32_t A = 8;    // esi, every row's address register
constexpr uint32_t C = 16;   // an open control-dependence region
constexpr uint32_t F = 32;   // the flags before the instruction

constexpr Reg kR1 = Reg::kEax;
constexpr Reg kR2 = Reg::kEbx;
constexpr Reg kAddr = Reg::kEsi;
constexpr Reg kNo = Reg::kNone;

// The guest layout every row runs in.
constexpr uint32_t kBuf = kDataBase + 0x100;  // esi; holds kBufWord
constexpr uint32_t kBufWord = 0xA1B2C3D4;
constexpr uint32_t kSp = kStackTop - 8;  // esp; [esp] holds kTarget
constexpr uint32_t kTarget = 3;          // every branch's and call's target

// The operands of the `cmp ecx, edx` that sets the flags before each
// row's instruction. By default INT_MAX - (-1): ZF clear, SF and OF set.
struct Setup {
  uint32_t ecx = 0x7FFFFFFF;
  uint32_t edx = 0xFFFFFFFF;
};
constexpr Setup kSetupO{0x80000000, 1};  // ZF and SF clear, OF set

enum class Where { kNothing, kR1, kMem };
struct Dest {
  Where where = Where::kNothing;
  uint32_t addr = 0;  // for kMem
  uint32_t value = 0;
};
Dest Nothing() { return {}; }
Dest ToR1(uint32_t value) { return {Where::kR1, 0, value}; }
Dest ToMem(uint32_t addr, uint32_t value) { return {Where::kMem, addr, value}; }

struct Row {
  Instruction inst;
  uint32_t eax = 0;  // initial r1 value
  uint32_t ebx = 0;  // initial r2 value
  Setup setup{};
  // --- the VM ---
  Dest dest{};
  std::string flags{};  // "ZSO"/"zso" per flag after the step; "" = unchanged
  uint32_t next_pc = 2;
  int esp_delta = 0;
  // --- dataflow ---
  uint32_t uses = 0;        // vm::ForEachSource with the address register
  uint32_t dest_join = 0;   // PropagateStep, addresses propagated
  uint32_t flags_join = F;  // PropagateStep
};

std::vector<Row> Table() {
  auto rr = [](Op op) { return Instruction{op, kR1, kR2, 0}; };
  auto ri = [](Op op, int64_t imm) { return Instruction{op, kR1, kNo, imm}; };
  auto r = [](Op op) { return Instruction{op, kR1, kNo, 0}; };
  auto jump = [](Op op) { return Instruction{op, kNo, kNo, kTarget}; };
  return {
      {.inst = {Op::kNop, kNo, kNo, 0}, .dest = Nothing()},
      {.inst = {Op::kHlt, kNo, kNo, 0}, .dest = Nothing(), .next_pc = 1},
      {.inst = ri(Op::kMovRI, 42), .dest = ToR1(42), .dest_join = C},
      {.inst = rr(Op::kMovRR), .ebx = 9, .dest = ToR1(9), .uses = R2,
       .dest_join = R2 | C},
      {.inst = {Op::kLoad, kR1, kAddr, 0}, .dest = ToR1(kBufWord),
       .uses = M | A, .dest_join = M | A | C},
      {.inst = {Op::kStore, kAddr, kR2, 4}, .ebx = 0x55667788,
       .dest = ToMem(kBuf + 4, 0x55667788), .uses = R2 | A,
       .dest_join = R2 | A | C},
      {.inst = {Op::kLoadB, kR1, kAddr, 1}, .dest = ToR1(0xC3),
       .uses = M | A, .dest_join = M | A | C},
      {.inst = {Op::kStoreB, kAddr, kR2, 5}, .ebx = 0x1234,
       .dest = ToMem(kBuf + 5, 0x34), .uses = R2 | A,
       .dest_join = R2 | A | C},
      {.inst = {Op::kLea, kR1, kR2, 4}, .ebx = 100, .dest = ToR1(104),
       .uses = R2, .dest_join = R2 | C},
      {.inst = r(Op::kPushR), .eax = 77, .dest = ToMem(kSp - 4, 77),
       .esp_delta = -4, .uses = R1, .dest_join = R1 | C},
      {.inst = {Op::kPushI, kNo, kNo, 5}, .dest = ToMem(kSp - 4, 5),
       .esp_delta = -4},
      {.inst = r(Op::kPopR), .dest = ToR1(kTarget), .esp_delta = 4,
       .uses = M, .dest_join = M},
      // Signed overflow past INT_MAX.
      {.inst = rr(Op::kAddRR), .eax = 0x7FFFFFFF, .ebx = 1,
       .dest = ToR1(0x80000000), .flags = "zSO", .uses = R1 | R2,
       .dest_join = R1 | R2, .flags_join = R1 | R2},
      {.inst = ri(Op::kAddRI, 1), .eax = 5, .dest = ToR1(6), .flags = "zso",
       .uses = R1, .dest_join = R1, .flags_join = R1},
      // Signed overflow past INT_MIN.
      {.inst = rr(Op::kSubRR), .eax = 0x80000000, .ebx = 1,
       .dest = ToR1(0x7FFFFFFF), .flags = "zsO", .uses = R1 | R2,
       .dest_join = R1 | R2, .flags_join = R1 | R2},
      {.inst = ri(Op::kSubRI, 1), .eax = 0x80000000, .dest = ToR1(0x7FFFFFFF),
       .flags = "zsO", .uses = R1, .dest_join = R1, .flags_join = R1},
      // xor r, r: the zeroing idiom has no source.
      {.inst = {Op::kXorRR, kR1, kR1, 0}, .eax = 0x1234, .dest = ToR1(0),
       .flags = "Zso", .flags_join = 0},
      {.inst = ri(Op::kXorRI, 0xFF), .eax = 0xF0, .dest = ToR1(0x0F),
       .flags = "zso", .uses = R1, .dest_join = R1, .flags_join = R1},
      {.inst = rr(Op::kAndRR), .eax = 0x80000001, .ebx = 0x80000000,
       .dest = ToR1(0x80000000), .flags = "zSo", .uses = R1 | R2,
       .dest_join = R1 | R2, .flags_join = R1 | R2},
      {.inst = ri(Op::kAndRI, 0), .eax = 7, .dest = ToR1(0), .flags = "Zso",
       .uses = R1, .dest_join = R1, .flags_join = R1},
      {.inst = rr(Op::kOrRR), .eax = 1, .ebx = 2, .dest = ToR1(3),
       .flags = "zso", .uses = R1 | R2, .dest_join = R1 | R2,
       .flags_join = R1 | R2},
      {.inst = ri(Op::kOrRI, 0x100), .eax = 1, .dest = ToR1(0x101),
       .flags = "zso", .uses = R1, .dest_join = R1, .flags_join = R1},
      // 0x10000 * 0x10000 wraps to 0: the signed product does not fit.
      {.inst = rr(Op::kMulRR), .eax = 0x10000, .ebx = 0x10000,
       .dest = ToR1(0), .flags = "ZsO", .uses = R1 | R2,
       .dest_join = R1 | R2, .flags_join = R1 | R2},
      {.inst = ri(Op::kMulRI, -3), .eax = 7, .dest = ToR1(0xFFFFFFEB),
       .flags = "zSo", .uses = R1, .dest_join = R1, .flags_join = R1},
      {.inst = ri(Op::kShlRI, 31), .eax = 3, .dest = ToR1(0x80000000),
       .flags = "zSo", .uses = R1, .dest_join = R1, .flags_join = R1},
      {.inst = ri(Op::kShrRI, 4), .eax = 0x80000000, .dest = ToR1(0x08000000),
       .flags = "zso", .uses = R1, .dest_join = R1, .flags_join = R1},
      {.inst = r(Op::kNotR), .eax = 0x7FFFFFFF, .dest = ToR1(0x80000000),
       .flags = "zSo", .uses = R1, .dest_join = R1, .flags_join = R1},
      {.inst = r(Op::kNegR), .eax = 0x80000000, .dest = ToR1(0x80000000),
       .flags = "zSO", .uses = R1, .dest_join = R1, .flags_join = R1},
      {.inst = r(Op::kIncR), .eax = 0x7FFFFFFF, .dest = ToR1(0x80000000),
       .flags = "zSO", .uses = R1, .dest_join = R1, .flags_join = R1},
      {.inst = r(Op::kDecR), .eax = 0x80000000, .dest = ToR1(0x7FFFFFFF),
       .flags = "zsO", .uses = R1, .dest_join = R1, .flags_join = R1},
      // INT_MAX - (-1) overflows.
      {.inst = rr(Op::kCmpRR), .eax = 0x7FFFFFFF, .ebx = 0xFFFFFFFF,
       .setup = kSetupO, .flags = "zSO", .uses = R1 | R2,
       .flags_join = R1 | R2},
      // INT_MIN - 1 overflows.
      {.inst = ri(Op::kCmpRI, 1), .eax = 0x80000000, .flags = "zsO",
       .uses = R1, .flags_join = R1},
      {.inst = rr(Op::kTestRR), .eax = 0x80000000, .ebx = 0x80000001,
       .flags = "zSo", .uses = R1 | R2, .flags_join = R1 | R2},
      {.inst = ri(Op::kTestRI, 1), .eax = 2, .flags = "Zso", .uses = R1,
       .flags_join = R1},
      {.inst = jump(Op::kJmp), .next_pc = kTarget},
      {.inst = jump(Op::kJz)},
      {.inst = jump(Op::kJnz), .next_pc = kTarget},
      // After INT_MAX - (-1): SF == OF, so greater, not less.
      {.inst = jump(Op::kJg), .next_pc = kTarget},
      // After INT_MIN - 1: SF != OF, so less, not greater or equal.
      {.inst = jump(Op::kJl), .setup = kSetupO, .next_pc = kTarget},
      {.inst = jump(Op::kJge), .setup = kSetupO},
      {.inst = jump(Op::kJle)},
      {.inst = jump(Op::kCall), .dest = ToMem(kSp - 4, 2), .next_pc = kTarget,
       .esp_delta = -4},
      {.inst = {Op::kRet, kNo, kNo, 0}, .next_pc = kTarget, .esp_delta = 4,
       .uses = M},
      {.inst = {Op::kSys, kNo, kNo, 0}},
  };
}

// A bit-set Shadow (vm/dataflow.h): a value is a set of source bits.
struct BitShadow {
  using Value = uint32_t;
  std::array<uint32_t, kNumRegs> regs{};
  uint32_t flags = F;
  std::map<uint32_t, uint32_t> mem;

  [[nodiscard]] Value Reg(vm::Reg reg) const {
    return reg == vm::Reg::kNone ? 0 : regs[static_cast<size_t>(reg)];
  }
  void SetReg(vm::Reg reg, Value value) {
    if (reg != vm::Reg::kNone) regs[static_cast<size_t>(reg)] = value;
  }
  [[nodiscard]] Value Flags() const { return flags; }
  void SetFlags(Value value) { flags = value; }
  [[nodiscard]] Value RangeUnion(uint32_t addr, uint32_t size) const {
    Value value = 0;
    for (uint32_t i = 0; i < size; ++i) {
      const auto it = mem.find(addr + i);
      if (it != mem.end()) value |= it->second;
    }
    return value;
  }
  void SetRange(uint32_t addr, uint32_t size, Value value) {
    for (uint32_t i = 0; i < size; ++i) mem[addr + i] = value;
  }
  static Value Union(Value a, Value b) { return a | b; }
};

std::string FlagString(const Cpu& cpu) {
  return {cpu.zf() ? 'Z' : 'z', cpu.sf() ? 'S' : 's', cpu.of() ? 'O' : 'o'};
}

// Captures the StepInfo of the instruction under test.
struct LastStep : ExecutionObserver {
  StepInfo step;
  void OnStep(const Cpu&, const StepInfo& info) override { step = info; }
};

// Runs `row` on a Cpu: `cmp ecx, edx` sets the flags, then the row's
// instruction executes. Checks what changed against the row.
StepInfo CheckCpu(const Row& row) {
  Program program;
  program.code = {{Op::kCmpRR, Reg::kEcx, Reg::kEdx, 0}, row.inst,
                  {Op::kHlt, kNo, kNo, 0}, {Op::kHlt, kNo, kNo, 0}};
  Memory memory;
  EXPECT_EQ(memory.Write32(kBuf, kBufWord), MemFault::kNone);
  EXPECT_EQ(memory.Write32(kSp, kTarget), MemFault::kNone);
  Cpu cpu(program, memory);
  for (size_t i = 0; i < kNumRegs; ++i) {
    cpu.set_reg(static_cast<Reg>(i), 0x1000 + static_cast<uint32_t>(i));
  }
  cpu.set_reg(kR1, row.eax);
  cpu.set_reg(kR2, row.ebx);
  cpu.set_reg(kAddr, kBuf);
  cpu.set_reg(Reg::kEsp, kSp);
  cpu.set_reg(Reg::kEcx, row.setup.ecx);
  cpu.set_reg(Reg::kEdx, row.setup.edx);
  EXPECT_EQ(cpu.Step(), StopReason::kRunning);

  std::array<uint32_t, kNumRegs> regs{};
  for (size_t i = 0; i < kNumRegs; ++i) regs[i] = cpu.reg(static_cast<Reg>(i));
  const std::string flags = FlagString(cpu);
  const Memory before = memory;
  LastStep observer;
  cpu.set_observer(&observer);
  cpu.Step();

  EXPECT_EQ(cpu.stop_reason(), row.inst.op == Op::kHlt ? StopReason::kHalted
                                                       : StopReason::kRunning);
  EXPECT_EQ(cpu.pc(), row.next_pc);
  EXPECT_EQ(FlagString(cpu), row.flags.empty() ? flags : row.flags);
  regs[static_cast<size_t>(Reg::kEsp)] += static_cast<uint32_t>(row.esp_delta);
  if (row.dest.where == Where::kR1) {
    regs[static_cast<size_t>(kR1)] = row.dest.value;
  }
  for (size_t i = 0; i < kNumRegs; ++i) {
    EXPECT_EQ(cpu.reg(static_cast<Reg>(i)), regs[i])
        << RegName(static_cast<Reg>(i));
  }
  // Guest memory changed exactly at the declared destination.
  std::set<uint32_t> changed;
  for (uint32_t page = 0; page < kMemSize; page += kPageBytes) {
    const std::string_view old_bytes = before.RawView(page, kPageBytes);
    const std::string_view new_bytes = memory.RawView(page, kPageBytes);
    for (uint32_t i = 0; i < kPageBytes; ++i) {
      if (old_bytes[i] != new_bytes[i]) changed.insert(page + i);
    }
  }
  std::set<uint32_t> expected;
  if (row.dest.where == Where::kMem) {
    EXPECT_EQ(observer.step.mem_addr, row.dest.addr);
    uint32_t value = 0;
    if (observer.step.mem_size == 1) {
      EXPECT_EQ(memory.Read8(row.dest.addr, &value), MemFault::kNone);
    } else {
      EXPECT_EQ(memory.Read32(row.dest.addr, &value), MemFault::kNone);
    }
    EXPECT_EQ(value, row.dest.value);
    for (uint32_t i = 0; i < observer.step.mem_size; ++i) {
      // A byte rewritten with its old value does not show as changed.
      if (before.RawView(row.dest.addr + i, 1) !=
          memory.RawView(row.dest.addr + i, 1)) {
        expected.insert(row.dest.addr + i);
      }
    }
  }
  EXPECT_EQ(changed, expected);
  return observer.step;
}

// Runs PropagateStep on the bit shadow and checks the joins and that
// nothing but the declared destination and the flags moved.
void CheckPropagation(const Row& row, const StepInfo& step,
                      bool propagate_addresses) {
  BitShadow shadow;
  shadow.SetReg(kR1, R1);
  shadow.SetReg(kR2, R2);
  shadow.SetReg(kAddr, A);
  shadow.SetRange(step.mem_addr, step.mem_size, M);
  const BitShadow before = shadow;
  PropagateStep(step, shadow, C, propagate_addresses);

  const uint32_t join =
      propagate_addresses ? row.dest_join : row.dest_join & ~A;
  BitShadow expected = before;
  if (row.dest.where == Where::kR1) expected.SetReg(kR1, join);
  if (row.dest.where == Where::kMem) {
    expected.SetRange(step.mem_addr, step.mem_size, join);
  }
  expected.flags = row.flags_join;
  EXPECT_EQ(shadow.regs, expected.regs);
  EXPECT_EQ(shadow.mem, expected.mem);
  EXPECT_EQ(shadow.flags, expected.flags);
}

TEST(OpcodeTable, OneRowPerOpcode) {
  std::map<Op, int> rows;
  for (const Row& row : Table()) ++rows[row.inst.op];
  for (size_t op = 0; op < kNumOps; ++op) {
    EXPECT_EQ(rows[static_cast<Op>(op)], 1)
        << OpName(static_cast<Op>(op)) << " (opcode " << op << ")";
  }
  EXPECT_EQ(rows.size(), kNumOps);
}

TEST(OpcodeTable, EveryRowHoldsOnTheCpuTheSlicerAndPropagateStep) {
  for (const Row& row : Table()) {
    SCOPED_TRACE(StrFormat("%s (opcode %d)",
                           std::string(OpName(row.inst.op)).c_str(),
                           static_cast<int>(row.inst.op)));
    const StepInfo step = CheckCpu(row);
    ASSERT_EQ(step.inst, row.inst);

    uint32_t uses = 0;
    uint32_t value_uses = 0;
    auto bit = [](Reg reg) {
      return reg == kR1 ? R1 : reg == kR2 ? R2 : reg == kAddr ? A : 0x100u;
    };
    ForEachSource(
        row.inst, /*with_address=*/true, [&](Reg reg) { uses |= bit(reg); },
        [&] { uses |= M; });
    ForEachSource(
        row.inst, /*with_address=*/false,
        [&](Reg reg) { value_uses |= bit(reg); }, [&] { value_uses |= M; });
    EXPECT_EQ(uses, row.uses);
    EXPECT_EQ(value_uses, row.uses & ~A);

    CheckPropagation(row, step, /*propagate_addresses=*/true);
    CheckPropagation(row, step, /*propagate_addresses=*/false);
  }
}

// A region opened by a conditional branch on tainted flags joins only the
// rows that declare C, and only inside the region.
TEST(OpcodeTable, ControlRegionFeedsOnlyRowsInsideIt) {
  BitShadow shadow;
  shadow.flags = R1;
  ControlRegion<uint32_t> region;
  StepInfo branch;
  branch.pc = 10;
  branch.inst = {Op::kJz, kNo, kNo, 14};
  EXPECT_EQ(region.Step(branch, shadow), 0u);  // opens [11, 14)
  StepInfo inside;
  inside.pc = 11;
  inside.inst = {Op::kMovRI, kR1, kNo, 1};
  EXPECT_EQ(region.Step(inside, shadow), R1);
  StepInfo after;
  after.pc = 14;
  after.inst = {Op::kSys, kNo, kNo, 0};
  EXPECT_EQ(region.Step(after, shadow), 0u);  // left; the region closes
  inside.pc = 12;
  EXPECT_EQ(region.Step(inside, shadow), 0u);
}

// The signed branches agree with a signed comparison of cmp's operands
// at and around both overflow boundaries.
TEST(SignedBranches, AgreeWithSignedComparisonAtTheBoundaries) {
  const std::vector<uint32_t> values = {0x80000000, 0x80000001, 0xFFFFFFFF,
                                        0,          1,          0x7FFFFFFE,
                                        0x7FFFFFFF};
  for (uint32_t a : values) {
    for (uint32_t b : values) {
      const auto sa = static_cast<int32_t>(a);
      const auto sb = static_cast<int32_t>(b);
      const std::map<Op, bool> expected = {{Op::kJg, sa > sb},
                                           {Op::kJl, sa < sb},
                                           {Op::kJge, sa >= sb},
                                           {Op::kJle, sa <= sb}};
      for (const auto& [op, taken] : expected) {
        Program program;
        program.code = {{Op::kCmpRR, kR1, kR2, 0}, {op, kNo, kNo, kTarget},
                        {Op::kHlt, kNo, kNo, 0}, {Op::kHlt, kNo, kNo, 0}};
        Memory memory;
        Cpu cpu(program, memory);
        cpu.set_reg(kR1, a);
        cpu.set_reg(kR2, b);
        cpu.Step();
        cpu.Step();
        EXPECT_EQ(cpu.pc(), taken ? kTarget : 2u)
            << OpName(op) << " after cmp " << sa << ", " << sb;
      }
    }
  }
}

}  // namespace
}  // namespace autovac::vm
