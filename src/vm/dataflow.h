// The instruction-level propagation policy, written once over the opcode
// table (OpInfo, vm/isa.h). The paper runs it forward from resource-API
// results to find tainted predicates (§III-B) and backward over the
// logged trace to slice identifiers (§IV-C): the taint engine runs
// PropagateStep over label sets, the determinism origin pass runs it over
// byte origins, and the backward slicer takes its uses from
// ForEachSource. Each forward pass handles `sys` (the kernel's effects)
// itself.
#pragma once

#include <algorithm>
#include <cstdint>

#include "vm/cpu.h"
#include "vm/isa.h"

namespace autovac::vm {

// Calls `reg(r)` for each register and `mem()` for the memory operand
// that `inst`'s written value is computed from, in join order: r1, r2,
// memory, then — only when `with_address` — the register that forms a
// load's or store's address.
template <typename RegFn, typename MemFn>
void ForEachSource(const Instruction& inst, bool with_address, RegFn&& reg,
                   MemFn&& mem) {
  // `xor r, r`, the x86 zeroing idiom, clears r and the flags: its value
  // has no source.
  if (inst.op == Op::kXorRR && inst.r1 == inst.r2) return;
  const OpInfo& info = GetOpInfo(inst.op);
  if (info.src_r1) reg(inst.r1);
  if (info.src_r2) reg(inst.r2);
  if (info.src_mem) mem();
  if (with_address && info.addr != AddrOperand::kNone) {
    reg(info.addr == AddrOperand::kR1 ? inst.r1 : inst.r2);
  }
}

// A Shadow holds one `Value` per register, per memory byte and for the
// flags, with Value{} as the empty value, and joins two values:
//   Value Reg(Reg) const;            void SetReg(Reg, Value);
//   Value Flags() const;             void SetFlags(Value);
//   Value RangeUnion(uint32_t addr, uint32_t size) const;
//   void SetRange(uint32_t addr, uint32_t size, Value);
//   Value Union(Value, Value);
//
// Writes the join of the retired instruction's sources, then of `control`
// where the row joins it, to what the instruction defines.
template <typename Shadow>
void PropagateStep(const StepInfo& step, Shadow& shadow,
                   typename Shadow::Value control, bool propagate_addresses) {
  const Instruction& inst = step.inst;
  const OpInfo& info = GetOpInfo(inst.op);
  typename Shadow::Value value{};
  ForEachSource(
      inst, propagate_addresses,
      [&](Reg reg) { value = shadow.Union(value, shadow.Reg(reg)); },
      [&] {
        value = shadow.Union(
            value, shadow.RangeUnion(step.mem_addr, step.mem_size));
      });
  if (info.joins_control) value = shadow.Union(value, control);
  if (info.writes_r1) shadow.SetReg(inst.r1, value);
  if (info.writes_mem) shadow.SetRange(step.mem_addr, step.mem_size, value);
  if (info.writes_flags) shadow.SetFlags(value);
}

// Control dependence (the paper's §VII future work): a conditional
// forward branch on non-empty flags opens a region in which written
// values join the predicate's value. The region is the single-level span
// between the branch and its forward target — enough for the if/else
// laundering idiom, not a full post-dominator analysis.
template <typename Value>
class ControlRegion {
 public:
  // Call for every retired instruction, `sys` included, before
  // PropagateStep. Returns the value the instruction's writes join, then
  // opens, widens or leaves the region.
  template <typename Shadow>
  Value Step(const StepInfo& step, Shadow& shadow) {
    const Value control =
        step.pc >= start_ && step.pc < end_ ? value_ : Value{};
    const Value flags = shadow.Flags();
    if (GetOpInfo(step.inst.op).is_conditional && flags != Value{}) {
      const auto target = static_cast<uint32_t>(step.inst.imm);
      if (target > step.pc) {  // forward branch: if/else shape
        value_ = shadow.Union(value_, flags);
        if (step.branch_taken) {
          // The else-arm executes; approximate its extent by the
          // then-arm's length (the compiler-ladder diamond is symmetric
          // enough for the laundering idiom).
          start_ = target;
          end_ = target + std::max<uint32_t>(target - step.pc - 1, 1);
        } else {
          start_ = step.pc + 1;
          end_ = target;
        }
      }
    } else if (step.pc >= end_) {
      value_ = Value{};  // left the region
      start_ = end_ = 0;
    }
    return control;
  }

 private:
  Value value_{};
  uint32_t start_ = 0;
  uint32_t end_ = 0;
};

}  // namespace autovac::vm
