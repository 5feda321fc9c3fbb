// Shadow state: one LabelSetId per register, per memory byte, and for the
// flags register. The memory shadow is paged copy-on-write like guest
// memory (vm::ShadowMemory): untouched pages read kEmptySet without being
// allocated, and capturing the state copies a page table.
#pragma once

#include <array>

#include "taint/labels.h"
#include "vm/isa.h"
#include "vm/memory.h"

namespace autovac::taint {

// Value copy of a TaintMap's shadow state (registers, flags, memory) —
// everything except the label store it interprets against, which is
// snapshotted separately (LabelStore is itself copyable).
struct TaintMapState {
  std::array<LabelSetId, vm::kNumRegs> regs{};
  LabelSetId flags = kEmptySet;
  vm::ShadowMemory<LabelSetId> mem;
};

class TaintMap {
 public:
  explicit TaintMap(LabelStore& store) : store_(store) {}

  [[nodiscard]] TaintMapState CaptureState() const {
    return {regs_, flags_, mem_};
  }
  void RestoreState(const TaintMapState& state) {
    regs_ = state.regs;
    flags_ = state.flags;
    mem_ = state.mem;
  }

  [[nodiscard]] LabelSetId Reg(vm::Reg reg) const {
    return reg == vm::Reg::kNone ? kEmptySet
                                 : regs_[static_cast<size_t>(reg)];
  }
  void SetReg(vm::Reg reg, LabelSetId label) {
    if (reg != vm::Reg::kNone) regs_[static_cast<size_t>(reg)] = label;
  }

  [[nodiscard]] LabelSetId Flags() const { return flags_; }
  void SetFlags(LabelSetId label) { flags_ = label; }

  // Union of the labels on [addr, addr+size).
  [[nodiscard]] LabelSetId RangeUnion(uint32_t addr, uint32_t size) const;

  void SetRange(uint32_t addr, uint32_t size, LabelSetId label);

  [[nodiscard]] LabelSetId Byte(uint32_t addr) const {
    return addr < vm::kMemSize ? mem_.Get(addr) : kEmptySet;
  }

  [[nodiscard]] LabelStore& store() { return store_; }

 private:
  LabelStore& store_;
  std::array<LabelSetId, vm::kNumRegs> regs_{};
  LabelSetId flags_ = kEmptySet;
  vm::ShadowMemory<LabelSetId> mem_;
};

}  // namespace autovac::taint
