// Shadow state: one LabelSetId per register, per memory byte, and for the
// flags register. The memory shadow is paged copy-on-write like guest
// memory (vm::ShadowMemory): untouched pages read kEmptySet without being
// allocated, and a copy of the map copies a page table.
#pragma once

#include <array>

#include "taint/labels.h"
#include "vm/isa.h"
#include "vm/memory.h"

namespace autovac::taint {

// The label-set Shadow that vm::PropagateStep runs over.
class TaintMap {
 public:
  using Value = LabelSetId;

  explicit TaintMap(LabelStore& store) : store_(store) {}

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

  // The store's union; a join with the empty set needs no lookup.
  [[nodiscard]] LabelSetId Union(LabelSetId a, LabelSetId b) {
    if (a == kEmptySet) return b;
    return b == kEmptySet ? a : store_.Union(a, b);
  }

  [[nodiscard]] LabelSetId Byte(uint32_t addr) const {
    return addr < vm::kMemSize ? mem_.Get(addr) : kEmptySet;
  }
  // Shadow pages that hold a label (or once did).
  [[nodiscard]] size_t owned_pages() const { return mem_.owned_pages(); }

  [[nodiscard]] LabelStore& store() { return store_; }

 private:
  LabelStore& store_;
  std::array<LabelSetId, vm::kNumRegs> regs_{};
  LabelSetId flags_ = kEmptySet;
  vm::ShadowMemory<LabelSetId> mem_;
};

}  // namespace autovac::taint
