#include "taint/taint_map.h"

namespace autovac::taint {

LabelSetId TaintMap::RangeUnion(uint32_t addr, uint32_t size) const {
  LabelSetId label = kEmptySet;
  for (uint32_t i = 0; i < size && addr + i < vm::kMemSize; ++i) {
    // Mutable union through the shared store; cheap due to memoization.
    label = const_cast<LabelStore&>(store_).Union(label, mem_.Get(addr + i));
  }
  return label;
}

void TaintMap::SetRange(uint32_t addr, uint32_t size, LabelSetId label) {
  for (uint32_t i = 0; i < size && addr + i < vm::kMemSize; ++i) {
    mem_.Set(addr + i, label);
  }
}

}  // namespace autovac::taint
