// Instruction-level taint propagation ("for any instruction whose source
// operand has been associated with the tainted labels, we taint the
// destination operand with the same label", §III-B) plus the
// tainted-predicate monitor that flags a sample as "possibly has a
// vaccine" when a cmp/test touches tainted data.
#pragma once

#include <vector>

#include "taint/taint_map.h"
#include "vm/cpu.h"
#include "vm/dataflow.h"

namespace autovac::taint {

// A cmp/test whose operands carried taint.
struct PredicateEvent {
  uint32_t pc = 0;
  LabelSetId labels = kEmptySet;
};

struct TaintEngineOptions {
  // Propagate the address register's taint into loaded data (pointer
  // tainting). Off by default, matching the paper's data-flow focus; the
  // ablation bench flips it.
  bool propagate_addresses = false;

  // Propagate taint through control dependences: after a conditional
  // branch on tainted flags, values written inside the branch's forward
  // region carry the predicate's labels. This is the paper's §VII future
  // work ("malware could deliberately ... obfuscate through control
  // dependence"); off by default to match the published system. The
  // region is vm::ControlRegion's single-level span.
  bool track_control_dependence = false;
};

class TaintEngine {
 public:
  TaintEngine(LabelStore& store, TaintEngineOptions options = {})
      : map_(store), options_(options) {}

  // Propagates taint for one retired instruction by the opcode table's
  // policy (vm::PropagateStep) and records a tainted predicate when a
  // cmp/test leaves tainted flags. Call after the CPU executes the step
  // (register values in `step` are pre-execution).
  void OnStep(const vm::StepInfo& step);

  // --- kernel-side taint introduction (per the API labelling table) ---
  void TaintReturnValue(LabelSetId label) { map_.SetReg(vm::Reg::kEax, label); }
  void TaintMemory(uint32_t addr, uint32_t size, LabelSetId label) {
    map_.SetRange(addr, size, label);
  }
  // String-helper APIs propagate input-buffer taint to outputs.
  [[nodiscard]] LabelSetId MemoryLabel(uint32_t addr, uint32_t size) const {
    return map_.RangeUnion(addr, size);
  }

  [[nodiscard]] const std::vector<PredicateEvent>& predicates() const {
    return predicates_;
  }
  [[nodiscard]] bool AnyTaintedPredicate() const {
    return !predicates_.empty();
  }

  // Instructions this engine propagated taint for — a plain member
  // counter on the hot path, published to the metrics registry in bulk
  // by the sandbox once the run ends.
  [[nodiscard]] uint64_t propagation_ops() const { return propagation_ops_; }

  [[nodiscard]] TaintMap& map() { return map_; }
  [[nodiscard]] const TaintMap& map() const { return map_; }

 private:
  TaintMap map_;
  TaintEngineOptions options_;
  std::vector<PredicateEvent> predicates_;
  uint64_t propagation_ops_ = 0;
  vm::ControlRegion<LabelSetId> control_;
};

}  // namespace autovac::taint
