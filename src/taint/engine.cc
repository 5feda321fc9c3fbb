#include "taint/engine.h"

namespace autovac::taint {

void TaintEngine::OnStep(const vm::StepInfo& step) {
  ++propagation_ops_;
  // The kernel introduces `sys` taint explicitly via TaintReturnValue /
  // TaintMemory after handling the call.
  const LabelSetId control = options_.track_control_dependence
                                 ? control_.Step(step, map_)
                                 : kEmptySet;
  vm::PropagateStep(step, map_, control, options_.propagate_addresses);
  if (vm::GetOpInfo(step.inst.op).is_predicate && map_.Flags() != kEmptySet) {
    predicates_.push_back({step.pc, map_.Flags()});
  }
}

}  // namespace autovac::taint
