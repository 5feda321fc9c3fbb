#include "sandbox/snapshot.h"

namespace autovac::sandbox {

size_t MachineSnapshot::ApproxBytes() const {
  size_t bytes = sizeof(MachineSnapshot);
  bytes += api_name.size() + identifier.size();
  bytes += memory.owned_pages() * sizeof(vm::MemoryPage);
  bytes += kernel.trace.calls.size() * sizeof(trace::ApiCallRecord);
  bytes += kernel.shadow_stack.size() * sizeof(uint32_t);
  return bytes;
}

const MachineSnapshot* SnapshotRecorder::Find(
    const std::string& api_name, uint32_t caller_pc,
    const std::string& identifier) const {
  auto it = by_triple_.find(std::make_tuple(api_name, caller_pc, identifier));
  if (it == by_triple_.end()) return nullptr;
  return &snapshots_[it->second];
}

size_t SnapshotRecorder::total_bytes() const {
  size_t total = 0;
  for (const MachineSnapshot& snapshot : snapshots_) {
    total += snapshot.ApproxBytes();
  }
  return total;
}

bool SnapshotRecorder::ShouldCapture(const std::string& api_name,
                                     uint32_t caller_pc,
                                     const std::string& identifier) {
  if (by_triple_.count(std::make_tuple(api_name, caller_pc, identifier)) > 0) {
    return false;
  }
  if (cap_ != 0 && snapshots_.size() >= cap_) {
    overflowed_ = true;
    return false;
  }
  return true;
}

void SnapshotRecorder::Add(MachineSnapshot snapshot) {
  by_triple_[std::make_tuple(snapshot.api_name, snapshot.caller_pc,
                             snapshot.identifier)] = snapshots_.size();
  snapshots_.push_back(std::move(snapshot));
}

}  // namespace autovac::sandbox
