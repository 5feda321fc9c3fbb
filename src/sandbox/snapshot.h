// Machine-state checkpointing for mutation re-runs — the fast path behind
// snapshot replay.
//
// During a profiling (phase-1) run, a SnapshotRecorder captures one
// MachineSnapshot at the FIRST occurrence of each distinct resource-API
// call triple (api name, caller pc, identifier) — the same triple a
// mutation hook matches. A mutation re-run for a target whose triple was
// captured can then restore the snapshot and resume from the call site
// instead of replaying the whole prefix.
//
// Why a resumed run reproduces the legacy full re-run byte-for-byte:
// both start from identical baseline machines; the mutation hook is a
// pure function that returns "no interposition" for every call before
// the first occurrence of its triple; taint tracking observes machine
// state but never alters it; and the fault injector's per-run cursor
// (occurrence counters + probability stream) is part of the snapshot.
// So the hooked full run's machine state on reaching the target call is
// exactly the state the snapshot holds. The one precondition is that
// the resume uses the capture run's cycle budget: under a smaller
// budget a full re-run could have stopped *inside* the skipped prefix,
// which no resume can reproduce. See DESIGN.md §9.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "os/host_environment.h"
#include "sandbox/faults.h"
#include "sandbox/kernel.h"
#include "sandbox/sandbox.h"
#include "vm/cpu.h"
#include "vm/memory.h"

namespace autovac::sandbox {

// Everything needed to resume execution at a resource-API call site as
// if the program had run there from scratch. Move-only. Guest memory is
// copy-on-write pages shared with the capture run (vm/cow_pages.h), so it
// costs a page table plus the pages the run dirties afterwards; the host
// environment and the kernel state (trace prefix, shadow stack) are
// copied. The fault-injection cursor references the capture run's
// FaultPlan, which must outlive the snapshot. No taint state is captured:
// resumed runs are taint-free, like the full impact re-runs they replace.
struct MachineSnapshot {
  // HostEnvironment has no default state to construct from; a snapshot
  // starts life as a copy of the capture run's environment.
  explicit MachineSnapshot(const os::HostEnvironment& env_copy)
      : env(env_copy) {}

  // The call triple the snapshot was captured at (its first occurrence
  // in the capture run's trace).
  std::string api_name;
  uint32_t caller_pc = 0;
  std::string identifier;

  vm::CpuSnapshot cpu;
  vm::Memory memory;
  os::HostEnvironment env;
  KernelSnapshot kernel;
  // Fault-injection cursor at the capture point; null when the capture
  // run had no fault plan installed.
  std::unique_ptr<FaultInjector> injector;
  // Cycle budget of the capturing run; resumes under a different budget
  // must fall back to a full re-run (see file comment).
  uint64_t capture_budget = 0;

  // Approximate size: the non-default memory pages it references
  // (shared copy-on-write, not copied), the trace prefix and the shadow
  // stack.
  [[nodiscard]] size_t ApproxBytes() const;
};

// Collects snapshots during RunProgramWithCapture: the first occurrence
// of each distinct triple, at most `cap` in total. Single-threaded by
// design — captures happen inside one sandbox run; concurrent readers
// are fine once the run finished.
class SnapshotRecorder {
 public:
  explicit SnapshotRecorder(size_t cap = 32) : cap_(cap) {}

  // The snapshot captured for a triple, or null.
  [[nodiscard]] const MachineSnapshot* Find(
      const std::string& api_name, uint32_t caller_pc,
      const std::string& identifier) const;

  [[nodiscard]] size_t size() const { return snapshots_.size(); }
  // True when at least one triple went uncaptured because the cap was
  // hit; callers fall back to full re-runs for missing triples.
  [[nodiscard]] bool overflowed() const { return overflowed_; }
  [[nodiscard]] size_t total_bytes() const;

  // Capture-side interface, used by RunProgramWithCapture: whether this
  // triple still needs a snapshot (false marks overflow once the cap is
  // reached), and the insertion of a finished capture.
  [[nodiscard]] bool ShouldCapture(const std::string& api_name,
                                   uint32_t caller_pc,
                                   const std::string& identifier);
  void Add(MachineSnapshot snapshot);

 private:
  size_t cap_;
  bool overflowed_ = false;
  std::vector<MachineSnapshot> snapshots_;
  std::map<std::tuple<std::string, uint32_t, std::string>, size_t> by_triple_;
};

struct CaptureOptions {
  // Captures only triples whose identifier passes this test; empty
  // captures every triple. The pipeline passes its Phase-II eligibility
  // test, so no snapshot is taken for a triple it will never mutate.
  std::function<bool(std::string_view identifier)> eligible;
};

// RunProgram, additionally capturing machine snapshots into `recorder`
// at the first occurrence of every distinct (eligible) resource-API call
// triple. The probe copies state but never mutates it: the run's result
// and the machine it leaves behind are identical to a plain RunProgram.
[[nodiscard]] RunResult RunProgramWithCapture(
    const vm::Program& program, os::HostEnvironment& env,
    const RunOptions& options, const std::vector<ApiHook>& hooks,
    SnapshotRecorder& recorder, const CaptureOptions& capture = {});

struct ResumeOptions {
  // Must equal the snapshot's capture_budget for full-run equivalence.
  uint64_t cycle_budget = kOneMinuteBudget;
  // Execution-envelope caps; use the capture run's values.
  RunLimits limits;
};

// Restores `snapshot` onto a private machine copy and resumes execution
// with `hooks` installed, re-executing the captured call first. The
// result is full-run equivalent: the API trace starts with the captured
// prefix records. Resumed runs track no taint and never record an
// instruction trace.
[[nodiscard]] RunResult ResumeProgram(const vm::Program& program,
                                      const MachineSnapshot& snapshot,
                                      const ResumeOptions& options,
                                      const std::vector<ApiHook>& hooks = {});

}  // namespace autovac::sandbox
