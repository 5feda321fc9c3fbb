// Machine-snapshot checkpoint/restore: capture-time invariants and
// full-run equivalence of resumed executions, with and without hooks,
// fault plans, and taint-state capture.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analysis/impact.h"
#include "sandbox/sandbox.h"
#include "sandbox/snapshot.h"
#include "trace/serialize.h"

namespace autovac {
namespace {

using sandbox::AssembleForSandbox;
using sandbox::CaptureOptions;
using sandbox::MachineSnapshot;
using sandbox::ResumeOptions;
using sandbox::ResumeProgram;
using sandbox::RunOptions;
using sandbox::RunProgram;
using sandbox::RunProgramWithCapture;
using sandbox::SnapshotRecorder;

// Three distinct resource-API call sites (mutex create, failing file
// open, registry open), each a capturable triple, plus a tainted
// predicate so the sample looks like real phase-1 input.
constexpr const char* kMultiTripleSample = R"(
.name snapshot_sample
.rdata
  string mtx  "snapshot-marker"
  string cfg  "C:\\config\\settings.ini"
  string key  "HKCU\\Software\\Snapshot"
.text
  push mtx
  push 1
  sys CreateMutexA
  add esp, 8
  sys GetLastError
  cmp eax, 183
  jz infected
  push 3            ; OPEN_EXISTING: fails, so this is a mutation target
  push cfg
  sys CreateFileA
  add esp, 8
  push key
  sys RegOpenKeyA
  add esp, 4
  hlt
infected:
  push 0
  sys ExitProcess
)";

RunOptions TaintedRunOptions() {
  RunOptions options;
  options.enable_taint = true;
  return options;
}

TEST(SnapshotCapture, OneSnapshotPerDistinctTriple) {
  auto program = AssembleForSandbox(kMultiTripleSample);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  SnapshotRecorder recorder(/*cap=*/32);
  auto captured =
      RunProgramWithCapture(program.value(), env, TaintedRunOptions(), {},
                            recorder);
  EXPECT_EQ(captured.stop_reason, vm::StopReason::kHalted);

  // One capture per resource-API triple: CreateMutexA, CreateFileA,
  // RegOpenKeyA (GetLastError is not a resource API).
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_FALSE(recorder.overflowed());
  // Each snapshot references the run's few written pages (.rdata and the
  // stack), not a copy of the 1 MiB address space.
  EXPECT_GT(recorder.total_bytes(), 0u);
  EXPECT_LT(recorder.total_bytes(), 64u * 1024);

  const trace::ApiCallRecord* mutex_call = nullptr;
  for (const trace::ApiCallRecord& call : captured.api_trace.calls) {
    if (call.api_name == "CreateMutexA") mutex_call = &call;
  }
  ASSERT_NE(mutex_call, nullptr);
  const MachineSnapshot* snapshot = recorder.Find(
      "CreateMutexA", mutex_call->caller_pc, mutex_call->resource_identifier);
  ASSERT_NE(snapshot, nullptr);
  // The mutex call is the first API call, so its snapshot holds an empty
  // trace prefix and a machine that has consumed almost nothing.
  EXPECT_TRUE(snapshot->kernel.trace.calls.empty());
  EXPECT_EQ(snapshot->capture_budget, sandbox::kOneMinuteBudget);
  EXPECT_EQ(snapshot->injector, nullptr);
}

TEST(SnapshotCapture, CaptureRunMatchesPlainRun) {
  auto program = AssembleForSandbox(kMultiTripleSample);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment plain_env = os::HostEnvironment::StandardMachine();
  auto plain = RunProgram(program.value(), plain_env, TaintedRunOptions());

  os::HostEnvironment capture_env = os::HostEnvironment::StandardMachine();
  SnapshotRecorder recorder;
  auto captured = RunProgramWithCapture(program.value(), capture_env,
                                        TaintedRunOptions(), {}, recorder);

  // The probe only copies state: traces are byte-identical.
  EXPECT_EQ(trace::SerializeApiTrace(plain.api_trace),
            trace::SerializeApiTrace(captured.api_trace));
  EXPECT_EQ(plain.cycles_used, captured.cycles_used);
}

TEST(SnapshotCapture, CapRecordsOverflow) {
  auto program = AssembleForSandbox(kMultiTripleSample);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  SnapshotRecorder recorder(/*cap=*/1);
  (void)RunProgramWithCapture(program.value(), env, TaintedRunOptions(), {},
                              recorder);
  EXPECT_EQ(recorder.size(), 1u);
  EXPECT_TRUE(recorder.overflowed());
}

// Resuming each captured snapshot with the mutation hook for its triple
// must reproduce the hooked full re-run byte for byte — the property the
// pipeline fast path rests on.
TEST(SnapshotResume, HookedResumeMatchesHookedFullRun) {
  auto program = AssembleForSandbox(kMultiTripleSample);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment capture_env = os::HostEnvironment::StandardMachine();
  SnapshotRecorder recorder;
  auto natural = RunProgramWithCapture(program.value(), capture_env,
                                       TaintedRunOptions(), {}, recorder);
  auto targets = analysis::CollectMutationTargets(natural.api_trace);
  ASSERT_FALSE(targets.empty());

  for (const analysis::MutationTarget& target : targets) {
    SCOPED_TRACE(target.api_name + "/" + target.identifier);
    const MachineSnapshot* snapshot = recorder.Find(
        target.api_name, target.caller_pc, target.identifier);
    ASSERT_NE(snapshot, nullptr);

    const sandbox::ApiHook hook = analysis::MakeMutationHook(target);

    // Legacy path: hooked full re-run from a fresh machine (taint off,
    // like the impact analysis).
    os::HostEnvironment full_env = os::HostEnvironment::StandardMachine();
    RunOptions full_options;
    full_options.enable_taint = false;
    auto full = RunProgram(program.value(), full_env, full_options, {hook});

    // Fast path: restore + resume from the captured call site.
    ResumeOptions resume_options;
    resume_options.cycle_budget = snapshot->capture_budget;
    auto resumed = ResumeProgram(program.value(), *snapshot, resume_options,
                                 {hook});

    EXPECT_EQ(trace::SerializeApiTrace(full.api_trace),
              trace::SerializeApiTrace(resumed.api_trace));
    EXPECT_EQ(full.stop_reason, resumed.stop_reason);
    EXPECT_EQ(full.cycles_used, resumed.cycles_used);
    EXPECT_EQ(full.faults_injected, resumed.faults_injected);
  }
}

TEST(SnapshotResume, UnhookedResumeReproducesNaturalRun) {
  auto program = AssembleForSandbox(kMultiTripleSample);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment capture_env = os::HostEnvironment::StandardMachine();
  SnapshotRecorder recorder;
  RunOptions capture_options;
  capture_options.enable_taint = false;
  auto natural = RunProgramWithCapture(program.value(), capture_env,
                                       capture_options, {}, recorder);

  ASSERT_GT(recorder.size(), 0u);
  const std::string natural_bytes =
      trace::SerializeApiTrace(natural.api_trace);
  // Every snapshot resumes into the very same run it was captured from.
  for (const trace::ApiCallRecord& call : natural.api_trace.calls) {
    if (!call.is_resource_api) continue;
    const MachineSnapshot* snapshot = recorder.Find(
        call.api_name, call.caller_pc, call.resource_identifier);
    if (snapshot == nullptr) continue;
    ResumeOptions resume_options;
    resume_options.cycle_budget = snapshot->capture_budget;
    auto resumed = ResumeProgram(program.value(), *snapshot, resume_options);
    EXPECT_EQ(natural_bytes, trace::SerializeApiTrace(resumed.api_trace));
    EXPECT_EQ(natural.stop_reason, resumed.stop_reason);
    EXPECT_EQ(natural.cycles_used, resumed.cycles_used);
  }
}

// The fault-injection cursor is part of the snapshot: resumes under a
// fault plan replay exactly the faults the hooked full run would see.
TEST(SnapshotResume, FaultPlanCursorSurvivesResume) {
  auto program = AssembleForSandbox(kMultiTripleSample);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  for (uint64_t seed : {3u, 17u, 1234u}) {
    SCOPED_TRACE(seed);
    const sandbox::FaultPlan plan =
        sandbox::FaultPlan::Randomized(seed, /*fault_rate=*/0.3);
    RunOptions options;
    options.enable_taint = true;
    options.fault_plan = &plan;

    os::HostEnvironment capture_env = os::HostEnvironment::StandardMachine();
    SnapshotRecorder recorder;
    auto natural = RunProgramWithCapture(program.value(), capture_env, options,
                                         {}, recorder);
    auto targets = analysis::CollectMutationTargets(natural.api_trace);

    for (const analysis::MutationTarget& target : targets) {
      SCOPED_TRACE(target.api_name + "/" + target.identifier);
      const MachineSnapshot* snapshot = recorder.Find(
          target.api_name, target.caller_pc, target.identifier);
      if (snapshot == nullptr) continue;  // not every target has a capture
      const sandbox::ApiHook hook = analysis::MakeMutationHook(target);

      os::HostEnvironment full_env = os::HostEnvironment::StandardMachine();
      RunOptions full_options;
      full_options.enable_taint = false;
      full_options.fault_plan = &plan;
      auto full = RunProgram(program.value(), full_env, full_options, {hook});

      ResumeOptions resume_options;
      resume_options.cycle_budget = snapshot->capture_budget;
      auto resumed = ResumeProgram(program.value(), *snapshot, resume_options,
                                   {hook});

      EXPECT_EQ(trace::SerializeApiTrace(full.api_trace),
                trace::SerializeApiTrace(resumed.api_trace));
      EXPECT_EQ(full.faults_injected, resumed.faults_injected);
    }
  }
}

// Taint state is captured only on request, and a taint-enabled resume
// reaches the same predicates the uninterrupted run reaches.
TEST(SnapshotResume, TaintStateResumesWhenCaptured) {
  auto program = AssembleForSandbox(kMultiTripleSample);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment capture_env = os::HostEnvironment::StandardMachine();
  SnapshotRecorder recorder;
  CaptureOptions capture;
  capture.capture_taint = true;
  auto natural = RunProgramWithCapture(program.value(), capture_env,
                                       TaintedRunOptions(), {}, recorder,
                                       capture);
  ASSERT_TRUE(natural.AnyTaintedPredicate());

  // The CreateMutexA capture happens before the taint source exists; the
  // resumed run must still discover the tainted predicate on its own.
  const trace::ApiCallRecord* mutex_call = nullptr;
  for (const trace::ApiCallRecord& call : natural.api_trace.calls) {
    if (call.api_name == "CreateMutexA") mutex_call = &call;
  }
  ASSERT_NE(mutex_call, nullptr);
  const MachineSnapshot* snapshot = recorder.Find(
      "CreateMutexA", mutex_call->caller_pc, mutex_call->resource_identifier);
  ASSERT_NE(snapshot, nullptr);
  ASSERT_TRUE(snapshot->taint.has_value());

  ResumeOptions resume_options;
  resume_options.cycle_budget = snapshot->capture_budget;
  resume_options.enable_taint = true;
  auto resumed = ResumeProgram(program.value(), *snapshot, resume_options);
  EXPECT_TRUE(resumed.AnyTaintedPredicate());
  EXPECT_EQ(trace::SerializeApiTrace(natural.api_trace),
            trace::SerializeApiTrace(resumed.api_trace));
  EXPECT_EQ(natural.predicates.size(), resumed.predicates.size());
}

TEST(SnapshotResume, DefaultCaptureSkipsTaintState) {
  auto program = AssembleForSandbox(kMultiTripleSample);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  SnapshotRecorder recorder;
  auto natural = RunProgramWithCapture(program.value(), env,
                                       TaintedRunOptions(), {}, recorder);
  ASSERT_GT(recorder.size(), 0u);
  for (const trace::ApiCallRecord& call : natural.api_trace.calls) {
    if (!call.is_resource_api) continue;
    const MachineSnapshot* snapshot = recorder.Find(
        call.api_name, call.caller_pc, call.resource_identifier);
    if (snapshot == nullptr) continue;
    EXPECT_FALSE(snapshot->taint.has_value());
    EXPECT_EQ(snapshot->labels, nullptr);
  }
}

// Resumes of one snapshot share its copy-on-write pages: threads that
// clone, write and release them at once must each see exactly the run a
// lone resume sees (the mutation fan-out's shape; the TSan lane runs it).
TEST(SnapshotResume, ConcurrentResumesOfOneSnapshotMatchSequential) {
  auto program = AssembleForSandbox(kMultiTripleSample);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment capture_env = os::HostEnvironment::StandardMachine();
  SnapshotRecorder recorder;
  auto natural = RunProgramWithCapture(program.value(), capture_env,
                                       TaintedRunOptions(), {}, recorder);
  const std::vector<analysis::MutationTarget> targets =
      analysis::CollectMutationTargets(natural.api_trace);
  ASSERT_FALSE(targets.empty());
  // The first resource call's snapshot: every target lies ahead of it.
  const MachineSnapshot* snapshot = recorder.Find(
      targets.front().api_name, targets.front().caller_pc,
      targets.front().identifier);
  ASSERT_NE(snapshot, nullptr);

  // One hook set per variant: none, then each target's mutation.
  std::vector<std::vector<sandbox::ApiHook>> variants(1);
  for (const analysis::MutationTarget& target : targets) {
    variants.push_back({analysis::MakeMutationHook(target)});
  }
  ResumeOptions resume_options;
  resume_options.cycle_budget = snapshot->capture_budget;
  auto resume = [&](size_t variant) {
    auto run = ResumeProgram(program.value(), *snapshot, resume_options,
                             variants[variant]);
    return trace::SerializeApiTrace(run.api_trace) + "|" +
           std::to_string(run.cycles_used);
  };
  std::vector<std::string> sequential;
  for (size_t v = 0; v < variants.size(); ++v) sequential.push_back(resume(v));
  // The variants must differ, or the comparison proves nothing.
  EXPECT_NE(sequential.front(), sequential.back());

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 16;
  std::vector<std::vector<std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        seen[t].push_back(resume((t + round) % variants.size()));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t round = 0; round < kRounds; ++round) {
      EXPECT_EQ(seen[t][round], sequential[(t + round) % variants.size()])
          << "thread " << t << " round " << round;
    }
  }
}

// TryResumeImpactAnalysis refuses resumes it cannot prove equivalent.
TEST(SnapshotResume, ImpactResumeGuards) {
  auto program = AssembleForSandbox(kMultiTripleSample);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment capture_env = os::HostEnvironment::StandardMachine();
  SnapshotRecorder recorder;
  auto natural = RunProgramWithCapture(program.value(), capture_env,
                                       TaintedRunOptions(), {}, recorder);
  auto targets = analysis::CollectMutationTargets(natural.api_trace);
  ASSERT_FALSE(targets.empty());
  const analysis::MutationTarget& target = targets.front();
  const MachineSnapshot* snapshot = recorder.Find(
      target.api_name, target.caller_pc, target.identifier);
  ASSERT_NE(snapshot, nullptr);

  // Budget mismatch: no resume.
  analysis::ImpactOptions halved;
  halved.cycle_budget = snapshot->capture_budget / 2;
  EXPECT_FALSE(analysis::TryResumeImpactAnalysis(
                   program.value(), *snapshot, natural.api_trace, target,
                   halved)
                   .has_value());

  // Fault-schedule mismatch (plan on the resume, none at capture): no
  // resume.
  const sandbox::FaultPlan plan =
      sandbox::FaultPlan::Randomized(5, /*fault_rate=*/0.5);
  analysis::ImpactOptions with_faults;
  with_faults.cycle_budget = snapshot->capture_budget;
  with_faults.fault_plan = &plan;
  EXPECT_FALSE(analysis::TryResumeImpactAnalysis(
                   program.value(), *snapshot, natural.api_trace, target,
                   with_faults)
                   .has_value());

  // Matching budget and schedule: the resume result equals the full
  // re-run's.
  analysis::ImpactOptions matching;
  matching.cycle_budget = snapshot->capture_budget;
  auto resumed = analysis::TryResumeImpactAnalysis(
      program.value(), *snapshot, natural.api_trace, target, matching);
  ASSERT_TRUE(resumed.has_value());
  os::HostEnvironment baseline = os::HostEnvironment::StandardMachine();
  auto full = analysis::RunImpactAnalysis(program.value(), baseline,
                                          natural.api_trace, target, matching);
  EXPECT_EQ(resumed->effect.type, full.effect.type);
  EXPECT_EQ(trace::SerializeApiTrace(resumed->mutated_trace),
            trace::SerializeApiTrace(full.mutated_trace));
  EXPECT_EQ(resumed->stop_reason, full.stop_reason);
}

}  // namespace
}  // namespace autovac
