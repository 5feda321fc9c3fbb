// Chaos harness for the fault-injection layer: the malware corpus is
// analyzed under many seeded FaultPlans — injected API failures, dropped
// hooks, delays, resource quotas, tight execution envelopes — and every
// run must come back as a well-formed SampleReport, never a crash.
// Plus targeted coverage of each fault path: quota exhaustion, occurrence
// rules, hook drops, envelope limits, and serialization round-trips.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>

#include "campaign/supervisor.h"
#include "malware/corpus.h"
#include "os/errors.h"
#include "sandbox/faults.h"
#include "sandbox/sandbox.h"
#include "support/metrics.h"
#include "support/tracing.h"
#include "trace/serialize.h"
#include "vaccine/json.h"
#include "vaccine/pipeline.h"
#include "vacstore/store.h"

namespace autovac {
namespace {

using sandbox::AssembleForSandbox;
using sandbox::FaultAction;
using sandbox::FaultPlan;
using sandbox::FaultRule;
using sandbox::ResourceQuotas;
using sandbox::RunOptions;
using sandbox::RunProgram;

// ---------------------------------------------------------------------
// Chaos campaign
// ---------------------------------------------------------------------

// A pipeline configuration with a tight execution envelope, so hostile
// (sample, plan) pairs stay cheap enough to run by the hundred.
vaccine::PipelineOptions ChaosPipelineOptions() {
  vaccine::PipelineOptions options;
  options.phase1_budget = 300'000;
  options.impact.cycle_budget = 300'000;
  options.max_targets = 4;
  options.limits.max_call_depth = 64;
  options.limits.max_api_calls = 500;
  options.limits.max_instruction_records = 50'000;
  options.limits.max_api_records = 400;
  return options;
}

// Structural invariants every report must satisfy, faults or not.
void CheckWellFormed(const vaccine::SampleReport& report) {
  EXPECT_FALSE(report.sample_name.empty());
  EXPECT_LE(report.tainted_occurrences, report.resource_api_occurrences);
  // Demotions are a subset of isolated crashes.
  EXPECT_LE(report.vaccines_demoted, report.targets_faulted);
  // Each target lands in at most one disposition bucket.
  EXPECT_LE(report.filtered_not_exclusive + report.filtered_no_impact +
                report.filtered_non_deterministic + report.targets_faulted,
            report.targets_considered);
  if (!report.phase1_status.ok()) {
    EXPECT_FALSE(report.phase1_status.message().empty());
    // A phase-1 crash produces an empty but well-formed report.
    EXPECT_TRUE(report.vaccines.empty());
  }
  if (!report.phase2_status.ok()) {
    EXPECT_FALSE(report.phase2_status.message().empty());
  }
}

TEST(Chaos, CorpusSurvivesHundredFaultPlans) {
  malware::CorpusOptions corpus_options;
  corpus_options.seed = 20260806;
  corpus_options.total = 10;
  auto corpus = malware::GenerateCorpus(corpus_options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  size_t plans_run = 0;
  size_t faulty_plans = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const FaultPlan plan = FaultPlan::Randomized(seed * 7919, /*fault_rate=*/
                                                 0.05 * static_cast<double>(
                                                     seed % 4 + 1));
    vaccine::PipelineOptions options = ChaosPipelineOptions();
    options.fault_plan = &plan;
    vaccine::VaccinePipeline pipeline(nullptr, options);
    for (const malware::CorpusSample& sample : corpus.value()) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " sample="
                                      << sample.program.name);
      const vaccine::SampleReport report = pipeline.Analyze(sample.program);
      CheckWellFormed(report);
      if (report.faults_injected > 0) ++faulty_plans;
      ++plans_run;
    }
  }
  EXPECT_GE(plans_run, 100u);
  // The campaign would be vacuous if the plans never actually fired.
  EXPECT_GT(faulty_plans, 0u);
}

TEST(Chaos, AnalysisIsDeterministicUnderAPlan) {
  malware::CorpusOptions corpus_options;
  corpus_options.seed = 99;
  corpus_options.total = 4;
  auto corpus = malware::GenerateCorpus(corpus_options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  const FaultPlan plan = FaultPlan::Randomized(0xC0FFEE, 0.15);
  vaccine::PipelineOptions options = ChaosPipelineOptions();
  options.fault_plan = &plan;
  vaccine::VaccinePipeline pipeline(nullptr, options);

  for (const malware::CorpusSample& sample : corpus.value()) {
    const auto first = pipeline.Analyze(sample.program);
    const auto second = pipeline.Analyze(sample.program);
    EXPECT_EQ(first.faults_injected, second.faults_injected);
    EXPECT_EQ(first.vaccines.size(), second.vaccines.size());
    EXPECT_TRUE(first.natural_trace.recorded());
    EXPECT_GT(first.natural_trace.calls, 0u);
    EXPECT_EQ(first.natural_trace.DigestHex(),
              second.natural_trace.DigestHex());
    EXPECT_EQ(first.natural_trace.calls, second.natural_trace.calls);
  }
}

// The telemetry layer must not break replay determinism: two identically
// seeded runs produce byte-identical metric snapshots and span trees.
TEST(Chaos, TelemetryIsDeterministicUnderAPlan) {
  malware::CorpusOptions corpus_options;
  corpus_options.seed = 31337;
  corpus_options.total = 3;
  auto corpus = malware::GenerateCorpus(corpus_options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  const FaultPlan plan = FaultPlan::Randomized(0xDECAF, 0.1);
  vaccine::PipelineOptions options = ChaosPipelineOptions();
  options.fault_plan = &plan;
  vaccine::VaccinePipeline pipeline(nullptr, options);

  Tracer& tracer = GlobalTracer();
  const bool was_enabled = tracer.enabled();
  ChromeTraceOptions trace_options;
  trace_options.include_wall = false;  // only deterministic fields

  auto run_once = [&] {
    GlobalMetrics().Reset();
    tracer.Clear();
    tracer.set_enabled(true);
    for (const malware::CorpusSample& sample : corpus.value()) {
      const vaccine::SampleReport report = pipeline.Analyze(sample.program);
      CheckWellFormed(report);
    }
    return std::pair<std::string, std::string>(
        ExportMetricsJsonl(GlobalMetrics().Snapshot()),
        ExportChromeTrace(tracer, trace_options));
  };

  const auto first = run_once();
  const auto second = run_once();
  tracer.set_enabled(was_enabled);

  EXPECT_FALSE(first.first.empty());
  EXPECT_FALSE(first.second.empty());
  EXPECT_EQ(first.first, second.first) << "metric snapshots diverged";
  EXPECT_EQ(first.second, second.second) << "span trees diverged";
  // The traces actually cover the pipeline's phases.
  EXPECT_NE(first.second.find("\"name\":\"phase1\""), std::string::npos);
  EXPECT_NE(first.first.find("vm.instructions_retired"), std::string::npos);
}

TEST(Chaos, PhaseCostsAreDeterministicPerSample) {
  malware::CorpusOptions corpus_options;
  corpus_options.seed = 4242;
  corpus_options.total = 2;
  auto corpus = malware::GenerateCorpus(corpus_options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  vaccine::VaccinePipeline pipeline(nullptr, ChaosPipelineOptions());
  Tracer& tracer = GlobalTracer();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);

  for (const malware::CorpusSample& sample : corpus.value()) {
    const auto first = pipeline.Analyze(sample.program);
    const auto second = pipeline.Analyze(sample.program);
    ASSERT_EQ(first.phase_costs.size(), second.phase_costs.size());
    for (size_t i = 0; i < first.phase_costs.size(); ++i) {
      EXPECT_EQ(first.phase_costs[i].name, second.phase_costs[i].name);
      EXPECT_EQ(first.phase_costs[i].spans, second.phase_costs[i].spans);
      EXPECT_EQ(first.phase_costs[i].ticks, second.phase_costs[i].ticks);
      // wall_ns is deliberately NOT compared: it is informational.
    }
  }
  tracer.set_enabled(was_enabled);
}

TEST(Chaos, CampaignRunnerIsolatesEverySample) {
  malware::CorpusOptions corpus_options;
  corpus_options.seed = 7;
  corpus_options.total = 6;
  auto corpus = malware::GenerateCorpus(corpus_options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  std::vector<vm::Program> wave;
  for (const malware::CorpusSample& sample : corpus.value()) {
    wave.push_back(sample.program);
  }

  const FaultPlan plan = FaultPlan::Randomized(424242, 0.2);
  vaccine::PipelineOptions options = ChaosPipelineOptions();
  options.fault_plan = &plan;
  vaccine::VaccinePipeline pipeline(nullptr, options);

  const vaccine::CampaignReport campaign =
      vaccine::AnalyzeCampaign(pipeline, wave);
  ASSERT_EQ(campaign.reports.size(), wave.size());
  EXPECT_EQ(campaign.samples_failed, 0u);
  size_t vaccines = 0;
  size_t faults = 0;
  for (const vaccine::SampleReport& report : campaign.reports) {
    CheckWellFormed(report);
    vaccines += report.vaccines.size();
    faults += report.faults_injected;
  }
  EXPECT_EQ(campaign.total_vaccines, vaccines);
  EXPECT_EQ(campaign.total_faults_injected, faults);
}

// ---------------------------------------------------------------------
// Worker-level chaos: the child process dies mid-sample
// ---------------------------------------------------------------------

std::vector<vm::Program> ChaosWave(uint64_t seed, size_t total) {
  malware::CorpusOptions corpus_options;
  corpus_options.seed = seed;
  corpus_options.total = total;
  auto corpus = malware::GenerateCorpus(corpus_options);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  std::vector<vm::Program> wave;
  for (const malware::CorpusSample& sample : corpus.value()) {
    wave.push_back(sample.program);
  }
  return wave;
}

// A detonating child must surface as a failed row for that sample while
// every other sample completes normally — the worker boundary is the
// real crash-isolation line, beyond what try/catch can do in-process.
// Note on sanitizers: ASan intercepts SIGSEGV/SIGABRT and may turn them
// into a nonzero exit instead of a signal death, so these tests assert
// the disposition and a non-OK status, never an exact signal message.
void ExpectOnlySampleZeroDies(const campaign::CampaignOptions& options,
                              size_t total) {
  const std::vector<vm::Program> wave = ChaosWave(99, total);
  vaccine::PipelineOptions pipeline_options = ChaosPipelineOptions();
  vaccine::VaccinePipeline pipeline(nullptr, pipeline_options);
  auto run = campaign::RunDurableCampaign(pipeline, wave, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->report.reports.size(), wave.size());
  EXPECT_EQ(run->report.samples_failed, 1u);
  const vaccine::SampleReport& dead = run->report.reports[0];
  EXPECT_NE(dead.disposition, vaccine::SampleDisposition::kAnalyzed);
  EXPECT_FALSE(dead.phase1_status.ok());
  EXPECT_TRUE(dead.vaccines.empty());
  CheckWellFormed(dead);
  for (size_t i = 1; i < run->report.reports.size(); ++i) {
    EXPECT_EQ(run->report.reports[i].disposition,
              vaccine::SampleDisposition::kAnalyzed) << i;
    CheckWellFormed(run->report.reports[i]);
  }
}

TEST(WorkerChaos, SegfaultingChildBecomesFailedRow) {
  campaign::CampaignOptions options;
  options.max_worker_retries = 0;  // no retry: the death itself is final
  options.quarantine_after_kills = 99;
  options.worker_test_hook = [](size_t index, size_t) {
    if (index == 0) raise(SIGSEGV);
  };
  ExpectOnlySampleZeroDies(options, 4);
}

TEST(WorkerChaos, AbortingChildBecomesFailedRow) {
  campaign::CampaignOptions options;
  options.max_worker_retries = 0;
  options.quarantine_after_kills = 99;
  options.worker_test_hook = [](size_t index, size_t) {
    if (index == 0) abort();
  };
  ExpectOnlySampleZeroDies(options, 4);
}

TEST(WorkerChaos, HangingChildIsKilledAtTheDeadline) {
  campaign::CampaignOptions options;
  options.sample_deadline_ms = 300;
  options.max_worker_retries = 0;
  options.quarantine_after_kills = 99;
  options.worker_test_hook = [](size_t index, size_t) {
    while (index == 0) {  // stall forever; the watchdog must fire
      struct timespec nap = {0, 50'000'000};
      nanosleep(&nap, nullptr);
    }
  };
  const std::vector<vm::Program> wave = ChaosWave(99, 3);
  vaccine::VaccinePipeline pipeline(nullptr, ChaosPipelineOptions());
  auto run = campaign::RunDurableCampaign(pipeline, wave, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stats.deadline_kills, 1u);
  ASSERT_EQ(run->report.reports.size(), wave.size());
  const vaccine::SampleReport& hung = run->report.reports[0];
  EXPECT_EQ(hung.disposition,
            vaccine::SampleDisposition::kDeadlineExceeded);
  EXPECT_EQ(hung.phase1_status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(run->report.reports[1].disposition,
            vaccine::SampleDisposition::kAnalyzed);
}

TEST(WorkerChaos, CrashesUnderFaultPlanStayIsolated) {
  // Worker isolation composed with API fault injection: forked workers
  // under a hostile plan must produce the same bytes as the in-process
  // runner under the same plan.
  const std::vector<vm::Program> wave = ChaosWave(7, 5);
  const FaultPlan plan = FaultPlan::Randomized(424242, 0.2);
  vaccine::PipelineOptions options = ChaosPipelineOptions();
  options.fault_plan = &plan;
  vaccine::VaccinePipeline pipeline(nullptr, options);

  auto in_process = campaign::RunDurableCampaign(pipeline, wave);
  ASSERT_TRUE(in_process.ok());
  campaign::CampaignOptions forked;
  forked.jobs = 2;
  auto workers = campaign::RunDurableCampaign(pipeline, wave, forked);
  ASSERT_TRUE(workers.ok());
  ASSERT_EQ(workers->report.reports.size(), wave.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    CheckWellFormed(workers->report.reports[i]);
  }
  EXPECT_EQ(vaccine::CampaignReportToJson(workers->report),
            vaccine::CampaignReportToJson(in_process->report));
}

// ---------------------------------------------------------------------
// Fault paths, one by one
// ---------------------------------------------------------------------

constexpr const char* kThreeOpens = R"(
.name three_opens
.rdata
  string p1 "C:\\a.bin"
  string p2 "C:\\b.bin"
  string p3 "C:\\c.bin"
.text
main:
  push 2            ; CREATE_ALWAYS
  push p1
  sys CreateFileA
  add esp, 8
  push 2
  push p2
  sys CreateFileA
  add esp, 8
  push 2
  push p3
  sys CreateFileA
  add esp, 8
  hlt
)";

TEST(FaultPaths, HandleTableExhaustion) {
  auto program = AssembleForSandbox(kThreeOpens);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  FaultPlan plan(1);
  ResourceQuotas quotas;
  quotas.max_handles = 2;
  plan.set_quotas(quotas);

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  RunOptions options;
  options.fault_plan = &plan;
  auto run = RunProgram(program.value(), env, options);

  ASSERT_EQ(run.api_trace.calls.size(), 3u);
  EXPECT_TRUE(run.api_trace.calls[0].succeeded);
  EXPECT_TRUE(run.api_trace.calls[1].succeeded);
  const auto& third = run.api_trace.calls[2];
  EXPECT_FALSE(third.succeeded);
  EXPECT_TRUE(third.fault_injected);
  EXPECT_EQ(third.last_error, os::kErrorTooManyOpenFiles);
  EXPECT_EQ(run.faults_injected, 1u);
}

constexpr const char* kWriteTwice = R"(
.name write_twice
.rdata
  string path "C:\\out.bin"
  string payload "hello"
.text
main:
  push 2            ; CREATE_ALWAYS
  push path
  sys CreateFileA
  add esp, 8
  mov ebx, eax
  push 5
  push payload
  push ebx
  sys WriteFile
  add esp, 12
  push 5
  push payload
  push ebx
  sys WriteFile
  add esp, 12
  hlt
)";

TEST(FaultPaths, DiskFullQuota) {
  auto program = AssembleForSandbox(kWriteTwice);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  FaultPlan plan(1);
  ResourceQuotas quotas;
  quotas.max_file_bytes = 4;  // the first 5-byte write crosses the line
  plan.set_quotas(quotas);

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  RunOptions options;
  options.fault_plan = &plan;
  auto run = RunProgram(program.value(), env, options);

  ASSERT_EQ(run.api_trace.calls.size(), 3u);
  EXPECT_TRUE(run.api_trace.calls[1].succeeded);   // disk not yet full
  const auto& second_write = run.api_trace.calls[2];
  EXPECT_FALSE(second_write.succeeded);
  EXPECT_TRUE(second_write.fault_injected);
  EXPECT_EQ(second_write.last_error, os::kErrorDiskFull);
}

TEST(FaultPaths, OccurrenceRuleFailsExactlyOneCall) {
  auto program = AssembleForSandbox(kThreeOpens);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  FaultPlan plan(1);
  FaultRule rule;
  rule.api = sandbox::ApiId::kCreateFileA;
  rule.occurrence = 1;  // the second CreateFileA only
  rule.action = FaultAction::kFailCall;
  rule.error = os::kErrorAccessDenied;
  plan.AddRule(rule);

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  RunOptions options;
  options.fault_plan = &plan;
  auto run = RunProgram(program.value(), env, options);

  ASSERT_EQ(run.api_trace.calls.size(), 3u);
  EXPECT_TRUE(run.api_trace.calls[0].succeeded);
  EXPECT_FALSE(run.api_trace.calls[1].succeeded);
  EXPECT_TRUE(run.api_trace.calls[1].fault_injected);
  EXPECT_EQ(run.api_trace.calls[1].last_error, os::kErrorAccessDenied);
  EXPECT_TRUE(run.api_trace.calls[2].succeeded);
  EXPECT_EQ(run.faults_injected, 1u);
}

TEST(FaultPaths, DropHooksSuppressesInterposition) {
  auto program = AssembleForSandbox(kThreeOpens);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  const sandbox::ApiHook deny_everything =
      [](const sandbox::ApiObservation&) -> std::optional<sandbox::ForcedOutcome> {
    sandbox::ForcedOutcome outcome;
    outcome.success = false;
    outcome.last_error = os::kErrorAccessDenied;
    return outcome;
  };

  // Baseline: the hook forces every call down.
  {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    auto run = RunProgram(program.value(), env, {}, {deny_everything});
    for (const auto& call : run.api_trace.calls) {
      EXPECT_TRUE(call.was_forced);
      EXPECT_FALSE(call.succeeded);
    }
  }

  // Under a drop-hooks plan the same hook never fires.
  FaultPlan plan(1);
  FaultRule rule;
  rule.occurrence = -1;
  rule.probability = 1.0;
  rule.action = FaultAction::kDropHooks;
  plan.AddRule(rule);

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  RunOptions options;
  options.fault_plan = &plan;
  auto run = RunProgram(program.value(), env, options, {deny_everything});
  for (const auto& call : run.api_trace.calls) {
    EXPECT_FALSE(call.was_forced);
    EXPECT_TRUE(call.succeeded);
  }
}

TEST(FaultPaths, DelayRuleConsumesVirtualTime) {
  auto program = AssembleForSandbox(kThreeOpens);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  uint64_t baseline_cycles = 0;
  {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    baseline_cycles = RunProgram(program.value(), env).cycles_used;
  }

  FaultPlan plan(1);
  FaultRule rule;
  rule.occurrence = -1;
  rule.probability = 1.0;
  rule.action = FaultAction::kDelayCall;
  rule.delay_cycles = 10'000;
  plan.AddRule(rule);

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  RunOptions options;
  options.fault_plan = &plan;
  auto run = RunProgram(program.value(), env, options);
  EXPECT_GE(run.cycles_used, baseline_cycles + 3 * 10'000);
}

// ---------------------------------------------------------------------
// Execution envelope
// ---------------------------------------------------------------------

TEST(Envelope, CallDepthLimitStopsRecursion) {
  auto program = AssembleForSandbox(R"(
.text
main:
  call main
  hlt
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  RunOptions options;
  options.limits.max_call_depth = 16;
  auto run = RunProgram(program.value(), env, options);
  EXPECT_EQ(run.stop_reason, vm::StopReason::kCallDepthLimit);
}

constexpr const char* kSyscallLoop = R"(
.text
main:
  sys GetTickCount
  jmp main
)";

TEST(Envelope, ApiCallLimitStopsSyscallLoop) {
  auto program = AssembleForSandbox(kSyscallLoop);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  RunOptions options;
  options.limits.max_api_calls = 10;
  auto run = RunProgram(program.value(), env, options);
  EXPECT_EQ(run.stop_reason, vm::StopReason::kApiCallLimit);
  // The over-limit call is not delivered to the kernel.
  EXPECT_EQ(run.api_trace.calls.size(), 10u);
}

TEST(Envelope, ApiRecordCapTruncatesTrace) {
  auto program = AssembleForSandbox(kSyscallLoop);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  RunOptions options;
  options.limits.max_api_records = 5;
  auto run = RunProgram(program.value(), env, options);
  EXPECT_EQ(run.stop_reason, vm::StopReason::kTraceLimit);
  EXPECT_EQ(run.api_trace.calls.size(), 5u);
}

TEST(Envelope, InstructionRecordCapTruncatesTrace) {
  auto program = AssembleForSandbox(kSyscallLoop);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  RunOptions options;
  options.record_instructions = true;
  options.limits.max_instruction_records = 100;
  auto run = RunProgram(program.value(), env, options);
  EXPECT_EQ(run.stop_reason, vm::StopReason::kTraceLimit);
  EXPECT_EQ(run.instruction_trace.records.size(), 100u);
}

TEST(Envelope, FaultMessageReachesRunResult) {
  auto program = AssembleForSandbox(R"(
.rdata
  string msg "AB"
.text
main:
  lea ecx, [msg]
  mov eax, 1
  store [ecx], eax
  hlt
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  auto run = RunProgram(program.value(), env);
  EXPECT_EQ(run.stop_reason, vm::StopReason::kFault);
  EXPECT_NE(run.fault_message.find("bad store"), std::string::npos);
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

TEST(Serialization, NewStopReasonsRoundTrip) {
  for (const vm::StopReason reason :
       {vm::StopReason::kCallDepthLimit, vm::StopReason::kApiCallLimit,
        vm::StopReason::kTraceLimit}) {
    trace::ApiTrace trace;
    trace.stop_reason = reason;
    trace.cycles_used = 12345;
    auto parsed = trace::ParseApiTrace(trace::SerializeApiTrace(trace));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->stop_reason, reason);
    // The name table covers the new reasons too.
    EXPECT_STRNE(vm::StopReasonName(reason), "unknown");
  }
}

TEST(Serialization, FaultInjectedFlagRoundTrips) {
  auto program = AssembleForSandbox(kThreeOpens);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  FaultPlan plan(1);
  FaultRule rule;
  rule.api = sandbox::ApiId::kCreateFileA;
  rule.occurrence = 0;
  rule.error = os::kErrorAccessDenied;
  plan.AddRule(rule);

  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  RunOptions options;
  options.fault_plan = &plan;
  auto run = RunProgram(program.value(), env, options);

  const std::string text = trace::SerializeApiTrace(run.api_trace);
  auto parsed = trace::ParseApiTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->calls.size(), run.api_trace.calls.size());
  for (size_t i = 0; i < parsed->calls.size(); ++i) {
    EXPECT_EQ(parsed->calls[i].fault_injected,
              run.api_trace.calls[i].fault_injected) << i;
  }
  EXPECT_TRUE(parsed->calls[0].fault_injected);

  // Legacy 16-token C records (written before the flag existed) still
  // parse, defaulting the flag to false.
  std::string legacy;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    if (line.rfind("C ", 0) == 0) {
      line = line.substr(0, line.find_last_of(' '));
    }
    legacy += line + "\n";
    pos = eol + 1;
  }
  auto legacy_parsed = trace::ParseApiTrace(legacy);
  ASSERT_TRUE(legacy_parsed.ok()) << legacy_parsed.status().ToString();
  ASSERT_EQ(legacy_parsed->calls.size(), run.api_trace.calls.size());
  for (const auto& call : legacy_parsed->calls) {
    EXPECT_FALSE(call.fault_injected);
  }
}

// ---------------------------------------------------------------------
// Store chaos: a pusher killed mid-stream leaves a loadable journal
// ---------------------------------------------------------------------

// SIGKILL lands wherever it lands — between complete append lines or in
// the middle of one. Either way the survivor must reopen: acknowledged
// batches intact, at worst one torn tail record dropped and compacted.
TEST(StoreChaos, KilledPusherLeavesLoadableJournal) {
  const std::string path = "chaos_store.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());

  int acks[2];
  ASSERT_EQ(pipe(acks), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(acks[0]);
    auto opened = vacstore::VaccineStore::Open(path);
    if (!opened.ok()) _exit(1);
    vacstore::VaccineStore store = std::move(*opened);
    store.set_sync(false);  // spin fast so the kill lands mid-stream
    for (uint64_t i = 0;; ++i) {
      vaccine::Vaccine v;
      v.malware_name = "chaos-pusher";
      v.malware_digest = "chaos";
      v.resource_type = os::ResourceType::kMutex;
      v.identifier = "chaos-mutex-" + std::to_string(i);
      v.simulate_presence = true;
      v.identifier_kind = analysis::IdentifierClass::kStatic;
      v.immunization = analysis::ImmunizationType::kFull;
      v.delivery = vaccine::DeliveryMethod::kDirectInjection;
      if (!store.Push({v}).ok()) _exit(2);
      const char ack = 'p';
      if (write(acks[1], &ack, 1) != 1) _exit(3);
    }
  }
  close(acks[1]);

  // Let several batches land, then kill the writer wherever it is.
  char buffer[16];
  size_t acked = 0;
  while (acked < 8) {
    const ssize_t n = read(acks[0], buffer, sizeof buffer);
    ASSERT_GT(n, 0) << "pusher child died before producing batches";
    acked += static_cast<size_t>(n);
  }
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  EXPECT_TRUE(WIFSIGNALED(wait_status));
  close(acks[0]);

  // The journal must load: every acknowledged batch present, digests
  // verified by Open itself, tail damage (if any) repaired.
  auto reopened = vacstore::VaccineStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE(reopened->entries().size(), acked);
  EXPECT_EQ(reopened->epoch(), reopened->entries().back().epoch);

  // And it is writable again: the survivor keeps pushing.
  vaccine::Vaccine next;
  next.malware_name = "chaos-survivor";
  next.malware_digest = "chaos";
  next.resource_type = os::ResourceType::kMutex;
  next.identifier = "survivor-mutex";
  next.simulate_presence = true;
  next.identifier_kind = analysis::IdentifierClass::kStatic;
  next.immunization = analysis::ImmunizationType::kFull;
  next.delivery = vaccine::DeliveryMethod::kDirectInjection;
  auto pushed = reopened->Push({next});
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  EXPECT_EQ(pushed->added, 1u);

  // A third open sees a clean, torn-tail-free file.
  const size_t entries_after = reopened->entries().size();
  reopened = vacstore::VaccineStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened->repaired_torn_tail());
  EXPECT_EQ(reopened->entries().size(), entries_after);

  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
}

}  // namespace
}  // namespace autovac
