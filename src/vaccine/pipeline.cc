#include "vaccine/pipeline.h"

#include <algorithm>
#include <future>
#include <memory>
#include <set>

#include "sandbox/sandbox.h"
#include "sandbox/snapshot.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/threadpool.h"

namespace autovac::vaccine {
namespace {

// Pipeline-level health counters; phase *costs* come from tracer spans.
struct PipelineMetrics {
  Counter* samples_analyzed;
  Counter* mutation_runs;
  Counter* impact_retries;
  Counter* targets_faulted;
  Counter* vaccines_demoted;
  Counter* vaccines_extracted;
};

PipelineMetrics& GetPipelineMetrics() {
  static PipelineMetrics* metrics = [] {
    auto* m = new PipelineMetrics();
    MetricsRegistry& registry = GlobalMetrics();
    m->samples_analyzed = registry.GetCounter("pipeline.samples_analyzed");
    m->mutation_runs = registry.GetCounter("pipeline.mutation_runs");
    m->impact_retries = registry.GetCounter("pipeline.impact_retries");
    m->targets_faulted = registry.GetCounter("pipeline.targets_faulted");
    m->vaccines_demoted = registry.GetCounter("pipeline.vaccines_demoted");
    m->vaccines_extracted =
        registry.GetCounter("pipeline.vaccines_extracted");
    return m;
  }();
  return *metrics;
}

// Mutation re-runs that could not ride a snapshot (no capture for the
// triple, budget mismatch, differing fault schedule) and paid the full
// prefix replay instead.
Counter* SnapshotFallbackCounter() {
  static Counter* counter =
      GlobalMetrics().GetCounter("snapshot.fallback_full_runs");
  return counter;
}

// Phase-1 runs whose recorder hit its snapshot cap with triples left over.
Counter* SnapshotCapOverflowCounter() {
  static Counter* counter =
      GlobalMetrics().GetCounter("snapshot.cap_overflows");
  return counter;
}

// An abnormal end to a sandbox run: the machine faulted or tripped an
// execution-envelope cap, so the trace may be truncated mid-behaviour.
bool AbnormalStop(vm::StopReason reason) {
  switch (reason) {
    case vm::StopReason::kFault:
    case vm::StopReason::kCallDepthLimit:
    case vm::StopReason::kApiCallLimit:
    case vm::StopReason::kTraceLimit:
      return true;
    default:
      return false;
  }
}

// Degradation ladder: a target whose impact is proven but whose
// determinism analysis crashed still yields a vaccine — demoted to the
// daemon with a literal match on the concrete identifier, no slice.
Vaccine DemotedVaccine(const vm::Program& sample, const SampleReport& report,
                       const analysis::MutationTarget& target,
                       const analysis::ImpactResult& impact) {
  Vaccine vaccine;
  vaccine.malware_name = sample.name;
  vaccine.malware_digest = report.sample_digest;
  vaccine.resource_type = target.resource_type;
  vaccine.operation = target.operation;
  vaccine.identifier = target.identifier;
  vaccine.simulate_presence = target.SimulatesPresence();
  vaccine.identifier_kind = analysis::IdentifierClass::kStatic;
  vaccine.immunization = impact.effect.type;
  vaccine.pattern = Pattern::Literal(target.identifier);
  vaccine.delivery = DeliveryMethod::kDaemon;
  return vaccine;
}

}  // namespace

VaccinePipeline::VaccinePipeline(const analysis::ExclusivenessIndex* index,
                                 PipelineOptions options)
    : index_(index), options_(options) {}

os::HostEnvironment VaccinePipeline::BaselineMachine() const {
  return os::HostEnvironment::StandardMachine(options_.machine_seed);
}

sandbox::RunOptions VaccinePipeline::Phase1RunOptions() const {
  sandbox::RunOptions options;
  options.cycle_budget = options_.phase1_budget;
  options.enable_taint = true;
  options.record_instructions = true;  // for determinism analysis
  options.limits = options_.limits;
  options.fault_plan = options_.fault_plan;
  return options;
}

VaccinePipeline::ImpactAttempt VaccinePipeline::ComputeImpact(
    const vm::Program& sample, const os::HostEnvironment& baseline,
    const trace::ApiTrace& natural, const analysis::MutationTarget& target,
    const sandbox::SnapshotRecorder* snapshots) const {
  ImpactAttempt attempt;
  try {
    analysis::ImpactOptions impact_options = options_.impact;
    impact_options.limits = options_.limits;
    impact_options.fault_plan = options_.fault_plan;

    PipelineMetrics& metrics = GetPipelineMetrics();
    metrics.mutation_runs->Increment();

    std::optional<analysis::ImpactResult> resumed;
    if (snapshots != nullptr) {
      const sandbox::MachineSnapshot* snapshot = snapshots->Find(
          target.api_name, target.caller_pc, target.identifier);
      if (snapshot != nullptr) {
        resumed = analysis::TryResumeImpactAnalysis(sample, *snapshot, natural,
                                                    target, impact_options);
      }
      if (!resumed.has_value()) SnapshotFallbackCounter()->Increment();
    }
    analysis::ImpactResult impact =
        resumed.has_value()
            ? std::move(*resumed)
            : analysis::RunImpactAnalysis(sample, baseline, natural, target,
                                          impact_options);
    attempt.faults_injected += impact.faults_injected;

    while (AbnormalStop(impact.stop_reason) &&
           attempt.retries < options_.max_impact_retries) {
      ++attempt.retries;
      metrics.impact_retries->Increment();
      metrics.mutation_runs->Increment();
      // A shorter leash: the retry must finish inside half the budget, so
      // a run that keeps tripping its envelope converges to "no impact"
      // instead of burning the whole campaign's time. The halved budget
      // rules out snapshot resumes, so retries always replay in full.
      impact_options.cycle_budget =
          std::max<uint64_t>(impact_options.cycle_budget / 2, 1);
      impact = analysis::RunImpactAnalysis(sample, baseline, natural, target,
                                           impact_options);
      attempt.faults_injected += impact.faults_injected;
    }
    attempt.impact = std::move(impact);
  } catch (const std::exception& e) {
    // Keep the partial fault tally: runs that completed before the crash
    // already injected their faults, exactly as the sequential path
    // counted them.
    attempt.crashed = true;
    attempt.crash_message = e.what();
  }
  return attempt;
}

Result<Vaccine> VaccinePipeline::BuildVaccine(
    const vm::Program& sample, const sandbox::RunResult& phase1,
    const analysis::MutationTarget& target,
    const analysis::ImpactResult& impact, SampleReport& report) const {
  // Anchor at a call that carries the identifier string in memory
  // (handle-based occurrences defer to the opener).
  uint32_t anchor = target.anchor_sequence;
  if (phase1.api_trace.calls[anchor].identifier_addr == 0) {
    for (const trace::ApiCallRecord& call : phase1.api_trace.calls) {
      if (call.resource_identifier == target.identifier &&
          call.identifier_addr != 0) {
        anchor = call.sequence;
        break;
      }
    }
  }
  AUTOVAC_ASSIGN_OR_RETURN(
      const analysis::DeterminismReport determinism,
      analysis::AnalyzeIdentifier(phase1.instruction_trace, phase1.api_trace,
                                  anchor, options_.determinism));
  if (determinism.cls == analysis::IdentifierClass::kNonDeterministic) {
    // "we delete all the entirely random identifiers" (§IV-C).
    return Status::OutOfRange("entirely random identifier");
  }

  Vaccine vaccine;
  vaccine.malware_name = sample.name;
  vaccine.malware_digest = report.sample_digest;
  vaccine.resource_type = target.resource_type;
  vaccine.operation = target.operation;
  vaccine.identifier = target.identifier;
  vaccine.simulate_presence = target.SimulatesPresence();
  vaccine.identifier_kind = determinism.cls;
  vaccine.immunization = impact.effect.type;
  vaccine.pattern = determinism.pattern;
  vaccine.delivery = determinism.cls == analysis::IdentifierClass::kStatic
                         ? DeliveryMethod::kDirectInjection
                         : DeliveryMethod::kDaemon;
  if (determinism.cls == analysis::IdentifierClass::kAlgorithmDeterministic) {
    auto slice = analysis::ExtractSlice(sample, phase1.instruction_trace,
                                        phase1.api_trace, determinism, anchor);
    if (slice.ok()) vaccine.slice = std::move(slice).value();
  }
  for (const trace::ApiCallRecord& call : phase1.api_trace.calls) {
    if (call.is_resource_api &&
        call.resource_identifier == target.identifier) {
      vaccine.observed_operations.insert(os::OperationSymbol(call.operation));
    }
  }
  return vaccine;
}

bool VaccinePipeline::StaticallyEligible(std::string_view identifier) const {
  if (options_.run_exclusiveness && index_ != nullptr &&
      !index_->IsExclusive(identifier)) {
    return false;
  }
  return !identifier.empty();
}

void VaccinePipeline::AnalyzePhase2(
    const vm::Program& sample, const sandbox::RunResult& phase1,
    SampleReport& report, const sandbox::SnapshotRecorder* snapshots) const {
  std::vector<analysis::MutationTarget> targets =
      analysis::CollectMutationTargets(phase1.api_trace);
  report.targets_considered = targets.size();

  const os::HostEnvironment baseline = BaselineMachine();

  // Speculative fan-out: with N > 1 worker threads, every statically
  // eligible target's impact analysis starts immediately on the pool.
  // Some speculation is wasted — a target the merge loop later skips
  // (vaccine_keys, cap) computed an attempt nobody reads — but that is
  // what makes the merge deterministic: it consumes results strictly in
  // target order and applies exactly the skips the sequential path
  // applies, so discarded attempts never touch the report.
  //
  // Destruction order matters: the pool is declared last so its
  // destructor joins the workers before attempts/promises go away.
  std::vector<ImpactAttempt> attempts(targets.size());
  std::vector<std::promise<void>> promises(targets.size());
  std::vector<std::future<void>> futures(targets.size());
  std::unique_ptr<ThreadPool> pool;
  if (options_.mutation_threads > 1 && !targets.empty()) {
    pool = std::make_unique<ThreadPool>(options_.mutation_threads);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (!StaticallyEligible(targets[i].identifier)) continue;
      futures[i] = promises[i].get_future();
      ImpactAttempt* slot = &attempts[i];
      std::promise<void>* done = &promises[i];
      const analysis::MutationTarget* target = &targets[i];
      const trace::ApiTrace* natural = &phase1.api_trace;
      const os::HostEnvironment* base = &baseline;
      pool->Submit([this, &sample, base, natural, target, snapshots, slot,
                    done] {
        // ComputeImpact is exception-free by contract, so the promise is
        // always fulfilled and the merge loop can never deadlock.
        *slot = ComputeImpact(sample, *base, *natural, *target, snapshots);
        done->set_value();
      });
    }
  }

  Tracer& tracer = GlobalTracer();
  std::set<std::pair<os::ResourceType, std::string>> vaccine_keys;
  size_t impact_runs = 0;
  for (size_t target_index = 0; target_index < targets.size();
       ++target_index) {
    const analysis::MutationTarget& target = targets[target_index];
    // One vaccine per resource: several call sites touching the same
    // identifier collapse into the first effective mutation.
    if (vaccine_keys.count({target.resource_type, target.identifier}) > 0) {
      continue;
    }
    // Step-I: exclusiveness (cheap — runs before the impact-run cap).
    {
      ScopedSpan span(tracer, "exclusiveness");
      if (!StaticallyEligible(target.identifier)) {
        ++report.filtered_not_exclusive;
        continue;
      }
    }
    // Each surviving target costs a mutated re-run; cap them.
    if (impact_runs >= options_.max_targets) {
      LogInfo("sample %s: impact-run cap (%zu) reached",
              sample.name.c_str(), options_.max_targets);
      break;
    }
    ++impact_runs;

    // Step-II: impact — collect the speculative attempt, or compute it
    // inline on the sequential path. A crash leaves the effect unknown,
    // so the target is dropped — the rest of the sample keeps analyzing.
    ImpactAttempt attempt;
    {
      ScopedSpan span(tracer, "mutation");
      if (futures[target_index].valid()) {
        futures[target_index].wait();
        attempt = std::move(attempts[target_index]);
      } else {
        attempt = ComputeImpact(sample, baseline, phase1.api_trace, target,
                                snapshots);
      }
    }
    report.impact_retries += attempt.retries;
    report.faults_injected += attempt.faults_injected;
    if (attempt.crashed) {
      ++report.targets_faulted;
      GetPipelineMetrics().targets_faulted->Increment();
      LogInfo("sample %s: impact analysis crashed for %s: %s",
              sample.name.c_str(), target.identifier.c_str(),
              attempt.crash_message.c_str());
      continue;
    }
    const analysis::ImpactResult& impact = attempt.impact;
    if (impact.effect.type == analysis::ImmunizationType::kNone) {
      ++report.filtered_no_impact;
      continue;
    }

    // Step-III: determinism + assembly. The target is already proven
    // impactful, so a crash demotes the vaccine instead of dropping it.
    try {
      ScopedSpan span(tracer, "determinism");
      auto vaccine = BuildVaccine(sample, phase1, target, impact, report);
      if (!vaccine.ok()) {
        ++report.filtered_non_deterministic;
        continue;
      }
      report.vaccines.push_back(std::move(vaccine).value());
      GetPipelineMetrics().vaccines_extracted->Increment();
    } catch (const std::exception& e) {
      ++report.targets_faulted;
      ++report.vaccines_demoted;
      GetPipelineMetrics().targets_faulted->Increment();
      GetPipelineMetrics().vaccines_demoted->Increment();
      LogInfo("sample %s: determinism analysis crashed for %s, demoting: %s",
              sample.name.c_str(), target.identifier.c_str(), e.what());
      report.vaccines.push_back(DemotedVaccine(sample, report, target,
                                               impact));
      GetPipelineMetrics().vaccines_extracted->Increment();
    }
    vaccine_keys.insert({target.resource_type, target.identifier});
  }
}

SampleReport VaccinePipeline::Analyze(const vm::Program& sample) const {
  SampleReport report;
  report.sample_name = sample.name;
  report.sample_digest = sample.Digest();
  report.evasion_class = sample.evasion_class;

  GetPipelineMetrics().samples_analyzed->Increment();
  Tracer& tracer = GlobalTracer();
  // Spans opened from here on belong to this sample's phase-cost rollup.
  const size_t first_span = tracer.spans().size();

  // The snapshot fast path is sound only when mutation re-runs use the
  // same cycle budget as the capture (phase-1) run; with differing
  // budgets the recorder stays empty and every re-run replays in full.
  const bool fast_path =
      options_.snapshot_replay &&
      options_.impact.cycle_budget == options_.phase1_budget;
  sandbox::SnapshotRecorder snapshots(options_.snapshot_cap);

  // ---- Phase-I: candidate selection ---------------------------------
  sandbox::RunResult phase1;
  try {
    ScopedSpan span(tracer, "phase1");
    os::HostEnvironment phase1_env = BaselineMachine();
    const sandbox::RunOptions phase1_options = Phase1RunOptions();
    if (fast_path) {
      // Snapshot only the triples Phase-II may mutate.
      sandbox::CaptureOptions capture;
      capture.eligible = [this](std::string_view identifier) {
        return StaticallyEligible(identifier);
      };
      phase1 = sandbox::RunProgramWithCapture(sample, phase1_env,
                                              phase1_options, {}, snapshots,
                                              capture);
    } else {
      phase1 = sandbox::RunProgram(sample, phase1_env, phase1_options);
    }
    if (snapshots.overflowed()) SnapshotCapOverflowCounter()->Increment();
  } catch (const std::exception& e) {
    report.phase1_status =
        Status::Internal(std::string("phase-1 crash: ") + e.what());
    report.phase_costs = tracer.PhaseTotals(first_span);
    return report;
  }
  report.faults_injected += phase1.faults_injected;

  report.phase1_stop = phase1.stop_reason;
  for (const trace::ApiCallRecord& call : phase1.api_trace.calls) {
    if (!call.is_resource_api) continue;
    ++report.resource_api_occurrences;
    if (call.taint_reached_predicate) ++report.tainted_occurrences;
  }
  report.resource_sensitive = phase1.AnyTaintedPredicate();
  if (report.resource_sensitive) {
    // ---- Phase-II ---------------------------------------------------
    try {
      ScopedSpan span(tracer, "phase2");
      AnalyzePhase2(sample, phase1, report,
                    fast_path ? &snapshots : nullptr);
    } catch (const std::exception& e) {
      report.phase2_status =
          Status::Internal(std::string("phase-2 crash: ") + e.what());
    }
  }
  // else: "if we find no program branches depend on any system resource,
  // we filter this malware" (§II-B).

  // The trace goes out of scope with `phase1`; the report keeps its
  // summary.
  report.natural_trace = trace::SummarizeApiTrace(phase1.api_trace);
  report.phase_costs = tracer.PhaseTotals(first_span);
  return report;
}

std::string_view SampleDispositionName(SampleDisposition disposition) {
  switch (disposition) {
    case SampleDisposition::kAnalyzed: return "analyzed";
    case SampleDisposition::kIsolatedCrash: return "isolated-crash";
    case SampleDisposition::kWorkerCrashed: return "worker-crashed";
    case SampleDisposition::kDeadlineExceeded: return "deadline-exceeded";
    case SampleDisposition::kQuarantined: return "quarantined";
  }
  return "unknown";
}

SampleReport AnalyzeIsolated(const VaccinePipeline& pipeline,
                             const vm::Program& sample) {
  try {
    return pipeline.Analyze(sample);
  } catch (const std::exception& e) {
    // Last-resort isolation: Analyze's own catch blocks should make
    // this unreachable, but a hostile sample must never kill the wave.
    SampleReport report;
    report.sample_name = sample.name;
    report.evasion_class = sample.evasion_class;
    report.disposition = SampleDisposition::kIsolatedCrash;
    report.phase1_status =
        Status::Internal(std::string("analysis crash: ") + e.what());
    return report;
  }
}

CampaignReport BuildCampaignReport(std::vector<SampleReport> reports) {
  CampaignReport campaign;
  for (const SampleReport& report : reports) {
    if (report.disposition != SampleDisposition::kAnalyzed) {
      ++campaign.samples_failed;
    }
    if (!report.Clean()) ++campaign.samples_degraded;
    campaign.total_vaccines += report.vaccines.size();
    campaign.total_demoted += report.vaccines_demoted;
    campaign.total_faults_injected += report.faults_injected;
  }
  campaign.reports = std::move(reports);
  // Roll the per-sample phase costs up into campaign totals, keyed and
  // ordered by phase name so the dashboard stays deterministic. The
  // per-report rollups are the only source: worker-produced reports carry
  // their costs across the process boundary, where the supervisor's own
  // tracer saw nothing.
  std::vector<const std::vector<PhaseTotal>*> rollups;
  rollups.reserve(campaign.reports.size());
  for (const SampleReport& report : campaign.reports) {
    rollups.push_back(&report.phase_costs);
  }
  campaign.phase_costs = MergePhaseTotals(rollups);
  return campaign;
}

CampaignReport AnalyzeCampaign(const VaccinePipeline& pipeline,
                               const std::vector<vm::Program>& samples) {
  std::vector<SampleReport> reports;
  reports.reserve(samples.size());
  for (const vm::Program& sample : samples) {
    reports.push_back(AnalyzeIsolated(pipeline, sample));
  }
  return BuildCampaignReport(std::move(reports));
}

}  // namespace autovac::vaccine
