// The end-to-end AUTOVAC pipeline (Figure 1): Phase-I candidate selection
// (taint-instrumented profiling run), Phase-II vaccine generation
// (exclusiveness analysis, impact analysis via mutation + trace
// differential, determinism analysis + slice extraction), producing
// deployable Vaccine records for Phase-III.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/determinism.h"
#include "analysis/exclusiveness.h"
#include "analysis/impact.h"
#include "os/host_environment.h"
#include "support/status.h"
#include "support/tracing.h"
#include "trace/serialize.h"
#include "vaccine/vaccine.h"
#include "vm/program.h"

namespace autovac::vaccine {

struct PipelineOptions {
  // Phase-I profiling budget: "each sample runs for 1 minute" (§VI-B).
  uint64_t phase1_budget = sandbox::kOneMinuteBudget;
  analysis::ImpactOptions impact;
  analysis::DeterminismOptions determinism;
  // Ablation switch: skip the exclusiveness filter.
  bool run_exclusiveness = true;
  // Cap on mutation targets per sample (each costs a full re-run).
  size_t max_targets = 24;
  // Entropy seed for the analysis machine.
  uint64_t machine_seed = 7;
  // Execution-envelope caps applied to every sandbox run the pipeline
  // makes (phase-1 and mutation re-runs); 0 = unlimited.
  sandbox::RunLimits limits;
  // Optional deterministic fault schedule, applied to every sandbox run.
  const sandbox::FaultPlan* fault_plan = nullptr;
  // Retries (with halved cycle budget each time) for a mutation re-run
  // that stops abnormally — a fault or a tripped envelope cap.
  size_t max_impact_retries = 1;

  // Snapshot fast path: capture machine snapshots at resource-API call
  // sites during the phase-1 run and execute mutation re-runs by
  // restoring + resuming instead of replaying the whole prefix. Only
  // engages when the impact budget equals the phase-1 budget (otherwise
  // resumes cannot be proven equivalent); reports are byte-identical
  // either way. `--no-snapshot-replay` flips this off.
  bool snapshot_replay = true;
  // Most snapshots kept per sample (each shares the run's memory pages
  // copy-on-write and copies the host environment and kernel state);
  // only triples Phase-II may mutate are captured, and targets past the
  // cap fall back to full re-runs.
  size_t snapshot_cap = 32;
  // Worker threads for the Phase-II mutation fan-out. 1 (the default)
  // runs mutations inline on the calling thread; N > 1 speculatively
  // computes every statically-eligible target's impact on a pool and
  // merges results in target order, so reports stay byte-identical to
  // the sequential path. Speculation may execute (and then discard)
  // attempts the sequential path would have skipped, so wall-clock
  // telemetry — not report contents — can differ across thread counts.
  size_t mutation_threads = 1;
};

// How a sample's analysis ultimately ended, across every isolation layer
// (in-process exception catch, forked worker, deadline watchdog, poison
// list). Anything but kAnalyzed counts as a failed sample in campaign
// aggregates.
enum class SampleDisposition : uint8_t {
  kAnalyzed = 0,       // Analyze returned (its own statuses may be non-OK)
  kIsolatedCrash,      // Analyze threw; caught by the campaign runner
  kWorkerCrashed,      // worker process died (signal / bad exit)
  kDeadlineExceeded,   // worker SIGKILLed by the wall-clock watchdog
  kQuarantined,        // poison-listed after repeatedly killing workers
};

[[nodiscard]] std::string_view SampleDispositionName(
    SampleDisposition disposition);

// Per-sample outcome of Phase-I and Phase-II.
struct SampleReport {
  std::string sample_name;
  std::string sample_digest;
  // Free-form evasion-class tag copied from the sample's `.evasion`
  // directive; empty for ordinary (non-adversarial) corpora.
  std::string evasion_class;
  SampleDisposition disposition = SampleDisposition::kAnalyzed;

  // Phase-I statistics.
  size_t resource_api_occurrences = 0;
  size_t tainted_occurrences = 0;  // occurrences whose taint hit a branch
  bool resource_sensitive = false; // flagged "possibly has a vaccine"
  vm::StopReason phase1_stop = vm::StopReason::kRunning;

  // Error taxonomy: each phase reports its own health. A non-OK status
  // means the phase crashed (was isolated), not that it filtered the
  // sample — the report stays well-formed either way.
  Status phase1_status = Status::Ok();
  Status phase2_status = Status::Ok();

  // Phase-II counters.
  size_t targets_considered = 0;
  size_t filtered_not_exclusive = 0;
  size_t filtered_no_impact = 0;
  size_t filtered_non_deterministic = 0;

  // Resilience counters.
  size_t impact_retries = 0;    // abnormal-stop re-runs (halved budget)
  size_t targets_faulted = 0;   // targets dropped by an isolated crash
  size_t vaccines_demoted = 0;  // determinism crash ⇒ daemon fallback
  size_t faults_injected = 0;   // across every sandbox run of this sample

  std::vector<Vaccine> vaccines;

  // Per-phase analysis cost (the paper's Table IV axis), aggregated from
  // the spans this sample's analysis opened on the global tracer. Empty
  // when tracing is disabled. Ticks are VM instructions — deterministic
  // under fixed seeds; wall_ns is informational only.
  std::vector<PhaseTotal> phase_costs;

  // What the report keeps of the phase-1 (natural) API trace: its digest
  // and call count. The trace itself is dropped once Phase-II has aligned
  // every mutated run against it; a default summary means phase 1
  // recorded none (it crashed, or the worker died).
  trace::ApiTraceSummary natural_trace;

  // True when both phases ran to completion without an isolated crash.
  [[nodiscard]] bool Clean() const {
    return phase1_status.ok() && phase2_status.ok() && targets_faulted == 0;
  }
};

// Aggregate outcome of analyzing a whole wave of samples.
struct CampaignReport {
  std::vector<SampleReport> reports;
  size_t samples_failed = 0;   // Analyze itself threw (last-resort catch)
  size_t samples_degraded = 0; // report returned, but not Clean()
  size_t total_vaccines = 0;
  size_t total_demoted = 0;
  size_t total_faults_injected = 0;
  // Phase costs summed over every sample (empty when tracing is off).
  std::vector<PhaseTotal> phase_costs;
};

class VaccinePipeline {
 public:
  // `index` may be null, disabling the exclusiveness filter.
  VaccinePipeline(const analysis::ExclusivenessIndex* index,
                  PipelineOptions options = {});

  // Runs Phase-I + Phase-II on one sample.
  [[nodiscard]] SampleReport Analyze(const vm::Program& sample) const;

  // A fresh copy of the analysis machine this pipeline uses as baseline.
  [[nodiscard]] os::HostEnvironment BaselineMachine() const;

  // The options of Analyze's phase-1 run: taint on, instructions
  // recorded. Running a sample with them on BaselineMachine() gives the
  // natural trace that the report summarizes.
  [[nodiscard]] sandbox::RunOptions Phase1RunOptions() const;

  [[nodiscard]] const PipelineOptions& options() const { return options_; }

  // The exclusiveness index this pipeline filters against (may be null).
  // The campaign supervisor uses it to derive retry pipelines with a
  // backed-off cycle budget.
  [[nodiscard]] const analysis::ExclusivenessIndex* exclusiveness_index()
      const {
    return index_;
  }

 private:
  // Whether a target with this identifier can reach the impact analysis:
  // non-empty and, when the filter is on, exclusive. Static, so it both
  // selects the phase-1 captures and gates the fan-out and the merge
  // loop; the dynamic skips (vaccine_keys dedup, the impact-run cap)
  // stay in the merge loop.
  [[nodiscard]] bool StaticallyEligible(std::string_view identifier) const;

  // Phase-II body; exceptions escape to Analyze's isolation layer.
  // `snapshots` non-null enables the mutation fast path (resume targets
  // from their captured call sites instead of full re-runs).
  void AnalyzePhase2(const vm::Program& sample,
                     const sandbox::RunResult& phase1,
                     SampleReport& report,
                     const sandbox::SnapshotRecorder* snapshots) const;

  // The outcome of one target's impact analysis, carried from a (possibly
  // speculative, possibly worker-thread) computation to the deterministic
  // merge point. Report counters are applied only at merge, so a
  // discarded speculative attempt never reaches a report.
  struct ImpactAttempt {
    analysis::ImpactResult impact;
    size_t retries = 0;
    size_t faults_injected = 0;
    bool crashed = false;          // the analysis threw; `impact` is empty
    std::string crash_message;
  };

  // One target's mutation re-run: snapshot resume when possible, full
  // re-run otherwise, retried with a halved cycle budget (always a full
  // re-run — the halved budget invalidates resumes) while the run stops
  // abnormally. Thread-safe: touches no report state, catches every
  // exception into the attempt, and logs nothing.
  [[nodiscard]] ImpactAttempt ComputeImpact(
      const vm::Program& sample, const os::HostEnvironment& baseline,
      const trace::ApiTrace& natural, const analysis::MutationTarget& target,
      const sandbox::SnapshotRecorder* snapshots) const;

  // Determinism analysis + vaccine assembly for one proven-impactful
  // target. Filter outcomes come back as non-OK statuses; exceptions
  // escape to the caller, which demotes instead of dropping.
  [[nodiscard]] Result<Vaccine> BuildVaccine(
      const vm::Program& sample, const sandbox::RunResult& phase1,
      const analysis::MutationTarget& target,
      const analysis::ImpactResult& impact, SampleReport& report) const;

  const analysis::ExclusivenessIndex* index_;
  PipelineOptions options_;
};

// Runs Analyze with last-resort exception isolation: an escaped throw
// becomes a well-formed failed report (disposition kIsolatedCrash)
// instead of aborting the caller. The per-sample unit both the in-process
// campaign runner and the forked campaign workers execute.
[[nodiscard]] SampleReport AnalyzeIsolated(const VaccinePipeline& pipeline,
                                           const vm::Program& sample);

// Deterministically folds per-sample reports into a CampaignReport:
// failure/degradation counts from each report's disposition and statuses,
// phase costs summed from each report's own phase_costs rollup (never
// re-queried from the global tracer, which is empty for reports produced
// in separate worker processes).
[[nodiscard]] CampaignReport BuildCampaignReport(
    std::vector<SampleReport> reports);

// Crash-isolated campaign runner: analyzes every sample, converting even
// an escaped Analyze exception into a well-formed (failed) SampleReport
// so one hostile sample cannot abort the wave.
[[nodiscard]] CampaignReport AnalyzeCampaign(
    const VaccinePipeline& pipeline, const std::vector<vm::Program>& samples);

}  // namespace autovac::vaccine
