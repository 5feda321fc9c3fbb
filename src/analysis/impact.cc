#include "analysis/impact.h"

#include <map>
#include <tuple>

#include "os/errors.h"

namespace autovac::analysis {
namespace {

// Failure code a forced failure should surface, by operation.
uint32_t FailureCodeFor(os::Operation operation) {
  switch (operation) {
    case os::Operation::kOpen:
    case os::Operation::kRead:
      return os::kErrorFileNotFound;
    case os::Operation::kCreate:
      return os::kErrorAccessDenied;
    case os::Operation::kWrite:
    case os::Operation::kDelete:
      return os::kErrorAccessDenied;
    case os::Operation::kOpCount:
      break;
  }
  return os::kErrorAccessDenied;
}

}  // namespace

std::vector<MutationTarget> CollectMutationTargets(
    const trace::ApiTrace& natural) {
  std::vector<MutationTarget> targets;
  // Dedup: one mutation per (api, call site, identifier).
  std::map<std::tuple<std::string, uint32_t, std::string>, size_t> seen;

  for (const trace::ApiCallRecord& call : natural.calls) {
    if (!call.is_resource_api) continue;
    // Candidates: taint reached a branch, or the access failed (§I: "those
    // that lead to the failure of certain system calls").
    if (!call.taint_reached_predicate && call.succeeded) continue;
    const auto key =
        std::make_tuple(call.api_name, call.caller_pc,
                        call.resource_identifier);
    if (seen.count(key) > 0) continue;
    seen.emplace(key, targets.size());

    MutationTarget target;
    target.api_name = call.api_name;
    target.caller_pc = call.caller_pc;
    target.identifier = call.resource_identifier;
    target.resource_type = call.resource_type;
    target.operation = call.operation;
    target.natural_success = call.succeeded;
    target.natural_already_existed =
        call.succeeded && call.last_error == os::kErrorAlreadyExists;
    target.anchor_sequence = call.sequence;
    targets.push_back(std::move(target));
  }
  return targets;
}

sandbox::ApiHook MakeMutationHook(const MutationTarget& target) {
  return [target](const sandbox::ApiObservation& obs)
             -> std::optional<sandbox::ForcedOutcome> {
    if (obs.spec->name != target.api_name) return std::nullopt;
    if (obs.caller_pc != target.caller_pc) return std::nullopt;
    if (obs.identifier != target.identifier) return std::nullopt;

    sandbox::ForcedOutcome outcome;
    if (target.SimulatesPresence()) {
      // The resource appears to exist: plain success for opens/reads,
      // success + ALREADY_EXISTS for creates (the infection-marker signal
      // tested via GetLastError).
      outcome.success = true;
      outcome.last_error = target.natural_success &&
                                   target.operation == os::Operation::kCreate
                               ? os::kErrorAlreadyExists
                               : os::kErrorSuccess;
    } else {
      outcome.success = false;
      outcome.last_error = FailureCodeFor(target.operation);
    }
    return outcome;
  };
}

ImpactResult RunImpactAnalysis(const vm::Program& sample,
                               const os::HostEnvironment& baseline_env,
                               const trace::ApiTrace& natural,
                               const MutationTarget& target,
                               const ImpactOptions& options) {
  ImpactResult result;
  result.target = target;

  os::HostEnvironment env = baseline_env;  // fresh machine snapshot
  sandbox::RunOptions run_options;
  run_options.cycle_budget = options.cycle_budget;
  run_options.enable_taint = false;  // second round: behaviour only
  run_options.limits = options.limits;
  run_options.fault_plan = options.fault_plan;

  auto run = sandbox::RunProgram(sample, env, run_options,
                                 {MakeMutationHook(target)});
  result.effect =
      ClassifyImmunization(natural, run.api_trace, options.classifier);
  result.mutated_trace = std::move(run.api_trace);
  result.stop_reason = run.stop_reason;
  result.faults_injected = run.faults_injected;
  return result;
}

std::optional<ImpactResult> TryResumeImpactAnalysis(
    const vm::Program& sample, const sandbox::MachineSnapshot& snapshot,
    const trace::ApiTrace& natural, const MutationTarget& target,
    const ImpactOptions& options) {
  // Equivalence precondition 1: same cycle budget as the capture run.
  if (options.cycle_budget != snapshot.capture_budget) return std::nullopt;

  // Equivalence precondition 2: same fault schedule as the capture run.
  // The legacy re-run would build a fresh injector over options.fault_plan
  // and replay the prefix through it; the snapshot's cursor is equivalent
  // only when it advanced over that very plan.
  const bool want_faults =
      options.fault_plan != nullptr && !options.fault_plan->empty();
  if (want_faults != (snapshot.injector != nullptr)) return std::nullopt;
  if (want_faults && options.fault_plan != &snapshot.injector->plan()) {
    return std::nullopt;
  }

  sandbox::ResumeOptions resume_options;
  resume_options.cycle_budget = options.cycle_budget;
  resume_options.limits = options.limits;

  auto run = sandbox::ResumeProgram(sample, snapshot, resume_options,
                                    {MakeMutationHook(target)});

  // Defensive check: the first call executed past the snapshot prefix
  // must be the captured triple. (A shorter trace is legitimate — an
  // envelope cap that fires before the call records anything fires
  // identically in the full re-run.)
  const size_t prefix = snapshot.kernel.trace.calls.size();
  if (run.api_trace.calls.size() > prefix) {
    const trace::ApiCallRecord& first = run.api_trace.calls[prefix];
    if (first.api_name != snapshot.api_name ||
        first.caller_pc != snapshot.caller_pc ||
        first.resource_identifier != snapshot.identifier) {
      return std::nullopt;
    }
  }

  ImpactResult result;
  result.target = target;
  result.effect =
      ClassifyImmunization(natural, run.api_trace, options.classifier);
  result.mutated_trace = std::move(run.api_trace);
  result.stop_reason = run.stop_reason;
  result.faults_injected = run.faults_injected;
  return result;
}

}  // namespace autovac::analysis
