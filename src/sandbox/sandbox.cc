#include "sandbox/sandbox.h"

#include "sandbox/snapshot.h"
#include "support/metrics.h"
#include "vm/disassembler.h"

namespace autovac::sandbox {
namespace {

// Per-run telemetry published once at the end of RunProgram: taint-layer
// totals, cycle distribution, and quota high-water marks that are cheap
// to read once but not per call.
struct RunMetrics {
  Counter* taint_propagation_ops;
  Counter* taint_labels_allocated;
  Counter* taint_label_sets;
  Counter* taint_tainted_predicates;
  Histogram* run_cycles;
  Gauge* objects_high_water;
  Gauge* file_bytes_high_water;
};

RunMetrics& GetRunMetrics() {
  static RunMetrics* metrics = [] {
    auto* m = new RunMetrics();
    MetricsRegistry& registry = GlobalMetrics();
    m->taint_propagation_ops =
        registry.GetCounter("taint.propagation_ops");
    m->taint_labels_allocated =
        registry.GetCounter("taint.labels_allocated");
    m->taint_label_sets = registry.GetCounter("taint.label_sets");
    m->taint_tainted_predicates =
        registry.GetCounter("taint.tainted_predicates");
    m->run_cycles = registry.GetHistogram(
        "sandbox.run_cycles",
        {1'000, 10'000, 100'000, 1'000'000, kOneMinuteBudget});
    m->objects_high_water = registry.GetGauge("sandbox.objects_high_water");
    m->file_bytes_high_water =
        registry.GetGauge("sandbox.file_bytes_high_water");
    return m;
  }();
  return *metrics;
}

// Checkpoint/restore telemetry. Counters are relaxed atomics, so
// concurrent resumes of one snapshot count safely.
struct SnapshotMetrics {
  Counter* captures;
  Counter* capture_bytes;
  Counter* resumes;
  Counter* prefix_cycles_saved;
};

SnapshotMetrics& GetSnapshotMetrics() {
  static SnapshotMetrics* metrics = [] {
    auto* m = new SnapshotMetrics();
    MetricsRegistry& registry = GlobalMetrics();
    m->captures = registry.GetCounter("snapshot.captures");
    m->capture_bytes = registry.GetCounter("snapshot.capture_bytes");
    m->resumes = registry.GetCounter("snapshot.resumes");
    m->prefix_cycles_saved =
        registry.GetCounter("snapshot.prefix_cycles_saved");
    return m;
  }();
  return *metrics;
}

// Forwards retired instructions to the taint engine, the kernel's shadow
// call stack, and (optionally) the instruction trace.
class Instrumentation : public vm::ExecutionObserver {
 public:
  Instrumentation(Kernel& kernel, taint::TaintEngine* taint,
                  trace::InstructionTrace* inst_trace,
                  size_t max_inst_records)
      : kernel_(kernel),
        taint_(taint),
        inst_trace_(inst_trace),
        max_inst_records_(max_inst_records) {}

  // The observer interface sees a const Cpu; truncating the run on a
  // trace cap needs the mutable one, attached after construction.
  void set_cpu(vm::Cpu* cpu) { cpu_ = cpu; }

  void OnStep(const vm::Cpu& cpu, const vm::StepInfo& step) override {
    (void)cpu;
    if (step.inst.op == vm::Op::kCall && step.branch_taken) {
      kernel_.OnCall(step.pc + 1);
    } else if (step.inst.op == vm::Op::kRet) {
      kernel_.OnRet();
    }
    if (taint_ != nullptr) taint_->OnStep(step);
    if (inst_trace_ != nullptr) {
      trace::InstructionRecord record;
      record.step = step;
      if (step.inst.op == vm::Op::kSys) {
        const int32_t sequence = kernel_.last_api_sequence();
        record.api_sequence =
            sequence < 0 ? UINT32_MAX : static_cast<uint32_t>(sequence);
      }
      inst_trace_->records.push_back(record);
      if (max_inst_records_ != 0 &&
          inst_trace_->records.size() >= max_inst_records_ &&
          cpu_ != nullptr) {
        cpu_->RequestStop(vm::StopReason::kTraceLimit);
      }
    }
  }

 private:
  Kernel& kernel_;
  taint::TaintEngine* taint_;
  trace::InstructionTrace* inst_trace_;
  size_t max_inst_records_ = 0;
  vm::Cpu* cpu_ = nullptr;
};

// Shared postlude for every run flavour (fresh, capturing, resumed):
// drains the machine into the RunResult and publishes per-run telemetry.
// `result.stop_reason` must already be set by the caller's cpu.Run().
void FinishRun(RunResult& result, vm::Cpu& cpu, vm::Memory& memory,
               Kernel& kernel, os::HostEnvironment& env,
               FaultInjector* injector, taint::TaintEngine* taint_engine,
               uint32_t capture_cstring_addr) {
  if (injector != nullptr) result.faults_injected = injector->faults_injected();
  if (capture_cstring_addr != 0) {
    result.captured_output = memory.ReadCString(capture_cstring_addr);
  }
  result.fault_message = cpu.fault_message();
  result.cycles_used = cpu.cycles_used();
  result.api_trace = std::move(kernel.trace());
  result.api_trace.stop_reason = result.stop_reason;
  result.api_trace.cycles_used = result.cycles_used;

  RunMetrics& metrics = GetRunMetrics();
  metrics.run_cycles->Record(result.cycles_used);
  metrics.objects_high_water->UpdateMax(
      static_cast<int64_t>(env.ns().ObjectCount()));
  metrics.file_bytes_high_water->UpdateMax(
      static_cast<int64_t>(env.ns().TotalFileBytes()));

  if (taint_engine != nullptr) {
    metrics.taint_propagation_ops->Increment(taint_engine->propagation_ops());
    metrics.taint_labels_allocated->Increment(result.labels->num_sources());
    // num_sets() counts the always-present empty set; report real sets.
    metrics.taint_label_sets->Increment(result.labels->num_sets() - 1);
    metrics.taint_tainted_predicates->Increment(
        taint_engine->predicates().size());
    result.predicates = taint_engine->predicates();
    // Attribute predicates back to the API calls whose taint reached them
    // (Phase-I output: "the list of the system-resource-sensitive APIs ...
    // and their propagated taint record that is used in the predicate").
    for (const taint::PredicateEvent& event : result.predicates) {
      for (uint32_t source_index : result.labels->Sources(event.labels)) {
        const taint::TaintSource& source = result.labels->Source(source_index);
        if (source.api_sequence < result.api_trace.calls.size()) {
          result.api_trace.calls[source.api_sequence].taint_reached_predicate =
              true;
        }
      }
    }
  }
}

// Shared body of RunProgram / RunProgramWithCapture; `recorder` non-null
// installs the pre-call capture probe.
RunResult RunProgramImpl(const vm::Program& program, os::HostEnvironment& env,
                         const RunOptions& options,
                         const std::vector<ApiHook>& hooks,
                         SnapshotRecorder* recorder,
                         const CaptureOptions& capture) {
  RunResult result;
  result.labels = std::make_shared<taint::LabelStore>();

  std::unique_ptr<taint::TaintEngine> taint_engine;
  if (options.enable_taint) {
    taint_engine = std::make_unique<taint::TaintEngine>(
        *result.labels, options.taint_options);
  }

  const std::string image_name =
      (program.name.empty() ? "sample" : program.name) + ".exe";
  Kernel kernel(env, taint_engine.get(), image_name);
  for (const ApiHook& hook : hooks) kernel.AddHook(hook);

  // Per-run fault-injection state over the shared, immutable plan.
  std::unique_ptr<FaultInjector> injector;
  if (options.fault_plan != nullptr && !options.fault_plan->empty()) {
    injector = std::make_unique<FaultInjector>(*options.fault_plan);
    kernel.set_fault_injector(injector.get());
  }
  kernel.set_max_api_records(options.limits.max_api_records);

  vm::Memory memory;
  program.LoadInto(memory);
  vm::Cpu cpu(program, memory);
  cpu.set_syscall_handler(&kernel);
  cpu.set_call_depth_limit(options.limits.max_call_depth);
  cpu.set_api_call_limit(options.limits.max_api_calls);

  if (recorder != nullptr) {
    // Fires on every resource-API call with the record's pre-execution
    // fields final and the machine untouched by the call; copies state,
    // never mutates it, so the run is otherwise a plain RunProgram.
    kernel.set_pre_call_probe([&](const trace::ApiCallRecord& record,
                                  vm::Cpu& probe_cpu) {
      if (capture.eligible && !capture.eligible(record.resource_identifier)) {
        return;
      }
      if (!recorder->ShouldCapture(record.api_name, record.caller_pc,
                                   record.resource_identifier)) {
        return;
      }
      MachineSnapshot snapshot(env);
      snapshot.api_name = record.api_name;
      snapshot.caller_pc = record.caller_pc;
      snapshot.identifier = record.resource_identifier;
      snapshot.cpu = probe_cpu.SnapshotAtSyscall();
      snapshot.memory = memory;
      snapshot.kernel = kernel.Snapshot();
      if (injector != nullptr) {
        snapshot.injector = std::make_unique<FaultInjector>(*injector);
      }
      snapshot.capture_budget = options.cycle_budget;
      SnapshotMetrics& metrics = GetSnapshotMetrics();
      metrics.captures->Increment();
      metrics.capture_bytes->Increment(snapshot.ApproxBytes());
      recorder->Add(std::move(snapshot));
    });
  }

  Instrumentation instrumentation(
      kernel, taint_engine.get(),
      options.record_instructions ? &result.instruction_trace : nullptr,
      options.limits.max_instruction_records);
  instrumentation.set_cpu(&cpu);
  cpu.set_observer(&instrumentation);

  result.stop_reason = cpu.Run(options.cycle_budget);
  FinishRun(result, cpu, memory, kernel, env, injector.get(),
            taint_engine.get(), options.capture_cstring_addr);
  return result;
}

}  // namespace

RunResult RunProgram(const vm::Program& program, os::HostEnvironment& env,
                     const RunOptions& options,
                     const std::vector<ApiHook>& hooks) {
  return RunProgramImpl(program, env, options, hooks, /*recorder=*/nullptr,
                        CaptureOptions{});
}

RunResult RunProgramWithCapture(const vm::Program& program,
                                os::HostEnvironment& env,
                                const RunOptions& options,
                                const std::vector<ApiHook>& hooks,
                                SnapshotRecorder& recorder,
                                const CaptureOptions& capture) {
  return RunProgramImpl(program, env, options, hooks, &recorder, capture);
}

RunResult ResumeProgram(const vm::Program& program,
                        const MachineSnapshot& snapshot,
                        const ResumeOptions& options,
                        const std::vector<ApiHook>& hooks) {
  RunResult result;
  result.labels = std::make_shared<taint::LabelStore>();

  // Private copies of every piece of machine state: resumes never touch
  // the snapshot, so one capture serves any number of (concurrent)
  // mutation re-runs.
  os::HostEnvironment env = snapshot.env;
  Kernel kernel(env, /*taint_engine=*/nullptr, snapshot.kernel);
  for (const ApiHook& hook : hooks) kernel.AddHook(hook);

  std::unique_ptr<FaultInjector> injector;
  if (snapshot.injector != nullptr) {
    injector = std::make_unique<FaultInjector>(*snapshot.injector);
    kernel.set_fault_injector(injector.get());
  }
  kernel.set_max_api_records(options.limits.max_api_records);

  vm::Memory memory = snapshot.memory;
  vm::Cpu cpu(program, memory);
  cpu.set_syscall_handler(&kernel);
  cpu.set_call_depth_limit(options.limits.max_call_depth);
  cpu.set_api_call_limit(options.limits.max_api_calls);
  cpu.Restore(snapshot.cpu);

  // Resumed runs track no taint and never record an instruction trace:
  // their consumers (mutation re-runs) only read the API trace.
  Instrumentation instrumentation(kernel, /*taint=*/nullptr,
                                  /*inst_trace=*/nullptr,
                                  /*max_inst_records=*/0);
  instrumentation.set_cpu(&cpu);
  cpu.set_observer(&instrumentation);

  // cycles_used continues from the snapshot, so the budget check below
  // behaves exactly as in the full run it replaces.
  result.stop_reason = cpu.Run(options.cycle_budget);

  SnapshotMetrics& snapshot_metrics = GetSnapshotMetrics();
  snapshot_metrics.resumes->Increment();
  snapshot_metrics.prefix_cycles_saved->Increment(snapshot.cpu.cycles_used);

  FinishRun(result, cpu, memory, kernel, env, injector.get(),
            /*taint_engine=*/nullptr, /*capture_cstring_addr=*/0);
  return result;
}

vm::ApiResolver SandboxApiResolver() {
  return [](std::string_view name) -> std::optional<int64_t> {
    auto id = FindApiByName(name);
    if (!id.has_value()) return std::nullopt;
    return static_cast<int64_t>(*id);
  };
}

vm::ApiNamer SandboxApiNamer() {
  return [](int64_t id) -> std::optional<std::string> {
    if (id < 0 || id >= static_cast<int64_t>(kNumApis)) return std::nullopt;
    return std::string(ApiName(static_cast<ApiId>(id)));
  };
}

Result<vm::Program> AssembleForSandbox(std::string_view source) {
  return vm::Assemble(source, SandboxApiResolver());
}

}  // namespace autovac::sandbox
