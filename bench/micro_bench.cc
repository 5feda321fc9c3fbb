// Micro-benchmarks and ablations (google-benchmark): taint-propagation
// throughput, label-set interning, trace-alignment scaling (with and
// without the caller-PC context, the ablation DESIGN.md calls out),
// wildcard-pattern matching, and full Phase-I runs with pointer-taint
// propagation on/off.
#include <benchmark/benchmark.h>

#include "analysis/alignment.h"
#include "campaign/journal.h"
#include "malware/families.h"
#include "sandbox/sandbox.h"
#include "support/metrics.h"
#include "support/pattern.h"
#include "support/strings.h"
#include "support/tracing.h"
#include "taint/engine.h"
#include "vaccine/json.h"

using namespace autovac;

namespace {

// --- taint propagation throughput -------------------------------------
void BM_TaintPropagation(benchmark::State& state) {
  taint::LabelStore store;
  taint::TaintEngine engine(store);
  const auto label = store.AddSource({0, "OpenMutexA",
                                      os::ResourceType::kMutex,
                                      os::Operation::kOpen, "m", true});
  engine.TaintReturnValue(label);

  vm::StepInfo mov_step;
  mov_step.inst = {vm::Op::kMovRR, vm::Reg::kEbx, vm::Reg::kEax, 0};
  vm::StepInfo store_step;
  store_step.inst = {vm::Op::kStore, vm::Reg::kEcx, vm::Reg::kEbx, 0};
  store_step.mem_addr = vm::kDataBase;
  store_step.mem_size = 4;
  vm::StepInfo cmp_step;
  cmp_step.inst = {vm::Op::kCmpRI, vm::Reg::kEbx, vm::Reg::kNone, 0};

  for (auto _ : state) {
    engine.OnStep(mov_step);
    engine.OnStep(store_step);
    engine.OnStep(cmp_step);
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_TaintPropagation);

// --- label-set union interning ------------------------------------------
void BM_LabelUnion(benchmark::State& state) {
  taint::LabelStore store;
  std::vector<taint::LabelSetId> labels;
  for (int i = 0; i < 64; ++i) {
    labels.push_back(store.AddSource(
        {static_cast<uint32_t>(i), "CreateFileA", os::ResourceType::kFile,
         os::Operation::kCreate, "f", true}));
  }
  size_t i = 0;
  taint::LabelSetId acc = taint::kEmptySet;
  for (auto _ : state) {
    acc = store.Union(acc, labels[i++ % labels.size()]);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_LabelUnion);

// --- trace alignment scaling ----------------------------------------------
trace::ApiTrace SyntheticTrace(size_t n, uint32_t pc_offset) {
  trace::ApiTrace trace;
  for (size_t i = 0; i < n; ++i) {
    trace::ApiCallRecord call;
    call.api_name = (i % 3 == 0) ? "CreateFileA"
                    : (i % 3 == 1) ? "RegOpenKeyA" : "send";
    call.caller_pc = static_cast<uint32_t>(i * 4 + pc_offset);
    call.resource_identifier = StrFormat("res%zu", i % 7);
    call.sequence = static_cast<uint32_t>(i);
    trace.calls.push_back(std::move(call));
  }
  return trace;
}

// The range runs to 16,384 calls (201M cells): alignment is exact at
// every size, so the large end must stay measured too.
void BM_AlignmentScaling(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  auto natural = SyntheticTrace(n, 0);
  auto mutated = SyntheticTrace(n * 3 / 4, 0);  // mutated run lost a quarter
  for (auto _ : state) {
    auto alignment = analysis::AlignTraces(natural, mutated);
    benchmark::DoNotOptimize(alignment.matches.size());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_AlignmentScaling)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Complexity();

// The shape Phase-II produces: the mutated run repeats the natural
// prefix up to the mutated call (half the trace here), then diverges
// into a different suffix that shares only some of its calls.
void BM_AlignmentPrefixThenDivergent(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  auto natural = SyntheticTrace(n, 0);
  trace::ApiTrace mutated;
  mutated.calls.assign(natural.calls.begin(), natural.calls.begin() + n / 2);
  const trace::ApiTrace divergent = SyntheticTrace(n / 2, 2);  // other sites
  for (size_t i = 0; i < divergent.calls.size(); ++i) {
    mutated.calls.push_back(i % 4 == 0 ? natural.calls[n / 2 + i]
                                       : divergent.calls[i]);
    mutated.calls.back().sequence = static_cast<uint32_t>(n / 2 + i);
  }
  for (auto _ : state) {
    auto alignment = analysis::AlignTraces(natural, mutated);
    benchmark::DoNotOptimize(alignment.matches.size());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_AlignmentPrefixThenDivergent)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Complexity();

// Ablation: alignment without the caller-PC in the context triple.
void BM_AlignmentNoCallerPc(benchmark::State& state) {
  auto natural = SyntheticTrace(512, 0);
  auto mutated = SyntheticTrace(384, 1);  // different sites
  analysis::AlignmentOptions options;
  options.use_caller_pc = false;
  for (auto _ : state) {
    auto alignment = analysis::AlignTraces(natural, mutated, options);
    benchmark::DoNotOptimize(alignment.matches.size());
  }
}
BENCHMARK(BM_AlignmentNoCallerPc);

// --- wildcard pattern matching ----------------------------------------------
void BM_PatternMatch(benchmark::State& state) {
  auto pattern = Pattern::Compile("C:\\\\Windows\\\\system32\\\\sd*64.exe");
  AUTOVAC_CHECK(pattern.ok());
  const std::string hit = "C:\\Windows\\system32\\sdra64.exe";
  const std::string miss = "C:\\Windows\\system32\\kernel32.dll";
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern->Matches(hit));
    benchmark::DoNotOptimize(pattern->Matches(miss));
  }
}
BENCHMARK(BM_PatternMatch);

// --- Phase-I run cost, pointer-taint ablation ----------------------------------
void BM_Phase1Run(benchmark::State& state) {
  auto program = malware::BuildZeus({});
  AUTOVAC_CHECK(program.ok());
  sandbox::RunOptions options;
  options.record_instructions = true;
  options.taint_options.propagate_addresses = state.range(0) != 0;
  options.taint_options.track_control_dependence = state.range(1) != 0;
  size_t predicates = 0;
  for (auto _ : state) {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    auto result = sandbox::RunProgram(program.value(), env, options);
    predicates = result.predicates.size();
    benchmark::DoNotOptimize(predicates);
  }
  state.counters["predicates"] = static_cast<double>(predicates);
}
BENCHMARK(BM_Phase1Run)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->ArgNames({"ptr_taint", "ctrl_dep"});

// --- fault-injection dispatch overhead ----------------------------------
// The resilience requirement: with no FaultPlan installed the kernel's
// API dispatch pays only a null-pointer test (<2% on this probe). Arg 0
// runs bare; arg 1 installs a plan whose only rule can never fire, so
// the delta isolates the dispatch cost rather than injected behaviour.
void BM_FaultDispatch(benchmark::State& state) {
  auto program = malware::BuildZeus({});
  AUTOVAC_CHECK(program.ok());
  sandbox::RunOptions options;
  options.enable_taint = false;

  sandbox::FaultPlan plan(1);
  if (state.range(0) != 0) {
    sandbox::FaultRule rule;
    rule.api = sandbox::ApiId::kGetTickCount;
    rule.occurrence = 1 << 30;  // never reached
    plan.AddRule(rule);
    options.fault_plan = &plan;
  }

  size_t calls = 0;
  for (auto _ : state) {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    auto result = sandbox::RunProgram(program.value(), env, options);
    calls += result.api_trace.calls.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(calls));
}
BENCHMARK(BM_FaultDispatch)->Arg(0)->Arg(1)->ArgName("plan");

// --- telemetry hot paths -------------------------------------------------
// The instrumentation budget: incrementing through a cached Counter* is
// one relaxed atomic add — cheap enough to sit on the kernel's dispatch
// path without registering in BM_FaultDispatch.
void BM_MetricsCounterHot(benchmark::State& state) {
  Counter* counter = GlobalMetrics().GetCounter("bench.hot_counter");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterHot);

// Span discipline mirrors BM_FaultDispatch: arg 0 measures the disabled
// tracer, whose BeginSpan must cost exactly one branch (EndSpan on
// kNoSpan is a second), so leaving ScopedSpans compiled into the
// pipeline is free; arg 1 measures a real open/close pair.
void BM_SpanOpenClose(benchmark::State& state) {
  Tracer tracer;
  uint64_t ticks = 0;
  tracer.set_tick_clock([&ticks] { return ticks++; });
  tracer.set_enabled(state.range(0) != 0);
  size_t spans = 0;
  for (auto _ : state) {
    {
      ScopedSpan span(tracer, "bench");
    }
    if (tracer.spans().size() >= 1u << 16) {
      // Bound memory on the enabled path without timing the purge.
      state.PauseTiming();
      tracer.Clear();
      state.ResumeTiming();
    }
    ++spans;
  }
  benchmark::DoNotOptimize(spans);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanOpenClose)->Arg(0)->Arg(1)->ArgName("enabled");

// Write-ahead journal append: one serialized SampleReport per completed
// sample, fsync'd before the campaign moves on. Arg 1 is the real
// durable path (fsync per record — the price of losing at most one
// sample to a crash); arg 0 isolates the serialize+write cost.
void BM_JournalAppend(benchmark::State& state) {
  const std::string path = "micro_bench_journal_scratch.jsonl";
  vaccine::SampleReport report;
  report.sample_name = "bench-sample";
  report.sample_digest = "0123456789abcdef0123456789abcdef";
  report.resource_api_occurrences = 12;
  report.tainted_occurrences = 5;
  report.resource_sensitive = true;
  report.targets_considered = 4;
  report.phase_costs.push_back({"phase1", 1, 150'000, 0});
  report.phase_costs.push_back({"phase2", 1, 420'000, 0});

  campaign::JournalHeader header;
  header.config_digest = "feedfacefeedfacefeedfacefeedface";
  header.sample_names.push_back(report.sample_name);
  header.sample_digests.push_back(report.sample_digest);
  auto journal = campaign::CampaignJournal::Create(path, header);
  AUTOVAC_CHECK(journal.ok());
  journal->set_sync(state.range(0) != 0);

  size_t appended = 0;
  for (auto _ : state) {
    AUTOVAC_CHECK(journal->Append(0, report).ok());
    ++appended;
  }
  benchmark::DoNotOptimize(appended);
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(
      state.iterations() * vaccine::SampleReportToJson(report).size()));
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(1)->ArgName("fsync");

}  // namespace

BENCHMARK_MAIN();
