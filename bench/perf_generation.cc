// Regenerates §VI-F.1: vaccine generation overhead — per-sample analysis
// time (trace analysis + identifier extraction + exclusiveness filtering),
// per-identifier backward-slicing time, and impact-analysis time per case.
// Absolute numbers differ from the paper's Core i5 testbed (we run a
// simulator, not DynamoRIO over real binaries); the reported structure is
// the same.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "analysis/determinism.h"
#include "bench/common.h"
#include "sandbox/sandbox.h"
#include "support/metrics.h"
#include "support/tracing.h"
#include "vaccine/json.h"

using namespace autovac;

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Legacy full-re-run vs snapshot-replay impact analysis, measured over
// crafted multi-target samples whose compute prefix dominates — the shape
// Phase-II re-runs pay for repeatedly and snapshots amortize.
struct FastPathResult {
  double legacy_ms = 0;
  double fast_ms = 0;
  double speedup = 0;
  uint64_t mutation_runs = 0;
};

vm::Program MultiTargetSample(const std::string& name, size_t num_targets,
                              size_t warmup_iterations) {
  std::ostringstream src;
  src << ".name " << name << "\n.rdata\n";
  src << "  string mtx \"" << name << "-marker\"\n";
  src << "  string drop \"C:\\\\Windows\\\\system32\\\\" << name
      << ".sys\"\n";
  for (size_t i = 0; i < num_targets; ++i) {
    src << "  string f" << i << " \"C:\\\\missing\\\\" << name << "-" << i
        << "\"\n";
  }
  src << ".text\n  mov ecx, " << warmup_iterations << "\nwarmup:\n"
      << "  add ebx, ecx\n  dec ecx\n  cmp ecx, 0\n  jnz warmup\n"
      << "  push mtx\n  push 1\n  sys CreateMutexA\n  add esp, 8\n"
      << "  sys GetLastError\n  cmp eax, 183\n  jz done\n"
      << "  push 2\n  push drop\n  sys CreateFileA\n  add esp, 8\n";
  for (size_t i = 0; i < num_targets; ++i) {
    src << "  push 3\n  push f" << i << "\n  sys CreateFileA\n"
        << "  add esp, 8\n";
  }
  src << "done:\n  push 0\n  sys ExitProcess\n";
  auto program = sandbox::AssembleForSandbox(src.str());
  AUTOVAC_CHECK(program.ok());
  return std::move(program).value();
}

FastPathResult BenchFastPath() {
  // Phase-cost ticks legitimately differ between the two paths (the fast
  // path executes fewer VM instructions), so the byte-comparison below
  // requires the tracer off — the library default.
  GlobalTracer().set_enabled(false);
  std::vector<vm::Program> samples;
  for (int i = 0; i < 4; ++i) {
    samples.push_back(MultiTargetSample("fastpath" + std::to_string(i),
                                        /*num_targets=*/48,
                                        /*warmup_iterations=*/100000));
  }

  FastPathResult result;
  Counter* runs = GlobalMetrics().GetCounter("pipeline.mutation_runs");

  // Both pipelines get the same raised caps so they mutate all 49
  // targets; only the replay strategy differs.
  vaccine::PipelineOptions legacy_options;
  legacy_options.snapshot_replay = false;
  legacy_options.max_targets = 64;
  vaccine::VaccinePipeline legacy(/*index=*/nullptr, legacy_options);

  // Untimed warm-up pass: fault in pages and allocator arenas so both
  // timed passes run steady-state.
  (void)legacy.Analyze(samples.front());

  const uint64_t runs_before = runs->value();
  const auto legacy_start = Clock::now();
  std::vector<std::string> legacy_reports;
  for (const vm::Program& sample : samples) {
    legacy_reports.push_back(
        vaccine::SampleReportToJson(legacy.Analyze(sample)));
  }
  result.legacy_ms = MillisSince(legacy_start);
  result.mutation_runs = runs->value() - runs_before;

  vaccine::PipelineOptions fast_options;  // snapshot replay on by default
  fast_options.max_targets = 64;
  fast_options.snapshot_cap = 128;
  vaccine::VaccinePipeline fast(/*index=*/nullptr, fast_options);
  const auto fast_start = Clock::now();
  std::vector<std::string> fast_reports;
  for (const vm::Program& sample : samples) {
    fast_reports.push_back(vaccine::SampleReportToJson(fast.Analyze(sample)));
  }
  result.fast_ms = MillisSince(fast_start);
  AUTOVAC_CHECK_MSG(fast_reports == legacy_reports,
                    "fast path diverged from legacy reports");
  result.speedup =
      result.fast_ms > 0 ? result.legacy_ms / result.fast_ms : 0;
  return result;
}

// Snapshot replay on vs off over the real corpus samples: short
// prefixes and few mutable triples per sample, the shape the crafted
// samples above do not have. Only Analyze is timed; the order alternates
// per sample so neither side always runs second on a warm cache.
struct CorpusReplayResult {
  double on_ms = 0;
  double off_ms = 0;
  double ratio = 0;  // off / on: above 1 means replay pays
};

CorpusReplayResult BenchCorpusReplay(
    const analysis::ExclusivenessIndex& index,
    const std::vector<malware::CorpusSample>& corpus) {
  // Phase ticks differ between the two paths; see BenchFastPath.
  GlobalTracer().set_enabled(false);
  vaccine::PipelineOptions off_options;
  off_options.snapshot_replay = false;
  const vaccine::VaccinePipeline on(&index);
  const vaccine::VaccinePipeline off(&index, off_options);

  CorpusReplayResult result;
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string reports[2];  // [0] replay on, [1] replay off
    for (size_t k = 0; k < 2; ++k) {
      const bool replay = (i + k) % 2 == 0;
      const auto start = Clock::now();
      vaccine::SampleReport report =
          (replay ? on : off).Analyze(corpus[i].program);
      (replay ? result.on_ms : result.off_ms) += MillisSince(start);
      reports[replay ? 0 : 1] = vaccine::SampleReportToJson(report);
    }
    AUTOVAC_CHECK_MSG(reports[0] == reports[1],
                      "snapshot replay changed a corpus report");
  }
  result.ratio = result.on_ms > 0 ? result.off_ms / result.on_ms : 0;
  return result;
}

// Machine-readable sibling of the printed report: per-phase span counts,
// instruction ticks (deterministic) and wall times (informational), plus
// the full metrics snapshot. Path override: AUTOVAC_BENCH_OUT.
void WriteBenchJson(size_t samples, const std::vector<PhaseTotal>& phases,
                    const FastPathResult& fastpath,
                    const CorpusReplayResult& corpus_replay) {
  const char* env_path = std::getenv("AUTOVAC_BENCH_OUT");
  const std::string path =
      env_path != nullptr ? env_path : "BENCH_pipeline.json";
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"bench\":\"pipeline\",\"samples\":" << samples
      << ",\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseTotal& phase = phases[i];
    if (i > 0) out << ",";
    out << "{\"phase\":\"" << JsonEscape(phase.name)
        << "\",\"spans\":" << phase.spans
        << ",\"instructions\":" << phase.ticks << ",\"wall_ms\":"
        << StrFormat("%.3f",
                     static_cast<double>(phase.wall_ns) / 1e6)
        << "}";
  }
  out << "],\"fastpath\":{\"legacy_ms\":"
      << StrFormat("%.3f", fastpath.legacy_ms)
      << ",\"fast_ms\":" << StrFormat("%.3f", fastpath.fast_ms)
      << ",\"speedup\":" << StrFormat("%.2f", fastpath.speedup)
      << ",\"mutation_runs\":" << fastpath.mutation_runs << "}";
  out << ",\"corpus_replay\":{\"on_ms\":"
      << StrFormat("%.3f", corpus_replay.on_ms)
      << ",\"off_ms\":" << StrFormat("%.3f", corpus_replay.off_ms)
      << ",\"ratio\":" << StrFormat("%.2f", corpus_replay.ratio) << "}";
  out << ",\"metrics\":[";
  const std::string jsonl = ExportMetricsJsonl(GlobalMetrics().Snapshot());
  bool first = true;
  size_t pos = 0;
  while (pos < jsonl.size()) {
    size_t eol = jsonl.find('\n', pos);
    if (eol == std::string::npos) eol = jsonl.size();
    if (eol > pos) {
      if (!first) out << ",";
      first = false;
      out << jsonl.substr(pos, eol - pos);
    }
    pos = eol + 1;
  }
  out << "]}\n";
  std::printf("bench telemetry written to %s\n", path.c_str());
}

}  // namespace

int main() {
  const size_t total = std::min<size_t>(bench::CorpusSizeFromEnv(), 500);
  auto index = bench::BuildBenignIndex();

  malware::CorpusOptions options;
  options.total = total;
  auto corpus = malware::GenerateCorpus(options);
  AUTOVAC_CHECK(corpus.ok());

  GlobalMetrics().Reset();
  GlobalTracer().Clear();
  GlobalTracer().set_enabled(true);

  vaccine::VaccinePipeline pipeline(&index);

  double total_ms = 0;
  double max_ms = 0;
  double min_ms = 1e18;
  size_t slices = 0;
  double slice_ms = 0;
  double max_slice_ms = 0;
  double min_slice_ms = 1e18;

  for (const malware::CorpusSample& sample : corpus.value()) {
    const auto start = Clock::now();
    auto report = pipeline.Analyze(sample.program);
    const double elapsed = MillisSince(start);
    total_ms += elapsed;
    max_ms = std::max(max_ms, elapsed);
    min_ms = std::min(min_ms, elapsed);

    // Re-time the backward slicing step in isolation for every
    // algorithm-deterministic vaccine (the paper reports it separately:
    // 214 s average, 30-530 s range on their testbed).
    os::HostEnvironment env = pipeline.BaselineMachine();
    sandbox::RunOptions run_options;
    run_options.record_instructions = true;
    auto phase1 = sandbox::RunProgram(sample.program, env, run_options);
    for (const vaccine::Vaccine& v : report.vaccines) {
      if (v.identifier_kind !=
          analysis::IdentifierClass::kAlgorithmDeterministic) {
        continue;
      }
      for (const trace::ApiCallRecord& call : phase1.api_trace.calls) {
        if (call.resource_identifier != v.identifier ||
            call.identifier_addr == 0) {
          continue;
        }
        const auto slice_start = Clock::now();
        auto result = analysis::AnalyzeIdentifier(phase1.instruction_trace,
                                                  phase1.api_trace,
                                                  call.sequence);
        const double slice_elapsed = MillisSince(slice_start);
        if (result.ok()) {
          ++slices;
          slice_ms += slice_elapsed;
          max_slice_ms = std::max(max_slice_ms, slice_elapsed);
          min_slice_ms = std::min(min_slice_ms, slice_elapsed);
        }
        break;
      }
    }
  }

  std::printf("== §VI-F.1: vaccine generation overhead ==\n");
  std::printf("samples analyzed:             %zu\n", corpus->size());
  std::printf("full analysis per sample:     avg %.2f ms (min %.2f, max "
              "%.2f)\n", total_ms / static_cast<double>(corpus->size()),
              min_ms, max_ms);
  std::printf("  (paper: 789 s per sample on their testbed — trace parsing, "
              "identifier\n   extraction, search-engine filtering)\n");
  if (slices > 0) {
    std::printf("backward slicing per identifier: avg %.2f ms over %zu "
                "identifiers (min %.2f, max %.2f)\n",
                slice_ms / static_cast<double>(slices), slices, min_slice_ms,
                max_slice_ms);
  }
  std::printf("  (paper: 214 s average per identifier; 30 s shortest, 530 s "
              "longest)\n");
  std::printf("impact analysis: one mutated re-run + trace alignment per "
              "candidate\n  (paper: 2-3 minutes per case, ~24 h for 500 "
              "cases)\n");

  const std::vector<PhaseTotal> phases = GlobalTracer().PhaseTotals();
  if (!phases.empty()) {
    std::printf("\nanalysis cost by phase:\n");
    for (const PhaseTotal& phase : phases) {
      std::printf("  %-14s %6llu spans  %12llu instructions  %10.2f ms\n",
                  phase.name.c_str(),
                  static_cast<unsigned long long>(phase.spans),
                  static_cast<unsigned long long>(phase.ticks),
                  static_cast<double>(phase.wall_ns) / 1e6);
    }
  }

  const FastPathResult fastpath = BenchFastPath();
  std::printf("\n== snapshot-replay fast path (multi-target samples) ==\n");
  std::printf("legacy full re-runs:          %.2f ms (%llu mutation runs)\n",
              fastpath.legacy_ms,
              static_cast<unsigned long long>(fastpath.mutation_runs));
  std::printf("snapshot replay:              %.2f ms\n", fastpath.fast_ms);
  std::printf("speedup:                      %.2fx (reports byte-identical)"
              "\n", fastpath.speedup);

  const CorpusReplayResult corpus_replay =
      BenchCorpusReplay(index, corpus.value());
  std::printf("\n== snapshot replay on the real corpus (%zu samples) ==\n",
              corpus->size());
  std::printf("replay off:                   %.2f ms\n",
              corpus_replay.off_ms);
  std::printf("replay on:                    %.2f ms\n", corpus_replay.on_ms);
  std::printf("off/on:                       %.2fx (reports byte-identical)"
              "\n", corpus_replay.ratio);

  WriteBenchJson(corpus->size(), phases, fastpath, corpus_replay);
  return 0;
}
