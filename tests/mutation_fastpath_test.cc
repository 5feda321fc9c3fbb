// Equivalence suite for the Phase-II mutation fast path: for every
// shipped sample, every chaos seed, and every thread count, the
// snapshot-replay pipeline must produce a SampleReport byte-identical to
// the legacy full-re-run pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "evasion/corpus.h"
#include "malware/benign.h"
#include "malware/corpus.h"
#include "sandbox/sandbox.h"
#include "support/metrics.h"
#include "trace/serialize.h"
#include "vaccine/json.h"
#include "vaccine/pipeline.h"

namespace autovac {
namespace {

std::vector<vm::Program> LoadShippedSamples() {
  std::vector<vm::Program> programs;
  const std::filesystem::path dir = AUTOVAC_SAMPLES_DIR;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".asm") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto program = sandbox::AssembleForSandbox(buffer.str());
    EXPECT_TRUE(program.ok()) << path << ": " << program.status().ToString();
    if (program.ok()) programs.push_back(std::move(program).value());
  }
  return programs;
}

// A sample with one cheap infection marker and `num_targets` distinct
// failing file opens — many mutation targets behind a long warmup loop,
// the shape where snapshot replay pays off and where a skewed fan-out
// (one expensive sample among trivial ones) stresses the merge order.
vm::Program SkewedSample(const std::string& name, size_t num_targets,
                         size_t warmup_iterations) {
  std::ostringstream rdata;
  std::ostringstream text;
  rdata << ".name " << name << "\n.rdata\n";
  rdata << "  string mtx \"" << name << "-marker\"\n";
  rdata << "  string drop \"C:\\\\Windows\\\\system32\\\\" << name
        << ".sys\"\n";
  for (size_t i = 0; i < num_targets; ++i) {
    rdata << "  string f" << i << " \"C:\\\\missing\\\\" << name << "-" << i
          << "\"\n";
  }
  text << ".text\n";
  // Warmup loop: pure compute prefix every legacy mutation re-run pays.
  text << "  mov ecx, " << warmup_iterations << "\n";
  text << "warmup:\n";
  text << "  add ebx, ecx\n";
  text << "  dec ecx\n";
  text << "  cmp ecx, 0\n";
  text << "  jnz warmup\n";
  // Infection marker: the tainted predicate that makes the sample
  // resource-sensitive.
  text << "  push mtx\n  push 1\n  sys CreateMutexA\n  add esp, 8\n";
  text << "  sys GetLastError\n  cmp eax, 183\n  jz done\n";
  // Payload dropped only on fresh machines: the behavioral delta that
  // makes the marker mutation an impactful vaccine.
  text << "  push 2\n  push drop\n  sys CreateFileA\n  add esp, 8\n";
  for (size_t i = 0; i < num_targets; ++i) {
    text << "  push 3\n  push f" << i << "\n  sys CreateFileA\n"
         << "  add esp, 8\n";
  }
  text << "done:\n  push 0\n  sys ExitProcess\n";
  auto program = sandbox::AssembleForSandbox(rdata.str() + text.str());
  AUTOVAC_CHECK(program.ok());
  return std::move(program).value();
}

std::string AnalyzeToJson(const vm::Program& sample,
                          const vaccine::PipelineOptions& options) {
  vaccine::VaccinePipeline pipeline(/*index=*/nullptr, options);
  return vaccine::SampleReportToJson(pipeline.Analyze(sample));
}

vaccine::PipelineOptions LegacyOptions() {
  vaccine::PipelineOptions options;
  options.snapshot_replay = false;
  return options;
}

TEST(MutationFastPath, ShippedSamplesByteIdentical) {
  for (const vm::Program& sample : LoadShippedSamples()) {
    SCOPED_TRACE(sample.name);
    const std::string legacy = AnalyzeToJson(sample, LegacyOptions());
    vaccine::PipelineOptions fast;
    fast.snapshot_replay = true;
    EXPECT_EQ(legacy, AnalyzeToJson(sample, fast));
  }
}

TEST(MutationFastPath, ChaosSeedsByteIdentical) {
  const std::vector<vm::Program> samples = LoadShippedSamples();
  for (uint64_t seed : {1u, 42u, 977u}) {
    const sandbox::FaultPlan plan =
        sandbox::FaultPlan::Randomized(seed, /*fault_rate=*/0.1);
    for (const vm::Program& sample : samples) {
      SCOPED_TRACE(sample.name + " seed " + std::to_string(seed));
      vaccine::PipelineOptions legacy_options = LegacyOptions();
      legacy_options.fault_plan = &plan;
      vaccine::PipelineOptions fast_options;
      fast_options.fault_plan = &plan;
      EXPECT_EQ(AnalyzeToJson(sample, legacy_options),
                AnalyzeToJson(sample, fast_options));
    }
  }
}

TEST(MutationFastPath, ThreadCountsByteIdentical) {
  const vm::Program skewed = SkewedSample("threads", /*num_targets=*/6,
                                          /*warmup_iterations=*/2000);
  const std::string legacy = AnalyzeToJson(skewed, LegacyOptions());
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    vaccine::PipelineOptions fast;
    fast.mutation_threads = threads;
    EXPECT_EQ(legacy, AnalyzeToJson(skewed, fast));

    // Parallelism composes with the legacy path too: the fan-out must be
    // byte-identical whether or not runs ride snapshots.
    vaccine::PipelineOptions threaded_legacy = LegacyOptions();
    threaded_legacy.mutation_threads = threads;
    EXPECT_EQ(legacy, AnalyzeToJson(skewed, threaded_legacy));
  }
}

TEST(MutationFastPath, SnapshotCapFallbackStaysIdentical) {
  const vm::Program skewed = SkewedSample("capped", /*num_targets=*/6,
                                          /*warmup_iterations=*/500);
  const std::string legacy = AnalyzeToJson(skewed, LegacyOptions());
  // A cap smaller than the target count forces per-target fallback to
  // full re-runs for the overflowed triples.
  vaccine::PipelineOptions capped;
  capped.snapshot_cap = 2;
  EXPECT_EQ(legacy, AnalyzeToJson(skewed, capped));
}

TEST(MutationFastPath, SkewedCampaignByteIdentical) {
  // One expensive multi-target sample among trivial ones: the worst case
  // for naive work division, and the shape the deterministic merge must
  // keep stable.
  std::vector<vm::Program> corpus;
  corpus.push_back(SkewedSample("heavy", /*num_targets=*/8,
                                /*warmup_iterations=*/3000));
  for (int i = 0; i < 4; ++i) {
    corpus.push_back(SkewedSample("light" + std::to_string(i),
                                  /*num_targets=*/1,
                                  /*warmup_iterations=*/10));
  }

  vaccine::VaccinePipeline legacy_pipeline(/*index=*/nullptr,
                                           LegacyOptions());
  const std::string legacy = vaccine::CampaignReportToJson(
      vaccine::AnalyzeCampaign(legacy_pipeline, corpus));

  vaccine::PipelineOptions fast;
  fast.mutation_threads = 8;
  vaccine::VaccinePipeline fast_pipeline(/*index=*/nullptr, fast);
  EXPECT_EQ(legacy, vaccine::CampaignReportToJson(
                        vaccine::AnalyzeCampaign(fast_pipeline, corpus)));
}

TEST(MutationFastPath, ResumesActuallyHappen) {
  Counter* resumes = GlobalMetrics().GetCounter("snapshot.resumes");
  Counter* fallbacks =
      GlobalMetrics().GetCounter("snapshot.fallback_full_runs");
  const uint64_t resumes_before = resumes->value();
  const uint64_t fallbacks_before = fallbacks->value();

  const vm::Program skewed = SkewedSample("counted", /*num_targets=*/4,
                                          /*warmup_iterations=*/100);
  vaccine::PipelineOptions fast;
  vaccine::VaccinePipeline pipeline(/*index=*/nullptr, fast);
  auto report = pipeline.Analyze(skewed);
  EXPECT_FALSE(report.vaccines.empty());

  // The fast path must actually ride snapshots, not silently fall back.
  EXPECT_GT(resumes->value(), resumes_before);
  EXPECT_EQ(fallbacks->value(), fallbacks_before);
}

// The exclusiveness filter selects which triples phase-1 captures, so the
// equivalence must also hold against a real index: a seeded Table II
// slice plus two samples per evasion class, analyzed against the
// benign-corpus index.
TEST(MutationFastPath, RealCorpusSliceWithIndexByteIdentical) {
  analysis::ExclusivenessIndex index;
  auto benign = malware::BuildBenignCorpus();
  ASSERT_TRUE(benign.ok()) << benign.status().ToString();
  for (const vm::Program& program : benign.value()) {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    sandbox::RunOptions options;
    options.enable_taint = false;
    index.IndexBenignTrace(program.name,
                           sandbox::RunProgram(program, env, options)
                               .api_trace);
  }

  std::vector<vm::Program> samples;
  malware::CorpusOptions corpus_options;
  corpus_options.seed = 2013;
  corpus_options.total = 48;
  auto corpus = malware::GenerateCorpus(corpus_options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  for (malware::CorpusSample& sample : corpus.value()) {
    samples.push_back(std::move(sample.program));
  }
  evasion::EvasiveCorpusOptions evasive_options;
  evasive_options.per_class = 2;
  auto evasive = evasion::GenerateEvasiveCorpus(evasive_options);
  ASSERT_TRUE(evasive.ok()) << evasive.status().ToString();
  for (evasion::EvasiveSample& sample : evasive.value()) {
    samples.push_back(std::move(sample.program));
  }

  const vaccine::PipelineOptions fast;
  vaccine::PipelineOptions threaded;
  threaded.mutation_threads = 4;
  const vaccine::VaccinePipeline legacy_pipeline(&index, LegacyOptions());
  const vaccine::VaccinePipeline fast_pipeline(&index, fast);
  const vaccine::VaccinePipeline threaded_pipeline(&index, threaded);

  Counter* captures = GlobalMetrics().GetCounter("snapshot.captures");
  Counter* fallbacks =
      GlobalMetrics().GetCounter("snapshot.fallback_full_runs");
  const uint64_t fallbacks_before = fallbacks->value();
  size_t eligible_triples = 0;
  size_t resource_triples = 0;
  size_t vaccines = 0;
  for (const vm::Program& sample : samples) {
    SCOPED_TRACE(sample.name);
    const uint64_t captures_before = captures->value();
    const vaccine::SampleReport report = fast_pipeline.Analyze(sample);
    const uint64_t captured = captures->value() - captures_before;
    vaccines += report.vaccines.size();

    // The natural trace, from the test's own phase-1 run: the one the
    // report summarizes.
    os::HostEnvironment env = fast_pipeline.BaselineMachine();
    const sandbox::RunResult phase1 = sandbox::RunProgram(
        sample, env, fast_pipeline.Phase1RunOptions());
    ASSERT_EQ(trace::SummarizeApiTrace(phase1.api_trace).DigestHex(),
              report.natural_trace.DigestHex());

    // Every capture is of a triple Phase-II may mutate: exactly the
    // distinct resource triples with an exclusive identifier.
    std::set<std::tuple<std::string, uint32_t, std::string>> all;
    std::set<std::tuple<std::string, uint32_t, std::string>> eligible;
    for (const trace::ApiCallRecord& call : phase1.api_trace.calls) {
      if (!call.is_resource_api) continue;
      const auto triple = std::make_tuple(call.api_name, call.caller_pc,
                                          call.resource_identifier);
      all.insert(triple);
      if (index.IsExclusive(call.resource_identifier)) {
        eligible.insert(triple);
      }
    }
    EXPECT_EQ(captured, std::min(eligible.size(), fast.snapshot_cap));
    eligible_triples += eligible.size();
    resource_triples += all.size();

    const std::string expected = vaccine::SampleReportToJson(report);
    EXPECT_EQ(expected, vaccine::SampleReportToJson(
                            legacy_pipeline.Analyze(sample)));
    EXPECT_EQ(expected, vaccine::SampleReportToJson(
                            threaded_pipeline.Analyze(sample)));
  }
  // Every eligible target found its snapshot.
  EXPECT_EQ(fallbacks->value(), fallbacks_before);
  // The slice exercises both sides of the filter and yields vaccines.
  EXPECT_GT(eligible_triples, 0u);
  EXPECT_LT(eligible_triples, resource_triples);
  EXPECT_GT(vaccines, 0u);
}

TEST(MutationFastPath, MismatchedBudgetsDisableCapture) {
  Counter* captures = GlobalMetrics().GetCounter("snapshot.captures");
  const uint64_t captures_before = captures->value();

  const vm::Program skewed = SkewedSample("nobudget", /*num_targets=*/2,
                                          /*warmup_iterations=*/10);
  vaccine::PipelineOptions options;
  options.impact.cycle_budget = options.phase1_budget / 2;
  vaccine::VaccinePipeline pipeline(/*index=*/nullptr, options);
  const std::string fast = vaccine::SampleReportToJson(
      pipeline.Analyze(skewed));

  EXPECT_EQ(captures->value(), captures_before);

  vaccine::PipelineOptions legacy_options = LegacyOptions();
  legacy_options.impact.cycle_budget = options.impact.cycle_budget;
  vaccine::VaccinePipeline legacy_pipeline(/*index=*/nullptr, legacy_options);
  EXPECT_EQ(fast,
            vaccine::SampleReportToJson(legacy_pipeline.Analyze(skewed)));
}

}  // namespace
}  // namespace autovac
