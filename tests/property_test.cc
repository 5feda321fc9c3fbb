// Cross-corpus property tests: invariants that must hold for *any*
// generated sample, swept over corpus seeds with parameterized gtest.
#include <gtest/gtest.h>

#include "analysis/alignment.h"
#include "malware/corpus.h"
#include "vaccine/delivery.h"
#include "vaccine/pipeline.h"

namespace autovac {
namespace {

std::vector<malware::CorpusSample> SmallCorpus(uint64_t seed) {
  malware::CorpusOptions options;
  options.seed = seed;
  options.total = 30;
  auto corpus = malware::GenerateCorpus(options);
  AUTOVAC_CHECK(corpus.ok());
  return std::move(corpus).value();
}

class CorpusProperties : public ::testing::TestWithParam<uint64_t> {};

// Taint soundness: every predicate's label set resolves to valid resource
// API calls of the same run.
TEST_P(CorpusProperties, PredicateLabelsResolveToResourceCalls) {
  for (const auto& sample : SmallCorpus(GetParam())) {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    auto run = sandbox::RunProgram(sample.program, env, {});
    for (const taint::PredicateEvent& event : run.predicates) {
      for (uint32_t source_index : run.labels->Sources(event.labels)) {
        const taint::TaintSource& source = run.labels->Source(source_index);
        ASSERT_LT(source.api_sequence, run.api_trace.calls.size());
        const auto& call = run.api_trace.calls[source.api_sequence];
        EXPECT_TRUE(call.is_resource_api);
        EXPECT_EQ(call.api_name, source.api_name);
        EXPECT_EQ(call.resource_identifier, source.identifier);
      }
    }
  }
}

// Self-alignment: every trace aligns perfectly with itself.
TEST_P(CorpusProperties, TracesSelfAlign) {
  for (const auto& sample : SmallCorpus(GetParam())) {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    sandbox::RunOptions options;
    options.enable_taint = false;
    auto run = sandbox::RunProgram(sample.program, env, options);
    auto alignment = analysis::AlignTraces(run.api_trace, run.api_trace);
    EXPECT_EQ(alignment.matches.size(), run.api_trace.calls.size());
    EXPECT_TRUE(alignment.delta_natural.empty());
    EXPECT_TRUE(alignment.delta_mutated.empty());
  }
}

// Run determinism: identical machine snapshots produce identical traces
// (the property the impact analysis' occurrence matching relies on).
TEST_P(CorpusProperties, IdenticalSnapshotsReplayIdentically) {
  for (const auto& sample : SmallCorpus(GetParam())) {
    sandbox::RunOptions options;
    options.enable_taint = false;
    os::HostEnvironment env_a = os::HostEnvironment::StandardMachine();
    os::HostEnvironment env_b = os::HostEnvironment::StandardMachine();
    auto a = sandbox::RunProgram(sample.program, env_a, options);
    auto b = sandbox::RunProgram(sample.program, env_b, options);
    ASSERT_EQ(a.api_trace.calls.size(), b.api_trace.calls.size())
        << sample.program.name;
    for (size_t i = 0; i < a.api_trace.calls.size(); ++i) {
      EXPECT_EQ(a.api_trace.calls[i].api_name,
                b.api_trace.calls[i].api_name);
      EXPECT_EQ(a.api_trace.calls[i].resource_identifier,
                b.api_trace.calls[i].resource_identifier);
      EXPECT_EQ(a.api_trace.calls[i].succeeded,
                b.api_trace.calls[i].succeeded);
    }
  }
}

// Every algorithm-deterministic vaccine's slice regenerates the observed
// identifier on the analysis machine (the paper's replay correctness).
TEST_P(CorpusProperties, SlicesReplayExactlyOnAnalysisMachine) {
  vaccine::VaccinePipeline pipeline(nullptr);
  for (const auto& sample : SmallCorpus(GetParam())) {
    auto report = pipeline.Analyze(sample.program);
    for (const vaccine::Vaccine& v : report.vaccines) {
      if (!v.slice.has_value()) continue;
      os::HostEnvironment machine = pipeline.BaselineMachine();
      EXPECT_EQ(vaccine::VaccineDaemon::ReplaySlice(*v.slice, machine),
                v.identifier)
          << sample.program.name << ": " << v.Summary();
    }
  }
}

// Vaccines never collide with the standard machine's own inventory (a
// vaccine keyed on e.g. explorer.exe would be caught by exclusiveness,
// but even the unfiltered pipeline must not produce empty identifiers).
TEST_P(CorpusProperties, VaccineIdentifiersAreWellFormed) {
  vaccine::VaccinePipeline pipeline(nullptr);
  for (const auto& sample : SmallCorpus(GetParam())) {
    auto report = pipeline.Analyze(sample.program);
    for (const vaccine::Vaccine& v : report.vaccines) {
      EXPECT_FALSE(v.identifier.empty());
      EXPECT_NE(v.immunization, analysis::ImmunizationType::kNone);
      EXPECT_NE(v.identifier_kind,
                analysis::IdentifierClass::kNonDeterministic);
      if (v.identifier_kind == analysis::IdentifierClass::kPartialStatic) {
        // Patterns must match their own observed instance.
        EXPECT_TRUE(v.pattern.Matches(v.identifier)) << v.Summary();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusProperties,
                         ::testing::Values(7, 77, 777, 7777));

}  // namespace
}  // namespace autovac
