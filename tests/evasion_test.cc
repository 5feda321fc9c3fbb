// Adversarial-corpus coverage: strict class parsing, seeded corpus
// determinism, per-class runtime behaviour (stalling budget burn,
// environment probes, runtime unpacking with the write-then-execute
// signal, vaccine-aware derivation chains), the pipeline's evasion-class
// tag plumbing, and byte-identity of reports for self-modifying samples
// across the snapshot fast path, legacy replay, forked workers and
// journal resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/supervisor.h"
#include "evasion/classes.h"
#include "evasion/corpus.h"
#include "evasion/generators.h"
#include "evasion/payload.h"
#include "malware/asm_writer.h"
#include "malware/behaviors.h"
#include "sandbox/kernel.h"
#include "sandbox/sandbox.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "vaccine/json.h"
#include "vaccine/pipeline.h"

namespace autovac {
namespace {

using evasion::EvasionClass;

// ---- class names -----------------------------------------------------

TEST(EvasionClasses, NamesRoundTrip) {
  for (EvasionClass cls : evasion::AllEvasionClasses()) {
    auto parsed = evasion::ParseEvasionClass(evasion::EvasionClassName(cls));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, cls);
  }
}

TEST(EvasionClasses, UnknownNamesRejected) {
  EXPECT_FALSE(evasion::ParseEvasionClass("").has_value());
  EXPECT_FALSE(evasion::ParseEvasionClass("stallin").has_value());
  EXPECT_FALSE(evasion::ParseEvasionClass("Stalling").has_value());
  EXPECT_FALSE(evasion::ParseEvasionClass("unpack").has_value());
}

// ---- packing schemes -------------------------------------------------

TEST(Payload, PackSchemesAreInvertible) {
  std::vector<uint8_t> plain;
  for (int i = 0; i < 300; ++i) plain.push_back(static_cast<uint8_t>(i * 7));
  for (const auto scheme :
       {evasion::PackScheme::kXor, evasion::PackScheme::kAddRolling}) {
    const auto packed = evasion::Pack(plain, scheme, 0x5A);
    ASSERT_EQ(packed.size(), plain.size());
    EXPECT_NE(packed, plain);
    // Unpack exactly as the emitted stub does.
    std::vector<uint8_t> unpacked(packed.size());
    for (size_t i = 0; i < packed.size(); ++i) {
      unpacked[i] = scheme == evasion::PackScheme::kXor
                        ? static_cast<uint8_t>(packed[i] ^ 0x5A)
                        : static_cast<uint8_t>(
                              (packed[i] - (0x5A + i)) & 0xFF);
    }
    EXPECT_EQ(unpacked, plain);
  }
}

// ---- corpus determinism ----------------------------------------------

TEST(EvasiveCorpus, SameSeedIsByteIdentical) {
  evasion::EvasiveCorpusOptions options;
  options.seed = 99;
  options.per_class = 2;
  auto first = evasion::GenerateEvasiveCorpus(options);
  auto second = evasion::GenerateEvasiveCorpus(options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  ASSERT_EQ(first->size(), 2 * evasion::kNumEvasionClasses);
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].source, (*second)[i].source);
    EXPECT_EQ((*first)[i].program.Digest(), (*second)[i].program.Digest());
  }

  options.seed = 100;
  auto reseeded = evasion::GenerateEvasiveCorpus(options);
  ASSERT_TRUE(reseeded.ok());
  EXPECT_NE((*first)[0].source, (*reseeded)[0].source);
}

TEST(EvasiveCorpus, ClassSubsetReproducesFullRunSamples) {
  evasion::EvasiveCorpusOptions full;
  full.seed = 7;
  full.per_class = 2;
  auto all = evasion::GenerateEvasiveCorpus(full);
  ASSERT_TRUE(all.ok());

  evasion::EvasiveCorpusOptions subset = full;
  subset.classes = {EvasionClass::kRuntimeUnpack};
  auto only_unpack = evasion::GenerateEvasiveCorpus(subset);
  ASSERT_TRUE(only_unpack.ok());
  ASSERT_EQ(only_unpack->size(), 2u);
  size_t matched = 0;
  for (const evasion::EvasiveSample& sample : all.value()) {
    if (sample.cls != EvasionClass::kRuntimeUnpack) continue;
    EXPECT_EQ(sample.source, (*only_unpack)[matched].source);
    ++matched;
  }
  EXPECT_EQ(matched, 2u);
}

TEST(EvasiveCorpus, SourcesReassembleToSamePrograms) {
  evasion::EvasiveCorpusOptions options;
  options.seed = 3;
  options.per_class = 1;
  auto corpus = evasion::GenerateEvasiveCorpus(options);
  ASSERT_TRUE(corpus.ok());
  for (const evasion::EvasiveSample& sample : corpus.value()) {
    auto reassembled = sandbox::AssembleForSandbox(sample.source);
    ASSERT_TRUE(reassembled.ok()) << reassembled.status().ToString();
    EXPECT_EQ(reassembled->Digest(), sample.program.Digest());
    EXPECT_EQ(reassembled->evasion_class,
              std::string(evasion::EvasionClassName(sample.cls)));
  }
}

// ---- runtime behaviour -----------------------------------------------

std::vector<std::string> MutexCreations(const trace::ApiTrace& trace) {
  std::vector<std::string> names;
  for (const trace::ApiCallRecord& call : trace.calls) {
    if (call.api_name == "CreateMutexA") {
      names.push_back(call.resource_identifier);
    }
  }
  return names;
}

TEST(EvasionBehaviour, RuntimeUnpackFiresSmcAndCreatesDecryptedMutex) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto sample = evasion::GenerateEvasiveSample(
        EvasionClass::kRuntimeUnpack, seed, "unpack_smoke");
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    // The mutex name must not appear in the packed image: a static scan
    // of the data blobs sees only ciphertext.
    std::string image;
    for (const vm::DataBlob& blob : sample->program.data) image += blob.bytes;

    Counter* smc = GlobalMetrics().GetCounter("vm.smc_regions");
    const uint64_t before = smc->value();
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    auto run = sandbox::RunProgram(sample->program, env, {});
    EXPECT_GE(smc->value(), before + 1)
        << "write-then-execute signal missing for seed " << seed;

    const std::vector<std::string> created = MutexCreations(run.api_trace);
    ASSERT_EQ(created.size(), 1u) << "seed " << seed;
    EXPECT_EQ(created[0].rfind("EVA_", 0), 0u);
    EXPECT_EQ(image.find(created[0]), std::string::npos)
        << "mutex name stored in cleartext for seed " << seed;
  }
}

TEST(EvasionBehaviour, StallingDelaysThePayloadPastSmallBudgets) {
  auto sample = evasion::GenerateEvasiveSample(EvasionClass::kStalling, 11,
                                               "stall_smoke");
  ASSERT_TRUE(sample.ok());

  // Under a 10-virtual-second budget the sample is still sleeping: the
  // marker never runs (total stall is at least 20s for every seed).
  {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    sandbox::RunOptions options;
    options.cycle_budget = 10'000 * sandbox::kCyclesPerMilli;
    auto run = sandbox::RunProgram(sample->program, env, options);
    EXPECT_EQ(run.stop_reason, vm::StopReason::kBudgetExhausted);
    EXPECT_TRUE(MutexCreations(run.api_trace).empty());
  }
  // Given 150 virtual seconds (above the 110s stall ceiling) the clock
  // checks pass and the marker lands.
  {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    sandbox::RunOptions options;
    options.cycle_budget = 150'000 * sandbox::kCyclesPerMilli;
    auto run = sandbox::RunProgram(sample->program, env, options);
    EXPECT_EQ(MutexCreations(run.api_trace).size(), 1u);
  }
}

TEST(EvasionBehaviour, EnvironmentProbesPassOnTheAnalysisMachine) {
  // The standard machine carries none of the probed artifacts, so the
  // sample concludes it is on a victim and drops its marker.
  auto sample = evasion::GenerateEvasiveSample(EvasionClass::kEnvProbe, 5,
                                               "probe_smoke");
  ASSERT_TRUE(sample.ok());
  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  auto run = sandbox::RunProgram(sample->program, env, {});
  EXPECT_EQ(MutexCreations(run.api_trace).size(), 1u);
}

TEST(EvasionBehaviour, VaccineAwareChainFallsThroughToNextName) {
  malware::AsmWriter w("chain_smoke");
  const std::string exit_label = w.NewLabel("bail");
  evasion::EmitVaccineAwareMarker(w, "EVA_chain", 3, exit_label);
  w.Text("hlt");
  malware::EmitEpilogue(w, exit_label);
  auto program = w.Assemble();
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  const std::string first = evasion::DeriveChainName("EVA_chain", 0);
  const std::string second = evasion::DeriveChainName("EVA_chain", 1);
  EXPECT_NE(first, second);

  // Clean machine: the first derived name is claimed.
  {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    auto run = sandbox::RunProgram(program.value(), env, {});
    EXPECT_EQ(MutexCreations(run.api_trace),
              std::vector<std::string>{first});
  }
  // "Vaccinated" machine (the first name exists as an object): the probe
  // sees it taken and the sample re-derives the next link instead.
  {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    env.ns().InjectVaccineMutex(first);
    auto run = sandbox::RunProgram(program.value(), env, {});
    EXPECT_EQ(MutexCreations(run.api_trace),
              std::vector<std::string>{second});
  }
  // Whole chain vaccinated: the sample accepts "already infected" and
  // never places a marker.
  {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    for (uint32_t i = 0; i < 3; ++i) {
      env.ns().InjectVaccineMutex(evasion::DeriveChainName("EVA_chain", i));
    }
    auto run = sandbox::RunProgram(program.value(), env, {});
    EXPECT_TRUE(MutexCreations(run.api_trace).empty());
  }
}

// ---- pipeline integration --------------------------------------------

// Execution envelope sized for multi-run tests; phase-1 and impact
// budgets stay equal so the snapshot fast path remains armed.
vaccine::PipelineOptions FastOptions() {
  vaccine::PipelineOptions options;
  options.phase1_budget = 300'000;
  options.impact.cycle_budget = 300'000;
  options.max_targets = 3;
  options.limits.max_api_calls = 400;
  options.limits.max_api_records = 300;
  options.limits.max_instruction_records = 60'000;
  return options;
}

TEST(EvasionPipeline, ReportCarriesTheEvasionClassTag) {
  auto sample = evasion::GenerateEvasiveSample(
      EvasionClass::kRuntimeUnpack, 21, "tagged");
  ASSERT_TRUE(sample.ok());
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
  vaccine::SampleReport report = pipeline.Analyze(sample->program);
  EXPECT_EQ(report.evasion_class, "runtime-unpack");

  // The tag survives the journal round trip and old journals (without
  // the field) still parse.
  const std::string json = vaccine::SampleReportToJson(report);
  auto parsed_json = ParseJson(json);
  ASSERT_TRUE(parsed_json.ok()) << parsed_json.status().ToString();
  auto round_tripped = vaccine::SampleReportFromJson(parsed_json.value());
  ASSERT_TRUE(round_tripped.ok()) << round_tripped.status().ToString();
  EXPECT_EQ(round_tripped->evasion_class, "runtime-unpack");
  EXPECT_EQ(vaccine::SampleReportToJson(round_tripped.value()), json);
}

TEST(EvasionPipeline, UnpackedIdentifierYieldsAVaccine) {
  // The decrypted marker name is static (same bytes every run), so
  // Phase-II must classify it and extract a direct-injection vaccine.
  auto sample = evasion::GenerateEvasiveSample(
      EvasionClass::kRuntimeUnpack, 31, "unpack_vax");
  ASSERT_TRUE(sample.ok());
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
  vaccine::SampleReport report = pipeline.Analyze(sample->program);
  EXPECT_TRUE(report.resource_sensitive);
  ASSERT_FALSE(report.vaccines.empty());
  EXPECT_EQ(report.vaccines[0].resource_type, os::ResourceType::kMutex);
  EXPECT_EQ(report.vaccines[0].identifier.rfind("EVA_", 0), 0u);
}

TEST(EvasionPipeline, SelfModifyingReportsAreByteIdenticalAcrossModes) {
  // The acceptance gate: the snapshot fast path and legacy full replay
  // must agree byte-for-byte on SMC samples.
  auto sample = evasion::GenerateEvasiveSample(
      EvasionClass::kRuntimeUnpack, 41, "unpack_modes");
  ASSERT_TRUE(sample.ok());

  vaccine::PipelineOptions fast = FastOptions();
  vaccine::PipelineOptions legacy = FastOptions();
  legacy.snapshot_replay = false;

  const std::string fast_json = vaccine::SampleReportToJson(
      vaccine::VaccinePipeline(nullptr, fast).Analyze(sample->program));
  const std::string legacy_json = vaccine::SampleReportToJson(
      vaccine::VaccinePipeline(nullptr, legacy).Analyze(sample->program));
  EXPECT_EQ(fast_json, legacy_json);
}

class ScratchFile {
 public:
  explicit ScratchFile(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(EvasionPipeline, CampaignIsByteIdenticalAcrossJobsAndResume) {
  // One evasive sample per class (the runtime-unpack one self-modifies)
  // through the durable campaign: in-process, forked --jobs workers and
  // an interrupted+resumed run must all render the same report bytes.
  evasion::EvasiveCorpusOptions options;
  options.seed = 2013;
  options.per_class = 1;
  auto corpus = evasion::GenerateEvasiveCorpus(options);
  ASSERT_TRUE(corpus.ok());
  std::vector<vm::Program> wave;
  for (const evasion::EvasiveSample& sample : corpus.value()) {
    wave.push_back(sample.program);
  }

  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
  auto in_process = campaign::RunDurableCampaign(pipeline, wave);
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  const std::string expected =
      vaccine::CampaignReportToJson(in_process->report);
  // Every class tag made it into the merged report.
  for (const evasion::EvasiveSample& sample : corpus.value()) {
    EXPECT_NE(expected.find(evasion::EvasionClassName(sample.cls)),
              std::string::npos);
  }

  campaign::CampaignOptions forked;
  forked.jobs = 3;
  auto workers = campaign::RunDurableCampaign(pipeline, wave, forked);
  ASSERT_TRUE(workers.ok()) << workers.status().ToString();
  EXPECT_EQ(vaccine::CampaignReportToJson(workers->report), expected);

  ScratchFile journal("evasion_campaign_resume.journal");
  campaign::CampaignOptions first;
  first.journal_path = journal.path();
  first.stop_after = 2;
  auto interrupted = campaign::RunDurableCampaign(pipeline, wave, first);
  ASSERT_TRUE(interrupted.ok());
  ASSERT_TRUE(interrupted->stats.interrupted);

  campaign::CampaignOptions second;
  second.journal_path = journal.path();
  second.resume = true;
  auto resumed = campaign::RunDurableCampaign(pipeline, wave, second);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(vaccine::CampaignReportToJson(resumed->report), expected);
}

}  // namespace
}  // namespace autovac
