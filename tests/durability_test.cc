// Durable-campaign coverage: write-ahead journal mechanics (replay,
// torn-tail recovery, config binding), resume byte-identity, forked
// worker equivalence, retry backoff and quarantine policy. Everything
// here writes scratch files under the build directory (the ctest cwd)
// with per-test names, so parallel ctest shards never collide.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/journal.h"
#include "campaign/supervisor.h"
#include "campaign/worker.h"
#include "fleet/coordinator.h"
#include "malware/corpus.h"
#include "support/tracing.h"
#include "vaccine/json.h"
#include "vaccine/pipeline.h"

namespace autovac {
namespace {

// Deletes its file when the test ends, pass or fail.
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// Cheap execution envelope so multi-run campaigns stay fast.
vaccine::PipelineOptions FastOptions() {
  vaccine::PipelineOptions options;
  options.phase1_budget = 200'000;
  options.impact.cycle_budget = 200'000;
  options.max_targets = 3;
  options.limits.max_api_calls = 400;
  options.limits.max_api_records = 300;
  options.limits.max_instruction_records = 40'000;
  return options;
}

std::vector<vm::Program> SmallCorpus(uint64_t seed, size_t total) {
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

// ---------------------------------------------------------------------
// Journal mechanics
// ---------------------------------------------------------------------

TEST(Journal, CreateAppendLoadRoundTrips) {
  ScratchFile file("journal_roundtrip_test.jsonl");
  const std::vector<vm::Program> wave = SmallCorpus(11, 3);
  const campaign::JournalHeader header =
      campaign::MakeJournalHeader(FastOptions(), wave);

  auto journal = campaign::CampaignJournal::Create(file.path(), header);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
  const vaccine::SampleReport report =
      vaccine::AnalyzeIsolated(pipeline, wave[1]);
  ASSERT_TRUE(journal->Append(1, report).ok());

  auto replay = campaign::CampaignJournal::Load(file.path(), wave.size());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->header.config_digest, header.config_digest);
  EXPECT_EQ(replay->header.sample_names, header.sample_names);
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->completed, 1u);
  ASSERT_TRUE(replay->reports[1].has_value());
  EXPECT_FALSE(replay->reports[0].has_value());
  // The replayed report is byte-identical on the wire.
  EXPECT_EQ(vaccine::SampleReportToJson(*replay->reports[1]),
            vaccine::SampleReportToJson(report));
}

TEST(Journal, ConfigDigestSeesEveryKnob) {
  const std::vector<vm::Program> wave = SmallCorpus(12, 2);
  const std::string base = campaign::CampaignConfigDigest(FastOptions(), wave);
  vaccine::PipelineOptions changed = FastOptions();
  changed.phase1_budget /= 2;
  EXPECT_NE(campaign::CampaignConfigDigest(changed, wave), base);
  EXPECT_NE(campaign::CampaignConfigDigest(FastOptions(), wave, "faults"),
            base);
  const std::vector<vm::Program> shorter(wave.begin(), wave.end() - 1);
  EXPECT_NE(campaign::CampaignConfigDigest(FastOptions(), shorter), base);
}

TEST(Journal, TornTailIsDroppedAndMidCorruptionRefused) {
  ScratchFile file("journal_torn_test.jsonl");
  const std::vector<vm::Program> wave = SmallCorpus(13, 3);
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
  {
    auto journal = campaign::CampaignJournal::Create(
        file.path(), campaign::MakeJournalHeader(FastOptions(), wave));
    ASSERT_TRUE(journal.ok());
    for (size_t i = 0; i < wave.size(); ++i) {
      ASSERT_TRUE(
          journal->Append(i, vaccine::AnalyzeIsolated(pipeline, wave[i]))
              .ok());
    }
  }
  const std::string intact = ReadFile(file.path());

  // Cut the final record anywhere: the tail is dropped, the rest loads.
  const size_t last_line = intact.rfind('\n', intact.size() - 2) + 1;
  for (const size_t cut :
       {last_line + 1, last_line + 10, intact.size() - 2, intact.size() - 1}) {
    WriteFile(file.path(), intact.substr(0, cut));
    auto replay = campaign::CampaignJournal::Load(file.path(), wave.size());
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    EXPECT_TRUE(replay->torn_tail) << "cut=" << cut;
    EXPECT_EQ(replay->completed, wave.size() - 1) << "cut=" << cut;
    EXPECT_FALSE(replay->reports[wave.size() - 1].has_value());
  }

  // Corruption before the tail is a hard error, never a silent skip.
  // Prepend a byte to the first sample record so that line cannot parse.
  std::string corrupted = intact;
  corrupted.insert(intact.find('\n') + 1, 1, 'x');
  WriteFile(file.path(), corrupted);
  EXPECT_FALSE(
      campaign::CampaignJournal::Load(file.path(), wave.size()).ok());
}

// A version-1 journal, whose reports quoted their whole trace text, is
// refused by name, by the journal reader, the supervisor and the fleet
// coordinator alike, before any of its reports is parsed.
TEST(Journal, OlderVersionIsRefused) {
  ScratchFile file("journal_v1_test.jsonl");
  const std::vector<vm::Program> wave = SmallCorpus(14, 2);
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
  {
    auto journal = campaign::CampaignJournal::Create(
        file.path(), campaign::MakeJournalHeader(FastOptions(), wave));
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(
        journal->Append(0, vaccine::AnalyzeIsolated(pipeline, wave[0])).ok());
  }
  // Rewrite it the way version 1 wrote it.
  std::string text = ReadFile(file.path());
  const std::string version = "\"version\":2,";
  ASSERT_NE(text.find(version), std::string::npos);
  text.replace(text.find(version), version.size(), "\"version\":1,");
  const size_t trace = text.find("\"natural_trace\":{");
  ASSERT_NE(trace, std::string::npos);
  text.replace(trace, text.find('}', trace) + 1 - trace,
               "\"natural_trace\":\"APITRACE v1 0 0 0\\n\"");
  WriteFile(file.path(), text);

  const std::string expected = "unsupported journal version 1";
  auto replay = campaign::CampaignJournal::Load(file.path(), wave.size());
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().message().find(expected), std::string::npos)
      << replay.status().ToString();

  campaign::CampaignOptions options;
  options.journal_path = file.path();
  options.resume = true;
  auto resumed = campaign::RunDurableCampaign(pipeline, wave, options);
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.status().message().find(expected), std::string::npos)
      << resumed.status().ToString();

  fleet::CoordinatorOptions coordinator_options;
  coordinator_options.socket_path = "journal_v1_test.sock";
  coordinator_options.journal_path = file.path();
  coordinator_options.resume = true;
  fleet::FleetCoordinator coordinator(wave, FastOptions(),
                                      coordinator_options);
  const Status started = coordinator.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_NE(started.message().find(expected), std::string::npos)
      << started.ToString();
  // The journal is left as it was.
  EXPECT_EQ(ReadFile(file.path()), text);
}

// ---------------------------------------------------------------------
// Supervisor: resume determinism
// ---------------------------------------------------------------------

// In process and with forked workers alike: with more workers than the
// stop-after budget, the supervisor must not launch attempts the budget
// cannot take.
TEST(Durability, InterruptedThenResumedReportIsByteIdentical) {
  ScratchFile file("durability_resume_test.jsonl");
  const std::vector<vm::Program> wave = SmallCorpus(20260806, 5);
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());

  auto uninterrupted = campaign::RunDurableCampaign(pipeline, wave);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  const std::string expected =
      vaccine::CampaignReportToJson(uninterrupted->report);

  for (const size_t jobs : {1u, 3u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    campaign::CampaignOptions first;
    first.jobs = jobs;
    first.journal_path = file.path();
    first.stop_after = 2;
    auto interrupted = campaign::RunDurableCampaign(pipeline, wave, first);
    ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
    EXPECT_TRUE(interrupted->stats.interrupted);
    EXPECT_EQ(interrupted->stats.samples_analyzed, 2u);
    EXPECT_EQ(interrupted->report.reports.size(), 2u);

    // Tear the final journal record the way a crash mid-append would.
    const std::string journal_bytes = ReadFile(file.path());
    WriteFile(file.path(), journal_bytes.substr(0, journal_bytes.size() - 7));

    campaign::CampaignOptions second;
    second.jobs = jobs;
    second.journal_path = file.path();
    second.resume = true;
    auto resumed = campaign::RunDurableCampaign(pipeline, wave, second);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    // One of the two journaled samples was torn away, so the resume loads
    // one and re-analyzes the torn one plus the three never-run ones.
    EXPECT_EQ(resumed->stats.samples_loaded, 1u);
    EXPECT_EQ(resumed->stats.samples_analyzed, 4u);
    EXPECT_FALSE(resumed->stats.interrupted);
    EXPECT_EQ(vaccine::CampaignReportToJson(resumed->report), expected);
  }
}

// The supervisor and the fleet coordinator open journals through one
// function, and both refuse another campaign's journal by name.
TEST(Durability, ResumeRefusesForeignJournal) {
  ScratchFile file("durability_foreign_test.jsonl");
  const std::vector<vm::Program> wave = SmallCorpus(31, 3);
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());

  campaign::CampaignOptions options;
  options.journal_path = file.path();
  ASSERT_TRUE(campaign::RunDurableCampaign(pipeline, wave, options).ok());
  const std::string journal = ReadFile(file.path());

  // Same corpus, different budget: a silent resume would mix reports
  // from two different analyses into one "deterministic" artifact.
  vaccine::PipelineOptions changed = FastOptions();
  changed.phase1_budget /= 2;
  const std::string expected = "belongs to a different campaign";
  vaccine::VaccinePipeline other(nullptr, changed);
  options.resume = true;
  auto resumed = campaign::RunDurableCampaign(other, wave, options);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find(expected), std::string::npos)
      << resumed.status().ToString();

  fleet::CoordinatorOptions coordinator_options;
  coordinator_options.socket_path = "durability_foreign_test.sock";
  coordinator_options.journal_path = file.path();
  coordinator_options.resume = true;
  fleet::FleetCoordinator coordinator(wave, changed, coordinator_options);
  const Status started = coordinator.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(started.message().find(expected), std::string::npos)
      << started.ToString();
  // Neither refusal touched the journal.
  EXPECT_EQ(ReadFile(file.path()), journal);
}

TEST(Durability, ResumeWithoutJournalIsRejected) {
  const std::vector<vm::Program> wave = SmallCorpus(32, 2);
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
  campaign::CampaignOptions options;
  options.resume = true;
  EXPECT_FALSE(campaign::RunDurableCampaign(pipeline, wave, options).ok());
}

// ---------------------------------------------------------------------
// Supervisor: worker isolation
// ---------------------------------------------------------------------

TEST(Durability, ForkedWorkersMatchInProcessByteForByte) {
  const std::vector<vm::Program> wave = SmallCorpus(42, 5);
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());

  auto in_process = campaign::RunDurableCampaign(pipeline, wave);
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();

  campaign::CampaignOptions forked;
  forked.jobs = 3;
  auto workers = campaign::RunDurableCampaign(pipeline, wave, forked);
  ASSERT_TRUE(workers.ok()) << workers.status().ToString();
  EXPECT_EQ(workers->stats.workers_crashed, 0u);
  EXPECT_EQ(vaccine::CampaignReportToJson(workers->report),
            vaccine::CampaignReportToJson(in_process->report));
}

TEST(Durability, WorkerCrashIsRetriedWithBackedOffBudget) {
  const std::vector<vm::Program> wave = SmallCorpus(43, 3);
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());

  campaign::CampaignOptions options;
  // Kill sample 1's first attempt inside the child; the retry (attempt
  // 1, halved budgets) must succeed.
  options.worker_test_hook = [](size_t index, size_t attempt) {
    if (index == 1 && attempt == 0) raise(SIGKILL);
  };
  auto run = campaign::RunDurableCampaign(pipeline, wave, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stats.workers_crashed, 1u);
  EXPECT_EQ(run->stats.worker_retries, 1u);
  EXPECT_EQ(run->stats.samples_quarantined, 0u);
  ASSERT_EQ(run->report.reports.size(), wave.size());
  EXPECT_EQ(run->report.reports[1].disposition,
            vaccine::SampleDisposition::kAnalyzed);
  EXPECT_EQ(run->report.samples_failed, 0u);

  // The surviving retry ran with halved budgets — cross-check against a
  // direct in-process run under BackoffOptions(attempt=1).
  vaccine::VaccinePipeline halved(
      nullptr, campaign::BackoffOptions(FastOptions(), 1));
  EXPECT_EQ(vaccine::SampleReportToJson(run->report.reports[1]),
            vaccine::SampleReportToJson(
                vaccine::AnalyzeIsolated(halved, wave[1])));
}

TEST(Durability, RepeatOffenderIsQuarantined) {
  const std::vector<vm::Program> wave = SmallCorpus(44, 3);
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());

  campaign::CampaignOptions options;
  options.worker_test_hook = [](size_t index, size_t) {
    if (index == 0) raise(SIGKILL);
  };
  auto run = campaign::RunDurableCampaign(pipeline, wave, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stats.workers_crashed, 2u);  // attempt 0 + retry
  EXPECT_EQ(run->stats.worker_retries, 1u);
  EXPECT_EQ(run->stats.samples_quarantined, 1u);
  ASSERT_EQ(run->report.reports.size(), wave.size());
  const vaccine::SampleReport& poisoned = run->report.reports[0];
  EXPECT_EQ(poisoned.disposition,
            vaccine::SampleDisposition::kQuarantined);
  EXPECT_EQ(poisoned.sample_name, wave[0].name);
  EXPECT_FALSE(poisoned.phase1_status.ok());
  EXPECT_EQ(run->report.samples_failed, 1u);
  // The other samples are untouched by the poison neighbour.
  EXPECT_EQ(run->report.reports[1].disposition,
            vaccine::SampleDisposition::kAnalyzed);
}

TEST(Durability, BackoffHalvesBudgetsWithFloorOfOne) {
  vaccine::PipelineOptions options = FastOptions();
  options.phase1_budget = 1000;
  options.impact.cycle_budget = 600;
  const vaccine::PipelineOptions once = campaign::BackoffOptions(options, 1);
  EXPECT_EQ(once.phase1_budget, 500u);
  EXPECT_EQ(once.impact.cycle_budget, 300u);
  EXPECT_EQ(once.max_targets, options.max_targets);  // untouched knobs
  const vaccine::PipelineOptions deep = campaign::BackoffOptions(options, 70);
  EXPECT_EQ(deep.phase1_budget, 1u);
  EXPECT_EQ(deep.impact.cycle_budget, 1u);
}

// ---------------------------------------------------------------------
// Phase-cost aggregation (per-report rollups, not the global tracer)
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Journal write audit: short writes and spurious EINTR
// ---------------------------------------------------------------------

// Hostile write(2): never transfers more than one byte at a time, and
// fails every third call with EINTR before touching the fd — the same
// degenerate kernel PR 6's wire shim simulates for sockets, here aimed
// at the journal's WriteAll loop.
ssize_t HostileJournalWrite(int fd, const char* data, size_t len) {
  static int calls = 0;
  if (++calls % 3 == 0) {
    errno = EINTR;
    return -1;
  }
  return ::write(fd, data, len > 0 ? 1 : 0);
}

// Uninstalls the shim on every exit path; it is process global and a
// leaked shim would slow every other journal test to one byte per call.
class InstalledJournalShim {
 public:
  explicit InstalledJournalShim(campaign::JournalWriteShim shim) {
    campaign::SetJournalWriteShimForTest(shim);
  }
  ~InstalledJournalShim() { campaign::SetJournalWriteShimForTest(nullptr); }
};

TEST(Journal, AppendSurvivesShortWritesAndEintr) {
  ScratchFile file("journal_shortwrite_test.jsonl");
  const std::vector<vm::Program> wave = SmallCorpus(46, 2);
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
  const vaccine::SampleReport report =
      vaccine::AnalyzeIsolated(pipeline, wave[0]);

  {
    InstalledJournalShim shim(&HostileJournalWrite);
    auto journal = campaign::CampaignJournal::Create(
        file.path(), campaign::MakeJournalHeader(FastOptions(), wave));
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE(journal->Append(0, report).ok());
    ASSERT_TRUE(journal->AppendAssignment(1, "w1", 7).ok());
  }

  // Every record written through the hostile kernel loads back intact:
  // no byte was dropped, duplicated, or reordered by the retry loop.
  auto replay = campaign::CampaignJournal::Load(file.path(), wave.size());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->completed, 1u);
  ASSERT_TRUE(replay->reports[0].has_value());
  EXPECT_EQ(vaccine::SampleReportToJson(*replay->reports[0]),
            vaccine::SampleReportToJson(report));
  EXPECT_EQ(replay->assignments, 1u);
  EXPECT_EQ(replay->max_lease_id, 7u);
}

TEST(Durability, CampaignPhaseCostsPartitionTheTracerSpans) {
  Tracer& tracer = GlobalTracer();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  const size_t first_span = tracer.spans().size();

  const std::vector<vm::Program> wave = SmallCorpus(45, 4);
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
  auto run = campaign::RunDurableCampaign(pipeline, wave);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // The rollup built from per-report costs must equal what the global
  // tracer saw over the whole campaign: the per-sample windows
  // partition the span stream exactly (nothing lost, nothing double
  // counted). This is what keeps the dashboard identical when reports
  // come back from forked workers instead.
  const std::vector<PhaseTotal> from_tracer = tracer.PhaseTotals(first_span);
  tracer.set_enabled(was_enabled);
  ASSERT_EQ(run->report.phase_costs.size(), from_tracer.size());
  for (size_t i = 0; i < from_tracer.size(); ++i) {
    EXPECT_EQ(run->report.phase_costs[i].name, from_tracer[i].name);
    EXPECT_EQ(run->report.phase_costs[i].spans, from_tracer[i].spans);
    EXPECT_EQ(run->report.phase_costs[i].ticks, from_tracer[i].ticks);
  }
}

}  // namespace
}  // namespace autovac
