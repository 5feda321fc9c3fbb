// corpus and campaign: the Table II corpus through in-process Analyze
// and through the forked durable campaign. Both analyze the same seeded
// corpus, so their reports must be byte-identical to one in-process
// reference. Traced runs also probe the lease fleet on part of it.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>
#include <set>
#include <thread>

#include "analysis/alignment.h"
#include "analysis/determinism.h"
#include "analysis/immunization.h"
#include "analysis/impact.h"
#include "campaign/journal.h"
#include "campaign/supervisor.h"
#include "fleet/agent.h"
#include "fleet/coordinator.h"
#include "malware/benign.h"
#include "malware/corpus.h"
#include "sandbox/sandbox.h"
#include "sandbox/snapshot.h"
#include "support/digest.h"
#include "support/metrics.h"
#include "support/strings.h"
#include "vaccine/json.h"
#include "vaccine/pipeline.h"
#include "vacstore/store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace autovac;

constexpr size_t kFullCorpus = 1716;  // Table II
constexpr size_t kSmallCorpus = 48;   // self-check inputs
constexpr size_t kProbeSamples = 96;  // campaign/fleet probes in traced runs
constexpr size_t kProbeMirror = 40;   // corpus-mirror probe in traced runs
// Set-ups timed before the passes and again after each pass; setup_s is
// the median of all of them.
constexpr size_t kSetupRepeats = 4;
// Fewest passes per timed run; more run only when they fit in --seconds
// by the first pass's duration. A corpus pass takes 10-15 s here and a
// campaign pass 15-20 s, so at 30 s these minimums are what runs.
constexpr size_t kCorpusPasses = 3;
constexpr size_t kCampaignPasses = 2;
// In-process analysis moves to the next CPU every this many samples
// (about half a second), so each pass visits every CPU many times.
constexpr size_t kRotateEvery = 64;

struct CorpusInputs {
  std::vector<vm::Program> samples;
  analysis::ExclusivenessIndex index;
};

size_t CorpusTotal(const Options& options) {
  return options.small ? kSmallCorpus : kFullCorpus;
}

// The exclusiveness index: the benign corpus traced without taint.
analysis::ExclusivenessIndex BuildBenignIndex() {
  analysis::ExclusivenessIndex index;
  auto corpus = malware::BuildBenignCorpus();
  AUTOVAC_CHECK_MSG(corpus.ok(), "benign corpus failed to assemble");
  for (const vm::Program& program : corpus.value()) {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    sandbox::RunOptions run_options;
    run_options.enable_taint = false;
    auto run = sandbox::RunProgram(program, env, run_options);
    index.IndexBenignTrace(program.name, run.api_trace);
  }
  return index;
}

CorpusInputs MakeInputs(uint64_t seed, size_t total) {
  CorpusInputs inputs;
  malware::CorpusOptions corpus_options;
  corpus_options.seed = seed;
  corpus_options.total = total;
  auto corpus = malware::GenerateCorpus(corpus_options);
  AUTOVAC_CHECK_MSG(corpus.ok(), "corpus failed to generate");
  inputs.samples.reserve(corpus->size());
  for (malware::CorpusSample& sample : corpus.value()) {
    inputs.samples.push_back(std::move(sample.program));
  }
  inputs.index = BuildBenignIndex();
  return inputs;
}

// Sets up `kSetupRepeats` times (corpus generation plus the benign
// index), adds each time to `seconds` and keeps the last inputs. A run
// calls it before its passes and, through SetUpAgain, after each pass:
// sub-second intervals here flip between a fast and a 1.5x slower state
// that holds for seconds at a time, so timings spread over the whole run
// give a median that does not hinge on one slow moment.
CorpusInputs SetUp(const Options& options, size_t total,
                   std::vector<double>& seconds) {
  std::optional<CorpusInputs> inputs;
  const size_t repeats = options.small ? 1 : kSetupRepeats;
  for (size_t i = 0; i < repeats; ++i) {
    inputs.reset();
    const auto start = Clock::now();
    inputs.emplace(MakeInputs(options.seed, total));
    seconds.push_back(MsSince(start) / 1e3);
  }
  return std::move(*inputs);
}

// Times more set-ups in a forked child, so the benchmark process's heap
// stays as the passes found it. False when the child failed.
bool SetUpAgain(const Options& options, size_t total,
                std::vector<double>& seconds) {
  const auto record = RunInChild([&] {
    Record record;
    std::vector<double>& times = record.List("setup_s");
    (void)SetUp(options, total, times);
    record.Set("ok", 1);
    return record;
  });
  if (!record || record->Get("ok") != 1) return false;
  const std::vector<double>& times = record->List("setup_s");
  seconds.insert(seconds.end(), times.begin(), times.end());
  return true;
}

std::string PassStem(const Options& options, const std::string& name,
                     size_t pass) {
  return options.workdir + "/" + name + "-" + std::to_string(pass);
}

// `corrupt` is the self-check's fault: one flipped byte in the middle
// sample's report and in the campaign text, before they are digested.
// Runs at the end of a pass, outside its timed work but inside the run's
// time, so the ~120 MB of report text (each report alone, then the whole
// campaign) is serialized and hashed on nproc threads: about 1.5 s, not 3.
ReportDigests DigestsOf(const Options& options,
                        const vaccine::CampaignReport& report, bool corrupt) {
  ReportDigests out;
  const size_t n = report.reports.size();
  out.samples.resize(n);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    std::string campaign = vaccine::CampaignReportToJson(report);
    if (corrupt) campaign[campaign.size() / 2] ^= 0x01;
    out.campaign = HexDigest128(campaign);
  });
  const size_t lanes = std::max<size_t>(options.nproc, 2) - 1;
  for (size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      for (size_t i = lane; i < n; i += lanes) {
        std::string json = vaccine::SampleReportToJson(report.reports[i]);
        if (corrupt && i == n / 2) json[json.size() / 2] ^= 0x01;
        out.samples[i] = HexDigest128(json);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return out;
}

bool CorruptReports(const Options& options) {
  return options.inject == "report";
}

// The in-process reference for this seed and build: loaded from the
// cache, or computed by nproc forked children, each running
// AnalyzeIsolated (the unit in-process campaigns run) on every nproc-th
// sample. Runs after the timed passes, so it never ages them.
std::optional<ReportDigests> EnsureReference(const Options& options,
                                             const CorpusInputs& inputs) {
  const std::string path = ReferencePath(options, inputs.samples.size());
  if (auto cached = ReadDigests(path)) return cached;
  const size_t shards = std::max<size_t>(options.nproc, 1);
  std::vector<pid_t> pids;
  for (size_t shard = 0; shard < shards; ++shard) {
    pids.push_back(ForkProcess([&] {
      vaccine::VaccinePipeline pipeline(&inputs.index);
      std::string out;
      for (size_t i = shard; i < inputs.samples.size(); i += shards) {
        out += std::to_string(i) + "\t" +
               vaccine::SampleReportToJson(
                   vaccine::AnalyzeIsolated(pipeline, inputs.samples[i])) +
               "\n";
      }
      return WriteFile(options.workdir + "/ref-shard-" + std::to_string(shard),
                       out)
                 ? 0
                 : 1;
    }));
  }
  bool ok = true;
  for (const pid_t pid : pids) ok = Reap(pid) && ok;
  if (!ok) return std::nullopt;
  // Merge in a child too: parsing every report back would otherwise
  // grow this process for the rest of the run.
  const auto merged = RunInChild([&] {
    Record record;
    std::vector<std::string> lines(inputs.samples.size());
    for (size_t shard = 0; shard < shards; ++shard) {
      std::string text;
      if (!ReadFile(options.workdir + "/ref-shard-" + std::to_string(shard),
                    &text)) {
        return record;
      }
      size_t pos = 0;
      while (pos < text.size()) {
        const size_t tab = text.find('\t', pos);
        const size_t eol = text.find('\n', tab);
        lines[std::stoul(text.substr(pos, tab - pos))] =
            text.substr(tab + 1, eol - tab - 1);
        pos = eol + 1;
      }
    }
    std::vector<vaccine::SampleReport> reports;
    for (const std::string& line : lines) {
      auto report = vaccine::ParseSampleReportJson(line);
      if (!report.ok()) return record;
      reports.push_back(std::move(report).value());
    }
    ReportDigests reference;
    for (const std::string& line : lines) {
      reference.samples.push_back(HexDigest128(line));
    }
    reference.campaign = HexDigest128(vaccine::CampaignReportToJson(
        vaccine::BuildCampaignReport(std::move(reports))));
    record.Set("stored", StoreReference(path, reference) ? 1 : 0);
    return record;
  });
  if (!merged || merged->Get("stored") != 1) return std::nullopt;
  return ReadDigests(path);
}

// Checks every pass's reports against the reference.
void CheckPasses(const Options& options, const CorpusInputs& inputs,
                 const std::string& name, size_t passes, Outcome& outcome) {
  const auto reference = EnsureReference(options, inputs);
  if (!reference) {
    outcome.Fail(inputs.samples.size(),
                 name + ": could not compute the in-process reference");
    return;
  }
  for (size_t pass = 0; pass < passes; ++pass) {
    const auto produced = ReadDigests(PassStem(options, name, pass));
    if (!produced) {
      outcome.Fail(inputs.samples.size(), name + ": pass wrote no reports");
      continue;
    }
    CheckAgainstReference(*produced, *reference, name, outcome);
  }
}

void SetPeakRss(const std::vector<Record>& passes, Outcome& outcome) {
  double peak = 0;
  for (const Record& pass : passes) {
    peak = std::max({peak, pass.Get("self_rss_mb"), pass.Get("child_rss_mb")});
  }
  outcome.Set("peak_rss_mb", peak, "MB");
}

// Runs whole passes, each in a fresh forked process: as many as fit in
// `seconds` going by the first pass's duration, and at least `min_passes`,
// so the metrics pool several passes. Consecutive passes here differ by
// up to 30% as the shared host's load comes and goes. Every pass starts
// from the same freshly set-up parent: a second pass in one process runs
// measurably slower. After each pass, `after_pass` runs in this process
// (untimed). Returns nothing if a pass or `after_pass` failed.
using Poller = std::function<std::function<void()>(size_t)>;

std::vector<Record> RunPasses(const Options& options, size_t min_passes,
                              const std::function<Record(size_t)>& pass,
                              const std::function<bool()>& after_pass,
                              const Poller& poller = nullptr) {
  std::vector<Record> records;
  size_t target = min_passes;
  while (records.size() < target) {
    const size_t index = records.size();
    const auto start = Clock::now();
    auto record = RunInChild([&] { return pass(index); },
                             poller ? poller(index) : nullptr);
    if (!record || record->Get("ok") != 1) return {};  // a failed pass
    const double ms = MsSince(start);
    std::fprintf(stderr, "perfbench: pass %zu took %.0f ms (measured %.0f)\n",
                 index, ms, record->Get("wall_ms"));
    records.push_back(std::move(*record));
    if (!after_pass()) return {};
    if (index == 0) {
      target = std::max<size_t>(min_passes,
                                std::lround(options.seconds * 1e3 / ms));
    }
  }
  return records;
}

void RecordUsage(Record& record, const Usage& self0, const Usage& self1,
                 const Usage& kids0, const Usage& kids1) {
  record.Set("self_user_ms", self1.user_ms - self0.user_ms);
  record.Set("self_sys_ms", self1.sys_ms - self0.sys_ms);
  record.Set("self_minflt", self1.minflt - self0.minflt);
  record.Set("self_rss_mb", self1.maxrss_mb);
  record.Set("child_user_ms", kids1.user_ms - kids0.user_ms);
  record.Set("child_sys_ms", kids1.sys_ms - kids0.sys_ms);
  record.Set("child_minflt", kids1.minflt - kids0.minflt);
  record.Set("child_rss_mb", kids1.maxrss_mb);
}

double CpuMs(const Record& record) {
  return record.Get("self_user_ms") + record.Get("self_sys_ms") +
         record.Get("child_user_ms") + record.Get("child_sys_ms");
}

// ---- corpus ------------------------------------------------------------

Record CorpusPass(const Options& options, const CorpusInputs& inputs,
                  size_t pass) {
  vaccine::VaccinePipeline pipeline(&inputs.index);
  std::vector<vaccine::SampleReport> reports;
  reports.reserve(inputs.samples.size());
  Record record;
  std::vector<double>& latency = record.List("latency_ms");
  const Usage self0 = SelfUsage();
  const Usage kids0 = ChildrenUsage();
  const auto start = Clock::now();
  {
    CpuRotation rotation(kRotateEvery, pass);
    for (size_t i = 0; i < inputs.samples.size(); ++i) {
      rotation.Step(i);
      const auto t = Clock::now();
      reports.push_back(pipeline.Analyze(inputs.samples[i]));
      latency.push_back(MsSince(t));
    }
  }
  record.Set("wall_ms", MsSince(start));
  RecordUsage(record, self0, SelfUsage(), kids0, ChildrenUsage());
  double vaccines = 0;
  double vaccinated_samples = 0;
  for (const vaccine::SampleReport& report : reports) {
    vaccines += static_cast<double>(report.vaccines.size());
    if (!report.vaccines.empty()) ++vaccinated_samples;
  }
  record.Set("vaccines", vaccines);
  record.Set("vaccinated_samples", vaccinated_samples);
  const ReportDigests produced =
      DigestsOf(options, vaccine::BuildCampaignReport(std::move(reports)),
                CorruptReports(options));
  record.Set("ok", WriteDigests(PassStem(options, "corpus", pass), produced)
                       ? 1
                       : 0);
  return record;
}

// ---- campaign ------------------------------------------------------------

size_t Jobs(const Options& options) {
  // One core stays with the supervisor.
  return std::max<size_t>(options.nproc > 1 ? options.nproc - 1 : 1, 1);
}

// Reads the worker start stamps ("<index> <ms>" lines) into one slot per
// sample; -1 where a sample has none.
std::vector<double> ReadStarts(const std::string& path, size_t samples) {
  std::vector<double> starts(samples, -1);
  std::string text;
  if (!ReadFile(path, &text)) return starts;
  const char* p = text.c_str();
  char* end = nullptr;
  for (;;) {
    const unsigned long long index = std::strtoull(p, &end, 10);
    if (end == p) break;
    const double ms = std::strtod(end, &end);
    if (index < samples) starts[index] = ms;
    p = end;
  }
  return starts;
}

Record CampaignPass(const Options& options, const CorpusInputs& inputs,
                    const std::string& stem, bool traced) {
  vaccine::VaccinePipeline pipeline(&inputs.index);
  campaign::CampaignOptions campaign_options;
  campaign_options.jobs = Jobs(options);
  campaign_options.journal_path = stem + ".journal";
  Record record;
  // Each forked worker stamps the moment it starts on its sample, through
  // the campaign's per-attempt worker hook, so a sample's latency runs
  // from there until its journal line appears (JournalWatch).
  const std::string starts_path = stem + ".starts";
  const int starts_fd = ::open(starts_path.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (starts_fd < 0) return record;
  campaign_options.worker_test_hook = [starts_fd](size_t index, size_t) {
    char line[64];
    const int len = std::snprintf(line, sizeof(line), "%zu %.6f\n", index,
                                  NowMs());
    const ssize_t written = ::write(starts_fd, line, static_cast<size_t>(len));
    (void)written;
  };
  const Usage self0 = SelfUsage();
  const Usage kids0 = ChildrenUsage();
  const double start = NowMs();
  std::optional<ScopedSpan> span;
  if (traced) span.emplace("campaign.RunDurableCampaign", 0);
  auto run = campaign::RunDurableCampaign(pipeline, inputs.samples,
                                          campaign_options);
  span.reset();
  const double end = NowMs();
  RecordUsage(record, self0, SelfUsage(), kids0, ChildrenUsage());
  ::close(starts_fd);
  record.List("start_ms") = ReadStarts(starts_path, inputs.samples.size());
  record.Set("wall_ms", end - start);
  if (!run.ok()) {
    std::fprintf(stderr, "campaign: %s\n", run.status().ToString().c_str());
    return record;
  }
  record.Set("workers_crashed",
             static_cast<double>(run->stats.workers_crashed +
                                 run->stats.deadline_kills));
  record.Set("ok", WriteDigests(stem, DigestsOf(options, run->report,
                                                CorruptReports(options)))
                       ? 1
                       : 0);
  return record;
}

// Timestamps each sample line of a campaign journal as it becomes
// visible, by the sample index the line carries. The first line is the
// header; any later line that is not the first record of one of the
// campaign's samples counts as unexpected.
class JournalWatch {
 public:
  JournalWatch(std::string path, size_t samples)
      : path_(std::move(path)), done_ms_(samples, -1) {}
  ~JournalWatch() {
    if (fd_ >= 0) ::close(fd_);
  }
  JournalWatch(const JournalWatch&) = delete;
  JournalWatch& operator=(const JournalWatch&) = delete;

  void Poll() {
    if (fd_ < 0) fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) return;
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd_, buf, sizeof(buf))) > 0) {
      const double now = NowMs();
      const char* p = buf;
      const char* const end = buf + n;
      while (p < end) {
        const char* eol =
            static_cast<const char*>(std::memchr(p, '\n', end - p));
        const char* stop = eol != nullptr ? eol : end;
        // Only a line's prefix is kept: it holds the sample index.
        const size_t keep = std::min<size_t>(
            static_cast<size_t>(stop - p),
            kPrefix - std::min(kPrefix, line_.size()));
        line_.append(p, keep);
        if (eol == nullptr) break;
        EndLine(now);
        p = eol + 1;
      }
    }
  }
  // When each sample's line became visible; -1 where none was seen.
  [[nodiscard]] const std::vector<double>& done_ms() const { return done_ms_; }
  [[nodiscard]] size_t unexpected() const { return unexpected_; }

 private:
  static constexpr size_t kPrefix = 64;

  void EndLine(double now) {
    static constexpr char kSample[] = "{\"type\":\"sample\",\"index\":";
    if (!header_seen_) {
      header_seen_ = true;
    } else if (line_.rfind(kSample, 0) == 0) {
      const size_t index = static_cast<size_t>(
          std::strtoull(line_.c_str() + std::strlen(kSample), nullptr, 10));
      if (index < done_ms_.size() && done_ms_[index] < 0) {
        done_ms_[index] = now;
      } else {
        ++unexpected_;
      }
    } else {
      ++unexpected_;
    }
    line_.clear();
  }

  std::string path_;
  int fd_ = -1;
  std::string line_;
  bool header_seen_ = false;
  std::vector<double> done_ms_;
  size_t unexpected_ = 0;
};

// ---- fleet (traced probe) ---------------------------------------------------

Record FleetPass(const Options& options, const CorpusInputs& inputs,
                 const std::string& stem) {
  Record record;
  fleet::CoordinatorOptions coordinator_options;
  coordinator_options.socket_path = stem + ".sock";
  coordinator_options.journal_path = stem + ".journal";
  coordinator_options.store_path = stem + ".store";
  const size_t agents = Jobs(options);
  // Agents are forked before the coordinator starts any thread, and wait
  // for the go byte (README.md, "fork before threads").
  int go[2];
  if (::pipe(go) != 0) return record;
  std::vector<pid_t> pids;
  for (size_t i = 0; i < agents; ++i) {
    pids.push_back(ForkProcess([&, i] {
      ::close(go[1]);
      char byte = 0;
      if (::read(go[0], &byte, 1) != 1) return 2;
      vaccine::VaccinePipeline pipeline(&inputs.index);
      fleet::WorkerOptions worker;
      worker.socket_path = coordinator_options.socket_path;
      worker.worker_id = StrFormat("agent-%zu", i);
      worker.retry = net::RetryPolicy::Retrying();
      worker.retry.max_total_ms = 30'000;
      worker.idle_poll_ms = 20;
      auto stats = fleet::RunWorker(pipeline, inputs.samples, worker);
      return stats.ok() ? 0 : 1;
    }));
  }
  ::close(go[0]);
  const Usage self0 = SelfUsage();
  const Usage kids0 = ChildrenUsage();
  fleet::FleetCoordinator coordinator(
      inputs.samples, vaccine::PipelineOptions{}, coordinator_options);
  const Status started = coordinator.Start();
  const double start = NowMs();
  const std::string go_bytes(agents, 'g');
  const bool released =
      started.ok() &&
      ::write(go[1], go_bytes.data(), go_bytes.size()) ==
          static_cast<ssize_t>(go_bytes.size());
  ::close(go[1]);
  bool done = false;
  if (released) {
    ScopedSpan span("fleet.coordinator.run", 0);
    done = coordinator.WaitUntilDone(120'000).ok();
  }
  const double end = NowMs();
  // Agents see campaign_done on their last reply and exit; reap them
  // before stopping the coordinator so none is cut off mid-request.
  bool agents_ok = true;
  for (const pid_t pid : pids) agents_ok = Reap(pid) && agents_ok;
  const uint64_t requests = coordinator.requests_served();
  const net::FleetStatusReply progress = coordinator.Progress();
  const fleet::CoordinatorStats stats = coordinator.Stats();
  auto report = coordinator.Report();
  coordinator.Stop();
  RecordUsage(record, self0, SelfUsage(), kids0, ChildrenUsage());
  record.Set("wall_ms", end - start);
  record.Set("requests", static_cast<double>(requests));
  record.Set("wasted", static_cast<double>(progress.reassigned +
                                           progress.stale_rejected +
                                           progress.duplicates));
  record.Set("ingested", static_cast<double>(stats.ingested));
  record.Set("ingest_failures", static_cast<double>(stats.ingest_failures));
  record.Set("agents_ok", agents_ok ? 1 : 0);
  if (!done || !report.ok()) {
    std::fprintf(stderr, "fleet: campaign did not complete\n");
    return record;
  }
  // The ingest check: the store holds exactly the report's vaccines.
  std::set<std::string> want;
  for (const vaccine::SampleReport& sample : report->reports) {
    for (const vaccine::Vaccine& v : sample.vaccines) {
      want.insert(vaccine::VaccineDigest(v));
    }
  }
  std::set<std::string> have;
  auto store = vacstore::VaccineStore::Open(coordinator_options.store_path);
  if (store.ok()) {
    for (const vacstore::StoreEntry& entry : store->entries()) {
      if (!entry.quarantined) have.insert(entry.digest);
    }
  }
  record.Set("ingest_mismatch", have == want ? 0 : 1);
  record.Set("ok", 1);
  return record;
}

void CheckFleetRecord(const Record& record, Outcome& outcome) {
  if (record.Get("ingest_mismatch") != 0 ||
      record.Get("ingest_failures") != 0) {
    outcome.Fail(1, "fleet: ingest store does not hold exactly the report's "
                    "vaccines");
  }
  if (record.Get("agents_ok") != 1) {
    outcome.Fail(1, "fleet: an agent exited with an error");
  }
}

// ---- traced corpus mirror ---------------------------------------------

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

// Per-sample layer costs of the mirrored drive, summed over samples.
struct MirrorTotals {
  double samples = 0;
  double analyze_ms = 0;
  double covered_ms = 0;  // mirrored spans that stand for Analyze's work
  double vm_ms = 0, taint_ms = 0, record_ms = 0, capture_ms = 0;
  double minstr = 0, minflt = 0;
  double captures = 0, capture_bytes = 0, resumed_captures = 0;
  double impact_runs = 0, full_reruns = 0, impact_ms = 0;
  double align_ms = 0, align_cells = 0, max_cells = 0;
  double classify_ms = 0, exclusive_ms = 0, determinism_ms = 0, slice_ms = 0;
  double mismatches = 0;
  double json_bytes = 0, encode_ms = 0, decode_ms = 0;
  double journal_ms = 0, journal_bytes = 0;
};

struct MirrorCounts {
  size_t targets = 0, not_exclusive = 0, no_impact = 0, non_deterministic = 0,
         vaccines = 0;
};

// Drives one sample through the public entry points in the order
// Analyze uses them, timing each call.
MirrorCounts MirrorSample(const vm::Program& sample,
                          const analysis::ExclusivenessIndex& index,
                          const vaccine::PipelineOptions& options,
                          const os::HostEnvironment& baseline, uint64_t id,
                          MirrorTotals& totals) {
  MirrorCounts counts;
  sandbox::RunOptions run_options;
  run_options.cycle_budget = options.phase1_budget;
  run_options.enable_taint = false;
  run_options.record_instructions = false;
  run_options.limits = options.limits;
  auto timed_run = [&](const std::string& name) {
    os::HostEnvironment env = baseline;
    ScopedSpan span(name, id);
    (void)sandbox::RunProgram(sample, env, run_options);
    return span.Close();
  };
  const double plain_ms = timed_run("vm.RunProgram");
  run_options.enable_taint = true;
  const double taint_ms = timed_run("taint.RunProgram");
  run_options.record_instructions = true;
  const double record_ms = timed_run("trace.RunProgram");
  totals.vm_ms += plain_ms;
  totals.taint_ms += std::max(taint_ms - plain_ms, 0.0);
  totals.record_ms += std::max(record_ms - taint_ms, 0.0);

  sandbox::SnapshotRecorder recorder(options.snapshot_cap);
  sandbox::RunResult phase1;
  {
    os::HostEnvironment env = baseline;
    ScopedSpan span("snapshot.RunProgramWithCapture", id);
    phase1 = sandbox::RunProgramWithCapture(sample, env, run_options, {},
                                            recorder);
    const double ms = span.Close();
    totals.capture_ms += std::max(ms - record_ms, 0.0);
    totals.covered_ms += ms;
  }
  totals.captures += static_cast<double>(recorder.size());
  totals.capture_bytes += static_cast<double>(recorder.total_bytes());
  if (!phase1.AnyTaintedPredicate()) return counts;

  std::vector<analysis::MutationTarget> targets;
  {
    ScopedSpan span("impact.CollectMutationTargets", id);
    targets = analysis::CollectMutationTargets(phase1.api_trace);
    totals.covered_ms += span.Close();
  }
  counts.targets = targets.size();
  std::set<std::pair<os::ResourceType, std::string>> vaccine_keys;
  std::set<const sandbox::MachineSnapshot*> resumed_from;
  size_t impact_runs = 0;
  for (const analysis::MutationTarget& target : targets) {
    if (vaccine_keys.count({target.resource_type, target.identifier}) > 0) {
      continue;
    }
    bool eligible = false;
    {
      ScopedSpan span("exclusiveness.IsExclusive", id);
      eligible = (!options.run_exclusiveness ||
                  index.IsExclusive(target.identifier)) &&
                 !target.identifier.empty();
      const double ms = span.Close();
      totals.exclusive_ms += ms;
      totals.covered_ms += ms;
    }
    if (!eligible) {
      ++counts.not_exclusive;
      continue;
    }
    if (impact_runs >= options.max_targets) break;
    ++impact_runs;

    analysis::ImpactOptions impact_options = options.impact;
    impact_options.limits = options.limits;
    analysis::ImpactResult impact;
    double impact_ms = 0;
    {
      ScopedSpan span("impact.run", id);
      std::optional<analysis::ImpactResult> resumed;
      const sandbox::MachineSnapshot* snapshot = recorder.Find(
          target.api_name, target.caller_pc, target.identifier);
      if (snapshot != nullptr) {
        resumed = analysis::TryResumeImpactAnalysis(
            sample, *snapshot, phase1.api_trace, target, impact_options);
      }
      if (resumed.has_value()) {
        resumed_from.insert(snapshot);
        impact = std::move(*resumed);
      } else {
        totals.full_reruns += 1;
        impact = analysis::RunImpactAnalysis(sample, baseline, phase1.api_trace,
                                             target, impact_options);
      }
      for (size_t retry = 0; AbnormalStop(impact.stop_reason) &&
                             retry < options.max_impact_retries;
           ++retry) {
        impact_options.cycle_budget =
            std::max<uint64_t>(impact_options.cycle_budget / 2, 1);
        impact = analysis::RunImpactAnalysis(sample, baseline, phase1.api_trace,
                                             target, impact_options);
      }
      impact_ms = span.Close();
      totals.covered_ms += impact_ms;
    }
    totals.impact_runs += 1;
    // The classification inside the impact call, re-run on the pair.
    double align_ms = 0;
    {
      ScopedSpan span("alignment.AlignTraces", id);
      (void)analysis::AlignTraces(phase1.api_trace, impact.mutated_trace,
                                  impact_options.classifier.alignment);
      align_ms = span.Close();
    }
    const double cells = static_cast<double>(phase1.api_trace.calls.size()) *
                         static_cast<double>(impact.mutated_trace.calls.size());
    totals.align_ms += align_ms;
    totals.align_cells += cells;
    totals.max_cells = std::max(totals.max_cells, cells);
    double classify_ms = 0;
    {
      ScopedSpan span("classify.ClassifyImmunization", id);
      (void)analysis::ClassifyImmunization(phase1.api_trace,
                                           impact.mutated_trace,
                                           impact_options.classifier);
      classify_ms = span.Close();
    }
    totals.classify_ms += std::max(classify_ms - align_ms, 0.0);
    totals.impact_ms += std::max(impact_ms - classify_ms, 0.0);
    if (impact.effect.type == analysis::ImmunizationType::kNone) {
      ++counts.no_impact;
      continue;
    }

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
    std::optional<analysis::DeterminismReport> determinism;
    {
      ScopedSpan span("determinism.AnalyzeIdentifier", id);
      auto result = analysis::AnalyzeIdentifier(
          phase1.instruction_trace, phase1.api_trace, anchor,
          options.determinism);
      if (result.ok()) determinism = std::move(result).value();
      const double ms = span.Close();
      totals.determinism_ms += ms;
      totals.covered_ms += ms;
    }
    if (!determinism ||
        determinism->cls == analysis::IdentifierClass::kNonDeterministic) {
      ++counts.non_deterministic;
      continue;
    }
    if (determinism->cls ==
        analysis::IdentifierClass::kAlgorithmDeterministic) {
      ScopedSpan span("determinism.ExtractSlice", id);
      (void)analysis::ExtractSlice(sample, phase1.instruction_trace,
                                   phase1.api_trace, *determinism, anchor);
      const double ms = span.Close();
      totals.slice_ms += ms;
      totals.covered_ms += ms;
    }
    ++counts.vaccines;
    vaccine_keys.insert({target.resource_type, target.identifier});
  }
  totals.resumed_captures += static_cast<double>(resumed_from.size());
  return counts;
}

// Drives every sample of `inputs` through Analyze and then through the
// mirrored entry points.
Record MirrorPass(const Options& options, const CorpusInputs& inputs) {
  vaccine::VaccinePipeline pipeline(&inputs.index);
  const vaccine::PipelineOptions& pipeline_options = pipeline.options();
  const os::HostEnvironment baseline = pipeline.BaselineMachine();
  Counter* retired = GlobalMetrics().GetCounter("vm.instructions_retired");
  MirrorTotals totals;
  std::vector<vaccine::SampleReport> reports;
  const auto start = Clock::now();
  std::optional<CpuRotation> rotation(std::in_place, kRotateEvery, 0);
  for (size_t i = 0; i < inputs.samples.size(); ++i) {
    const vm::Program& sample = inputs.samples[i];
    rotation->Step(i);
    ScopedSpan sample_span("sample", i);
    const Usage before = SelfUsage();
    const uint64_t instructions = retired->value();
    vaccine::SampleReport report;
    {
      ScopedSpan span("pipeline.Analyze", i);
      report = pipeline.Analyze(sample);
      totals.analyze_ms += span.Close();
    }
    totals.minflt += SelfUsage().minflt - before.minflt;
    totals.minstr +=
        static_cast<double>(retired->value() - instructions) / 1e6;
    MirrorCounts counts;
    bool crashed = false;
    try {
      counts = MirrorSample(sample, inputs.index, pipeline_options, baseline,
                            i, totals);
    } catch (const std::exception& e) {
      crashed = true;
    }
    if (crashed || counts.targets != report.targets_considered ||
        counts.not_exclusive != report.filtered_not_exclusive ||
        counts.no_impact != report.filtered_no_impact ||
        counts.non_deterministic != report.filtered_non_deterministic ||
        counts.vaccines != report.vaccines.size()) {
      totals.mismatches += 1;
    }
    totals.samples += 1;
    reports.push_back(std::move(report));
  }
  rotation.reset();
  // Report codec and journal costs, on this run's reports.
  const std::string journal_path = options.workdir + "/mirror.journal";
  auto journal = campaign::CampaignJournal::Create(
      journal_path,
      campaign::MakeJournalHeader(pipeline_options, inputs.samples));
  for (size_t k = 0; k < reports.size(); ++k) {
    std::string json;
    {
      ScopedSpan span("report.SampleReportToJson", k);
      json = vaccine::SampleReportToJson(reports[k]);
      totals.encode_ms += span.Close();
    }
    totals.json_bytes += static_cast<double>(json.size());
    {
      ScopedSpan span("report.ParseSampleReportJson", k);
      (void)vaccine::ParseSampleReportJson(json);
      totals.decode_ms += span.Close();
    }
    if (journal.ok()) {
      ScopedSpan span("journal.Append", k);
      (void)journal->Append(k, reports[k]);
      totals.journal_ms += span.Close();
    }
  }
  std::string journal_bytes;
  if (ReadFile(journal_path, &journal_bytes)) {
    totals.journal_bytes = static_cast<double>(journal_bytes.size());
  }

  Record record;
  const double n = std::max(totals.samples, 1.0);
  record.Set("samples", totals.samples);
  record.Set("wall_ms", MsSince(start));
  record.Set("analyze_ms", totals.analyze_ms);
  record.Set("vm.run_ms", totals.vm_ms / n);
  record.Set("taint.ms", totals.taint_ms / n);
  record.Set("trace.record_ms", totals.record_ms / n);
  record.Set("vm.minstr", totals.minstr / n);
  record.Set("snapshot.capture_ms", totals.capture_ms / n);
  record.Set("snapshot.captures", totals.captures / n);
  record.Set("snapshot.capture_mb", totals.capture_bytes / 1e6 / n);
  record.Set("snapshot.resumed_share",
             totals.captures > 0 ? totals.resumed_captures / totals.captures
                                 : 0);
  record.Set("proc.minflt", totals.minflt / n);
  record.Set("impact.runs", totals.impact_runs / n);
  record.Set("impact.full_rerun_share",
             totals.impact_runs > 0 ? totals.full_reruns / totals.impact_runs
                                    : 0);
  record.Set("impact.resume_ms", totals.impact_ms / n);
  record.Set("alignment.ms", totals.align_ms / n);
  record.Set("alignment.mcells", totals.align_cells / 1e6 / n);
  record.Set("alignment.max_mcells", totals.max_cells / 1e6);
  record.Set("classify.ms", totals.classify_ms / n);
  record.Set("exclusiveness.ms", totals.exclusive_ms / n);
  record.Set("determinism.ms", totals.determinism_ms / n);
  record.Set("slice.ms", totals.slice_ms / n);
  record.Set("report.json_kb", totals.json_bytes / 1e3 / n);
  record.Set("report.encode_ms", totals.encode_ms / n);
  record.Set("report.decode_ms", totals.decode_ms / n);
  record.Set("journal.append_ms", totals.journal_ms / n);
  record.Set("journal.kb", totals.journal_bytes / 1e3 / n);
  record.Set("trace.coverage",
             totals.analyze_ms > 0 ? totals.covered_ms / totals.analyze_ms : 0);
  record.Set("trace.mismatches", totals.mismatches);
  record.Set("ok", 1);
  return record;
}

// Untraced Analyze of every sample of `inputs`, each timed: the source of
// analyze.p99_ms and the base of the corpus trace.overhead.
Record AnalyzeOnlyPass(const CorpusInputs& inputs) {
  vaccine::VaccinePipeline pipeline(&inputs.index);
  Record record;
  std::vector<double>& analyze_ms = record.List("analyze_ms");
  const auto start = Clock::now();
  CpuRotation rotation(kRotateEvery, 0);
  for (size_t i = 0; i < inputs.samples.size(); ++i) {
    rotation.Step(i);
    const auto t = Clock::now();
    (void)pipeline.Analyze(inputs.samples[i]);
    analyze_ms.push_back(MsSince(t));
  }
  record.Set("wall_ms", MsSince(start));
  record.Set("ok", 1);
  return record;
}

std::vector<vm::Program> Probe(const std::vector<vm::Program>& samples,
                               size_t count) {
  // Every k-th sample, so the probe keeps the corpus's category mix.
  std::vector<vm::Program> out;
  const size_t stride = std::max<size_t>(samples.size() / count, 1);
  for (size_t i = 0; i < samples.size() && out.size() < count; i += stride) {
    out.push_back(samples[i]);
  }
  return out;
}

}  // namespace

Outcome RunCorpus(const Options& options) {
  Outcome outcome;
  std::vector<double> setup_s;
  const CorpusInputs inputs = SetUp(options, CorpusTotal(options), setup_s);
  const std::vector<Record> passes = RunPasses(
      options, kCorpusPasses,
      [&](size_t pass) { return CorpusPass(options, inputs, pass); },
      [&] { return SetUpAgain(options, CorpusTotal(options), setup_s); });
  if (passes.empty()) {
    outcome.Fail(inputs.samples.size(), "corpus: a pass or set-up crashed");
    return outcome;
  }
  outcome.Set("setup_s", Median(setup_s), "s");
  // Each sample's Analyze time is its mean over the passes, so
  // throughput (the corpus over the sum of those times) is every pass's
  // samples over all their Analyze time, and CPU is likewise pooled.
  const size_t n = inputs.samples.size();
  std::vector<double> latency(n, 0.0);
  double cpu_ms = 0;
  for (const Record& pass : passes) {
    const std::vector<double>& times = pass.List("latency_ms");
    for (size_t i = 0; i < n; ++i) {
      latency[i] += times[i] / static_cast<double>(passes.size());
    }
    cpu_ms += CpuMs(pass);
    outcome.attempted += n;
  }
  const double total_ms = std::accumulate(latency.begin(), latency.end(), 0.0);
  outcome.Set("throughput_per_s", static_cast<double>(n) / (total_ms / 1e3),
              "1/s");
  outcome.Set("latency_p50_ms", Percentile(latency, 0.50), "ms");
  outcome.Set("cpu_ms_per_item",
              cpu_ms / static_cast<double>(n * passes.size()), "ms");
  SetPeakRss(passes, outcome);
  // EXPERIMENTS.md Table IV at the generators' default seed.
  if (options.seed == 2013 && !options.small) {
    for (const Record& pass : passes) {
      if (pass.Get("vaccines") != 491 ||
          pass.Get("vaccinated_samples") != 193) {
        outcome.Fail(1, StrFormat("corpus: %.0f vaccines from %.0f samples, "
                                  "expected 491 from 193",
                                  pass.Get("vaccines"),
                                  pass.Get("vaccinated_samples")));
      }
    }
  }
  CheckPasses(options, inputs, "corpus", passes.size(), outcome);
  return outcome;
}

Outcome RunCampaign(const Options& options) {
  Outcome outcome;
  std::vector<double> setup_s;
  const CorpusInputs inputs = SetUp(options, CorpusTotal(options), setup_s);
  const size_t n = inputs.samples.size();
  std::vector<std::unique_ptr<JournalWatch>> watches;
  const std::vector<Record> passes = RunPasses(
      options, kCampaignPasses,
      [&](size_t pass) {
        return CampaignPass(options, inputs,
                            PassStem(options, "campaign", pass),
                            /*traced=*/false);
      },
      [&] { return SetUpAgain(options, CorpusTotal(options), setup_s); },
      [&](size_t pass) -> std::function<void()> {
        watches.push_back(std::make_unique<JournalWatch>(
            PassStem(options, "campaign", pass) + ".journal", n));
        JournalWatch* watch = watches.back().get();
        return [watch] { watch->Poll(); };
      });
  if (passes.empty()) {
    outcome.Fail(n, "campaign: a pass or set-up failed");
    return outcome;
  }
  outcome.Set("setup_s", Median(setup_s), "s");
  // Each sample's latency (worker start until its journal line is
  // visible) is its median over the passes (with two, their mean).
  std::vector<std::vector<double>> runs(n);
  std::vector<double> rate, cpu;
  for (size_t k = 0; k < passes.size(); ++k) {
    const Record& pass = passes[k];
    watches[k]->Poll();
    const std::vector<double>& starts = pass.List("start_ms");
    const std::vector<double>& done = watches[k]->done_ms();
    uint64_t missing = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i >= starts.size() || starts[i] < 0 || done[i] < starts[i]) {
        ++missing;
        continue;
      }
      runs[i].push_back(done[i] - starts[i]);
    }
    if (missing > 0 || watches[k]->unexpected() > 0) {
      outcome.Fail(missing + watches[k]->unexpected(),
                   StrFormat("campaign: the journal of pass %zu lacks %llu "
                             "timed sample records and has %zu unexpected "
                             "lines",
                             k, static_cast<unsigned long long>(missing),
                             watches[k]->unexpected()));
    }
    rate.push_back(static_cast<double>(n) / (pass.Get("wall_ms") / 1e3));
    cpu.push_back(CpuMs(pass) / static_cast<double>(n));
    outcome.attempted += n;
    if (pass.Get("workers_crashed") != 0) {
      outcome.Fail(static_cast<uint64_t>(pass.Get("workers_crashed")),
                   "campaign: workers crashed");
    }
  }
  std::vector<double> latency;
  for (const std::vector<double>& sample : runs) {
    if (!sample.empty()) latency.push_back(Median(sample));
  }
  outcome.Set("throughput_per_s", Median(rate), "1/s");
  outcome.Set("latency_p50_ms", Percentile(latency, 0.50), "ms");
  outcome.Set("cpu_ms_per_item", Median(cpu), "ms");
  SetPeakRss(passes, outcome);
  CheckPasses(options, inputs, "campaign", passes.size(), outcome);
  return outcome;
}

Outcome TraceCorpus(const Options& options, bool full) {
  Outcome outcome;
  CorpusInputs inputs = MakeInputs(options.seed, CorpusTotal(options));
  // The whole corpus when it is the traced workload, a fixed probe
  // otherwise: the same samples in every build, however fast it runs.
  if (!full) inputs.samples = Probe(inputs.samples, kProbeMirror);
  const auto base = RunInChild([&] { return AnalyzeOnlyPass(inputs); });
  const auto mirror = RunInChild([&] {
    Record record = MirrorPass(options, inputs);
    SaveSpans(options, "corpus");
    return record;
  });
  if (!base || !mirror) {
    outcome.Fail(1, "corpus trace: a pass crashed");
    return outcome;
  }
  const size_t samples = static_cast<size_t>(mirror->Get("samples"));
  static constexpr std::pair<const char*, const char*> kLayers[] = {
      {"vm.run_ms", "ms"},
      {"taint.ms", "ms"},
      {"trace.record_ms", "ms"},
      {"vm.minstr", "Minstr"},
      {"snapshot.capture_ms", "ms"},
      {"snapshot.captures", "count"},
      {"snapshot.capture_mb", "MB"},
      {"snapshot.resumed_share", "share"},
      {"proc.minflt", "count"},
      {"impact.runs", "count"},
      {"impact.full_rerun_share", "share"},
      {"impact.resume_ms", "ms"},
      {"alignment.ms", "ms"},
      {"alignment.mcells", "Mcells"},
      {"alignment.max_mcells", "Mcells"},
      {"classify.ms", "ms"},
      {"exclusiveness.ms", "ms"},
      {"determinism.ms", "ms"},
      {"slice.ms", "ms"},
      {"report.json_kb", "KB"},
      {"report.encode_ms", "ms"},
      {"report.decode_ms", "ms"},
      {"journal.append_ms", "ms"},
      {"journal.kb", "KB"},
      {"trace.coverage", "share"},
      {"trace.mismatches", "count"}};
  for (const auto& [name, unit] : kLayers) {
    outcome.Set(name, mirror->Get(name), unit);
  }
  outcome.Set("analyze.p99_ms", Percentile(base->List("analyze_ms"), 0.99),
              "ms");
  if (full) {
    outcome.Set("trace.overhead",
                mirror->Get("analyze_ms") / base->Get("wall_ms"), "ratio");
  }
  outcome.attempted += samples;
  return outcome;
}

Outcome TraceCampaign(const Options& options, bool full) {
  Outcome outcome;
  CorpusInputs inputs = MakeInputs(options.seed, CorpusTotal(options));
  if (!full) inputs.samples = Probe(inputs.samples, kProbeSamples);
  const double n = static_cast<double>(inputs.samples.size());
  const size_t jobs = Jobs(options);
  std::optional<Record> base;
  if (full) {
    base = RunInChild([&] {
      return CampaignPass(options, inputs, options.workdir + "/tcampaign-base",
                          /*traced=*/false);
    });
  }
  const auto traced = RunInChild([&] {
    Record record = CampaignPass(options, inputs,
                                 options.workdir + "/tcampaign", true);
    SaveSpans(options, "campaign");
    return record;
  });
  if (!traced || traced->Get("ok") != 1 ||
      (full && (!base || base->Get("ok") != 1))) {
    outcome.Fail(inputs.samples.size(), "campaign trace: pass failed");
    return outcome;
  }
  const Record& r = *traced;
  const double wall = r.Get("wall_ms");
  const double workers_cpu = r.Get("child_user_ms") + r.Get("child_sys_ms");
  outcome.Set("supervisor.user_ms", r.Get("self_user_ms") / n, "ms");
  outcome.Set("supervisor.sys_ms", r.Get("self_sys_ms") / n, "ms");
  outcome.Set("supervisor.peak_rss_mb", r.Get("self_rss_mb"), "MB");
  outcome.Set("workers.cpu_ms", workers_cpu / n, "ms");
  outcome.Set("workers.sys_share",
              workers_cpu > 0 ? r.Get("child_sys_ms") / workers_cpu : 0,
              "share");
  outcome.Set("workers.minflt", r.Get("child_minflt") / n, "count");
  outcome.Set("workers.busy_share",
              workers_cpu / (static_cast<double>(jobs) * wall), "share");
  if (full) outcome.Set("trace.overhead", wall / base->Get("wall_ms"), "ratio");
  outcome.attempted += inputs.samples.size();
  return outcome;
}

Outcome TraceFleet(const Options& options) {
  Outcome outcome;
  CorpusInputs inputs = MakeInputs(options.seed, CorpusTotal(options));
  inputs.samples = Probe(inputs.samples, kProbeSamples);
  const double n = static_cast<double>(inputs.samples.size());
  const size_t agents = Jobs(options);
  const auto traced = RunInChild([&] {
    Record record = FleetPass(options, inputs, options.workdir + "/fleet");
    SaveSpans(options, "fleet");
    return record;
  });
  if (!traced || traced->Get("ok") != 1) {
    outcome.Fail(inputs.samples.size(), "fleet trace: pass failed");
    return outcome;
  }
  const Record& r = *traced;
  CheckFleetRecord(r, outcome);
  const double wall = r.Get("wall_ms");
  const double agents_cpu = r.Get("child_user_ms") + r.Get("child_sys_ms");
  outcome.Set("coordinator.user_ms", r.Get("self_user_ms") / n, "ms");
  outcome.Set("coordinator.sys_ms", r.Get("self_sys_ms") / n, "ms");
  outcome.Set("coordinator.requests_per_sample", r.Get("requests") / n,
              "count");
  outcome.Set("agents.cpu_ms", agents_cpu / n, "ms");
  outcome.Set("agents.busy_share",
              agents_cpu / (static_cast<double>(agents) * wall), "share");
  outcome.Set("coordinator.wasted", r.Get("wasted"), "count");
  outcome.Set("ingest.vaccines", r.Get("ingested"), "count");
  outcome.attempted += inputs.samples.size();
  return outcome;
}

}  // namespace perfbench
