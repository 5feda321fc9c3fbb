// Durable-campaign throughput: the supervisor's forked-worker sharding
// (campaign/supervisor.h) against the single-process baseline over the
// same generated corpus. The contract being measured is "isolation and
// parallelism are free of semantic cost": the multi-worker
// CampaignReport must be byte-identical to the in-process one, and the
// fsync'd write-ahead journal must cost little next to analysis. Each
// mode also records the mean bytes per sample of a report's JSON and of
// its journal, the bytes every forked worker ships and the supervisor
// parses and fsyncs (tools/check_bench.py --max-report-kb gates both).
// Corpus size override: AUTOVAC_CORPUS_SIZE; worker count:
// AUTOVAC_BENCH_JOBS.
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "campaign/supervisor.h"
#include "vaccine/json.h"

using namespace autovac;

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

size_t JobsFromEnv() {
  if (const char* env = std::getenv("AUTOVAC_BENCH_JOBS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 1) return static_cast<size_t>(parsed);
  }
  const size_t cores = std::thread::hardware_concurrency();
  return std::clamp<size_t>(cores, 2, 8);
}

struct Row {
  std::string name;
  double wall_ms = 0;
  std::string report_json;
  campaign::CampaignRunStats stats;
  double report_bytes = 0;   // mean SampleReportToJson size per sample
  double journal_bytes = 0;  // journal file size per sample; 0 without one
};

Row RunOnce(const std::string& name,
            const vaccine::VaccinePipeline& pipeline,
            const std::vector<vm::Program>& samples,
            const campaign::CampaignOptions& options) {
  Row row;
  row.name = name;
  const auto start = Clock::now();
  auto run = campaign::RunDurableCampaign(pipeline, samples, options);
  row.wall_ms = MillisSince(start);
  AUTOVAC_CHECK(run.ok());
  row.report_json = vaccine::CampaignReportToJson(run->report);
  row.stats = run->stats;
  const double n = static_cast<double>(std::max<size_t>(samples.size(), 1));
  for (const vaccine::SampleReport& report : run->report.reports) {
    row.report_bytes +=
        static_cast<double>(vaccine::SampleReportToJson(report).size()) / n;
  }
  struct stat journal;
  if (!options.journal_path.empty() &&
      ::stat(options.journal_path.c_str(), &journal) == 0) {
    row.journal_bytes = static_cast<double>(journal.st_size) / n;
  }
  return row;
}

// Machine-readable sibling of the printed report (perf_generation.cc
// idiom). Path override: AUTOVAC_BENCH_OUT.
void WriteBenchJson(size_t samples, size_t jobs,
                    const std::vector<Row>& rows) {
  const char* env_path = std::getenv("AUTOVAC_BENCH_OUT");
  const std::string path =
      env_path != nullptr ? env_path : "BENCH_campaign.json";
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"bench\":\"campaign\",\"samples\":" << samples
      << ",\"jobs\":" << jobs << ",\"modes\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (i > 0) out << ",";
    out << "{\"mode\":\"" << JsonEscape(row.name) << "\",\"wall_ms\":"
        << StrFormat("%.3f", row.wall_ms)
        << ",\"samples_analyzed\":" << row.stats.samples_analyzed
        << ",\"workers_crashed\":" << row.stats.workers_crashed
        << ",\"report_bytes_per_sample\":"
        << StrFormat("%.1f", row.report_bytes)
        << ",\"journal_bytes_per_sample\":"
        << StrFormat("%.1f", row.journal_bytes) << "}";
  }
  out << "]}\n";
  std::printf("bench telemetry written to %s\n", path.c_str());
}

}  // namespace

int main() {
  const size_t total = std::min<size_t>(bench::CorpusSizeFromEnv(), 48);
  const size_t jobs = JobsFromEnv();
  auto index = bench::BuildBenignIndex();

  malware::CorpusOptions corpus_options;
  corpus_options.total = total;
  auto corpus = malware::GenerateCorpus(corpus_options);
  AUTOVAC_CHECK(corpus.ok());
  std::vector<vm::Program> samples;
  samples.reserve(corpus->size());
  for (const malware::CorpusSample& sample : corpus.value()) {
    samples.push_back(sample.program);
  }

  vaccine::VaccinePipeline pipeline(&index);
  const std::string journal_path = "perf_campaign_journal.jsonl";

  std::vector<Row> rows;

  campaign::CampaignOptions baseline;
  rows.push_back(RunOnce("in-process jobs=1", pipeline, samples, baseline));

  campaign::CampaignOptions journaled;
  journaled.journal_path = journal_path;
  rows.push_back(
      RunOnce("jobs=1 + fsync journal", pipeline, samples, journaled));
  std::remove(journal_path.c_str());

  campaign::CampaignOptions forked;
  forked.force_worker_isolation = true;
  rows.push_back(RunOnce("forked jobs=1", pipeline, samples, forked));

  campaign::CampaignOptions parallel;
  parallel.jobs = jobs;
  parallel.journal_path = journal_path;
  rows.push_back(RunOnce(StrFormat("forked jobs=%zu + journal", jobs),
                         pipeline, samples, parallel));
  std::remove(journal_path.c_str());

  // The whole point of the supervisor: every mode yields the same bytes.
  for (const Row& row : rows) {
    AUTOVAC_CHECK(row.report_json == rows[0].report_json);
  }

  const double base_ms = rows[0].wall_ms;
  std::printf("== durable campaign throughput (%zu samples) ==\n", total);
  for (const Row& row : rows) {
    std::printf(
        "  %-26s %9.1f ms  %5.2fx  (%zu analyzed, %zu crashes, "
        "%.2f KB report, %.2f KB journal per sample)\n",
        row.name.c_str(), row.wall_ms, base_ms / row.wall_ms,
        row.stats.samples_analyzed, row.stats.workers_crashed,
        row.report_bytes / 1e3, row.journal_bytes / 1e3);
  }
  std::printf("campaign reports byte-identical across all %zu modes\n",
              rows.size());
  WriteBenchJson(total, jobs, rows);
  return 0;
}
