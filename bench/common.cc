#include "bench/common.h"

#include <cstdlib>

#include "support/strings.h"

namespace autovac::bench {

size_t CorpusSizeFromEnv(size_t fallback) {
  const char* value = std::getenv("AUTOVAC_CORPUS_SIZE");
  if (value == nullptr) return fallback;
  uint64_t parsed = 0;
  if (!ParseUint64(value, &parsed) || parsed == 0) return fallback;
  return static_cast<size_t>(parsed);
}

analysis::ExclusivenessIndex BuildBenignIndex() {
  analysis::ExclusivenessIndex index;
  auto corpus = malware::BuildBenignCorpus();
  AUTOVAC_CHECK_MSG(corpus.ok(), "benign corpus failed to assemble");
  for (const vm::Program& program : corpus.value()) {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    sandbox::RunOptions options;
    options.enable_taint = false;
    auto run = sandbox::RunProgram(program, env, options);
    index.IndexBenignTrace(program.name, run.api_trace);
  }
  return index;
}

std::vector<malware::CorpusSample> BuildCorpus(size_t total) {
  malware::CorpusOptions options;
  options.total = total;
  auto corpus = malware::GenerateCorpus(options);
  AUTOVAC_CHECK_MSG(corpus.ok(), "corpus failed to assemble");
  return std::move(corpus).value();
}

CorpusAnalysis AnalyzeCorpus(const analysis::ExclusivenessIndex& index,
                             size_t total) {
  CorpusAnalysis out;
  out.corpus = BuildCorpus(total);

  vaccine::VaccinePipeline pipeline(&index);
  out.reports.reserve(out.corpus.size());
  for (const malware::CorpusSample& sample : out.corpus) {
    out.reports.push_back(pipeline.Analyze(sample.program));
  }
  return out;
}

std::string Pct(double numerator, double denominator) {
  if (denominator == 0) return "0%";
  return StrFormat("%.1f%%", 100.0 * numerator / denominator);
}

}  // namespace autovac::bench
