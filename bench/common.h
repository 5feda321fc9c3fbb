// Shared machinery for the bench harness: every table/figure bench needs
// the benign-trained exclusiveness index and a pipeline sweep over the
// corpus.
#pragma once

#include <memory>
#include <vector>

#include "malware/benign.h"
#include "malware/corpus.h"
#include "support/strings.h"
#include "vaccine/pipeline.h"

namespace autovac::bench {

// Environment variable AUTOVAC_CORPUS_SIZE overrides the corpus size
// (default: the paper's 1,716) so CI can run quick passes.
[[nodiscard]] size_t CorpusSizeFromEnv(size_t fallback = 1716);

// Builds the exclusiveness index by tracing the benign corpus.
[[nodiscard]] analysis::ExclusivenessIndex BuildBenignIndex();

// The seeded Table II corpus (malware::CorpusOptions defaults) of `total`
// samples.
[[nodiscard]] std::vector<malware::CorpusSample> BuildCorpus(size_t total);

struct CorpusAnalysis {
  std::vector<malware::CorpusSample> corpus;
  std::vector<vaccine::SampleReport> reports;  // index-aligned with corpus
};

// Runs the full Phase-I + Phase-II pipeline over a fresh corpus.
[[nodiscard]] CorpusAnalysis AnalyzeCorpus(
    const analysis::ExclusivenessIndex& index, size_t total);

// Percentage helper for report rows.
[[nodiscard]] std::string Pct(double numerator, double denominator);

}  // namespace autovac::bench
