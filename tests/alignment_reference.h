// Reference trace alignment for the differential tests: the full quadratic
// LCS table and traceback that analysis::AlignTraces must reproduce call
// for call (same matches, same Δ sets, same tie-break). Test-only: it
// holds (n + 1) * (m + 1) cells, so keep its inputs small.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/alignment.h"

namespace autovac::analysis::reference {

inline Alignment AlignTraces(const trace::ApiTrace& natural,
                             const trace::ApiTrace& mutated,
                             const AlignmentOptions& options = {}) {
  const size_t n = natural.calls.size();
  const size_t m = mutated.calls.size();
  std::vector<std::vector<uint32_t>> lcs(n + 1,
                                         std::vector<uint32_t>(m + 1, 0));
  for (size_t i = n; i-- > 0;) {
    for (size_t j = m; j-- > 0;) {
      if (CallsAligned(natural.calls[i], mutated.calls[j], options)) {
        lcs[i][j] = lcs[i + 1][j + 1] + 1;
      } else {
        lcs[i][j] = std::max(lcs[i + 1][j], lcs[i][j + 1]);
      }
    }
  }

  Alignment alignment;
  size_t i = 0;
  size_t j = 0;
  while (i < n && j < m) {
    if (CallsAligned(natural.calls[i], mutated.calls[j], options) &&
        lcs[i][j] == lcs[i + 1][j + 1] + 1) {
      alignment.matches.emplace_back(static_cast<uint32_t>(i),
                                     static_cast<uint32_t>(j));
      ++i;
      ++j;
    } else if (lcs[i + 1][j] >= lcs[i][j + 1]) {
      alignment.delta_natural.push_back(static_cast<uint32_t>(i));
      ++i;
    } else {
      alignment.delta_mutated.push_back(static_cast<uint32_t>(j));
      ++j;
    }
  }
  for (; i < n; ++i) alignment.delta_natural.push_back(static_cast<uint32_t>(i));
  for (; j < m; ++j) alignment.delta_mutated.push_back(static_cast<uint32_t>(j));
  return alignment;
}

}  // namespace autovac::analysis::reference
