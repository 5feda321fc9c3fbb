// API-trace alignment (the paper's Algorithm 1, after Zeller's program
// alignment): align calls whose execution context — the triple
// <API-name, Caller-PC, parameter list> — is equivalent, and return the
// unaligned difference sets Δm (mutated-only) and Δn (natural-only).
//
// We align with a longest-common-subsequence over the context triples,
// which subsumes the paper's linear anchor search and stays stable when
// the mutation changes an early branch.
//
// Contract of AlignTraces, for traces of n natural and m mutated calls:
//   - Result. Let L(i, j) be the LCS length of natural[i..) and
//     mutated[j..). The alignment walks from (0, 0): when the two heads
//     align (CallsAligned) they are matched; otherwise the natural head
//     goes to Δn iff L(i+1, j) >= L(i, j+1), else the mutated head goes to
//     Δm. Ties therefore drop the natural call first. Every pair of
//     traces, of any size, gets exactly this alignment; there is no size
//     threshold and no approximate fallback.
//   - Time. The shared prefix is matched in O(p) compares; the remaining
//     n' x m' suffixes cost O(n' * m' / 64) word operations (bit-parallel
//     LCS, 64 cells per word) plus O(n + m) hashing.
//   - Memory. O(n + m) words plus about 2 * sqrt(n') * m' / 64 words of
//     LCS checkpoints: a 117k x 117k-call pair needs about 10 MB.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.h"

namespace autovac::analysis {

struct AlignmentOptions {
  // Drop the caller-PC from the context triple (ablation: the paper logs
  // it "for the preciseness").
  bool use_caller_pc = true;
  // Compare the static parameter component (we use the resolved resource
  // identifier, the parameter that is stable across runs).
  bool use_identifier = true;
};

struct Alignment {
  // Pairs of aligned indices (natural_index, mutated_index), ascending.
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  // Unaligned calls, as indices into the respective traces.
  std::vector<uint32_t> delta_natural;   // Δn
  std::vector<uint32_t> delta_mutated;   // Δm

  [[nodiscard]] double MatchRatio(size_t natural_size) const {
    return natural_size == 0
               ? 1.0
               : static_cast<double>(matches.size()) /
                     static_cast<double>(natural_size);
  }
};

[[nodiscard]] Alignment AlignTraces(const trace::ApiTrace& natural,
                                    const trace::ApiTrace& mutated,
                                    const AlignmentOptions& options = {});

// Context-triple equivalence used by the LCS.
[[nodiscard]] bool CallsAligned(const trace::ApiCallRecord& a,
                                const trace::ApiCallRecord& b,
                                const AlignmentOptions& options);

}  // namespace autovac::analysis
