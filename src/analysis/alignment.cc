#include "analysis/alignment.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <string_view>

namespace autovac::analysis {

bool CallsAligned(const trace::ApiCallRecord& a, const trace::ApiCallRecord& b,
                  const AlignmentOptions& options) {
  if (a.api_name != b.api_name) return false;
  if (options.use_caller_pc && a.caller_pc != b.caller_pc) return false;
  if (options.use_identifier &&
      a.resource_identifier != b.resource_identifier) {
    return false;
  }
  return true;
}

namespace {

using Calls = std::vector<trace::ApiCallRecord>;

// Context id of a natural call whose triple occurs nowhere in the mutated
// suffix: it aligns with nothing.
constexpr uint32_t kUnmatched = UINT32_MAX;

uint64_t Mix(uint64_t h) {  // splitmix64 finalizer
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

// Calls that CallsAligned equates hash equal.
uint64_t ContextHash(const trace::ApiCallRecord& call,
                     const AlignmentOptions& options) {
  uint64_t h = std::hash<std::string_view>{}(call.api_name);
  if (options.use_caller_pc) h = Mix(h ^ call.caller_pc);
  if (options.use_identifier) {
    h = Mix(h ^ std::hash<std::string_view>{}(call.resource_identifier));
  }
  return Mix(h);
}

// Dense context ids of natural[begin..) and mutated[begin..): every
// distinct mutated triple gets an id below `symbols`, and a natural call
// gets its triple's id or kUnmatched. Two calls align iff their ids are
// equal, so the LCS below never compares strings.
struct ContextIds {
  std::vector<uint32_t> natural;
  std::vector<uint32_t> mutated;
  uint32_t symbols = 0;
};

ContextIds InternContexts(const Calls& natural, const Calls& mutated,
                          size_t begin, const AlignmentOptions& options) {
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kUnmatched;
  };
  // Open addressing at load factor <= 1/2, keyed by the triple's hash and
  // confirmed with CallsAligned against the id's first mutated call.
  std::vector<Slot> slots(std::bit_ceil(2 * (mutated.size() - begin)));
  const size_t slot_mask = slots.size() - 1;
  std::vector<size_t> representative;
  auto find = [&](const trace::ApiCallRecord& call, uint64_t hash) -> Slot& {
    for (size_t s = hash & slot_mask;; s = (s + 1) & slot_mask) {
      Slot& slot = slots[s];
      if (slot.id == kUnmatched ||
          (slot.hash == hash &&
           CallsAligned(mutated[representative[slot.id]], call, options))) {
        return slot;
      }
    }
  };

  ContextIds ids;
  ids.mutated.reserve(mutated.size() - begin);
  for (size_t j = begin; j < mutated.size(); ++j) {
    const uint64_t hash = ContextHash(mutated[j], options);
    Slot& slot = find(mutated[j], hash);
    if (slot.id == kUnmatched) {
      slot = {hash, static_cast<uint32_t>(representative.size())};
      representative.push_back(j);
    }
    ids.mutated.push_back(slot.id);
  }
  ids.symbols = static_cast<uint32_t>(representative.size());
  ids.natural.reserve(natural.size() - begin);
  for (size_t i = begin; i < natural.size(); ++i) {
    ids.natural.push_back(
        find(natural[i], ContextHash(natural[i], options)).id);
  }
  return ids;
}

// Bit-parallel LCS rows (Allison–Dix, in Hyyrö's formulation) over the
// reversed mutated suffix. Row r has consumed the last r natural calls;
// bit c of its vector V_r is 0 iff their LCS with the last c + 1 mutated
// calls exceeds their LCS with the last c, so every LCS value is a count
// of zero bits. Advancing V_{r-1} to V_r adds U = V_{r-1} & match, and the
// carry into bit c of that sum is L_r(c) - L_{r-1}(c): 1 exactly when the
// row's natural call is part of every LCS against the last c mutated
// calls. The traceback reads nothing else.
class BitParallelLcs {
 public:
  explicit BitParallelLcs(const ContextIds& ids)
      : words_(ids.mutated.size() / 64 + 1), scratch_(words_, 0) {
    // Per-symbol ascending bit positions; bit k is mutated suffix call
    // size - 1 - k.
    const size_t cols = ids.mutated.size();
    offsets_.assign(ids.symbols + 1, 0);
    for (uint32_t id : ids.mutated) ++offsets_[id + 1];
    for (size_t s = 0; s < ids.symbols; ++s) offsets_[s + 1] += offsets_[s];
    positions_.resize(cols);
    std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (size_t k = 0; k < cols; ++k) {
      positions_[fill[ids.mutated[cols - 1 - k]]++] = static_cast<uint32_t>(k);
    }
    // A symbol with at least a row's worth of positions keeps a dense
    // mask; there are fewer than 64 such symbols, so dense masks cost at
    // most ~m' words where one mask per symbol could cost symbols * m'/64.
    dense_.assign(ids.symbols, kUnmatched);
    for (uint32_t s = 0; s < ids.symbols; ++s) {
      if (offsets_[s + 1] - offsets_[s] < words_) continue;
      dense_[s] = static_cast<uint32_t>(dense_masks_.size() / words_);
      dense_masks_.resize(dense_masks_.size() + words_, 0);
      uint64_t* mask = dense_masks_.data() + dense_[s] * words_;
      for (uint32_t p = offsets_[s]; p < offsets_[s + 1]; ++p) {
        mask[positions_[p] >> 6] |= uint64_t{1} << (positions_[p] & 63);
      }
    }
  }

  // Words per full row: bits 0..m', so the carry into bit m' is kept.
  [[nodiscard]] size_t words() const { return words_; }

  // Advances the low `words` words of V by the row of a natural call with
  // context id `symbol` (not kUnmatched, whose row leaves V unchanged).
  // Low bits never depend on high ones, so a truncated row is exact on
  // its bits. With kCarries, also writes the row's carry vector.
  template <bool kCarries>
  void Advance(uint64_t* v, uint32_t symbol, size_t words, uint64_t* carries) {
    const uint32_t* first = positions_.data() + offsets_[symbol];
    const uint32_t* last = first;
    const uint64_t* match = scratch_.data();
    if (dense_[symbol] != kUnmatched) {
      match = dense_masks_.data() + dense_[symbol] * words_;
    } else {
      const uint32_t* end = positions_.data() + offsets_[symbol + 1];
      for (const uint64_t limit = words * 64; last != end && *last < limit;
           ++last) {
        scratch_[*last >> 6] |= uint64_t{1} << (*last & 63);
      }
    }
    uint64_t carry = 0;
    for (size_t k = 0; k < words; ++k) {
      const uint64_t x = v[k];
      const uint64_t u = x & match[k];
      const uint64_t partial = x + u;
      const uint64_t sum = partial + carry;
      carry = static_cast<uint64_t>(partial < x) |
              static_cast<uint64_t>(sum < partial);
      if constexpr (kCarries) carries[k] = sum ^ x ^ u;
      v[k] = sum | (x & ~match[k]);
    }
    for (const uint32_t* p = first; p != last; ++p) scratch_[*p >> 6] = 0;
  }

 private:
  size_t words_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> positions_;
  std::vector<uint32_t> dense_;  // symbol -> dense mask index, or kUnmatched
  std::vector<uint64_t> dense_masks_;
  std::vector<uint64_t> scratch_;  // sparse symbol's mask, zero between rows
};

size_t CeilSqrt(size_t n) {
  size_t s = 1;
  while (s * s < n) ++s;
  return s;
}

// Continues the traceback at (begin, begin), past the shared prefix, and
// stops when either trace is exhausted; `i` and `j` return where.
void AlignSuffixes(const Calls& natural, const Calls& mutated, size_t begin,
                   const AlignmentOptions& options, Alignment& alignment,
                   size_t& i, size_t& j) {
  const ContextIds ids = InternContexts(natural, mutated, begin, options);
  BitParallelLcs lcs(ids);
  const size_t rows = ids.natural.size();
  const size_t cols = ids.mutated.size();
  const size_t words = lcs.words();
  // Row r consumes natural suffix call rows - r: rows walk the natural
  // suffix backwards. Keep V at every stride-th row; the traceback
  // recomputes one block of rows at a time.
  const size_t stride = CeilSqrt(rows);
  const size_t blocks = (rows + stride - 1) / stride;
  std::vector<uint64_t> checkpoints(blocks * words);
  std::vector<uint64_t> v(words, ~uint64_t{0});
  for (size_t block = 0; block < blocks; ++block) {
    std::copy(v.begin(), v.end(), checkpoints.begin() + block * words);
    if (block + 1 == blocks) break;
    for (size_t r = block * stride + 1; r <= (block + 1) * stride; ++r) {
      const uint32_t symbol = ids.natural[rows - r];
      if (symbol != kUnmatched) {
        lcs.Advance<false>(v.data(), symbol, words, nullptr);
      }
    }
  }

  std::vector<uint64_t> carries(stride * words);
  size_t loaded = blocks;  // block whose carry rows `carries` holds
  size_t row_words = 0;
  size_t x = 0;
  size_t y = 0;
  while (x < rows && y < cols) {
    const uint32_t symbol = ids.natural[x];
    if (symbol == ids.mutated[y]) {
      alignment.matches.emplace_back(static_cast<uint32_t>(begin + x),
                                     static_cast<uint32_t>(begin + y));
      ++x;
      ++y;
      continue;
    }
    bool drop_natural = true;  // an unmatched row's carries are all zero
    if (symbol != kUnmatched) {
      const size_t r = rows - x;
      const size_t c = cols - y;
      const size_t block = (r - 1) / stride;
      if (block != loaded) {
        // Columns only shrink from here on, so rows up to r of this block
        // are needed up to bit c only.
        row_words = c / 64 + 1;
        std::copy_n(checkpoints.begin() + block * words, row_words, v.begin());
        for (size_t row = block * stride + 1; row <= r; ++row) {
          const uint32_t s = ids.natural[rows - row];
          if (s == kUnmatched) continue;
          lcs.Advance<true>(
              v.data(), s, row_words,
              carries.data() + (row - block * stride - 1) * row_words);
        }
        loaded = block;
      }
      const uint64_t* row =
          carries.data() + (r - block * stride - 1) * row_words;
      drop_natural = ((row[c / 64] >> (c % 64)) & 1) == 0;
    }
    if (drop_natural) {
      alignment.delta_natural.push_back(static_cast<uint32_t>(begin + x));
      ++x;
    } else {
      alignment.delta_mutated.push_back(static_cast<uint32_t>(begin + y));
      ++y;
    }
  }
  i = begin + x;
  j = begin + y;
}

}  // namespace

Alignment AlignTraces(const trace::ApiTrace& natural,
                      const trace::ApiTrace& mutated,
                      const AlignmentOptions& options) {
  const size_t n = natural.calls.size();
  const size_t m = mutated.calls.size();
  Alignment alignment;
  // Aligned heads are always matched, so the shared prefix is matched
  // call for call.
  size_t i = 0;
  while (i < n && i < m &&
         CallsAligned(natural.calls[i], mutated.calls[i], options)) {
    alignment.matches.emplace_back(static_cast<uint32_t>(i),
                                   static_cast<uint32_t>(i));
    ++i;
  }
  size_t j = i;
  if (i < n && j < m) {
    AlignSuffixes(natural.calls, mutated.calls, i, options, alignment, i, j);
  }
  for (; i < n; ++i) alignment.delta_natural.push_back(static_cast<uint32_t>(i));
  for (; j < m; ++j) alignment.delta_mutated.push_back(static_cast<uint32_t>(j));
  return alignment;
}

}  // namespace autovac::analysis
