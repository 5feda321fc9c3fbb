// Trace (de)serialization.
//
// The paper's differential and determinism analyses run "offline on
// logged traces" (§IV-C); this module gives traces a stable, line-based
// text format so Phase-I logs can be stored, shipped to an analysis
// cluster, and re-parsed. Round-trip is exact for every field the
// analyses consume. Campaign reports carry no trace text, only an
// ApiTraceSummary (digest and call count) computed from the same fields.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/status.h"
#include "trace/trace.h"

namespace autovac::trace {

// Percent-encoding for identifier/parameter payloads (space-, newline-
// and %-safe; everything else passes through).
[[nodiscard]] std::string EncodeField(std::string_view text);
[[nodiscard]] Result<std::string> DecodeField(std::string_view text);

[[nodiscard]] std::string SerializeApiTrace(const ApiTrace& trace);
[[nodiscard]] Result<ApiTrace> ParseApiTrace(std::string_view text);

// What outlives an API trace once the analyses that read it are done: a
// 128-bit digest over every field SerializeApiTrace writes, plus the call
// count. Equal traces give equal summaries, and a change to any one field
// changes the digest, so byte-identity checks on a summary still cover
// the trace it stands for.
struct ApiTraceSummary {
  uint64_t digest_hi = 0;
  uint64_t digest_lo = 0;
  uint64_t calls = 0;

  // False for a default summary, which stands for "no trace recorded"
  // (a trace's digest, the empty trace's included, is all zero only by a
  // 2^-128 accident).
  [[nodiscard]] bool recorded() const {
    return (digest_hi | digest_lo) != 0;
  }
  // The digest as 32 lowercase hex digits.
  [[nodiscard]] std::string DigestHex() const;
  // Sets the digest from DigestHex's form; anything else is an error.
  [[nodiscard]] Status SetDigestHex(std::string_view hex);

  bool operator==(const ApiTraceSummary&) const = default;
};

// MurmurHash3 x64-128 over the trace's fields packed into little-endian
// 64-bit words, length-prefixed where they vary; no text is formatted.
[[nodiscard]] ApiTraceSummary SummarizeApiTrace(const ApiTrace& trace);

[[nodiscard]] std::string SerializeInstructionTrace(
    const InstructionTrace& trace);
[[nodiscard]] Result<InstructionTrace> ParseInstructionTrace(
    std::string_view text);

}  // namespace autovac::trace
