// API trace text and digest.
//
// SerializeApiTrace writes a trace as stable, line-based text: the output
// of `autovac trace`, and the field list SummarizeApiTrace digests.
// Nothing parses the text back. The determinism and differential analyses
// read the traces recorded during the run, in memory (§IV-C's "offline"
// analysis runs after the sample has stopped), and campaign reports carry
// no trace text, only an ApiTraceSummary (digest and call count).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/status.h"
#include "trace/trace.h"

namespace autovac::trace {

// One header line, then per call a C record and its S, P, F, D and X
// lines. String fields are percent-encoded: space, newline, '%' and every
// byte outside printable ASCII become %XX, and an empty field is "%00".
[[nodiscard]] std::string SerializeApiTrace(const ApiTrace& trace);

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

}  // namespace autovac::trace
