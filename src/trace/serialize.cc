#include "trace/serialize.h"

#include <bit>
#include <cstring>

#include "support/strings.h"

namespace autovac::trace {
namespace {

// A lowercase hex digit's value, or -1.
int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

// Percent-encoding for string fields: bytes outside printable ASCII,
// space and '%' become %XX, so every field is one whitespace-free token.
std::string EncodeField(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c > 0x20 && c < 0x7F && c != '%') {
      out.push_back(c);
    } else {
      out += StrFormat("%%%02X", static_cast<unsigned char>(c));
    }
  }
  if (out.empty()) out = "%00";  // keep empty fields tokenizable
  return out;
}

}  // namespace

std::string SerializeApiTrace(const ApiTrace& trace) {
  std::string out = StrFormat("APITRACE v1 %zu %d %llu\n", trace.calls.size(),
                              static_cast<int>(trace.stop_reason),
                              static_cast<unsigned long long>(
                                  trace.cycles_used));
  for (const ApiCallRecord& call : trace.calls) {
    out += StrFormat(
        "C %u %s %u %d %u %u %d %d %d %u %s %u %u %d %u %d\n", call.sequence,
        EncodeField(call.api_name).c_str(), call.caller_pc,
        call.succeeded ? 1 : 0, call.result, call.last_error,
        call.is_resource_api ? 1 : 0,
        static_cast<int>(call.resource_type),
        static_cast<int>(call.operation),
        static_cast<unsigned>(call.stack_args_used),
        EncodeField(call.resource_identifier).c_str(), call.identifier_addr,
        call.identifier_len, call.taint_reached_predicate ? 1 : 0,
        call.was_forced ? 1 : 0, call.fault_injected ? 1 : 0);
    if (!call.call_stack.empty()) {
      out += "S";
      for (uint32_t pc : call.call_stack) out += StrFormat(" %u", pc);
      out += "\n";
    }
    for (const std::string& param : call.params) {
      out += StrFormat("P %s\n", EncodeField(param).c_str());
    }
    for (const DataFlow& flow : call.flows) {
      out += StrFormat("F %u %u %u %u\n", flow.dst, flow.dst_len, flow.src,
                       flow.src_len);
    }
    for (const DataDefine& define : call.defines) {
      out += StrFormat("D %u %u %d\n", define.dst, define.len,
                       static_cast<int>(define.origin));
    }
    for (const auto& span : call.eax_sources) {
      out += StrFormat("X %u %u\n", span.addr, span.len);
    }
  }
  return out;
}

namespace {

// Streaming MurmurHash3 x64-128 (its block, tail and finalization steps)
// over the little-endian bytes of the 64-bit words fed, with a fixed
// 64-bit seed.
class WordHasher {
 public:
  void Word(uint64_t word) {
    if (!have_pending_) {
      pending_ = word;
      have_pending_ = true;
      return;
    }
    have_pending_ = false;
    h1_ ^= MixK1(pending_);
    h1_ = std::rotl(h1_, 27) + h2_;
    h1_ = h1_ * 5 + 0x52dce729;
    h2_ ^= MixK2(word);
    h2_ = std::rotl(h2_, 31) + h1_;
    h2_ = h2_ * 5 + 0x38495ab5;
    bytes_ += 16;
  }

  // Two 32-bit fields in one word.
  void Pair(uint32_t low, uint32_t high) {
    Word(uint64_t{low} | uint64_t{high} << 32);
  }

  // Length word, then the bytes eight at a time, the last word
  // zero-padded.
  void Bytes(std::string_view bytes) {
    Word(bytes.size());
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
      uint64_t word;
      std::memcpy(&word, bytes.data() + i, 8);
      Word(LittleEndian(word));
    }
    if (i < bytes.size()) {
      uint64_t word = 0;
      std::memcpy(&word, bytes.data() + i, bytes.size() - i);
      Word(LittleEndian(word));
    }
  }

  void Finish(uint64_t* hi, uint64_t* lo) {
    uint64_t h1 = h1_;
    uint64_t h2 = h2_;
    uint64_t length = bytes_;
    if (have_pending_) {
      h1 ^= MixK1(pending_);
      length += 8;
    }
    h1 ^= length;
    h2 ^= length;
    h1 += h2;
    h2 += h1;
    h1 = Fmix(h1);
    h2 = Fmix(h2);
    h1 += h2;
    h2 += h1;
    *hi = h1;
    *lo = h2;
  }

 private:
  static constexpr uint64_t kC1 = 0x87c37b91114253d5ULL;
  static constexpr uint64_t kC2 = 0x4cf5ad432745937fULL;
  static constexpr uint64_t kSeed = 0x4150495452414345ULL;  // "APITRACE"

  static uint64_t LittleEndian(uint64_t word) {
    if constexpr (std::endian::native == std::endian::big) {
      return __builtin_bswap64(word);
    }
    return word;
  }
  static uint64_t MixK1(uint64_t k) {
    return std::rotl(k * kC1, 31) * kC2;
  }
  static uint64_t MixK2(uint64_t k) {
    return std::rotl(k * kC2, 33) * kC1;
  }
  static uint64_t Fmix(uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
  }

  uint64_t h1_ = kSeed;
  uint64_t h2_ = kSeed;
  uint64_t pending_ = 0;
  bool have_pending_ = false;
  uint64_t bytes_ = 0;
};

}  // namespace

std::string ApiTraceSummary::DigestHex() const {
  return StrFormat("%016llx%016llx", static_cast<unsigned long long>(digest_hi),
                   static_cast<unsigned long long>(digest_lo));
}

Status ApiTraceSummary::SetDigestHex(std::string_view hex) {
  if (hex.size() != 32) {
    return Status::InvalidArgument(
        StrFormat("trace digest is %zu characters, not 32 hex digits",
                  hex.size()));
  }
  uint64_t lanes[2] = {0, 0};
  for (size_t i = 0; i < hex.size(); ++i) {
    // Lowercase only, so that the text round-trips byte for byte.
    const int digit = HexDigit(hex[i]);
    if (digit < 0) {
      return Status::InvalidArgument(
          "trace digest is not 32 lowercase hex digits");
    }
    lanes[i / 16] = lanes[i / 16] << 4 | static_cast<uint64_t>(digit);
  }
  digest_hi = lanes[0];
  digest_lo = lanes[1];
  return Status::Ok();
}

ApiTraceSummary SummarizeApiTrace(const ApiTrace& trace) {
  WordHasher hasher;
  hasher.Word(trace.calls.size());
  hasher.Word(static_cast<uint64_t>(trace.stop_reason));
  hasher.Word(trace.cycles_used);
  for (const ApiCallRecord& call : trace.calls) {
    hasher.Pair(call.sequence, call.caller_pc);
    hasher.Pair(call.result, call.last_error);
    hasher.Pair(call.identifier_addr, call.identifier_len);
    hasher.Word(uint64_t{call.succeeded} | uint64_t{call.is_resource_api} << 1 |
                uint64_t{call.taint_reached_predicate} << 2 |
                uint64_t{call.was_forced} << 3 |
                uint64_t{call.fault_injected} << 4 |
                uint64_t{static_cast<uint8_t>(call.resource_type)} << 8 |
                uint64_t{static_cast<uint8_t>(call.operation)} << 16 |
                uint64_t{call.stack_args_used} << 24);
    hasher.Bytes(call.api_name);
    hasher.Bytes(call.resource_identifier);
    hasher.Word(call.call_stack.size());
    for (size_t i = 0; i < call.call_stack.size(); i += 2) {
      hasher.Pair(call.call_stack[i],
                  i + 1 < call.call_stack.size() ? call.call_stack[i + 1] : 0);
    }
    hasher.Word(call.params.size());
    for (const std::string& param : call.params) hasher.Bytes(param);
    hasher.Word(call.flows.size());
    for (const DataFlow& flow : call.flows) {
      hasher.Pair(flow.dst, flow.dst_len);
      hasher.Pair(flow.src, flow.src_len);
    }
    hasher.Word(call.defines.size());
    for (const DataDefine& define : call.defines) {
      hasher.Pair(define.dst, define.len);
      hasher.Word(static_cast<uint64_t>(define.origin));
    }
    hasher.Word(call.eax_sources.size());
    for (const ApiCallRecord::Span& span : call.eax_sources) {
      hasher.Pair(span.addr, span.len);
    }
  }
  ApiTraceSummary summary;
  hasher.Finish(&summary.digest_hi, &summary.digest_lo);
  summary.calls = trace.calls.size();
  return summary;
}

}  // namespace autovac::trace
