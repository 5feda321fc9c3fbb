#include "trace/serialize.h"

#include <bit>
#include <cctype>
#include <cstring>

#include "support/strings.h"

namespace autovac::trace {
namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Splits one line into whitespace-separated tokens.
std::vector<std::string> Tokens(std::string_view line) {
  return StrSplit(line, " \t");
}

bool ParseU32(const std::string& token, uint32_t* out) {
  uint64_t value = 0;
  if (!ParseUint64(token, &value) || value > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(value);
  return true;
}

}  // namespace

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

Result<std::string> DecodeField(std::string_view text) {
  if (text == "%00") return std::string();
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out.push_back(text[i]);
      continue;
    }
    if (i + 2 >= text.size()) {
      return Status::InvalidArgument("truncated %-escape");
    }
    const int hi = HexDigit(text[i + 1]);
    const int lo = HexDigit(text[i + 2]);
    if (hi < 0 || lo < 0) return Status::InvalidArgument("bad %-escape");
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

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
    const int digit = std::isupper(static_cast<unsigned char>(hex[i]))
                          ? -1
                          : HexDigit(hex[i]);
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

Result<ApiTrace> ParseApiTrace(std::string_view text) {
  ApiTrace trace;
  ApiCallRecord* current = nullptr;
  bool saw_header = false;

  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos
                             ? std::string_view::npos
                             : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    if (line.empty()) continue;
    auto tokens = Tokens(line);

    if (!saw_header) {
      if (tokens.size() < 5 || tokens[0] != "APITRACE" || tokens[1] != "v1") {
        return Status::InvalidArgument("bad APITRACE header");
      }
      int64_t stop = 0;
      uint64_t cycles = 0;
      if (!ParseInt64(tokens[3], &stop) || !ParseUint64(tokens[4], &cycles)) {
        return Status::InvalidArgument("bad header numbers");
      }
      trace.stop_reason = static_cast<vm::StopReason>(stop);
      trace.cycles_used = cycles;
      saw_header = true;
      continue;
    }

    if (tokens[0] == "C") {
      // 16 tokens = legacy records without the fault-injected flag.
      if (tokens.size() != 16 && tokens.size() != 17) {
        return Status::InvalidArgument("bad C record: " + std::string(line));
      }
      ApiCallRecord call;
      uint32_t fields[13];
      // sequence, caller_pc, succeeded, result, last_error, is_resource,
      // type, op, args, id_addr, id_len, tainted, forced
      const int indices[] = {1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15};
      for (int i = 0; i < 13; ++i) {
        if (!ParseU32(tokens[indices[i]], &fields[i])) {
          return Status::InvalidArgument("bad C field");
        }
      }
      if (tokens.size() == 17) {
        uint32_t faulted = 0;
        if (!ParseU32(tokens[16], &faulted)) {
          return Status::InvalidArgument("bad C field");
        }
        call.fault_injected = faulted != 0;
      }
      auto name = DecodeField(tokens[2]);
      auto identifier = DecodeField(tokens[11]);
      if (!name.ok() || !identifier.ok()) {
        return Status::InvalidArgument("bad C strings");
      }
      call.sequence = fields[0];
      call.api_name = name.value();
      call.caller_pc = fields[1];
      call.succeeded = fields[2] != 0;
      call.result = fields[3];
      call.last_error = fields[4];
      call.is_resource_api = fields[5] != 0;
      call.resource_type = static_cast<os::ResourceType>(fields[6]);
      call.operation = static_cast<os::Operation>(fields[7]);
      call.stack_args_used = static_cast<uint8_t>(fields[8]);
      call.resource_identifier = identifier.value();
      call.identifier_addr = fields[9];
      call.identifier_len = fields[10];
      call.taint_reached_predicate = fields[11] != 0;
      call.was_forced = fields[12] != 0;
      trace.calls.push_back(std::move(call));
      current = &trace.calls.back();
      continue;
    }

    if (current == nullptr) {
      return Status::InvalidArgument("record before first call: " +
                                     std::string(line));
    }
    if (tokens[0] == "S") {
      for (size_t i = 1; i < tokens.size(); ++i) {
        uint32_t pc = 0;
        if (!ParseU32(tokens[i], &pc)) {
          return Status::InvalidArgument("bad S field");
        }
        current->call_stack.push_back(pc);
      }
    } else if (tokens[0] == "P" && tokens.size() == 2) {
      AUTOVAC_ASSIGN_OR_RETURN(std::string param, DecodeField(tokens[1]));
      current->params.push_back(std::move(param));
    } else if (tokens[0] == "F" && tokens.size() == 5) {
      DataFlow flow;
      if (!ParseU32(tokens[1], &flow.dst) ||
          !ParseU32(tokens[2], &flow.dst_len) ||
          !ParseU32(tokens[3], &flow.src) ||
          !ParseU32(tokens[4], &flow.src_len)) {
        return Status::InvalidArgument("bad F record");
      }
      current->flows.push_back(flow);
    } else if (tokens[0] == "D" && tokens.size() == 4) {
      DataDefine define;
      uint32_t origin = 0;
      if (!ParseU32(tokens[1], &define.dst) ||
          !ParseU32(tokens[2], &define.len) ||
          !ParseU32(tokens[3], &origin)) {
        return Status::InvalidArgument("bad D record");
      }
      define.origin = static_cast<DataOrigin>(origin);
      current->defines.push_back(define);
    } else if (tokens[0] == "X" && tokens.size() == 3) {
      ApiCallRecord::Span span;
      if (!ParseU32(tokens[1], &span.addr) ||
          !ParseU32(tokens[2], &span.len)) {
        return Status::InvalidArgument("bad X record");
      }
      current->eax_sources.push_back(span);
    } else {
      return Status::InvalidArgument("unknown record: " + std::string(line));
    }
  }
  if (!saw_header) return Status::InvalidArgument("empty trace");
  return trace;
}

std::string SerializeInstructionTrace(const InstructionTrace& trace) {
  std::string out =
      StrFormat("INSTTRACE v1 %zu\n", trace.records.size());
  for (const InstructionRecord& record : trace.records) {
    const vm::StepInfo& step = record.step;
    out += StrFormat("I %u %d %d %d %lld %u %u %u %u %u %d %u\n", step.pc,
                     static_cast<int>(step.inst.op),
                     static_cast<int>(step.inst.r1),
                     static_cast<int>(step.inst.r2),
                     static_cast<long long>(step.inst.imm), step.u1, step.u2,
                     step.mem_addr, step.mem_size, step.result,
                     step.branch_taken ? 1 : 0, record.api_sequence);
  }
  return out;
}

Result<InstructionTrace> ParseInstructionTrace(std::string_view text) {
  InstructionTrace trace;
  bool saw_header = false;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos
                             ? std::string_view::npos
                             : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    if (line.empty()) continue;
    auto tokens = Tokens(line);
    if (!saw_header) {
      if (tokens.size() < 3 || tokens[0] != "INSTTRACE" ||
          tokens[1] != "v1") {
        return Status::InvalidArgument("bad INSTTRACE header");
      }
      saw_header = true;
      continue;
    }
    if (tokens[0] != "I" || tokens.size() != 13) {
      return Status::InvalidArgument("bad I record: " + std::string(line));
    }
    InstructionRecord record;
    vm::StepInfo& step = record.step;
    uint32_t op = 0;
    int64_t r1 = 0;
    int64_t r2 = 0;
    int64_t imm = 0;
    uint32_t branch = 0;
    if (!ParseU32(tokens[1], &step.pc) || !ParseU32(tokens[2], &op) ||
        !ParseInt64(tokens[3], &r1) || !ParseInt64(tokens[4], &r2) ||
        !ParseInt64(tokens[5], &imm) || !ParseU32(tokens[6], &step.u1) ||
        !ParseU32(tokens[7], &step.u2) ||
        !ParseU32(tokens[8], &step.mem_addr) ||
        !ParseU32(tokens[9], &step.mem_size) ||
        !ParseU32(tokens[10], &step.result) ||
        !ParseU32(tokens[11], &branch) ||
        !ParseU32(tokens[12], &record.api_sequence)) {
      return Status::InvalidArgument("bad I fields");
    }
    step.inst.op = static_cast<vm::Op>(op);
    step.inst.r1 = static_cast<vm::Reg>(r1);
    step.inst.r2 = static_cast<vm::Reg>(r2);
    step.inst.imm = imm;
    step.branch_taken = branch != 0;
    trace.records.push_back(record);
  }
  if (!saw_header) return Status::InvalidArgument("empty trace");
  return trace;
}

}  // namespace autovac::trace
