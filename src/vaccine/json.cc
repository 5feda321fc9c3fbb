#include "vaccine/json.h"

#include <cstdlib>

#include "support/digest.h"
#include "support/strings.h"
#include "vm/cpu.h"

namespace autovac::vaccine {
namespace {

constexpr size_t kNumStatusCodes =
    static_cast<size_t>(StatusCode::kDeadlineExceeded) + 1;
constexpr size_t kNumDispositions =
    static_cast<size_t>(SampleDisposition::kQuarantined) + 1;
constexpr size_t kNumIdentifierClasses =
    static_cast<size_t>(analysis::IdentifierClass::kNonDeterministic) + 1;

std::string Quoted(std::string_view text) {
  return '"' + JsonEscape(text) + '"';
}

// Shortest double literal that parses back to the same bits.
std::string DoubleLiteral(double value) {
  std::string out = StrFormat("%.17g", value);
  const std::string shorter = StrFormat("%.15g", value);
  if (std::strtod(shorter.c_str(), nullptr) == value) return shorter;
  return out;
}

Result<uint64_t> EnumField(const JsonValue& json, std::string_view key,
                           size_t limit) {
  AUTOVAC_ASSIGN_OR_RETURN(const uint64_t value,
                           JsonFieldUint64(json, key));
  if (value >= limit) {
    return Status::InvalidArgument(
        StrFormat("%s out of range: %llu", std::string(key).c_str(),
                  static_cast<unsigned long long>(value)));
  }
  return value;
}

std::string SliceToJson(const analysis::VaccineSlice& slice) {
  std::string out = StrFormat(
      "{\"name\":%s,\"entry\":%u,\"output_addr\":%u,\"output_len\":%u,"
      "\"code\":[",
      Quoted(slice.program.name).c_str(), slice.program.entry,
      slice.output_addr, slice.output_len);
  for (size_t i = 0; i < slice.program.code.size(); ++i) {
    const vm::Instruction& inst = slice.program.code[i];
    if (i > 0) out += ",";
    out += StrFormat("[%d,%d,%d,%lld]", static_cast<int>(inst.op),
                     static_cast<int>(inst.r1), static_cast<int>(inst.r2),
                     static_cast<long long>(inst.imm));
  }
  out += "],\"data\":[";
  for (size_t i = 0; i < slice.program.data.size(); ++i) {
    const vm::DataBlob& blob = slice.program.data[i];
    if (i > 0) out += ",";
    out += StrFormat("{\"addr\":%u,\"bytes\":\"", blob.address);
    for (char c : blob.bytes) {
      out += StrFormat("%02x", static_cast<unsigned char>(c));
    }
    out += "\"}";
  }
  out += "]}";
  return out;
}

Result<analysis::VaccineSlice> SliceFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("slice is not an object");
  }
  analysis::VaccineSlice slice;
  AUTOVAC_ASSIGN_OR_RETURN(slice.program.name,
                           JsonFieldString(json, "name"));
  AUTOVAC_ASSIGN_OR_RETURN(const uint64_t entry,
                           JsonFieldUint64(json, "entry"));
  slice.program.entry = static_cast<uint32_t>(entry);
  AUTOVAC_ASSIGN_OR_RETURN(const uint64_t output_addr,
                           JsonFieldUint64(json, "output_addr"));
  slice.output_addr = static_cast<uint32_t>(output_addr);
  AUTOVAC_ASSIGN_OR_RETURN(const uint64_t output_len,
                           JsonFieldUint64(json, "output_len"));
  slice.output_len = static_cast<uint32_t>(output_len);

  const JsonValue* code = json.Find("code");
  if (code == nullptr || !code->is_array()) {
    return Status::InvalidArgument("slice has no code array");
  }
  for (const JsonValue& inst_json : code->array) {
    if (!inst_json.is_array() || inst_json.array.size() != 4) {
      return Status::InvalidArgument("bad slice instruction");
    }
    AUTOVAC_ASSIGN_OR_RETURN(const int64_t op,
                             inst_json.array[0].AsInt64());
    AUTOVAC_ASSIGN_OR_RETURN(const int64_t r1,
                             inst_json.array[1].AsInt64());
    AUTOVAC_ASSIGN_OR_RETURN(const int64_t r2,
                             inst_json.array[2].AsInt64());
    AUTOVAC_ASSIGN_OR_RETURN(const int64_t imm,
                             inst_json.array[3].AsInt64());
    slice.program.code.push_back({static_cast<vm::Op>(op),
                                  static_cast<vm::Reg>(r1),
                                  static_cast<vm::Reg>(r2), imm});
  }
  const JsonValue* data = json.Find("data");
  if (data == nullptr || !data->is_array()) {
    return Status::InvalidArgument("slice has no data array");
  }
  for (const JsonValue& blob_json : data->array) {
    vm::DataBlob blob;
    AUTOVAC_ASSIGN_OR_RETURN(const uint64_t addr,
                             JsonFieldUint64(blob_json, "addr"));
    blob.address = static_cast<uint32_t>(addr);
    AUTOVAC_ASSIGN_OR_RETURN(const std::string hex,
                             JsonFieldString(blob_json, "bytes"));
    if (hex.size() % 2 != 0) {
      return Status::InvalidArgument("odd slice blob hex length");
    }
    auto digit = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    for (size_t i = 0; i < hex.size(); i += 2) {
      const int hi = digit(hex[i]);
      const int lo = digit(hex[i + 1]);
      if (hi < 0 || lo < 0) {
        return Status::InvalidArgument("bad slice blob hex");
      }
      blob.bytes.push_back(static_cast<char>(hi * 16 + lo));
    }
    slice.program.data.push_back(std::move(blob));
  }
  return slice;
}

}  // namespace

std::string StatusToJson(const Status& status) {
  if (status.ok()) return "{\"code\":0}";
  return StrFormat("{\"code\":%d,\"message\":%s}",
                   static_cast<int>(status.code()),
                   Quoted(status.message()).c_str());
}

Status StatusFromJson(const JsonValue& json, Status* out) {
  if (!json.is_object()) {
    return Status::InvalidArgument("status is not an object");
  }
  AUTOVAC_ASSIGN_OR_RETURN(const uint64_t code,
                           EnumField(json, "code", kNumStatusCodes));
  if (code == 0) {
    *out = Status::Ok();
    return Status::Ok();
  }
  std::string message;
  if (const JsonValue* field = json.Find("message"); field != nullptr) {
    AUTOVAC_ASSIGN_OR_RETURN(message, field->AsString());
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::Ok();
}

std::string VaccineToJson(const Vaccine& vaccine) {
  std::string out = StrFormat(
      "{\"malware_name\":%s,\"malware_digest\":%s,"
      "\"resource_type\":%d,\"operation\":%d,\"identifier\":%s,"
      "\"simulate_presence\":%s,\"identifier_kind\":%d,"
      "\"immunization\":%d,\"delivery\":%d,\"pattern\":%s,"
      "\"operations\":%s,\"bdr\":%s",
      Quoted(vaccine.malware_name).c_str(),
      Quoted(vaccine.malware_digest).c_str(),
      static_cast<int>(vaccine.resource_type),
      static_cast<int>(vaccine.operation),
      Quoted(vaccine.identifier).c_str(),
      vaccine.simulate_presence ? "true" : "false",
      static_cast<int>(vaccine.identifier_kind),
      static_cast<int>(vaccine.immunization),
      static_cast<int>(vaccine.delivery),
      Quoted(vaccine.pattern.text()).c_str(),
      Quoted(vaccine.OperationSymbols()).c_str(),
      DoubleLiteral(vaccine.behavior_decreasing_ratio).c_str());
  if (vaccine.slice.has_value()) {
    out += ",\"slice\":" + SliceToJson(*vaccine.slice);
  }
  out += "}";
  return out;
}

Result<Vaccine> VaccineFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("vaccine is not an object");
  }
  Vaccine vaccine;
  AUTOVAC_ASSIGN_OR_RETURN(vaccine.malware_name,
                           JsonFieldString(json, "malware_name"));
  AUTOVAC_ASSIGN_OR_RETURN(vaccine.malware_digest,
                           JsonFieldString(json, "malware_digest"));
  AUTOVAC_ASSIGN_OR_RETURN(
      const uint64_t resource_type,
      EnumField(json, "resource_type", os::kNumResourceTypes));
  vaccine.resource_type = static_cast<os::ResourceType>(resource_type);
  AUTOVAC_ASSIGN_OR_RETURN(const uint64_t operation,
                           EnumField(json, "operation", os::kNumOperations));
  vaccine.operation = static_cast<os::Operation>(operation);
  AUTOVAC_ASSIGN_OR_RETURN(vaccine.identifier,
                           JsonFieldString(json, "identifier"));
  AUTOVAC_ASSIGN_OR_RETURN(vaccine.simulate_presence,
                           JsonFieldBool(json, "simulate_presence"));
  AUTOVAC_ASSIGN_OR_RETURN(
      const uint64_t kind,
      EnumField(json, "identifier_kind", kNumIdentifierClasses));
  vaccine.identifier_kind = static_cast<analysis::IdentifierClass>(kind);
  AUTOVAC_ASSIGN_OR_RETURN(
      const uint64_t immunization,
      EnumField(json, "immunization",
                static_cast<size_t>(
                    analysis::ImmunizationType::kTypeIVProcessInjection) +
                    1));
  vaccine.immunization =
      static_cast<analysis::ImmunizationType>(immunization);
  AUTOVAC_ASSIGN_OR_RETURN(
      const uint64_t delivery,
      EnumField(json, "delivery",
                static_cast<size_t>(DeliveryMethod::kDaemon) + 1));
  vaccine.delivery = static_cast<DeliveryMethod>(delivery);
  AUTOVAC_ASSIGN_OR_RETURN(const std::string pattern_text,
                           JsonFieldString(json, "pattern"));
  AUTOVAC_ASSIGN_OR_RETURN(vaccine.pattern,
                           Pattern::Compile(pattern_text));
  AUTOVAC_ASSIGN_OR_RETURN(const std::string operations,
                           JsonFieldString(json, "operations"));
  for (char c : operations) vaccine.observed_operations.insert(c);
  const JsonValue* bdr = json.Find("bdr");
  if (bdr == nullptr) {
    return Status::InvalidArgument("missing JSON field: bdr");
  }
  AUTOVAC_ASSIGN_OR_RETURN(vaccine.behavior_decreasing_ratio,
                           bdr->AsDouble());
  if (const JsonValue* slice = json.Find("slice"); slice != nullptr) {
    AUTOVAC_ASSIGN_OR_RETURN(vaccine.slice, SliceFromJson(*slice));
  }
  return vaccine;
}

std::string VaccineDigest(const Vaccine& vaccine) {
  return HexDigest128(VaccineToJson(vaccine));
}

std::string SampleReportToJson(const SampleReport& report) {
  std::string out = StrFormat(
      "{\"name\":%s,\"digest\":%s,\"evasion_class\":%s,\"disposition\":%d,"
      "\"resource_api_occurrences\":%zu,\"tainted_occurrences\":%zu,"
      "\"resource_sensitive\":%s,\"phase1_stop\":%d,"
      "\"phase1_status\":%s,\"phase2_status\":%s,"
      "\"targets_considered\":%zu,\"filtered_not_exclusive\":%zu,"
      "\"filtered_no_impact\":%zu,\"filtered_non_deterministic\":%zu,"
      "\"impact_retries\":%zu,\"targets_faulted\":%zu,"
      "\"vaccines_demoted\":%zu,\"faults_injected\":%zu",
      Quoted(report.sample_name).c_str(),
      Quoted(report.sample_digest).c_str(),
      Quoted(report.evasion_class).c_str(),
      static_cast<int>(report.disposition),
      report.resource_api_occurrences, report.tainted_occurrences,
      report.resource_sensitive ? "true" : "false",
      static_cast<int>(report.phase1_stop),
      StatusToJson(report.phase1_status).c_str(),
      StatusToJson(report.phase2_status).c_str(),
      report.targets_considered, report.filtered_not_exclusive,
      report.filtered_no_impact, report.filtered_non_deterministic,
      report.impact_retries, report.targets_faulted,
      report.vaccines_demoted, report.faults_injected);
  out += ",\"vaccines\":[";
  for (size_t i = 0; i < report.vaccines.size(); ++i) {
    if (i > 0) out += ",";
    out += VaccineToJson(report.vaccines[i]);
  }
  // wall_ns is deliberately omitted: the journal and worker protocol
  // carry only deterministic fields (see src/support/tracing.h).
  out += "],\"phase_costs\":[";
  for (size_t i = 0; i < report.phase_costs.size(); ++i) {
    const PhaseTotal& cost = report.phase_costs[i];
    if (i > 0) out += ",";
    out += StrFormat("{\"phase\":%s,\"spans\":%llu,\"ticks\":%llu}",
                     Quoted(cost.name).c_str(),
                     static_cast<unsigned long long>(cost.spans),
                     static_cast<unsigned long long>(cost.ticks));
  }
  out += StrFormat(
      "],\"natural_trace\":{\"digest\":\"%s\",\"calls\":%llu}}",
      report.natural_trace.DigestHex().c_str(),
      static_cast<unsigned long long>(report.natural_trace.calls));
  return out;
}

Result<SampleReport> SampleReportFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("sample report is not an object");
  }
  SampleReport report;
  AUTOVAC_ASSIGN_OR_RETURN(report.sample_name,
                           JsonFieldString(json, "name"));
  AUTOVAC_ASSIGN_OR_RETURN(report.sample_digest,
                           JsonFieldString(json, "digest"));
  AUTOVAC_ASSIGN_OR_RETURN(report.evasion_class,
                           JsonFieldString(json, "evasion_class"));
  AUTOVAC_ASSIGN_OR_RETURN(
      const uint64_t disposition,
      EnumField(json, "disposition", kNumDispositions));
  report.disposition = static_cast<SampleDisposition>(disposition);
  AUTOVAC_ASSIGN_OR_RETURN(
      report.resource_api_occurrences,
      JsonFieldUint64(json, "resource_api_occurrences"));
  AUTOVAC_ASSIGN_OR_RETURN(report.tainted_occurrences,
                           JsonFieldUint64(json, "tainted_occurrences"));
  AUTOVAC_ASSIGN_OR_RETURN(report.resource_sensitive,
                           JsonFieldBool(json, "resource_sensitive"));
  AUTOVAC_ASSIGN_OR_RETURN(
      const uint64_t stop,
      EnumField(json, "phase1_stop", vm::kNumStopReasons));
  report.phase1_stop = static_cast<vm::StopReason>(stop);

  const JsonValue* phase1 = json.Find("phase1_status");
  const JsonValue* phase2 = json.Find("phase2_status");
  if (phase1 == nullptr || phase2 == nullptr) {
    return Status::InvalidArgument("missing phase statuses");
  }
  AUTOVAC_RETURN_IF_ERROR(StatusFromJson(*phase1, &report.phase1_status));
  AUTOVAC_RETURN_IF_ERROR(StatusFromJson(*phase2, &report.phase2_status));

  AUTOVAC_ASSIGN_OR_RETURN(report.targets_considered,
                           JsonFieldUint64(json, "targets_considered"));
  AUTOVAC_ASSIGN_OR_RETURN(report.filtered_not_exclusive,
                           JsonFieldUint64(json, "filtered_not_exclusive"));
  AUTOVAC_ASSIGN_OR_RETURN(report.filtered_no_impact,
                           JsonFieldUint64(json, "filtered_no_impact"));
  AUTOVAC_ASSIGN_OR_RETURN(
      report.filtered_non_deterministic,
      JsonFieldUint64(json, "filtered_non_deterministic"));
  AUTOVAC_ASSIGN_OR_RETURN(report.impact_retries,
                           JsonFieldUint64(json, "impact_retries"));
  AUTOVAC_ASSIGN_OR_RETURN(report.targets_faulted,
                           JsonFieldUint64(json, "targets_faulted"));
  AUTOVAC_ASSIGN_OR_RETURN(report.vaccines_demoted,
                           JsonFieldUint64(json, "vaccines_demoted"));
  AUTOVAC_ASSIGN_OR_RETURN(report.faults_injected,
                           JsonFieldUint64(json, "faults_injected"));

  const JsonValue* vaccines = json.Find("vaccines");
  if (vaccines == nullptr || !vaccines->is_array()) {
    return Status::InvalidArgument("missing vaccines array");
  }
  for (const JsonValue& vaccine_json : vaccines->array) {
    AUTOVAC_ASSIGN_OR_RETURN(Vaccine vaccine,
                             VaccineFromJson(vaccine_json));
    report.vaccines.push_back(std::move(vaccine));
  }

  const JsonValue* costs = json.Find("phase_costs");
  if (costs == nullptr || !costs->is_array()) {
    return Status::InvalidArgument("missing phase_costs array");
  }
  for (const JsonValue& cost_json : costs->array) {
    PhaseTotal cost;
    AUTOVAC_ASSIGN_OR_RETURN(cost.name,
                             JsonFieldString(cost_json, "phase"));
    AUTOVAC_ASSIGN_OR_RETURN(cost.spans,
                             JsonFieldUint64(cost_json, "spans"));
    AUTOVAC_ASSIGN_OR_RETURN(cost.ticks,
                             JsonFieldUint64(cost_json, "ticks"));
    report.phase_costs.push_back(std::move(cost));
  }

  const JsonValue* summary = json.Find("natural_trace");
  if (summary == nullptr || !summary->is_object()) {
    return Status::InvalidArgument(
        "natural_trace is not a trace summary (digest and calls)");
  }
  AUTOVAC_ASSIGN_OR_RETURN(const std::string digest,
                           JsonFieldString(*summary, "digest"));
  AUTOVAC_RETURN_IF_ERROR(report.natural_trace.SetDigestHex(digest));
  AUTOVAC_ASSIGN_OR_RETURN(report.natural_trace.calls,
                           JsonFieldUint64(*summary, "calls"));
  return report;
}

Result<SampleReport> ParseSampleReportJson(std::string_view text) {
  AUTOVAC_ASSIGN_OR_RETURN(const JsonValue json, ParseJson(text));
  return SampleReportFromJson(json);
}

std::string CampaignReportToJson(const CampaignReport& report) {
  std::string out = StrFormat(
      "{\"samples\":%zu,\"samples_failed\":%zu,\"samples_degraded\":%zu,"
      "\"total_vaccines\":%zu,\"total_demoted\":%zu,"
      "\"total_faults_injected\":%zu",
      report.reports.size(), report.samples_failed, report.samples_degraded,
      report.total_vaccines, report.total_demoted,
      report.total_faults_injected);
  out += ",\"phase_costs\":[";
  for (size_t i = 0; i < report.phase_costs.size(); ++i) {
    const PhaseTotal& cost = report.phase_costs[i];
    if (i > 0) out += ",";
    out += StrFormat("{\"phase\":%s,\"spans\":%llu,\"ticks\":%llu}",
                     Quoted(cost.name).c_str(),
                     static_cast<unsigned long long>(cost.spans),
                     static_cast<unsigned long long>(cost.ticks));
  }
  out += "],\"reports\":[";
  for (size_t i = 0; i < report.reports.size(); ++i) {
    if (i > 0) out += ",";
    out += SampleReportToJson(report.reports[i]);
  }
  out += "]}";
  return out;
}

}  // namespace autovac::vaccine
