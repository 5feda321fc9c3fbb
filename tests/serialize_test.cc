// Round-trip tests for the trace and vaccine-package serializers,
// including the property that a parsed instruction trace feeds the
// determinism analysis identically to the live one, and that a parsed
// vaccine slice still replays.
#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <string>
#include <vector>

#include "analysis/determinism.h"
#include "malware/families.h"
#include "sandbox/sandbox.h"
#include "support/strings.h"
#include "trace/serialize.h"
#include "vaccine/delivery.h"
#include "vaccine/json.h"
#include "vaccine/package.h"
#include "vaccine/pipeline.h"

namespace autovac {
namespace {

// ---- field encoding ------------------------------------------------------

TEST(FieldEncoding, RoundTripsArbitraryBytes) {
  const std::string nasty("a b%\\\n\x01\x7F\xFF mutex", 16);
  auto decoded = trace::DecodeField(trace::EncodeField(nasty));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), nasty);
}

TEST(FieldEncoding, EmptyField) {
  EXPECT_EQ(trace::EncodeField(""), "%00");
  auto decoded = trace::DecodeField("%00");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), "");
}

TEST(FieldEncoding, RejectsMalformedEscapes) {
  EXPECT_FALSE(trace::DecodeField("abc%G1").ok());
  EXPECT_FALSE(trace::DecodeField("abc%2").ok());
}

// ---- trace round trips ------------------------------------------------------

sandbox::RunResult RunZeus() {
  auto program = malware::BuildZeus({});
  AUTOVAC_CHECK(program.ok());
  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  sandbox::RunOptions options;
  options.record_instructions = true;
  return sandbox::RunProgram(program.value(), env, options);
}

TEST(ApiTraceSerialize, ExactRoundTrip) {
  auto run = RunZeus();
  const std::string text = trace::SerializeApiTrace(run.api_trace);
  auto parsed = trace::ParseApiTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  ASSERT_EQ(parsed->calls.size(), run.api_trace.calls.size());
  EXPECT_EQ(parsed->stop_reason, run.api_trace.stop_reason);
  EXPECT_EQ(parsed->cycles_used, run.api_trace.cycles_used);
  for (size_t i = 0; i < parsed->calls.size(); ++i) {
    const auto& a = run.api_trace.calls[i];
    const auto& b = parsed->calls[i];
    EXPECT_EQ(a.api_name, b.api_name) << i;
    EXPECT_EQ(a.caller_pc, b.caller_pc) << i;
    EXPECT_EQ(a.call_stack, b.call_stack) << i;
    EXPECT_EQ(a.params, b.params) << i;
    EXPECT_EQ(a.succeeded, b.succeeded) << i;
    EXPECT_EQ(a.result, b.result) << i;
    EXPECT_EQ(a.last_error, b.last_error) << i;
    EXPECT_EQ(a.resource_identifier, b.resource_identifier) << i;
    EXPECT_EQ(a.identifier_addr, b.identifier_addr) << i;
    EXPECT_EQ(a.taint_reached_predicate, b.taint_reached_predicate) << i;
    EXPECT_EQ(a.flows.size(), b.flows.size()) << i;
    EXPECT_EQ(a.defines.size(), b.defines.size()) << i;
    EXPECT_EQ(a.eax_sources.size(), b.eax_sources.size()) << i;
    EXPECT_EQ(a.stack_args_used, b.stack_args_used) << i;
  }
}

TEST(ApiTraceSerialize, RejectsGarbage) {
  EXPECT_FALSE(trace::ParseApiTrace("").ok());
  EXPECT_FALSE(trace::ParseApiTrace("BOGUS v1 0 0 0\n").ok());
  EXPECT_FALSE(trace::ParseApiTrace("APITRACE v1 1 0 0\nC broken\n").ok());
  EXPECT_FALSE(
      trace::ParseApiTrace("APITRACE v1 0 0 0\nP orphan\n").ok());
}

TEST(InstructionTraceSerialize, ExactRoundTrip) {
  auto run = RunZeus();
  const std::string text =
      trace::SerializeInstructionTrace(run.instruction_trace);
  auto parsed = trace::ParseInstructionTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->records.size(), run.instruction_trace.records.size());
  for (size_t i = 0; i < parsed->records.size(); ++i) {
    const auto& a = run.instruction_trace.records[i];
    const auto& b = parsed->records[i];
    EXPECT_EQ(a.step.inst, b.step.inst) << i;
    EXPECT_EQ(a.step.pc, b.step.pc) << i;
    EXPECT_EQ(a.step.u1, b.step.u1) << i;
    EXPECT_EQ(a.step.mem_addr, b.step.mem_addr) << i;
    EXPECT_EQ(a.api_sequence, b.api_sequence) << i;
  }
}

// ---- trace digests --------------------------------------------------------

// Two calls whose every list has two or three elements, so that each
// element and each length has a row below.
trace::ApiTrace DigestFixture() {
  trace::ApiTrace trace;
  trace.stop_reason = vm::StopReason::kHalted;
  trace.cycles_used = 5000;
  for (uint32_t i = 0; i < 2; ++i) {
    trace::ApiCallRecord call;
    call.sequence = i;
    call.api_name = i == 0 ? "CreateMutexA" : "RegOpenKeyExA";
    call.caller_pc = 0x400 + i;
    call.call_stack = {0x100, 0x200 + i, 0x300};
    call.params = {"Global\\marker", "1"};
    call.succeeded = true;
    call.result = 0x40 + i;
    call.last_error = 183;
    call.is_resource_api = true;
    call.resource_type = os::ResourceType::kMutex;
    call.operation = os::Operation::kCreate;
    call.resource_identifier = "Global\\marker";
    call.identifier_addr = 0x2000;
    call.identifier_len = 14;
    call.stack_args_used = 2;
    call.taint_reached_predicate = true;
    call.flows = {{0x3000, 4, 0x2000, 4}, {0x3010, 8, 0x2010, 8}};
    call.defines = {{0x4000, 16, trace::DataOrigin::kEnvironment},
                    {0x4100, 4, trace::DataOrigin::kRandom}};
    call.eax_sources = {{0x5000, 4}, {0x5100, 8}};
    trace.calls.push_back(std::move(call));
  }
  return trace;
}

struct DigestRow {
  std::string field;
  std::function<void(trace::ApiTrace&)> change;
};

// One row per field SerializeApiTrace writes: each call scalar, each
// element and the length of each list, and the trace header. Every row
// changes only its field, in the second call.
std::vector<DigestRow> DigestRows() {
  using Call = trace::ApiCallRecord;
  auto call = [](std::function<void(Call&)> change) {
    return [change](trace::ApiTrace& t) { change(t.calls[1]); };
  };
  std::vector<DigestRow> rows = {
      {"stop_reason",
       [](trace::ApiTrace& t) { t.stop_reason = vm::StopReason::kExited; }},
      {"cycles_used", [](trace::ApiTrace& t) { ++t.cycles_used; }},
      {"calls length", [](trace::ApiTrace& t) { t.calls.pop_back(); }},
      {"sequence", call([](Call& c) { ++c.sequence; })},
      {"api_name", call([](Call& c) { c.api_name += "W"; })},
      {"caller_pc", call([](Call& c) { ++c.caller_pc; })},
      {"succeeded", call([](Call& c) { c.succeeded = false; })},
      {"result", call([](Call& c) { ++c.result; })},
      {"last_error", call([](Call& c) { ++c.last_error; })},
      {"is_resource_api", call([](Call& c) { c.is_resource_api = false; })},
      {"resource_type",
       call([](Call& c) { c.resource_type = os::ResourceType::kFile; })},
      {"operation", call([](Call& c) { c.operation = os::Operation::kOpen; })},
      {"stack_args_used", call([](Call& c) { ++c.stack_args_used; })},
      {"resource_identifier",
       call([](Call& c) { c.resource_identifier.back() = 'X'; })},
      {"identifier_addr", call([](Call& c) { ++c.identifier_addr; })},
      {"identifier_len", call([](Call& c) { ++c.identifier_len; })},
      {"taint_reached_predicate",
       call([](Call& c) { c.taint_reached_predicate = false; })},
      {"was_forced", call([](Call& c) { c.was_forced = true; })},
      {"fault_injected", call([](Call& c) { c.fault_injected = true; })},
      {"call_stack length", call([](Call& c) { c.call_stack.push_back(0); })},
      {"params length", call([](Call& c) { c.params.emplace_back(); })},
      {"flows length", call([](Call& c) { c.flows.pop_back(); })},
      {"defines length", call([](Call& c) { c.defines.pop_back(); })},
      {"eax_sources length", call([](Call& c) { c.eax_sources.pop_back(); })},
  };
  for (size_t i = 0; i < 3; ++i) {
    rows.push_back({"call_stack[" + std::to_string(i) + "]",
                    call([i](Call& c) { ++c.call_stack[i]; })});
  }
  for (size_t i = 0; i < 2; ++i) {
    const std::string at = "[" + std::to_string(i) + "]";
    rows.push_back({"params" + at, call([i](Call& c) { c.params[i] += "x"; })});
    rows.push_back({"flows" + at + ".dst",
                    call([i](Call& c) { ++c.flows[i].dst; })});
    rows.push_back({"flows" + at + ".dst_len",
                    call([i](Call& c) { ++c.flows[i].dst_len; })});
    rows.push_back({"flows" + at + ".src",
                    call([i](Call& c) { ++c.flows[i].src; })});
    rows.push_back({"flows" + at + ".src_len",
                    call([i](Call& c) { ++c.flows[i].src_len; })});
    rows.push_back({"defines" + at + ".dst",
                    call([i](Call& c) { ++c.defines[i].dst; })});
    rows.push_back({"defines" + at + ".len",
                    call([i](Call& c) { ++c.defines[i].len; })});
    rows.push_back({"defines" + at + ".origin", call([i](Call& c) {
                      c.defines[i].origin =
                          c.defines[i].origin == trace::DataOrigin::kRandom
                              ? trace::DataOrigin::kEnvironment
                              : trace::DataOrigin::kRandom;
                    })});
    rows.push_back({"eax_sources" + at + ".addr",
                    call([i](Call& c) { ++c.eax_sources[i].addr; })});
    rows.push_back({"eax_sources" + at + ".len",
                    call([i](Call& c) { ++c.eax_sources[i].len; })});
  }
  return rows;
}

TEST(ApiTraceDigest, EveryFieldChangesTheDigest) {
  const trace::ApiTrace base = DigestFixture();
  const trace::ApiTraceSummary base_summary = trace::SummarizeApiTrace(base);
  EXPECT_TRUE(base_summary.recorded());
  EXPECT_EQ(base_summary.calls, 2u);
  const std::vector<DigestRow> rows = DigestRows();
  EXPECT_EQ(rows.size(), 47u);
  for (const DigestRow& row : rows) {
    SCOPED_TRACE(row.field);
    trace::ApiTrace changed = base;
    row.change(changed);
    // The row changes a field the serializer writes ...
    ASSERT_NE(trace::SerializeApiTrace(changed),
              trace::SerializeApiTrace(base));
    // ... and the digest sees it.
    EXPECT_NE(trace::SummarizeApiTrace(changed).DigestHex(),
              base_summary.DigestHex());
  }
}

// Bytes moved across a string or list boundary change the digest: every
// variable-length field is length-prefixed.
TEST(ApiTraceDigest, FieldBoundariesAreUnambiguous) {
  trace::ApiTrace a = DigestFixture();
  trace::ApiTrace b = a;
  a.calls[0].params = {"ab", "c"};
  b.calls[0].params = {"a", "bc"};
  EXPECT_NE(trace::SummarizeApiTrace(a), trace::SummarizeApiTrace(b));
  a.calls[0].api_name = "CreateMutex";
  a.calls[0].resource_identifier = "AGlobal";
  b.calls[0].api_name = "CreateMutexA";
  b.calls[0].resource_identifier = "Global";
  b.calls[0].params = a.calls[0].params;
  EXPECT_NE(trace::SummarizeApiTrace(a), trace::SummarizeApiTrace(b));
  // A list that ends in the padding value is still longer.
  b = a;
  b.calls[0].call_stack.push_back(0);
  EXPECT_NE(trace::SummarizeApiTrace(a), trace::SummarizeApiTrace(b));
}

TEST(ApiTraceDigest, IdenticalRunsGiveTheSameDigest) {
  const trace::ApiTrace first = RunZeus().api_trace;
  const trace::ApiTrace second = RunZeus().api_trace;
  ASSERT_GT(first.calls.size(), 0u);
  const trace::ApiTraceSummary summary = trace::SummarizeApiTrace(first);
  EXPECT_TRUE(summary.recorded());
  EXPECT_EQ(summary.calls, first.calls.size());
  EXPECT_EQ(summary, trace::SummarizeApiTrace(second));
  // The digest covers exactly what the text carries: a trace parsed back
  // from its text has the live trace's digest.
  auto parsed = trace::ParseApiTrace(trace::SerializeApiTrace(first));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(trace::SummarizeApiTrace(*parsed), summary);
}

// The digest is part of every report and journal line, so its value is
// pinned: a change here orphans every journal written before it. The
// empty trace is three zero words, and its digest is the reference
// MurmurHash3 x64-128 of 24 zero bytes under the hasher's seed.
TEST(ApiTraceDigest, KnownAnswer) {
  EXPECT_EQ(trace::SummarizeApiTrace(trace::ApiTrace{}).DigestHex(),
            "470750f65b3130335b56ac894bbce8e6");
  EXPECT_EQ(trace::SummarizeApiTrace(DigestFixture()).DigestHex(),
            "d8193440c7e5809f92e97e130fa6f9f7");
}

TEST(ApiTraceDigest, HexRoundTripsAndRejectsOtherForms) {
  const trace::ApiTraceSummary summary =
      trace::SummarizeApiTrace(DigestFixture());
  trace::ApiTraceSummary back;
  ASSERT_TRUE(back.SetDigestHex(summary.DigestHex()).ok());
  EXPECT_EQ(back.DigestHex(), summary.DigestHex());
  EXPECT_EQ(trace::ApiTraceSummary{}.DigestHex(), std::string(32, '0'));
  const std::string hex = summary.DigestHex();
  std::string upper = hex;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  for (const std::string& bad :
       {std::string(), hex.substr(1), hex + "0", "g" + hex.substr(1),
        " " + hex.substr(1), upper == hex ? "A" + hex.substr(1) : upper}) {
    trace::ApiTraceSummary parsed;
    EXPECT_FALSE(parsed.SetDigestHex(bad).ok()) << bad;
    EXPECT_FALSE(parsed.recorded()) << bad;
  }
}

// A report's summary is strict on the way in: a malformed digest, or the
// quoted trace text an older report carried, is an error, not a crash.
TEST(ReportTraceSummary, MalformedSummariesAreRefused) {
  auto program = malware::BuildZeus({});
  ASSERT_TRUE(program.ok());
  vaccine::VaccinePipeline pipeline(nullptr);
  const vaccine::SampleReport report = pipeline.Analyze(program.value());
  ASSERT_TRUE(report.natural_trace.recorded());
  const std::string json = vaccine::SampleReportToJson(report);
  auto back = vaccine::ParseSampleReportJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->natural_trace, report.natural_trace);

  const std::string digest = report.natural_trace.DigestHex();
  const std::string summary = "\"natural_trace\":{\"digest\":\"" + digest +
                              "\",\"calls\":" +
                              std::to_string(report.natural_trace.calls) +
                              "}";
  ASSERT_NE(json.find(summary), std::string::npos) << json;
  const auto with_summary = [&](const std::string& replacement) {
    std::string mutated = json;
    mutated.replace(mutated.find(summary), summary.size(), replacement);
    return mutated;
  };
  const std::string text = trace::SerializeApiTrace(RunZeus().api_trace);
  const std::vector<std::string> bad_summaries = {
      // Not 32 hex digits.
      "\"natural_trace\":{\"digest\":\"" + digest.substr(2) +
          "\",\"calls\":1}",
      "\"natural_trace\":{\"digest\":\"" + digest + "00\",\"calls\":1}",
      "\"natural_trace\":{\"digest\":\"" + std::string(32, 'z') +
          "\",\"calls\":1}",
      "\"natural_trace\":{\"digest\":7,\"calls\":1}",
      "\"natural_trace\":{\"calls\":1}",
      "\"natural_trace\":{\"digest\":\"" + digest + "\"}",
      "\"natural_trace\":{\"digest\":\"" + digest + "\",\"calls\":-1}",
      // The old form: the quoted trace text.
      "\"natural_trace\":\"" + JsonEscape(text) + "\"",
      "\"natural_trace\":null",
      "\"nothing\":0",
  };
  for (const std::string& bad : bad_summaries) {
    auto parsed = vaccine::ParseSampleReportJson(with_summary(bad));
    EXPECT_FALSE(parsed.ok()) << bad;
  }
}

// Offline property (the paper's workflow): determinism analysis over the
// PARSED traces produces the same classification as over the live ones.
TEST(OfflineAnalysis, DeterminismFromSerializedTraces) {
  auto program = malware::BuildConficker({});
  AUTOVAC_CHECK(program.ok());
  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  sandbox::RunOptions options;
  options.record_instructions = true;
  auto live = sandbox::RunProgram(program.value(), env, options);

  auto api = trace::ParseApiTrace(trace::SerializeApiTrace(live.api_trace));
  auto inst = trace::ParseInstructionTrace(
      trace::SerializeInstructionTrace(live.instruction_trace));
  ASSERT_TRUE(api.ok());
  ASSERT_TRUE(inst.ok());

  // Find the derived-mutex anchor in both views and compare reports.
  uint32_t anchor = UINT32_MAX;
  for (const auto& call : live.api_trace.calls) {
    if (call.api_name == "OpenMutexA" && call.identifier_addr != 0) {
      anchor = call.sequence;
      break;
    }
  }
  ASSERT_NE(anchor, UINT32_MAX);
  auto live_report = analysis::AnalyzeIdentifier(live.instruction_trace,
                                                 live.api_trace, anchor);
  auto offline_report =
      analysis::AnalyzeIdentifier(inst.value(), api.value(), anchor);
  ASSERT_TRUE(live_report.ok());
  ASSERT_TRUE(offline_report.ok());
  EXPECT_EQ(live_report->cls, offline_report->cls);
  EXPECT_EQ(live_report->identifier, offline_report->identifier);
  EXPECT_EQ(live_report->origin_map, offline_report->origin_map);
  EXPECT_EQ(live_report->slice_records, offline_report->slice_records);
}

// ---- vaccine packages ----------------------------------------------------------

TEST(VaccinePackage, RoundTripIncludingSlice) {
  auto program = malware::BuildConficker({});
  AUTOVAC_CHECK(program.ok());
  vaccine::VaccinePipeline pipeline(nullptr);
  auto report = pipeline.Analyze(program.value());
  ASSERT_FALSE(report.vaccines.empty());

  const std::string package = vaccine::SerializePackage(report.vaccines);
  auto parsed = vaccine::ParsePackage(package);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), report.vaccines.size());

  for (size_t i = 0; i < parsed->size(); ++i) {
    const vaccine::Vaccine& a = report.vaccines[i];
    const vaccine::Vaccine& b = (*parsed)[i];
    EXPECT_EQ(a.identifier, b.identifier);
    EXPECT_EQ(a.resource_type, b.resource_type);
    EXPECT_EQ(a.simulate_presence, b.simulate_presence);
    EXPECT_EQ(a.identifier_kind, b.identifier_kind);
    EXPECT_EQ(a.immunization, b.immunization);
    EXPECT_EQ(a.delivery, b.delivery);
    EXPECT_EQ(a.pattern.text(), b.pattern.text());
    EXPECT_EQ(a.OperationSymbols(), b.OperationSymbols());
    EXPECT_EQ(a.slice.has_value(), b.slice.has_value());
  }
}

TEST(VaccinePackage, ParsedSliceStillReplays) {
  auto program = malware::BuildConficker({});
  AUTOVAC_CHECK(program.ok());
  vaccine::VaccinePipeline pipeline(nullptr);
  auto report = pipeline.Analyze(program.value());

  auto parsed =
      vaccine::ParsePackage(vaccine::SerializePackage(report.vaccines));
  ASSERT_TRUE(parsed.ok());

  const vaccine::Vaccine* derived = nullptr;
  for (const auto& v : *parsed) {
    if (v.slice.has_value()) derived = &v;
  }
  ASSERT_NE(derived, nullptr);

  // The shipped slice computes the right marker on a new machine.
  Rng rng(31);
  os::HostEnvironment host = os::HostEnvironment::RandomizedMachine(rng);
  const std::string replayed =
      vaccine::VaccineDaemon::ReplaySlice(*derived->slice, host);
  EXPECT_EQ(replayed.substr(0, 7), "Global\\");
  EXPECT_NE(replayed, derived->identifier);  // host-specific

  // And installing the parsed package protects the machine.
  vaccine::VaccineDaemon daemon;
  for (const auto& v : *parsed) daemon.AddVaccine(v);
  daemon.Install(host);
  sandbox::RunOptions options;
  options.enable_taint = false;
  auto attack = sandbox::RunProgram(program.value(), host, options,
                                    {daemon.Hook()});
  EXPECT_EQ(attack.stop_reason, vm::StopReason::kExited);
}

TEST(VaccinePackage, RejectsGarbage) {
  EXPECT_FALSE(vaccine::ParsePackage("").ok());
  EXPECT_FALSE(vaccine::ParsePackage("NOTAPKG v1 0\n").ok());
  EXPECT_FALSE(
      vaccine::ParsePackage("VACCINEPKG v1 1\nI 1 2 3 4\n").ok());
  EXPECT_FALSE(
      vaccine::ParsePackage("VACCINEPKG v1 1\nV short\n").ok());
}

TEST(VaccinePackage, EmptyPackage) {
  auto parsed = vaccine::ParsePackage(vaccine::SerializePackage({}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

}  // namespace
}  // namespace autovac
