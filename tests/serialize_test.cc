// The API trace text (its escaping), the trace digest, and vaccine
// packages: a package round-trips byte for byte, keeps every vaccine's
// digest, refuses what is not a version-2 package, and a parsed slice
// still replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

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

// ---- trace text ------------------------------------------------------------

// The lines of the text of a one-call trace whose string fields all hold
// `text`: the header, the C record and the P record.
std::vector<std::string> OneCallTraceLines(const std::string& text) {
  trace::ApiCallRecord call;
  call.api_name = text;
  call.resource_identifier = text;
  call.params = {text};
  trace::ApiTrace trace;
  trace.calls.push_back(call);
  return StrSplit(trace::SerializeApiTrace(trace), "\n");
}

TEST(FieldEncoding, EscapesSeparatorsAndNonPrintableBytes) {
  const std::string nasty("a b%\\\n\x01\x7F\xFF mutex", 16);
  const std::string encoded = "a%20b%25\\%0A%01%7F%FF%20mutex%00";
  const std::vector<std::string> lines = OneCallTraceLines(nasty);
  ASSERT_EQ(lines.size(), 3u);
  const std::vector<std::string> record = StrSplit(lines[1], " ");
  ASSERT_EQ(record.size(), 17u) << lines[1];
  EXPECT_EQ(record[0], "C");
  EXPECT_EQ(record[2], encoded);   // api_name
  EXPECT_EQ(record[11], encoded);  // resource_identifier
  EXPECT_EQ(lines[2], "P " + encoded);
}

TEST(FieldEncoding, EmptyField) {
  const std::vector<std::string> lines = OneCallTraceLines("");
  ASSERT_EQ(lines.size(), 3u);
  const std::vector<std::string> record = StrSplit(lines[1], " ");
  ASSERT_EQ(record.size(), 17u) << lines[1];
  EXPECT_EQ(record[2], "%00");
  EXPECT_EQ(record[11], "%00");
  EXPECT_EQ(lines[2], "P %00");
}

sandbox::RunResult RunZeus() {
  auto program = malware::BuildZeus({});
  AUTOVAC_CHECK(program.ok());
  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  return sandbox::RunProgram(program.value(), env);
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

// ---- vaccine packages ------------------------------------------------------

// The vaccines of every checked-in sample and of the Table III families,
// in that order.
std::vector<vaccine::Vaccine> SampleAndFamilyVaccines() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(AUTOVAC_SAMPLES_DIR)) {
    if (entry.path().extension() == ".asm") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<vm::Program> programs;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream source;
    source << in.rdbuf();
    auto program = sandbox::AssembleForSandbox(source.str());
    AUTOVAC_CHECK(program.ok());
    programs.push_back(std::move(program).value());
  }
  for (const malware::FamilyModel& family : malware::HighProfileFamilies()) {
    auto program = family.build({});
    AUTOVAC_CHECK(program.ok());
    programs.push_back(std::move(program).value());
  }
  vaccine::VaccinePipeline pipeline(nullptr);
  std::vector<vaccine::Vaccine> vaccines;
  for (const vm::Program& program : programs) {
    const vaccine::SampleReport report = pipeline.Analyze(program);
    vaccines.insert(vaccines.end(), report.vaccines.begin(),
                    report.vaccines.end());
  }
  return vaccines;
}

// A parsed package re-serializes to the bytes it was read from, and every
// vaccine keeps the digest it has in reports, the store and the feed.
TEST(VaccinePackage, RoundTripIncludingSlice) {
  const std::vector<vaccine::Vaccine> vaccines = SampleAndFamilyVaccines();
  const auto sliced = std::count_if(
      vaccines.begin(), vaccines.end(),
      [](const vaccine::Vaccine& v) { return v.slice.has_value(); });
  ASSERT_GT(sliced, 0);
  ASSERT_GT(vaccines.size(), static_cast<size_t>(sliced));

  const std::string package = vaccine::SerializePackage(vaccines);
  auto parsed = vaccine::ParsePackage(package);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(vaccine::SerializePackage(*parsed), package);
  ASSERT_EQ(parsed->size(), vaccines.size());
  for (size_t i = 0; i < vaccines.size(); ++i) {
    SCOPED_TRACE(vaccines[i].Summary());
    EXPECT_EQ(vaccine::VaccineDigest((*parsed)[i]),
              vaccine::VaccineDigest(vaccines[i]));
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
  auto program = malware::BuildConficker({});
  AUTOVAC_CHECK(program.ok());
  vaccine::VaccinePipeline pipeline(nullptr);
  const std::vector<vaccine::Vaccine> vaccines =
      pipeline.Analyze(program.value()).vaccines;
  ASSERT_FALSE(vaccines.empty());
  const std::string package = vaccine::SerializePackage(vaccines);
  const std::string element = vaccine::VaccineToJson(vaccines[0]);
  const auto package_of = [](const std::string& version,
                             const std::string& elements) {
    return "{\"type\":\"vaccine-package\",\"version\":" + version +
           ",\"vaccines\":[" + elements + "]}";
  };
  ASSERT_TRUE(vaccine::ParsePackage(package_of("2", element)).ok());
  const std::string type_field = "\"resource_type\":";
  const size_t type_at = element.find(type_field);
  ASSERT_NE(type_at, std::string::npos);
  std::string bad_type = element;
  bad_type.replace(type_at, element.find(',', type_at) - type_at,
                   type_field + "200");

  // The retired line format is refused by name.
  const std::string v1 =
      "VACCINEPKG v1 1\n"
      "V conficker %00 2 0 1 0 1 0 Global\\m Global\\m 0.500000 C\n";
  auto old = vaccine::ParsePackage(v1);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(old.status().message().find("VACCINEPKG v1"), std::string::npos)
      << old.status().ToString();

  std::vector<std::string> bad = {
      "",
      package_of("1", element),
      package_of("3", element),
      package_of("\"2\"", element),
      package_of("2", "7"),
      package_of("2", "[]"),
      package_of("2", "\"vaccine\""),
      package_of("2", element + ",null"),
      package_of("2", bad_type),
      "{\"type\":\"campaign\",\"version\":2,\"vaccines\":[]}",
      "{\"type\":\"vaccine-package\",\"version\":2}",
      "[" + element + "]",
  };
  // Every truncation of a real package.
  const size_t end = package.rfind('}');
  for (size_t n = 0; n < end; ++n) bad.push_back(package.substr(0, n));
  for (const std::string& text : bad) {
    auto parsed = vaccine::ParsePackage(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(VaccinePackage, EmptyPackage) {
  const std::string empty = vaccine::SerializePackage({});
  EXPECT_EQ(empty, "{\"type\":\"vaccine-package\",\"version\":2,"
                   "\"vaccines\":[]}\n");
  auto parsed = vaccine::ParsePackage(empty);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

}  // namespace
}  // namespace autovac
