// Exact round-trip coverage for the report wire format (vaccine/json.h)
// and the small JSON parser underneath it (support/json.h). These are
// the bytes the write-ahead journal stores and campaign workers ship
// across the process boundary, so the contract is serialize(parse(x)) ==
// x for every deterministic field — byte equality, not semantic
// equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "malware/benign.h"
#include "malware/corpus.h"
#include "malware/families.h"
#include "sandbox/sandbox.h"
#include "support/json.h"
#include "support/status.h"
#include "vaccine/json.h"
#include "vaccine/pipeline.h"

namespace autovac {
namespace {

// ---------------------------------------------------------------------
// support/json.h parser
// ---------------------------------------------------------------------

TEST(JsonParser, ParsesScalarsAndContainers) {
  auto parsed = ParseJson(
      R"({"a":1,"b":-2.5,"c":"x","d":true,"e":null,"f":[1,2],"g":{}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& json = parsed.value();
  ASSERT_TRUE(json.is_object());
  ASSERT_NE(json.Find("a"), nullptr);
  EXPECT_EQ(json.Find("a")->AsUint64().value(), 1u);
  EXPECT_EQ(json.Find("b")->AsDouble().value(), -2.5);
  EXPECT_EQ(json.Find("c")->AsString().value(), "x");
  EXPECT_TRUE(json.Find("d")->AsBool().value());
  EXPECT_TRUE(json.Find("e")->is_null());
  EXPECT_EQ(json.Find("f")->array.size(), 2u);
  EXPECT_TRUE(json.Find("g")->is_object());
}

TEST(JsonParser, Uint64RoundTripsAboveDoublePrecision) {
  // 2^53 + 1 is not representable as a double; the parser must keep the
  // literal token so uint64 counters survive the journal round trip.
  const uint64_t big = (1ULL << 53) + 1;
  auto parsed = ParseJson("{\"n\":" + std::to_string(big) + "}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("n")->AsUint64().value(), big);
  EXPECT_EQ(ParseJson(std::to_string(std::numeric_limits<uint64_t>::max()))
                ->AsUint64()
                .value(),
            std::numeric_limits<uint64_t>::max());
}

TEST(JsonParser, DecodesEscapes) {
  auto parsed = ParseJson(R"("a\"b\\c\nd\u0001e")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString().value(),
            std::string("a\"b\\c\nd\x01") + "e");
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1").ok());       // truncated
  EXPECT_FALSE(ParseJson("{\"a\":1} x").ok());    // trailing bytes
  EXPECT_FALSE(ParseJson("{'a':1}").ok());        // bad quoting
  EXPECT_FALSE(ParseJson("{\"a\":01}").ok());     // leading zero
  EXPECT_FALSE(ParseJson("\"\x01\"").ok());       // raw control byte
  // Nesting bomb: must hit the depth cap, not the stack guard page.
  std::string bomb;
  for (int i = 0; i < 10'000; ++i) bomb += "[";
  EXPECT_FALSE(ParseJson(bomb).ok());
}

TEST(JsonParser, TruncatedPrefixNeverParses) {
  // A torn journal tail is detected by parse failure; every strict
  // prefix of a record must therefore fail to parse.
  const std::string record =
      R"({"type":"sample","index":3,"report":{"name":"a b","n":[1,2]}})";
  for (size_t cut = 1; cut < record.size(); ++cut) {
    EXPECT_FALSE(ParseJson(record.substr(0, cut)).ok())
        << "prefix of length " << cut << " parsed";
  }
  EXPECT_TRUE(ParseJson(record).ok());
}

// ---------------------------------------------------------------------
// Status / report round trips
// ---------------------------------------------------------------------

Status RoundTripStatus(const Status& status) {
  auto parsed = ParseJson(vaccine::StatusToJson(status));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  Status out;
  EXPECT_TRUE(vaccine::StatusFromJson(parsed.value(), &out).ok());
  return out;
}

TEST(StatusJson, RoundTripsEveryCodeAndMessage) {
  for (const Status& status :
       {Status::Ok(), Status::InvalidArgument("bad \"arg\"\n"),
        Status::NotFound(""), Status::Internal("x\\y\x7f"),
        Status::FailedPrecondition("p"),
        Status::DeadlineExceeded("200 ms elapsed")}) {
    const Status back = RoundTripStatus(status);
    EXPECT_EQ(back.code(), status.code());
    EXPECT_EQ(back.message(), status.message());
    EXPECT_EQ(vaccine::StatusToJson(back), vaccine::StatusToJson(status));
  }
}

TEST(StatusJson, RejectsOutOfRangeCode) {
  auto parsed = ParseJson("{\"code\":9999}");
  ASSERT_TRUE(parsed.ok());
  Status out;
  EXPECT_FALSE(vaccine::StatusFromJson(parsed.value(), &out).ok());
}

vaccine::SampleReport RoundTrip(const vaccine::SampleReport& report) {
  auto back = vaccine::ParseSampleReportJson(
      vaccine::SampleReportToJson(report));
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return std::move(back).value();
}

TEST(ReportJson, HostileNamesRoundTripExactly) {
  vaccine::SampleReport report;
  report.sample_name = "evil \"name\"\nwith\tcontrol\x01\x1f bytes\\";
  report.sample_digest = "0123abcd";
  report.disposition = vaccine::SampleDisposition::kWorkerCrashed;
  report.phase1_status = Status::Internal("worker killed by signal 9");
  report.targets_considered = (1ULL << 60) + 7;  // above double precision
  const vaccine::SampleReport back = RoundTrip(report);
  EXPECT_EQ(back.sample_name, report.sample_name);
  EXPECT_EQ(back.disposition, report.disposition);
  EXPECT_EQ(back.targets_considered, report.targets_considered);
  EXPECT_EQ(vaccine::SampleReportToJson(back),
            vaccine::SampleReportToJson(report));
}

TEST(ReportJson, PipelineReportsRoundTripByteIdentically) {
  // The six paper families reliably produce vaccines; that exercises the
  // deep fields (slices, patterns, BDR doubles) the synthetic tests
  // above cannot reach.
  std::vector<vm::Program> wave;
  for (auto* builder :
       {malware::BuildConficker, malware::BuildZeus, malware::BuildSality,
        malware::BuildQakbot, malware::BuildIBank,
        malware::BuildPoisonIvy}) {
    auto program = builder({});
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    wave.push_back(std::move(program).value());
  }

  // Trained index so the pipeline extracts real vaccines (with slices,
  // patterns and BDR values) — the fields worth round-trip coverage.
  analysis::ExclusivenessIndex index;
  auto benign = malware::BuildBenignCorpus();
  ASSERT_TRUE(benign.ok());
  for (const vm::Program& app : benign.value()) {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    sandbox::RunOptions run_options;
    run_options.enable_taint = false;
    index.IndexBenignTrace(app.name,
                           sandbox::RunProgram(app, env, run_options)
                               .api_trace);
  }
  vaccine::VaccinePipeline pipeline(&index);

  size_t vaccines_seen = 0;
  for (const vm::Program& sample : wave) {
    SCOPED_TRACE(sample.name);
    const vaccine::SampleReport report = pipeline.Analyze(sample);
    vaccines_seen += report.vaccines.size();
    const vaccine::SampleReport back = RoundTrip(report);
    // Byte equality of the re-serialization is the full-field check:
    // every serialized field participates.
    EXPECT_EQ(vaccine::SampleReportToJson(back),
              vaccine::SampleReportToJson(report));
    EXPECT_EQ(back.sample_digest, report.sample_digest);
    EXPECT_EQ(back.vaccines.size(), report.vaccines.size());
    // The natural trace crosses as its summary: recorded, non-empty, and
    // equal after the round trip.
    EXPECT_TRUE(report.natural_trace.recorded());
    EXPECT_GT(report.natural_trace.calls, 0u);
    EXPECT_EQ(back.natural_trace.DigestHex(),
              report.natural_trace.DigestHex());
    EXPECT_EQ(back.natural_trace.calls, report.natural_trace.calls);
    for (size_t i = 0; i < report.vaccines.size(); ++i) {
      EXPECT_EQ(vaccine::VaccineToJson(back.vaccines[i]),
                vaccine::VaccineToJson(report.vaccines[i]));
      EXPECT_EQ(back.vaccines[i].Summary(), report.vaccines[i].Summary());
    }
  }
  // The test is vacuous unless some sample actually produced vaccines
  // (slice, pattern and BDR fields would never be exercised).
  EXPECT_GT(vaccines_seen, 0u);
}

TEST(ReportJson, WallTimesAreNotSerialized) {
  vaccine::SampleReport report;
  report.sample_name = "s";
  PhaseTotal cost;
  cost.name = "phase1";
  cost.spans = 2;
  cost.ticks = 40;
  cost.wall_ns = 123456789;  // nondeterministic — must not cross the wire
  report.phase_costs.push_back(cost);
  const std::string json = vaccine::SampleReportToJson(report);
  EXPECT_EQ(json.find("wall"), std::string::npos);
  const vaccine::SampleReport back = RoundTrip(report);
  ASSERT_EQ(back.phase_costs.size(), 1u);
  EXPECT_EQ(back.phase_costs[0].ticks, 40u);
  EXPECT_EQ(back.phase_costs[0].wall_ns, 0u);
}

TEST(ReportJson, RejectsOutOfRangeEnums) {
  vaccine::SampleReport report;
  report.sample_name = "s";
  std::string json = vaccine::SampleReportToJson(report);
  const auto swap = [&](const std::string& from, const std::string& to) {
    std::string mutated = json;
    const size_t at = mutated.find(from);
    ASSERT_NE(at, std::string::npos);
    mutated.replace(at, from.size(), to);
    EXPECT_FALSE(vaccine::ParseSampleReportJson(mutated).ok()) << mutated;
  };
  swap("\"disposition\":0", "\"disposition\":250");
  swap("\"phase1_stop\":0", "\"phase1_stop\":99");
}

TEST(CampaignJson, AggregatesMatchReports) {
  vaccine::SampleReport ok_report;
  ok_report.sample_name = "clean";
  vaccine::SampleReport failed;
  failed.sample_name = "crashed";
  failed.disposition = vaccine::SampleDisposition::kQuarantined;
  failed.phase1_status = Status::FailedPrecondition("quarantined");
  const vaccine::CampaignReport campaign =
      vaccine::BuildCampaignReport({ok_report, failed});
  const std::string json = vaccine::CampaignReportToJson(campaign);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("samples")->AsUint64().value(), 2u);
  EXPECT_EQ(parsed->Find("samples_failed")->AsUint64().value(), 1u);
  ASSERT_NE(parsed->Find("reports"), nullptr);
  ASSERT_EQ(parsed->Find("reports")->array.size(), 2u);
  // Each embedded report is the SampleReportToJson bytes.
  EXPECT_EQ(parsed->Find("reports")->array[1].Find("name")->AsString()
                .value(),
            "crashed");
}

}  // namespace
}  // namespace autovac
