// Unit tests for the support module: Status/Result, string utilities,
// wildcard patterns, deterministic RNG, digests, interner, tables.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "support/digest.h"
#include "support/interner.h"
#include "support/logging.h"
#include "support/pattern.h"
#include "support/rng.h"
#include "support/status.h"
#include "support/strings.h"
#include "support/table.h"

namespace autovac {
namespace {

// ---- Status / Result ---------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status status = Status::NotFound("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing thing");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing thing");
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(Result, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> result(Status::InvalidArgument("bad"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(Result, ValueOnErrorThrows) {
  Result<int> result(Status::Internal("boom"));
  EXPECT_THROW(static_cast<void>(result.value()), std::logic_error);
}

TEST(Result, ConstructingFromOkStatusThrows) {
  EXPECT_THROW(Result<int> bad{Status::Ok()}, std::logic_error);
}

TEST(Result, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

TEST(Check, ThrowsWithLocation) {
  try {
    AUTOVAC_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
  }
}

// ---- strings ------------------------------------------------------------

TEST(Strings, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%%"), "%");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(Strings, StrFormatLongOutput) {
  const std::string big(5000, 'a');
  EXPECT_EQ(StrFormat("%s!", big.c_str()).size(), 5001u);
}

TEST(Strings, JoinAndSplit) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  const auto parts = StrSplit("a,b,,c", ",");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
  const auto kept = StrSplit("a,b,,c", ",", /*keep_empty=*/true);
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept[2], "");
}

TEST(Strings, SplitOnMultipleDelims) {
  const auto parts = StrSplit("a b\tc", " \t");
  ASSERT_EQ(parts.size(), 3u);
}

TEST(Strings, CaseConversions) {
  EXPECT_EQ(ToLower("AbC1"), "abc1");
  EXPECT_EQ(ToUpper("AbC1"), "ABC1");
  EXPECT_TRUE(EqualsIgnoreCase("Mutex", "mUtEx"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abcd"));
}

TEST(Strings, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(Strings, CEscape) {
  EXPECT_EQ(CEscape("ab"), "ab");
  EXPECT_EQ(CEscape(std::string("\x01", 1)), "\\x01");
  EXPECT_EQ(CEscape("a\\b"), "a\\x5Cb");
}

TEST(Strings, ParseUint64) {
  uint64_t value = 0;
  EXPECT_TRUE(ParseUint64("12345", &value));
  EXPECT_EQ(value, 12345u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("18446744073709551616", &value));  // overflow
  EXPECT_FALSE(ParseUint64("", &value));
  EXPECT_FALSE(ParseUint64("12a", &value));
  EXPECT_FALSE(ParseUint64("-1", &value));
}

TEST(Strings, ParseInt64) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("-42", &value));
  EXPECT_EQ(value, -42);
  EXPECT_TRUE(ParseInt64("+7", &value));
  EXPECT_EQ(value, 7);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &value));
  EXPECT_EQ(value, INT64_MIN);
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &value));
  EXPECT_FALSE(ParseInt64("9223372036854775808", &value));
}

TEST(Strings, CommonPrefixLength) {
  EXPECT_EQ(CommonPrefixLength("abcd", "abxy"), 2u);
  EXPECT_EQ(CommonPrefixLength("", "x"), 0u);
  EXPECT_EQ(CommonPrefixLength("same", "same"), 4u);
}

TEST(Strings, IsPrintableAscii) {
  EXPECT_TRUE(IsPrintableAscii("Hello, world!"));
  EXPECT_FALSE(IsPrintableAscii("tab\there"));
  EXPECT_FALSE(IsPrintableAscii(std::string("\x80", 1)));
}

// ---- Pattern ---------------------------------------------------------------

TEST(Pattern, LiteralMatching) {
  Pattern pattern = Pattern::Literal("sdra64.exe");
  EXPECT_TRUE(pattern.is_literal());
  EXPECT_TRUE(pattern.Matches("sdra64.exe"));
  EXPECT_FALSE(pattern.Matches("sdra64.exe2"));
  EXPECT_FALSE(pattern.Matches("Sdra64.exe"));  // case sensitive
}

TEST(Pattern, LiteralEscapesMetacharacters) {
  Pattern pattern = Pattern::Literal("a*b?c\\d");
  EXPECT_TRUE(pattern.Matches("a*b?c\\d"));
  EXPECT_FALSE(pattern.Matches("aXb?c\\d"));
}

TEST(Pattern, StarMatchesRuns) {
  auto pattern = Pattern::Compile("Global\\\\*-99");
  ASSERT_TRUE(pattern.ok());
  EXPECT_TRUE(pattern->Matches("Global\\abc123-99"));
  EXPECT_TRUE(pattern->Matches("Global\\-99"));  // empty run
  EXPECT_FALSE(pattern->Matches("Global\\abc-98"));
  EXPECT_FALSE(pattern->is_literal());
}

TEST(Pattern, QuestionMatchesOneChar) {
  auto pattern = Pattern::Compile("fx??1");
  ASSERT_TRUE(pattern.ok());
  EXPECT_TRUE(pattern->Matches("fx221"));
  EXPECT_FALSE(pattern->Matches("fx21"));
  EXPECT_FALSE(pattern->Matches("fx2221"));
}

TEST(Pattern, MultipleStars) {
  auto pattern = Pattern::Compile("*mid*end");
  ASSERT_TRUE(pattern.ok());
  EXPECT_TRUE(pattern->Matches("midend"));
  EXPECT_TRUE(pattern->Matches("xxmidyyend"));
  EXPECT_FALSE(pattern->Matches("miden"));
}

TEST(Pattern, TrailingStar) {
  auto pattern = Pattern::Compile("tmp*");
  ASSERT_TRUE(pattern.ok());
  EXPECT_TRUE(pattern->Matches("tmp"));
  EXPECT_TRUE(pattern->Matches("tmp1234.tmp"));
  EXPECT_FALSE(pattern->Matches("atmp"));
}

TEST(Pattern, CollapsesStarRuns) {
  auto pattern = Pattern::Compile("a***b");
  ASSERT_TRUE(pattern.ok());
  EXPECT_TRUE(pattern->Matches("ab"));
  EXPECT_TRUE(pattern->Matches("aXYZb"));
}

TEST(Pattern, LiteralLengthCountsNonWildcards) {
  auto pattern = Pattern::Compile("sys-*-svc");
  ASSERT_TRUE(pattern.ok());
  EXPECT_EQ(pattern->literal_length(), 8u);
}

TEST(Pattern, TrailingBackslashIsError) {
  auto pattern = Pattern::Compile("abc\\");
  EXPECT_FALSE(pattern.ok());
  EXPECT_EQ(pattern.status().code(), StatusCode::kInvalidArgument);
}

TEST(Pattern, EmptyPatternMatchesEmptyOnly) {
  auto pattern = Pattern::Compile("");
  ASSERT_TRUE(pattern.ok());
  EXPECT_TRUE(pattern->Matches(""));
  EXPECT_FALSE(pattern->Matches("x"));
}

// Property sweep: any literal built from identifier-ish characters matches
// itself after Pattern::Literal and does not match perturbations.
class PatternRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PatternRoundTrip, LiteralSelfMatch) {
  Rng rng(GetParam());
  const std::string id = rng.NextIdentifier(1 + rng.NextBelow(24));
  Pattern pattern = Pattern::Literal(id);
  EXPECT_TRUE(pattern.Matches(id));
  EXPECT_FALSE(pattern.Matches(id + "x"));
  if (!id.empty()) {
    std::string mutated = id;
    mutated[0] = mutated[0] == 'z' ? 'y' : 'z';
    if (mutated != id) {
      EXPECT_FALSE(pattern.Matches(mutated));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t value = rng.NextInRange(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Rng, IdentifierShape) {
  Rng rng(3);
  const std::string id = rng.NextIdentifier(12);
  ASSERT_EQ(id.size(), 12u);
  EXPECT_TRUE(id[0] >= 'a' && id[0] <= 'z');
  for (char c : id) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) << c;
  }
}

TEST(Rng, PickWeightedHonorsZeroWeights) {
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.PickWeighted({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(Rng, PickWeightedDistribution) {
  Rng rng(6);
  size_t counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) counts[rng.PickWeighted({3.0, 1.0})]++;
  const double ratio =
      static_cast<double>(counts[0]) / static_cast<double>(counts[1]);
  EXPECT_GT(ratio, 2.4);
  EXPECT_LT(ratio, 3.8);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(42);
  Rng child = parent.Fork("sample-1");
  Rng parent2(42);
  Rng child2 = parent2.Fork("sample-1");
  EXPECT_EQ(child.NextU64(), child2.NextU64());
  Rng other = parent.Fork("sample-2");
  EXPECT_NE(child.NextU64(), other.NextU64());
}

// ---- digests -----------------------------------------------------------------

TEST(Digest, Fnv1aKnownValues) {
  // FNV-1a("") is the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(Fnv1a32(""), 0x811C9DC5U);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

TEST(Digest, HexDigest128Format) {
  const std::string digest = HexDigest128("hello");
  EXPECT_EQ(digest.size(), 32u);
  for (char c : digest) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
  EXPECT_NE(digest, HexDigest128("hellp"));
  EXPECT_EQ(digest, HexDigest128("hello"));
}

TEST(Digest, OrderSensitive) {
  EXPECT_NE(HexDigest128("ab"), HexDigest128("ba"));
}

// ---- interner ---------------------------------------------------------------

TEST(Interner, DedupsAndLooksUp) {
  StringInterner interner;
  const uint32_t a = interner.Intern("alpha");
  const uint32_t b = interner.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.Lookup(a), "alpha");
  EXPECT_EQ(interner.Find("beta"), b);
  EXPECT_EQ(interner.Find("gamma"), StringInterner::kInvalidId);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(Interner, LookupOutOfRangeThrows) {
  StringInterner interner;
  EXPECT_THROW(static_cast<void>(interner.Lookup(5)), std::logic_error);
}

// ---- TextTable ---------------------------------------------------------------

TEST(TextTable, AlignsColumns) {
  TextTable table({"A", "Long"});
  table.AddRow({"xx", "y"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("| A  | Long |"), std::string::npos);
  EXPECT_NE(out.find("| xx | y    |"), std::string::npos);
}

TEST(TextTable, PadsShortRows) {
  TextTable table({"A", "B"});
  table.AddRow({"only"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("| only |"), std::string::npos);
}

// ---- JSON escaping -----------------------------------------------------

TEST(Strings, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("C:\\path"), "C:\\\\path");
  EXPECT_EQ(JsonEscape("line\nfeed\ttab"), "line\\nfeed\\ttab");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

// ---- Logging sink ------------------------------------------------------

class CapturingSink : public LogSink {
 public:
  void Write(LogLevel level, const std::string& message) override {
    lines.push_back({level, message});
  }
  std::vector<std::pair<LogLevel, std::string>> lines;
};

TEST(Logging, SinkCapturesAtOrAboveLevel) {
  CapturingSink sink;
  LogSink* previous = SetLogSink(&sink);
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);

  LogDebug("dropped %d", 1);
  LogInfo("kept %d", 2);
  LogError("kept %d", 3);

  SetLogLevel(old_level);
  SetLogSink(previous);

  ASSERT_EQ(sink.lines.size(), 2u);
  EXPECT_EQ(sink.lines[0].first, LogLevel::kInfo);
  EXPECT_EQ(sink.lines[0].second, "kept 2");
  EXPECT_EQ(sink.lines[1].first, LogLevel::kError);
  EXPECT_EQ(sink.lines[1].second, "kept 3");
}

TEST(Logging, OffSilencesEverything) {
  CapturingSink sink;
  LogSink* previous = SetLogSink(&sink);
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kOff);

  LogError("never seen");
  // Nothing can be logged *at* kOff either.
  LogMessage(LogLevel::kOff, "also never seen");

  SetLogLevel(old_level);
  SetLogSink(previous);
  EXPECT_TRUE(sink.lines.empty());
}

TEST(Logging, SetLogSinkReturnsPrevious) {
  CapturingSink first;
  CapturingSink second;
  LogSink* original = SetLogSink(&first);
  EXPECT_EQ(SetLogSink(&second), &first);
  EXPECT_EQ(SetLogSink(original), &second);
}

}  // namespace
}  // namespace autovac
