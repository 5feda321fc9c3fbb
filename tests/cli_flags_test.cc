// The autovac flag tables, checked row by row. Every case is derived from
// the tables themselves (kind, range, required, hidden), so a new row is
// covered without editing this file; only a new custom-parsed row needs
// a valid example below.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "support/strings.h"

namespace autovac::cli {
namespace {

constexpr uint64_t kNoMax = std::numeric_limits<uint64_t>::max();

// Valid values of the custom-parsed rows, in the form their show() prints.
const std::map<std::string, std::string>& CustomExamples() {
  static const std::map<std::string, std::string> kExamples = {
      {"--tcp", "127.0.0.1:0"},
      {"--resource", "mutex"},
      {"--evasion", "stalling,env-probe"},
  };
  return kExamples;
}

// A value the row accepts, in the form its show() prints it back.
std::string ValidValue(const Flag& flag) {
  switch (flag.kind) {
    case FlagKind::kSwitch:
      return "";
    case FlagKind::kText:
      return "value-of" + flag.name;
    case FlagKind::kUint:
      return std::to_string(flag.max != kNoMax ? flag.max : flag.min + 41);
    case FlagKind::kReal:
      return StrFormat("%g", std::isfinite(flag.hi) ? flag.hi / 2 : 1.5);
    case FlagKind::kCustom: {
      const auto example = CustomExamples().find(flag.name);
      return example == CustomExamples().end() ? "" : example->second;
    }
  }
  return "";
}

std::vector<std::string> MalformedValues(const Flag& flag) {
  switch (flag.kind) {
    case FlagKind::kUint:
      // Hex and octal are refused, and so is anything past 2^64 - 1.
      return {"12x", "x", "0x10", "-1", "+5", " 7", "",
              "18446744073709551616"};
    case FlagKind::kReal:
      return {"abc", "0.5x", "nan", "inf", "1e999", "0x1p-2", ""};
    case FlagKind::kCustom:
      return {"!", ""};
    case FlagKind::kSwitch:
    case FlagKind::kText:
      break;
  }
  return {};
}

std::vector<std::string> OutOfRangeValues(const Flag& flag) {
  std::vector<std::string> values;
  if (flag.kind == FlagKind::kUint) {
    if (flag.min > 0) values.push_back(std::to_string(flag.min - 1));
    if (flag.max != kNoMax) values.push_back(std::to_string(flag.max + 1));
  } else if (flag.kind == FlagKind::kReal) {
    values.push_back("-1");
    if (std::isfinite(flag.hi)) values.push_back(StrFormat("%g", flag.hi + 1));
  }
  return values;
}

// One command's table bound to a fresh argument set.
struct Bound {
  std::unique_ptr<CommandArgs> args;
  std::vector<FlagGroup> table;

  explicit Bound(const Command& command)
      : args(command.make_args()), table(command.flags(*args)) {}

  const Flag& Row(const std::string& name) const {
    for (const FlagGroup& group : table) {
      for (const Flag& flag : group.flags) {
        if (flag.name == name) return flag;
      }
    }
    ADD_FAILURE() << "no row " << name;
    return table.front().flags.front();
  }

  Status Parse(const std::vector<std::string>& argv) {
    std::vector<std::string> operands;
    return ParseFlags(table, argv, &operands);
  }
};

// The flags every invocation of `command` needs besides `flag`: the
// table's required rows and the row `flag` depends on, with valid values.
std::vector<std::string> BaseArgs(const Command& command,
                                  const std::string& flag) {
  Bound bound(command);
  std::string depends;
  for (const FlagGroup& group : bound.table) {
    for (const Flag& row : group.flags) {
      if (row.name == flag) depends = row.requires_flag;
    }
  }
  std::vector<std::string> args;
  for (const FlagGroup& group : bound.table) {
    for (const Flag& row : group.flags) {
      if (row.name == flag || !(row.required || row.name == depends)) {
        continue;
      }
      args.push_back(row.name);
      if (row.TakesValue()) args.push_back(ValidValue(row));
    }
  }
  return args;
}

template <typename Visit>
void ForEachRow(Visit visit) {
  for (const Command& command : Commands()) {
    Bound bound(command);
    for (const FlagGroup& group : bound.table) {
      for (const Flag& flag : group.flags) visit(command, flag);
    }
  }
}

TEST(CliFlags, EveryCustomRowHasAnExample) {
  ForEachRow([](const Command& command, const Flag& flag) {
    if (flag.kind != FlagKind::kCustom) return;
    EXPECT_TRUE(CustomExamples().count(flag.name))
        << command.name << " " << flag.name;
  });
}

TEST(CliFlags, ValidValueParsesIntoTheTargetField) {
  ForEachRow([](const Command& command, const Flag& flag) {
    SCOPED_TRACE(command.name + " " + flag.name);
    Bound bound(command);
    const Flag& row = bound.Row(flag.name);
    const std::string before = row.show();
    std::vector<std::string> argv = BaseArgs(command, flag.name);
    argv.push_back(flag.name);
    if (flag.TakesValue()) argv.push_back(ValidValue(flag));
    ASSERT_TRUE(bound.Parse(argv).ok()) << bound.Parse(argv).ToString();
    if (flag.TakesValue()) {
      EXPECT_EQ(row.show(), ValidValue(flag));
    } else {
      EXPECT_NE(row.show(), before) << "switch did not change its field";
    }
  });
}

TEST(CliFlags, MalformedValueNamesTheFlag) {
  ForEachRow([](const Command& command, const Flag& flag) {
    for (const std::string& value : MalformedValues(flag)) {
      SCOPED_TRACE(command.name + " " + flag.name + " '" + value + "'");
      Bound bound(command);
      const std::string before = bound.Row(flag.name).show();
      std::vector<std::string> argv = BaseArgs(command, flag.name);
      argv.insert(argv.end(), {flag.name, value});
      const Status status = bound.Parse(argv);
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(status.message(), flag.name + " requires " +
                                      flag.AcceptedForm() + ", got '" +
                                      value + "'");
      EXPECT_EQ(bound.Row(flag.name).show(), before);
    }
  });
}

TEST(CliFlags, OutOfRangeValueNamesTheFlag) {
  size_t ranged = 0;
  ForEachRow([&ranged](const Command& command, const Flag& flag) {
    for (const std::string& value : OutOfRangeValues(flag)) {
      SCOPED_TRACE(command.name + " " + flag.name + " " + value);
      ++ranged;
      Bound bound(command);
      std::vector<std::string> argv = BaseArgs(command, flag.name);
      argv.insert(argv.end(), {flag.name, value});
      const Status status = bound.Parse(argv);
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.message(), flag.name + " requires " +
                                      flag.AcceptedForm() + ", got '" +
                                      value + "'");
    }
  });
  EXPECT_GT(ranged, 0u);
}

TEST(CliFlags, MissingValueNamesTheFlag) {
  ForEachRow([](const Command& command, const Flag& flag) {
    if (!flag.TakesValue()) return;
    SCOPED_TRACE(command.name + " " + flag.name);
    Bound bound(command);
    std::vector<std::string> argv = BaseArgs(command, flag.name);
    argv.push_back(flag.name);
    const Status status = bound.Parse(argv);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(),
              "option '" + flag.name + "' requires a value");
  });
}

TEST(CliFlags, HelpListsEveryVisibleRowAndNoHiddenOne) {
  ForEachRow([](const Command& command, const Flag& flag) {
    SCOPED_TRACE(command.name + " " + flag.name);
    const std::string help = CommandHelp(command);
    const bool listed = help.find("\n  " + flag.name + " ") !=
                            std::string::npos ||
                        help.find("\n  " + flag.name + "\n") !=
                            std::string::npos;
    if (flag.hidden) {
      EXPECT_EQ(help.find(flag.name), std::string::npos);
    } else {
      EXPECT_TRUE(listed) << help;
    }
  });
}

// Each optional value row's help ends with the default its field holds in
// a default-constructed argument set.
TEST(CliFlags, HelpPrintsEachDefaultFromTheTargetStruct) {
  ForEachRow([](const Command& command, const Flag& flag) {
    const std::string value = flag.show();
    if (flag.hidden || flag.required || !flag.TakesValue() || value.empty()) {
      return;
    }
    SCOPED_TRACE(command.name + " " + flag.name);
    const std::string help = CommandHelp(command);
    const size_t row = help.find("\n  " + flag.name + " ");
    ASSERT_NE(row, std::string::npos);
    // The row runs to the next one; wrapping may split "(default n)".
    const std::string text =
        help.substr(row, help.find("\n  --", row + 1) - row);
    EXPECT_NE(StrJoin(StrSplit(text, " \n"), " ")
                  .find("(default " + value + ")"),
              std::string::npos)
        << text;
  });
  EXPECT_NE(CommandHelp(*FindCommand("analyze")).find("(default 0.02)"),
            std::string::npos);
}

TEST(CliFlags, RowNamesAreUniquePerCommand) {
  for (const Command& command : Commands()) {
    Bound bound(command);
    std::map<std::string, int> seen;
    for (const FlagGroup& group : bound.table) {
      for (const Flag& flag : group.flags) {
        EXPECT_EQ(++seen[flag.name], 1) << command.name << " " << flag.name;
        EXPECT_EQ(flag.name.rfind("--", 0), 0u) << flag.name;
      }
    }
  }
}

TEST(CliFlags, UnknownFlagUsesTheExactMessage) {
  const auto parsed =
      ParseCommand(*FindCommand("analyze"), {"x.asm", "--not-a-flag"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(), "unknown option '--not-a-flag'");
}

// Invocations that used to be accepted with a wrong or ignored value.
TEST(CliFlags, RefusedInvocationsNameTheFlag) {
  const struct {
    std::vector<std::string> argv;  // command first
    const char* flag;
  } kCases[] = {
      {{"serve", "--socket", "s", "--checkpoint-every", "x"},
       "--checkpoint-every"},
      {{"campaign", "x.asm", "--jobs", "two"}, "--jobs"},
      {{"analyze", "x.asm", "--fault-seed", "1", "--fault-rate", "abc"},
       "--fault-rate"},
      {{"analyze", "x.asm", "--fault-seed", "1", "--fault-rate", "7"},
       "--fault-rate"},
      {{"analyze", "x.asm", "--max-api-calls", "10x"}, "--max-api-calls"},
      {{"campaign", "x.asm", "--sample-deadline-ms", "2x"},
       "--sample-deadline-ms"},
      {{"analyze", "x.asm", "--max-call-depth", "4294967297"},
       "--max-call-depth"},
      {{"pull", "--socket", "s", "--since", "abc"}, "--since"},
      {{"sync", "--socket", "s", "--page", "-1"}, "--page"},
      {{"push", "--socket", "s", "--retries", "4294967297", "p.pkg"},
       "--retries"},
      {{"push", "--socket", "s", "--binary", "p.pkg"}, "--binary"},
      {{"quarantine", "--socket", "s", "--binary", "d"}, "--binary"},
      {{"analyze", "x.asm", "--fault-rate", "0.1"}, "--fault-rate"},
      {{"campaign", "x.asm", "--fault-rate", "0.1"}, "--fault-rate"},
      {{"campaign", "x.asm", "--stop-after", "1"}, "--stop-after"},
      {{"campaign", "x.asm", "--resume"}, "--resume"},
      {{"coordinate", "--socket", "s", "--resume", "x.asm"}, "--resume"},
      {{"serve", "--socket", "s", "--rate-rps", "-1"}, "--rate-rps"},
      {{"corpus", "--out", "d", "--seed", "0x10"}, "--seed"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(StrJoin(c.argv, " "));
    const Command* command = FindCommand(c.argv[0]);
    ASSERT_NE(command, nullptr);
    const auto parsed = ParseCommand(
        *command, std::vector<std::string>(c.argv.begin() + 1, c.argv.end()));
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find(c.flag), std::string::npos)
        << parsed.status().message();
  }
}

TEST(CliFlags, OperandCountsAndRequiredFlags) {
  EXPECT_FALSE(ParseCommand(*FindCommand("analyze"), {}).ok());
  EXPECT_FALSE(ParseCommand(*FindCommand("analyze"), {"a", "b"}).ok());
  EXPECT_FALSE(ParseCommand(*FindCommand("test"), {"a"}).ok());
  EXPECT_TRUE(ParseCommand(*FindCommand("test"), {"a", "b"}).ok());
  EXPECT_TRUE(ParseCommand(*FindCommand("campaign"), {"a", "b", "c"}).ok());
  EXPECT_FALSE(ParseCommand(*FindCommand("status"), {"--socket", "s", "x"})
                   .ok());
  const auto missing = ParseCommand(*FindCommand("serve"), {"--threads", "2"});
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("--socket"), std::string::npos);
  EXPECT_FALSE(ParseCommand(*FindCommand("query"),
                            {"--socket", "s", "BadMutex"})
                   .ok());
}

TEST(CliFlags, ValuesAreTakenVerbatimAndLaterFlagsWin) {
  const auto parsed = ParseCommand(
      *FindCommand("quarantine"),
      {"--socket", "s", "--reason", "--not-a-flag", "d", "--reason", "why"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& args = static_cast<const ClientArgs&>(*parsed.value());
  EXPECT_EQ(args.reason, "why");
  EXPECT_EQ(args.operands, std::vector<std::string>{"d"});
  const auto corpus = ParseCommand(
      *FindCommand("corpus"),
      {"--out", "d", "--evasion", "stalling", "--evasion", "vaccine-aware"});
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(static_cast<const CorpusArgs&>(*corpus.value()).corpus.classes,
            (std::vector<evasion::EvasionClass>{
                evasion::EvasionClass::kStalling,
                evasion::EvasionClass::kVaccineAware}));
}

// The coordinator and its workers parse pipeline flags through the same
// rows, so the same flags give the same options on both sides.
TEST(CliFlags, FleetSidesParseIdenticalPipelineOptions) {
  const std::vector<std::string> pipeline = {
      "--no-exclusiveness", "--max-api-calls", "900", "--max-call-depth", "12",
      "--no-snapshot-replay"};
  std::vector<std::string> coordinate = {"--socket", "s", "a.asm"};
  coordinate.insert(coordinate.end(), pipeline.begin(), pipeline.end());
  const auto coordinator = ParseCommand(*FindCommand("coordinate"), coordinate);
  const auto worker =
      ParseCommand(*FindCommand("detonate-worker"), coordinate);
  ASSERT_TRUE(coordinator.ok());
  ASSERT_TRUE(worker.ok());
  const vaccine::PipelineOptions& a =
      static_cast<const CoordinateArgs&>(*coordinator.value()).pipeline;
  const vaccine::PipelineOptions& b =
      static_cast<const WorkerArgs&>(*worker.value()).pipeline;
  EXPECT_FALSE(a.run_exclusiveness);
  EXPECT_EQ(a.limits.max_api_calls, 900u);
  EXPECT_EQ(a.limits.max_call_depth, 12u);
  EXPECT_FALSE(a.snapshot_replay);
  EXPECT_EQ(a.run_exclusiveness, b.run_exclusiveness);
  EXPECT_EQ(a.limits.max_api_calls, b.limits.max_api_calls);
  EXPECT_EQ(a.limits.max_call_depth, b.limits.max_call_depth);
  EXPECT_EQ(a.snapshot_replay, b.snapshot_replay);
}

TEST(CliFlags, FaultPlanOnlyWithASeed) {
  AnalysisFlags flags;
  EXPECT_FALSE(MakeFaultPlan(flags).has_value());
  flags.fault_seed = 42;
  flags.fault_rate = 0.3;
  const auto plan = MakeFaultPlan(flags);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->Summary(),
            sandbox::FaultPlan::Randomized(42, 0.3).Summary());
}

TEST(CliFlags, TopLevelHelpListsEveryCommand) {
  const std::string help = TopLevelHelp();
  EXPECT_NE(help.find("quick start"), std::string::npos);
  for (const Command& command : Commands()) {
    EXPECT_NE(help.find("\n  autovac " + command.name + " "),
              std::string::npos)
        << command.name;
  }
}

}  // namespace
}  // namespace autovac::cli
