// Declarative flags for the autovac command line: each command is one
// table of rows (flag, value kind and range, target field, help, hidden),
// one strict parser reads the tables, and the same rows print the help.
// Shared groups (pipeline, analysis output, connection) are row lists
// that several commands include.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/supervisor.h"
#include "evasion/corpus.h"
#include "fleet/agent.h"
#include "fleet/coordinator.h"
#include "net/chaosproxy.h"
#include "net/client.h"
#include "net/server.h"
#include "os/resources.h"
#include "sandbox/faults.h"
#include "support/status.h"
#include "vaccine/pipeline.h"

namespace autovac::cli {

enum class FlagKind {
  kSwitch,  // no value; sets its field to a fixed value
  kText,    // any string
  kUint,    // a decimal integer in [min, max]
  kReal,    // a finite number in [0, hi]
  kCustom,  // a row-specific parser; `form` says what it accepts
};

// One row of a command's table, bound to the field it writes. Members all
// have defaults, so a designated initializer names only what differs.
struct Flag {
  std::string name{};  // "--jobs"
  FlagKind kind = FlagKind::kSwitch;
  std::string value_name{};  // "<n>" in the help; empty for a switch
  std::string help{};
  uint64_t min = 0;  // kUint range
  uint64_t max = std::numeric_limits<uint64_t>::max();
  double hi = std::numeric_limits<double>::infinity();  // kReal ceiling
  std::string form{};  // kCustom: the accepted form, for errors
  bool required = false;
  bool hidden = false;          // parsed, never printed (chaos hooks)
  std::string requires_flag{};  // a flag that must come with this one
  // Parses `value` into the field; false, with the field unchanged, when
  // the value is malformed or out of range.
  std::function<bool(std::string_view value)> store{};
  // The field as text ("" when unset); help prints it as the default,
  // read from a default-constructed argument set.
  std::function<std::string()> show{};

  [[nodiscard]] bool TakesValue() const { return kind != FlagKind::kSwitch; }
  // What the value must be: "a decimal integer of at least 1".
  [[nodiscard]] std::string AcceptedForm() const;
};

struct FlagGroup {
  std::string title;  // the help section's heading
  std::vector<Flag> flags;
};

// The analysis output group of analyze and campaign.
struct AnalysisFlags {
  bool run_clinic = true;
  std::string package_path;
  std::string report_path;
  std::optional<uint64_t> fault_seed;  // unset: no fault injection
  double fault_rate = 0.02;
  std::string metrics_path;
  std::string trace_path;
};

// The --fault-seed schedule, or none without a seed.
[[nodiscard]] std::optional<sandbox::FaultPlan> MakeFaultPlan(
    const AnalysisFlags& flags);

// ---- commands -----------------------------------------------------------

// A command's parsed arguments: the fields its rows write, and the
// operands. Rows point into it, so it is never copied. Pipeline rows
// write PipelineOptions itself, so the coordinator and its workers digest
// identical options.
struct CommandArgs {
  CommandArgs() = default;
  CommandArgs(const CommandArgs&) = delete;
  CommandArgs& operator=(const CommandArgs&) = delete;
  virtual ~CommandArgs() = default;
  std::vector<std::string> operands;
};

struct AnalyzeArgs : CommandArgs {
  vaccine::PipelineOptions pipeline;
  AnalysisFlags analysis;
};

struct CampaignArgs : AnalyzeArgs {
  campaign::CampaignOptions durability;
  std::string campaign_out;
};

struct TraceArgs : CommandArgs {
  std::string out;
};

struct CorpusArgs : CommandArgs {
  std::string out_dir;
  evasion::EvasiveCorpusOptions corpus;
};

struct ServeArgs : CommandArgs {
  net::VacdOptions vacd;
  std::string store_path;
  bool use_exclusiveness = true;
};

// push, query, pull, sync, quarantine, status; each table binds its own
// subset of the fields.
struct ClientArgs : CommandArgs {
  std::string socket;  // Unix path or tcp:host:port
  uint64_t deadline_ms = 5000;
  net::RetryPolicy retry;  // default: a single attempt
  bool binary = false;
  os::ResourceType resource = os::ResourceType::kFile;
  uint64_t since = 0;
  uint64_t page = 0;
  std::string out;
  std::string reason = "operator";
};

struct ChaosProxyArgs : CommandArgs {
  net::ChaosProxyOptions proxy;
  uint64_t fault_seed = 1;
  double fault_rate = 0.1;
};

struct CoordinateArgs : CommandArgs {
  vaccine::PipelineOptions pipeline;
  fleet::CoordinatorOptions coordinator;
  std::string campaign_out;
  // Idle workers learn done=true from a claim during the linger, and one
  // whose done reply was torn retries within its backoff (capped at 2 s).
  uint64_t linger_ms = 3000;
};

struct WorkerArgs : CommandArgs {
  vaccine::PipelineOptions pipeline;
  fleet::WorkerOptions worker;
};

struct Command {
  std::string name;
  // The operands in the usage line; their count is the number of words,
  // and a trailing "..." lets the last one repeat.
  std::string operands;
  std::string about;  // the paragraph of `autovac <command> --help`
  std::function<std::unique_ptr<CommandArgs>()> make_args;
  // The command's table, bound to `args` (made by make_args).
  std::function<std::vector<FlagGroup>(CommandArgs& args)> flags;
};

// Every command, in help order.
[[nodiscard]] const std::vector<Command>& Commands();
[[nodiscard]] const Command* FindCommand(std::string_view name);

// Parses `args` against `table`, appending the positional operands to
// `operands`. Fails with InvalidArgument and one line naming the flag on
// an unknown flag, a missing, malformed or out-of-range value, a missing
// required flag, or a flag given without the one it requires.
[[nodiscard]] Status ParseFlags(const std::vector<FlagGroup>& table,
                                const std::vector<std::string>& args,
                                std::vector<std::string>* operands);

// Parses a command line into a fresh argument set and checks the operand
// count.
[[nodiscard]] Result<std::unique_ptr<CommandArgs>> ParseCommand(
    const Command& command, const std::vector<std::string>& args);

// "autovac <name> <required flags> <operands> [options]".
[[nodiscard]] std::string Synopsis(const Command& command);
// `autovac <command> --help`: usage, about, and every row not hidden.
[[nodiscard]] std::string CommandHelp(const Command& command);
// `autovac --help`.
[[nodiscard]] std::string TopLevelHelp();

}  // namespace autovac::cli
