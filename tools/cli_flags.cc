#include "cli_flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "evasion/classes.h"
#include "net/endpoint.h"
#include "support/strings.h"

namespace autovac::cli {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kFlagColumn = 26;  // help: where a row's text starts
constexpr size_t kWidth = 78;       // help: where lines wrap

// Appends `text` to `out` word-wrapped at kWidth, plus a newline. The
// first word goes at `column`; continuation lines start at `indent`.
void AppendWrapped(std::string_view text, size_t indent, size_t column,
                   std::string* out) {
  bool first = true;
  for (const std::string& word : StrSplit(text, " ")) {
    if (!first && column + 1 + word.size() > kWidth) {
      *out += "\n" + std::string(indent, ' ');
      column = indent;
    } else if (!first) {
      *out += ' ';
      ++column;
    }
    *out += word;
    column += word.size();
    first = false;
  }
  *out += '\n';
}

std::string ResourceTypeNames() {
  std::vector<std::string> names;
  for (size_t i = 0; i < os::kNumResourceTypes; ++i) {
    names.push_back(
        ToLower(os::ResourceTypeName(static_cast<os::ResourceType>(i))));
  }
  return StrJoin(names, ", ");
}

std::string EvasionClassNames(
    const std::vector<evasion::EvasionClass>& classes) {
  std::vector<std::string> names;
  for (evasion::EvasionClass cls : classes) {
    names.emplace_back(evasion::EvasionClassName(cls));
  }
  return StrJoin(names, ",");
}

// ---- rows -----------------------------------------------------------------

Flag Switch(std::string name, bool* target, bool value, std::string help) {
  Flag flag{.name = std::move(name), .help = std::move(help)};
  flag.store = [target, value](std::string_view) {
    *target = value;
    return true;
  };
  flag.show = [target] { return std::string(*target ? "true" : "false"); };
  return flag;
}

Flag Text(std::string name, std::string* target, std::string value_name,
          std::string help) {
  Flag flag{.name = std::move(name),
            .kind = FlagKind::kText,
            .value_name = std::move(value_name),
            .help = std::move(help)};
  flag.store = [target](std::string_view value) {
    target->assign(value);
    return true;
  };
  flag.show = [target] { return *target; };
  return flag;
}

// A non-negative number of at most `hi`.
Flag Real(std::string name, double* target, double hi, std::string help) {
  Flag flag{.name = std::move(name),
            .kind = FlagKind::kReal,
            .value_name = "<x>",
            .help = std::move(help),
            .hi = hi};
  flag.store = [target, hi](std::string_view text) {
    double value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    // The whole text, and finite: "0.5x", "nan" and "1e999" are refused.
    if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
        value < 0 || value > hi) {
      return false;
    }
    *target = value;
    return true;
  };
  flag.show = [target] { return StrFormat("%g", *target); };
  return flag;
}

Flag UintFlag(std::string name, uint64_t min, uint64_t max,
              std::function<void(uint64_t)> assign,
              std::function<std::string()> show, std::string help) {
  Flag flag{.name = std::move(name),
            .kind = FlagKind::kUint,
            .value_name = "<n>",
            .help = std::move(help),
            .min = min,
            .max = max,
            .show = std::move(show)};
  flag.store = [assign = std::move(assign), min, max](std::string_view text) {
    uint64_t value = 0;
    if (!ParseUint64(text, &value) || value < min || value > max) return false;
    assign(value);
    return true;
  };
  return flag;
}

// An unsigned field of any width; the range's ceiling is the field's.
template <typename T>
Flag Uint(std::string name, T* target, std::string help, uint64_t min = 0) {
  return UintFlag(
      std::move(name), min, std::numeric_limits<T>::max(),
      [target](uint64_t value) { *target = static_cast<T>(value); },
      [target] { return std::to_string(*target); }, std::move(help));
}

// An optional field, unset until the flag is given.
Flag Uint(std::string name, std::optional<uint64_t>* target,
          std::string help) {
  return UintFlag(
      std::move(name), 0, std::numeric_limits<uint64_t>::max(),
      [target](uint64_t value) { *target = value; },
      [target] {
        return target->has_value() ? std::to_string(**target) : std::string();
      },
      std::move(help));
}

Flag Required(Flag flag) {
  flag.required = true;
  return flag;
}

Flag Hidden(Flag flag) {
  flag.hidden = true;
  return flag;
}

// A flag that is refused unless `other` is given too.
Flag Needs(std::string other, Flag flag) {
  flag.requires_flag = std::move(other);
  return flag;
}

// ---- shared groups --------------------------------------------------------

FlagGroup PipelineGroup(vaccine::PipelineOptions* o) {
  return {"pipeline options",
          {Switch("--no-exclusiveness", &o->run_exclusiveness, false,
                  "skip the benign-corpus exclusiveness filter"),
           Uint("--max-api-calls", &o->limits.max_api_calls,
                "API calls per sandbox run; 0 = no cap"),
           Uint("--max-call-depth", &o->limits.max_call_depth,
                "shadow call-stack depth; 0 = no cap"),
           Switch("--no-snapshot-replay", &o->snapshot_replay, false,
                  "re-run mutations from the start, not from snapshots")}};
}

FlagGroup AnalysisGroup(AnalysisFlags* f) {
  return {"analysis output options",
          {Switch("--no-clinic", &f->run_clinic, false,
                  "skip the malware-clinic safety test"),
           Text("--package", &f->package_path, "<out.pkg>",
                "write the clinic-passed vaccines as a package"),
           Text("--report", &f->report_path, "<out.md>",
                "write the full markdown report"),
           Uint("--fault-seed", &f->fault_seed,
                "inject deterministic faults from seed n"),
           Needs("--fault-seed",
                 Real("--fault-rate", &f->fault_rate, 1,
                      "fault probability per API call")),
           Text("--metrics-out", &f->metrics_path, "<f>",
                "dump the metrics registry as JSONL"),
           Text("--trace-out", &f->trace_path, "<f>",
                "write a Chrome trace_event JSON file")}};
}

FlagGroup ConnectionGroup(std::string* socket, uint64_t* deadline_ms,
                          net::RetryPolicy* retry) {
  return {"connection options",
          {Required(Text("--socket", socket, "<s>",
                         "Unix socket path, tcp:host:port or tcp:port")),
           Uint("--deadline-ms", deadline_ms, "request deadline"),
           Uint("--retries", &retry->max_attempts, "attempts per request", 1),
           Uint("--retry-budget-ms", &retry->max_total_ms,
                "total retry budget"),
           Uint("--retry-seed", &retry->seed, "backoff jitter seed")}};
}

// ---- command tables -------------------------------------------------------

std::vector<FlagGroup> AnalyzeTable(AnalyzeArgs& a) {
  return {PipelineGroup(&a.pipeline), AnalysisGroup(&a.analysis)};
}

std::vector<FlagGroup> CampaignTable(CampaignArgs& a) {
  campaign::CampaignOptions& d = a.durability;
  return {
      PipelineGroup(&a.pipeline), AnalysisGroup(&a.analysis),
      {"campaign durability options",
       {Uint("--jobs", &d.jobs, "crash-isolated worker processes", 1),
        Text("--journal", &d.journal_path, "<f>",
             "fsync one journal record per completed sample"),
        Needs("--journal",
              Switch("--resume", &d.resume, true,
                     "skip samples already completed in --journal")),
        Uint("--sample-deadline-ms", &d.sample_deadline_ms,
             "per-sample deadline, enforced in forked workers; 0 = none"),
        Needs("--journal",
              Uint("--stop-after", &d.stop_after,
                   "stop after n samples with exit code 3; 0 = never")),
        Text("--campaign-out", &a.campaign_out, "<f>",
             "write the campaign report as JSON")}}};
}

std::vector<FlagGroup> NoFlagsTable(CommandArgs&) { return {}; }

std::vector<FlagGroup> TraceTable(TraceArgs& a) {
  return {{"options", {Text("--out", &a.out, "<f>", "write it to a file")}}};
}

std::vector<FlagGroup> CorpusTable(CorpusArgs& a) {
  evasion::EvasiveCorpusOptions& c = a.corpus;
  const std::string all = EvasionClassNames(evasion::AllEvasionClasses());
  return {
      {"options",
       {Required(Text("--out", &a.out_dir, "<dir>", "output directory")),
        Uint("--seed", &c.seed, "generator seed"),
        Uint("--per-class", &c.per_class, "samples per evasion class", 1),
        Flag{.name = "--evasion",
             .kind = FlagKind::kCustom,
             .value_name = "<class>[,<class>...]",
             .help = "only these classes (" + all + "); default all",
             .form = "a comma-separated list of " + all,
             .store =
                 [&c](std::string_view value) {
                   // Strict: one unknown name fails the whole run instead
                   // of silently generating a smaller corpus.
                   std::vector<evasion::EvasionClass> classes;
                   for (const std::string& name : StrSplit(value, ",", true)) {
                     const auto cls = evasion::ParseEvasionClass(name);
                     if (!cls.has_value()) return false;
                     classes.push_back(*cls);
                   }
                   c.classes.insert(c.classes.end(), classes.begin(),
                                    classes.end());
                   return true;
                 },
             .show = [&c] { return EvasionClassNames(c.classes); }}}}};
}

std::vector<FlagGroup> ServeTable(ServeArgs& a) {
  net::VacdOptions& v = a.vacd;
  return {
      {"serving options",
       {Required(Text("--socket", &v.socket_path, "<s>", "Unix socket")),
        Text("--store", &a.store_path, "<f>", "durable store file (JSONL)"),
        Uint("--threads", &v.threads, "pool threads for writes", 1),
        Uint("--checkpoint-every", &v.checkpoint_every,
             "checkpoint every n accepted vaccines; 0 = on shutdown only"),
        Uint("--dedup-window", &v.push_dedup_window,
             "push replies kept for idempotent retries"),
        Switch("--no-exclusiveness", &a.use_exclusiveness, false,
               "skip the benign-conflict quarantine scan"),
        Flag{.name = "--tcp",
             .kind = FlagKind::kCustom,
             .value_name = "<host:port>",
             .help = "also listen on TCP (port 0 = ephemeral); no auth yet, "
                     "so loopback unless the network is trusted",
             .form = "an endpoint 'host:port', 'port' or 'tcp:host:port'",
             .store =
                 [&v](std::string_view value) {
                   std::string spec = "tcp:";
                   spec += value.substr(value.rfind("tcp:", 0) == 0 ? 4 : 0);
                   auto endpoint = net::ParseEndpoint(spec);
                   if (!endpoint.ok()) return false;
                   v.tcp_host = endpoint->host;
                   v.tcp_port = endpoint->port;
                   return true;
                 },
             .show =
                 [&v] {
                   if (v.tcp_host.empty()) return std::string();
                   return v.tcp_host + ":" + std::to_string(v.tcp_port);
                 }}}},
      {"flow control, per connection on both listeners",
       {Uint("--max-connections", &v.max_connections,
             "connections before new ones shed BUSY"),
        Real("--rate-rps", &v.rate_limit_rps, kInf,
             "requests/second before BUSY; 0 = unlimited"),
        Real("--rate-burst", &v.rate_limit_burst, kInf, "token-bucket burst"),
        Uint("--idle-timeout-ms", &v.idle_timeout_ms,
             "close idle or stalled connections; 0 = never")}}};
}

// The client commands: the connection group, plus `own` rows.
std::vector<FlagGroup> ClientTable(ClientArgs& a, std::vector<Flag> own) {
  std::vector<FlagGroup> table = {
      ConnectionGroup(&a.socket, &a.deadline_ms, &a.retry)};
  if (!own.empty()) table.push_back({"options", std::move(own)});
  return table;
}

Flag BinaryFlag(ClientArgs& a) {
  return Switch("--binary", &a.binary, true, "compact binary wire encoding");
}

std::vector<FlagGroup> PushTable(ClientArgs& a) { return ClientTable(a, {}); }

std::vector<FlagGroup> StatusTable(ClientArgs& a) {
  return ClientTable(a, {BinaryFlag(a)});
}

std::vector<FlagGroup> QueryTable(ClientArgs& a) {
  const std::string types = ResourceTypeNames();
  return ClientTable(
      a, {Flag{.name = "--resource",
               .kind = FlagKind::kCustom,
               .value_name = "<type>",
               .help = "the identifier's resource type: " + types,
               .form = "a resource type (" + types + ")",
               .required = true,
               .store =
                   [&a](std::string_view value) {
                     auto type = os::ResourceTypeFromName(value);
                     if (type.ok()) a.resource = type.value();
                     return type.ok();
                   },
               .show =
                   [&a] { return ToLower(os::ResourceTypeName(a.resource)); }},
          BinaryFlag(a)});
}

std::vector<FlagGroup> PullTable(ClientArgs& a) {
  return ClientTable(
      a, {Uint("--since", &a.since, "only vaccines after this feed epoch"),
          Text("--out", &a.out, "<f>", "write the feed JSON to a file"),
          BinaryFlag(a)});
}

std::vector<FlagGroup> SyncTable(ClientArgs& a) {
  return ClientTable(
      a, {Uint("--page", &a.page, "page size; 0 = one unbounded pull"),
          Text("--out", &a.out, "<f>", "write the mirror JSON to a file"),
          BinaryFlag(a)});
}

std::vector<FlagGroup> QuarantineTable(ClientArgs& a) {
  return ClientTable(
      a, {Text("--reason", &a.reason, "<s>", "recorded retraction reason")});
}

std::vector<FlagGroup> ChaosProxyTable(ChaosProxyArgs& a) {
  net::ChaosProxyOptions& p = a.proxy;
  return {{"options",
           {Required(Text("--listen", &p.listen_path, "<s>",
                          "endpoint the client connects to")),
            Required(Text("--backend", &p.backend_path, "<s>",
                          "the vacd endpoint to relay to")),
            Uint("--fault-seed", &a.fault_seed, "fault plan seed"),
            Real("--fault-rate", &a.fault_rate, 1, "per-rule fault rate"),
            Uint("--deadline-ms", &p.deadline_ms, "relay deadline")}}};
}

std::vector<FlagGroup> CoordinateTable(CoordinateArgs& a) {
  fleet::CoordinatorOptions& c = a.coordinator;
  return {
      {"coordinator options",
       {Required(Text("--socket", &c.socket_path, "<s>", "fleet endpoint")),
        Text("--journal", &c.journal_path, "<f>", "write-ahead journal"),
        Needs("--journal",
              Switch("--resume", &c.resume, true, "resume from --journal")),
        Uint("--lease-ms", &c.lease_ms,
             "a worker that does not renew its lease in time loses it"),
        Uint("--threads", &c.threads, "request pool threads", 1),
        Text("--store", &c.store_path, "<f>",
             "stream extracted vaccines into this vacd store"),
        Text("--campaign-out", &a.campaign_out, "<f>",
             "write the merged campaign report as JSON"),
        Uint("--linger-ms", &a.linger_ms,
             "once done, serve until the fleet is quiet this long"),
        // Kill-matrix hook: SIGKILL right after journaling assignment n.
        Hidden(Uint("--crash-after-assignments", &c.crash_after_assignments,
                    ""))}},
      PipelineGroup(&a.pipeline)};
}

std::vector<FlagGroup> WorkerTable(WorkerArgs& a) {
  fleet::WorkerOptions& w = a.worker;
  return {
      ConnectionGroup(&w.socket_path, &w.deadline_ms, &w.retry),
      {"worker options",
       {Text("--worker-id", &w.worker_id, "<s>", "lease owner name"),
        Switch("--verdicts", &w.verdicts, true,
               "stream advisory verdicts before full analysis"),
        Uint("--idle-poll-ms", &w.idle_poll_ms, "wait between idle claims"),
        Uint("--max-idle-ms", &w.max_idle_ms, "give up when idle this long"),
        // Kill-matrix hooks: SIGKILL right after the n-th claim, or after
        // sending the first complete upload frame, before its reply.
        Hidden(Uint("--kill-after-claims", &w.kill_after_claims, "")),
        Hidden(Switch("--kill-mid-upload", &w.kill_mid_upload, true, ""))}},
      PipelineGroup(&a.pipeline)};
}

// A registry row: binds a command's table function to its argument type.
template <typename Args>
Command Define(std::string name, std::string operands,
               std::vector<FlagGroup> (*table)(Args&), std::string about) {
  return {std::move(name), std::move(operands), std::move(about),
          [] { return std::make_unique<Args>(); },
          [table](CommandArgs& args) {
            return table(static_cast<Args&>(args));
          }};
}

}  // namespace

const std::vector<Command>& Commands() {
  static const std::vector<Command> kCommands = {
      Define<AnalyzeArgs>("analyze", "<sample.asm>", &AnalyzeTable,
                          "Runs Phase I+II on a sample and prints the "
                          "vaccines that pass the malware clinic."),
      Define<CampaignArgs>("campaign", "<sample.asm>...", &CampaignTable,
                           "Analyzes a wave of samples with crash isolation; "
                           "a resumed run gives the same report bytes."),
      Define<CommandArgs>("test", "<sample.asm> <package.pkg>", &NoFlagsTable,
                          "Prints the package's BDR on the sample; exit 0 "
                          "when the package affected it."),
      Define<TraceArgs>("trace", "<sample.asm>", &TraceTable,
                        "Runs the sample once and dumps its API trace."),
      Define<CommandArgs>("disasm", "<sample.asm>", &NoFlagsTable,
                          "Assembles the sample and prints the listing."),
      Define<CorpusArgs>("corpus", "", &CorpusTable,
                         "Writes the evasion corpus as assembly sources; the "
                         "same --seed writes byte-identical files."),
      Define<ServeArgs>("serve", "", &ServeTable,
                        "Runs vacd, the vaccine store and feed server, until "
                        "SIGINT or SIGTERM, both of which drain."),
      Define<ClientArgs>("push", "<package.pkg>...", &PushTable,
                         "Ingests packages into vacd, deduped by digest."),
      Define<ClientArgs>("query", "<identifier>", &QueryTable,
                         "Prints the served vaccines that match the "
                         "identifier; exit 1 when none does."),
      Define<ClientArgs>("pull", "", &PullTable,
                         "Prints the feed page after --since, byte-identical "
                         "across server restarts."),
      Define<ClientArgs>("sync", "", &SyncTable,
                         "Mirrors the feed with paged delta pulls; the mirror "
                         "is byte-identical to one full pull."),
      Define<ClientArgs>("quarantine", "<digest>", &QuarantineTable,
                         "Retracts a vaccine; syncing clients receive a "
                         "tombstone."),
      Define<ChaosProxyArgs>("chaos-proxy", "", &ChaosProxyTable,
                             "Relays vacd traffic through a deterministic "
                             "wire-fault injector until SIGTERM."),
      Define<ClientArgs>("status", "", &StatusTable,
                         "Prints vacd's counters, the checkpoint epoch and "
                         "the records replayed at start."),
      Define<CoordinateArgs>("coordinate", "<sample.asm>...", &CoordinateTable,
                             "Shards a campaign across detonation workers "
                             "under leases; exit 3 when interrupted."),
      Define<WorkerArgs>("detonate-worker", "<sample.asm>...", &WorkerTable,
                         "Analyzes a coordinator's samples under renewed "
                         "leases; flags must match the coordinator's."),
  };
  return kCommands;
}

std::string Flag::AcceptedForm() const {
  const auto text = [](uint64_t n) { return std::to_string(n); };
  switch (kind) {
    case FlagKind::kUint:
      if (max != std::numeric_limits<uint64_t>::max()) {
        return "a decimal integer from " + text(min) + " to " + text(max);
      }
      return min > 0 ? "a decimal integer of at least " + text(min)
                     : "a non-negative decimal integer";
    case FlagKind::kReal:
      return std::isfinite(hi) ? StrFormat("a number from 0 to %g", hi)
                               : "a non-negative number";
    case FlagKind::kCustom:
      return form;
    case FlagKind::kSwitch:
    case FlagKind::kText:
      break;
  }
  return "a value";
}

std::optional<sandbox::FaultPlan> MakeFaultPlan(const AnalysisFlags& flags) {
  if (!flags.fault_seed.has_value()) return std::nullopt;
  return sandbox::FaultPlan::Randomized(*flags.fault_seed, flags.fault_rate);
}

const Command* FindCommand(std::string_view name) {
  for (const Command& command : Commands()) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

Status ParseFlags(const std::vector<FlagGroup>& table,
                  const std::vector<std::string>& args,
                  std::vector<std::string>* operands) {
  std::vector<const Flag*> rows;
  for (const FlagGroup& group : table) {
    for (const Flag& flag : group.flags) rows.push_back(&flag);
  }
  std::vector<std::string_view> given;
  const auto was_given = [&given](std::string_view name) {
    return std::find(given.begin(), given.end(), name) != given.end();
  };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      operands->push_back(arg);
      continue;
    }
    const auto row =
        std::find_if(rows.begin(), rows.end(),
                     [&arg](const Flag* flag) { return flag->name == arg; });
    if (row == rows.end()) {
      return Status::InvalidArgument("unknown option '" + arg + "'");
    }
    const Flag& flag = **row;
    std::string value;
    if (flag.TakesValue()) {
      if (i + 1 == args.size()) {
        return Status::InvalidArgument("option '" + arg +
                                       "' requires a value");
      }
      value = args[++i];
    }
    if (!flag.store(value)) {
      return Status::InvalidArgument(arg + " requires " + flag.AcceptedForm() +
                                     ", got '" + value + "'");
    }
    given.push_back(flag.name);
  }
  for (const Flag* flag : rows) {
    if (flag->required && !was_given(flag->name)) {
      return Status::InvalidArgument("missing required option '" +
                                     flag->name + "'");
    }
    if (was_given(flag->name) && !flag->requires_flag.empty() &&
        !was_given(flag->requires_flag)) {
      return Status::InvalidArgument("option '" + flag->name +
                                     "' requires '" + flag->requires_flag +
                                     "'");
    }
  }
  return Status::Ok();
}

Result<std::unique_ptr<CommandArgs>> ParseCommand(
    const Command& command, const std::vector<std::string>& args) {
  std::unique_ptr<CommandArgs> parsed = command.make_args();
  AUTOVAC_RETURN_IF_ERROR(
      ParseFlags(command.flags(*parsed), args, &parsed->operands));
  const size_t given = parsed->operands.size();
  const size_t needed = StrSplit(command.operands, " ").size();
  if (given > needed && !command.operands.ends_with("...")) {
    return Status::InvalidArgument("unexpected argument '" +
                                   parsed->operands[needed] + "'");
  }
  if (given < needed) {
    return Status::InvalidArgument(command.name + " needs " +
                                   command.operands);
  }
  return parsed;
}

std::string Synopsis(const Command& command) {
  std::string line = "autovac " + command.name;
  bool has_options = false;
  std::unique_ptr<CommandArgs> defaults = command.make_args();
  for (const FlagGroup& group : command.flags(*defaults)) {
    for (const Flag& flag : group.flags) {
      if (flag.required) line += " " + flag.name + " " + flag.value_name;
      has_options |= !flag.required && !flag.hidden;
    }
  }
  if (!command.operands.empty()) line += " " + command.operands;
  return has_options ? line + " [options]" : line;
}

std::string CommandHelp(const Command& command) {
  std::string out = "usage: " + Synopsis(command) + "\n";
  AppendWrapped(command.about, 0, 0, &out);
  std::unique_ptr<CommandArgs> defaults = command.make_args();
  for (const FlagGroup& group : command.flags(*defaults)) {
    std::string rows;
    for (const Flag& flag : group.flags) {
      if (flag.hidden) continue;
      std::string head = "  " + flag.name;
      if (flag.TakesValue()) head += " " + flag.value_name;
      head.resize(std::max(head.size() + 1, kFlagColumn), ' ');
      std::string text = flag.help;
      if (!flag.requires_flag.empty()) text += "; needs " + flag.requires_flag;
      const std::string value = flag.show();
      if (flag.required) {
        text += " (required)";
      } else if (flag.TakesValue() && !value.empty()) {
        text += " (default " + value + ")";
      }
      rows += head;
      AppendWrapped(text, kFlagColumn, head.size(), &rows);
    }
    if (!rows.empty()) out += "\n" + group.title + ":\n" + rows;
  }
  return out;
}

std::string TopLevelHelp() {
  std::string out = "usage: autovac <command> [arguments] [options]\n\n"
                    "commands:\n";
  for (const Command& command : Commands()) {
    out += "  " + Synopsis(command) + "\n";
  }
  return out +
         "\nquick start (vaccine feed):\n"
         "  autovac campaign samples/*.asm --package wave.pkg\n"
         "  autovac serve --socket /tmp/vacd.sock --store feed.jsonl &\n"
         "  autovac push --socket /tmp/vacd.sock wave.pkg\n"
         "  autovac query --socket /tmp/vacd.sock --resource mutex BadMutex\n"
         "  autovac pull --socket /tmp/vacd.sock --since 0\n"
         "\n'autovac <command> --help' lists a command's flags.\n";
}

}  // namespace autovac::cli
