// autovac — command-line front end for the AUTOVAC pipeline.
//
//   autovac analyze <sample.asm> [--no-exclusiveness] [--no-clinic]
//                                 [--package <out.pkg>] [--report <out.md>]
//                                 [--fault-seed <n>] [--fault-rate <p>]
//                                 [--max-api-calls <n>] [--max-call-depth <n>]
//                                 [--metrics-out <m.jsonl>]
//                                 [--trace-out <t.json>]
//                                 [--mutation-threads <n>]
//                                 [--no-snapshot-replay]
//       Run Phase I+II on an assembly sample, clinic-test the extracted
//       vaccines against the benign corpus, and print the survivors.
//       --fault-seed runs the whole analysis under a deterministic
//       randomized fault schedule (resilience testing); the limit flags
//       cap the execution envelope. --metrics-out dumps the process
//       metrics registry as JSONL; --trace-out writes a Chrome
//       trace_event file (load via chrome://tracing or Perfetto) whose
//       timestamps are VM instruction counts, so same-seed runs produce
//       identical span trees.
//   autovac campaign <sample.asm>... [analyze options]
//                    [--jobs <n>] [--journal <f>] [--resume]
//                    [--sample-deadline-ms <n>] [--stop-after <n>]
//                    [--campaign-out <f>]
//       Analyze a wave of samples with crash isolation and print the
//       per-sample dashboard plus campaign phase-cost totals. --journal
//       makes the campaign durable: every completed sample is fsync'd to
//       a write-ahead journal and --resume re-runs only the missing
//       ones, producing the same report bytes as an uninterrupted run.
//       --jobs > 1 or --sample-deadline-ms > 0 shards samples across
//       forked worker processes so a crashing or hanging sample becomes
//       a failed row, never a dead campaign. Exit code 3 means the run
//       stopped early (--stop-after) with the journal intact.
//   autovac test <sample.asm> <package.pkg>
//       Deploy a package on a fresh machine and re-run the sample against
//       it (normal vs vaccinated comparison + BDR).
//   autovac trace <sample.asm> [--out <trace.txt>]
//       Run the sample once and dump the serialized API trace.
//   autovac disasm <sample.asm>
//       Assemble and print the program listing.
//   autovac serve --socket <s> [--store <f>] [options]
//       Run vacd, the vaccine store + distribution server, until
//       SIGINT/SIGTERM. --store makes the feed durable (JSONL, fsync'd).
//   autovac push --socket <s> <package.pkg>...
//       Ingest packages into a running vacd (deduped by content digest).
//   autovac query --socket <s> --resource <type> <identifier>
//       Ask vacd which served vaccines match an identifier. Exit 0 on a
//       match, 1 when nothing matches.
//   autovac pull --socket <s> [--since <epoch>] [--out <f>]
//       Delta-sync the vaccine feed since an epoch; the feed page is the
//       server's reply JSON, byte-identical across server restarts.
//   autovac chaos-proxy --listen <s> --backend <s> --fault-seed <n>
//       Relay vacd traffic through a deterministic wire-fault injector
//       (refused connects, torn frames, stalls, duplicate delivery) to
//       rehearse client retry behaviour against a real server.
//   autovac status --socket <s>
//       Print a running vacd's operational counters, including the
//       recovery telemetry (checkpoint epoch, records replayed at load,
//       push dedup hits).
//   autovac coordinate --socket <s> <sample.asm>... [--journal <f>]
//       Run the fleet coordinator: shard the samples across remote
//       detonation workers under leases, journal progress write-ahead,
//       and merge the uploads into a campaign report byte-identical to
//       a fault-free single-host run.
//   autovac detonate-worker --socket <s> <sample.asm>...
//       Run one detonation worker against a coordinator: claim a
//       sample, analyze it under a heartbeat-renewed lease, upload the
//       report, repeat until the campaign is done. The worker needs the
//       same corpus files and pipeline flags as the coordinator, or its
//       claims are refused.
//   autovac corpus --out <dir> [--seed <n>] [--per-class <n>]
//                  [--evasion <class>[,<class>...]]
//       Generate the adversarial evasion corpus as .asm files. The same
//       seed writes byte-identical sources; unknown class names are
//       rejected (exit 2).
//
// Samples are written in the sandbox assembly dialect (see
// src/vm/assembler.h); everything runs inside the simulator — no real
// binaries are executed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <thread>

#include <sys/stat.h>

#include "campaign/supervisor.h"
#include "evasion/classes.h"
#include "evasion/corpus.h"
#include "fleet/agent.h"
#include "fleet/coordinator.h"
#include "malware/benign.h"
#include "net/chaosproxy.h"
#include "net/client.h"
#include "net/endpoint.h"
#include "net/faultwire.h"
#include "net/server.h"
#include "net/sync.h"
#include "sandbox/sandbox.h"
#include "support/metrics.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/tracing.h"
#include "trace/serialize.h"
#include "vaccine/bdr.h"
#include "vaccine/clinic.h"
#include "vaccine/delivery.h"
#include "vaccine/json.h"
#include "vaccine/package.h"
#include "vaccine/report.h"
#include "vaccine/pipeline.h"
#include "vacstore/store.h"
#include "vm/disassembler.h"

using namespace autovac;

namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: autovac <command> [arguments] [options]\n"
      "  analyze  <sample.asm> [options]\n"
      "  campaign <sample.asm>... [options]\n"
      "  test     <sample.asm> <package.pkg>\n"
      "  trace    <sample.asm> [--out trace.txt]\n"
      "  disasm   <sample.asm>\n"
      "  serve    --socket <s> [--store <f>] [--tcp <host:port>]\n"
      "           [serving options]\n"
      "  push     --socket <s> <package.pkg>...\n"
      "  query    --socket <s> --resource <type> <identifier>\n"
      "  pull     --socket <s> [--since <epoch>] [--out <f>]\n"
      "  sync     --socket <s> [--page <n>] [--out <f>] [--binary]\n"
      "  quarantine --socket <s> <digest> [--reason <s>]\n"
      "  chaos-proxy --listen <s> --backend <s> [--fault-seed <n>]\n"
      "  status   --socket <s>\n"
      "  coordinate --socket <s> <sample.asm>... [fleet options]\n"
      "  detonate-worker --socket <s> <sample.asm>... [fleet options]\n"
      "  corpus   --out <dir> [--seed <n>] [--per-class <n>]\n"
      "           [--evasion <class>[,<class>...]]\n"
      "analyze/campaign options:\n"
      "  --no-exclusiveness   skip the benign-corpus exclusiveness filter\n"
      "  --no-clinic          skip the malware-clinic safety test\n"
      "  --package <out.pkg>  write clinic-passed vaccines as a package\n"
      "  --report <out.md>    write the full markdown report\n"
      "  --fault-seed <n>     inject deterministic faults from seed n\n"
      "  --fault-rate <p>     fault probability per API call (default "
      "0.02)\n"
      "  --max-api-calls <n>  cap API calls per sandbox run\n"
      "  --max-call-depth <n> cap the shadow call-stack depth\n"
      "  --metrics-out <f>    dump the metrics registry as JSONL\n"
      "  --trace-out <f>      write a Chrome trace_event JSON file\n"
      "  --mutation-threads <n>  run Phase-II mutation re-runs on n worker\n"
      "                       threads (default 1); reports are byte-\n"
      "                       identical for any n\n"
      "  --no-snapshot-replay disable the machine-snapshot fast path for\n"
      "                       mutation re-runs (full prefix replay)\n"
      "campaign durability options:\n"
      "  --jobs <n>           analyze up to n samples in parallel worker\n"
      "                       processes (crash-isolated; default 1)\n"
      "  --journal <f>        write-ahead journal: fsync one record per\n"
      "                       completed sample\n"
      "  --resume             skip samples already completed in --journal\n"
      "  --sample-deadline-ms <n>  SIGKILL a worker stuck on one sample\n"
      "                       longer than n ms (implies worker mode)\n"
      "  --stop-after <n>     stop cleanly after n samples (exit code 3)\n"
      "  --campaign-out <f>   write the campaign report as JSON\n"
      "vacd serving options (serve):\n"
      "  --store <f>          durable store file (JSONL, created if absent)\n"
      "  --threads <n>        worker threads for pushes, quarantines and\n"
      "                       full pulls (default 4)\n"
      "  --checkpoint-every <n>  checkpoint the store every n accepted\n"
      "                       vaccines (and on shutdown), so a restart\n"
      "                       replays only the delta since the checkpoint\n"
      "  --dedup-window <n>   push replies remembered for idempotent\n"
      "                       retries (default 128, 0 disables)\n"
      "  --no-exclusiveness   skip the benign-conflict quarantine scan\n"
      "  --tcp <host:port>    also listen on TCP (port 0 = ephemeral,\n"
      "                       printed on the readiness line). Loopback\n"
      "                       only unless the network is trusted: no\n"
      "                       auth yet\n"
      "  flow control, per connection on both listeners:\n"
      "  --max-connections <n>  concurrent connections before new\n"
      "                       connects shed BUSY (default 4096)\n"
      "  --rate-rps <r>       sustained requests/second before BUSY\n"
      "                       (default 0 = unlimited)\n"
      "  --rate-burst <n>     token-bucket burst size (default 64)\n"
      "  --idle-timeout-ms <n>  close connections idle this long, a\n"
      "                       client stalled mid-request included\n"
      "                       (default 60000, 0 disables)\n"
      "vacd client options (push/query/pull/sync/quarantine; --socket\n"
      "also accepts a TCP endpoint spec 'tcp:host:port' or 'tcp:port'):\n"
      "  --deadline-ms <n>    request deadline (default 5000)\n"
      "  --retries <n>        attempts per request (default 1 = no retry);\n"
      "                       retried pushes carry an idempotency id\n"
      "  --retry-budget-ms <n>  total retry wall-clock budget before\n"
      "                       DeadlineExceeded (default 30000)\n"
      "  --retry-seed <n>     seed for deterministic backoff jitter\n"
      "  --resource <type>    query: file|registry|mutex|process|window|\n"
      "                       library|service\n"
      "  --binary             query/pull/status/sync: compact binary\n"
      "                       wire encoding for the hot read path\n"
      "  --since <n>          pull: only vaccines after feed epoch n\n"
      "  --out <f>            pull/sync: write the feed JSON to a file\n"
      "  --page <n>           sync: delta-pull page size (0 = unpaged)\n"
      "  --reason <s>         quarantine: recorded retraction reason\n"
      "chaos-proxy options:\n"
      "  --listen <s>         socket the client should connect to\n"
      "  --backend <s>        the real vacd socket to relay to\n"
      "  --fault-seed <n>     seed the deterministic fault plan (default 1)\n"
      "  --fault-rate <p>     per-rule fault probability (default 0.1)\n"
      "  --deadline-ms <n>    relay socket deadline (default 5000)\n"
      "fleet options (coordinate/detonate-worker; the pipeline flags\n"
      "--no-exclusiveness/--max-api-calls/--max-call-depth/\n"
      "--mutation-threads/--no-snapshot-replay are folded into the\n"
      "campaign config digest and must match on both sides):\n"
      "  --journal <f>        coordinate: write-ahead journal; with\n"
      "                       --resume a SIGKILLed coordinator restarts\n"
      "                       with only the in-flight delta lost\n"
      "  --lease-ms <n>       coordinate: lease validity window; a worker\n"
      "                       that does not renew within it loses the\n"
      "                       sample to reassignment (default 5000)\n"
      "  --store <f>          coordinate: stream extracted vaccines into\n"
      "                       this vacd store file as samples complete\n"
      "  --campaign-out <f>   coordinate: write the merged campaign\n"
      "                       report as JSON (byte-identical to a\n"
      "                       fault-free `autovac campaign` run)\n"
      "  --linger-ms <n>      coordinate: after the campaign completes,\n"
      "                       keep serving until the fleet is quiet this\n"
      "                       long so idle workers observe done instead\n"
      "                       of a torn socket (default 3000)\n"
      "  --worker-id <s>      detonate-worker: lease owner name shown in\n"
      "                       coordinator telemetry (default 'worker')\n"
      "  --verdicts           detonate-worker: emit the advisory online\n"
      "                       verdict stream before full analysis\n"
      "  --max-idle-ms <n>    detonate-worker: give up after polling an\n"
      "                       idle coordinator this long (default 60000)\n"
      "quick start (vaccine feed):\n"
      "  autovac campaign samples/*.asm --package wave.pkg\n"
      "  autovac serve --socket /tmp/vacd.sock --store feed.jsonl &\n"
      "  autovac push --socket /tmp/vacd.sock wave.pkg\n"
      "  autovac query --socket /tmp/vacd.sock --resource mutex BadMutex\n"
      "  autovac pull --socket /tmp/vacd.sock --since 0\n"
      "every command also accepts --help.\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

// True when any argument asks for help; commands print usage to stdout
// and exit 0 in that case.
bool WantsHelp(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      return true;
    }
  }
  return false;
}

// Strict flag handling: anything starting with "--" that no command
// recognizes is an error naming the flag, not a silent usage dump.
int UnknownOption(const char* flag) {
  std::fprintf(stderr, "error: unknown option '%s'\n", flag);
  return Usage();
}

// Returns the flag's value or null (after printing an error) when the
// value is missing. Advances *i past the value.
const char* OptionValue(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "error: option '%s' requires a value\n", argv[*i]);
    return nullptr;
  }
  return argv[++*i];
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteStringToFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot write " + path);
  out << text;
  return Status::Ok();
}

Result<vm::Program> LoadSample(const std::string& path) {
  auto source = ReadFileToString(path);
  if (!source.ok()) return source.status();
  return sandbox::AssembleForSandbox(source.value());
}

analysis::ExclusivenessIndex TrainIndex() {
  analysis::ExclusivenessIndex index;
  auto benign = malware::BuildBenignCorpus();
  AUTOVAC_CHECK(benign.ok());
  for (const vm::Program& app : benign.value()) {
    os::HostEnvironment env = os::HostEnvironment::StandardMachine();
    sandbox::RunOptions options;
    options.enable_taint = false;
    index.IndexBenignTrace(app.name,
                           sandbox::RunProgram(app, env, options).api_trace);
  }
  return index;
}

// Options shared by `analyze` and `campaign`.
struct AnalyzeFlags {
  bool use_exclusiveness = true;
  bool run_clinic = true;
  std::string package_path;
  std::string report_path;
  bool inject_faults = false;
  uint64_t fault_seed = 0;
  double fault_rate = 0.02;
  sandbox::RunLimits limits;
  std::string metrics_path;
  std::string trace_path;
  size_t mutation_threads = 1;
  bool snapshot_replay = true;
  // Campaign durability flags (rejected by `analyze`).
  size_t jobs = 1;
  uint64_t sample_deadline_ms = 0;
  std::string journal_path;
  bool resume = false;
  size_t stop_after = 0;
  std::string campaign_out;
  // Positional (non-flag) arguments, in order.
  std::vector<std::string> samples;
};

// Parses analyze/campaign arguments; returns false after printing an
// error for an unknown flag or a missing value. The durability flags are
// only recognized with `campaign` true.
bool ParseAnalyzeFlags(int argc, char** argv, AnalyzeFlags* flags,
                       bool campaign = false) {
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      flags->samples.push_back(arg);
      continue;
    }
    const char* value = nullptr;
    if (std::strcmp(arg, "--no-exclusiveness") == 0) {
      flags->use_exclusiveness = false;
    } else if (std::strcmp(arg, "--no-clinic") == 0) {
      flags->run_clinic = false;
    } else if (std::strcmp(arg, "--package") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->package_path = value;
    } else if (std::strcmp(arg, "--report") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->report_path = value;
    } else if (std::strcmp(arg, "--fault-seed") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->inject_faults = true;
      flags->fault_seed = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--fault-rate") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->fault_rate = std::strtod(value, nullptr);
    } else if (std::strcmp(arg, "--max-api-calls") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->limits.max_api_calls = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--max-call-depth") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->limits.max_call_depth =
          static_cast<uint32_t>(std::strtoul(value, nullptr, 0));
    } else if (std::strcmp(arg, "--metrics-out") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->metrics_path = value;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->trace_path = value;
    } else if (std::strcmp(arg, "--mutation-threads") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      const long long threads = std::strtoll(value, nullptr, 0);
      if (threads <= 0) {
        std::fprintf(stderr,
                     "error: --mutation-threads requires at least 1\n");
        return false;
      }
      flags->mutation_threads = static_cast<size_t>(threads);
    } else if (std::strcmp(arg, "--no-snapshot-replay") == 0) {
      flags->snapshot_replay = false;
    } else if (campaign && std::strcmp(arg, "--jobs") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      // Signed parse so "--jobs -1" is rejected rather than wrapping to a
      // huge unsigned count.
      const long long jobs = std::strtoll(value, nullptr, 0);
      if (jobs <= 0) {
        std::fprintf(stderr, "error: --jobs requires at least 1\n");
        return false;
      }
      flags->jobs = static_cast<size_t>(jobs);
    } else if (campaign && std::strcmp(arg, "--journal") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->journal_path = value;
    } else if (campaign && std::strcmp(arg, "--resume") == 0) {
      flags->resume = true;
    } else if (campaign && std::strcmp(arg, "--sample-deadline-ms") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->sample_deadline_ms = std::strtoull(value, nullptr, 0);
    } else if (campaign && std::strcmp(arg, "--stop-after") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->stop_after = std::strtoull(value, nullptr, 0);
    } else if (campaign && std::strcmp(arg, "--campaign-out") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return false;
      flags->campaign_out = value;
    } else {
      UnknownOption(arg);
      return false;
    }
  }
  return true;
}

// Writes --metrics-out / --trace-out if requested. Returns 0 or 1.
int ExportTelemetry(const AnalyzeFlags& flags) {
  if (!flags.metrics_path.empty()) {
    const std::string jsonl = ExportMetricsJsonl(GlobalMetrics().Snapshot());
    const Status written = WriteStringToFile(flags.metrics_path, jsonl);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s (%zu series)\n",
                flags.metrics_path.c_str(), GlobalMetrics().size());
  }
  if (!flags.trace_path.empty()) {
    const std::string trace = ExportChromeTrace(GlobalTracer(), {});
    const Status written = WriteStringToFile(flags.trace_path, trace);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu spans)\n", flags.trace_path.c_str(),
                GlobalTracer().spans().size());
  }
  return 0;
}

void PrintPhaseCosts(const std::vector<PhaseTotal>& costs) {
  if (costs.empty()) return;
  // Deterministic fields only (no wall times): stdout must stay
  // byte-identical across same-seed runs.
  TextTable table({"phase", "spans", "instructions"});
  for (const PhaseTotal& cost : costs) {
    table.AddRow({cost.name, std::to_string(cost.spans),
                  std::to_string(cost.ticks)});
  }
  std::printf("\nanalysis cost by phase (VM instructions):\n%s",
              table.Render().c_str());
}

// Clinic-tests `vaccines` in place (removing the discarded ones) and
// prints the outcome. The paper's §IV-D gate: a vaccine that changes any
// benign program's behaviour never ships.
void ApplyClinic(std::vector<vaccine::Vaccine>& vaccines) {
  if (vaccines.empty()) return;
  auto benign = malware::BuildBenignCorpus();
  AUTOVAC_CHECK(benign.ok());
  vaccine::ClinicResult clinic =
      vaccine::RunClinicTest(vaccines, benign.value());
  std::printf("clinic: %zu vaccines tested against %zu benign programs — "
              "%zu passed, %zu discarded\n",
              vaccines.size(), benign->size(), clinic.passed.size(),
              clinic.discarded.size());
  for (size_t i = 0; i < clinic.discarded.size(); ++i) {
    std::printf("clinic: discarded %s (deviates %s)\n",
                clinic.discarded[i].Summary().c_str(),
                clinic.discard_reasons[i].c_str());
  }
  vaccines = std::move(clinic.passed);
}

int CmdAnalyze(int argc, char** argv) {
  AnalyzeFlags flags;
  if (!ParseAnalyzeFlags(argc, argv, &flags)) return 2;
  if (flags.samples.size() != 1) {
    std::fprintf(stderr, "error: analyze takes exactly one sample\n");
    return Usage();
  }
  GlobalTracer().set_enabled(true);

  auto program = LoadSample(flags.samples[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.status().ToString().c_str());
    return 1;
  }
  std::printf("sample '%s': %zu instructions, digest %s\n",
              program->name.c_str(), program->code.size(),
              program->Digest().c_str());

  analysis::ExclusivenessIndex index;
  if (flags.use_exclusiveness) {
    index = TrainIndex();
    std::printf("exclusiveness index: %zu identifiers from the benign "
                "corpus\n", index.size());
  }
  vaccine::PipelineOptions options;
  options.run_exclusiveness = flags.use_exclusiveness;
  options.limits = flags.limits;
  options.mutation_threads = flags.mutation_threads;
  options.snapshot_replay = flags.snapshot_replay;
  sandbox::FaultPlan fault_plan(flags.fault_seed);
  if (flags.inject_faults) {
    fault_plan = sandbox::FaultPlan::Randomized(flags.fault_seed,
                                                flags.fault_rate);
    options.fault_plan = &fault_plan;
    std::printf("fault injection: %s\n", fault_plan.Summary().c_str());
  }
  vaccine::VaccinePipeline pipeline(
      flags.use_exclusiveness ? &index : nullptr, options);
  auto report = pipeline.Analyze(program.value());
  if (flags.run_clinic) ApplyClinic(report.vaccines);
  // Clinic spans opened after Analyze; fold them into the rollup.
  report.phase_costs = GlobalTracer().PhaseTotals(0);
  if (!flags.report_path.empty()) {
    const Status written = WriteStringToFile(
        flags.report_path, vaccine::RenderSampleReport(report));
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("report written to %s\n", flags.report_path.c_str());
  }

  std::printf("\nPhase-I : %zu resource-API occurrences, %zu tainted; "
              "resource-sensitive: %s\n",
              report.resource_api_occurrences, report.tainted_occurrences,
              report.resource_sensitive ? "yes" : "no");
  std::printf("Phase-II: %zu targets; filtered %zu non-exclusive, %zu "
              "no-impact, %zu non-deterministic\n",
              report.targets_considered, report.filtered_not_exclusive,
              report.filtered_no_impact, report.filtered_non_deterministic);
  if (!report.Clean() || report.faults_injected > 0) {
    std::printf("resilience: %zu faults injected, %zu retries, %zu targets "
                "faulted, %zu vaccines demoted\n",
                report.faults_injected, report.impact_retries,
                report.targets_faulted, report.vaccines_demoted);
    if (!report.phase1_status.ok()) {
      std::printf("phase-1 status: %s\n",
                  report.phase1_status.ToString().c_str());
    }
    if (!report.phase2_status.ok()) {
      std::printf("phase-2 status: %s\n",
                  report.phase2_status.ToString().c_str());
    }
  }
  PrintPhaseCosts(report.phase_costs);
  std::printf("\n");
  if (report.vaccines.empty()) {
    std::printf("no vaccines extracted.\n");
    return ExportTelemetry(flags);
  }
  for (const vaccine::Vaccine& v : report.vaccines) {
    std::printf("vaccine: %s\n", v.Summary().c_str());
  }

  if (!flags.package_path.empty()) {
    const Status written = WriteStringToFile(
        flags.package_path, vaccine::SerializePackage(report.vaccines));
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("\npackage written to %s (%zu vaccines)\n",
                flags.package_path.c_str(), report.vaccines.size());
  }
  return ExportTelemetry(flags);
}

// Merges phase totals from several sources into one name-sorted rollup
// (the same ordering PhaseTotals produces), so the campaign dashboard
// can combine per-sample costs with the supervisor's own clinic spans.
std::vector<PhaseTotal> MergePhaseTotals(
    std::initializer_list<const std::vector<PhaseTotal>*> sources) {
  std::map<std::string, PhaseTotal> merged;
  for (const std::vector<PhaseTotal>* source : sources) {
    for (const PhaseTotal& cost : *source) {
      PhaseTotal& total = merged[cost.name];
      total.name = cost.name;
      total.spans += cost.spans;
      total.ticks += cost.ticks;
      total.wall_ns += cost.wall_ns;
    }
  }
  std::vector<PhaseTotal> out;
  out.reserve(merged.size());
  for (auto& [name, total] : merged) out.push_back(std::move(total));
  return out;
}

int CmdCampaign(int argc, char** argv) {
  AnalyzeFlags flags;
  if (!ParseAnalyzeFlags(argc, argv, &flags, /*campaign=*/true)) return 2;
  if (flags.samples.empty()) {
    std::fprintf(stderr, "error: campaign needs at least one sample\n");
    return Usage();
  }
  GlobalTracer().set_enabled(true);

  std::vector<vm::Program> programs;
  programs.reserve(flags.samples.size());
  for (const std::string& path : flags.samples) {
    auto program = LoadSample(path);
    if (!program.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   program.status().ToString().c_str());
      return 1;
    }
    programs.push_back(std::move(program).value());
  }

  analysis::ExclusivenessIndex index;
  if (flags.use_exclusiveness) index = TrainIndex();
  vaccine::PipelineOptions options;
  options.run_exclusiveness = flags.use_exclusiveness;
  options.limits = flags.limits;
  options.snapshot_replay = flags.snapshot_replay;
  // Total concurrency is --jobs worker processes x --mutation-threads
  // pool threads inside each worker; cap it at the machine's hardware
  // threads so a generous flag combination cannot oversubscribe the box.
  // The note goes to stderr — stdout is the dashboard, which must stay
  // byte-comparable across machines.
  options.mutation_threads = flags.mutation_threads;
  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  if (flags.jobs * flags.mutation_threads > hardware) {
    options.mutation_threads = std::max<size_t>(1, hardware / flags.jobs);
    std::fprintf(stderr,
                 "campaign: capping --mutation-threads %zu -> %zu "
                 "(%zu jobs x threads must fit %zu hardware threads)\n",
                 flags.mutation_threads, options.mutation_threads, flags.jobs,
                 hardware);
  }
  sandbox::FaultPlan fault_plan(flags.fault_seed);
  if (flags.inject_faults) {
    fault_plan = sandbox::FaultPlan::Randomized(flags.fault_seed,
                                                flags.fault_rate);
    options.fault_plan = &fault_plan;
    std::printf("fault injection: %s\n", fault_plan.Summary().c_str());
  }
  vaccine::VaccinePipeline pipeline(
      flags.use_exclusiveness ? &index : nullptr, options);

  campaign::CampaignOptions durability;
  durability.jobs = flags.jobs;
  durability.sample_deadline_ms = flags.sample_deadline_ms;
  durability.journal_path = flags.journal_path;
  durability.resume = flags.resume;
  durability.stop_after = flags.stop_after;
  if (flags.inject_faults) {
    // The fault schedule changes analysis output but lives outside
    // PipelineOptions; fold it into the journal's config digest so a
    // resume with different fault flags is refused.
    durability.config_extra = StrFormat("fault_seed=%llu fault_rate=%.17g",
                                        static_cast<unsigned long long>(
                                            flags.fault_seed),
                                        flags.fault_rate);
  }
  auto outcome = campaign::RunDurableCampaign(pipeline, programs, durability);
  if (!outcome.ok()) {
    std::fprintf(stderr, "error: %s\n", outcome.status().ToString().c_str());
    return 1;
  }
  vaccine::CampaignReport& campaign = outcome.value().report;
  const campaign::CampaignRunStats& stats = outcome.value().stats;
  // Durability narration goes to stderr: stdout is the dashboard, which
  // must stay byte-comparable between fresh and resumed runs.
  if (!flags.journal_path.empty() || durability.WorkerMode()) {
    std::fprintf(stderr,
                 "campaign: %zu samples replayed from journal, %zu analyzed "
                 "(%zu worker crashes, %zu deadline kills, %zu retries, "
                 "%zu quarantined)\n",
                 stats.samples_loaded, stats.samples_analyzed,
                 stats.workers_crashed, stats.deadline_kills,
                 stats.worker_retries, stats.samples_quarantined);
  }
  if (stats.interrupted) {
    std::fprintf(stderr,
                 "campaign: interrupted after %zu samples; resume with "
                 "--resume --journal %s\n",
                 stats.samples_analyzed, flags.journal_path.c_str());
  }

  TextTable table({"sample", "sensitive", "targets", "vaccines", "demoted",
                   "faults", "clean"});
  std::vector<vaccine::Vaccine> all_vaccines;
  for (const vaccine::SampleReport& report : campaign.reports) {
    table.AddRow({report.sample_name,
                  report.resource_sensitive ? "yes" : "no",
                  std::to_string(report.targets_considered),
                  std::to_string(report.vaccines.size()),
                  std::to_string(report.vaccines_demoted),
                  std::to_string(report.faults_injected),
                  report.Clean() ? "yes" : "no"});
    all_vaccines.insert(all_vaccines.end(), report.vaccines.begin(),
                        report.vaccines.end());
  }
  std::printf("campaign dashboard (%zu samples):\n%s",
              campaign.reports.size(), table.Render().c_str());
  std::printf("totals: %zu vaccines, %zu demoted, %zu faults injected, "
              "%zu samples degraded, %zu failed\n",
              campaign.total_vaccines, campaign.total_demoted,
              campaign.total_faults_injected, campaign.samples_degraded,
              campaign.samples_failed);
  // "Why no vaccine?": where the campaign's mutation targets were dropped,
  // summed over the same per-sample counters `analyze` prints.
  size_t targets = 0;
  size_t not_exclusive = 0;
  size_t no_impact = 0;
  size_t non_deterministic = 0;
  size_t faulted = 0;
  size_t vaccines = 0;
  for (const vaccine::SampleReport& report : campaign.reports) {
    targets += report.targets_considered;
    not_exclusive += report.filtered_not_exclusive;
    no_impact += report.filtered_no_impact;
    non_deterministic += report.filtered_non_deterministic;
    faulted += report.targets_faulted;
    vaccines += report.vaccines.size();
  }
  std::printf("target totals: %zu targets, %zu non-exclusive, %zu no-impact, "
              "%zu non-deterministic, %zu faulted, %zu vaccines\n",
              targets, not_exclusive, no_impact, non_deterministic, faulted,
              vaccines);

  // Phase costs come from the per-report rollups (the supervisor's own
  // tracer sees nothing when samples ran in forked workers or were
  // replayed from a journal), plus whatever the clinic adds in-process.
  const size_t pre_clinic = GlobalTracer().spans().size();
  if (flags.run_clinic) ApplyClinic(all_vaccines);
  const std::vector<PhaseTotal> clinic_costs =
      GlobalTracer().PhaseTotals(pre_clinic);
  PrintPhaseCosts(MergePhaseTotals({&campaign.phase_costs, &clinic_costs}));

  if (!flags.package_path.empty()) {
    const Status written = WriteStringToFile(
        flags.package_path, vaccine::SerializePackage(all_vaccines));
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("package written to %s (%zu vaccines)\n",
                flags.package_path.c_str(), all_vaccines.size());
  }
  if (!flags.campaign_out.empty()) {
    const Status written = WriteStringToFile(
        flags.campaign_out, vaccine::CampaignReportToJson(campaign) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("campaign report written to %s (%zu samples)\n",
                flags.campaign_out.c_str(), campaign.reports.size());
  }
  const int telemetry = ExportTelemetry(flags);
  if (telemetry != 0) return telemetry;
  return stats.interrupted ? 3 : 0;
}

int CmdTest(int argc, char** argv) {
  if (argc != 2) return Usage();
  auto program = LoadSample(argv[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.status().ToString().c_str());
    return 1;
  }
  auto package_text = ReadFileToString(argv[1]);
  if (!package_text.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 package_text.status().ToString().c_str());
    return 1;
  }
  auto vaccines = vaccine::ParsePackage(package_text.value());
  if (!vaccines.ok()) {
    std::fprintf(stderr, "error: %s\n", vaccines.status().ToString().c_str());
    return 1;
  }
  std::printf("package: %zu vaccines\n", vaccines->size());

  auto bdr = vaccine::MeasureBdr(program.value(), vaccines.value());
  std::printf("normal machine:     %zu native calls\n",
              bdr.native_calls_normal);
  std::printf("vaccinated machine: %zu native calls%s\n",
              bdr.native_calls_vaccinated,
              bdr.malware_terminated_early ? " (malware self-terminated)"
                                           : "");
  std::printf("BDR = %.2f\n", bdr.bdr);
  // Success when the package demonstrably affected the sample.
  return (bdr.bdr > 0.0 || bdr.malware_terminated_early) ? 0 : 1;
}

int CmdTrace(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto program = LoadSample(argv[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.status().ToString().c_str());
    return 1;
  }
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      const char* value = OptionValue(argc, argv, &i);
      if (value == nullptr) return 2;
      out_path = value;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      return UnknownOption(argv[i]);
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", argv[i]);
      return Usage();
    }
  }
  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  auto run = sandbox::RunProgram(program.value(), env, {});
  const std::string serialized = trace::SerializeApiTrace(run.api_trace);
  if (out_path.empty()) {
    std::fputs(serialized.c_str(), stdout);
  } else {
    const Status written = WriteStringToFile(out_path, serialized);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("trace with %zu calls written to %s\n",
                run.api_trace.calls.size(), out_path.c_str());
  }
  return 0;
}

int CmdDisasm(int argc, char** argv) {
  if (argc != 1) return Usage();
  auto program = LoadSample(argv[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.status().ToString().c_str());
    return 1;
  }
  std::fputs(
      vm::DisassembleProgram(program.value(), sandbox::SandboxApiNamer())
          .c_str(),
      stdout);
  return 0;
}

int CmdCorpus(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    std::printf(
        "usage: autovac corpus --out <dir> [--seed <n>] [--per-class <n>]\n"
        "                      [--evasion <class>[,<class>...]]\n"
        "Generates the adversarial evasion corpus as assembly sources in\n"
        "<dir> (created if absent). Classes: stalling, env-probe,\n"
        "runtime-unpack, vaccine-aware; default is all of them. The same\n"
        "--seed writes byte-identical files regardless of which class\n"
        "subset is requested; unknown class names are rejected (exit 2).\n");
    return 0;
  }
  std::string out_dir;
  evasion::EvasiveCorpusOptions options;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--out") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      out_dir = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      if (!ParseUint64(value, &options.seed)) {
        std::fprintf(stderr,
                     "error: --seed requires a non-negative decimal integer, "
                     "got '%s'\n",
                     value);
        return 2;
      }
    } else if (std::strcmp(arg, "--per-class") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      uint64_t per_class = 0;
      if (!ParseUint64(value, &per_class) || per_class == 0) {
        std::fprintf(stderr,
                     "error: --per-class requires a decimal integer of at "
                     "least 1, got '%s'\n",
                     value);
        return 2;
      }
      options.per_class = static_cast<size_t>(per_class);
    } else if (std::strcmp(arg, "--evasion") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      // Comma-separated, strict: one unknown name fails the whole run
      // instead of silently generating a smaller corpus.
      const std::string list(value);
      size_t start = 0;
      while (true) {
        const size_t comma = list.find(',', start);
        const std::string name = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        auto cls = evasion::ParseEvasionClass(name);
        if (!cls.has_value()) {
          std::fprintf(stderr, "error: unknown evasion class '%s'\n",
                       name.c_str());
          return 2;
        }
        options.classes.push_back(*cls);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (std::strncmp(arg, "--", 2) == 0) {
      return UnknownOption(arg);
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg);
      return Usage();
    }
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "error: corpus requires --out\n");
    return Usage();
  }
  if (::mkdir(out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", out_dir.c_str(),
                 std::strerror(errno));
    return 1;
  }
  auto corpus = evasion::GenerateEvasiveCorpus(options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  for (const evasion::EvasiveSample& sample : corpus.value()) {
    const std::string path = out_dir + "/" + sample.program.name + ".asm";
    const Status written = WriteStringToFile(path, sample.source);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::printf("corpus: wrote %zu samples to %s (seed %llu)\n",
              corpus->size(), out_dir.c_str(),
              static_cast<unsigned long long>(options.seed));
  return 0;
}

// ---- vacd commands ---------------------------------------------------

std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int) { g_stop_requested.store(true); }

// Flags shared by the vacd client commands (push/query/pull).
struct ClientFlags {
  std::string socket_path;  // endpoint spec: Unix path or tcp:host:port
  uint64_t deadline_ms = 5000;
  bool binary = false;  // compact binary encoding for the read path
  net::RetryPolicy retry;  // default: a single attempt
};

int CmdServe(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    std::printf(
        "usage: autovac serve --socket <s> [--store <f>] [--threads <n>]\n"
        "                     [--checkpoint-every <n>]\n"
        "                     [--dedup-window <n>] [--no-exclusiveness]\n"
        "                     [--tcp <host:port>] [--max-connections <n>]\n"
        "                     [--rate-rps <r>] [--rate-burst <n>]\n"
        "                     [--idle-timeout-ms <n>]\n"
        "Runs vacd, the vaccine store + distribution server, until SIGINT\n"
        "or SIGTERM (both drain: every request already received is\n"
        "answered and the store is fsync'd before exit). With --store\n"
        "the feed is durable: pushes append to a fsync'd JSONL journal\n"
        "that survives crashes and restarts; --checkpoint-every bounds\n"
        "restart recovery to the delta since the last checkpoint.\n"
        "Vaccines whose identifier or pattern collides with the benign\n"
        "corpus are quarantined (stored, never served) unless\n"
        "--no-exclusiveness is given.\n"
        "One event loop serves the socket and, with --tcp, a TCP port:\n"
        "persistent connections, pipelined JSON or binary frames, and the\n"
        "same per-connection flow control on both (connection cap, token\n"
        "bucket, bounded write buffer, idle sweep). Port 0 picks an\n"
        "ephemeral port, printed in the readiness line. No\n"
        "authentication yet: bind loopback (the default host) unless the\n"
        "network is trusted.\n");
    return 0;
  }
  std::string socket_path;
  std::string store_path;
  net::VacdOptions options;
  bool use_exclusiveness = true;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--socket") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      socket_path = value;
    } else if (std::strcmp(arg, "--store") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      store_path = value;
    } else if (std::strcmp(arg, "--threads") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      const long long threads = std::strtoll(value, nullptr, 0);
      if (threads <= 0) {
        std::fprintf(stderr, "error: --threads requires at least 1\n");
        return 2;
      }
      options.threads = static_cast<size_t>(threads);
    } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.checkpoint_every =
          static_cast<size_t>(std::strtoull(value, nullptr, 0));
    } else if (std::strcmp(arg, "--dedup-window") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.push_dedup_window =
          static_cast<size_t>(std::strtoull(value, nullptr, 0));
    } else if (std::strcmp(arg, "--no-exclusiveness") == 0) {
      use_exclusiveness = false;
    } else if (std::strcmp(arg, "--tcp") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      // Accept "host:port", "port", or a full "tcp:..." spec.
      std::string spec(value);
      if (spec.rfind("tcp:", 0) != 0) spec = "tcp:" + spec;
      auto endpoint = net::ParseEndpoint(spec);
      if (!endpoint.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     endpoint.status().ToString().c_str());
        return 2;
      }
      options.tcp_host = endpoint->host;
      options.tcp_port = endpoint->port;
    } else if (std::strcmp(arg, "--max-connections") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.max_connections =
          static_cast<size_t>(std::strtoull(value, nullptr, 0));
    } else if (std::strcmp(arg, "--rate-rps") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.rate_limit_rps = std::strtod(value, nullptr);
    } else if (std::strcmp(arg, "--rate-burst") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.rate_limit_burst = std::strtod(value, nullptr);
    } else if (std::strcmp(arg, "--idle-timeout-ms") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.idle_timeout_ms = std::strtoull(value, nullptr, 0);
    } else if (std::strncmp(arg, "--", 2) == 0) {
      return UnknownOption(arg);
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg);
      return Usage();
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "error: serve requires --socket\n");
    return Usage();
  }
  options.socket_path = socket_path;

  vacstore::VaccineStore store;
  if (!store_path.empty()) {
    auto opened = vacstore::VaccineStore::Open(store_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(opened).value();
    if (store.repaired_torn_tail()) {
      std::fprintf(stderr,
                   "vacd: dropped a torn record from %s (crash mid-push)\n",
                   store_path.c_str());
    }
  }
  analysis::ExclusivenessIndex index;
  if (use_exclusiveness) {
    index = TrainIndex();
    store.SetConflictIndex(&index);
    auto rescanned = store.RescanConflicts();
    if (!rescanned.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   rescanned.status().ToString().c_str());
      return 1;
    }
    if (*rescanned > 0) {
      std::fprintf(stderr, "vacd: quarantined %zu stored vaccines that "
                   "conflict with the benign corpus\n", *rescanned);
    }
  }

  net::VacdServer server(std::move(store), options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  // The "listening" line is the readiness signal scripts wait for.
  std::printf("vacd: listening on %s (%zu served, %zu quarantined, "
              "epoch %llu)\n",
              socket_path.c_str(), server.Stats().served,
              server.Stats().quarantined,
              static_cast<unsigned long long>(server.Stats().epoch));
  if (server.tcp_port() != 0) {
    // Scripts parse the resolved port from this line (--tcp ...:0
    // binds an ephemeral one).
    std::printf("vacd: tcp listening on tcp:%s:%u\n",
                options.tcp_host.c_str(),
                static_cast<unsigned>(server.tcp_port()));
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_requested.load()) {
    ::usleep(50 * 1000);
  }
  const net::StatusReply stats = server.Stats();
  server.Stop();
  std::printf("vacd: stopped after %llu requests (%llu shed); "
              "%llu served, %llu quarantined, epoch %llu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.quarantined),
              static_cast<unsigned long long>(stats.epoch));
  return 0;
}

// A command's own value flag: `name <value>` stores the value.
struct ExtraFlag {
  const char* name;
  const char** value;
};

// Parses the client flags (--socket, --deadline-ms, --retries,
// --retry-budget-ms, --retry-seed, --binary) and the command's `extras`,
// collecting positionals. Returns -1 to continue, or an exit code.
int ParseClientFlags(int argc, char** argv, ClientFlags* flags,
                     std::vector<std::string>* positional,
                     std::initializer_list<ExtraFlag> extras = {}) {
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--socket") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      flags->socket_path = value;
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      flags->deadline_ms = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--retries") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      const long long attempts = std::strtoll(value, nullptr, 0);
      if (attempts <= 0) {
        std::fprintf(stderr, "error: --retries requires at least 1\n");
        return 2;
      }
      flags->retry.max_attempts = static_cast<uint32_t>(attempts);
    } else if (std::strcmp(arg, "--retry-budget-ms") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      flags->retry.max_total_ms = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--retry-seed") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      flags->retry.seed = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--binary") == 0) {
      flags->binary = true;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      const auto extra =
          std::find_if(extras.begin(), extras.end(), [arg](const ExtraFlag& f) {
            return std::strcmp(arg, f.name) == 0;
          });
      if (extra == extras.end()) return UnknownOption(arg);
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      *extra->value = value;
    } else {
      positional->push_back(arg);
    }
  }
  if (flags->socket_path.empty()) {
    std::fprintf(stderr, "error: this command requires --socket\n");
    return Usage();
  }
  return -1;
}

int CmdPush(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    std::printf(
        "usage: autovac push --socket <s> [--deadline-ms <n>] "
        "<package.pkg>...\n"
        "Ingests the packages' vaccines into a running vacd. The store\n"
        "dedups by content digest, so re-pushing a package is a no-op;\n"
        "conflicting vaccines are quarantined, not served.\n");
    return 0;
  }
  ClientFlags flags;
  std::vector<std::string> files;
  const int parsed = ParseClientFlags(argc, argv, &flags, &files);
  if (parsed >= 0) return parsed;
  if (files.empty()) {
    std::fprintf(stderr, "error: push needs at least one package file\n");
    return Usage();
  }
  std::vector<vaccine::Vaccine> vaccines;
  for (const std::string& path : files) {
    auto text = ReadFileToString(path);
    if (!text.ok()) {
      std::fprintf(stderr, "error: %s\n", text.status().ToString().c_str());
      return 1;
    }
    auto parsed_package = vaccine::ParsePackage(text.value());
    if (!parsed_package.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   parsed_package.status().ToString().c_str());
      return 1;
    }
    vaccines.insert(vaccines.end(), parsed_package->begin(),
                    parsed_package->end());
  }
  net::VacdClient client(flags.socket_path, flags.deadline_ms, flags.retry);
  client.set_binary(flags.binary);
  auto reply = client.Push(vaccines);
  if (!reply.ok()) {
    std::fprintf(stderr, "error: %s\n", reply.status().ToString().c_str());
    return net::VacdClient::IsBusy(reply.status()) ? 4 : 1;
  }
  std::printf("pushed %zu vaccines: %llu added, %llu duplicates, "
              "%llu quarantined; feed epoch %llu\n",
              vaccines.size(),
              static_cast<unsigned long long>(reply->added),
              static_cast<unsigned long long>(reply->duplicates),
              static_cast<unsigned long long>(reply->quarantined),
              static_cast<unsigned long long>(reply->epoch));
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    std::printf(
        "usage: autovac query --socket <s> --resource <type> <identifier>\n"
        "Asks vacd which served vaccines match the identifier (resource\n"
        "types: file, registry, mutex, process, window, library,\n"
        "service). Exit 0 when at least one vaccine matches, 1 when\n"
        "none does.\n");
    return 0;
  }
  ClientFlags flags;
  std::vector<std::string> positional;
  const char* resource_name = nullptr;
  const int parsed = ParseClientFlags(argc, argv, &flags, &positional,
                                      {{"--resource", &resource_name}});
  if (parsed >= 0) return parsed;
  if (resource_name == nullptr || positional.size() != 1) {
    std::fprintf(stderr,
                 "error: query needs --resource and exactly one "
                 "identifier\n");
    return Usage();
  }
  auto resource = os::ResourceTypeFromName(resource_name);
  if (!resource.ok()) {
    std::fprintf(stderr, "error: %s\n", resource.status().ToString().c_str());
    return 2;
  }
  net::VacdClient client(flags.socket_path, flags.deadline_ms, flags.retry);
  client.set_binary(flags.binary);
  auto reply = client.Query(resource.value(), positional[0]);
  if (!reply.ok()) {
    std::fprintf(stderr, "error: %s\n", reply.status().ToString().c_str());
    return net::VacdClient::IsBusy(reply.status()) ? 4 : 1;
  }
  if (reply->matches.empty()) {
    std::printf("no vaccine matches '%s'\n", positional[0].c_str());
    return 1;
  }
  for (const vaccine::Vaccine& v : reply->matches) {
    std::printf("match: %s\n", v.Summary().c_str());
    std::printf("action: %s\n",
                v.simulate_presence
                    ? "simulate presence (report already-exists)"
                    : "deny access");
  }
  return 0;
}

int CmdPull(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    std::printf(
        "usage: autovac pull --socket <s> [--since <epoch>] [--out <f>]\n"
        "Fetches every served vaccine newer than the given feed epoch.\n"
        "The feed page (the server's reply JSON) goes to stdout or --out\n"
        "verbatim; the same store contents produce byte-identical pages\n"
        "across server restarts. The summary line goes to stderr.\n");
    return 0;
  }
  ClientFlags flags;
  std::vector<std::string> positional;
  const char* since_text = nullptr;
  const char* out_text = nullptr;
  const int parsed =
      ParseClientFlags(argc, argv, &flags, &positional,
                       {{"--since", &since_text}, {"--out", &out_text}});
  if (parsed >= 0) return parsed;
  if (!positional.empty()) {
    std::fprintf(stderr, "error: unexpected argument '%s'\n",
                 positional[0].c_str());
    return Usage();
  }
  const uint64_t since =
      since_text == nullptr ? 0 : std::strtoull(since_text, nullptr, 0);
  const std::string out_path = out_text == nullptr ? "" : out_text;
  net::VacdClient client(flags.socket_path, flags.deadline_ms, flags.retry);
  client.set_binary(flags.binary);
  const net::Request request = net::PullRequest{since};
  // RoundTripRaw is one attempt by design; under --retries (or --binary,
  // whose raw reply is not printable), fall back to the typed path and
  // re-serialize (canonical JSON, so the output bytes match what the
  // server would have sent for a JSON request).
  Result<std::string> raw = Status::Internal("unreachable");
  if (flags.retry.max_attempts > 1 || flags.binary) {
    auto retried = client.RoundTrip(request);
    if (retried.ok()) {
      raw = net::ReplyToJson(*retried);
    } else {
      raw = retried.status();
    }
  } else {
    raw = client.RoundTripRaw(net::RequestToJson(request));
  }
  if (!raw.ok()) {
    std::fprintf(stderr, "error: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto reply = net::ParseReply(raw.value());
  if (!reply.ok()) {
    std::fprintf(stderr, "error: %s\n", reply.status().ToString().c_str());
    return 1;
  }
  if (const auto* error = std::get_if<net::ErrorReply>(&reply.value())) {
    std::fprintf(stderr, "error: %s\n", error->message.c_str());
    return error->busy ? 4 : 1;
  }
  const auto* page = std::get_if<net::PullReply>(&reply.value());
  if (page == nullptr) {
    std::fprintf(stderr, "error: unexpected reply kind for pull\n");
    return 1;
  }
  if (out_path.empty()) {
    std::printf("%s\n", raw->c_str());
  } else {
    const Status written = WriteStringToFile(out_path, *raw + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "pulled %zu vaccines since epoch %llu (feed epoch "
               "%llu)\n",
               page->items.size(), static_cast<unsigned long long>(since),
               static_cast<unsigned long long>(page->epoch));
  return 0;
}

int CmdSync(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    std::printf(
        "usage: autovac sync --socket <s> [--page <n>] [--out <f>]\n"
        "                    [--binary] [client options]\n"
        "Mirrors the full vaccine feed with incremental pulls: pages of\n"
        "at most --page items (0 = one unbounded pull) are fetched with\n"
        "'pull --since <cursor>' until the feed is drained, tombstones\n"
        "are applied, and the converged mirror is written to --out (or\n"
        "stdout) as canonical feed JSON — byte-identical to one full\n"
        "pull from the live server. The summary line goes to stderr.\n");
    return 0;
  }
  ClientFlags flags;
  std::vector<std::string> positional;
  const char* page_text = nullptr;
  const char* out_text = nullptr;
  const int parsed =
      ParseClientFlags(argc, argv, &flags, &positional,
                       {{"--page", &page_text}, {"--out", &out_text}});
  if (parsed >= 0) return parsed;
  if (!positional.empty()) {
    std::fprintf(stderr, "error: unexpected argument '%s'\n",
                 positional[0].c_str());
    return Usage();
  }
  const uint64_t page_limit =
      page_text == nullptr ? 0 : std::strtoull(page_text, nullptr, 0);
  const std::string out_path = out_text == nullptr ? "" : out_text;
  net::VacdClient client(flags.socket_path, flags.deadline_ms, flags.retry);
  client.set_binary(flags.binary);
  net::FeedMirror mirror;
  const Status synced = mirror.SyncFrom(client, page_limit);
  if (!synced.ok()) {
    std::fprintf(stderr, "error: %s\n", synced.ToString().c_str());
    return net::VacdClient::IsBusy(synced) ? 4 : 1;
  }
  const std::string canonical = mirror.CanonicalJson();
  if (out_path.empty()) {
    std::printf("%s\n", canonical.c_str());
  } else {
    const Status written = WriteStringToFile(out_path, canonical + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "synced %zu vaccines to feed epoch %llu (page limit %llu)\n",
               mirror.size(),
               static_cast<unsigned long long>(mirror.cursor()),
               static_cast<unsigned long long>(page_limit));
  return 0;
}

int CmdQuarantine(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    std::printf(
        "usage: autovac quarantine --socket <s> <digest> [--reason <s>]\n"
        "Retracts one vaccine from a running vacd by content digest: it\n"
        "stays stored but is never served again, and delta-syncing\n"
        "clients receive a tombstone on their next pull. Idempotent —\n"
        "quarantining an already-quarantined digest reports 'already'.\n");
    return 0;
  }
  ClientFlags flags;
  std::vector<std::string> positional;
  const char* reason = nullptr;
  const int parsed = ParseClientFlags(argc, argv, &flags, &positional,
                                      {{"--reason", &reason}});
  if (parsed >= 0) return parsed;
  if (positional.size() != 1) {
    std::fprintf(stderr, "error: quarantine needs exactly one digest\n");
    return Usage();
  }
  net::VacdClient client(flags.socket_path, flags.deadline_ms, flags.retry);
  auto reply = client.Quarantine(positional[0],
                                 reason != nullptr ? reason : "operator");
  if (!reply.ok()) {
    std::fprintf(stderr, "error: %s\n", reply.status().ToString().c_str());
    return net::VacdClient::IsBusy(reply.status()) ? 4 : 1;
  }
  std::printf("%s %s; feed epoch %llu\n",
              reply->already ? "already quarantined" : "quarantined",
              positional[0].c_str(),
              static_cast<unsigned long long>(reply->epoch));
  return 0;
}

int CmdChaosProxy(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    std::printf(
        "usage: autovac chaos-proxy --listen <s> --backend <s>\n"
        "                           [--fault-seed <n>] [--fault-rate <p>]\n"
        "                           [--deadline-ms <n>]\n"
        "Relays vacd connections from --listen to --backend through a\n"
        "deterministic wire-fault injector: refused connects, frames cut\n"
        "mid-byte, one-byte-at-a-time delivery, stalls and duplicated\n"
        "requests, all drawn from --fault-seed. Point a client at the\n"
        "proxy socket to rehearse its retry policy against a real vacd:\n"
        "  autovac serve --socket /tmp/vacd.sock --store feed.jsonl &\n"
        "  autovac chaos-proxy --listen /tmp/chaos.sock \\\n"
        "      --backend /tmp/vacd.sock --fault-seed 7 &\n"
        "  autovac push --socket /tmp/chaos.sock --retries 8 wave.pkg\n"
        "Runs until SIGINT/SIGTERM, then prints a fault summary.\n");
    return 0;
  }
  net::ChaosProxyOptions options;
  uint64_t seed = 1;
  double rate = 0.1;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--listen") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.listen_path = value;
    } else if (std::strcmp(arg, "--backend") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.backend_path = value;
    } else if (std::strcmp(arg, "--fault-seed") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      seed = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--fault-rate") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      rate = std::strtod(value, nullptr);
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.deadline_ms = std::strtoull(value, nullptr, 0);
    } else if (std::strncmp(arg, "--", 2) == 0) {
      return UnknownOption(arg);
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg);
      return Usage();
    }
  }
  if (options.listen_path.empty() || options.backend_path.empty()) {
    std::fprintf(stderr, "error: chaos-proxy requires --listen and "
                 "--backend\n");
    return Usage();
  }
  options.verbose = true;
  const net::NetFaultPlan plan = net::NetFaultPlan::Randomized(seed, rate);
  net::ChaosProxy proxy(plan, options);
  const Status started = proxy.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  // The "relaying" line is the readiness signal scripts wait for.
  std::printf("chaos-proxy: relaying %s -> %s (%s)\n",
              options.listen_path.c_str(), options.backend_path.c_str(),
              plan.Summary().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_requested.load()) {
    ::usleep(50 * 1000);
  }
  proxy.Stop();
  std::printf("chaos-proxy: stopped after %llu connections, %llu faults "
              "injected\n",
              static_cast<unsigned long long>(proxy.connections()),
              static_cast<unsigned long long>(proxy.faults_injected()));
  return 0;
}

int CmdStatus(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    std::printf(
        "usage: autovac status --socket <s> [--deadline-ms <n>]\n"
        "Prints a running vacd's operational counters. The recovery\n"
        "telemetry shows what a restart would cost: 'checkpoint epoch'\n"
        "is the feed epoch the last checkpoint covers, 'replayed' the\n"
        "journal records actually replayed at the last start, and\n"
        "'dedup hits' how often the idempotency window absorbed a\n"
        "retried push.\n");
    return 0;
  }
  ClientFlags flags;
  std::vector<std::string> positional;
  const int parsed = ParseClientFlags(argc, argv, &flags, &positional);
  if (parsed >= 0) return parsed;
  if (!positional.empty()) {
    std::fprintf(stderr, "error: status takes no arguments\n");
    return Usage();
  }
  net::VacdClient client(flags.socket_path, flags.deadline_ms, flags.retry);
  client.set_binary(flags.binary);
  auto stats = client.Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
    return net::VacdClient::IsBusy(stats.status()) ? 4 : 1;
  }
  std::printf("vacd at %s:\n", flags.socket_path.c_str());
  std::printf("  feed epoch        %llu\n",
              static_cast<unsigned long long>(stats->epoch));
  std::printf("  served            %llu\n",
              static_cast<unsigned long long>(stats->served));
  std::printf("  quarantined       %llu\n",
              static_cast<unsigned long long>(stats->quarantined));
  std::printf("  requests          %llu\n",
              static_cast<unsigned long long>(stats->requests));
  std::printf("  shed (busy)       %llu\n",
              static_cast<unsigned long long>(stats->shed));
  std::printf("  evicted (slow)    %llu\n",
              static_cast<unsigned long long>(stats->evicted));
  std::printf("  checkpoint epoch  %llu\n",
              static_cast<unsigned long long>(stats->checkpoint_epoch));
  std::printf("  replayed at load  %llu\n",
              static_cast<unsigned long long>(stats->replayed));
  std::printf("  push dedup hits   %llu\n",
              static_cast<unsigned long long>(stats->dedup_hits));
  return 0;
}

// ---- fleet commands --------------------------------------------------

// Pipeline flags shared by `coordinate` and `detonate-worker`. Both
// sides fold them into the campaign config digest, so a worker started
// with different flags refuses its claims instead of merging a
// configuration mismatch into the report.
struct FleetPipelineFlags {
  bool use_exclusiveness = true;
  sandbox::RunLimits limits;
  size_t mutation_threads = 1;
  bool snapshot_replay = true;
};

// Tries to consume one pipeline flag at argv[*i]. Returns 1 when
// consumed, 0 when the flag is not a pipeline flag, 2 on a missing
// value or bad argument (error already printed).
int ParseFleetPipelineFlag(int argc, char** argv, int* i,
                           FleetPipelineFlags* flags) {
  const char* arg = argv[*i];
  const char* value = nullptr;
  if (std::strcmp(arg, "--no-exclusiveness") == 0) {
    flags->use_exclusiveness = false;
  } else if (std::strcmp(arg, "--max-api-calls") == 0) {
    if ((value = OptionValue(argc, argv, i)) == nullptr) return 2;
    flags->limits.max_api_calls = std::strtoull(value, nullptr, 0);
  } else if (std::strcmp(arg, "--max-call-depth") == 0) {
    if ((value = OptionValue(argc, argv, i)) == nullptr) return 2;
    flags->limits.max_call_depth =
        static_cast<uint32_t>(std::strtoul(value, nullptr, 0));
  } else if (std::strcmp(arg, "--mutation-threads") == 0) {
    if ((value = OptionValue(argc, argv, i)) == nullptr) return 2;
    const long long threads = std::strtoll(value, nullptr, 0);
    if (threads <= 0) {
      std::fprintf(stderr, "error: --mutation-threads requires at least 1\n");
      return 2;
    }
    flags->mutation_threads = static_cast<size_t>(threads);
  } else if (std::strcmp(arg, "--no-snapshot-replay") == 0) {
    flags->snapshot_replay = false;
  } else {
    return 0;
  }
  return 1;
}

vaccine::PipelineOptions MakeFleetPipelineOptions(
    const FleetPipelineFlags& flags) {
  vaccine::PipelineOptions options;
  options.run_exclusiveness = flags.use_exclusiveness;
  options.limits = flags.limits;
  options.mutation_threads = flags.mutation_threads;
  options.snapshot_replay = flags.snapshot_replay;
  return options;
}

Result<std::vector<vm::Program>> LoadSamples(
    const std::vector<std::string>& paths) {
  std::vector<vm::Program> programs;
  programs.reserve(paths.size());
  for (const std::string& path : paths) {
    auto program = LoadSample(path);
    if (!program.ok()) return program.status();
    programs.push_back(std::move(program).value());
  }
  return programs;
}

int CmdCoordinate(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    std::printf(
        "usage: autovac coordinate --socket <s> <sample.asm>...\n"
        "                          [--journal <f>] [--resume]\n"
        "                          [--lease-ms <n>] [--threads <n>]\n"
        "                          [--store <f>] [--campaign-out <f>]\n"
        "                          [--linger-ms <n>] [pipeline flags]\n"
        "Shards the samples across remote detonation workers under\n"
        "leases. A worker that crashes, stalls, or partitions loses its\n"
        "lease and the sample is reassigned; a zombie upload under a\n"
        "reassigned lease is rejected stale, so every sample is counted\n"
        "exactly once. With --journal every assignment and completion is\n"
        "fsync'd write-ahead, and --resume restarts a SIGKILLed\n"
        "coordinator with only the unacknowledged delta lost; the final\n"
        "report is byte-identical to a fault-free run for any failure\n"
        "schedule. Exit code 3 means interrupted with the journal\n"
        "intact. The socket is served by the same event loop as vacd,\n"
        "with its default flow control; --threads sizes the pool that\n"
        "answers claims and uploads.\n");
    return 0;
  }
  FleetPipelineFlags pipeline_flags;
  fleet::CoordinatorOptions options;
  std::string campaign_out;
  // After the last sample completes, keep serving until no request has
  // arrived for this long. Idle workers learn done=true from their next
  // claim instead of finding a severed socket, and a worker whose done
  // reply was torn by the network gets a second chance within its retry
  // backoff (capped at 2 s, hence the 3 s default).
  uint64_t linger_ms = 3000;
  std::vector<std::string> sample_paths;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    const int pipeline = ParseFleetPipelineFlag(argc, argv, &i,
                                                &pipeline_flags);
    if (pipeline == 2) return 2;
    if (pipeline == 1) continue;
    if (std::strcmp(arg, "--socket") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.socket_path = value;
    } else if (std::strcmp(arg, "--journal") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.journal_path = value;
    } else if (std::strcmp(arg, "--resume") == 0) {
      options.resume = true;
    } else if (std::strcmp(arg, "--lease-ms") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.lease_ms = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--threads") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      const long long threads = std::strtoll(value, nullptr, 0);
      if (threads <= 0) {
        std::fprintf(stderr, "error: --threads requires at least 1\n");
        return 2;
      }
      options.threads = static_cast<size_t>(threads);
    } else if (std::strcmp(arg, "--store") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.store_path = value;
    } else if (std::strcmp(arg, "--campaign-out") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      campaign_out = value;
    } else if (std::strcmp(arg, "--linger-ms") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      linger_ms = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--crash-after-assignments") == 0) {
      // Chaos hook for the CI kill matrix: SIGKILL this process right
      // after journaling the n-th assignment. Deliberately undocumented.
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.crash_after_assignments =
          static_cast<size_t>(std::strtoull(value, nullptr, 0));
    } else if (std::strncmp(arg, "--", 2) == 0) {
      return UnknownOption(arg);
    } else {
      sample_paths.push_back(arg);
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "error: coordinate requires --socket\n");
    return Usage();
  }
  if (sample_paths.empty()) {
    std::fprintf(stderr, "error: coordinate needs at least one sample\n");
    return Usage();
  }
  auto programs = LoadSamples(sample_paths);
  if (!programs.ok()) {
    std::fprintf(stderr, "error: %s\n", programs.status().ToString().c_str());
    return 1;
  }
  const size_t total = programs->size();

  fleet::FleetCoordinator coordinator(std::move(programs).value(),
                                      MakeFleetPipelineOptions(pipeline_flags),
                                      options);
  const Status started = coordinator.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  // The "listening" line is the readiness signal scripts wait for.
  std::printf("coordinator: listening on %s (%zu samples, %zu already "
              "journaled, lease %llu ms, config %s)\n",
              options.socket_path.c_str(), total,
              coordinator.Stats().resumed_completed,
              static_cast<unsigned long long>(options.lease_ms),
              coordinator.config_digest().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  Status outcome = Status::Ok();
  while (true) {
    outcome = coordinator.WaitUntilDone(/*timeout_ms=*/200);
    if (outcome.ok()) break;
    if (outcome.code() != StatusCode::kDeadlineExceeded) break;
    if (g_stop_requested.load()) break;
  }
  if (outcome.ok() && linger_ms > 0) {
    // Drain: the campaign is done but idle workers are still polling
    // claims. Keep serving until the fleet goes quiet so each of them
    // observes done=true instead of a torn connection.
    uint64_t last = coordinator.requests_served();
    uint64_t quiet = 0;
    while (quiet < linger_ms && !g_stop_requested.load()) {
      ::usleep(100 * 1000);
      const uint64_t now = coordinator.requests_served();
      if (now != last) {
        last = now;
        quiet = 0;
      } else {
        quiet += 100;
      }
    }
  }
  const net::FleetStatusReply progress = coordinator.Progress();
  const fleet::CoordinatorStats stats = coordinator.Stats();
  coordinator.Stop();
  // Durability narration goes to stderr: stdout stays byte-comparable
  // between fresh and resumed runs.
  std::fprintf(stderr,
               "coordinator: %llu/%llu samples done, %llu reassigned, "
               "%llu stale uploads rejected, %llu duplicates, %llu dedup "
               "hits, %llu workers seen, %llu verdicts (%llu suspicious), "
               "%llu vaccines ingested\n",
               static_cast<unsigned long long>(progress.completed),
               static_cast<unsigned long long>(progress.total),
               static_cast<unsigned long long>(progress.reassigned),
               static_cast<unsigned long long>(progress.stale_rejected),
               static_cast<unsigned long long>(progress.duplicates),
               static_cast<unsigned long long>(stats.dedup_hits),
               static_cast<unsigned long long>(progress.workers),
               static_cast<unsigned long long>(progress.verdicts),
               static_cast<unsigned long long>(progress.suspicious),
               static_cast<unsigned long long>(stats.ingested));
  if (!outcome.ok() && outcome.code() != StatusCode::kDeadlineExceeded) {
    std::fprintf(stderr, "error: %s\n", outcome.ToString().c_str());
    return 1;
  }
  if (!progress.done) {
    std::fprintf(stderr,
                 "coordinator: interrupted; resume with --resume "
                 "--journal %s\n",
                 options.journal_path.c_str());
    return 3;
  }

  auto report = coordinator.Report();
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("fleet campaign complete: %zu samples, %zu vaccines "
              "(%zu demoted), %zu faults injected, %zu degraded, "
              "%zu failed\n",
              report->reports.size(), report->total_vaccines,
              report->total_demoted, report->total_faults_injected,
              report->samples_degraded, report->samples_failed);
  if (!campaign_out.empty()) {
    const Status written = WriteStringToFile(
        campaign_out, vaccine::CampaignReportToJson(report.value()) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("campaign report written to %s (%zu samples)\n",
                campaign_out.c_str(), report->reports.size());
  }
  return 0;
}

int CmdDetonateWorker(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    std::printf(
        "usage: autovac detonate-worker --socket <s> <sample.asm>...\n"
        "                               [--worker-id <s>] [--verdicts]\n"
        "                               [--deadline-ms <n>] [--retries <n>]\n"
        "                               [--retry-budget-ms <n>]\n"
        "                               [--retry-seed <n>]\n"
        "                               [--idle-poll-ms <n>]\n"
        "                               [--max-idle-ms <n>]\n"
        "                               [pipeline flags]\n"
        "Runs one detonation worker against a coordinator: claim a\n"
        "sample, analyze it while a heartbeat thread renews the lease,\n"
        "upload the report, repeat until the campaign is done. The\n"
        "sample files and pipeline flags must match the coordinator's\n"
        "(both are folded into the campaign config digest) or every\n"
        "claim is refused. A worker that stalls past the lease window\n"
        "loses the sample to reassignment; its late upload is rejected\n"
        "stale and not counted.\n");
    return 0;
  }
  FleetPipelineFlags pipeline_flags;
  fleet::WorkerOptions options;
  std::vector<std::string> sample_paths;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    const int pipeline = ParseFleetPipelineFlag(argc, argv, &i,
                                                &pipeline_flags);
    if (pipeline == 2) return 2;
    if (pipeline == 1) continue;
    if (std::strcmp(arg, "--socket") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.socket_path = value;
    } else if (std::strcmp(arg, "--worker-id") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.worker_id = value;
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.deadline_ms = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--retries") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      const long long attempts = std::strtoll(value, nullptr, 0);
      if (attempts <= 0) {
        std::fprintf(stderr, "error: --retries requires at least 1\n");
        return 2;
      }
      options.retry.max_attempts = static_cast<uint32_t>(attempts);
    } else if (std::strcmp(arg, "--retry-budget-ms") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.retry.max_total_ms = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--retry-seed") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.retry.seed = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--verdicts") == 0) {
      options.verdicts = true;
    } else if (std::strcmp(arg, "--idle-poll-ms") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.idle_poll_ms = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--max-idle-ms") == 0) {
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.max_idle_ms = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(arg, "--kill-after-claims") == 0) {
      // Chaos hook for the CI kill matrix: SIGKILL this process right
      // after the n-th successful claim. Deliberately undocumented.
      if ((value = OptionValue(argc, argv, &i)) == nullptr) return 2;
      options.kill_after_claims =
          static_cast<size_t>(std::strtoull(value, nullptr, 0));
    } else if (std::strcmp(arg, "--kill-mid-upload") == 0) {
      // Chaos hook: SIGKILL after sending the first complete frame,
      // before reading its reply. Deliberately undocumented.
      options.kill_mid_upload = true;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      return UnknownOption(arg);
    } else {
      sample_paths.push_back(arg);
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "error: detonate-worker requires --socket\n");
    return Usage();
  }
  if (sample_paths.empty()) {
    std::fprintf(stderr,
                 "error: detonate-worker needs the corpus samples\n");
    return Usage();
  }
  // Workers produce the phase-cost rollups that land in the merged
  // campaign report; the tracer must run exactly as `autovac campaign`
  // runs it or the merged report bytes would differ.
  GlobalTracer().set_enabled(true);

  auto corpus = LoadSamples(sample_paths);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  analysis::ExclusivenessIndex index;
  if (pipeline_flags.use_exclusiveness) index = TrainIndex();
  vaccine::VaccinePipeline pipeline(
      pipeline_flags.use_exclusiveness ? &index : nullptr,
      MakeFleetPipelineOptions(pipeline_flags));

  auto stats = fleet::RunWorker(pipeline, corpus.value(), options);
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("worker %s: %zu claimed, %zu completed, %zu stale, "
              "%zu duplicates, %zu verdicts\n",
              options.worker_id.c_str(), stats->claimed, stats->completed,
              stats->stale, stats->duplicates, stats->verdicts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    PrintUsage(stdout);
    return 0;
  }
  // The sample-processing commands share the consolidated usage text;
  // the vacd commands print their own focused help.
  const bool legacy = command == "analyze" || command == "campaign" ||
                      command == "test" || command == "trace" ||
                      command == "disasm";
  if (legacy && WantsHelp(argc - 2, argv + 2)) {
    PrintUsage(stdout);
    return 0;
  }
  if (command == "analyze") return CmdAnalyze(argc - 2, argv + 2);
  if (command == "campaign") return CmdCampaign(argc - 2, argv + 2);
  if (command == "test") return CmdTest(argc - 2, argv + 2);
  if (command == "trace") return CmdTrace(argc - 2, argv + 2);
  if (command == "disasm") return CmdDisasm(argc - 2, argv + 2);
  if (command == "corpus") return CmdCorpus(argc - 2, argv + 2);
  if (command == "serve") return CmdServe(argc - 2, argv + 2);
  if (command == "push") return CmdPush(argc - 2, argv + 2);
  if (command == "query") return CmdQuery(argc - 2, argv + 2);
  if (command == "pull") return CmdPull(argc - 2, argv + 2);
  if (command == "sync") return CmdSync(argc - 2, argv + 2);
  if (command == "quarantine") return CmdQuarantine(argc - 2, argv + 2);
  if (command == "chaos-proxy") return CmdChaosProxy(argc - 2, argv + 2);
  if (command == "status") return CmdStatus(argc - 2, argv + 2);
  if (command == "coordinate") return CmdCoordinate(argc - 2, argv + 2);
  if (command == "detonate-worker") {
    return CmdDetonateWorker(argc - 2, argv + 2);
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  return Usage();
}
