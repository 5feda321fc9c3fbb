// autovac — command-line front end for the AUTOVAC pipeline: what each
// command does once cli_flags.cc has parsed its arguments. Samples are
// written in the sandbox assembly dialect (see src/vm/assembler.h);
// everything runs inside the simulator — no real binaries are executed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include <sys/stat.h>

#include "campaign/supervisor.h"
#include "cli_flags.h"
#include "evasion/corpus.h"
#include "fleet/agent.h"
#include "fleet/coordinator.h"
#include "malware/benign.h"
#include "net/chaosproxy.h"
#include "net/client.h"
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
#include "vaccine/json.h"
#include "vaccine/package.h"
#include "vaccine/report.h"
#include "vaccine/pipeline.h"
#include "vacstore/store.h"
#include "vm/disassembler.h"

using namespace autovac;

namespace {

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Fails, naming the path and the system's reason, when the file cannot be
// opened, written or flushed: a full disk may only surface at the close.
Status WriteStringToFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  const bool written =
      file != nullptr &&
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (file == nullptr || std::fclose(file) != 0 || !written) {
    return Status::Internal(StrFormat("cannot write %s: %s", path.c_str(),
                                      std::strerror(errno)));
  }
  return Status::Ok();
}

// Prints `status` as the command's error; returns exit code 1.
int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Fail for a vacd request: a server that shed it (BUSY) exits 4.
int FailRequest(const Status& status) {
  Fail(status);
  return net::VacdClient::IsBusy(status) ? 4 : 1;
}

// Writes `text` to `path` and prints `done`; on failure prints the error
// instead and returns false.
bool WriteOutput(const std::string& path, const std::string& text,
                 const std::string& done = "") {
  const Status written = WriteStringToFile(path, text);
  if (!written.ok()) {
    Fail(written);
    return false;
  }
  std::fputs(done.c_str(), stdout);
  return true;
}

Result<vm::Program> LoadSample(const std::string& path) {
  auto source = ReadFileToString(path);
  if (!source.ok()) return source.status();
  return sandbox::AssembleForSandbox(source.value());
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

// Points `options` at the --fault-seed schedule held in `plan` (which
// must outlive them) and announces it; no-op without a seed.
void ApplyFaultPlan(const cli::AnalysisFlags& flags,
                    std::optional<sandbox::FaultPlan>* plan,
                    vaccine::PipelineOptions* options) {
  *plan = cli::MakeFaultPlan(flags);
  if (!plan->has_value()) return;
  options->fault_plan = &plan->value();
  std::printf("fault injection: %s\n", (*plan)->Summary().c_str());
}

// Writes --metrics-out / --trace-out if requested. Returns 0 or 1.
int ExportTelemetry(const cli::AnalysisFlags& flags) {
  if (!flags.metrics_path.empty() &&
      !WriteOutput(flags.metrics_path,
                   ExportMetricsJsonl(GlobalMetrics().Snapshot()),
                   StrFormat("metrics written to %s (%zu series)\n",
                             flags.metrics_path.c_str(),
                             GlobalMetrics().size()))) {
    return 1;
  }
  if (!flags.trace_path.empty() &&
      !WriteOutput(flags.trace_path, ExportChromeTrace(GlobalTracer(), {}),
                   StrFormat("trace written to %s (%zu spans)\n",
                             flags.trace_path.c_str(),
                             GlobalTracer().spans().size()))) {
    return 1;
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

int CmdAnalyze(const cli::AnalyzeArgs& args) {
  GlobalTracer().set_enabled(true);

  auto program = LoadSample(args.operands[0]);
  if (!program.ok()) return Fail(program.status());
  std::printf("sample '%s': %zu instructions, digest %s\n",
              program->name.c_str(), program->code.size(),
              program->Digest().c_str());

  vaccine::PipelineOptions options = args.pipeline;
  analysis::ExclusivenessIndex index;
  if (options.run_exclusiveness) {
    index = TrainIndex();
    std::printf("exclusiveness index: %zu identifiers from the benign "
                "corpus\n", index.size());
  }
  std::optional<sandbox::FaultPlan> fault_plan;
  ApplyFaultPlan(args.analysis, &fault_plan, &options);
  vaccine::VaccinePipeline pipeline(
      options.run_exclusiveness ? &index : nullptr, options);
  auto report = pipeline.Analyze(program.value());
  if (args.analysis.run_clinic) ApplyClinic(report.vaccines);
  // Clinic spans opened after Analyze; fold them into the rollup.
  report.phase_costs = GlobalTracer().PhaseTotals(0);
  const cli::AnalysisFlags& out = args.analysis;
  if (!out.report_path.empty() &&
      !WriteOutput(out.report_path, vaccine::RenderSampleReport(report),
                   StrFormat("report written to %s\n",
                             out.report_path.c_str()))) {
    return 1;
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
    return ExportTelemetry(args.analysis);
  }
  for (const vaccine::Vaccine& v : report.vaccines) {
    std::printf("vaccine: %s\n", v.Summary().c_str());
  }

  if (!out.package_path.empty() &&
      !WriteOutput(out.package_path, vaccine::SerializePackage(report.vaccines),
                   StrFormat("\npackage written to %s (%zu vaccines)\n",
                             out.package_path.c_str(),
                             report.vaccines.size()))) {
    return 1;
  }
  return ExportTelemetry(args.analysis);
}

int CmdCampaign(const cli::CampaignArgs& args) {
  GlobalTracer().set_enabled(true);

  auto programs = LoadSamples(args.operands);
  if (!programs.ok()) return Fail(programs.status());

  vaccine::PipelineOptions options = args.pipeline;
  analysis::ExclusivenessIndex index;
  if (options.run_exclusiveness) index = TrainIndex();
  std::optional<sandbox::FaultPlan> fault_plan;
  ApplyFaultPlan(args.analysis, &fault_plan, &options);
  vaccine::VaccinePipeline pipeline(
      options.run_exclusiveness ? &index : nullptr, options);

  campaign::CampaignOptions durability = args.durability;
  if (fault_plan.has_value()) {
    // The fault schedule changes analysis output but lives outside
    // PipelineOptions; fold it into the journal's config digest so a
    // resume with different fault flags is refused.
    durability.config_extra = StrFormat(
        "fault_seed=%llu fault_rate=%.17g",
        static_cast<unsigned long long>(*args.analysis.fault_seed),
        args.analysis.fault_rate);
  }
  auto outcome =
      campaign::RunDurableCampaign(pipeline, programs.value(), durability);
  if (!outcome.ok()) return Fail(outcome.status());
  vaccine::CampaignReport& campaign = outcome.value().report;
  const campaign::CampaignRunStats& stats = outcome.value().stats;
  // Durability narration goes to stderr: stdout is the dashboard, which
  // must stay byte-comparable between fresh and resumed runs.
  if (!durability.journal_path.empty() || durability.WorkerMode()) {
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
                 stats.samples_analyzed, durability.journal_path.c_str());
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
  const auto total = [&campaign](size_t vaccine::SampleReport::*counter) {
    size_t sum = 0;
    for (const auto& report : campaign.reports) sum += report.*counter;
    return sum;
  };
  std::printf("target totals: %zu targets, %zu non-exclusive, %zu no-impact, "
              "%zu non-deterministic, %zu faulted, %zu vaccines\n",
              total(&vaccine::SampleReport::targets_considered),
              total(&vaccine::SampleReport::filtered_not_exclusive),
              total(&vaccine::SampleReport::filtered_no_impact),
              total(&vaccine::SampleReport::filtered_non_deterministic),
              total(&vaccine::SampleReport::targets_faulted),
              campaign.total_vaccines);

  // Phase costs come from the per-report rollups (the supervisor's own
  // tracer sees nothing when samples ran in forked workers or were
  // replayed from a journal), plus whatever the clinic adds in-process.
  const size_t pre_clinic = GlobalTracer().spans().size();
  if (args.analysis.run_clinic) ApplyClinic(all_vaccines);
  const std::vector<PhaseTotal> clinic_costs =
      GlobalTracer().PhaseTotals(pre_clinic);
  PrintPhaseCosts(MergePhaseTotals({&campaign.phase_costs, &clinic_costs}));

  const std::string& package_path = args.analysis.package_path;
  if (!package_path.empty() &&
      !WriteOutput(package_path, vaccine::SerializePackage(all_vaccines),
                   StrFormat("package written to %s (%zu vaccines)\n",
                             package_path.c_str(), all_vaccines.size()))) {
    return 1;
  }
  if (!args.campaign_out.empty() &&
      !WriteOutput(args.campaign_out,
                   vaccine::CampaignReportToJson(campaign) + "\n",
                   StrFormat("campaign report written to %s (%zu samples)\n",
                             args.campaign_out.c_str(),
                             campaign.reports.size()))) {
    return 1;
  }
  const int telemetry = ExportTelemetry(args.analysis);
  if (telemetry != 0) return telemetry;
  return stats.interrupted ? 3 : 0;
}

int CmdTest(const cli::CommandArgs& args) {
  auto program = LoadSample(args.operands[0]);
  if (!program.ok()) return Fail(program.status());
  auto package_text = ReadFileToString(args.operands[1]);
  if (!package_text.ok()) return Fail(package_text.status());
  auto vaccines = vaccine::ParsePackage(package_text.value());
  if (!vaccines.ok()) return Fail(vaccines.status());
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

int CmdTrace(const cli::TraceArgs& args) {
  auto program = LoadSample(args.operands[0]);
  if (!program.ok()) return Fail(program.status());
  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  auto run = sandbox::RunProgram(program.value(), env, {});
  const std::string serialized = trace::SerializeApiTrace(run.api_trace);
  if (args.out.empty()) {
    std::fputs(serialized.c_str(), stdout);
  } else if (!WriteOutput(args.out, serialized,
                          StrFormat("trace with %zu calls written to %s\n",
                                    run.api_trace.calls.size(),
                                    args.out.c_str()))) {
    return 1;
  }
  return 0;
}

int CmdDisasm(const cli::CommandArgs& args) {
  auto program = LoadSample(args.operands[0]);
  if (!program.ok()) return Fail(program.status());
  std::fputs(
      vm::DisassembleProgram(program.value(), sandbox::SandboxApiNamer())
          .c_str(),
      stdout);
  return 0;
}

int CmdCorpus(const cli::CorpusArgs& args) {
  const std::string& out_dir = args.out_dir;
  if (::mkdir(out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Fail(Status::Internal(StrFormat(
        "cannot create %s: %s", out_dir.c_str(), std::strerror(errno))));
  }
  auto corpus = evasion::GenerateEvasiveCorpus(args.corpus);
  if (!corpus.ok()) return Fail(corpus.status());
  for (const evasion::EvasiveSample& sample : corpus.value()) {
    if (!WriteOutput(out_dir + "/" + sample.program.name + ".asm",
                     sample.source)) {
      return 1;
    }
  }
  std::printf("corpus: wrote %zu samples to %s (seed %llu)\n",
              corpus->size(), out_dir.c_str(),
              static_cast<unsigned long long>(args.corpus.seed));
  return 0;
}

// ---- vacd commands ---------------------------------------------------

std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int) { g_stop_requested.store(true); }

// Routes SIGINT and SIGTERM to g_stop_requested.
void CatchStopSignals() {
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
}

// Blocks until SIGINT or SIGTERM.
void WaitForStopSignal() {
  CatchStopSignals();
  while (!g_stop_requested.load()) {
    ::usleep(50 * 1000);
  }
}

int CmdServe(const cli::ServeArgs& args) {
  const net::VacdOptions& options = args.vacd;
  vacstore::VaccineStore store;
  if (!args.store_path.empty()) {
    auto opened = vacstore::VaccineStore::Open(args.store_path);
    if (!opened.ok()) return Fail(opened.status());
    store = std::move(opened).value();
    if (store.repaired_torn_tail()) {
      std::fprintf(stderr,
                   "vacd: dropped a torn record from %s (crash mid-push)\n",
                   args.store_path.c_str());
    }
  }
  analysis::ExclusivenessIndex index;
  if (args.use_exclusiveness) {
    index = TrainIndex();
    store.SetConflictIndex(&index);
    auto rescanned = store.RescanConflicts();
    if (!rescanned.ok()) return Fail(rescanned.status());
    if (*rescanned > 0) {
      std::fprintf(stderr, "vacd: quarantined %zu stored vaccines that "
                   "conflict with the benign corpus\n", *rescanned);
    }
  }

  net::VacdServer server(std::move(store), options);
  const Status started = server.Start();
  if (!started.ok()) return Fail(started);
  // The "listening" line is the readiness signal scripts wait for.
  std::printf("vacd: listening on %s (%zu served, %zu quarantined, "
              "epoch %llu)\n",
              options.socket_path.c_str(), server.Stats().served,
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

  WaitForStopSignal();
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

int CmdPush(const cli::ClientArgs& args) {
  std::vector<vaccine::Vaccine> vaccines;
  for (const std::string& path : args.operands) {
    auto text = ReadFileToString(path);
    if (!text.ok()) return Fail(text.status());
    auto parsed_package = vaccine::ParsePackage(text.value());
    if (!parsed_package.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   parsed_package.status().ToString().c_str());
      return 1;
    }
    vaccines.insert(vaccines.end(), parsed_package->begin(),
                    parsed_package->end());
  }
  net::VacdClient client(args.socket, args.deadline_ms, args.retry);
  auto reply = client.Push(vaccines);
  if (!reply.ok()) return FailRequest(reply.status());
  std::printf("pushed %zu vaccines: %llu added, %llu duplicates, "
              "%llu quarantined; feed epoch %llu\n",
              vaccines.size(),
              static_cast<unsigned long long>(reply->added),
              static_cast<unsigned long long>(reply->duplicates),
              static_cast<unsigned long long>(reply->quarantined),
              static_cast<unsigned long long>(reply->epoch));
  return 0;
}

int CmdQuery(const cli::ClientArgs& args) {
  net::VacdClient client(args.socket, args.deadline_ms, args.retry);
  client.set_binary(args.binary);
  const std::string& identifier = args.operands[0];
  auto reply = client.Query(args.resource, identifier);
  if (!reply.ok()) return FailRequest(reply.status());
  if (reply->matches.empty()) {
    std::printf("no vaccine matches '%s'\n", identifier.c_str());
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

int CmdPull(const cli::ClientArgs& args) {
  net::VacdClient client(args.socket, args.deadline_ms, args.retry);
  client.set_binary(args.binary);
  const net::Request request = net::PullRequest{args.since};
  // RoundTripRaw is one attempt by design; under --retries (or --binary,
  // whose raw reply is not printable), fall back to the typed path and
  // re-serialize (canonical JSON, so the output bytes match what the
  // server would have sent for a JSON request).
  Result<std::string> raw = Status::Internal("unreachable");
  if (args.retry.max_attempts > 1 || args.binary) {
    auto retried = client.RoundTrip(request);
    if (retried.ok()) {
      raw = net::ReplyToJson(*retried);
    } else {
      raw = retried.status();
    }
  } else {
    raw = client.RoundTripRaw(net::RequestToJson(request));
  }
  if (!raw.ok()) return Fail(raw.status());
  auto reply = net::ParseReply(raw.value());
  if (!reply.ok()) return Fail(reply.status());
  if (const auto* error = std::get_if<net::ErrorReply>(&reply.value())) {
    std::fprintf(stderr, "error: %s\n", error->message.c_str());
    return error->busy ? 4 : 1;
  }
  const auto* page = std::get_if<net::PullReply>(&reply.value());
  if (page == nullptr) {
    std::fprintf(stderr, "error: unexpected reply kind for pull\n");
    return 1;
  }
  if (args.out.empty()) {
    std::printf("%s\n", raw->c_str());
  } else if (!WriteOutput(args.out, *raw + "\n")) {
    return 1;
  }
  std::fprintf(stderr, "pulled %zu vaccines since epoch %llu (feed epoch "
               "%llu)\n",
               page->items.size(), static_cast<unsigned long long>(args.since),
               static_cast<unsigned long long>(page->epoch));
  return 0;
}

int CmdSync(const cli::ClientArgs& args) {
  net::VacdClient client(args.socket, args.deadline_ms, args.retry);
  client.set_binary(args.binary);
  net::FeedMirror mirror;
  const Status synced = mirror.SyncFrom(client, args.page);
  if (!synced.ok()) return FailRequest(synced);
  const std::string canonical = mirror.CanonicalJson();
  if (args.out.empty()) {
    std::printf("%s\n", canonical.c_str());
  } else if (!WriteOutput(args.out, canonical + "\n")) {
    return 1;
  }
  std::fprintf(stderr,
               "synced %zu vaccines to feed epoch %llu (page limit %llu)\n",
               mirror.size(),
               static_cast<unsigned long long>(mirror.cursor()),
               static_cast<unsigned long long>(args.page));
  return 0;
}

int CmdQuarantine(const cli::ClientArgs& args) {
  net::VacdClient client(args.socket, args.deadline_ms, args.retry);
  const std::string& digest = args.operands[0];
  auto reply = client.Quarantine(digest, args.reason);
  if (!reply.ok()) return FailRequest(reply.status());
  std::printf("%s %s; feed epoch %llu\n",
              reply->already ? "already quarantined" : "quarantined",
              digest.c_str(), static_cast<unsigned long long>(reply->epoch));
  return 0;
}

int CmdChaosProxy(const cli::ChaosProxyArgs& args) {
  net::ChaosProxyOptions options = args.proxy;
  options.verbose = true;
  const net::NetFaultPlan plan =
      net::NetFaultPlan::Randomized(args.fault_seed, args.fault_rate);
  net::ChaosProxy proxy(plan, options);
  const Status started = proxy.Start();
  if (!started.ok()) return Fail(started);
  // The "relaying" line is the readiness signal scripts wait for.
  std::printf("chaos-proxy: relaying %s -> %s (%s)\n",
              options.listen_path.c_str(), options.backend_path.c_str(),
              plan.Summary().c_str());
  std::fflush(stdout);

  WaitForStopSignal();
  proxy.Stop();
  std::printf("chaos-proxy: stopped after %llu connections, %llu faults "
              "injected\n",
              static_cast<unsigned long long>(proxy.connections()),
              static_cast<unsigned long long>(proxy.faults_injected()));
  return 0;
}

int CmdStatus(const cli::ClientArgs& args) {
  net::VacdClient client(args.socket, args.deadline_ms, args.retry);
  client.set_binary(args.binary);
  auto stats = client.Stats();
  if (!stats.ok()) return FailRequest(stats.status());
  std::printf("vacd at %s:\n", args.socket.c_str());
  const std::pair<const char*, uint64_t> counters[] = {
      {"feed epoch", stats->epoch},        {"served", stats->served},
      {"quarantined", stats->quarantined}, {"requests", stats->requests},
      {"shed (busy)", stats->shed},        {"evicted (slow)", stats->evicted},
      {"checkpoint epoch", stats->checkpoint_epoch},
      {"replayed at load", stats->replayed},
      {"push dedup hits", stats->dedup_hits}};
  for (const auto& [label, value] : counters) {
    std::printf("  %-18s%llu\n", label, static_cast<unsigned long long>(value));
  }
  return 0;
}

// ---- fleet commands --------------------------------------------------

int CmdCoordinate(const cli::CoordinateArgs& args) {
  const fleet::CoordinatorOptions& options = args.coordinator;
  auto programs = LoadSamples(args.operands);
  if (!programs.ok()) return Fail(programs.status());
  const size_t total = programs->size();

  fleet::FleetCoordinator coordinator(std::move(programs).value(),
                                      args.pipeline, options);
  const Status started = coordinator.Start();
  if (!started.ok()) return Fail(started);
  // The "listening" line is the readiness signal scripts wait for.
  std::printf("coordinator: listening on %s (%zu samples, %zu already "
              "journaled, lease %llu ms, config %s)\n",
              options.socket_path.c_str(), total,
              coordinator.Stats().resumed_completed,
              static_cast<unsigned long long>(options.lease_ms),
              coordinator.config_digest().c_str());
  std::fflush(stdout);

  CatchStopSignals();
  Status outcome = Status::Ok();
  while (true) {
    outcome = coordinator.WaitUntilDone(/*timeout_ms=*/200);
    if (outcome.ok()) break;
    if (outcome.code() != StatusCode::kDeadlineExceeded) break;
    if (g_stop_requested.load()) break;
  }
  if (outcome.ok() && args.linger_ms > 0) {
    // Drain: the campaign is done but idle workers are still polling
    // claims. Keep serving until the fleet goes quiet so each of them
    // observes done=true instead of a torn connection.
    uint64_t last = coordinator.requests_served();
    uint64_t quiet = 0;
    while (quiet < args.linger_ms && !g_stop_requested.load()) {
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
  if (!report.ok()) return Fail(report.status());
  std::printf("fleet campaign complete: %zu samples, %zu vaccines "
              "(%zu demoted), %zu faults injected, %zu degraded, "
              "%zu failed\n",
              report->reports.size(), report->total_vaccines,
              report->total_demoted, report->total_faults_injected,
              report->samples_degraded, report->samples_failed);
  if (!args.campaign_out.empty() &&
      !WriteOutput(args.campaign_out,
                   vaccine::CampaignReportToJson(report.value()) + "\n",
                   StrFormat("campaign report written to %s (%zu samples)\n",
                             args.campaign_out.c_str(),
                             report->reports.size()))) {
    return 1;
  }
  return 0;
}

int CmdDetonateWorker(const cli::WorkerArgs& args) {
  // Workers produce the phase-cost rollups that land in the merged
  // campaign report; the tracer must run exactly as `autovac campaign`
  // runs it or the merged report bytes would differ.
  GlobalTracer().set_enabled(true);

  auto corpus = LoadSamples(args.operands);
  if (!corpus.ok()) return Fail(corpus.status());
  analysis::ExclusivenessIndex index;
  if (args.pipeline.run_exclusiveness) index = TrainIndex();
  vaccine::VaccinePipeline pipeline(
      args.pipeline.run_exclusiveness ? &index : nullptr, args.pipeline);

  auto stats = fleet::RunWorker(pipeline, corpus.value(), args.worker);
  if (!stats.ok()) return Fail(stats.status());
  std::printf("worker %s: %zu claimed, %zu completed, %zu stale, "
              "%zu duplicates, %zu verdicts\n",
              args.worker.worker_id.c_str(), stats->claimed, stats->completed,
              stats->stale, stats->duplicates, stats->verdicts);
  return 0;
}

// Runs a command body on the argument set parsed for it.
using Runner = int (*)(const cli::CommandArgs&);

template <typename Args, int (*Body)(const Args&)>
int Run(const cli::CommandArgs& args) {
  return Body(static_cast<const Args&>(args));
}

const std::map<std::string_view, Runner>& Runners() {
  static const std::map<std::string_view, Runner> kRunners = {
      {"analyze", Run<cli::AnalyzeArgs, CmdAnalyze>},
      {"campaign", Run<cli::CampaignArgs, CmdCampaign>},
      {"test", Run<cli::CommandArgs, CmdTest>},
      {"trace", Run<cli::TraceArgs, CmdTrace>},
      {"disasm", Run<cli::CommandArgs, CmdDisasm>},
      {"corpus", Run<cli::CorpusArgs, CmdCorpus>},
      {"serve", Run<cli::ServeArgs, CmdServe>},
      {"push", Run<cli::ClientArgs, CmdPush>},
      {"query", Run<cli::ClientArgs, CmdQuery>},
      {"pull", Run<cli::ClientArgs, CmdPull>},
      {"sync", Run<cli::ClientArgs, CmdSync>},
      {"quarantine", Run<cli::ClientArgs, CmdQuarantine>},
      {"chaos-proxy", Run<cli::ChaosProxyArgs, CmdChaosProxy>},
      {"status", Run<cli::ClientArgs, CmdStatus>},
      {"coordinate", Run<cli::CoordinateArgs, CmdCoordinate>},
      {"detonate-worker", Run<cli::WorkerArgs, CmdDetonateWorker>},
  };
  return kRunners;
}

bool IsHelpFlag(std::string_view arg) { return arg == "--help" || arg == "-h"; }

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc < 2 ? "" : argv[1];
  if (IsHelpFlag(name)) {
    std::fputs(cli::TopLevelHelp().c_str(), stdout);
    return 0;
  }
  const cli::Command* command = cli::FindCommand(name);
  if (command == nullptr) {
    if (!name.empty()) {
      std::fprintf(stderr, "error: unknown command '%s'\n", name.c_str());
    }
    std::fputs(cli::TopLevelHelp().c_str(), stderr);
    return 2;
  }
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (std::any_of(args.begin(), args.end(), IsHelpFlag)) {
    std::fputs(cli::CommandHelp(*command).c_str(), stdout);
    return 0;
  }
  auto parsed = cli::ParseCommand(*command, args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\nusage: %s\n",
                 parsed.status().message().c_str(),
                 cli::Synopsis(*command).c_str());
    return 2;
  }
  return Runners().at(command->name)(*parsed.value());
}
