// Fault-tolerant detonation fleet coverage: the lease state machine
// (expiry, reassignment, grace, stale rejection), the fleet wire
// protocol, and the acceptance bar for PR 8 — under a fixed corpus seed
// the merged CampaignReport is byte-identical to a fault-free local run
// for every failure schedule exercised here: no faults, a worker
// SIGKILLed mid-sample, a worker SIGKILLed mid-upload, a coordinator
// SIGKILLed mid-assignment and resumed, and a lying network between the
// workers and the coordinator — with every sample analyzed exactly once.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "campaign/journal.h"
#include "campaign/supervisor.h"
#include "fleet/agent.h"
#include "fleet/client.h"
#include "fleet/coordinator.h"
#include "fleet/lease.h"
#include "fleet/merge.h"
#include "fleet/verdict.h"
#include "malware/benign.h"
#include "malware/corpus.h"
#include "net/chaosproxy.h"
#include "os/host_environment.h"
#include "sandbox/sandbox.h"
#include "net/faultwire.h"
#include "net/fleet_protocol.h"
#include "vaccine/json.h"
#include "vaccine/pipeline.h"
#include "vacstore/store.h"

namespace autovac {
namespace {

// Deletes its file when the test ends, pass or fail.
class ScratchFile {
 public:
  explicit ScratchFile(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Cheap execution envelope so multi-run fleets stay fast.
vaccine::PipelineOptions FastOptions() {
  vaccine::PipelineOptions options;
  options.phase1_budget = 200'000;
  options.impact.cycle_budget = 200'000;
  options.max_targets = 3;
  options.limits.max_api_calls = 400;
  options.limits.max_api_records = 300;
  options.limits.max_instruction_records = 40'000;
  return options;
}

std::vector<vm::Program> SmallCorpus(uint64_t seed, size_t total) {
  malware::CorpusOptions corpus_options;
  corpus_options.seed = seed;
  corpus_options.total = total;
  auto corpus = malware::GenerateCorpus(corpus_options);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  std::vector<vm::Program> wave;
  for (const malware::CorpusSample& sample : corpus.value()) {
    wave.push_back(sample.program);
  }
  return wave;
}

// Benign-app exclusiveness index, built once: vaccine extraction needs
// it, and both sides of a byte-identity comparison must share it.
const analysis::ExclusivenessIndex& SharedIndex() {
  static const analysis::ExclusivenessIndex* index = [] {
    auto* idx = new analysis::ExclusivenessIndex();
    auto corpus = malware::BuildBenignCorpus();
    AUTOVAC_CHECK(corpus.ok());
    for (const vm::Program& program : corpus.value()) {
      os::HostEnvironment env = os::HostEnvironment::StandardMachine();
      sandbox::RunOptions options;
      options.enable_taint = false;
      auto run = sandbox::RunProgram(program, env, options);
      idx->IndexBenignTrace(program.name, run.api_trace);
    }
    return idx;
  }();
  return *index;
}

// The oracle every fleet schedule must reproduce byte-for-byte: the
// plain in-process durable campaign over the same corpus and options.
std::string FaultFreeBaseline(const std::vector<vm::Program>& wave,
                              const analysis::ExclusivenessIndex* index =
                                  nullptr) {
  vaccine::VaccinePipeline pipeline(index, FastOptions());
  auto run = campaign::RunDurableCampaign(pipeline, wave);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return vaccine::CampaignReportToJson(run->report);
}

// Forks a worker agent process; chaos options (kill_after_claims,
// kill_mid_upload) detonate inside the child, never the test runner.
// Fork every worker before the coordinator starts its threads: TSan
// kills a child that starts threads after a multi-threaded fork, and
// under ASan a child can inherit an allocator lock a serving thread
// held. The child waits on a pipe until Release(); destroying an
// unreleased worker lets it exit without running.
class HeldWorker {
 public:
  HeldWorker(const std::vector<vm::Program>& wave,
             const fleet::WorkerOptions& options) {
    int go[2];
    if (::pipe(go) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(go[1]);
      char byte = 0;
      if (::read(go[0], &byte, 1) != 1) _exit(2);
      vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
      const auto stats = fleet::RunWorker(pipeline, wave, options);
      _exit(stats.ok() ? 0 : 1);
    }
    ::close(go[0]);
    go_ = go[1];
  }
  HeldWorker(const HeldWorker&) = delete;
  HeldWorker& operator=(const HeldWorker&) = delete;
  ~HeldWorker() {
    if (go_ >= 0) ::close(go_);
  }

  // Lets the worker run and returns its pid.
  pid_t Release() {
    if (go_ >= 0) {
      (void)!::write(go_, "g", 1);
      ::close(go_);
      go_ = -1;
    }
    return pid_;
  }

 private:
  pid_t pid_ = -1;
  int go_ = -1;
};

int WaitFor(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

fleet::WorkerOptions BaseWorker(const std::string& socket_path,
                                const std::string& id) {
  fleet::WorkerOptions options;
  options.socket_path = socket_path;
  options.worker_id = id;
  options.retry = net::RetryPolicy::Retrying();
  options.retry.max_total_ms = 10'000;
  options.idle_poll_ms = 20;
  options.max_idle_ms = 20'000;
  return options;
}

// ---------------------------------------------------------------------
// LeaseTable: the exactly-once state machine, deterministic clock
// ---------------------------------------------------------------------

struct FakeClock {
  uint64_t now = 1000;
  fleet::LeaseTable::Clock fn() {
    return [this] { return now; };
  }
};

fleet::LeaseTable MakeTable(size_t samples, FakeClock& clock,
                            uint64_t lease_ms = 100,
                            uint64_t first_lease_id = 1) {
  fleet::LeaseTable::Options options;
  options.lease_ms = lease_ms;
  options.first_lease_id = first_lease_id;
  options.clock = clock.fn();
  return fleet::LeaseTable(samples, options);
}

TEST(LeaseTable, GrantCompleteLifecycle) {
  FakeClock clock;
  fleet::LeaseTable table = MakeTable(2, clock);

  const auto first = table.Claim("w1");
  ASSERT_TRUE(first.has_work);
  EXPECT_EQ(first.index, 0u);
  EXPECT_EQ(first.lease_id, 1u);
  EXPECT_TRUE(table.IsLive(first.lease_id, first.index));
  EXPECT_TRUE(table.Renew(first.lease_id));

  const auto second = table.Claim("w2");
  ASSERT_TRUE(second.has_work);
  EXPECT_EQ(second.index, 1u);
  EXPECT_EQ(table.workers_seen(), 2u);
  EXPECT_EQ(table.leased(), 2u);

  // Nothing pending: not done, but no work either.
  const auto dry = table.Claim("w3");
  EXPECT_FALSE(dry.has_work);
  EXPECT_FALSE(dry.done);

  EXPECT_EQ(table.Complete(first.lease_id, first.index),
            fleet::LeaseTable::CompleteOutcome::kAccepted);
  // A second upload for a completed sample is a benign duplicate.
  EXPECT_EQ(table.Complete(first.lease_id, first.index),
            fleet::LeaseTable::CompleteOutcome::kDuplicate);
  EXPECT_FALSE(table.Renew(first.lease_id));
  EXPECT_FALSE(table.IsLive(first.lease_id, first.index));

  EXPECT_EQ(table.Complete(second.lease_id, second.index),
            fleet::LeaseTable::CompleteOutcome::kAccepted);
  EXPECT_TRUE(table.done());
  EXPECT_TRUE(table.Claim("w1").done);
}

TEST(LeaseTable, ExpiryReassignsAndZombieUploadIsStale) {
  FakeClock clock;
  fleet::LeaseTable table = MakeTable(1, clock, /*lease_ms=*/100);

  const auto doomed = table.Claim("w1");
  ASSERT_TRUE(doomed.has_work);

  // The window elapses unrenewed; the next claim reaps and reassigns.
  clock.now += 101;
  const auto inherited = table.Claim("w2");
  ASSERT_TRUE(inherited.has_work);
  EXPECT_EQ(inherited.index, doomed.index);
  EXPECT_NE(inherited.lease_id, doomed.lease_id);
  EXPECT_EQ(table.reassignments(), 1u);

  // The zombie finishes anyway: rejected, and only the current lease
  // holder's upload counts.
  EXPECT_EQ(table.Complete(doomed.lease_id, doomed.index),
            fleet::LeaseTable::CompleteOutcome::kStale);
  EXPECT_EQ(table.stale_rejections(), 1u);
  EXPECT_FALSE(table.Renew(doomed.lease_id));
  EXPECT_EQ(table.Complete(inherited.lease_id, inherited.index),
            fleet::LeaseTable::CompleteOutcome::kAccepted);
  EXPECT_TRUE(table.done());
  EXPECT_EQ(table.completed(), 1u);
}

TEST(LeaseTable, ExpiredButUnreapedLeaseStillCompletesAndRenews) {
  FakeClock clock;
  fleet::LeaseTable table = MakeTable(2, clock, /*lease_ms=*/100);

  const auto slow = table.Claim("w1");
  clock.now += 500;  // way past the window, but nobody reclaimed it

  // Grace: expiry alone does not invalidate — reassignment does.
  EXPECT_TRUE(table.Renew(slow.lease_id));
  clock.now += 500;
  EXPECT_EQ(table.Complete(slow.lease_id, slow.index),
            fleet::LeaseTable::CompleteOutcome::kAccepted);
  EXPECT_EQ(table.reassignments(), 0u);
  EXPECT_EQ(table.stale_rejections(), 0u);
}

TEST(LeaseTable, ResumedTableSeedsLeaseIdsAboveTheJournalFloor) {
  FakeClock clock;
  fleet::LeaseTable table =
      MakeTable(2, clock, /*lease_ms=*/100, /*first_lease_id=*/41);
  table.MarkCompleted(0);
  EXPECT_EQ(table.completed(), 1u);

  const auto grant = table.Claim("w1");
  ASSERT_TRUE(grant.has_work);
  EXPECT_EQ(grant.index, 1u);  // the replayed sample is never re-leased
  EXPECT_EQ(grant.lease_id, 41u);
}

// ---------------------------------------------------------------------
// Fleet wire protocol round trips
// ---------------------------------------------------------------------

TEST(FleetProtocol, RequestsRoundTrip) {
  net::CompleteRequest complete;
  complete.worker_id = "w\"1";
  complete.lease_id = 7;
  complete.sample_index = 3;
  complete.request_id = "r-1";
  complete.report.sample_name = "mal-3";
  complete.report.sample_digest = "abc123";

  for (const net::FleetRequest& request :
       {net::FleetRequest(net::ClaimRequest{"w\"1"}),
        net::FleetRequest(net::RenewRequest{"w1", 7}),
        net::FleetRequest(complete),
        net::FleetRequest(net::VerdictRequest{"w1", 7, 3, 120, 14, 3, 2,
                                              true}),
        net::FleetRequest(net::FleetStatusRequest{})}) {
    const std::string json = net::FleetRequestToJson(request);
    auto parsed = net::ParseFleetRequest(json);
    ASSERT_TRUE(parsed.ok()) << json << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->index(), request.index()) << json;
    EXPECT_EQ(net::FleetRequestToJson(*parsed), json);
  }
}

TEST(FleetProtocol, RepliesRoundTrip) {
  net::ClaimReply claim;
  claim.has_work = true;
  claim.sample_index = 5;
  claim.sample_name = "mal-5";
  claim.sample_digest = "d5";
  claim.lease_id = 9;
  claim.lease_ms = 5000;
  claim.config_digest = "cfg";

  net::FleetStatusReply status;
  status.total = 10;
  status.completed = 4;
  status.leased = 2;
  status.reassigned = 1;
  status.stale_rejected = 1;
  status.duplicates = 2;
  status.workers = 3;
  status.verdicts = 4;
  status.suspicious = 2;

  for (const net::FleetReply& reply :
       {net::FleetReply(claim), net::FleetReply(net::ClaimReply{}),
        net::FleetReply(net::RenewReply{true, 5000}),
        net::FleetReply(net::CompleteReply{true, false, false}),
        net::FleetReply(net::CompleteReply{false, true, false}),
        net::FleetReply(net::VerdictReply{true}), net::FleetReply(status),
        net::FleetReply(net::ErrorReply{true, "busy"})}) {
    const std::string json = net::FleetReplyToJson(reply);
    auto parsed = net::ParseFleetReply(json);
    ASSERT_TRUE(parsed.ok()) << json << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->index(), reply.index()) << json;
    EXPECT_EQ(net::FleetReplyToJson(*parsed), json);
  }
}

// ---------------------------------------------------------------------
// Coordinator protocol behaviour: zombies, dedup, misconfiguration
// ---------------------------------------------------------------------

TEST(FleetCoordinator, ZombieUploadRejectedAndRetryDeduped) {
  ScratchFile sock("fleet_zombie.sock");
  const std::vector<vm::Program> wave = SmallCorpus(31, 2);

  fleet::CoordinatorOptions options;
  options.socket_path = sock.path();
  options.lease_ms = 60;
  fleet::FleetCoordinator coordinator(wave, FastOptions(), options);
  ASSERT_TRUE(coordinator.Start().ok());

  fleet::FleetClient zombie(sock.path());
  fleet::FleetClient healthy(sock.path());

  auto doomed = zombie.Claim("zombie");
  ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
  ASSERT_TRUE(doomed->has_work);
  EXPECT_EQ(doomed->config_digest, coordinator.config_digest());

  // Sleep past the lease window; the healthy worker's claim reaps it.
  ::usleep(120'000);
  auto inherited = healthy.Claim("healthy");
  ASSERT_TRUE(inherited.ok());
  ASSERT_TRUE(inherited->has_work);
  EXPECT_EQ(inherited->sample_index, doomed->sample_index);
  EXPECT_NE(inherited->lease_id, doomed->lease_id);

  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
  const vaccine::SampleReport report = vaccine::AnalyzeIsolated(
      pipeline, wave[static_cast<size_t>(doomed->sample_index)]);

  // The zombie returns: stale, not counted.
  net::CompleteRequest from_zombie;
  from_zombie.worker_id = "zombie";
  from_zombie.lease_id = doomed->lease_id;
  from_zombie.sample_index = doomed->sample_index;
  from_zombie.report = report;
  auto rejected = zombie.Complete(from_zombie);
  ASSERT_TRUE(rejected.ok());
  EXPECT_TRUE(rejected->stale);
  EXPECT_FALSE(rejected->accepted);

  // The live holder's upload counts, and a retried upload carrying the
  // same request id is answered from the dedup window, applied once.
  net::CompleteRequest from_healthy;
  from_healthy.worker_id = "healthy";
  from_healthy.lease_id = inherited->lease_id;
  from_healthy.sample_index = inherited->sample_index;
  from_healthy.request_id = "upload-1";
  from_healthy.report = report;
  auto accepted = healthy.Complete(from_healthy);
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(accepted->accepted);

  auto retried = healthy.Complete(from_healthy);
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(retried->accepted);  // the recorded reply, not a re-apply

  auto progress = healthy.Stats();
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(progress->completed, 1u);
  EXPECT_EQ(progress->reassigned, 1u);
  EXPECT_EQ(progress->stale_rejected, 1u);
  EXPECT_EQ(coordinator.Stats().dedup_hits, 1u);

  // A report whose digest does not match its corpus slot is refused
  // loudly — a stale-corpus worker can never poison the campaign.
  auto other = healthy.Claim("healthy");
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other->has_work);
  net::CompleteRequest wrong;
  wrong.worker_id = "healthy";
  wrong.lease_id = other->lease_id;
  wrong.sample_index = other->sample_index;
  wrong.report = report;  // the other sample's report
  EXPECT_FALSE(healthy.Complete(wrong).ok());

  coordinator.Stop();
}

TEST(FleetCoordinator, MisconfiguredWorkerRefusesItsClaim) {
  ScratchFile sock("fleet_misconfig.sock");
  const std::vector<vm::Program> wave = SmallCorpus(32, 1);

  fleet::CoordinatorOptions options;
  options.socket_path = sock.path();
  fleet::FleetCoordinator coordinator(wave, FastOptions(), options);
  ASSERT_TRUE(coordinator.Start().ok());

  vaccine::PipelineOptions skewed = FastOptions();
  skewed.phase1_budget /= 2;
  vaccine::VaccinePipeline pipeline(nullptr, skewed);
  fleet::WorkerOptions worker = BaseWorker(sock.path(), "skewed");
  const auto stats = fleet::RunWorker(pipeline, wave, worker);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  coordinator.Stop();
}

// ---------------------------------------------------------------------
// The acceptance bar: byte-identical merges for every failure schedule
// ---------------------------------------------------------------------

TEST(FleetChaos, FaultFreeFleetMatchesLocalCampaign) {
  ScratchFile sock("fleet_clean.sock");
  ScratchFile journal("fleet_clean.jsonl");
  const std::vector<vm::Program> wave = SmallCorpus(20260808, 4);
  const std::string expected = FaultFreeBaseline(wave);

  fleet::CoordinatorOptions options;
  options.socket_path = sock.path();
  options.journal_path = journal.path();
  HeldWorker held1(wave, BaseWorker(sock.path(), "w1"));
  HeldWorker held2(wave, BaseWorker(sock.path(), "w2"));
  fleet::FleetCoordinator coordinator(wave, FastOptions(), options);
  ASSERT_TRUE(coordinator.Start().ok());

  const pid_t w1 = held1.Release();
  const pid_t w2 = held2.Release();
  ASSERT_TRUE(coordinator.WaitUntilDone(60'000).ok());
  EXPECT_EQ(WaitFor(w1), 0);
  EXPECT_EQ(WaitFor(w2), 0);

  auto report = coordinator.Report();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(vaccine::CampaignReportToJson(*report), expected);

  const auto progress = coordinator.Progress();
  EXPECT_TRUE(progress.done);
  EXPECT_EQ(progress.completed, wave.size());
  EXPECT_EQ(progress.duplicates, 0u);
  coordinator.Stop();

  // The journal is a complete, exactly-once record of the campaign.
  auto replay = campaign::CampaignJournal::Load(journal.path(), wave.size());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->completed, wave.size());
}

TEST(FleetChaos, WorkerKilledMidSampleIsReassigned) {
  ScratchFile sock("fleet_killsample.sock");
  const std::vector<vm::Program> wave = SmallCorpus(20260808, 4);
  const std::string expected = FaultFreeBaseline(wave);

  fleet::CoordinatorOptions options;
  options.socket_path = sock.path();
  options.lease_ms = 300;  // short, so reassignment is quick
  fleet::WorkerOptions doomed = BaseWorker(sock.path(), "doomed");
  doomed.kill_after_claims = 1;
  HeldWorker held_doomed(wave, doomed);
  HeldWorker held_survivor(wave, BaseWorker(sock.path(), "w2"));
  fleet::FleetCoordinator coordinator(wave, FastOptions(), options);
  ASSERT_TRUE(coordinator.Start().ok());

  // The doomed worker claims a sample and dies holding the lease.
  const pid_t killed = held_doomed.Release();
  const int status = WaitFor(killed);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // The survivor inherits the orphaned sample after lease expiry.
  const pid_t survivor = held_survivor.Release();
  ASSERT_TRUE(coordinator.WaitUntilDone(60'000).ok());
  EXPECT_EQ(WaitFor(survivor), 0);

  auto report = coordinator.Report();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(vaccine::CampaignReportToJson(*report), expected);
  EXPECT_GE(coordinator.Progress().reassigned, 1u);
  coordinator.Stop();
}

TEST(FleetChaos, WorkerKilledMidUploadLosesNothing) {
  ScratchFile sock("fleet_killupload.sock");
  const std::vector<vm::Program> wave = SmallCorpus(20260808, 4);
  const std::string expected = FaultFreeBaseline(wave);

  fleet::CoordinatorOptions options;
  options.socket_path = sock.path();
  options.lease_ms = 300;
  // Dies after its first complete frame is on the wire: the coordinator
  // may or may not have applied it — either way the campaign converges.
  fleet::WorkerOptions doomed = BaseWorker(sock.path(), "doomed");
  doomed.kill_mid_upload = true;
  HeldWorker held_doomed(wave, doomed);
  HeldWorker held_survivor(wave, BaseWorker(sock.path(), "w2"));
  fleet::FleetCoordinator coordinator(wave, FastOptions(), options);
  ASSERT_TRUE(coordinator.Start().ok());

  const pid_t killed = held_doomed.Release();
  const int status = WaitFor(killed);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  const pid_t survivor = held_survivor.Release();
  ASSERT_TRUE(coordinator.WaitUntilDone(60'000).ok());
  EXPECT_EQ(WaitFor(survivor), 0);

  auto report = coordinator.Report();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(vaccine::CampaignReportToJson(*report), expected);
  coordinator.Stop();
}

TEST(FleetChaos, CoordinatorKilledMidAssignmentResumesByteIdentical) {
  ScratchFile sock("fleet_killcoord.sock");
  ScratchFile journal("fleet_killcoord.jsonl");
  const std::vector<vm::Program> wave = SmallCorpus(20260808, 4);
  const std::string expected = FaultFreeBaseline(wave);

  // Incarnation one: dies by SIGKILL between journaling the second
  // assignment and acknowledging it.
  const pid_t doomed = ::fork();
  if (doomed == 0) {
    fleet::CoordinatorOptions options;
    options.socket_path = sock.path();
    options.journal_path = journal.path();
    options.crash_after_assignments = 2;
    fleet::FleetCoordinator coordinator(wave, FastOptions(), options);
    if (!coordinator.Start().ok()) _exit(3);
    (void)coordinator.WaitUntilDone(60'000);  // killed before this returns
    _exit(4);
  }
  ASSERT_GT(doomed, 0);

  // A worker drives it to the crash point, then fails against the dead
  // socket once its retry budget drains.
  fleet::WorkerOptions worker = BaseWorker(sock.path(), "w1");
  worker.retry.max_total_ms = 1500;
  worker.max_idle_ms = 5000;
  const pid_t first = HeldWorker(wave, worker).Release();
  const int status = WaitFor(doomed);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  (void)WaitFor(first);  // outcome depends on where the kill caught it

  // Incarnation two resumes from the journal: completed samples are
  // never re-analyzed, in-flight assignments are reissued, and lease ids
  // start above everything the dead incarnation handed out.
  fleet::CoordinatorOptions options;
  options.socket_path = sock.path();
  options.journal_path = journal.path();
  options.resume = true;
  HeldWorker held_second(wave, BaseWorker(sock.path(), "w2"));
  fleet::FleetCoordinator coordinator(wave, FastOptions(), options);
  ASSERT_TRUE(coordinator.Start().ok());
  EXPECT_GE(coordinator.Stats().resumed_max_lease, 2u);

  const pid_t second = held_second.Release();
  ASSERT_TRUE(coordinator.WaitUntilDone(60'000).ok());
  EXPECT_EQ(WaitFor(second), 0);

  auto report = coordinator.Report();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(vaccine::CampaignReportToJson(*report), expected);
  coordinator.Stop();

  auto replay = campaign::CampaignJournal::Load(journal.path(), wave.size());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->completed, wave.size());
  EXPECT_GE(replay->assignments, 2u);
}

TEST(FleetChaos, LyingNetworkBetweenWorkerAndCoordinator) {
  ScratchFile sock("fleet_wire.sock");
  ScratchFile proxy_sock("fleet_wire_proxy.sock");
  const std::vector<vm::Program> wave = SmallCorpus(20260808, 4);
  const std::string expected = FaultFreeBaseline(wave);

  fleet::CoordinatorOptions options;
  options.socket_path = sock.path();
  fleet::FleetCoordinator coordinator(wave, FastOptions(), options);
  ASSERT_TRUE(coordinator.Start().ok());

  // Every worker byte crosses a faulted wire: cut frames, torn replies,
  // duplicated deliveries — the retrying client plus the dedup window
  // must absorb all of it.
  const net::NetFaultPlan plan = net::NetFaultPlan::Randomized(2013, 0.25);
  net::ChaosProxyOptions proxy_options;
  proxy_options.listen_path = proxy_sock.path();
  proxy_options.backend_path = sock.path();
  proxy_options.deadline_ms = 500;
  net::ChaosProxy proxy(plan, proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  fleet::WorkerOptions worker = BaseWorker(proxy_sock.path(), "w1");
  worker.deadline_ms = 500;
  worker.retry.max_total_ms = 30'000;
  vaccine::VaccinePipeline pipeline(nullptr, FastOptions());
  const auto stats = fleet::RunWorker(pipeline, wave, worker);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  ASSERT_TRUE(coordinator.WaitUntilDone(60'000).ok());
  auto report = coordinator.Report();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(vaccine::CampaignReportToJson(*report), expected);
  EXPECT_GT(proxy.faults_injected(), 0u);
  proxy.Stop();
  coordinator.Stop();
}

// ---------------------------------------------------------------------
// Detonation-to-immunization handoff and the verdict stream
// ---------------------------------------------------------------------

TEST(Fleet, VaccinesStreamIntoTheStoreAndVerdictsAreAdvisory) {
  ScratchFile sock("fleet_ingest.sock");
  ScratchFile store_file("fleet_ingest.store");
  ScratchFile store_ckpt("fleet_ingest.store.ckpt");
  // 10 samples and the benign index: this slice of the corpus is known
  // to yield vaccines, which is what the ingest path is for.
  const std::vector<vm::Program> wave = SmallCorpus(20260808, 10);
  const std::string expected = FaultFreeBaseline(wave, &SharedIndex());

  fleet::CoordinatorOptions options;
  options.socket_path = sock.path();
  options.store_path = store_file.path();
  fleet::FleetCoordinator coordinator(wave, FastOptions(), options);
  ASSERT_TRUE(coordinator.Start().ok());

  fleet::WorkerOptions worker = BaseWorker(sock.path(), "w1");
  worker.verdicts = true;
  vaccine::VaccinePipeline pipeline(&SharedIndex(), FastOptions());
  const auto stats = fleet::RunWorker(pipeline, wave, worker);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->completed, wave.size());
  EXPECT_EQ(stats->verdicts, wave.size());

  ASSERT_TRUE(coordinator.WaitUntilDone(60'000).ok());
  auto report = coordinator.Report();
  ASSERT_TRUE(report.ok());
  // Verdict telemetry never touches the merged artifact.
  EXPECT_EQ(vaccine::CampaignReportToJson(*report), expected);
  EXPECT_EQ(coordinator.Progress().verdicts, wave.size());

  const uint64_t ingested = coordinator.Stats().ingested;
  coordinator.Stop();

  // Every extracted vaccine is already in the store, no separate
  // publish step — and a full-report ingest adds nothing new.
  auto store = vacstore::VaccineStore::Open(store_file.path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->entries().size(), ingested);
  size_t extracted = 0;
  for (const vaccine::SampleReport& sample : report->reports) {
    extracted += sample.vaccines.size();
  }
  EXPECT_GT(extracted, 0u);  // the corpus seed must actually yield some
  auto again = vacstore::IngestCampaignReport(*store, *report);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->added, 0u);
}

TEST(Fleet, VerdictScoringIsDeterministic) {
  const std::vector<vm::Program> wave = SmallCorpus(20260808, 4);
  fleet::VerdictOptions options;
  bool any_suspicious = false;
  for (const vm::Program& sample : wave) {
    const net::VerdictRequest a = fleet::ScoreSample(sample, options);
    const net::VerdictRequest b = fleet::ScoreSample(sample, options);
    EXPECT_EQ(a.api_calls, b.api_calls);
    EXPECT_EQ(a.resource_calls, b.resource_calls);
    EXPECT_EQ(a.tainted, b.tainted);
    EXPECT_EQ(a.identifiers, b.identifiers);
    EXPECT_EQ(a.suspicious, b.suspicious);
    any_suspicious |= a.suspicious;
  }
  // The malware corpus is resource-hungry by construction; the profile
  // must flag at least one sample or the stream is useless.
  EXPECT_TRUE(any_suspicious);
}

}  // namespace
}  // namespace autovac
