// Hostile-network coverage: the deterministic wire-fault plan and its
// two delivery mechanisms (in-process shim, chaos proxy), the client
// retry policy (budget, jitter determinism, idempotent push), and the
// acceptance bar for PR 6 — under any seeded fault plan a retrying
// client's push/query/pull campaign converges to a store byte-identical
// to the fault-free run, and a SIGKILL at any point of a push leaves the
// store either pre-push or post-push, never partial.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "net/chaosproxy.h"
#include "net/client.h"
#include "net/faultwire.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "support/metrics.h"
#include "vaccine/json.h"
#include "vacstore/store.h"

namespace autovac::net {
namespace {

// Removes the scratch path and every sidecar the store may leave behind
// (compaction temp, checkpoint, rotation temp).
class ScratchPath {
 public:
  explicit ScratchPath(std::string path) : path_(std::move(path)) {
    Remove();
  }
  ~ScratchPath() { Remove(); }
  const std::string& path() const { return path_; }

 private:
  void Remove() {
    for (const char* suffix : {"", ".compact", ".ckpt", ".ckpt.tmp",
                               ".rotate"}) {
      std::remove((path_ + suffix).c_str());
    }
  }
  std::string path_;
};

// Uninstalls the wire shim on every exit path; the shim is process
// global and a leaked plan would fault unrelated tests.
class InstalledPlan {
 public:
  explicit InstalledPlan(const NetFaultPlan* plan) {
    InstallWireFaults(plan);
  }
  ~InstalledPlan() { InstallWireFaults(nullptr); }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

vaccine::Vaccine MakeVaccine(os::ResourceType type,
                             const std::string& identifier) {
  vaccine::Vaccine v;
  v.malware_name = "sample-" + identifier;
  v.malware_digest = "d-" + identifier;
  v.resource_type = type;
  v.identifier = identifier;
  v.simulate_presence = true;
  v.identifier_kind = analysis::IdentifierClass::kStatic;
  v.immunization = analysis::ImmunizationType::kFull;
  v.delivery = vaccine::DeliveryMethod::kDirectInjection;
  return v;
}

NetFaultRule OnceRule(NetFaultOp op, NetFaultAction action,
                      int32_t occurrence, int64_t byte_offset = 0) {
  NetFaultRule rule;
  rule.op = op;
  rule.action = action;
  rule.occurrence = occurrence;
  rule.byte_offset = byte_offset;
  return rule;
}

// ---------------------------------------------------------------------
// NetFaultPlan / NetFaultInjector determinism
// ---------------------------------------------------------------------

TEST(NetFaultPlan, RandomizedIsSeedDeterministic) {
  const NetFaultPlan a = NetFaultPlan::Randomized(42, 0.2);
  const NetFaultPlan b = NetFaultPlan::Randomized(42, 0.2);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.Summary(), b.Summary());

  // Two injectors replaying the same plan fault identical connections.
  NetFaultInjector one(a);
  NetFaultInjector two(b);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(one.OnConnect().Summary(), two.OnConnect().Summary())
        << "connection " << i;
  }
  EXPECT_EQ(one.faults_injected(), two.faults_injected());

  // A different seed draws a different schedule.
  NetFaultInjector other(NetFaultPlan::Randomized(43, 0.2));
  std::string left, right;
  for (int i = 0; i < 64; ++i) {
    left += one.OnConnect().Summary() + ";";
    right += other.OnConnect().Summary() + ";";
  }
  EXPECT_NE(left, right);
}

TEST(NetFaultPlan, OccurrenceRulesFireExactlyOnce) {
  NetFaultPlan plan(7);
  plan.AddRule(OnceRule(NetFaultOp::kConnect, NetFaultAction::kRefuse, 2));
  NetFaultInjector injector(plan);
  for (int i = 0; i < 6; ++i) {
    const ConnectionFaults faults = injector.OnConnect();
    EXPECT_EQ(faults.refuse, i == 2) << "connection " << i;
  }
  EXPECT_EQ(injector.faults_injected(), 1u);
  EXPECT_EQ(injector.connections(), 6u);
}

TEST(NetFaultPlan, EveryRuleFiresOnMultiples) {
  NetFaultPlan plan(7);
  NetFaultRule rule;
  rule.op = NetFaultOp::kSend;
  rule.action = NetFaultAction::kShortIo;
  rule.every = 3;
  plan.AddRule(rule);
  NetFaultInjector injector(plan);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(injector.OnConnect().short_send, i % 3 == 0)
        << "connection " << i;
  }
}

// ---------------------------------------------------------------------
// Short IO / EINTR handling in the frame codec (satellite: the frame
// reader must loop on partial reads wherever they happen)
// ---------------------------------------------------------------------

TEST(WireShim, FrameSurvivesOneByteAtATimeDelivery) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload =
      RequestToJson(Request{PushRequest{
          {MakeVaccine(os::ResourceType::kMutex, "fragmented-frame-mutex")},
          /*request_id=*/""}});
  const std::string frame = EncodeNetFrame(payload);

  // Deliver the frame one byte per write, which fragments both the
  // 8-byte header and the payload across reads on the other side.
  std::thread writer([&] {
    for (const char byte : frame) {
      ssize_t n;
      do {
        n = ::write(fds[0], &byte, 1);
      } while (n < 0 && errno == EINTR);
      ASSERT_EQ(n, 1);
    }
  });
  auto read = ReadNetFrame(fds[1]);
  writer.join();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
  close(fds[0]);
  close(fds[1]);
}

TEST(WireShim, ShortAndInterruptedIoAreAbsorbedWithoutRetries) {
  ScratchPath sock("netchaos_shortio.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  // Every transfer short, one spurious EINTR per direction — degraded
  // but not broken, so a *non*-retrying client must still succeed.
  NetFaultPlan plan(11);
  for (const NetFaultOp op : {NetFaultOp::kSend, NetFaultOp::kRecv}) {
    for (const NetFaultAction action :
         {NetFaultAction::kShortIo, NetFaultAction::kEintr}) {
      NetFaultRule rule;
      rule.op = op;
      rule.action = action;
      rule.probability = 1.0;
      plan.AddRule(rule);
    }
  }
  InstalledPlan installed(&plan);

  VacdClient client(sock.path());
  auto push = client.Push({MakeVaccine(os::ResourceType::kMutex, "slow-m"),
                           MakeVaccine(os::ResourceType::kFile, "C:\\slow")});
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->added, 2u);
  auto pull = client.Pull(0);
  ASSERT_TRUE(pull.ok()) << pull.status().ToString();
  EXPECT_EQ(pull->items.size(), 2u);
  EXPECT_GE(WireFaultConnections(), 2u);
  server.Stop();
}

TEST(WireShim, SeveredStreamSurfacesARetryableStatus) {
  ScratchPath sock("netchaos_cut.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  // Connection 0: request severed 4 bytes in. Connection 1: reply
  // severed 3 bytes in. Connection 2: refused outright.
  NetFaultPlan plan(13);
  plan.AddRule(OnceRule(NetFaultOp::kSend, NetFaultAction::kCutAtByte, 0, 4));
  plan.AddRule(OnceRule(NetFaultOp::kRecv, NetFaultAction::kCutAtByte, 1, 3));
  plan.AddRule(OnceRule(NetFaultOp::kConnect, NetFaultAction::kRefuse, 2));
  InstalledPlan installed(&plan);

  VacdClient client(sock.path());  // no retry policy
  for (int i = 0; i < 3; ++i) {
    auto stats = client.Stats();
    ASSERT_FALSE(stats.ok()) << "fault " << i << " was not delivered";
    EXPECT_TRUE(VacdClient::IsRetryable(stats.status()))
        << "fault " << i << ": " << stats.status().ToString();
  }
  // Connection 3 is clean.
  EXPECT_TRUE(client.Stats().ok());
  server.Stop();
}

// ---------------------------------------------------------------------
// RetryPolicy: budget, late server, idempotent push
// ---------------------------------------------------------------------

TEST(NetRetry, BudgetExhaustionSurfacesDeadlineExceeded) {
  // No server will ever appear: the capped wait must end in
  // DeadlineExceeded, not spin forever (the satellite replacing the
  // unbounded "wait for the server" loop).
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_ms = 20;
  policy.max_backoff_ms = 40;
  policy.max_total_ms = 150;
  VacdClient client("netchaos_absent.sock", 1000, policy);
  auto stats = client.Stats();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(stats.status().message().find("retry budget"),
            std::string::npos)
      << stats.status().ToString();
}

TEST(NetRetry, ClientOutwaitsALateServer) {
  ScratchPath sock("netchaos_late.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;
  VacdServer server(vacstore::VaccineStore(), options);

  std::thread late([&] {
    ::usleep(100 * 1000);
    ASSERT_TRUE(server.Start().ok());
  });
  RetryPolicy policy = RetryPolicy::Retrying();
  policy.max_attempts = 100;
  policy.initial_backoff_ms = 10;
  policy.max_backoff_ms = 20;
  policy.max_total_ms = 5000;
  VacdClient client(sock.path(), 1000, policy);
  auto stats = client.Stats();
  late.join();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  server.Stop();
}

TEST(NetRetry, SameRequestIdIsAnsweredFromTheDedupWindow) {
  ScratchPath sock("netchaos_dedup.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());
  VacdClient client(sock.path());

  PushRequest first;
  first.request_id = "req-id-torn-reply";
  first.vaccines = {MakeVaccine(os::ResourceType::kMutex, "dedup-a"),
                    MakeVaccine(os::ResourceType::kMutex, "dedup-b")};
  const std::string first_json = RequestToJson(Request{first});
  auto original = client.RoundTripRaw(first_json);
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  // The exact retry: byte-identical recorded reply, nothing re-applied.
  auto retried = client.RoundTripRaw(first_json);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(*retried, *original);

  // Same id, *different* content: still the recorded reply — the window
  // keys on the id, proving this is not just content-digest dedup.
  PushRequest conflicting;
  conflicting.request_id = first.request_id;
  conflicting.vaccines = {MakeVaccine(os::ResourceType::kMutex, "dedup-c")};
  auto replayed = client.RoundTripRaw(RequestToJson(Request{conflicting}));
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, *original);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->served, 2u);  // dedup-c never entered the store
  EXPECT_EQ(stats->epoch, 1u);
  server.Stop();
}

TEST(NetRetry, DedupWindowIsBoundedFifo) {
  ScratchPath sock("netchaos_dedupwin.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;
  options.push_dedup_window = 1;  // only the latest id is remembered
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());
  VacdClient client(sock.path());

  const auto push_with_id = [&](const std::string& id,
                                const std::string& identifier) {
    PushRequest request;
    request.request_id = id;
    request.vaccines = {MakeVaccine(os::ResourceType::kMutex, identifier)};
    auto raw = client.RoundTripRaw(RequestToJson(Request{request}));
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  };
  push_with_id("id-one", "fifo-a");
  push_with_id("id-two", "fifo-b");  // evicts id-one from the window
  push_with_id("id-one", "fifo-c");  // applied again: the id was evicted

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->served, 3u);
  server.Stop();
}

TEST(NetRetry, DuplicateDeliveryOfAnIdempotentPushAddsOnce) {
  ScratchPath backend("netchaos_dup_backend.sock");
  ScratchPath front("netchaos_dup_front.sock");
  VacdOptions options;
  options.socket_path = backend.path();
  options.threads = 1;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  NetFaultPlan plan(17);
  plan.AddRule(
      OnceRule(NetFaultOp::kSend, NetFaultAction::kDuplicate, 0));
  ChaosProxyOptions proxy_options;
  proxy_options.listen_path = front.path();
  proxy_options.backend_path = backend.path();
  ChaosProxy proxy(plan, proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  const uint64_t deduped_before =
      GlobalMetrics().GetCounter("vacd.push.deduped")->value();
  RetryPolicy policy = RetryPolicy::Retrying();
  policy.seed = 5;
  VacdClient client(front.path(), 2000, policy);
  auto push = client.Push({MakeVaccine(os::ResourceType::kMutex, "dup-m")});
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->added, 1u);
  EXPECT_EQ(push->epoch, 1u);

  // The proxy delivered the request twice; the server applied it once
  // and answered the twin from the request-id window.
  EXPECT_GE(proxy.faults_injected(), 1u);
  EXPECT_GE(GlobalMetrics().GetCounter("vacd.push.deduped")->value(),
            deduped_before + 1);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->served, 1u);
  EXPECT_EQ(stats->epoch, 1u);
  proxy.Stop();
  server.Stop();
}

// ---------------------------------------------------------------------
// ChaosProxy
// ---------------------------------------------------------------------

TEST(ChaosProxy, CleanRelayIsByteIdentical) {
  ScratchPath backend("netchaos_relay_backend.sock");
  ScratchPath front("netchaos_relay_front.sock");
  VacdOptions options;
  options.socket_path = backend.path();
  options.threads = 1;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(VacdClient(backend.path())
                  .Push({MakeVaccine(os::ResourceType::kMutex, "relay-m")})
                  .ok());

  const NetFaultPlan empty_plan(1);
  ChaosProxyOptions proxy_options;
  proxy_options.listen_path = front.path();
  proxy_options.backend_path = backend.path();
  ChaosProxy proxy(empty_plan, proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  const std::string pull_json = RequestToJson(Request{PullRequest{}});
  auto direct = VacdClient(backend.path()).RoundTripRaw(pull_json);
  auto relayed = VacdClient(front.path()).RoundTripRaw(pull_json);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(relayed.ok()) << relayed.status().ToString();
  EXPECT_EQ(*relayed, *direct);
  EXPECT_EQ(proxy.faults_injected(), 0u);
  proxy.Stop();
  server.Stop();
}

TEST(ChaosProxy, PagedPullResumesAcrossBoundariesUnderWireFaults) {
  ScratchPath backend("netchaos_paging_backend.sock");
  ScratchPath front("netchaos_paging_front.sock");
  VacdOptions options;
  options.socket_path = backend.path();
  options.threads = 1;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  // Three feed epochs of uneven width, so a page limit of 1 forces
  // several truncated replies (more=true) and the "since" cursor has to
  // land exactly on epoch boundaries to resume correctly.
  VacdClient direct(backend.path());
  ASSERT_TRUE(direct
                  .Push({MakeVaccine(os::ResourceType::kMutex, "pg-a"),
                         MakeVaccine(os::ResourceType::kMutex, "pg-b")})
                  .ok());
  ASSERT_TRUE(
      direct.Push({MakeVaccine(os::ResourceType::kFile, "C:\\pg-c")}).ok());
  ASSERT_TRUE(direct
                  .Push({MakeVaccine(os::ResourceType::kMutex, "pg-d"),
                         MakeVaccine(os::ResourceType::kFile, "C:\\pg-e")})
                  .ok());
  auto expected = direct.Pull(0);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->items.size(), 5u);

  // Every page now crosses a lying wire: cut requests, torn replies,
  // refused connects, duplicated deliveries.
  const NetFaultPlan plan = NetFaultPlan::Randomized(77, 0.3);
  ChaosProxyOptions proxy_options;
  proxy_options.listen_path = front.path();
  proxy_options.backend_path = backend.path();
  proxy_options.deadline_ms = 1000;
  ChaosProxy proxy(plan, proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  RetryPolicy policy = RetryPolicy::Retrying();
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 20;
  policy.seed = 78;
  VacdClient client(front.path(), 1000, policy);

  // Page by hand to watch each truncated reply resume, then with
  // SyncAll; both must reproduce the direct unpaged pull exactly.
  std::vector<std::string> paged;
  uint64_t since = 0;
  for (int pages = 0; pages < 10; ++pages) {
    auto page = client.Pull(since, /*limit=*/1);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    for (const auto& item : page->items) paged.push_back(item.digest);
    if (!page->more) break;
    ASSERT_FALSE(page->items.empty());
    since = page->items.back().epoch;
  }
  ASSERT_EQ(paged.size(), expected->items.size());
  for (size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i], expected->items[i].digest) << i;
  }

  auto synced = client.SyncAll(0, /*page_limit=*/2);
  ASSERT_TRUE(synced.ok()) << synced.status().ToString();
  ASSERT_EQ(synced->items.size(), expected->items.size());
  for (size_t i = 0; i < synced->items.size(); ++i) {
    EXPECT_EQ(synced->items[i].digest, expected->items[i].digest) << i;
  }
  EXPECT_EQ(synced->epoch, expected->epoch);
  EXPECT_GT(proxy.faults_injected(), 0u);
  proxy.Stop();
  server.Stop();
}

TEST(ChaosProxy, RetryingClientConvergesThroughEveryFaultKind) {
  ScratchPath backend("netchaos_kinds_backend.sock");
  ScratchPath front("netchaos_kinds_front.sock");
  VacdOptions options;
  options.socket_path = backend.path();
  options.threads = 2;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  // One of each canonical failure, scheduled on consecutive connections.
  NetFaultPlan plan(19);
  plan.AddRule(OnceRule(NetFaultOp::kConnect, NetFaultAction::kRefuse, 0));
  plan.AddRule(OnceRule(NetFaultOp::kSend, NetFaultAction::kCutAtByte, 1, 5));
  plan.AddRule(OnceRule(NetFaultOp::kRecv, NetFaultAction::kCutAtByte, 2, 3));
  plan.AddRule(OnceRule(NetFaultOp::kSend, NetFaultAction::kDuplicate, 3));
  NetFaultRule stall =
      OnceRule(NetFaultOp::kConnect, NetFaultAction::kStall, 4);
  stall.stall_ms = 10;
  plan.AddRule(stall);
  ChaosProxyOptions proxy_options;
  proxy_options.listen_path = front.path();
  proxy_options.backend_path = backend.path();
  ChaosProxy proxy(plan, proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 10;
  policy.max_total_ms = 10000;
  policy.seed = 23;
  VacdClient client(front.path(), 2000, policy);

  const std::vector<vaccine::Vaccine> batch = {
      MakeVaccine(os::ResourceType::kMutex, "kinds-m"),
      MakeVaccine(os::ResourceType::kFile, "C:\\kinds")};
  auto push = client.Push(batch);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  auto query = client.Query(os::ResourceType::kMutex, "kinds-m");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->matches.size(), 1u);
  auto pull = client.Pull(0);
  ASSERT_TRUE(pull.ok()) << pull.status().ToString();

  // Converged: every vaccine exactly once, no duplicate digests.
  std::set<std::string> digests;
  for (const FeedItem& item : pull->items) digests.insert(item.digest);
  EXPECT_EQ(pull->items.size(), batch.size());
  EXPECT_EQ(digests.size(), batch.size());
  EXPECT_GE(proxy.faults_injected(), 4u);
  proxy.Stop();
  server.Stop();
}

// ---------------------------------------------------------------------
// The acceptance bar: byte-identical convergence under every cut point
// ---------------------------------------------------------------------

struct CampaignResult {
  std::string store_bytes;   // journal file after a drained shutdown
  std::string feed_digests;  // pull feed as "digest@epoch;" in order
};

// One full client campaign — two pushes, a query, a paged sync — against
// a fresh server on `store_path`, with `plan` (may be null) installed in
// the wire shim for the client's connections.
CampaignResult RunCampaign(const std::string& store_path,
                           const std::string& socket_path,
                           const NetFaultPlan* plan, uint64_t seed) {
  CampaignResult result;
  auto opened = vacstore::VaccineStore::Open(store_path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return result;
  VacdOptions options;
  options.socket_path = socket_path;
  options.threads = 1;
  VacdServer server(std::move(*opened), options);
  EXPECT_TRUE(server.Start().ok());

  {
    InstalledPlan installed(plan);
    RetryPolicy policy;
    policy.max_attempts = 16;
    policy.initial_backoff_ms = 1;
    policy.max_backoff_ms = 5;
    policy.max_total_ms = 20000;
    policy.seed = seed;
    VacdClient client(socket_path, 2000, policy);

    auto first = client.Push(
        {MakeVaccine(os::ResourceType::kMutex, "conv-alpha"),
         MakeVaccine(os::ResourceType::kFile, "C:\\conv\\beta")});
    EXPECT_TRUE(first.ok()) << first.status().ToString();
    auto second =
        client.Push({MakeVaccine(os::ResourceType::kRegistry, "conv-run")});
    EXPECT_TRUE(second.ok()) << second.status().ToString();
    auto query = client.Query(os::ResourceType::kMutex, "conv-alpha");
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto feed = client.SyncAll(0, /*page_limit=*/1);
    EXPECT_TRUE(feed.ok()) << feed.status().ToString();
    if (feed.ok()) {
      for (const FeedItem& item : feed->items) {
        result.feed_digests +=
            item.digest + "@" + std::to_string(item.epoch) + ";";
      }
    }
  }
  server.Stop();  // drains and fsyncs
  result.store_bytes = ReadFile(store_path);
  return result;
}

TEST(NetChaos, CampaignConvergesByteIdenticallyUnderEveryCutPoint) {
  ScratchPath sock("netchaos_conv.sock");
  CampaignResult baseline;
  {
    ScratchPath store("netchaos_conv_baseline.jsonl");
    baseline = RunCampaign(store.path(), sock.path(), nullptr, 0);
  }
  ASSERT_FALSE(baseline.store_bytes.empty());
  ASSERT_FALSE(baseline.feed_digests.empty());

  // Iterate the fault space: both stream directions, cut offsets from
  // "before the first byte" through the frame header boundary into the
  // payload, each scheduled on the first or second connection. Every
  // single campaign must converge to the byte-identical store.
  int runs = 0;
  for (const NetFaultOp op : {NetFaultOp::kSend, NetFaultOp::kRecv}) {
    for (const int64_t cut : {int64_t{0}, int64_t{3},
                              int64_t{kNetFrameHeaderSize}, int64_t{21}}) {
      for (const int32_t occurrence : {0, 1}) {
        NetFaultPlan plan(100 + runs);
        plan.AddRule(OnceRule(op, NetFaultAction::kCutAtByte, occurrence,
                              cut));
        ScratchPath store("netchaos_conv_run.jsonl");
        const CampaignResult result = RunCampaign(
            store.path(), sock.path(), &plan,
            static_cast<uint64_t>(runs));
        const std::string label =
            std::string(NetFaultOpName(op)) + " cut@" +
            std::to_string(cut) + " conn#" + std::to_string(occurrence);
        EXPECT_EQ(result.feed_digests, baseline.feed_digests) << label;
        EXPECT_EQ(result.store_bytes, baseline.store_bytes) << label;
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, 16);

  // And a randomized plan on top: many faults at once, same convergence.
  NetFaultPlan random_plan = NetFaultPlan::Randomized(271828, 0.25);
  ScratchPath store("netchaos_conv_random.jsonl");
  const CampaignResult result =
      RunCampaign(store.path(), sock.path(), &random_plan, 99);
  EXPECT_EQ(result.feed_digests, baseline.feed_digests);
  EXPECT_EQ(result.store_bytes, baseline.store_bytes);
}

// ---------------------------------------------------------------------
// Crash-during-push: SIGKILL at every journal byte, then retry
// ---------------------------------------------------------------------

TEST(CrashPush, KillAtEveryFaultPointIsAtomicAndRetryConverges) {
  const std::vector<vaccine::Vaccine> batch = {
      MakeVaccine(os::ResourceType::kMutex, "crash-a"),
      MakeVaccine(os::ResourceType::kFile, "C:\\crash\\b"),
      MakeVaccine(os::ResourceType::kRegistry, "crash-c")};

  // Fault-free references: the journal before and after the push, and
  // the batch's exact on-disk size (adds + commit record).
  std::string pre_image, post_image;
  size_t batch_bytes = 0;
  {
    ScratchPath file("netchaos_crash_ref.jsonl");
    auto store = vacstore::VaccineStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    pre_image = ReadFile(file.path());
    ASSERT_TRUE(store->Push(batch).ok());
    post_image = ReadFile(file.path());
    batch_bytes = post_image.size() - pre_image.size();
  }
  ASSERT_GT(batch_bytes, 0u);

  // Kill the pusher at the start, one byte in, mid-adds, one byte short
  // of the commit record's newline, and after the full append.
  const std::vector<size_t> fault_points = {
      0, 1, batch_bytes / 3, batch_bytes / 2, batch_bytes - 1, batch_bytes};
  for (const size_t fault_point : fault_points) {
    ScratchPath file("netchaos_crash_run.jsonl");
    {
      auto seeded = vacstore::VaccineStore::Open(file.path());
      ASSERT_TRUE(seeded.ok());  // writes the header, then closes
    }
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      auto opened = vacstore::VaccineStore::Open(file.path());
      if (!opened.ok()) _exit(1);
      vacstore::VaccineStore store = std::move(*opened);
      store.set_crash_after_bytes(static_cast<int64_t>(fault_point));
      (void)store.Push(batch);  // raises SIGKILL inside the append
      _exit(2);                 // only reached when the kill missed
    }
    int wait_status = 0;
    ASSERT_EQ(waitpid(child, &wait_status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wait_status))
        << "fault point " << fault_point << ": child exited with "
        << WEXITSTATUS(wait_status);
    ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);

    // Atomicity: the store is pre-push or post-push, never partial.
    auto recovered = vacstore::VaccineStore::Open(file.path());
    ASSERT_TRUE(recovered.ok())
        << "fault point " << fault_point << ": "
        << recovered.status().ToString();
    const size_t entries = recovered->entries().size();
    EXPECT_TRUE(entries == 0 || entries == batch.size())
        << "fault point " << fault_point << " left " << entries
        << " of " << batch.size() << " entries";

    // The retry converges: same final state as the fault-free push, with
    // no duplicate digests and no phantom epoch.
    ASSERT_TRUE(recovered->Push(batch).ok());
    EXPECT_EQ(recovered->entries().size(), batch.size())
        << "fault point " << fault_point;
    EXPECT_EQ(recovered->epoch(), 1u) << "fault point " << fault_point;
    std::set<std::string> digests;
    for (const auto& entry : recovered->entries()) {
      digests.insert(entry.digest);
    }
    EXPECT_EQ(digests.size(), batch.size())
        << "fault point " << fault_point;
  }
}

}  // namespace
}  // namespace autovac::net
