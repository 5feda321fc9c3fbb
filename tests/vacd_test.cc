// vacd coverage, inside-out: frame codec over a socketpair, protocol
// JSON round-trips, then the real server on a scratch Unix socket —
// push/query/pull/status end to end, conflict quarantine at the serving
// layer, explicit BUSY overload shedding, the idle sweep against a
// stalled client, malformed-frame rejection, and byte-identical PULL
// replies across a server restart (the feed is content-addressed and
// canonically serialized, so restarting must not change a single byte).
// Then the frame server's robustness under hostile clients (header-only
// frames, descriptor exhaustion, traffic that must not starve the idle
// sweep), a reply far larger than its write buffer, and its draining
// Stop().
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/exclusiveness.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "support/binio.h"
#include "vaccine/json.h"
#include "vacstore/store.h"

namespace autovac::net {
namespace {

// Removes the scratch path (socket or store file) on both ends of the
// test, compaction temp included. Relative paths keep sun_path short.
class ScratchPath {
 public:
  explicit ScratchPath(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
    std::remove((path_ + ".compact").c_str());
  }
  ~ScratchPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".compact").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

vaccine::Vaccine MakeVaccine(os::ResourceType type,
                             const std::string& identifier,
                             bool presence = true,
                             analysis::IdentifierClass kind =
                                 analysis::IdentifierClass::kStatic) {
  vaccine::Vaccine v;
  v.malware_name = "sample-" + identifier;
  v.malware_digest = "d-" + identifier;
  v.resource_type = type;
  v.identifier = identifier;
  v.simulate_presence = presence;
  v.identifier_kind = kind;
  v.immunization = analysis::ImmunizationType::kFull;
  v.delivery = kind == analysis::IdentifierClass::kStatic
                   ? vaccine::DeliveryMethod::kDirectInjection
                   : vaccine::DeliveryMethod::kDaemon;
  if (kind == analysis::IdentifierClass::kPartialStatic) {
    auto pattern = Pattern::Compile(identifier);
    EXPECT_TRUE(pattern.ok());
    if (pattern.ok()) v.pattern = std::move(pattern).value();
  }
  return v;
}

int ConnectTo(const std::string& socket_path) {
  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << socket_path;
  // A receive timeout so a misbehaving server fails the test instead of
  // hanging it.
  timeval timeout = {5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

int ConnectTcp(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  timeval timeout = {5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

// A frame header that claims `length` payload bytes.
std::string FrameHeader(uint32_t length) {
  std::string header;
  PutU32(header, kNetFrameMagic);
  PutU32(header, length);
  return header;
}

bool IsBusyReply(const Result<std::string>& raw) {
  if (!raw.ok()) return false;
  const Result<Reply> reply = ParseReply(*raw);
  if (!reply.ok()) return false;
  const auto* error = std::get_if<ErrorReply>(&*reply);
  return error != nullptr && error->busy;
}

// A forked child, SIGKILLed and reaped when the test leaves scope (an
// assertion failure included).
class Child {
 public:
  explicit Child(pid_t pid) : pid_(pid) {}
  ~Child() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_;
};

// Resident set of process `pid` in kB (VmRSS), or 0 when unreadable.
uint64_t VmRssKb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

double CpuMs(const rusage& usage) {
  return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3;
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

TEST(NetFrame, RoundTripsOverSocketPair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  const std::string payload = "{\"op\":\"status\"}";
  ASSERT_TRUE(WriteNetFrame(fds[0], payload).ok());
  auto read = ReadNetFrame(fds[1]);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);

  // Empty payloads are legal frames.
  ASSERT_TRUE(WriteNetFrame(fds[0], "").ok());
  auto empty = ReadNetFrame(fds[1]);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // A clean close between frames is NotFound, not corruption.
  close(fds[0]);
  auto eof = ReadNetFrame(fds[1]);
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  close(fds[1]);
}

TEST(NetFrame, BadMagicIsRejected) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char junk[kNetFrameHeaderSize] = {'X', 'X', 'X', 'X',
                                                   1,   0,   0,   0};
  ASSERT_EQ(write(fds[0], junk, sizeof junk),
            static_cast<ssize_t>(sizeof junk));
  auto read = ReadNetFrame(fds[1]);
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  close(fds[0]);
  close(fds[1]);
}

TEST(NetFrame, TruncatedFrameIsCorruption) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Valid header promising 100 payload bytes, then only 3 arrive.
  const unsigned char header[kNetFrameHeaderSize] = {0x41, 0x56, 0x4E, 0x46,
                                                     100,  0,    0,    0};
  ASSERT_EQ(write(fds[0], header, sizeof header),
            static_cast<ssize_t>(sizeof header));
  ASSERT_EQ(write(fds[0], "abc", 3), 3);
  close(fds[0]);
  auto read = ReadNetFrame(fds[1]);
  EXPECT_EQ(read.status().code(), StatusCode::kInternal);
  close(fds[1]);
}

TEST(NetFrame, HeaderOnlyFrameReservesNothing) {
  // In a child, so its peak RSS measures this read alone.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) _exit(2);
    // A header claiming the largest legal payload, then a hang-up.
    const std::string header = FrameHeader(kMaxNetFramePayload);
    if (write(fds[0], header.data(), header.size()) !=
        static_cast<ssize_t>(header.size())) {
      _exit(2);
    }
    close(fds[0]);
    rusage before = {};
    rusage after = {};
    getrusage(RUSAGE_SELF, &before);
    const auto read = ReadNetFrame(fds[1]);
    getrusage(RUSAGE_SELF, &after);
    if (read.status().code() != StatusCode::kInternal) _exit(3);
    // ru_maxrss is in kB: the claim is 64 MiB, the cost must not be.
    _exit(after.ru_maxrss - before.ru_maxrss < 16 * 1024 ? 0 : 4);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "3: the torn frame was not reported; 4: the claim was allocated";
}

// ---------------------------------------------------------------------
// Protocol JSON
// ---------------------------------------------------------------------

TEST(Protocol, RequestsRoundTrip) {
  PushRequest push;
  push.vaccines.push_back(MakeVaccine(os::ResourceType::kMutex, "evil-m"));
  push.vaccines.push_back(MakeVaccine(os::ResourceType::kFile,
                                      "c:\\\\evil\\\\*", false,
                                      analysis::IdentifierClass::kPartialStatic));
  auto push_parsed = ParseRequest(RequestToJson(Request{push}));
  ASSERT_TRUE(push_parsed.ok()) << push_parsed.status().ToString();
  const auto* push_back = std::get_if<PushRequest>(&*push_parsed);
  ASSERT_NE(push_back, nullptr);
  ASSERT_EQ(push_back->vaccines.size(), 2u);
  EXPECT_EQ(vaccine::VaccineToJson(push_back->vaccines[1]),
            vaccine::VaccineToJson(push.vaccines[1]));

  QueryRequest query;
  query.resource_type = os::ResourceType::kRegistry;
  query.identifier = "hklm\\software\\evil";
  auto query_parsed = ParseRequest(RequestToJson(Request{query}));
  ASSERT_TRUE(query_parsed.ok());
  const auto* query_back = std::get_if<QueryRequest>(&*query_parsed);
  ASSERT_NE(query_back, nullptr);
  EXPECT_EQ(query_back->resource_type, os::ResourceType::kRegistry);
  EXPECT_EQ(query_back->identifier, "hklm\\software\\evil");

  PullRequest pull;
  pull.since = 7;
  auto pull_parsed = ParseRequest(RequestToJson(Request{pull}));
  ASSERT_TRUE(pull_parsed.ok());
  const auto* pull_back = std::get_if<PullRequest>(&*pull_parsed);
  ASSERT_NE(pull_back, nullptr);
  EXPECT_EQ(pull_back->since, 7u);
  EXPECT_EQ(pull_back->limit, 0u);

  // Optional fields round-trip, and their absence keeps legacy bytes.
  EXPECT_EQ(RequestToJson(Request{pull}).find("limit"), std::string::npos);
  pull.limit = 32;
  auto paged = ParseRequest(RequestToJson(Request{pull}));
  ASSERT_TRUE(paged.ok());
  EXPECT_EQ(std::get_if<PullRequest>(&*paged)->limit, 32u);

  PushRequest idempotent;
  idempotent.vaccines.push_back(MakeVaccine(os::ResourceType::kMutex, "m"));
  EXPECT_EQ(RequestToJson(Request{idempotent}).find("request_id"),
            std::string::npos);
  idempotent.request_id = "retry-key-1";
  auto keyed = ParseRequest(RequestToJson(Request{idempotent}));
  ASSERT_TRUE(keyed.ok());
  EXPECT_EQ(std::get_if<PushRequest>(&*keyed)->request_id, "retry-key-1");

  auto status_parsed = ParseRequest(RequestToJson(Request{StatusRequest{}}));
  ASSERT_TRUE(status_parsed.ok());
  EXPECT_NE(std::get_if<StatusRequest>(&*status_parsed), nullptr);
}

TEST(Protocol, RepliesRoundTrip) {
  PushReply push;
  push.added = 3;
  push.duplicates = 2;
  push.quarantined = 1;
  push.epoch = 9;
  auto push_parsed = ParseReply(ReplyToJson(Reply{push}));
  ASSERT_TRUE(push_parsed.ok()) << push_parsed.status().ToString();
  const auto* push_back = std::get_if<PushReply>(&*push_parsed);
  ASSERT_NE(push_back, nullptr);
  EXPECT_EQ(push_back->added, 3u);
  EXPECT_EQ(push_back->duplicates, 2u);
  EXPECT_EQ(push_back->quarantined, 1u);
  EXPECT_EQ(push_back->epoch, 9u);

  PullReply pull;
  pull.epoch = 4;
  pull.more = true;
  FeedItem item;
  item.digest = "abc123";
  item.epoch = 2;
  item.vaccine = MakeVaccine(os::ResourceType::kMutex, "evil-m");
  pull.items.push_back(item);
  auto pull_parsed = ParseReply(ReplyToJson(Reply{pull}));
  ASSERT_TRUE(pull_parsed.ok());
  const auto* pull_back = std::get_if<PullReply>(&*pull_parsed);
  ASSERT_NE(pull_back, nullptr);
  EXPECT_EQ(pull_back->epoch, 4u);
  EXPECT_TRUE(pull_back->more);
  ASSERT_EQ(pull_back->items.size(), 1u);
  EXPECT_EQ(pull_back->items[0].digest, "abc123");
  EXPECT_EQ(pull_back->items[0].epoch, 2u);

  StatusReply status;
  status.epoch = 5;
  status.served = 4;
  status.quarantined = 1;
  status.requests = 99;
  status.shed = 2;
  status.evicted = 3;
  auto status_parsed = ParseReply(ReplyToJson(Reply{status}));
  ASSERT_TRUE(status_parsed.ok());
  const auto* status_back = std::get_if<StatusReply>(&*status_parsed);
  ASSERT_NE(status_back, nullptr);
  EXPECT_EQ(status_back->evicted, 3u);
  EXPECT_EQ(status_back->shed, 2u);

  ErrorReply error;
  error.busy = true;
  error.message = "overloaded";
  auto error_parsed = ParseReply(ReplyToJson(Reply{error}));
  ASSERT_TRUE(error_parsed.ok());
  const auto* error_back = std::get_if<ErrorReply>(&*error_parsed);
  ASSERT_NE(error_back, nullptr);
  EXPECT_TRUE(error_back->busy);
  EXPECT_EQ(error_back->message, "overloaded");
}

TEST(Protocol, MalformedRequestsAreRejected) {
  EXPECT_FALSE(ParseRequest("not json at all").ok());
  EXPECT_FALSE(ParseRequest("{}").ok());
  EXPECT_FALSE(ParseRequest("{\"op\":\"frobnicate\"}").ok());
  EXPECT_FALSE(ParseRequest("{\"op\":\"query\",\"resource\":999,"
                            "\"identifier\":\"x\"}").ok());
}

// ---------------------------------------------------------------------
// End to end over a real socket
// ---------------------------------------------------------------------

TEST(Vacd, PushQueryPullStatusEndToEnd) {
  ScratchPath sock("vacd_e2e.sock");
  analysis::ExclusivenessIndex conflicts;  // builtin whitelist only

  vacstore::VaccineStore store;
  store.SetConflictIndex(&conflicts);

  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 2;
  VacdServer server(std::move(store), options);
  ASSERT_TRUE(server.Start().ok());

  VacdClient client(sock.path());

  // One of everything: a mutex literal, a presence file, a floating
  // pattern, and a whitelist collision that must be quarantined.
  std::vector<vaccine::Vaccine> batch;
  batch.push_back(MakeVaccine(os::ResourceType::kMutex, "evilmutex123",
                              /*presence=*/true));
  batch.push_back(MakeVaccine(os::ResourceType::kFile,
                              "c:\\evil\\payload.bin", /*presence=*/false));
  batch.push_back(MakeVaccine(os::ResourceType::kFile, "c:\\\\evil\\\\*",
                              /*presence=*/true,
                              analysis::IdentifierClass::kPartialStatic));
  batch.push_back(MakeVaccine(os::ResourceType::kLibrary, "kernel32.dll"));

  auto push = client.Push(batch);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->added, 4u);
  EXPECT_EQ(push->duplicates, 0u);
  EXPECT_EQ(push->quarantined, 1u);
  EXPECT_EQ(push->epoch, 1u);

  // Literal hit, presence action intact.
  auto mutex_hit = client.Query(os::ResourceType::kMutex, "evilmutex123");
  ASSERT_TRUE(mutex_hit.ok()) << mutex_hit.status().ToString();
  ASSERT_EQ(mutex_hit->matches.size(), 1u);
  EXPECT_EQ(mutex_hit->matches[0].identifier, "evilmutex123");
  EXPECT_TRUE(mutex_hit->matches[0].simulate_presence);

  // The pattern vaccine matches an identifier nobody pushed literally;
  // the literal file vaccine matches itself too, so that path gets both.
  auto file_hit = client.Query(os::ResourceType::kFile,
                               "c:\\evil\\payload.bin");
  ASSERT_TRUE(file_hit.ok());
  EXPECT_EQ(file_hit->matches.size(), 2u);
  auto pattern_hit = client.Query(os::ResourceType::kFile,
                                  "c:\\evil\\dropper.exe");
  ASSERT_TRUE(pattern_hit.ok());
  ASSERT_EQ(pattern_hit->matches.size(), 1u);
  EXPECT_EQ(pattern_hit->matches[0].identifier_kind,
            analysis::IdentifierClass::kPartialStatic);

  // Quarantined vaccines are stored but never served.
  auto quarantined = client.Query(os::ResourceType::kLibrary, "kernel32.dll");
  ASSERT_TRUE(quarantined.ok());
  EXPECT_TRUE(quarantined->matches.empty());

  auto miss = client.Query(os::ResourceType::kMutex, "innocentmutex");
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->matches.empty());

  // PULL is the served feed only.
  auto pull = client.Pull(0);
  ASSERT_TRUE(pull.ok()) << pull.status().ToString();
  EXPECT_EQ(pull->epoch, 1u);
  ASSERT_EQ(pull->items.size(), 3u);
  for (const FeedItem& item : pull->items) {
    EXPECT_EQ(item.epoch, 1u);
    EXPECT_FALSE(item.digest.empty());
    EXPECT_EQ(item.digest, vaccine::VaccineDigest(item.vaccine));
  }
  auto caught_up = client.Pull(1);
  ASSERT_TRUE(caught_up.ok());
  EXPECT_TRUE(caught_up->items.empty());

  // Re-pushing the batch is pure dedup: no epoch bump, nothing new.
  auto again = client.Push(batch);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->added, 0u);
  EXPECT_EQ(again->duplicates, 4u);
  EXPECT_EQ(again->epoch, 1u);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->epoch, 1u);
  EXPECT_EQ(stats->served, 3u);
  EXPECT_EQ(stats->quarantined, 1u);
  EXPECT_GE(stats->requests, 8u);
  EXPECT_EQ(stats->shed, 0u);

  server.Stop();
}

TEST(Vacd, PagedPullNeverSplitsAnEpochAndResumes) {
  ScratchPath sock("vacd_paging.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());
  VacdClient client(sock.path());

  // Epoch 1 holds two vaccines, epoch 2 one: a limit of 1 must extend
  // the first page through all of epoch 1 so "since" stays an exact
  // resume cursor.
  ASSERT_TRUE(client.Push({MakeVaccine(os::ResourceType::kMutex, "page-a"),
                           MakeVaccine(os::ResourceType::kMutex, "page-b")})
                  .ok());
  ASSERT_TRUE(
      client.Push({MakeVaccine(os::ResourceType::kMutex, "page-c")}).ok());

  auto first = client.Pull(0, /*limit=*/1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->items.size(), 2u);
  EXPECT_TRUE(first->more);
  EXPECT_EQ(first->items.back().epoch, 1u);

  auto second = client.Pull(first->items.back().epoch, /*limit=*/1);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->items.size(), 1u);
  EXPECT_FALSE(second->more);
  EXPECT_EQ(second->items[0].vaccine.identifier, "page-c");

  // SyncAll pages through the same feed and merges it completely.
  auto all = client.SyncAll(0, /*page_limit=*/1);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->items.size(), 3u);
  EXPECT_EQ(all->epoch, 2u);

  // An unlimited pull is unchanged (and never reports more).
  auto unpaged = client.Pull(0);
  ASSERT_TRUE(unpaged.ok());
  EXPECT_EQ(unpaged->items.size(), 3u);
  EXPECT_FALSE(unpaged->more);
  server.Stop();
}

TEST(Vacd, OverloadIsShedWithExplicitBusy) {
  ScratchPath sock("vacd_busy.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;
  options.max_connections = 0;  // every connection is over the line
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  VacdClient client(sock.path());

  // The raw variant exposes the busy shed as an ErrorReply value.
  auto reply = client.RoundTrip(Request{StatusRequest{}});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const auto* error = std::get_if<ErrorReply>(&*reply);
  ASSERT_NE(error, nullptr);
  EXPECT_TRUE(error->busy);

  // The typed helpers turn it into a retryable FailedPrecondition.
  auto stats = client.Stats();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(VacdClient::IsBusy(stats.status()));

  server.Stop();
  const StatusReply final_stats = server.Stats();
  EXPECT_GE(final_stats.shed, 2u);
  EXPECT_EQ(final_stats.requests, 0u);
}

TEST(Vacd, StalledClientHitsTheDeadlineAndServerSurvives) {
  ScratchPath sock("vacd_deadline.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 2;
  options.idle_timeout_ms = 100;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  // Half a frame header, then silence: the idle sweep must close the
  // connection.
  int fd = ConnectTo(sock.path());
  const unsigned char half[4] = {0x41, 0x56, 0x4E, 0x46};
  ASSERT_EQ(write(fd, half, sizeof half), static_cast<ssize_t>(sizeof half));
  char buffer[256];
  ssize_t n;
  while ((n = read(fd, buffer, sizeof buffer)) > 0) {
  }
  EXPECT_EQ(n, 0) << "server did not close the stalled connection";
  close(fd);

  // The server kept serving meanwhile; real requests still work.
  VacdClient client(sock.path());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  server.Stop();
}

TEST(Vacd, MalformedFrameGetsAnErrorReplyNotACrash) {
  ScratchPath sock("vacd_malformed.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  int fd = ConnectTo(sock.path());
  ASSERT_TRUE(WriteNetFrame(fd, "this is not a request").ok());
  auto raw = ReadNetFrame(fd);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto reply = ParseReply(*raw);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const auto* error = std::get_if<ErrorReply>(&*reply);
  ASSERT_NE(error, nullptr);
  EXPECT_FALSE(error->busy);
  EXPECT_FALSE(error->message.empty());
  close(fd);

  VacdClient client(sock.path());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  server.Stop();
}

// ---------------------------------------------------------------------
// The frame server under hostile clients, and its draining Stop()
// ---------------------------------------------------------------------

TEST(Vacd, HeaderOnlyFramesCostOnlyTheirBytes) {
  ScratchPath sock("vacd_header_only.sock");
  int ready[2];
  ASSERT_EQ(pipe(ready), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    VacdOptions options;
    options.socket_path = sock.path();
    VacdServer server(vacstore::VaccineStore(), options);
    if (!server.Start().ok()) _exit(2);
    const char byte = 'r';
    if (write(ready[1], &byte, 1) != 1) _exit(2);
    pause();  // until the parent's SIGKILL
    _exit(0);
  }
  Child child(pid);
  close(ready[1]);
  char byte = 0;
  ASSERT_EQ(read(ready[0], &byte, 1), 1);
  close(ready[0]);
  ASSERT_TRUE(VacdClient(sock.path()).Stats().ok());
  const uint64_t rss_before = VmRssKb(pid);
  ASSERT_GT(rss_before, 0u);

  // Four clients each promise the largest legal payload and send
  // nothing more.
  const std::string header = FrameHeader(kMaxNetFramePayload);
  std::vector<int> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(ConnectTo(sock.path()));
    ASSERT_EQ(write(clients.back(), header.data(), header.size()),
              static_cast<ssize_t>(header.size()));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const uint64_t rss_after = VmRssKb(pid);
  EXPECT_LT(static_cast<int64_t>(rss_after) - static_cast<int64_t>(rss_before),
            16 * 1024)
      << "VmRSS " << rss_before << " kB -> " << rss_after << " kB";
  // And the server is still answering.
  EXPECT_TRUE(VacdClient(sock.path()).Stats().ok());
  for (const int fd : clients) close(fd);
}

TEST(Vacd, DescriptorExhaustionShedsBusyWithoutSpinning) {
  ScratchPath sock("vacd_nofile.sock");
  int port_pipe[2];
  int go_pipe[2];
  int cpu_pipe[2];
  ASSERT_EQ(pipe(port_pipe), 0);
  ASSERT_EQ(pipe(go_pipe), 0);
  ASSERT_EQ(pipe(cpu_pipe), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(port_pipe[0]);
    close(go_pipe[1]);
    close(cpu_pipe[0]);
    // Only this child runs short of descriptors.
    const rlimit limit = {32, 32};
    if (setrlimit(RLIMIT_NOFILE, &limit) != 0) _exit(2);
    VacdOptions options;
    options.socket_path = sock.path();
    options.tcp_host = "127.0.0.1";
    options.threads = 1;
    VacdServer server(vacstore::VaccineStore(), options);
    if (!server.Start().ok()) _exit(3);
    const uint16_t port = server.tcp_port();
    if (write(port_pipe[1], &port, sizeof port) != sizeof port) _exit(4);
    // Once every client has connected, measure this process's CPU over
    // one second of wall time.
    char byte = 0;
    if (read(go_pipe[0], &byte, 1) != 1) _exit(5);
    rusage before = {};
    rusage after = {};
    getrusage(RUSAGE_SELF, &before);
    sleep(1);
    getrusage(RUSAGE_SELF, &after);
    const double cpu_ms = CpuMs(after) - CpuMs(before);
    if (write(cpu_pipe[1], &cpu_ms, sizeof cpu_ms) != sizeof cpu_ms) {
      _exit(6);
    }
    pause();  // until the parent's SIGKILL
    _exit(0);
  }
  Child child(pid);
  close(port_pipe[1]);
  close(go_pipe[0]);
  close(cpu_pipe[1]);
  uint16_t port = 0;
  ASSERT_EQ(read(port_pipe[0], &port, sizeof port),
            static_cast<ssize_t>(sizeof port));

  // More clients than the child has descriptors left.
  std::vector<int> clients;
  for (int i = 0; i < 40; ++i) clients.push_back(ConnectTcp(port));
  // The last one is over the limit: BUSY at the door, within a second.
  const timeval one_second = {1, 0};
  setsockopt(clients.back(), SOL_SOCKET, SO_RCVTIMEO, &one_second,
             sizeof one_second);
  const Result<std::string> shed = ReadNetFrame(clients.back());
  EXPECT_TRUE(IsBusyReply(shed))
      << (shed.ok() ? *shed : shed.status().ToString());

  const char go = 'g';
  ASSERT_EQ(write(go_pipe[1], &go, 1), 1);
  double cpu_ms = -1;
  ASSERT_EQ(read(cpu_pipe[0], &cpu_ms, sizeof cpu_ms),
            static_cast<ssize_t>(sizeof cpu_ms));
  EXPECT_LT(cpu_ms, 300.0) << "the accept loop spins on EMFILE";
  for (const int fd : clients) close(fd);
  close(port_pipe[0]);
  close(go_pipe[1]);
  close(cpu_pipe[0]);
}

TEST(Vacd, AcceptPausesWhileNoSpareDescriptorCanBeOpened) {
  ScratchPath sock("vacd_no_spare.sock");
  int port_pipe[2];
  int go_pipe[2];
  int cpu_pipe[2];
  ASSERT_EQ(pipe(port_pipe), 0);
  ASSERT_EQ(pipe(go_pipe), 0);
  ASSERT_EQ(pipe(cpu_pipe), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(port_pipe[0]);
    close(go_pipe[1]);
    close(cpu_pipe[0]);
    VacdOptions options;
    options.socket_path = sock.path();
    options.tcp_host = "127.0.0.1";
    options.threads = 1;
    VacdServer server(vacstore::VaccineStore(), options);
    if (!server.Start().ok()) _exit(3);
    // Every descriptor number is now over the limit, so the spare, once
    // spent, cannot be reopened: the server is left with none.
    rlimit saved = {};
    if (getrlimit(RLIMIT_NOFILE, &saved) != 0) _exit(2);
    const rlimit exhausted = {3, saved.rlim_max};
    if (setrlimit(RLIMIT_NOFILE, &exhausted) != 0) _exit(2);
    const uint16_t port = server.tcp_port();
    if (write(port_pipe[1], &port, sizeof port) != sizeof port) _exit(4);
    // With the client waiting, measure this process's CPU over one
    // second of wall time; then free the descriptors again.
    char byte = 0;
    if (read(go_pipe[0], &byte, 1) != 1) _exit(5);
    rusage before = {};
    rusage after = {};
    getrusage(RUSAGE_SELF, &before);
    sleep(1);
    getrusage(RUSAGE_SELF, &after);
    if (setrlimit(RLIMIT_NOFILE, &saved) != 0) _exit(6);
    const double cpu_ms = CpuMs(after) - CpuMs(before);
    if (write(cpu_pipe[1], &cpu_ms, sizeof cpu_ms) != sizeof cpu_ms) {
      _exit(7);
    }
    pause();  // until the parent's SIGKILL
    _exit(0);
  }
  Child child(pid);
  close(port_pipe[1]);
  close(go_pipe[0]);
  close(cpu_pipe[1]);
  uint16_t port = 0;
  ASSERT_EQ(read(port_pipe[0], &port, sizeof port),
            static_cast<ssize_t>(sizeof port));

  const int client = ConnectTcp(port);
  ASSERT_TRUE(
      WriteNetFrame(client, RequestToJson(Request(StatusRequest{}))).ok());
  const char go = 'g';
  ASSERT_EQ(write(go_pipe[1], &go, 1), 1);
  double cpu_ms = -1;
  ASSERT_EQ(read(cpu_pipe[0], &cpu_ms, sizeof cpu_ms),
            static_cast<ssize_t>(sizeof cpu_ms));
  EXPECT_LT(cpu_ms, 300.0) << "the accept loop spins without a spare";
  // Once descriptors free up, the tick reopens the spare and the waiting
  // client is accepted and answered.
  const Result<std::string> raw = ReadNetFrame(client);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const Result<Reply> reply = ParseReply(*raw);
  ASSERT_TRUE(reply.ok()) << *raw;
  EXPECT_NE(std::get_if<StatusReply>(&*reply), nullptr) << *raw;
  close(client);
  close(port_pipe[0]);
  close(go_pipe[1]);
  close(cpu_pipe[0]);
}

TEST(Vacd, FeedLargerThanTheWriteBufferReachesALateReader) {
  ScratchPath sock("vacd_large_feed.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.tcp_host = "127.0.0.1";
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  // About 8.4 MB of feed, twice the write-buffer limit, in one reply.
  constexpr size_t kVaccines = 400;
  std::vector<vaccine::Vaccine> batch;
  for (size_t i = 0; i < kVaccines; ++i) {
    batch.push_back(MakeVaccine(os::ResourceType::kMutex,
                                "feed-" + std::to_string(i)));
    batch.back().malware_name.append(21000, 'x');
  }
  // Generous deadlines: sanitizer builds move megabytes slowly.
  constexpr uint64_t kDeadlineMs = 60000;
  const Result<PushReply> pushed =
      VacdClient(sock.path(), kDeadlineMs).Push(batch);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  ASSERT_EQ(pushed->added, kVaccines);

  const std::string pull = RequestToJson(Request(PullRequest{0, 0}));
  for (const bool tcp : {false, true}) {
    SCOPED_TRACE(tcp ? "tcp" : "unix");
    const int fd =
        tcp ? ConnectTcp(server.tcp_port()) : ConnectTo(sock.path());
    const timeval deadline = {kDeadlineMs / 1000, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof deadline);
    ASSERT_TRUE(WriteNetFrame(fd, pull).ok());
    // The client reads nothing until the server has written all that
    // the socket takes.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const Result<std::string> raw = ReadNetFrame(fd);
    close(fd);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_GT(raw->size(), 2 * options.write_buffer_limit);
    const Result<Reply> reply = ParseReply(*raw);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    const auto* feed = std::get_if<PullReply>(&*reply);
    ASSERT_NE(feed, nullptr);
    EXPECT_EQ(feed->items.size(), kVaccines);
  }
  EXPECT_EQ(server.Stats().evicted, 0u);
}

TEST(TcpServing, IdleSweepRunsUnderTraffic) {
  ScratchPath sock("vacd_chatter.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.tcp_host = "127.0.0.1";
  options.idle_timeout_ms = 200;
  VacdServer server(vacstore::VaccineStore(), options);
  ASSERT_TRUE(server.Start().ok());

  const int idle = ConnectTcp(server.tcp_port());
  ASSERT_TRUE(
      WriteNetFrame(idle, RequestToJson(Request(StatusRequest{}))).ok());
  ASSERT_TRUE(ReadNetFrame(idle).ok());

  // A second client keeps the loop busy with a request every 100 ms —
  // more often than the loop ticks — for 2.5 s.
  const VacdClient chatty("tcp:127.0.0.1:" +
                          std::to_string(server.tcp_port()));
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(chatty.Stats().ok()) << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // The quiet connection was swept while the traffic went on: its EOF
  // is already there, without waiting for the loop to go idle.
  char byte = 0;
  EXPECT_EQ(recv(idle, &byte, 1, MSG_DONTWAIT), 0)
      << "the idle connection is still open";
  close(idle);
}

TEST(Vacd, StopAnswersEveryRequestReceivedBeforeIt) {
  ScratchPath store_file("vacd_drain_store.jsonl");
  ScratchPath sock("vacd_drain.sock");
  auto store = vacstore::VaccineStore::Open(store_file.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  VacdOptions options;
  options.socket_path = sock.path();
  options.tcp_host = "127.0.0.1";
  options.threads = 1;  // pushes queue behind one another
  VacdServer server(std::move(*store), options);
  ASSERT_TRUE(server.Start().ok());

  // Eight Unix then eight TCP clients each send one durable push of
  // fifty vaccines and wait; Stop() arrives while most are queued.
  constexpr int kClients = 16;
  constexpr int kBatch = 50;
  std::vector<int> clients;
  for (int c = 0; c < kClients; ++c) {
    PushRequest push;
    for (int v = 0; v < kBatch; ++v) {
      push.vaccines.push_back(MakeVaccine(
          os::ResourceType::kMutex,
          "drain-" + std::to_string(c) + "-" + std::to_string(v)));
    }
    clients.push_back(c < kClients / 2 ? ConnectTo(sock.path())
                                       : ConnectTcp(server.tcp_port()));
    ASSERT_TRUE(
        WriteNetFrame(clients.back(), RequestToJson(Request(push))).ok());
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.Stats().requests < static_cast<uint64_t>(kClients) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();

  for (int c = 0; c < kClients; ++c) {
    const Result<std::string> raw = ReadNetFrame(clients[c]);
    ASSERT_TRUE(raw.ok()) << "client " << c << ": "
                          << raw.status().ToString();
    const Result<Reply> reply = ParseReply(*raw);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    const auto* pushed = std::get_if<PushReply>(&*reply);
    ASSERT_NE(pushed, nullptr) << *raw;
    EXPECT_EQ(pushed->added, static_cast<uint64_t>(kBatch));
    close(clients[c]);
  }
  EXPECT_EQ(server.store().entries().size(),
            static_cast<size_t>(kClients * kBatch));
}

// ---------------------------------------------------------------------
// Restart byte-identity: the feed is deterministic storage
// ---------------------------------------------------------------------

TEST(Vacd, StatusReportsRecoveryAndDedupTelemetry) {
  ScratchPath store_file("vacd_opsstatus_store.jsonl");
  ScratchPath sock("vacd_opsstatus.sock");
  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 1;

  {
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    VacdServer server(std::move(*store), options);
    ASSERT_TRUE(server.Start().ok());
    VacdClient client(sock.path());

    // Epoch 1 is checkpointed; epoch 2 lives only in the journal.
    ASSERT_TRUE(
        client.Push({MakeVaccine(os::ResourceType::kMutex, "ops-a")}).ok());
    ASSERT_TRUE(server.CheckpointNow().ok());
    ASSERT_TRUE(
        client.Push({MakeVaccine(os::ResourceType::kMutex, "ops-b")}).ok());

    // A retried idempotent push: the second send is a dedup-window hit.
    PushRequest retried;
    retried.request_id = "ops-retry-1";
    retried.vaccines = {MakeVaccine(os::ResourceType::kFile, "c:\\ops-c")};
    ASSERT_TRUE(client.RoundTripRaw(RequestToJson(Request{retried})).ok());
    ASSERT_TRUE(client.RoundTripRaw(RequestToJson(Request{retried})).ok());

    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->epoch, 3u);
    EXPECT_EQ(stats->checkpoint_epoch, 1u);
    EXPECT_EQ(stats->replayed, 0u);  // this incarnation loaded nothing
    EXPECT_EQ(stats->dedup_hits, 1u);
    server.Stop();
  }

  // The restarted daemon reports how it recovered: the checkpoint it
  // loaded and how many journal records it replayed past it — exactly
  // the two numbers an operator needs to judge recovery health.
  {
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    VacdServer server(std::move(*store), options);
    ASSERT_TRUE(server.Start().ok());
    auto stats = VacdClient(sock.path()).Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->epoch, 3u);
    EXPECT_EQ(stats->checkpoint_epoch, 1u);
    EXPECT_GT(stats->replayed, 0u);
    EXPECT_EQ(stats->dedup_hits, 0u);  // the window died with the process
    server.Stop();
  }
}

TEST(Vacd, PullReplyIsByteIdenticalAcrossRestart) {
  ScratchPath store_file("vacd_restart_store.jsonl");
  ScratchPath sock("vacd_restart.sock");
  const std::string pull_json = RequestToJson(Request{PullRequest{}});

  VacdOptions options;
  options.socket_path = sock.path();
  options.threads = 2;

  std::string first_bytes;
  {
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    VacdServer server(std::move(*store), options);
    ASSERT_TRUE(server.Start().ok());
    VacdClient client(sock.path());
    auto first = client.Push(
        {MakeVaccine(os::ResourceType::kMutex, "evil-restart-m"),
         MakeVaccine(os::ResourceType::kFile, "c:\\evil\\restart.bin")});
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_EQ(first->epoch, 1u);
    auto second = client.Push(
        {MakeVaccine(os::ResourceType::kRegistry, "hklm\\run\\evil", false)});
    ASSERT_TRUE(second.ok());
    ASSERT_EQ(second->epoch, 2u);
    auto raw = client.RoundTripRaw(pull_json);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    first_bytes = *raw;
    server.Stop();
  }

  {
    auto store = vacstore::VaccineStore::Open(store_file.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_FALSE(store->repaired_torn_tail());
    EXPECT_EQ(store->epoch(), 2u);
    VacdServer server(std::move(*store), options);
    ASSERT_TRUE(server.Start().ok());
    auto raw = VacdClient(sock.path()).RoundTripRaw(pull_json);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_EQ(*raw, first_bytes);
    server.Stop();
  }

  EXPECT_NE(first_bytes.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(first_bytes.find("\"epoch\":2"), std::string::npos);
}

}  // namespace
}  // namespace autovac::net
