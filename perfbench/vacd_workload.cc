// vacd: a VacdServer child over a durable store preloaded with seeded
// vaccines, driven as an open loop at a fixed rate for a short window.
// Every reply is checked against the generator's own model of the store.
// Every traced run probes it this way; it is not a timed workload (see
// README.md, "Dropped from the timed set").
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>

#include "net/binary.h"
#include "net/client.h"
#include "net/endpoint.h"
#include "net/faultwire.h"
#include "net/protocol.h"
#include "net/server.h"
#include "support/match_index.h"
#include "support/rng.h"
#include "support/strings.h"
#include "vaccine/json.h"
#include "vacstore/store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace autovac;

constexpr size_t kStoreVaccines = 5000;
constexpr size_t kWildcardEvery = 5;  // 1 in 5 preloaded vaccines
// About 1/15 of the TCP tier's measured query capacity (15.0k/s), so
// latency stays close to service time. At 2,000/s, read latency doubled
// whenever the shared host was busy, because at most nproc requests are in
// flight and a stall backs the schedule up behind them.
constexpr double kRatePerS = 1000;
constexpr size_t kQueriesPerKind = 256;
constexpr double kWindowSeconds = 1.5;  // length of the open-loop window
constexpr size_t kProbeRepeats = 200;

constexpr os::ResourceType kTypes[] = {
    os::ResourceType::kMutex, os::ResourceType::kFile,
    os::ResourceType::kRegistry, os::ResourceType::kService};

size_t StoreSize(const Options& options) {
  return options.small ? 500 : kStoreVaccines;
}

double Rate(const Options& options) {
  return options.small ? 400 : kRatePerS;
}

vaccine::Vaccine MakeVaccine(uint64_t seed, const std::string& name,
                             size_t i, bool wildcard) {
  vaccine::Vaccine v;
  v.malware_name = StrFormat("family-%zu", i % 97);
  v.malware_digest = StrFormat(
      "s%llu-%s", static_cast<unsigned long long>(seed), name.c_str());
  v.resource_type = kTypes[i % std::size(kTypes)];
  v.simulate_presence = true;
  v.immunization = analysis::ImmunizationType::kFull;
  if (wildcard) {
    v.identifier = StrFormat("s%llu-%s-*",
                             static_cast<unsigned long long>(seed),
                             name.c_str());
    v.identifier_kind = analysis::IdentifierClass::kPartialStatic;
    v.delivery = vaccine::DeliveryMethod::kDaemon;
    auto pattern = Pattern::Compile(v.identifier);
    AUTOVAC_CHECK(pattern.ok());
    v.pattern = std::move(pattern).value();
  } else {
    v.identifier = StrFormat("s%llu-%s", static_cast<unsigned long long>(seed),
                             name.c_str());
    v.identifier_kind = analysis::IdentifierClass::kStatic;
    v.delivery = vaccine::DeliveryMethod::kDirectInjection;
  }
  return v;
}

// The pattern vacd serves a vaccine under (the server's RebuildIndex rule).
Pattern ServedPattern(const vaccine::Vaccine& v) {
  return v.identifier_kind == analysis::IdentifierClass::kPartialStatic
             ? v.pattern
             : Pattern::Literal(v.identifier);
}

struct Query {
  os::ResourceType type = os::ResourceType::kFile;
  std::string identifier;
  std::vector<std::string> expected;  // digests, feed order
};

enum Kind : uint8_t { kQueryLiteral, kQueryPattern, kQueryMiss, kPull, kPush };

struct Planned {
  Kind kind = kQueryLiteral;
  bool tcp = false;
  uint32_t query = 0;     // index into the kind's query pool
  uint32_t back = 0;      // pull: epochs behind the newest known epoch
  uint32_t push = 0;      // push: index into pushes
};

struct VacdInputs {
  std::vector<vaccine::Vaccine> preload;
  std::vector<std::string> preload_digests;
  std::vector<Query> pools[3];  // literal hits, pattern hits, misses
  std::vector<vaccine::Vaccine> pushes;
  std::vector<std::string> push_digests;
  std::vector<Planned> plan;
};

VacdInputs MakeVacdInputs(const Options& options) {
  VacdInputs in;
  const uint64_t seed = options.seed;
  const size_t total = StoreSize(options);
  for (size_t i = 0; i < total; ++i) {
    const bool wildcard = i % kWildcardEvery == 0;
    in.preload.push_back(MakeVaccine(
        seed, StrFormat(wildcard ? "grp%zu" : "obj%zu", i), i, wildcard));
    in.preload_digests.push_back(vaccine::VaccineDigest(in.preload.back()));
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  auto expected_for = [&](os::ResourceType type, const std::string& text) {
    std::vector<std::string> digests;
    for (size_t i = 0; i < in.preload.size(); ++i) {
      if (in.preload[i].resource_type == type &&
          ServedPattern(in.preload[i]).Matches(text)) {
        digests.push_back(in.preload_digests[i]);
      }
    }
    return digests;
  };
  for (size_t q = 0; q < kQueriesPerKind; ++q) {
    size_t i = rng.NextBelow(total);
    if (i % kWildcardEvery == 0) i = (i + 1) % total;
    Query literal{in.preload[i].resource_type, in.preload[i].identifier, {}};
    size_t w = rng.NextBelow(total / kWildcardEvery) * kWildcardEvery;
    Query pattern{in.preload[w].resource_type,
                  StrFormat("s%llu-grp%zu-%llu",
                            static_cast<unsigned long long>(seed), w,
                            static_cast<unsigned long long>(
                                rng.NextU64() % 100000)),
                  {}};
    Query miss{kTypes[rng.NextBelow(std::size(kTypes))],
               StrFormat("s%llu-none%zu", static_cast<unsigned long long>(seed),
                         q),
               {}};
    for (Query* query : {&literal, &pattern, &miss}) {
      query->expected = expected_for(query->type, query->identifier);
    }
    in.pools[0].push_back(std::move(literal));
    in.pools[1].push_back(std::move(pattern));
    in.pools[2].push_back(std::move(miss));
  }
  if (options.inject == "vacd") {
    // Self-check: a model that disagrees with every literal-hit reply.
    for (Query& query : in.pools[0]) query.expected.push_back("bogus-digest");
  }
  const size_t requests =
      static_cast<size_t>(Rate(options) * kWindowSeconds);
  size_t query_turn = 0;
  for (size_t i = 0; i < requests; ++i) {
    Planned planned;
    planned.tcp = i % 2 == 1;
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 75) {
      planned.kind = static_cast<Kind>(query_turn++ % 3);
      planned.query = static_cast<uint32_t>(rng.NextBelow(kQueriesPerKind));
    } else if (roll < 99) {
      planned.kind = kPull;
      planned.back = static_cast<uint32_t>(rng.NextBelow(4));
    } else {
      planned.kind = kPush;
      planned.push = static_cast<uint32_t>(in.pushes.size());
      in.pushes.push_back(MakeVaccine(seed, StrFormat("push%zu", i), i, false));
      in.push_digests.push_back(vaccine::VaccineDigest(in.pushes.back()));
    }
    in.plan.push_back(planned);
  }
  return in;
}

// Writes the durable store the server opens (input generation, untimed).
bool BuildStore(const std::string& path, const VacdInputs& in,
                uint64_t* epoch) {
  for (const char* suffix : {"", ".ckpt", ".ckpt.tmp", ".rotate", ".compact"}) {
    std::remove((path + suffix).c_str());
  }
  auto store = vacstore::VaccineStore::Open(path);
  if (!store.ok()) return false;
  auto pushed = store->Push(in.preload);
  if (!pushed.ok() || pushed->added != in.preload.size()) return false;
  *epoch = store->epoch();
  return true;
}

struct Server {
  pid_t pid = -1;
  int stop_fd = -1;
  std::string socket;
  std::string tcp;
};

// Forks the server child; returns once its first reply arrived.
std::optional<Server> StartServer(const std::string& store_path,
                                  const std::string& socket) {
  int ready[2];
  int stop[2];
  if (::pipe(ready) != 0) return std::nullopt;
  if (::pipe(stop) != 0) return std::nullopt;
  Server server;
  server.socket = socket;
  server.pid = ForkProcess([&] {
    ::close(ready[0]);
    ::close(stop[1]);
    auto store = vacstore::VaccineStore::Open(store_path);
    if (!store.ok()) return 2;
    // No fsync per push: a push holds the exclusive lock across it, and
    // fsync on the shared disk here takes 0.5 ms at p50 but 4.4 ms at p90
    // and 10 ms at p99, so read p99 would measure the disk. The fsync'd
    // push is measured per layer (store.push_ms).
    store->set_sync(false);
    net::VacdOptions options;
    options.socket_path = socket;
    options.tcp_host = "127.0.0.1";
    options.tcp_port = 0;
    net::VacdServer vacd(std::move(store).value(), options);
    if (!vacd.Start().ok()) return 3;
    const uint16_t port = vacd.tcp_port();
    if (::write(ready[1], &port, sizeof(port)) != sizeof(port)) return 4;
    char byte;
    while (::read(stop[0], &byte, 1) < 0 && errno == EINTR) {
    }
    vacd.Stop();
    return 0;
  });
  ::close(ready[1]);
  ::close(stop[0]);
  server.stop_fd = stop[1];
  uint16_t port = 0;
  const bool got_port =
      server.pid > 0 && ::read(ready[0], &port, sizeof(port)) == sizeof(port);
  ::close(ready[0]);
  if (!got_port) {
    ::close(server.stop_fd);
    if (server.pid > 0) (void)Reap(server.pid);
    return std::nullopt;
  }
  server.tcp = StrFormat("tcp:127.0.0.1:%u", static_cast<unsigned>(port));
  const net::VacdClient client(socket);
  if (!client.Stats().ok()) {
    ::close(server.stop_fd);
    (void)Reap(server.pid);
    return std::nullopt;
  }
  return server;
}

bool StopServer(Server& server) {
  ::close(server.stop_fd);
  return Reap(server.pid);
}

struct Done {
  double sched_ms = 0;
  double sent_ms = 0;
  double done_ms = 0;
  bool ok = false;
  bool checked = true;   // reply matched the model (queries, pushes)
  uint64_t epoch = 0;    // push: epoch it landed in; pull: reply epoch
  uint64_t since = 0;    // pull cursor
  std::vector<std::pair<std::string, uint64_t>> items;  // pull items
};

struct Window {
  std::vector<Done> done;
  double start_ms = 0;
  net::StatusReply stats;
  std::vector<std::string> final_digests;
  bool final_ok = false;
};

// Drives the plan as an open loop: request i is due at start + i/rate;
// at most nproc requests are in flight (one per generator thread).
Window DriveOpenLoop(const Options& options, const VacdInputs& in,
                     const Server& server, uint64_t preload_epoch) {
  Window window;
  window.done.resize(in.plan.size());
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> newest{preload_epoch};
  const double interval_ms = 1e3 / Rate(options);
  window.start_ms = NowMs() + 5;
  auto generator = [&] {
    net::VacdClient unix_client(server.socket);
    net::VacdClient tcp_client(server.tcp);
    tcp_client.set_binary(true);
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= in.plan.size()) return;
      const Planned& planned = in.plan[i];
      Done& done = window.done[i];
      done.sched_ms = window.start_ms + static_cast<double>(i) * interval_ms;
      const double wait = done.sched_ms - NowMs();
      if (wait > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(wait));
      }
      const net::VacdClient& client = planned.tcp ? tcp_client : unix_client;
      const char* tier = planned.tcp ? "tcp" : "unix";
      done.sent_ms = NowMs();
      if (planned.kind == kPush) {
        ScopedSpan span(StrFormat("vacd.push.%s", tier), i);
        auto reply = client.Push({in.pushes[planned.push]});
        done.done_ms = NowMs();
        span.Close();
        done.ok = reply.ok();
        if (done.ok) {
          done.epoch = reply->epoch;
          done.checked = reply->added == 1;
          uint64_t seen = newest.load();
          while (seen < reply->epoch &&
                 !newest.compare_exchange_weak(seen, reply->epoch)) {
          }
        }
      } else if (planned.kind == kPull) {
        const uint64_t top = newest.load();
        done.since = std::max(preload_epoch,
                              top > planned.back ? top - planned.back : 0);
        ScopedSpan span(StrFormat("vacd.pull.%s", tier), i);
        auto reply = client.Pull(done.since);
        done.done_ms = NowMs();
        span.Close();
        done.ok = reply.ok();
        if (done.ok) {
          done.epoch = reply->epoch;
          for (const net::FeedItem& item : reply->items) {
            done.items.emplace_back(item.digest, item.epoch);
          }
        }
      } else {
        const Query& query = in.pools[planned.kind][planned.query];
        ScopedSpan span(StrFormat("vacd.query.%s", tier), i);
        auto reply = client.Query(query.type, query.identifier);
        done.done_ms = NowMs();
        span.Close();
        done.ok = reply.ok();
        if (done.ok) {
          std::vector<std::string> digests;
          for (const vaccine::Vaccine& v : reply->matches) {
            digests.push_back(vaccine::VaccineDigest(v));
          }
          done.checked = digests == query.expected;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < std::max<size_t>(options.nproc, 1); ++t) {
    threads.emplace_back(generator);
  }
  for (std::thread& thread : threads) thread.join();
  const net::VacdClient control(server.socket);
  if (auto stats = control.Stats(); stats.ok()) window.stats = *stats;
  if (auto full = control.Pull(0); full.ok()) {
    window.final_ok = true;
    for (const net::FeedItem& item : full->items) {
      window.final_digests.push_back(item.digest);
    }
  }
  return window;
}

struct WindowStats {
  std::vector<double> reads, reads_unix, reads_tcp, pushes, late;
};

// Checks every reply against the model and collects latencies; a failed
// or wrong read counts as infinitely slow.
WindowStats CheckWindow(const VacdInputs& in, const Window& window,
                        Outcome& outcome) {
  WindowStats stats;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Push epochs, as the server assigned them.
  std::vector<std::pair<uint64_t, std::string>> landed;
  uint64_t wrong = 0;
  for (size_t i = 0; i < in.plan.size(); ++i) {
    const Done& done = window.done[i];
    if (done.ok && in.plan[i].kind == kPush) {
      landed.emplace_back(done.epoch, in.push_digests[in.plan[i].push]);
    }
  }
  std::sort(landed.begin(), landed.end());
  for (size_t i = 0; i < in.plan.size(); ++i) {
    const Planned& planned = in.plan[i];
    const Done& done = window.done[i];
    bool good = done.ok && done.checked;
    if (good && planned.kind == kPull) {
      // Exactly the pushes that landed in (since, reply epoch].
      std::vector<std::pair<std::string, uint64_t>> want;
      for (const auto& [epoch, digest] : landed) {
        if (epoch > done.since && epoch <= done.epoch) {
          want.emplace_back(digest, epoch);
        }
      }
      good = want == done.items;
    }
    if (!good) ++wrong;
    const double latency = good ? done.done_ms - done.sched_ms : kInf;
    stats.late.push_back(done.sent_ms - done.sched_ms);
    if (planned.kind == kPush) {
      stats.pushes.push_back(latency);
    } else {
      stats.reads.push_back(latency);
      (planned.tcp ? stats.reads_tcp : stats.reads_unix).push_back(latency);
    }
  }
  if (wrong > 0) {
    outcome.Fail(wrong, StrFormat("vacd: %llu replies failed or disagreed "
                                  "with the model",
                                  static_cast<unsigned long long>(wrong)));
  }
  // The final full pull is the preload plus every push, in epoch order.
  std::vector<std::string> want = in.preload_digests;
  for (const auto& entry : landed) want.push_back(entry.second);
  if (!window.final_ok || window.final_digests != want) {
    outcome.Fail(1, "vacd: final full pull is not the preload plus the "
                    "pushes");
  }
  outcome.attempted += in.plan.size() + 1;
  return stats;
}

double Us(const std::function<void()>& body) {
  std::vector<double> samples;
  for (size_t i = 0; i < kProbeRepeats; ++i) {
    const auto start = Clock::now();
    body();
    samples.push_back(MsSince(start) * 1e3);
  }
  return Median(samples);
}

// Layer probes: dial, codecs, match index, store. Timed from outside
// on the same inputs the open loop serves.
void ProbeLayers(const Options& options, const VacdInputs& in,
                 const Server& server, const std::string& store_path,
                 Outcome& outcome) {
  auto unix_endpoint = net::ParseEndpoint(server.socket);
  auto tcp_endpoint = net::ParseEndpoint(server.tcp);
  if (unix_endpoint.ok() && tcp_endpoint.ok()) {
    for (const auto& [name, endpoint] :
         {std::pair{"net.dial_unix_us", unix_endpoint.value()},
          std::pair{"net.dial_tcp_us", tcp_endpoint.value()}}) {
      const double us = Us([&] {
        ScopedSpan span("net.DialEndpoint", 0);
        auto fd = net::DialEndpoint(endpoint, 5000);
        if (fd.ok()) net::WireClose(fd.value());
      });
      outcome.Set(name, us, "us");
    }
  }
  // A pattern-hit query and its reply, through both encodings.
  const Query& query = in.pools[1].front();
  const net::Request request = net::QueryRequest{query.type, query.identifier};
  net::QueryReply query_reply;
  for (size_t i = 0; i < in.preload.size(); ++i) {
    if (std::find(query.expected.begin(), query.expected.end(),
                  in.preload_digests[i]) != query.expected.end()) {
      query_reply.matches.push_back(in.preload[i]);
    }
  }
  const net::Reply reply = query_reply;
  outcome.Set("net.codec_json_us", Us([&] {
                ScopedSpan span("net.codec.json", 0);
                (void)net::ParseRequest(net::RequestToJson(request));
                (void)net::ParseReply(net::ReplyToJson(reply));
              }),
              "us");
  outcome.Set("net.codec_binary_us", Us([&] {
                ScopedSpan span("net.codec.binary", 0);
                bool ok = false;
                (void)net::ParseBinaryRequest(
                    net::EncodeBinaryRequest(request, &ok));
                (void)net::ParseBinaryReply(net::EncodeBinaryReply(reply));
              }),
              "us");
  // The match index over every served pattern: the rebuild each push
  // pays under the exclusive lock, then one Match per pooled query.
  std::vector<PatternIndex> indexes(os::kNumResourceTypes);
  {
    ScopedSpan span("index.Build", 0);
    for (const vaccine::Vaccine& v : in.preload) {
      (void)indexes[static_cast<size_t>(v.resource_type)].Add(ServedPattern(v));
    }
    for (PatternIndex& index : indexes) index.Build();
    outcome.Set("index.build_ms", span.Close(), "ms");
  }
  std::vector<double> match_us;
  for (const auto& pool : in.pools) {
    for (const Query& q : pool) {
      const auto start = Clock::now();
      (void)indexes[static_cast<size_t>(q.type)].Match(q.identifier);
      match_us.push_back(MsSince(start) * 1e3);
    }
  }
  outcome.Set("index.match_us", Median(match_us), "us");
  // The durable store: open a copy, push single vaccines, read deltas.
  const std::string copy = store_path + ".probe";
  std::error_code error;
  std::filesystem::copy_file(store_path, copy,
                             std::filesystem::copy_options::overwrite_existing,
                             error);
  double open_ms = 0;
  std::optional<vacstore::VaccineStore> store;
  {
    ScopedSpan span("store.Open", 0);
    auto opened = vacstore::VaccineStore::Open(copy);
    open_ms = span.Close();
    if (opened.ok()) store.emplace(std::move(opened).value());
  }
  outcome.Set("store.open_ms", open_ms, "ms");
  if (!store) {
    outcome.Fail(1, "vacd probe: cannot open the store copy");
    return;
  }
  const uint64_t base_epoch = store->epoch();
  std::vector<double> push_ms;
  for (size_t i = 0; i < 20; ++i) {
    const vaccine::Vaccine v =
        MakeVaccine(options.seed, StrFormat("probe%zu", i), i, false);
    ScopedSpan span("store.Push", i);
    (void)store->Push({v});
    push_ms.push_back(span.Close());
  }
  outcome.Set("store.push_ms", Median(push_ms), "ms");
  size_t back = 0;
  outcome.Set("store.since_us", Us([&] {
                ScopedSpan span("store.Since", 0);
                (void)store->Since(base_epoch + (back++ % 4));
              }),
              "us");
  store.reset();
  for (const char* suffix : {"", ".ckpt", ".rotate", ".compact"}) {
    std::remove((copy + suffix).c_str());
  }
}

}  // namespace

Outcome TraceVacd(const Options& options) {
  Outcome outcome;
  // Runs in a child: the generator threads must not exist when the other
  // traced workloads fork.
  const auto record = RunInChild([&] {
    Record r;
    Outcome inner;
    const VacdInputs in = MakeVacdInputs(options);
    const std::string store_path = options.workdir + "/vacd.store";
    uint64_t epoch = 0;
    if (!BuildStore(store_path, in, &epoch)) return r;
    // The server is forked before the generator threads start.
    auto server = StartServer(store_path, options.workdir + "/vacd.sock");
    if (!server) return r;
    const Window window = DriveOpenLoop(options, in, *server, epoch);
    ProbeLayers(options, in, *server, store_path, inner);
    if (!StopServer(*server)) return r;
    const WindowStats stats = CheckWindow(in, window, inner);
    for (const auto& [name, metric] : inner.metrics) r.Set(name, metric.value);
    r.Set("read.unix_p50_ms", Percentile(stats.reads_unix, 0.50));
    r.Set("read.tcp_p50_ms", Percentile(stats.reads_tcp, 0.50));
    r.Set("read.p99_ms", Percentile(stats.reads, 0.99));
    r.Set("push_p50_ms", Percentile(stats.pushes, 0.50));
    r.Set("push_p90_ms", Percentile(stats.pushes, 0.90));
    r.Set("loadgen.late_p99_ms", Percentile(stats.late, 0.99));
    r.Set("server.shed", static_cast<double>(window.stats.shed));
    r.Set("server.evicted", static_cast<double>(window.stats.evicted));
    r.Set("attempted", static_cast<double>(inner.attempted));
    r.Set("failed", static_cast<double>(inner.failed));
    SaveSpans(options, "vacd");
    r.Set("ok", 1);
    return r;
  });
  if (!record || record->Get("ok") != 1) {
    outcome.Fail(1, "vacd trace: run failed");
    return outcome;
  }
  if (record->Get("failed") > 0) {
    outcome.Fail(static_cast<uint64_t>(record->Get("failed")),
                 "vacd trace: replies failed or disagreed with the model");
  }
  outcome.attempted += static_cast<uint64_t>(record->Get("attempted"));
  const std::pair<const char*, const char*> metrics[] = {
      {"read.unix_p50_ms", "ms"},    {"read.tcp_p50_ms", "ms"},
      {"read.p99_ms", "ms"},
      {"push_p50_ms", "ms"},         {"push_p90_ms", "ms"},
      {"net.dial_unix_us", "us"},    {"net.dial_tcp_us", "us"},
      {"net.codec_json_us", "us"},   {"net.codec_binary_us", "us"},
      {"index.match_us", "us"},      {"index.build_ms", "ms"},
      {"store.push_ms", "ms"},       {"store.since_us", "us"},
      {"store.open_ms", "ms"},       {"server.shed", "count"},
      {"server.evicted", "count"},   {"loadgen.late_p99_ms", "ms"}};
  for (const auto& [name, unit] : metrics) {
    outcome.Set(name, record->Get(name), unit);
  }
  return outcome;
}

}  // namespace perfbench
