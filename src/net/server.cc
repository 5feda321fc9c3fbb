#include "net/server.h"

#include <utility>

#include "net/binary.h"
#include "support/strings.h"
#include "support/tracing.h"

namespace autovac::net {
namespace {

// Work that would stall every other connection runs on the pool: a
// mutation takes the exclusive lock and does store IO, and a full pull
// serializes the whole feed. Queries, status and delta pulls (what a
// synced host polls with) are answered inline.
bool RunsOnPool(const Request& request) {
  if (const auto* pull = std::get_if<PullRequest>(&request)) {
    return pull->since == 0;
  }
  return std::holds_alternative<PushRequest>(request) ||
         std::holds_alternative<QuarantineRequest>(request);
}

// An ErrorReply in the encoding of the request it answers: binary for a
// binary request, JSON otherwise — and for garbage that parses as
// neither, or no request at all, since JSON is the one a human (or the
// seed-era tooling) can read. Binary clients sniff the reply encoding,
// so they handle that fine too.
std::string ErrorPayload(std::string_view request, bool busy,
                         std::string message) {
  const Reply reply = ErrorReply{busy, std::move(message)};
  return IsBinaryPayload(request) ? EncodeBinaryReply(reply)
                                  : ReplyToJson(reply);
}

}  // namespace

VacdServer::VacdServer(vacstore::VaccineStore store, VacdOptions options)
    : store_(std::move(store)),
      options_(std::move(options)),
      server_(
          "vacd", options_, options_.threads,
          [this](std::string payload) { return Handle(std::move(payload)); },
          ErrorPayload) {
  MetricsRegistry& metrics = GlobalMetrics();
  quarantine_metric_ = metrics.GetCounter("vacd.quarantines");
  failed_metric_ = metrics.GetCounter("vacd.requests_failed");
  push_added_metric_ = metrics.GetCounter("vacd.push.added");
  push_duplicate_metric_ = metrics.GetCounter("vacd.push.duplicates");
  push_quarantined_metric_ = metrics.GetCounter("vacd.push.quarantined");
  push_deduped_metric_ = metrics.GetCounter("vacd.push.deduped");
  query_match_metric_ = metrics.GetCounter("vacd.query.matches");
  checkpoint_metric_ = metrics.GetCounter("vacd.checkpoints");
}

VacdServer::~VacdServer() { Stop(); }

Status VacdServer::Start() {
  if (running_) return Status::FailedPrecondition("server already running");
  {
    // Single-threaded here, so the span is safe by construction.
    ScopedSpan span(GlobalTracer(), "vacd.load");
    RebuildIndex();
  }
  std::vector<Endpoint> endpoints(1);
  endpoints[0].path = options_.socket_path;
  if (!options_.tcp_host.empty()) {
    Endpoint& tcp = endpoints.emplace_back();
    tcp.tcp = true;
    tcp.host = options_.tcp_host;
    tcp.port = options_.tcp_port;
  }
  AUTOVAC_RETURN_IF_ERROR(server_.Start(endpoints));
  running_ = true;
  return Status::Ok();
}

void VacdServer::Stop() {
  if (!running_) return;
  server_.Stop();
  // Every received push has been answered; make its bytes durable, and
  // leave a fresh checkpoint behind when auto-checkpointing is on so the
  // next start replays nothing.
  (void)store_.Flush();
  if (options_.checkpoint_every > 0 && store_.Checkpoint().ok()) {
    checkpoint_metric_->Increment();
  }
  running_ = false;
}

FrameServer::Answer VacdServer::Handle(std::string payload) {
  const bool binary = IsBinaryPayload(payload);
  Result<Request> request =
      binary ? ParseBinaryRequest(payload) : ParseRequest(payload);
  if (!request.ok()) {
    failed_metric_->Increment();
    return {ErrorPayload({}, false, request.status().ToString()), nullptr};
  }
  if (RunsOnPool(*request)) {
    return {{}, [this, binary, request = std::move(*request)] {
              return Serve(request, binary);
            }};
  }
  return {Serve(*request, binary), nullptr};
}

std::string VacdServer::Serve(const Request& request, bool binary) {
  const Reply reply = Dispatch(request);
  if (const auto* error = std::get_if<ErrorReply>(&reply);
      error != nullptr && !error->busy) {
    failed_metric_->Increment();
  }
  return binary ? EncodeBinaryReply(reply) : ReplyToJson(reply);
}

Reply VacdServer::Dispatch(const Request& request) {
  if (const auto* push = std::get_if<PushRequest>(&request)) {
    std::unique_lock lock(mutex_);
    const bool dedup =
        !push->request_id.empty() && options_.push_dedup_window > 0;
    if (dedup) {
      // A retried push whose first application succeeded but whose reply
      // was lost: answer with the recorded reply, apply nothing twice.
      const auto hit = dedup_replies_.find(push->request_id);
      if (hit != dedup_replies_.end()) {
        push_deduped_metric_->Increment();
        dedup_hits_.fetch_add(1, std::memory_order_relaxed);
        return hit->second;
      }
    }
    Result<vacstore::PushStats> stats = [&] {
      ScopedSpan span(GlobalTracer(), "vacd.push");
      return store_.Push(push->vaccines);
    }();
    if (!stats.ok()) {
      return ErrorReply{false, stats.status().ToString()};
    }
    if (stats->added > 0) {
      ScopedSpan span(GlobalTracer(), "vacd.index_rebuild");
      RebuildIndex();
    }
    push_added_metric_->Increment(stats->added);
    push_duplicate_metric_->Increment(stats->duplicates);
    push_quarantined_metric_->Increment(stats->quarantined);
    const PushReply reply{stats->added, stats->duplicates,
                          stats->quarantined, stats->epoch};
    if (dedup) {
      // Record only after the push is durable, so a dedup hit never
      // vouches for a batch the store does not hold.
      dedup_order_.push_back(push->request_id);
      dedup_replies_[push->request_id] = reply;
      while (dedup_order_.size() > options_.push_dedup_window) {
        dedup_replies_.erase(dedup_order_.front());
        dedup_order_.pop_front();
      }
    }
    if (options_.checkpoint_every > 0) {
      added_since_checkpoint_ += stats->added;
      if (added_since_checkpoint_ >= options_.checkpoint_every) {
        // Failure is non-fatal: the journal already holds every byte,
        // recovery just replays more than it would have.
        if (store_.Checkpoint().ok()) checkpoint_metric_->Increment();
        added_since_checkpoint_ = 0;
      }
    }
    return reply;
  }
  if (const auto* quarantine = std::get_if<QuarantineRequest>(&request)) {
    std::unique_lock lock(mutex_);
    const vacstore::StoreEntry* entry = store_.FindDigest(quarantine->digest);
    if (entry == nullptr) {
      return ErrorReply{
          false, StrFormat("no vaccine with digest %s",
                           quarantine->digest.c_str())};
    }
    const bool already = entry->quarantined;
    if (!already) {
      const Status pulled =
          store_.Quarantine(quarantine->digest, quarantine->reason);
      if (!pulled.ok()) {
        return ErrorReply{false, pulled.ToString()};
      }
      ScopedSpan span(GlobalTracer(), "vacd.index_rebuild");
      RebuildIndex();
      quarantine_metric_->Increment();
    }
    return QuarantineReply{store_.epoch(), already};
  }
  if (const auto* query = std::get_if<QueryRequest>(&request)) {
    std::shared_lock lock(mutex_);
    const auto type = static_cast<size_t>(query->resource_type);
    QueryReply reply;
    for (const size_t id : index_[type].Match(query->identifier)) {
      reply.matches.push_back(
          store_.entries()[entry_of_id_[type][id]].vaccine);
    }
    query_match_metric_->Increment(reply.matches.size());
    return reply;
  }
  if (const auto* pull = std::get_if<PullRequest>(&request)) {
    std::shared_lock lock(mutex_);
    PullReply reply;
    reply.epoch = store_.epoch();
    for (const vacstore::StoreEntry* entry : store_.Since(pull->since)) {
      // A page never splits a feed epoch: once the limit is reached the
      // page still extends through the current (change-)epoch, so "epoch
      // of the last item received" is always an exact resume cursor.
      if (pull->limit > 0 && reply.items.size() >= pull->limit &&
          entry->change_epoch != reply.items.back().epoch) {
        reply.more = true;
        break;
      }
      reply.items.push_back({entry->digest, entry->change_epoch,
                             entry->vaccine, entry->quarantined});
    }
    return reply;
  }
  std::shared_lock lock(mutex_);
  return Stats(lock);
}

StatusReply VacdServer::Stats() const {
  std::shared_lock lock(mutex_);
  return Stats(lock);
}

StatusReply VacdServer::Stats(
    const std::shared_lock<std::shared_mutex>&) const {
  StatusReply reply;
  reply.epoch = store_.epoch();
  reply.served = store_.served_count();
  reply.quarantined = store_.quarantined_count();
  reply.requests = server_.requests();
  reply.shed = server_.shed();
  reply.evicted = server_.evicted();
  reply.checkpoint_epoch = store_.checkpoint_epoch();
  reply.replayed = store_.replayed_records();
  reply.dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
  return reply;
}

Status VacdServer::CheckpointNow() {
  std::unique_lock lock(mutex_);
  AUTOVAC_RETURN_IF_ERROR(store_.Checkpoint());
  checkpoint_metric_->Increment();
  added_since_checkpoint_ = 0;
  return Status::Ok();
}

void VacdServer::RebuildIndex() {
  for (size_t type = 0; type < os::kNumResourceTypes; ++type) {
    index_[type] = PatternIndex();
    entry_of_id_[type].clear();
  }
  const std::vector<vacstore::StoreEntry>& entries = store_.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const vacstore::StoreEntry& entry = entries[i];
    if (entry.quarantined) continue;
    const auto type = static_cast<size_t>(entry.vaccine.resource_type);
    if (type >= os::kNumResourceTypes) continue;
    Pattern pattern =
        entry.vaccine.identifier_kind ==
                analysis::IdentifierClass::kPartialStatic
            ? entry.vaccine.pattern
            : Pattern::Literal(entry.vaccine.identifier);
    (void)index_[type].Add(std::move(pattern));
    entry_of_id_[type].push_back(i);
  }
  for (size_t type = 0; type < os::kNumResourceTypes; ++type) {
    index_[type].Build();
  }
}

}  // namespace autovac::net
