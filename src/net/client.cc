#include "net/client.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "net/binary.h"
#include "net/endpoint.h"
#include "net/faultwire.h"
#include "net/fleet_protocol.h"
#include "net/frame.h"
#include "support/digest.h"
#include "support/rng.h"
#include "support/strings.h"

namespace autovac::net {
namespace {

constexpr std::string_view kBusyPrefix = "server busy: ";

uint64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// The server answers in the request's encoding; sniffing the first byte
// keeps one retry loop for both.
Result<Reply> ParseAnyReply(std::string_view raw) {
  return IsBinaryPayload(raw) ? ParseBinaryReply(raw) : ParseReply(raw);
}

}  // namespace

Result<std::string> FrameRoundTrip(const std::string& endpoint_spec,
                                   uint64_t deadline_ms,
                                   std::string_view request_payload,
                                   const std::function<void()>& after_send) {
  AUTOVAC_ASSIGN_OR_RETURN(const Endpoint endpoint,
                           ParseEndpoint(endpoint_spec));
  AUTOVAC_ASSIGN_OR_RETURN(const int fd,
                           DialEndpoint(endpoint, deadline_ms));
  // A failed write is not yet fatal: an overloaded server answers BUSY
  // and closes without reading, so the reply may already be waiting in
  // our receive buffer while our send sees a broken pipe.
  const Status written = WriteNetFrame(fd, request_payload);
  if (after_send) after_send();
  Result<std::string> reply = ReadNetFrame(fd);
  WireClose(fd);
  if (!reply.ok() && !written.ok()) return written;
  if (!reply.ok() && reply.status().code() == StatusCode::kNotFound) {
    return Status::Internal("server closed connection without a reply");
  }
  return reply;
}

Result<std::string> VacdClient::RoundTripRaw(
    std::string_view request_payload) const {
  return FrameRoundTrip(endpoint_spec_, deadline_ms_, request_payload);
}

bool VacdClient::IsRetryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:          // no server (yet), refused
    case StatusCode::kDeadlineExceeded:  // one attempt's socket deadline
    case StatusCode::kInternal:          // torn reply / severed stream
      return true;
    default:
      return false;
  }
}

template <typename ReplyVariant>
Result<ReplyVariant> RoundTripWithRetry(
    const std::string& endpoint_spec, uint64_t deadline_ms,
    const RetryPolicy& retry, const std::string& payload,
    Result<ReplyVariant> (*parse)(std::string_view raw),
    const std::function<void()>& after_send) {
  // The jitter stream is deterministic per (seed, request): two runs of
  // the same campaign sleep the same schedule.
  Rng jitter(retry.seed ^ Fnv1a64(payload));
  const auto start = std::chrono::steady_clock::now();
  for (uint32_t attempt = 1;; ++attempt) {
    Status last = Status::Ok();
    Result<std::string> raw =
        FrameRoundTrip(endpoint_spec, deadline_ms, payload, after_send);
    if (raw.ok()) {
      Result<ReplyVariant> reply = parse(*raw);
      if (!reply.ok()) return reply;  // malformed reply: not transient
      const auto* error = std::get_if<ErrorReply>(&*reply);
      if (error == nullptr || !error->busy) return reply;
      if (attempt >= retry.max_attempts) return reply;  // busy, gave up
      last = ErrorReplyStatus(*error);
    } else {
      last = raw.status();
      if (!VacdClient::IsRetryable(last)) return last;
      if (attempt >= retry.max_attempts) return last;
    }

    const uint64_t elapsed = ElapsedMs(start);
    if (elapsed >= retry.max_total_ms) {
      return Status::DeadlineExceeded(StrFormat(
          "retry budget (%llu ms) exhausted after %u attempts; last: %s",
          static_cast<unsigned long long>(retry.max_total_ms), attempt,
          last.ToString().c_str()));
    }
    const uint32_t shift = std::min<uint32_t>(attempt - 1, 20);
    uint64_t backoff =
        std::min(retry.max_backoff_ms, retry.initial_backoff_ms << shift);
    if (backoff == 0) backoff = 1;
    // Decorrelated jitter in [backoff/2, backoff], then clamped to what
    // remains of the budget so the final sleep cannot overshoot it.
    uint64_t sleep_ms = backoff / 2 + jitter.NextBelow(backoff / 2 + 1);
    sleep_ms = std::min(sleep_ms, retry.max_total_ms - elapsed);
    if (sleep_ms > 0) {
      ::usleep(static_cast<useconds_t>(sleep_ms * 1000));
    }
  }
}

template Result<Reply> RoundTripWithRetry(
    const std::string&, uint64_t, const RetryPolicy&, const std::string&,
    Result<Reply> (*)(std::string_view), const std::function<void()>&);
template Result<FleetReply> RoundTripWithRetry(
    const std::string&, uint64_t, const RetryPolicy&, const std::string&,
    Result<FleetReply> (*)(std::string_view), const std::function<void()>&);

Result<Reply> VacdClient::RoundTrip(const Request& request) const {
  bool binary = false;
  std::string payload;
  // Mutations have no binary form and fall through to JSON.
  if (binary_) payload = EncodeBinaryRequest(request, &binary);
  if (!binary) payload = RequestToJson(request);
  return RoundTripWithRetry(endpoint_spec_, deadline_ms_, retry_, payload,
                            ParseAnyReply);
}

Result<PushReply> VacdClient::Push(
    const std::vector<vaccine::Vaccine>& vaccines) const {
  PushRequest push;
  push.vaccines = vaccines;
  if (retry_.max_attempts > 1) {
    // One id per *logical* push: every retry presents the same id, two
    // pushes of identical content present different ones (sequence).
    const uint64_t sequence =
        push_sequence_.fetch_add(1, std::memory_order_relaxed);
    push.request_id = HexDigest128(
        StrFormat("%llu|%llu|", static_cast<unsigned long long>(retry_.seed),
                  static_cast<unsigned long long>(sequence)) +
        RequestToJson(Request(push)));
  }
  return ReplyAs<PushReply>(RoundTrip(Request(std::move(push))), "push");
}

Result<QuarantineReply> VacdClient::Quarantine(
    std::string_view digest, std::string_view reason) const {
  QuarantineRequest request;
  request.digest = std::string(digest);
  request.reason = std::string(reason);
  return ReplyAs<QuarantineReply>(RoundTrip(Request(std::move(request))),
                                  "quarantine");
}

Result<QueryReply> VacdClient::Query(os::ResourceType resource_type,
                                     std::string_view identifier) const {
  QueryRequest request;
  request.resource_type = resource_type;
  request.identifier = std::string(identifier);
  return ReplyAs<QueryReply>(RoundTrip(Request(std::move(request))),
                             "query");
}

Result<PullReply> VacdClient::Pull(uint64_t since, uint64_t limit) const {
  PullRequest request;
  request.since = since;
  request.limit = limit;
  return ReplyAs<PullReply>(RoundTrip(Request(request)), "pull");
}

Result<PullReply> VacdClient::SyncAll(uint64_t since,
                                      uint64_t page_limit) const {
  PullReply merged;
  uint64_t cursor = since;
  while (true) {
    AUTOVAC_ASSIGN_OR_RETURN(PullReply page, Pull(cursor, page_limit));
    for (FeedItem& item : page.items) {
      cursor = std::max(cursor, item.epoch);
      merged.items.push_back(std::move(item));
    }
    merged.epoch = page.epoch;
    if (!page.more) break;
  }
  return merged;
}

Result<StatusReply> VacdClient::Stats() const {
  return ReplyAs<StatusReply>(RoundTrip(Request(StatusRequest{})), "status");
}

Status ErrorReplyStatus(const ErrorReply& error) {
  if (error.busy) {
    return Status::FailedPrecondition(std::string(kBusyPrefix) +
                                      error.message);
  }
  return Status::Internal(error.message);
}

bool VacdClient::IsBusy(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().compare(0, kBusyPrefix.size(), kBusyPrefix) == 0;
}

}  // namespace autovac::net
