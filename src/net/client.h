// vacd client library: one connection per request (the protocol is
// strictly request/reply, and a feed client syncs rarely), blocking with
// a per-attempt socket deadline. Speaks to either listener through an
// endpoint spec (net/endpoint.h): a plain path dials the Unix socket,
// "tcp:host:port" / "tcp:port" dials the TCP port.
// With set_binary(true) the read-path requests (query/pull/status) go
// out in the compact binary encoding (net/binary.h); mutations always
// travel as JSON.
//
// The typed helpers unwrap the reply variant into Status codes:
//   * a busy shed  -> FailedPrecondition("server busy: ...") — back off
//     and retry, nothing about the request was wrong (IsBusy() tests
//     this);
//   * a server-side error reply -> Internal(<server message>);
//   * connect refused/absent socket -> NotFound.
//
// Resilience: construct the client with a RetryPolicy and every typed
// helper retries the transient outcomes — BUSY, NotFound (server not up
// yet / connection refused), torn replies, per-attempt deadline misses —
// with capped exponential backoff and deterministic seeded jitter. The
// old hand-rolled "retry on NotFound until the server comes up" loop is
// subsumed and *capped*: when the policy's total budget runs out the
// client surfaces DeadlineExceeded instead of spinning forever. Pushes
// sent under a retrying policy carry a client-generated request id, so a
// retry of a push whose reply was torn is deduped server-side and never
// double-applies.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "net/protocol.h"
#include "support/status.h"

namespace autovac::net {

// One AVNF frame round trip on a fresh connection: dial the endpoint
// spec (Unix path or tcp:host:port), send `request_payload`, read one
// reply frame, close. Single attempt — retry loops layer on top.
// Connect refused/absent maps to NotFound (the "no server yet" signal
// startup-wait loops key on); a clean close before any reply byte maps
// to Internal. Shared by the vacd client and the fleet control-plane
// client, so both tiers inherit the same wire-fault shim (faultwire.h)
// and deadline discipline.
//
// `after_send` is a chaos-test seam: invoked between the request frame
// landing and the reply read — the "request delivered, acknowledgement
// lost" window crash tests SIGKILL inside. Production passes nothing.
[[nodiscard]] Result<std::string> FrameRoundTrip(
    const std::string& endpoint_spec, uint64_t deadline_ms,
    std::string_view request_payload,
    const std::function<void()>& after_send = nullptr);

// Capped exponential backoff with deterministic seeded jitter. The
// default-constructed policy makes exactly one attempt (no retries);
// Retrying() is the sensible starting point for flaky links.
struct RetryPolicy {
  // Total attempts, including the first; 1 disables retries.
  uint32_t max_attempts = 1;
  uint64_t initial_backoff_ms = 10;  // doubles per attempt...
  uint64_t max_backoff_ms = 2000;    // ...up to this cap
  // Wall-clock budget across all attempts and backoffs. Exhausting it
  // surfaces DeadlineExceeded — the explicit max-wait that caps the
  // "wait for the server to come up" pattern.
  uint64_t max_total_ms = 30000;
  // Seeds the jitter stream (and the push request-id derivation): the
  // same seed replays the same backoff schedule, so chaos tests stay
  // deterministic.
  uint64_t seed = 0;

  [[nodiscard]] static RetryPolicy None() { return RetryPolicy{}; }
  [[nodiscard]] static RetryPolicy Retrying() {
    RetryPolicy policy;
    policy.max_attempts = 6;
    return policy;
  }
};

// The retry loop behind both clients, instantiated for vacd's Reply and
// the fleet's FleetReply. Each attempt is one FrameRoundTrip of
// `payload`, decoded by `parse`. A BUSY ErrorReply and the transient
// transport outcomes (VacdClient::IsRetryable) are retried under `retry`
// with capped exponential backoff and jitter seeded by (retry.seed,
// payload). Returns the first reply that is not BUSY, or the BUSY one
// once the attempts run out (the caller sees it as a value); else the
// parse error of a malformed reply, the last transport error, or
// DeadlineExceeded when the total budget runs out.
template <typename ReplyVariant>
[[nodiscard]] Result<ReplyVariant> RoundTripWithRetry(
    const std::string& endpoint_spec, uint64_t deadline_ms,
    const RetryPolicy& retry, const std::string& payload,
    Result<ReplyVariant> (*parse)(std::string_view raw),
    const std::function<void()>& after_send = nullptr);

// An ErrorReply as the typed helpers report it: a BUSY shed is
// FailedPrecondition (VacdClient::IsBusy), any other error Internal.
[[nodiscard]] Status ErrorReplyStatus(const ErrorReply& error);

// The typed helpers' unwrapping of a round trip's reply variant (vacd's
// Reply or the fleet's FleetReply) into its `T` alternative; an
// ErrorReply becomes ErrorReplyStatus, any other `kind` of reply
// Internal.
template <typename T, typename ReplyVariant>
[[nodiscard]] Result<T> ReplyAs(Result<ReplyVariant> reply,
                                std::string_view kind) {
  if (!reply.ok()) return reply.status();
  if (const auto* error = std::get_if<ErrorReply>(&*reply)) {
    return ErrorReplyStatus(*error);
  }
  if (auto* typed = std::get_if<T>(&*reply)) return std::move(*typed);
  return Status::Internal("unexpected reply kind for " + std::string(kind));
}

class VacdClient {
 public:
  // `endpoint_spec` is a Unix socket path or "tcp:host:port"/"tcp:port".
  explicit VacdClient(std::string endpoint_spec, uint64_t deadline_ms = 5000,
                      RetryPolicy retry = RetryPolicy())
      : endpoint_spec_(std::move(endpoint_spec)),
        deadline_ms_(deadline_ms),
        retry_(retry) {}

  // Binary encoding for the read path (query/pull/status). Mutations
  // and RoundTripRaw stay in whatever bytes the caller provides.
  void set_binary(bool binary) { binary_ = binary; }
  [[nodiscard]] bool binary() const { return binary_; }

  // Under a retrying policy the push carries a request id derived from
  // the policy seed, a per-client sequence number and the batch content,
  // so every retry of one logical push presents the same id.
  [[nodiscard]] Result<PushReply> Push(
      const std::vector<vaccine::Vaccine>& vaccines) const;
  // Retracts one vaccine by digest (idempotent: reply.already on a
  // repeat). The tombstone reaches delta-syncing clients on their next
  // pull.
  [[nodiscard]] Result<QuarantineReply> Quarantine(
      std::string_view digest, std::string_view reason) const;
  [[nodiscard]] Result<QueryReply> Query(os::ResourceType resource_type,
                                         std::string_view identifier) const;
  // One feed page: at most `limit` items (0 = everything), never
  // splitting a feed epoch, with reply.more signalling truncation.
  [[nodiscard]] Result<PullReply> Pull(uint64_t since,
                                       uint64_t limit = 0) const;
  // Pages through the whole delta after `since`. Each page is retried
  // independently, and the cursor only advances past fully-received
  // pages — a torn page reply re-pulls from the last item that made it.
  [[nodiscard]] Result<PullReply> SyncAll(uint64_t since,
                                          uint64_t page_limit = 0) const;
  [[nodiscard]] Result<StatusReply> Stats() const;

  // Full round trip with the reply variant exposed (busy arrives as an
  // ErrorReply value, not a Status — only retried under a policy, and
  // returned as-is once attempts run out).
  [[nodiscard]] Result<Reply> RoundTrip(const Request& request) const;

  // Sends `request_payload` verbatim (JSON or binary) and returns the
  // raw reply payload — the byte-identity the store sync tests compare
  // across restarts. Single attempt: retries live in RoundTrip and the
  // typed helpers.
  [[nodiscard]] Result<std::string> RoundTripRaw(
      std::string_view request_payload) const;

  // True iff `status` is the overload-shed outcome of a typed helper.
  [[nodiscard]] static bool IsBusy(const Status& status);

  // True iff `status` is an outcome a retry can fix: the server not up
  // yet (NotFound), a torn reply or severed connection (Internal), or a
  // per-attempt deadline miss (DeadlineExceeded).
  [[nodiscard]] static bool IsRetryable(const Status& status);

  [[nodiscard]] const RetryPolicy& retry_policy() const { return retry_; }

 private:
  std::string endpoint_spec_;
  uint64_t deadline_ms_;
  RetryPolicy retry_;
  bool binary_ = false;
  // Distinguishes two pushes of identical content from one retried push
  // in the request-id derivation.
  mutable std::atomic<uint64_t> push_sequence_{0};
};

}  // namespace autovac::net
