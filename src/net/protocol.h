// vacd wire protocol: one JSON request frame in, one JSON reply frame
// out, connection per request.
//
// Requests are tagged by "op":
//   {"op":"push","vaccines":[<vaccine json>...]}
//   {"op":"query","resource":<enum>,"identifier":"..."}
//   {"op":"pull","since":<epoch>}
//   {"op":"quarantine","digest":"...","reason":"..."}
//   {"op":"status"}
// Replies echo the op and carry {"ok":true,...}; failures are
//   {"ok":false,"busy":<bool>,"error":"..."}
// where busy=true is the explicit overload shed — the client should back
// off and retry, nothing about the request was wrong.
//
// Vaccines travel as their canonical JSON (vaccine/json.h), so a PULL
// reply is deterministic: the same store contents serialize to the same
// bytes before and after a server restart, which the sync tests assert.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "os/resources.h"
#include "support/status.h"
#include "vaccine/vaccine.h"

namespace autovac::net {

struct PushRequest {
  std::vector<vaccine::Vaccine> vaccines;
  // Client-generated idempotency key: a retried push carries the same id
  // and the server's dedup window answers it with the recorded reply
  // instead of re-applying the batch. Empty = no dedup requested.
  std::string request_id;
};

struct QueryRequest {
  os::ResourceType resource_type = os::ResourceType::kFile;
  std::string identifier;
};

struct PullRequest {
  uint64_t since = 0;  // feed epoch the client already has
  // Page size: at most this many items per reply, extended so a feed
  // epoch is never split across pages (which keeps "since" an exact
  // resume cursor). 0 = the whole delta in one reply.
  uint64_t limit = 0;
};

// Operator retraction over the wire: quarantines an already-stored
// vaccine by digest, bumping the feed epoch so delta-syncing clients
// receive the tombstone.
struct QuarantineRequest {
  std::string digest;
  std::string reason;
};

struct StatusRequest {};

using Request = std::variant<PushRequest, QueryRequest, PullRequest,
                             QuarantineRequest, StatusRequest>;

struct PushReply {
  uint64_t added = 0;
  uint64_t duplicates = 0;
  uint64_t quarantined = 0;
  uint64_t epoch = 0;
};

struct QueryReply {
  // Served vaccines matching the identifier, feed order.
  std::vector<vaccine::Vaccine> matches;
};

// One feed record: the vaccine plus its content address and change
// epoch, so a client can resume a sync with "since" and dedup by
// digest. A quarantined item is a *tombstone* — "drop this digest" —
// which a delta pull serves to clients that already hold the vaccine;
// full pulls (since = 0) never contain one, which keeps their bytes
// identical to the pre-tombstone protocol.
struct FeedItem {
  std::string digest;
  uint64_t epoch = 0;  // change epoch (add, or later quarantine)
  vaccine::Vaccine vaccine;
  bool quarantined = false;
};

struct PullReply {
  uint64_t epoch = 0;  // store epoch at reply time
  // True when a limit truncated the delta: pull again with since = the
  // epoch of the last item received to resume.
  bool more = false;
  std::vector<FeedItem> items;
};

struct StatusReply {
  uint64_t epoch = 0;
  uint64_t served = 0;
  uint64_t quarantined = 0;
  uint64_t requests = 0;  // request frames received since start
  uint64_t shed = 0;      // connections and requests refused with busy
  uint64_t evicted = 0;   // readers that stopped reading their replies
  // Recovery/ops telemetry for fleet operators (optional on the wire so
  // old clients and replies interoperate):
  // feed epoch covered by the last checkpoint (0 = none yet) — how much
  // a restart would have to replay;
  uint64_t checkpoint_epoch = 0;
  // journal records the store replayed at load — the O(delta) recovery
  // cost actually paid on the last start;
  uint64_t replayed = 0;
  // push dedup-window hits since start — how often the idempotency
  // window absorbed a retried upload.
  uint64_t dedup_hits = 0;
};

struct QuarantineReply {
  uint64_t epoch = 0;   // store epoch after the retraction
  bool already = false;  // digest was quarantined before this request
};

struct ErrorReply {
  bool busy = false;  // overload shed, retry later
  std::string message;
};

using Reply = std::variant<PushReply, QueryReply, PullReply, QuarantineReply,
                           StatusReply, ErrorReply>;

[[nodiscard]] std::string RequestToJson(const Request& request);
[[nodiscard]] Result<Request> ParseRequest(std::string_view text);

[[nodiscard]] std::string ReplyToJson(const Reply& reply);
[[nodiscard]] Result<Reply> ParseReply(std::string_view text);

}  // namespace autovac::net
