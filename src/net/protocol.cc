#include "net/protocol.h"

#include "support/json.h"
#include "support/strings.h"
#include "vaccine/json.h"

namespace autovac::net {

std::string RequestToJson(const Request& request) {
  if (const auto* push = std::get_if<PushRequest>(&request)) {
    if (push->request_id.empty()) {
      return StrFormat("{\"op\":\"push\",\"vaccines\":%s}",
                       vaccine::VaccineArrayToJson(push->vaccines).c_str());
    }
    return StrFormat("{\"op\":\"push\",\"request_id\":\"%s\",\"vaccines\":%s}",
                     JsonEscape(push->request_id).c_str(),
                     vaccine::VaccineArrayToJson(push->vaccines).c_str());
  }
  if (const auto* query = std::get_if<QueryRequest>(&request)) {
    return StrFormat("{\"op\":\"query\",\"resource\":%d,\"identifier\":\"%s\"}",
                     static_cast<int>(query->resource_type),
                     JsonEscape(query->identifier).c_str());
  }
  if (const auto* pull = std::get_if<PullRequest>(&request)) {
    if (pull->limit == 0) {
      return StrFormat("{\"op\":\"pull\",\"since\":%llu}",
                       static_cast<unsigned long long>(pull->since));
    }
    return StrFormat("{\"op\":\"pull\",\"since\":%llu,\"limit\":%llu}",
                     static_cast<unsigned long long>(pull->since),
                     static_cast<unsigned long long>(pull->limit));
  }
  if (const auto* quarantine = std::get_if<QuarantineRequest>(&request)) {
    return StrFormat("{\"op\":\"quarantine\",\"digest\":\"%s\","
                     "\"reason\":\"%s\"}",
                     JsonEscape(quarantine->digest).c_str(),
                     JsonEscape(quarantine->reason).c_str());
  }
  return "{\"op\":\"status\"}";
}

Result<Request> ParseRequest(std::string_view text) {
  AUTOVAC_ASSIGN_OR_RETURN(const JsonValue json, ParseJson(text));
  AUTOVAC_ASSIGN_OR_RETURN(const std::string op, JsonFieldString(json, "op"));
  if (op == "push") {
    PushRequest request;
    AUTOVAC_ASSIGN_OR_RETURN(request.vaccines,
                             vaccine::VaccineArrayFromJson(json, "vaccines"));
    if (json.Find("request_id") != nullptr) {
      AUTOVAC_ASSIGN_OR_RETURN(request.request_id,
                               JsonFieldString(json, "request_id"));
    }
    return Request(std::move(request));
  }
  if (op == "query") {
    QueryRequest request;
    AUTOVAC_ASSIGN_OR_RETURN(
        const uint64_t resource,
        JsonFieldEnum(json, "resource", os::kNumResourceTypes));
    request.resource_type = static_cast<os::ResourceType>(resource);
    AUTOVAC_ASSIGN_OR_RETURN(request.identifier,
                             JsonFieldString(json, "identifier"));
    return Request(std::move(request));
  }
  if (op == "pull") {
    PullRequest request;
    AUTOVAC_ASSIGN_OR_RETURN(request.since, JsonFieldUint64(json, "since"));
    if (json.Find("limit") != nullptr) {
      AUTOVAC_ASSIGN_OR_RETURN(request.limit, JsonFieldUint64(json, "limit"));
    }
    return Request(request);
  }
  if (op == "quarantine") {
    QuarantineRequest request;
    AUTOVAC_ASSIGN_OR_RETURN(request.digest, JsonFieldString(json, "digest"));
    AUTOVAC_ASSIGN_OR_RETURN(request.reason, JsonFieldString(json, "reason"));
    return Request(std::move(request));
  }
  if (op == "status") return Request(StatusRequest{});
  return Status::InvalidArgument(
      StrFormat("unknown op '%s'", op.c_str()));
}

std::string ReplyToJson(const Reply& reply) {
  if (const auto* push = std::get_if<PushReply>(&reply)) {
    return StrFormat(
        "{\"ok\":true,\"op\":\"push\",\"added\":%llu,\"duplicates\":%llu,"
        "\"quarantined\":%llu,\"epoch\":%llu}",
        static_cast<unsigned long long>(push->added),
        static_cast<unsigned long long>(push->duplicates),
        static_cast<unsigned long long>(push->quarantined),
        static_cast<unsigned long long>(push->epoch));
  }
  if (const auto* query = std::get_if<QueryReply>(&reply)) {
    return StrFormat("{\"ok\":true,\"op\":\"query\",\"matches\":%s}",
                     vaccine::VaccineArrayToJson(query->matches).c_str());
  }
  if (const auto* pull = std::get_if<PullReply>(&reply)) {
    std::string items = "[";
    for (size_t i = 0; i < pull->items.size(); ++i) {
      const FeedItem& item = pull->items[i];
      if (i > 0) items += ",";
      // The tombstone flag is emitted only when set, so full pulls keep
      // their pre-tombstone bytes (the restart byte-identity contract).
      items += StrFormat(
          "{\"digest\":\"%s\",\"epoch\":%llu,%s\"vaccine\":%s}",
          item.digest.c_str(), static_cast<unsigned long long>(item.epoch),
          item.quarantined ? "\"quarantined\":true," : "",
          vaccine::VaccineToJson(item.vaccine).c_str());
    }
    items += "]";
    return StrFormat("{\"ok\":true,\"op\":\"pull\",\"epoch\":%llu,"
                     "\"more\":%s,\"items\":%s}",
                     static_cast<unsigned long long>(pull->epoch),
                     pull->more ? "true" : "false", items.c_str());
  }
  if (const auto* quarantine = std::get_if<QuarantineReply>(&reply)) {
    return StrFormat(
        "{\"ok\":true,\"op\":\"quarantine\",\"epoch\":%llu,\"already\":%s}",
        static_cast<unsigned long long>(quarantine->epoch),
        quarantine->already ? "true" : "false");
  }
  if (const auto* status = std::get_if<StatusReply>(&reply)) {
    return StrFormat(
        "{\"ok\":true,\"op\":\"status\",\"epoch\":%llu,\"served\":%llu,"
        "\"quarantined\":%llu,\"requests\":%llu,\"shed\":%llu,"
        "\"evicted\":%llu,\"checkpoint_epoch\":%llu,\"replayed\":%llu,"
        "\"dedup_hits\":%llu}",
        static_cast<unsigned long long>(status->epoch),
        static_cast<unsigned long long>(status->served),
        static_cast<unsigned long long>(status->quarantined),
        static_cast<unsigned long long>(status->requests),
        static_cast<unsigned long long>(status->shed),
        static_cast<unsigned long long>(status->evicted),
        static_cast<unsigned long long>(status->checkpoint_epoch),
        static_cast<unsigned long long>(status->replayed),
        static_cast<unsigned long long>(status->dedup_hits));
  }
  const auto& error = std::get<ErrorReply>(reply);
  return StrFormat("{\"ok\":false,\"busy\":%s,\"error\":\"%s\"}",
                   error.busy ? "true" : "false",
                   JsonEscape(error.message).c_str());
}

Result<Reply> ParseReply(std::string_view text) {
  AUTOVAC_ASSIGN_OR_RETURN(const JsonValue json, ParseJson(text));
  AUTOVAC_ASSIGN_OR_RETURN(const bool ok, JsonFieldBool(json, "ok"));
  if (!ok) {
    ErrorReply error;
    AUTOVAC_ASSIGN_OR_RETURN(error.busy, JsonFieldBool(json, "busy"));
    AUTOVAC_ASSIGN_OR_RETURN(error.message, JsonFieldString(json, "error"));
    return Reply(std::move(error));
  }
  AUTOVAC_ASSIGN_OR_RETURN(const std::string op, JsonFieldString(json, "op"));
  if (op == "push") {
    PushReply reply;
    AUTOVAC_ASSIGN_OR_RETURN(reply.added, JsonFieldUint64(json, "added"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.duplicates,
                             JsonFieldUint64(json, "duplicates"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.quarantined,
                             JsonFieldUint64(json, "quarantined"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.epoch, JsonFieldUint64(json, "epoch"));
    return Reply(reply);
  }
  if (op == "query") {
    QueryReply reply;
    AUTOVAC_ASSIGN_OR_RETURN(reply.matches,
                             vaccine::VaccineArrayFromJson(json, "matches"));
    return Reply(std::move(reply));
  }
  if (op == "pull") {
    PullReply reply;
    AUTOVAC_ASSIGN_OR_RETURN(reply.epoch, JsonFieldUint64(json, "epoch"));
    if (json.Find("more") != nullptr) {
      AUTOVAC_ASSIGN_OR_RETURN(reply.more, JsonFieldBool(json, "more"));
    }
    const JsonValue* items = json.Find("items");
    if (items == nullptr || !items->is_array()) {
      return Status::InvalidArgument("pull reply has no items array");
    }
    for (const JsonValue& element : items->array) {
      FeedItem item;
      AUTOVAC_ASSIGN_OR_RETURN(item.digest,
                               JsonFieldString(element, "digest"));
      AUTOVAC_ASSIGN_OR_RETURN(item.epoch, JsonFieldUint64(element, "epoch"));
      if (element.Find("quarantined") != nullptr) {
        AUTOVAC_ASSIGN_OR_RETURN(item.quarantined,
                                 JsonFieldBool(element, "quarantined"));
      }
      const JsonValue* vaccine = element.Find("vaccine");
      if (vaccine == nullptr) {
        return Status::InvalidArgument("feed item has no vaccine");
      }
      AUTOVAC_ASSIGN_OR_RETURN(item.vaccine,
                               vaccine::VaccineFromJson(*vaccine));
      reply.items.push_back(std::move(item));
    }
    return Reply(std::move(reply));
  }
  if (op == "quarantine") {
    QuarantineReply reply;
    AUTOVAC_ASSIGN_OR_RETURN(reply.epoch, JsonFieldUint64(json, "epoch"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.already, JsonFieldBool(json, "already"));
    return Reply(reply);
  }
  if (op == "status") {
    StatusReply reply;
    AUTOVAC_ASSIGN_OR_RETURN(reply.epoch, JsonFieldUint64(json, "epoch"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.served, JsonFieldUint64(json, "served"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.quarantined,
                             JsonFieldUint64(json, "quarantined"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.requests,
                             JsonFieldUint64(json, "requests"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.shed, JsonFieldUint64(json, "shed"));
    if (json.Find("evicted") != nullptr) {
      AUTOVAC_ASSIGN_OR_RETURN(reply.evicted,
                               JsonFieldUint64(json, "evicted"));
    }
    // Recovery/ops fields arrived after v1 of the protocol; a reply from
    // an older server simply leaves them zero.
    if (json.Find("checkpoint_epoch") != nullptr) {
      AUTOVAC_ASSIGN_OR_RETURN(reply.checkpoint_epoch,
                               JsonFieldUint64(json, "checkpoint_epoch"));
    }
    if (json.Find("replayed") != nullptr) {
      AUTOVAC_ASSIGN_OR_RETURN(reply.replayed,
                               JsonFieldUint64(json, "replayed"));
    }
    if (json.Find("dedup_hits") != nullptr) {
      AUTOVAC_ASSIGN_OR_RETURN(reply.dedup_hits,
                               JsonFieldUint64(json, "dedup_hits"));
    }
    return Reply(reply);
  }
  return Status::InvalidArgument(
      StrFormat("unknown reply op '%s'", op.c_str()));
}

}  // namespace autovac::net
