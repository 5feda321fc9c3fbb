#include "net/fleet_protocol.h"

#include "support/json.h"
#include "support/strings.h"
#include "vaccine/json.h"

namespace autovac::net {
namespace {

std::string Bool(bool value) { return value ? "true" : "false"; }

}  // namespace

std::string FleetRequestToJson(const FleetRequest& request) {
  if (const auto* claim = std::get_if<ClaimRequest>(&request)) {
    return StrFormat("{\"op\":\"claim\",\"worker\":\"%s\"}",
                     JsonEscape(claim->worker_id).c_str());
  }
  if (const auto* renew = std::get_if<RenewRequest>(&request)) {
    return StrFormat("{\"op\":\"renew\",\"worker\":\"%s\",\"lease\":%llu}",
                     JsonEscape(renew->worker_id).c_str(),
                     static_cast<unsigned long long>(renew->lease_id));
  }
  if (const auto* complete = std::get_if<CompleteRequest>(&request)) {
    return StrFormat(
        "{\"op\":\"complete\",\"worker\":\"%s\",\"lease\":%llu,"
        "\"index\":%llu,\"request_id\":\"%s\",\"report\":%s}",
        JsonEscape(complete->worker_id).c_str(),
        static_cast<unsigned long long>(complete->lease_id),
        static_cast<unsigned long long>(complete->sample_index),
        JsonEscape(complete->request_id).c_str(),
        vaccine::SampleReportToJson(complete->report).c_str());
  }
  if (const auto* verdict = std::get_if<VerdictRequest>(&request)) {
    return StrFormat(
        "{\"op\":\"verdict\",\"worker\":\"%s\",\"lease\":%llu,"
        "\"index\":%llu,\"api_calls\":%llu,\"resource_calls\":%llu,"
        "\"tainted\":%llu,\"identifiers\":%llu,\"suspicious\":%s}",
        JsonEscape(verdict->worker_id).c_str(),
        static_cast<unsigned long long>(verdict->lease_id),
        static_cast<unsigned long long>(verdict->sample_index),
        static_cast<unsigned long long>(verdict->api_calls),
        static_cast<unsigned long long>(verdict->resource_calls),
        static_cast<unsigned long long>(verdict->tainted),
        static_cast<unsigned long long>(verdict->identifiers),
        Bool(verdict->suspicious).c_str());
  }
  return "{\"op\":\"fleet_status\"}";
}

Result<FleetRequest> ParseFleetRequest(std::string_view text) {
  AUTOVAC_ASSIGN_OR_RETURN(const JsonValue json, ParseJson(text));
  AUTOVAC_ASSIGN_OR_RETURN(const std::string op, JsonFieldString(json, "op"));
  if (op == "claim") {
    ClaimRequest request;
    AUTOVAC_ASSIGN_OR_RETURN(request.worker_id,
                             JsonFieldString(json, "worker"));
    return FleetRequest(std::move(request));
  }
  if (op == "renew") {
    RenewRequest request;
    AUTOVAC_ASSIGN_OR_RETURN(request.worker_id,
                             JsonFieldString(json, "worker"));
    AUTOVAC_ASSIGN_OR_RETURN(request.lease_id, JsonFieldUint64(json, "lease"));
    return FleetRequest(std::move(request));
  }
  if (op == "complete") {
    CompleteRequest request;
    AUTOVAC_ASSIGN_OR_RETURN(request.worker_id,
                             JsonFieldString(json, "worker"));
    AUTOVAC_ASSIGN_OR_RETURN(request.lease_id, JsonFieldUint64(json, "lease"));
    AUTOVAC_ASSIGN_OR_RETURN(request.sample_index,
                             JsonFieldUint64(json, "index"));
    AUTOVAC_ASSIGN_OR_RETURN(request.request_id,
                             JsonFieldString(json, "request_id"));
    const JsonValue* report = json.Find("report");
    if (report == nullptr) {
      return Status::InvalidArgument("complete request has no report");
    }
    AUTOVAC_ASSIGN_OR_RETURN(request.report,
                             vaccine::SampleReportFromJson(*report));
    return FleetRequest(std::move(request));
  }
  if (op == "verdict") {
    VerdictRequest request;
    AUTOVAC_ASSIGN_OR_RETURN(request.worker_id,
                             JsonFieldString(json, "worker"));
    AUTOVAC_ASSIGN_OR_RETURN(request.lease_id, JsonFieldUint64(json, "lease"));
    AUTOVAC_ASSIGN_OR_RETURN(request.sample_index,
                             JsonFieldUint64(json, "index"));
    AUTOVAC_ASSIGN_OR_RETURN(request.api_calls,
                             JsonFieldUint64(json, "api_calls"));
    AUTOVAC_ASSIGN_OR_RETURN(request.resource_calls,
                             JsonFieldUint64(json, "resource_calls"));
    AUTOVAC_ASSIGN_OR_RETURN(request.tainted,
                             JsonFieldUint64(json, "tainted"));
    AUTOVAC_ASSIGN_OR_RETURN(request.identifiers,
                             JsonFieldUint64(json, "identifiers"));
    AUTOVAC_ASSIGN_OR_RETURN(request.suspicious,
                             JsonFieldBool(json, "suspicious"));
    return FleetRequest(std::move(request));
  }
  if (op == "fleet_status") return FleetRequest(FleetStatusRequest{});
  return Status::InvalidArgument(
      StrFormat("unknown fleet op '%s'", op.c_str()));
}

std::string FleetReplyToJson(const FleetReply& reply) {
  if (const auto* claim = std::get_if<ClaimReply>(&reply)) {
    if (!claim->has_work) {
      return StrFormat(
          "{\"ok\":true,\"op\":\"claim\",\"has_work\":false,\"done\":%s}",
          Bool(claim->done).c_str());
    }
    return StrFormat(
        "{\"ok\":true,\"op\":\"claim\",\"has_work\":true,\"done\":false,"
        "\"index\":%llu,\"name\":\"%s\",\"digest\":\"%s\",\"lease\":%llu,"
        "\"lease_ms\":%llu,\"config_digest\":\"%s\"}",
        static_cast<unsigned long long>(claim->sample_index),
        JsonEscape(claim->sample_name).c_str(),
        JsonEscape(claim->sample_digest).c_str(),
        static_cast<unsigned long long>(claim->lease_id),
        static_cast<unsigned long long>(claim->lease_ms),
        JsonEscape(claim->config_digest).c_str());
  }
  if (const auto* renew = std::get_if<RenewReply>(&reply)) {
    return StrFormat(
        "{\"ok\":true,\"op\":\"renew\",\"renewed\":%s,\"lease_ms\":%llu}",
        Bool(renew->renewed).c_str(),
        static_cast<unsigned long long>(renew->lease_ms));
  }
  if (const auto* complete = std::get_if<CompleteReply>(&reply)) {
    return StrFormat(
        "{\"ok\":true,\"op\":\"complete\",\"accepted\":%s,\"stale\":%s,"
        "\"duplicate\":%s,\"campaign_done\":%s}",
        Bool(complete->accepted).c_str(), Bool(complete->stale).c_str(),
        Bool(complete->duplicate).c_str(),
        Bool(complete->campaign_done).c_str());
  }
  if (const auto* verdict = std::get_if<VerdictReply>(&reply)) {
    return StrFormat("{\"ok\":true,\"op\":\"verdict\",\"accepted\":%s}",
                     Bool(verdict->accepted).c_str());
  }
  if (const auto* status = std::get_if<FleetStatusReply>(&reply)) {
    return StrFormat(
        "{\"ok\":true,\"op\":\"fleet_status\",\"total\":%llu,"
        "\"completed\":%llu,\"leased\":%llu,\"reassigned\":%llu,"
        "\"stale_rejected\":%llu,\"duplicates\":%llu,\"workers\":%llu,"
        "\"verdicts\":%llu,\"suspicious\":%llu,\"done\":%s}",
        static_cast<unsigned long long>(status->total),
        static_cast<unsigned long long>(status->completed),
        static_cast<unsigned long long>(status->leased),
        static_cast<unsigned long long>(status->reassigned),
        static_cast<unsigned long long>(status->stale_rejected),
        static_cast<unsigned long long>(status->duplicates),
        static_cast<unsigned long long>(status->workers),
        static_cast<unsigned long long>(status->verdicts),
        static_cast<unsigned long long>(status->suspicious),
        Bool(status->done).c_str());
  }
  // One ErrorReply encoding for vacd and the fleet.
  return ReplyToJson(std::get<ErrorReply>(reply));
}

Result<FleetReply> ParseFleetReply(std::string_view text) {
  AUTOVAC_ASSIGN_OR_RETURN(const JsonValue json, ParseJson(text));
  AUTOVAC_ASSIGN_OR_RETURN(const bool ok, JsonFieldBool(json, "ok"));
  if (!ok) {
    ErrorReply error;
    AUTOVAC_ASSIGN_OR_RETURN(error.busy, JsonFieldBool(json, "busy"));
    AUTOVAC_ASSIGN_OR_RETURN(error.message, JsonFieldString(json, "error"));
    return FleetReply(std::move(error));
  }
  AUTOVAC_ASSIGN_OR_RETURN(const std::string op, JsonFieldString(json, "op"));
  if (op == "claim") {
    ClaimReply reply;
    AUTOVAC_ASSIGN_OR_RETURN(reply.has_work,
                             JsonFieldBool(json, "has_work"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.done, JsonFieldBool(json, "done"));
    if (reply.has_work) {
      AUTOVAC_ASSIGN_OR_RETURN(reply.sample_index,
                               JsonFieldUint64(json, "index"));
      AUTOVAC_ASSIGN_OR_RETURN(reply.sample_name,
                               JsonFieldString(json, "name"));
      AUTOVAC_ASSIGN_OR_RETURN(reply.sample_digest,
                               JsonFieldString(json, "digest"));
      AUTOVAC_ASSIGN_OR_RETURN(reply.lease_id,
                               JsonFieldUint64(json, "lease"));
      AUTOVAC_ASSIGN_OR_RETURN(reply.lease_ms,
                               JsonFieldUint64(json, "lease_ms"));
      AUTOVAC_ASSIGN_OR_RETURN(reply.config_digest,
                               JsonFieldString(json, "config_digest"));
    }
    return FleetReply(std::move(reply));
  }
  if (op == "renew") {
    RenewReply reply;
    AUTOVAC_ASSIGN_OR_RETURN(reply.renewed, JsonFieldBool(json, "renewed"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.lease_ms,
                             JsonFieldUint64(json, "lease_ms"));
    return FleetReply(reply);
  }
  if (op == "complete") {
    CompleteReply reply;
    AUTOVAC_ASSIGN_OR_RETURN(reply.accepted, JsonFieldBool(json, "accepted"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.stale, JsonFieldBool(json, "stale"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.duplicate,
                             JsonFieldBool(json, "duplicate"));
    // Arrived after v1 of the protocol; a reply from an older
    // coordinator simply leaves it false (the worker polls one claim).
    if (json.Find("campaign_done") != nullptr) {
      AUTOVAC_ASSIGN_OR_RETURN(reply.campaign_done,
                               JsonFieldBool(json, "campaign_done"));
    }
    return FleetReply(reply);
  }
  if (op == "verdict") {
    VerdictReply reply;
    AUTOVAC_ASSIGN_OR_RETURN(reply.accepted, JsonFieldBool(json, "accepted"));
    return FleetReply(reply);
  }
  if (op == "fleet_status") {
    FleetStatusReply reply;
    AUTOVAC_ASSIGN_OR_RETURN(reply.total, JsonFieldUint64(json, "total"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.completed,
                             JsonFieldUint64(json, "completed"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.leased, JsonFieldUint64(json, "leased"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.reassigned,
                             JsonFieldUint64(json, "reassigned"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.stale_rejected,
                             JsonFieldUint64(json, "stale_rejected"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.duplicates,
                             JsonFieldUint64(json, "duplicates"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.workers, JsonFieldUint64(json, "workers"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.verdicts,
                             JsonFieldUint64(json, "verdicts"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.suspicious,
                             JsonFieldUint64(json, "suspicious"));
    AUTOVAC_ASSIGN_OR_RETURN(reply.done, JsonFieldBool(json, "done"));
    return FleetReply(reply);
  }
  return Status::InvalidArgument(
      StrFormat("unknown fleet reply op '%s'", op.c_str()));
}

}  // namespace autovac::net
