#include "fleet/client.h"

#include <utility>

#include "support/digest.h"
#include "support/strings.h"

namespace autovac::fleet {

Result<net::FleetReply> FleetClient::RoundTrip(
    const net::FleetRequest& request) const {
  return net::RoundTripWithRetry(socket_path_, deadline_ms_, retry_,
                                 net::FleetRequestToJson(request),
                                 net::ParseFleetReply, after_send_);
}

Result<net::ClaimReply> FleetClient::Claim(
    const std::string& worker_id) const {
  net::ClaimRequest request;
  request.worker_id = worker_id;
  return net::ReplyAs<net::ClaimReply>(
      RoundTrip(net::FleetRequest(std::move(request))), "claim");
}

Result<net::RenewReply> FleetClient::Renew(const std::string& worker_id,
                                           uint64_t lease_id) const {
  net::RenewRequest request;
  request.worker_id = worker_id;
  request.lease_id = lease_id;
  return net::ReplyAs<net::RenewReply>(
      RoundTrip(net::FleetRequest(std::move(request))), "renew");
}

Result<net::CompleteReply> FleetClient::Complete(
    net::CompleteRequest request) const {
  if (request.request_id.empty()) {
    // One id per logical upload: every retry of this (worker, lease,
    // sample) triple presents the same id; a re-analysis under a fresh
    // lease presents a new one (and is resolved by the already-done
    // duplicate path instead).
    request.request_id = HexDigest128(StrFormat(
        "fleet-complete|%s|%llu|%llu|%s", request.worker_id.c_str(),
        static_cast<unsigned long long>(request.lease_id),
        static_cast<unsigned long long>(request.sample_index),
        request.report.sample_digest.c_str()));
  }
  return net::ReplyAs<net::CompleteReply>(
      RoundTrip(net::FleetRequest(std::move(request))), "complete");
}

Result<net::VerdictReply> FleetClient::Verdict(
    const net::VerdictRequest& request) const {
  return net::ReplyAs<net::VerdictReply>(
      RoundTrip(net::FleetRequest(request)), "verdict");
}

Result<net::FleetStatusReply> FleetClient::Stats() const {
  return net::ReplyAs<net::FleetStatusReply>(
      RoundTrip(net::FleetRequest(net::FleetStatusRequest{})),
      "fleet status");
}

}  // namespace autovac::fleet
