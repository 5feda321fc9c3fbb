// Fleet control-plane client: the worker agent's view of the
// coordinator. Connection per request over AVNF, through the vacd
// client's retry loop (net/client.h RoundTripWithRetry) — a worker
// behind a lying network retries BUSY sheds, torn replies, refused
// connects and deadline misses, and every retry of one logical upload
// presents the same request id.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/client.h"
#include "net/fleet_protocol.h"
#include "support/status.h"

namespace autovac::fleet {

class FleetClient {
 public:
  explicit FleetClient(std::string socket_path, uint64_t deadline_ms = 5000,
                       net::RetryPolicy retry = net::RetryPolicy())
      : socket_path_(std::move(socket_path)),
        deadline_ms_(deadline_ms),
        retry_(retry) {}

  [[nodiscard]] Result<net::ClaimReply> Claim(
      const std::string& worker_id) const;
  [[nodiscard]] Result<net::RenewReply> Renew(const std::string& worker_id,
                                              uint64_t lease_id) const;
  // Fills in request.request_id when empty: a digest over (worker,
  // lease, sample) — stable across every retry of this one upload, so
  // the coordinator's dedup window absorbs a resend whose first reply
  // was torn.
  [[nodiscard]] Result<net::CompleteReply> Complete(
      net::CompleteRequest request) const;
  [[nodiscard]] Result<net::VerdictReply> Verdict(
      const net::VerdictRequest& request) const;
  [[nodiscard]] Result<net::FleetStatusReply> Stats() const;

  [[nodiscard]] Result<net::FleetReply> RoundTrip(
      const net::FleetRequest& request) const;

  // Chaos seam: runs after each request frame is sent, before the reply
  // is read — where the mid-upload SIGKILL tests detonate.
  void set_after_send_hook(std::function<void()> hook) {
    after_send_ = std::move(hook);
  }

 private:
  std::string socket_path_;
  uint64_t deadline_ms_;
  net::RetryPolicy retry_;
  std::function<void()> after_send_;
};

}  // namespace autovac::fleet
