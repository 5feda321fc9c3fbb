// Endpoint specs for the distribution tier: every place that used to
// take a Unix socket path (serve, client --socket, chaos proxy legs)
// now also accepts "tcp:<host>:<port>" — the fleet-scale transport
// vacd's TCP listener serves. A spec without the "tcp:" prefix stays a Unix
// path, so every existing script and test keeps working unchanged.
//
// TCP trust model: the listener has no authentication yet — bind it to
// loopback (the default) unless the network is trusted; cross-machine
// auth arrives with the multi-node fleet work.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/status.h"

namespace autovac::net {

struct Endpoint {
  bool tcp = false;
  std::string path;    // Unix socket path (when !tcp)
  std::string host;    // numeric IPv4 or "localhost" (when tcp)
  uint16_t port = 0;   // 0 = ephemeral (listen only)

  // The spec form: "tcp:host:port" or the Unix path verbatim.
  [[nodiscard]] std::string Spec() const;
};

// "tcp:127.0.0.1:8787", "tcp:8787" (loopback shorthand), or a Unix
// socket path. Port 0 is allowed (ephemeral listen).
[[nodiscard]] Result<Endpoint> ParseEndpoint(std::string_view spec);

// Binds and listens. Unix: unlinks a stale socket file first. TCP: sets
// SO_REUSEADDR; port 0 binds ephemeral — read the outcome back with
// ListenPort().
[[nodiscard]] Result<int> ListenEndpoint(const Endpoint& endpoint,
                                         int backlog);

// The locally bound TCP port of a listening fd (resolves port 0).
[[nodiscard]] Result<uint16_t> ListenPort(int fd);

// Accepts one connection on a listening fd and gives it the same
// SO_RCVTIMEO/SO_SNDTIMEO deadlines DialEndpoint gives the dialing side
// — for blocking relays that must not be pinned by a stalled peer.
[[nodiscard]] Result<int> AcceptConnection(int listen_fd,
                                           uint64_t deadline_ms);

// Connects with SO_RCVTIMEO/SO_SNDTIMEO deadlines, routing through the
// wire-fault shim (WireConnect) so TCP clients inherit the same
// injectable faults as Unix ones. Refused/absent maps to NotFound (the
// "no server yet" signal retry loops key on). Close the fd with
// WireClose.
[[nodiscard]] Result<int> DialEndpoint(const Endpoint& endpoint,
                                       uint64_t deadline_ms);

}  // namespace autovac::net
