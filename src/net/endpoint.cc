#include "net/endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/faultwire.h"
#include "support/strings.h"

namespace autovac::net {
namespace {

constexpr std::string_view kTcpPrefix = "tcp:";

void SetDeadlines(int fd, uint64_t deadline_ms) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(deadline_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((deadline_ms % 1000) * 1000);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// A stream socket of the endpoint's family, with the address to bind or
// connect it to in `*address` / `*length`.
Result<int> OpenSocket(const Endpoint& endpoint, sockaddr_storage* address,
                       socklen_t* length) {
  *address = {};
  if (endpoint.tcp) {
    auto* addr = reinterpret_cast<sockaddr_in*>(address);
    addr->sin_family = AF_INET;
    addr->sin_port = htons(endpoint.port);
    const std::string host =
        endpoint.host == "localhost" ? "127.0.0.1" : endpoint.host;
    if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
      return Status::InvalidArgument(StrFormat(
          "bad TCP host '%s' (numeric IPv4 or localhost)", host.c_str()));
    }
    *length = sizeof(sockaddr_in);
  } else {
    auto* addr = reinterpret_cast<sockaddr_un*>(address);
    if (endpoint.path.size() >= sizeof(addr->sun_path)) {
      return Status::InvalidArgument(
          StrFormat("socket path too long: %s", endpoint.path.c_str()));
    }
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, endpoint.path.c_str(),
                endpoint.path.size() + 1);
    *length = sizeof(sockaddr_un);
  }
  const int fd = ::socket(endpoint.tcp ? AF_INET : AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  return fd;
}

}  // namespace

std::string Endpoint::Spec() const {
  if (!tcp) return path;
  return StrFormat("tcp:%s:%u", host.c_str(),
                   static_cast<unsigned>(port));
}

Result<Endpoint> ParseEndpoint(std::string_view spec) {
  Endpoint endpoint;
  if (spec.substr(0, kTcpPrefix.size()) != kTcpPrefix) {
    if (spec.empty()) {
      return Status::InvalidArgument("empty endpoint spec");
    }
    endpoint.path = std::string(spec);
    return endpoint;
  }
  endpoint.tcp = true;
  const std::string_view rest = spec.substr(kTcpPrefix.size());
  const size_t colon = rest.rfind(':');
  std::string_view host = "127.0.0.1";
  std::string_view port_text = rest;
  if (colon != std::string_view::npos) {
    host = rest.substr(0, colon);
    port_text = rest.substr(colon + 1);
  }
  if (host.empty() || port_text.empty()) {
    return Status::InvalidArgument(
        StrFormat("bad TCP endpoint '%s' (want tcp:host:port)",
                  std::string(spec).c_str()));
  }
  uint64_t port = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          StrFormat("bad TCP port in '%s'", std::string(spec).c_str()));
    }
    port = port * 10 + static_cast<uint64_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument(
          StrFormat("TCP port out of range in '%s'",
                    std::string(spec).c_str()));
    }
  }
  endpoint.host = std::string(host);
  endpoint.port = static_cast<uint16_t>(port);
  return endpoint;
}

Result<int> ListenEndpoint(const Endpoint& endpoint, int backlog) {
  sockaddr_storage address{};
  socklen_t length = 0;
  AUTOVAC_ASSIGN_OR_RETURN(const int fd,
                           OpenSocket(endpoint, &address, &length));
  if (endpoint.tcp) {
    const int enable = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable,
                       sizeof(enable));
  } else {
    // A stale socket file from a previous (crashed) server blocks bind.
    (void)::unlink(endpoint.path.c_str());
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address), length) != 0 ||
      ::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    if (!endpoint.tcp) (void)::unlink(endpoint.path.c_str());
    return Status::Internal(StrFormat("listen on %s failed: %s",
                                      endpoint.Spec().c_str(),
                                      std::strerror(err)));
  }
  return fd;
}

Result<uint16_t> ListenPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return Status::Internal("getsockname failed");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<int> AcceptConnection(int listen_fd, uint64_t deadline_ms) {
  int fd = -1;
  do {
    fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("accept failed: %s", std::strerror(errno)));
  }
  SetDeadlines(fd, deadline_ms);
  return fd;
}

Result<int> DialEndpoint(const Endpoint& endpoint, uint64_t deadline_ms) {
  sockaddr_storage address{};
  socklen_t length = 0;
  AUTOVAC_ASSIGN_OR_RETURN(const int fd,
                           OpenSocket(endpoint, &address, &length));
  SetDeadlines(fd, deadline_ms);
  // WireConnect retries EINTR and applies the installed NetFaultPlan, if
  // any — TCP connections inherit the chaos shim for free.
  if (WireConnect(fd, reinterpret_cast<const sockaddr*>(&address),
                  length) != 0) {
    const int err = errno;
    WireClose(fd);
    // Refused/absent reads as "no server yet" so startup-wait loops can
    // key on NotFound alone.
    return Status::NotFound(StrFormat("connect %s failed: %s",
                                      endpoint.Spec().c_str(),
                                      std::strerror(err)));
  }
  return fd;
}

}  // namespace autovac::net
