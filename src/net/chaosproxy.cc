#include "net/chaosproxy.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "net/endpoint.h"
#include "net/frame.h"

namespace autovac::net {

ChaosProxy::ChaosProxy(const NetFaultPlan& plan, ChaosProxyOptions options)
    : plan_(plan), options_(std::move(options)), injector_(plan_) {}

ChaosProxy::~ChaosProxy() { Stop(); }

Status ChaosProxy::Start() {
  if (running_) return Status::FailedPrecondition("proxy already running");

  AUTOVAC_ASSIGN_OR_RETURN(backend_, ParseEndpoint(options_.backend_path));
  AUTOVAC_ASSIGN_OR_RETURN(const Endpoint listen_endpoint,
                           ParseEndpoint(options_.listen_path));
  listen_unix_ = !listen_endpoint.tcp;
  AUTOVAC_ASSIGN_OR_RETURN(listen_fd_,
                           ListenEndpoint(listen_endpoint, /*backlog=*/16));
  if (listen_endpoint.tcp) {
    const Result<uint16_t> port = ListenPort(listen_fd_);
    if (!port.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return port.status();
    }
    listen_port_ = *port;
  }
  // One loop thread accepts and relays, one connection at a time.
  loop_ = std::make_unique<EventLoop>();
  Status status = loop_->Init();
  if (status.ok()) {
    status = loop_->Add(listen_fd_, EPOLLIN,
                        [this](uint32_t) { OnAcceptReady(); });
  }
  if (!status.ok()) {
    loop_.reset();
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (listen_unix_) (void)::unlink(options_.listen_path.c_str());
    return status;
  }
  accept_thread_ = std::thread([this] { loop_->Run(); });
  running_ = true;
  return Status::Ok();
}

void ChaosProxy::Stop() {
  if (!running_) return;
  loop_->Stop();
  accept_thread_.join();
  loop_.reset();
  ::close(listen_fd_);
  listen_fd_ = -1;
  listen_port_ = 0;
  if (listen_unix_) (void)::unlink(options_.listen_path.c_str());
  running_ = false;
}

void ChaosProxy::OnAcceptReady() {
  const Result<int> fd = AcceptConnection(listen_fd_, options_.deadline_ms);
  if (!fd.ok()) return;
  const ConnectionFaults faults = injector_.OnConnect();
  connections_.fetch_add(1, std::memory_order_relaxed);
  if (!faults.Clean()) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (options_.verbose) {
    std::fprintf(stderr, "chaos-proxy: conn %llu: %s\n",
                 static_cast<unsigned long long>(connections()),
                 faults.Summary().c_str());
  }
  Relay(*fd, faults);
}

bool ChaosProxy::RelayBytes(int fd, std::string_view bytes, int64_t cut_at,
                            bool byte_at_a_time, uint64_t* relayed) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    if (cut_at >= 0 && *relayed >= static_cast<uint64_t>(cut_at)) {
      (void)::shutdown(fd, SHUT_RDWR);
      return false;
    }
    size_t chunk = bytes.size() - offset;
    if (cut_at >= 0) {
      chunk = std::min<size_t>(chunk,
                               static_cast<uint64_t>(cut_at) - *relayed);
    }
    if (byte_at_a_time) chunk = 1;
    const ssize_t n = ::send(fd, bytes.data() + offset, chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    offset += static_cast<size_t>(n);
    *relayed += static_cast<uint64_t>(n);
  }
  return true;
}

void ChaosProxy::Relay(int client_fd, const ConnectionFaults& faults) {
  if (faults.refuse) {
    // Close without a byte: the client observes a refused/empty
    // connection, the NotFound outcome its retry loop keys on.
    ::close(client_fd);
    return;
  }
  if (faults.stall_ms > 0) {
    ::usleep(static_cast<useconds_t>(faults.stall_ms * 1000));
  }

  Result<std::string> request = ReadNetFrame(client_fd);
  if (!request.ok()) {
    ::close(client_fd);
    return;
  }
  const std::string raw_request = EncodeNetFrame(*request);

  const Result<int> backend = DialEndpoint(backend_, options_.deadline_ms);
  if (!backend.ok()) {
    ::close(client_fd);
    return;
  }
  uint64_t sent = 0;
  if (!RelayBytes(*backend, raw_request, faults.cut_send_at,
                  faults.short_send, &sent)) {
    // The server saw a torn request; the client gets no reply at all.
    WireClose(*backend);
    ::close(client_fd);
    return;
  }

  if (faults.duplicate) {
    // The wire event an idempotent push must absorb: the same request
    // frame arrives twice, and only one reply reaches the client.
    const Result<int> twin = DialEndpoint(backend_, options_.deadline_ms);
    if (twin.ok()) {
      uint64_t twin_sent = 0;
      if (RelayBytes(*twin, raw_request, -1, false, &twin_sent)) {
        (void)ReadNetFrame(*twin);  // drain and discard the twin reply
      }
      WireClose(*twin);
    }
  }

  Result<std::string> reply = ReadNetFrame(*backend);
  WireClose(*backend);
  if (!reply.ok()) {
    ::close(client_fd);
    return;
  }
  uint64_t received = 0;
  (void)RelayBytes(client_fd, EncodeNetFrame(*reply), faults.cut_recv_at,
                   faults.short_recv, &received);
  ::close(client_fd);
}

}  // namespace autovac::net
