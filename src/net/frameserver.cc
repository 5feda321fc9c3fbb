#include "net/frameserver.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

namespace autovac::net {
namespace {

// Loop tick: the idle sweep's and the drain deadline's resolution.
constexpr uint64_t kTickMs = 100;
// How long Stop() waits for replies to drain before closing regardless.
constexpr std::chrono::milliseconds kDrainGrace{5000};

int OpenSpareFd() { return ::open("/dev/null", O_RDONLY | O_CLOEXEC); }

}  // namespace

FrameServer::FrameServer(const std::string& name, FlowControl flow,
                         size_t threads, Handler handler,
                         ErrorEncoder error_reply)
    : flow_(flow),
      threads_(std::max<size_t>(threads, 1)),
      handler_(std::move(handler)),
      error_reply_(std::move(error_reply)) {
  MetricsRegistry& metrics = GlobalMetrics();
  requests_metric_ = metrics.GetCounter(name + ".requests");
  shed_metric_ = metrics.GetCounter(name + ".requests_shed");
  rate_limited_metric_ = metrics.GetCounter(name + ".rate_limited");
  evicted_metric_ = metrics.GetCounter(name + ".slow_client_evictions");
  failed_metric_ = metrics.GetCounter(name + ".requests_failed");
}

FrameServer::~FrameServer() { Stop(); }

Status FrameServer::Start(const std::vector<Endpoint>& endpoints) {
  if (running_) return Status::FailedPrecondition("server already running");
  loop_ = std::make_unique<EventLoop>();
  Status status = loop_->Init();
  for (const Endpoint& endpoint : endpoints) {
    if (!status.ok()) break;
    status = AddListener(endpoint);
  }
  if (status.ok()) {
    spare_fd_ = OpenSpareFd();
    if (spare_fd_ < 0) status = Status::Internal("cannot open /dev/null");
  }
  if (!status.ok()) {
    Release();
    return status;
  }
  pool_ = std::make_unique<ThreadPool>(threads_);
  loop_thread_ = std::thread([this] {
    loop_->Run(kTickMs, [this] { OnTick(); });
  });
  running_ = true;
  return Status::Ok();
}

Status FrameServer::AddListener(const Endpoint& endpoint) {
  // A deep backlog: fleet ramps connect thousands of clients in bursts,
  // and a dropped SYN costs the client a multi-second kernel retry.
  AUTOVAC_ASSIGN_OR_RETURN(const int fd, ListenEndpoint(endpoint, 1024));
  listeners_.push_back({fd, endpoint.tcp ? std::string() : endpoint.path});
  (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  if (endpoint.tcp && tcp_port_ == 0) {
    AUTOVAC_ASSIGN_OR_RETURN(tcp_port_, ListenPort(fd));
  }
  return loop_->Add(fd, EPOLLIN,
                    [this, fd](uint32_t) { OnAcceptReady(fd); });
}

void FrameServer::CloseListeners() {
  for (const Listener& listener : listeners_) {
    if (loop_) loop_->Remove(listener.fd);
    ::close(listener.fd);
    if (!listener.unix_path.empty()) {
      (void)::unlink(listener.unix_path.c_str());
    }
  }
  listeners_.clear();
}

// Teardown once the loop thread is gone (or never started).
void FrameServer::Release() {
  for (const auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  CloseListeners();
  loop_.reset();
  if (spare_fd_ >= 0) ::close(spare_fd_);
  spare_fd_ = -1;
  tcp_port_ = 0;
  accepting_ = true;
  draining_ = false;
}

void FrameServer::Stop() {
  if (!running_) return;
  loop_->Post([this] { BeginDrain(); });
  loop_thread_.join();
  // Every reply was delivered unless the drain grace ran out; a pooled
  // job still running then posts into the stopped loop, where it is
  // dropped with it.
  pool_.reset();
  Release();
  running_ = false;
}

void FrameServer::OnAcceptReady(int listen_fd) {
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: spend the spare one to answer the waiting
        // connection BUSY. Without a spare (another thread may take the
        // slot it freed), stop listening until the tick reopens one —
        // the waiting connection keeps the listener ready, and the loop
        // would spin.
        int doomed = -1;
        if (spare_fd_ >= 0) {
          ::close(spare_fd_);
          doomed = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (doomed >= 0) ShedAtDoor(doomed);
          spare_fd_ = OpenSpareFd();
        }
        if (doomed >= 0 && spare_fd_ >= 0) continue;
        SetAccepting(false);
      }
      return;  // EAGAIN: accepted everything pending
    }
    if (conns_.size() >= flow_.max_connections) {
      ShedAtDoor(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->tokens = flow_.rate_limit_burst;
    conn->last_refill = conn->last_activity = Clock::now();
    const uint64_t id = conn->id;
    const Status added = loop_->Add(
        fd, EPOLLIN, [this, id](uint32_t events) { OnConnReady(id, events); });
    if (!added.ok()) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
  }
}

void FrameServer::ShedAtDoor(int fd) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  shed_metric_->Increment();
  // Best effort: one BUSY frame into an empty socket buffer, then close.
  const std::string frame =
      EncodeNetFrame(error_reply_({}, true, "server overloaded"));
  (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  ::close(fd);
}

void FrameServer::SetAccepting(bool accepting) {
  accepting_ = accepting;
  for (const Listener& listener : listeners_) {
    (void)loop_->Modify(listener.fd, accepting ? uint32_t{EPOLLIN} : 0u);
  }
}

void FrameServer::OnConnReady(uint64_t id, uint32_t events) {
  Conn* conn = Find(id);
  if (conn == nullptr) return;
  if ((events & EPOLLOUT) != 0) {
    conn->last_activity = Clock::now();  // the reader is draining
    if (!Flush(*conn)) return;
  }
  // A hung-up peer's last requests are still read and served (a push
  // is applied even if nobody waits for its reply).
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && !conn->read_closed) {
    ReadAndServe(*conn);
  }
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConn(id);  // nothing can be delivered any more
    return;
  }
  if ((conn = Find(id)) != nullptr) MaybeFinish(*conn);
}

void FrameServer::ReadAndServe(Conn& conn) {
  const uint64_t id = conn.id;
  conn.last_activity = Clock::now();
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.decoder.Append(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      StopReading(conn);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(id);
    return;
  }
  ServeFrames(conn);
}

void FrameServer::ServeFrames(Conn& conn) {
  const uint64_t id = conn.id;
  while (!conn.deferred) {
    std::string payload;
    const Result<bool> got = conn.decoder.Next(&payload);
    if (!got.ok()) {
      // Framing corruption is unrecoverable: one best-effort error
      // reply, then close — resyncing a torn stream is not possible.
      failed_metric_->Increment();
      if (Send(conn, error_reply_({}, false, got.status().ToString()))) {
        CloseConn(id);
      }
      return;
    }
    if (!*got) return;
    requests_.fetch_add(1, std::memory_order_relaxed);
    requests_metric_->Increment();
    if (!TakeToken(conn)) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      shed_metric_->Increment();
      rate_limited_metric_->Increment();
      if (!Send(conn, error_reply_(payload, true, "rate limited"))) return;
      continue;
    }
    Answer answer = handler_(std::move(payload));
    if (!answer.deferred) {
      if (!Send(conn, answer.reply)) return;
      continue;
    }
    // The reply comes back by connection id; a connection closed in the
    // meantime just drops it.
    conn.deferred = true;
    pool_->Submit([this, id, job = std::move(answer.deferred)] {
      loop_->Post([this, id, reply = job()] {
        Conn* conn = Find(id);
        if (conn == nullptr) return;
        conn->deferred = false;
        if (!Send(*conn, reply)) return;
        ServeFrames(*conn);  // frames that queued behind this request
        if ((conn = Find(id)) != nullptr) MaybeFinish(*conn);
      });
    });
  }
}

bool FrameServer::TakeToken(Conn& conn) {
  if (flow_.rate_limit_rps <= 0.0) return true;
  const auto now = Clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - conn.last_refill).count();
  conn.last_refill = now;
  conn.tokens = std::min(flow_.rate_limit_burst,
                         conn.tokens + elapsed * flow_.rate_limit_rps);
  if (conn.tokens < 1.0) return false;
  conn.tokens -= 1.0;
  return true;
}

bool FrameServer::Send(Conn& conn, std::string_view payload) {
  if (conn.outbuf.size() - conn.out_pos > flow_.write_buffer_limit) {
    // Earlier replies past the limit are still unsent: the client keeps
    // sending requests but stopped reading.
    Evict(conn.id);
    return false;
  }
  conn.outbuf += EncodeNetFrame(payload);
  conn.last_activity = Clock::now();
  return Flush(conn);
}

bool FrameServer::Flush(Conn& conn) {
  while (conn.out_pos < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.out_pos,
               conn.outbuf.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(conn.id);
    return false;
  }
  if (conn.out_pos == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_pos = 0;
    if (conn.want_write) {
      conn.want_write = false;
      UpdateInterest(conn);
    }
    return true;
  }
  if (!conn.want_write) {
    conn.want_write = true;
    UpdateInterest(conn);
  }
  return true;
}

// Drops EPOLLIN: a level-triggered EOF would otherwise spin the loop
// while replies drain.
void FrameServer::StopReading(Conn& conn) {
  conn.read_closed = true;
  UpdateInterest(conn);
}

void FrameServer::UpdateInterest(const Conn& conn) {
  (void)loop_->Modify(conn.fd, (conn.read_closed ? 0u : uint32_t{EPOLLIN}) |
                                   (conn.want_write ? uint32_t{EPOLLOUT} : 0u));
}

void FrameServer::MaybeFinish(Conn& conn) {
  if (conn.read_closed && !conn.deferred && conn.outbuf.empty()) {
    CloseConn(conn.id);
  }
}

FrameServer::Conn* FrameServer::Find(uint64_t id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void FrameServer::CloseConn(uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  loop_->Remove(it->second->fd);
  ::close(it->second->fd);
  conns_.erase(it);
  if (draining_ && conns_.empty()) loop_->Stop();
}

void FrameServer::Evict(uint64_t id) {
  evicted_.fetch_add(1, std::memory_order_relaxed);
  evicted_metric_->Increment();
  CloseConn(id);
}

void FrameServer::BeginDrain() {
  draining_ = true;
  drain_deadline_ = Clock::now() + kDrainGrace;
  // Connections waiting in a backlog have been received too.
  for (const Listener& listener : listeners_) OnAcceptReady(listener.fd);
  CloseListeners();
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const uint64_t id : ids) {
    // What a peer already sent counts as received: read and answer it,
    // then read nothing more.
    Conn* conn = Find(id);
    if (conn != nullptr && !conn->read_closed) ReadAndServe(*conn);
    if ((conn = Find(id)) == nullptr) continue;
    if (!conn->read_closed) StopReading(*conn);
    MaybeFinish(*conn);
  }
  if (conns_.empty()) loop_->Stop();
}

void FrameServer::OnTick() {
  if (!accepting_) {
    if (spare_fd_ < 0) spare_fd_ = OpenSpareFd();
    if (spare_fd_ >= 0) SetAccepting(true);
  }
  const auto now = Clock::now();
  const bool give_up = draining_ && now >= drain_deadline_;
  const auto idle_limit = std::chrono::milliseconds(flow_.idle_timeout_ms);
  std::vector<uint64_t> doomed;
  for (const auto& [id, conn] : conns_) {
    const bool idle = flow_.idle_timeout_ms > 0 && !conn->deferred &&
                      now - conn->last_activity > idle_limit;
    if (give_up || idle) doomed.push_back(id);
  }
  for (const uint64_t id : doomed) {
    // Replies still unsent: the reader stopped reading.
    if (Find(id)->outbuf.empty()) {
      CloseConn(id);
    } else {
      Evict(id);
    }
  }
}

}  // namespace autovac::net
