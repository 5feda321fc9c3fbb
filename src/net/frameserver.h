// FrameServer: the one server of the system. A single event loop
// (net/eventloop.h) serves length-prefixed frames (net/frame.h) on any
// number of Unix and TCP listeners; vacd's two listeners and the fleet
// coordinator's socket all run on it (DESIGN.md §13).
//
// Each connection is a non-blocking state machine owned by the loop
// thread: reads feed a FrameDecoder, so a header that claims a large
// payload costs only the bytes that arrive; replies go through a
// buffered writer. The owner's handler answers each request frame
// inline on the loop thread or on the server's pool (work that blocks);
// the server's own error replies (BUSY, framing errors) are encoded by
// the owner too, so the server knows no protocol beyond the frame.
// While a pooled request is in flight its connection decodes nothing
// further, so replies leave in request order and one client holds at
// most one pool slot. FlowControl applies to every listener; running
// out of file descriptors sheds at the door like the connection cap,
// through a spare descriptor held in reserve, and when even the spare
// is gone the listeners pause until the tick can reopen it.
//
// Stop() drains: it closes the listeners, answers every request the
// connections already delivered (waiting for pooled work), flushes the
// replies and only then closes the connections — within a grace period,
// so a peer that never reads cannot hold the shutdown.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/endpoint.h"
#include "net/eventloop.h"
#include "net/frame.h"
#include "support/metrics.h"
#include "support/status.h"
#include "support/threadpool.h"

namespace autovac::net {

// Per-connection flow control, applied to every listener of a server.
struct FlowControl {
  // Concurrent connections before new connects are shed BUSY at the
  // door; 0 sheds every connection (a drain mode, and the deterministic
  // way to test the shed path).
  size_t max_connections = 4096;
  // Unsent reply bytes a connection may hold before a further reply
  // evicts it: a pipelining client that stopped reading. One reply of
  // any size still goes out to a client that keeps reading.
  size_t write_buffer_limit = 4u << 20;
  // Per-connection token bucket: sustained requests/second and burst
  // capacity; a client that out-runs it gets BUSY replies (counted as
  // shed). 0 rps disables rate limiting.
  double rate_limit_rps = 0.0;
  double rate_limit_burst = 64.0;
  // Connections with no traffic for this long are closed by the idle
  // sweep. 0 disables.
  uint64_t idle_timeout_ms = 60000;
};

class FrameServer {
 public:
  // How the owner answers one request frame: with `reply` right away, on
  // the loop thread — or, when `deferred` is set, with what `deferred`
  // returns, computed on the pool.
  struct Answer {
    std::string reply;
    std::function<std::string()> deferred;
  };
  // Called on the loop thread once per request frame; must not block.
  using Handler = std::function<Answer(std::string payload)>;
  // Encodes one of the server's own error replies — BUSY (`busy`) or a
  // framing error — answering `request`, which is empty when no request
  // frame was read.
  using ErrorEncoder = std::function<std::string(
      std::string_view request, bool busy, std::string message)>;

  // `name` prefixes the server's metrics (<name>.requests,
  // .requests_shed, .rate_limited, .slow_client_evictions,
  // .requests_failed); `threads` sizes the pool deferred answers run on.
  FrameServer(const std::string& name, FlowControl flow, size_t threads,
              Handler handler, ErrorEncoder error_reply);
  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  // Binds every endpoint (replacing a stale Unix socket file) and starts
  // the loop thread and the pool.
  [[nodiscard]] Status Start(const std::vector<Endpoint>& endpoints);

  // Drains as described above, then releases everything and unlinks the
  // Unix socket files. Idempotent; the destructor calls it.
  void Stop();

  // Bound port of the first TCP listener (resolves port 0 to what the
  // kernel assigned). Valid after Start(); 0 when there is none.
  [[nodiscard]] uint16_t tcp_port() const { return tcp_port_; }

  // Request frames received, requests and connections refused BUSY, and
  // slow readers evicted — over the server's lifetime.
  [[nodiscard]] uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t shed() const {
    return shed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  // One connection's state machine; loop thread only.
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    FrameDecoder decoder;
    std::string outbuf;        // encoded reply frames awaiting the socket
    size_t out_pos = 0;
    bool want_write = false;   // EPOLLOUT currently armed
    bool read_closed = false;  // peer half-closed, or we stopped reading
    bool deferred = false;     // a request is on the pool
    double tokens = 0.0;       // rate-limit bucket
    Clock::time_point last_refill;
    Clock::time_point last_activity;
  };
  struct Listener {
    int fd = -1;
    std::string unix_path;  // unlinked on Stop; empty for TCP
  };

  [[nodiscard]] Status AddListener(const Endpoint& endpoint);
  void CloseListeners();
  void Release();

  // --- loop thread ---
  void OnAcceptReady(int listen_fd);
  void ShedAtDoor(int fd);
  void SetAccepting(bool accepting);
  void OnConnReady(uint64_t id, uint32_t events);
  // Reads everything the socket holds, then serves the complete frames.
  void ReadAndServe(Conn& conn);
  void ServeFrames(Conn& conn);
  [[nodiscard]] bool TakeToken(Conn& conn);
  // Queues one reply frame and flushes; false when that closed `conn`.
  [[nodiscard]] bool Send(Conn& conn, std::string_view payload);
  [[nodiscard]] bool Flush(Conn& conn);
  void StopReading(Conn& conn);
  void UpdateInterest(const Conn& conn);
  // Closes the connection once nothing more can happen on it.
  void MaybeFinish(Conn& conn);
  [[nodiscard]] Conn* Find(uint64_t id);
  void CloseConn(uint64_t id);
  void Evict(uint64_t id);
  void BeginDrain();
  void OnTick();

  FlowControl flow_;
  size_t threads_;
  Handler handler_;
  ErrorEncoder error_reply_;

  std::vector<Listener> listeners_;
  uint16_t tcp_port_ = 0;
  int spare_fd_ = -1;  // spent to shed a connection when fds run out
  bool running_ = false;

  // Loop-thread state.
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  bool accepting_ = true;  // listeners armed; off while no spare fd
  bool draining_ = false;
  Clock::time_point drain_deadline_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> evicted_{0};
  Counter* requests_metric_ = nullptr;
  Counter* shed_metric_ = nullptr;
  Counter* rate_limited_metric_ = nullptr;
  Counter* evicted_metric_ = nullptr;
  Counter* failed_metric_ = nullptr;

  // Declared last: the loop thread and the pool use everything above.
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_thread_;
};

}  // namespace autovac::net
