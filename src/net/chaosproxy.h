// ChaosProxy: a frame-aware relay that sits between a vacd client and a
// vacd server and applies a NetFaultPlan to every connection that passes
// through it — the out-of-process complement to the in-process wire shim
// (faultwire.h), and what the `chaos-proxy` CLI subcommand runs.
//
// The proxy speaks the AVNF protocol just enough to be deterministic: it
// reads the whole request frame, re-encodes it to raw bytes, and forwards
// a prefix of exactly `cut_send_at` bytes when the verdict says to sever
// the client->server stream (and symmetrically for the reply). Duplicate
// delivery replays the captured request on a second backend connection
// and discards the second reply — the wire-level event an idempotent push
// must absorb. Short IO is relayed one byte per syscall, which exercises
// the *server's* short-read loops, something the client-side shim cannot
// reach.
//
// Connections are served sequentially on one loop thread: verdicts are
// indexed by connection order, and a retrying client is the intended
// peer, so serial relay keeps the fault schedule deterministic. Backend
// legs are dialed with DialEndpoint, so an in-process wire plan
// (InstallWireFaults) would fault them too: a test uses one injector or
// the other, never both at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "net/endpoint.h"
#include "net/eventloop.h"
#include "net/faultwire.h"
#include "support/status.h"

namespace autovac::net {

struct ChaosProxyOptions {
  // Endpoint specs (net/endpoint.h): a Unix socket path, or
  // "tcp:host:port" / "tcp:port" — either leg can be either kind, so
  // a TCP listener rehearses under the same fault plans as a Unix one.
  std::string listen_path;   // where the client connects
  std::string backend_path;  // the real vacd endpoint
  uint64_t deadline_ms = 5000;  // per-leg socket read/write deadline
  bool verbose = false;         // log one line per connection to stderr
};

class ChaosProxy {
 public:
  // The plan must outlive the proxy.
  ChaosProxy(const NetFaultPlan& plan, ChaosProxyOptions options);
  ~ChaosProxy();
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  // Binds the listen socket (removing a stale one) and starts the relay
  // thread.
  [[nodiscard]] Status Start();

  // Idempotent: joins the relay thread, unlinks the listen socket.
  void Stop();

  // Bound port of a TCP listen endpoint (resolves port 0 to what the
  // kernel assigned). Valid after Start(); 0 for a Unix listener.
  [[nodiscard]] uint16_t listen_port() const { return listen_port_; }

  [[nodiscard]] uint64_t connections() const {
    return connections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }

 private:
  void OnAcceptReady();
  void Relay(int client_fd, const ConnectionFaults& faults);
  // Sends `bytes` to `fd`, honoring a cut offset (relative to the whole
  // stream direction) and optional one-byte-per-write relay. Returns
  // false when the stream was severed (cut reached or IO error).
  bool RelayBytes(int fd, std::string_view bytes, int64_t cut_at,
                  bool byte_at_a_time, uint64_t* relayed);

  const NetFaultPlan& plan_;
  ChaosProxyOptions options_;
  NetFaultInjector injector_;
  Endpoint backend_;  // parsed backend_path

  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;
  bool listen_unix_ = false;  // unlink the socket file on Stop()
  std::unique_ptr<EventLoop> loop_;
  std::thread accept_thread_;
  bool running_ = false;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> faults_injected_{0};
};

}  // namespace autovac::net
