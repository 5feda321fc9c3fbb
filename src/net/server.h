// vacd: the long-lived vaccine distribution server (§V deployment,
// scaled from "copy the vaccine to the host" to a feed service).
//
// One frame server (net/frameserver.h) serves both listeners: the Unix
// socket and, when `tcp_host` is set, a TCP port. Both speak the same
// frames — JSON or binary payloads (net/binary.h), persistent
// connections, pipelined requests — under the same flow control
// (FlowControl). Queries, status and delta pulls are answered inline on
// the loop thread under the shared lock; mutations (push/quarantine)
// and full pulls, which serialize the whole feed, run on the server's
// pool.
//
// Store access is a reader/writer lock: PUSH/QUARANTINE take it
// exclusively (the store appends + the match index rebuilds),
// QUERY/PULL/STATUS share it. Tracing spans are recorded only inside
// the exclusive sections ("vacd.push", "vacd.index_rebuild") because
// the global tracer is single-threaded by design; the shared-lock paths
// report through the (thread-safe) metrics registry only.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/frameserver.h"
#include "net/protocol.h"
#include "support/match_index.h"
#include "support/metrics.h"
#include "support/status.h"
#include "vacstore/store.h"

namespace autovac::net {

// The flow-control knobs (FlowControl: max_connections,
// write_buffer_limit, rate_limit_rps/burst, idle_timeout_ms) cover both
// listeners.
struct VacdOptions : FlowControl {
  std::string socket_path;
  size_t threads = 4;  // pool size for mutations
  // Push replies remembered per request id for idempotent retries; a
  // retried push whose reply was torn gets the recorded reply instead of
  // a second application. 0 disables dedup.
  size_t push_dedup_window = 128;
  // Checkpoint the store after this many accepted vaccines (and again on
  // Stop), bounding restart recovery to O(delta-since-checkpoint).
  // 0 = never checkpoint automatically.
  size_t checkpoint_every = 0;
  // Numeric IPv4 (or "localhost") for the TCP listener; empty serves the
  // Unix socket only. No authentication yet: bind loopback unless the
  // network is trusted (cross-machine auth lands with the multi-node
  // fleet work).
  std::string tcp_host;
  uint16_t tcp_port = 0;  // 0 = ephemeral; read the result via tcp_port()
};

class VacdServer {
 public:
  // Takes ownership of an opened (and possibly pre-loaded) store.
  VacdServer(vacstore::VaccineStore store, VacdOptions options);
  ~VacdServer();
  VacdServer(const VacdServer&) = delete;
  VacdServer& operator=(const VacdServer&) = delete;

  // Builds the match index, then binds the Unix socket (removing a stale
  // one) and the TCP port, if any, and starts serving.
  [[nodiscard]] Status Start();

  // Graceful, idempotent shutdown: stops accepting, answers every
  // request received before it on either listener, fsyncs the store
  // (plus a final checkpoint when checkpoint_every is set), unlinks the
  // socket. Called by the destructor, and what the CLI runs on SIGTERM —
  // the draining half of "drain, then restart with bounded recovery".
  void Stop();

  // Checkpoints the store now (exclusive lock). Safe while serving.
  [[nodiscard]] Status CheckpointNow();

  // Current counters, as a STATUS reply (takes the shared lock).
  [[nodiscard]] StatusReply Stats() const;

  // The underlying store. Only safe while the server is stopped.
  [[nodiscard]] const vacstore::VaccineStore& store() const {
    return store_;
  }

  // The TCP listener's bound port (resolves tcp_port = 0 to the
  // ephemeral port the kernel assigned). Valid after Start(); 0 when
  // there is no TCP listener.
  [[nodiscard]] uint16_t tcp_port() const { return server_.tcp_port(); }

 private:
  // The frame server's handler: parses one request (either encoding)
  // and answers it inline or on the pool (see the file comment).
  [[nodiscard]] FrameServer::Answer Handle(std::string payload);
  // Dispatches and encodes the reply in the request's encoding.
  [[nodiscard]] std::string Serve(const Request& request, bool binary);
  [[nodiscard]] Reply Dispatch(const Request& request);
  // Counter snapshot under an already-held shared lock (the Dispatch
  // status path and the public Stats() share this body).
  [[nodiscard]] StatusReply Stats(
      const std::shared_lock<std::shared_mutex>& lock) const;
  // Rebuilds the per-resource-type indexes from served store entries.
  // Caller holds the exclusive lock.
  void RebuildIndex();

  vacstore::VaccineStore store_;
  VacdOptions options_;

  mutable std::shared_mutex mutex_;  // store_ + index under it
  // One index per resource type; ids map to store entry positions via
  // entry_of_id_, in feed order (so Match results are feed-ordered too).
  std::array<PatternIndex, os::kNumResourceTypes> index_;
  std::array<std::vector<size_t>, os::kNumResourceTypes> entry_of_id_;

  bool running_ = false;
  std::atomic<uint64_t> dedup_hits_{0};  // pushes answered from the window

  // Request-id -> recorded reply, FIFO-bounded to push_dedup_window.
  // Guarded by mutex_ (the push path already holds it exclusively).
  std::unordered_map<std::string, PushReply> dedup_replies_;
  std::deque<std::string> dedup_order_;
  size_t added_since_checkpoint_ = 0;  // guarded by mutex_

  Counter* quarantine_metric_ = nullptr;
  Counter* failed_metric_ = nullptr;
  Counter* push_added_metric_ = nullptr;
  Counter* push_duplicate_metric_ = nullptr;
  Counter* push_quarantined_metric_ = nullptr;
  Counter* push_deduped_metric_ = nullptr;
  Counter* query_match_metric_ = nullptr;
  Counter* checkpoint_metric_ = nullptr;

  // Declared last: its threads use everything above.
  FrameServer server_;
};

}  // namespace autovac::net
