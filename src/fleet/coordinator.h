// Fleet coordinator: shards a corpus across remote detonation workers
// under leases, journals assignment and completion write-ahead, and
// merges the results into a CampaignReport byte-identical to a
// fault-free single-host run — for any failure schedule.
//
// It serves its Unix socket from the same frame server as vacd
// (net/frameserver.h), with the default flow control, and answers every
// request on the server's pool: claims and completes fsync the journal.
// All campaign state (lease table, completed reports, dedup window,
// journal) lives under one mutex — claims and completes mutate, and the
// request rate is worker-bounded, so a reader/writer split buys nothing.
//
// Fault tolerance, by failure:
//   * worker crash/stall/partition — its lease expires unrenewed; the
//     next claim reaps it and reassigns the sample (lease.h);
//   * zombie worker — a complete under a reassigned lease is rejected
//     as stale, so the sample is never counted twice;
//   * lost acknowledgement — a retried complete carries the same
//     request id and is answered from the dedup window, or lands in the
//     already-completed duplicate path; either way it is applied once;
//   * coordinator SIGKILL — completions are journaled (fsync) *before*
//     they are acknowledged; a restarted coordinator replays the
//     journal, re-leases only the in-flight delta, and issues lease ids
//     strictly above every journaled one, so stale leases from the dead
//     incarnation can never be honored.
//
// Extracted vaccines stream into an optional VaccineStore as each
// sample completes — detonation output becomes fleet-pullable
// immunization without a separate publish step.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/journal.h"
#include "fleet/lease.h"
#include "net/fleet_protocol.h"
#include "net/frameserver.h"
#include "support/status.h"
#include "vaccine/pipeline.h"
#include "vacstore/store.h"
#include "vm/program.h"

namespace autovac::fleet {

struct CoordinatorOptions {
  std::string socket_path;
  size_t threads = 4;           // request pool size
  uint64_t lease_ms = 5000;     // lease validity window
  // Write-ahead journal (campaign/journal.h); empty = in-memory only
  // (tests), which forfeits coordinator crash recovery.
  std::string journal_path;
  bool resume = false;
  // Caller-side configuration folded into the config digest.
  std::string config_extra;
  // Complete replies remembered per request id (the idempotent-upload
  // window); 0 disables.
  size_t dedup_window = 256;
  // Streaming ingest target for extracted vaccines; empty disables.
  std::string store_path;
  // Test clock for the lease table (deterministic expiry).
  LeaseTable::Clock clock;
  // Chaos hook: SIGKILL the process right after journaling the n-th
  // assignment (1-based), before the claim is acknowledged — the
  // "coordinator mid-assignment" crash point. 0 disables.
  size_t crash_after_assignments = 0;
};

struct CoordinatorStats {
  uint64_t verdicts = 0;
  uint64_t suspicious = 0;
  uint64_t ingested = 0;         // vaccines accepted into the store
  uint64_t ingest_failures = 0;  // store pushes that failed (non-fatal)
  uint64_t dedup_hits = 0;       // completes answered from the window
  size_t resumed_completed = 0;  // samples replayed from the journal
  uint64_t resumed_max_lease = 0;
};

class FleetCoordinator {
 public:
  // `options` is the pipeline configuration the whole fleet must share;
  // the coordinator never analyzes, but digests it so misconfigured
  // workers refuse their claims.
  FleetCoordinator(std::vector<vm::Program> samples,
                   vaccine::PipelineOptions pipeline_options,
                   CoordinatorOptions options);
  ~FleetCoordinator();
  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  // Creates/resumes the journal, opens the ingest store, binds the
  // socket and starts serving claims.
  [[nodiscard]] Status Start();

  // Blocks until every sample is completed, a fatal journal error
  // occurs, or `timeout_ms` elapses (0 = wait forever).
  [[nodiscard]] Status WaitUntilDone(uint64_t timeout_ms = 0);

  // Graceful, idempotent shutdown (destructor calls it too): answers
  // every request received before it, then closes the socket.
  void Stop();

  // The merged campaign artifact; Internal until every sample is done.
  [[nodiscard]] Result<vaccine::CampaignReport> Report() const;

  [[nodiscard]] net::FleetStatusReply Progress() const;
  [[nodiscard]] CoordinatorStats Stats() const;
  [[nodiscard]] const std::string& config_digest() const {
    return config_digest_;
  }

  // Total requests dispatched since Start(). Lets a caller that wants to
  // shut down after the campaign completes wait for the fleet to go
  // quiet first, so idle workers observe done=true on their next claim
  // instead of a torn connection.
  [[nodiscard]] uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  // Parses one request frame and returns the encoded reply.
  [[nodiscard]] std::string Serve(const std::string& payload);
  [[nodiscard]] net::FleetReply Dispatch(const net::FleetRequest& request);
  [[nodiscard]] net::FleetReply HandleClaim(const net::ClaimRequest& claim);
  [[nodiscard]] net::FleetReply HandleComplete(
      const net::CompleteRequest& complete);
  [[nodiscard]] net::FleetStatusReply ProgressLocked() const;

  std::vector<vm::Program> samples_;
  std::vector<std::string> sample_digests_;  // cached, index-aligned
  vaccine::PipelineOptions pipeline_options_;
  CoordinatorOptions options_;
  std::string config_digest_;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::unique_ptr<LeaseTable> leases_;
  std::vector<std::optional<vaccine::SampleReport>> done_;
  campaign::CampaignJournal journal_;
  vacstore::VaccineStore store_;
  bool ingest_ = false;
  Status fatal_ = Status::Ok();  // journal failure: the run is poisoned

  // Request-id -> recorded complete reply, FIFO-bounded.
  std::unordered_map<std::string, net::CompleteReply> dedup_replies_;
  std::deque<std::string> dedup_order_;

  CoordinatorStats stats_;
  size_t assignments_journaled_ = 0;

  bool running_ = false;
  std::atomic<uint64_t> requests_served_{0};

  // Declared last: its threads use everything above.
  net::FrameServer server_;
};

}  // namespace autovac::fleet
