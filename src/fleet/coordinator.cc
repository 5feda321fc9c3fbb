#include "fleet/coordinator.h"

#include <signal.h>

#include <chrono>
#include <utility>
#include <variant>

#include "fleet/merge.h"
#include "support/strings.h"

namespace autovac::fleet {

FleetCoordinator::FleetCoordinator(std::vector<vm::Program> samples,
                                   vaccine::PipelineOptions pipeline_options,
                                   CoordinatorOptions options)
    : samples_(std::move(samples)),
      pipeline_options_(std::move(pipeline_options)),
      options_(std::move(options)),
      server_(
          "fleet", net::FlowControl{}, options_.threads,
          [this](std::string payload) {
            return net::FrameServer::Answer{
                {}, [this, payload = std::move(payload)] {
                  return Serve(payload);
                }};
          },
          [](std::string_view, bool busy, std::string message) {
            return net::FleetReplyToJson(
                net::ErrorReply{busy, std::move(message)});
          }) {
  sample_digests_.reserve(samples_.size());
  for (const vm::Program& sample : samples_) {
    sample_digests_.push_back(sample.Digest());
  }
  config_digest_ = campaign::CampaignConfigDigest(pipeline_options_, samples_,
                                                  options_.config_extra);
}

FleetCoordinator::~FleetCoordinator() { Stop(); }

Status FleetCoordinator::Start() {
  if (running_) {
    return Status::FailedPrecondition("coordinator already running");
  }
  if (options_.resume && options_.journal_path.empty()) {
    return Status::InvalidArgument("resume requires a journal path");
  }

  // --- Journal create/resume (the supervisor's discipline, shared) ------
  done_.assign(samples_.size(), std::nullopt);
  uint64_t first_lease_id = 1;
  if (!options_.journal_path.empty()) {
    const campaign::JournalHeader header = campaign::MakeJournalHeader(
        pipeline_options_, samples_, options_.config_extra);
    if (options_.resume) {
      AUTOVAC_ASSIGN_OR_RETURN(
          campaign::CampaignJournal::Replay replay,
          campaign::CampaignJournal::Load(options_.journal_path,
                                          samples_.size()));
      if (replay.header.config_digest != header.config_digest) {
        return Status::FailedPrecondition(StrFormat(
            "journal %s belongs to a different campaign "
            "(config digest %s, expected %s); refusing to resume",
            options_.journal_path.c_str(),
            replay.header.config_digest.c_str(),
            header.config_digest.c_str()));
      }
      done_ = std::move(replay.reports);
      stats_.resumed_completed = replay.completed;
      stats_.resumed_max_lease = replay.max_lease_id;
      // Strictly above every id the dead incarnation ever journaled: a
      // zombie holding a pre-crash lease can never present a live id.
      first_lease_id = replay.max_lease_id + 1;
      AUTOVAC_ASSIGN_OR_RETURN(
          journal_,
          campaign::CampaignJournal::OpenAppend(options_.journal_path));
    } else {
      AUTOVAC_ASSIGN_OR_RETURN(journal_, campaign::CampaignJournal::Create(
                                             options_.journal_path, header));
    }
  }

  LeaseTable::Options lease_options;
  lease_options.lease_ms = options_.lease_ms;
  lease_options.first_lease_id = first_lease_id;
  lease_options.clock = options_.clock;
  leases_ = std::make_unique<LeaseTable>(samples_.size(), lease_options);
  for (size_t i = 0; i < done_.size(); ++i) {
    if (done_[i].has_value()) leases_->MarkCompleted(i);
  }

  if (!options_.store_path.empty()) {
    AUTOVAC_ASSIGN_OR_RETURN(store_,
                             vacstore::VaccineStore::Open(options_.store_path));
    ingest_ = true;
  }

  net::Endpoint endpoint;
  endpoint.path = options_.socket_path;
  AUTOVAC_RETURN_IF_ERROR(server_.Start({endpoint}));
  running_ = true;
  return Status::Ok();
}

void FleetCoordinator::Stop() {
  if (!running_) return;
  server_.Stop();
  if (ingest_) (void)store_.Flush();
  running_ = false;
}

Status FleetCoordinator::WaitUntilDone(uint64_t timeout_ms) {
  std::unique_lock lock(mutex_);
  const auto settled = [this] { return leases_->done() || !fatal_.ok(); };
  if (timeout_ms == 0) {
    done_cv_.wait(lock, settled);
  } else if (!done_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                settled)) {
    return Status::DeadlineExceeded(StrFormat(
        "campaign incomplete after %llu ms: %zu of %zu samples done",
        static_cast<unsigned long long>(timeout_ms), leases_->completed(),
        leases_->total()));
  }
  return fatal_;
}

Result<vaccine::CampaignReport> FleetCoordinator::Report() const {
  std::lock_guard lock(mutex_);
  AUTOVAC_RETURN_IF_ERROR(fatal_);
  // MergeFleetReports audits completeness and digests; done_ is copied so
  // the coordinator can keep serving status after the report is taken.
  return MergeFleetReports(done_, samples_);
}

net::FleetStatusReply FleetCoordinator::Progress() const {
  std::lock_guard lock(mutex_);
  return ProgressLocked();
}

net::FleetStatusReply FleetCoordinator::ProgressLocked() const {
  net::FleetStatusReply reply;
  reply.total = leases_->total();
  reply.completed = leases_->completed();
  reply.leased = leases_->leased();
  reply.reassigned = leases_->reassignments();
  reply.stale_rejected = leases_->stale_rejections();
  reply.duplicates = leases_->duplicates();
  reply.workers = leases_->workers_seen();
  reply.verdicts = stats_.verdicts;
  reply.suspicious = stats_.suspicious;
  reply.done = leases_->done();
  return reply;
}

CoordinatorStats FleetCoordinator::Stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::string FleetCoordinator::Serve(const std::string& payload) {
  const Result<net::FleetRequest> request = net::ParseFleetRequest(payload);
  if (!request.ok()) {
    return net::FleetReplyToJson(
        net::ErrorReply{false, request.status().ToString()});
  }
  return net::FleetReplyToJson(Dispatch(*request));
}

net::FleetReply FleetCoordinator::Dispatch(const net::FleetRequest& request) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (const auto* claim = std::get_if<net::ClaimRequest>(&request)) {
    return HandleClaim(*claim);
  }
  if (const auto* renew = std::get_if<net::RenewRequest>(&request)) {
    std::lock_guard lock(mutex_);
    net::RenewReply reply;
    reply.renewed = leases_->Renew(renew->lease_id);
    reply.lease_ms = options_.lease_ms;
    return reply;
  }
  if (const auto* complete = std::get_if<net::CompleteRequest>(&request)) {
    return HandleComplete(*complete);
  }
  if (const auto* verdict = std::get_if<net::VerdictRequest>(&request)) {
    std::lock_guard lock(mutex_);
    net::VerdictReply reply;
    // Zombie telemetry is discarded with the same lease test as uploads,
    // so a reassigned sample is never scored twice in the stream.
    reply.accepted = leases_->IsLive(verdict->lease_id, verdict->sample_index);
    if (reply.accepted) {
      ++stats_.verdicts;
      if (verdict->suspicious) ++stats_.suspicious;
    }
    return reply;
  }
  std::lock_guard lock(mutex_);
  return ProgressLocked();
}

net::FleetReply FleetCoordinator::HandleClaim(const net::ClaimRequest& claim) {
  std::lock_guard lock(mutex_);
  if (!fatal_.ok()) return net::ErrorReply{false, fatal_.ToString()};
  const LeaseTable::Grant grant = leases_->Claim(claim.worker_id);
  net::ClaimReply reply;
  reply.done = grant.done;
  if (!grant.has_work) return reply;

  // Write-ahead: the assignment is durable before the worker ever hears
  // about it, so the resumed coordinator's lease-id floor (max_lease_id)
  // covers every id any worker may be holding.
  if (journal_.open()) {
    const Status appended = journal_.AppendAssignment(
        grant.index, claim.worker_id, grant.lease_id);
    if (!appended.ok()) {
      fatal_ = appended;
      done_cv_.notify_all();
      return net::ErrorReply{false, fatal_.ToString()};
    }
    ++assignments_journaled_;
    if (options_.crash_after_assignments > 0 &&
        assignments_journaled_ >= options_.crash_after_assignments) {
      // Chaos hook: die exactly between journaling the assignment and
      // acknowledging it — the worker never learns its lease id, the
      // journal carries an assignment with no report, and resume must
      // reissue the sample.
      (void)::raise(SIGKILL);
    }
  }

  reply.has_work = true;
  reply.sample_index = grant.index;
  reply.sample_name = samples_[grant.index].name;
  reply.sample_digest = sample_digests_[grant.index];
  reply.lease_id = grant.lease_id;
  reply.lease_ms = grant.lease_ms;
  reply.config_digest = config_digest_;
  return reply;
}

net::FleetReply FleetCoordinator::HandleComplete(
    const net::CompleteRequest& complete) {
  std::lock_guard lock(mutex_);
  if (!fatal_.ok()) return net::ErrorReply{false, fatal_.ToString()};

  const bool dedup =
      !complete.request_id.empty() && options_.dedup_window > 0;
  if (dedup) {
    // A retried upload whose first application succeeded but whose reply
    // was lost: answer with the recorded reply, apply nothing twice.
    const auto hit = dedup_replies_.find(complete.request_id);
    if (hit != dedup_replies_.end()) {
      ++stats_.dedup_hits;
      net::CompleteReply replay = hit->second;
      // campaign_done reflects *current* state, not the state when the
      // reply was recorded — a retry of the final upload must still let
      // the worker exit.
      replay.campaign_done = leases_->done();
      return replay;
    }
  }

  const size_t index = static_cast<size_t>(complete.sample_index);
  if (index < sample_digests_.size() &&
      complete.report.sample_digest != sample_digests_[index]) {
    return net::ErrorReply{
        false, StrFormat("report digest %s does not match sample %zu "
                         "(expected %s); is the worker's corpus stale?",
                         complete.report.sample_digest.c_str(), index,
                         sample_digests_[index].c_str())};
  }

  net::CompleteReply reply;
  switch (leases_->Complete(complete.lease_id, index)) {
    case LeaseTable::CompleteOutcome::kStale:
      reply.stale = true;
      break;
    case LeaseTable::CompleteOutcome::kDuplicate:
      reply.duplicate = true;
      break;
    case LeaseTable::CompleteOutcome::kAccepted: {
      // Write-ahead: journal (fsync) before acknowledging, so a report
      // the worker saw accepted can never be lost to a coordinator kill.
      if (journal_.open()) {
        const Status appended = journal_.Append(index, complete.report);
        if (!appended.ok()) {
          fatal_ = appended;
          done_cv_.notify_all();
          return net::ErrorReply{false, fatal_.ToString()};
        }
      }
      done_[index] = complete.report;
      if (ingest_ && !complete.report.vaccines.empty()) {
        // Streaming immunization: extracted vaccines become pullable the
        // moment their sample completes. Store trouble is not allowed to
        // fail the campaign — the journal already holds the report.
        Result<vacstore::PushStats> pushed =
            store_.Push(complete.report.vaccines);
        if (pushed.ok()) {
          stats_.ingested += pushed->added;
        } else {
          ++stats_.ingest_failures;
        }
      }
      reply.accepted = true;
      break;
    }
  }

  reply.campaign_done = leases_->done();
  if (dedup) {
    // Record only after the accepted path is durable, so a dedup hit
    // never vouches for a report the journal does not hold.
    dedup_order_.push_back(complete.request_id);
    dedup_replies_[complete.request_id] = reply;
    while (dedup_order_.size() > options_.dedup_window) {
      dedup_replies_.erase(dedup_order_.front());
      dedup_order_.pop_front();
    }
  }
  if (leases_->done()) done_cv_.notify_all();
  return reply;
}

}  // namespace autovac::fleet
