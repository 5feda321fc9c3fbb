#include "campaign/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <utility>

#include "campaign/worker.h"
#include "net/frame.h"
#include "support/strings.h"
#include "vaccine/json.h"

namespace autovac::campaign {
namespace {

using Clock = std::chrono::steady_clock;

// One in-flight forked worker.
struct Slot {
  pid_t pid = -1;
  int fd = -1;  // read end of the report pipe
  size_t index = 0;
  size_t attempt = 0;
  net::FrameDecoder decoder;  // the report frame
  Clock::time_point deadline{};
  bool has_deadline = false;
  bool deadline_killed = false;
  bool eof = false;
};

Status DescribeDeath(const Slot& slot, int wait_status,
                     const CampaignOptions& options,
                     vaccine::SampleDisposition* disposition) {
  if (slot.deadline_killed) {
    *disposition = vaccine::SampleDisposition::kDeadlineExceeded;
    return Status::DeadlineExceeded(
        StrFormat("sample exceeded the %llu ms wall-clock deadline",
                  static_cast<unsigned long long>(options.sample_deadline_ms)));
  }
  *disposition = vaccine::SampleDisposition::kWorkerCrashed;
  if (WIFSIGNALED(wait_status)) {
    return Status::Internal(
        StrFormat("worker killed by signal %d", WTERMSIG(wait_status)));
  }
  if (WIFEXITED(wait_status)) {
    return Status::Internal(StrFormat(
        "worker exited with status %d without delivering a report",
        WEXITSTATUS(wait_status)));
  }
  return Status::Internal("worker vanished without delivering a report");
}

// Drains the pipe into the slot buffer; sets slot.eof once the child's
// write end is closed (i.e. the child exited or was killed).
Status DrainPipe(Slot& slot) {
  char chunk[1 << 16];
  while (true) {
    const ssize_t n = ::read(slot.fd, chunk, sizeof(chunk));
    if (n > 0) {
      if (slot.decoder.buffered() + static_cast<size_t>(n) >
          net::kMaxNetFramePayload + net::kNetFrameHeaderSize) {
        return Status::Internal("worker frame exceeds the payload bound");
      }
      slot.decoder.Append(std::string_view(chunk, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      slot.eof = true;
      return Status::Ok();
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
    return Status::Internal(StrFormat("worker pipe read failed: %s",
                                      std::strerror(errno)));
  }
}

}  // namespace

Result<CampaignRun> RunDurableCampaign(
    const vaccine::VaccinePipeline& pipeline,
    const std::vector<vm::Program>& samples, const CampaignOptions& options) {
  if (options.jobs == 0) {
    return Status::InvalidArgument("campaign requires at least one job");
  }
  if (options.resume && options.journal_path.empty()) {
    return Status::InvalidArgument("resume requires a journal path");
  }

  CampaignRun run;
  std::vector<std::optional<vaccine::SampleReport>> done(samples.size());

  // --- Journal setup -----------------------------------------------------
  CampaignJournal journal;
  const bool journaling = !options.journal_path.empty();
  if (journaling) {
    CampaignJournal::Replay replay;
    AUTOVAC_ASSIGN_OR_RETURN(
        journal,
        CampaignJournal::Open(options.journal_path,
                              MakeJournalHeader(pipeline.options(), samples,
                                                options.config_extra),
                              options.resume, &replay));
    done = std::move(replay.reports);
    run.stats.samples_loaded = replay.completed;
  }

  // Pending work, corpus order. Each entry is (sample index, attempt).
  std::deque<std::pair<size_t, size_t>> queue;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (!done[i].has_value()) queue.emplace_back(i, 0);
  }

  size_t budget = options.stop_after == 0 ? samples.size() : options.stop_after;
  bool stopping = false;

  // Records a finished sample: journal first (write-ahead), then mark
  // done. A sample only counts as completed once its record is durable.
  auto complete = [&](size_t index, vaccine::SampleReport report) -> Status {
    if (journaling) {
      AUTOVAC_RETURN_IF_ERROR(journal.Append(index, report));
    }
    done[index] = std::move(report);
    ++run.stats.samples_analyzed;
    if (budget > 0) --budget;
    if (budget == 0) stopping = true;
    return Status::Ok();
  };

  if (!options.WorkerMode()) {
    // ---- In-process mode: the exact AnalyzeCampaign loop, plus
    // journaling. Byte-for-byte identical output for jobs=1.
    while (!queue.empty() && !stopping) {
      const size_t index = queue.front().first;
      queue.pop_front();
      AUTOVAC_RETURN_IF_ERROR(
          complete(index, vaccine::AnalyzeIsolated(pipeline, samples[index])));
    }
  } else {
    // ---- Worker mode: fork one child per attempt, poll the report
    // pipes, enforce deadlines, retry / quarantine on death.
    std::vector<Slot> slots;
    std::vector<size_t> kills(samples.size(), 0);

    auto launch = [&](size_t index, size_t attempt) -> Status {
      int fds[2];
      if (::pipe(fds) != 0) {
        return Status::Internal(StrFormat("pipe failed: %s",
                                          std::strerror(errno)));
      }
      const pid_t pid = ::fork();
      if (pid < 0) {
        const int err = errno;
        ::close(fds[0]);
        ::close(fds[1]);
        return Status::Internal(StrFormat("fork failed: %s",
                                          std::strerror(err)));
      }
      if (pid == 0) {
        ::close(fds[0]);
        if (options.worker_test_hook) options.worker_test_hook(index, attempt);
        RunWorkerChild(pipeline, samples[index], attempt, fds[1]);
      }
      ::close(fds[1]);
      const int flags = ::fcntl(fds[0], F_GETFL, 0);
      (void)::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
      Slot slot;
      slot.pid = pid;
      slot.fd = fds[0];
      slot.index = index;
      slot.attempt = attempt;
      if (options.sample_deadline_ms > 0) {
        slot.has_deadline = true;
        slot.deadline = Clock::now() +
                        std::chrono::milliseconds(options.sample_deadline_ms);
      }
      slots.push_back(std::move(slot));
      return Status::Ok();
    };

    // Reaps one finished slot: decode its frame if it delivered one,
    // otherwise apply the death policy (retry with backoff, quarantine,
    // or record the failure).
    auto finalize = [&](Slot& slot) -> Status {
      int wait_status = 0;
      while (::waitpid(slot.pid, &wait_status, 0) < 0 && errno == EINTR) {
      }
      ::close(slot.fd);
      slot.fd = -1;

      // Exactly one complete frame, nothing after it: anything else
      // (and an unparsable report) is a worker malfunction, treated like
      // a crash so the retry/quarantine policy applies.
      std::string frame;
      const Result<bool> got = slot.decoder.Next(&frame);
      if (got.ok() && *got && slot.decoder.buffered() == 0) {
        auto report = vaccine::ParseSampleReportJson(frame);
        if (report.ok()) {
          return complete(slot.index, std::move(report).value());
        }
      }

      vaccine::SampleDisposition disposition;
      Status cause = DescribeDeath(slot, wait_status, options, &disposition);
      if (slot.deadline_killed) {
        ++run.stats.deadline_kills;
      } else {
        ++run.stats.workers_crashed;
      }
      ++kills[slot.index];

      if (kills[slot.index] >= options.quarantine_after_kills) {
        ++run.stats.samples_quarantined;
        return complete(
            slot.index,
            vaccine::FailedSampleReport(
                samples[slot.index], vaccine::SampleDisposition::kQuarantined,
                Status::FailedPrecondition(StrFormat(
                    "quarantined after %zu worker deaths; last: %s",
                    kills[slot.index], cause.message().c_str()))));
      }
      if (slot.attempt < options.max_worker_retries) {
        ++run.stats.worker_retries;
        // Front of the queue: retries jump ahead of fresh samples so a
        // sample's fate settles before the campaign moves on.
        queue.emplace_front(slot.index, slot.attempt + 1);
        return Status::Ok();
      }
      return complete(slot.index,
                      vaccine::FailedSampleReport(samples[slot.index],
                                                  disposition,
                                                  std::move(cause)));
    };

    Status loop_error = Status::Ok();
    while (!slots.empty() || (!queue.empty() && !stopping)) {
      if (!loop_error.ok()) {
        // A journal/fork failure mid-flight: stop launching, but still
        // reap everything in flight before reporting it.
        stopping = true;
      }
      // Each attempt in flight may complete a sample, so never run more of
      // them than the stop-after budget has left.
      while (loop_error.ok() && !stopping && slots.size() < options.jobs &&
             slots.size() < budget && !queue.empty()) {
        const auto [index, attempt] = queue.front();
        queue.pop_front();
        loop_error = launch(index, attempt);
      }
      if (slots.empty()) break;

      // Poll timeout: time until the earliest live deadline.
      int timeout_ms = -1;
      const Clock::time_point now = Clock::now();
      for (const Slot& slot : slots) {
        if (!slot.has_deadline || slot.deadline_killed) continue;
        const auto remain =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                slot.deadline - now)
                .count();
        const int ms = static_cast<int>(std::max<long long>(remain, 0)) + 1;
        timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
      }

      std::vector<pollfd> fds(slots.size());
      for (size_t i = 0; i < slots.size(); ++i) {
        fds[i] = {slots[i].fd, POLLIN, 0};
      }
      if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
        return Status::Internal(StrFormat("poll failed: %s",
                                          std::strerror(errno)));
      }

      const Clock::time_point after = Clock::now();
      for (size_t i = 0; i < slots.size(); ++i) {
        Slot& slot = slots[i];
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          const Status drained = DrainPipe(slot);
          if (!drained.ok()) {
            // Unreadable pipe: kill the worker; finalize() records it.
            ::kill(slot.pid, SIGKILL);
            slot.eof = true;
          }
        }
        if (slot.has_deadline && !slot.deadline_killed && !slot.eof &&
            after >= slot.deadline) {
          ::kill(slot.pid, SIGKILL);
          slot.deadline_killed = true;
        }
      }

      for (size_t i = slots.size(); i-- > 0;) {
        if (!slots[i].eof) continue;
        Slot finished = std::move(slots[i]);
        slots.erase(slots.begin() + static_cast<long>(i));
        const Status status = finalize(finished);
        if (!status.ok() && loop_error.ok()) loop_error = status;
      }
    }
    AUTOVAC_RETURN_IF_ERROR(loop_error);
  }

  run.stats.interrupted = stopping && (!queue.empty() ||
                                       run.stats.samples_loaded +
                                               run.stats.samples_analyzed <
                                           samples.size());

  std::vector<vaccine::SampleReport> reports;
  reports.reserve(samples.size());
  for (std::optional<vaccine::SampleReport>& report : done) {
    if (report.has_value()) reports.push_back(std::move(*report));
  }
  run.report = vaccine::BuildCampaignReport(std::move(reports));
  return run;
}

}  // namespace autovac::campaign
