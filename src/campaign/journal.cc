#include "campaign/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include "support/digest.h"
#include "support/json.h"
#include "support/strings.h"
#include "vaccine/json.h"

namespace autovac::campaign {
namespace {

// Test seam for the write path; nullptr (production) is the raw syscall.
// Relaxed atomics: tests install the shim before any journal activity.
std::atomic<JournalWriteShim> g_write_shim{nullptr};

// EINTR/partial-write audit (mirrors net/frame.cc): a journal append may
// be split across many ::write calls — a signal can interrupt before any
// byte moves (EINTR, retried) or after a prefix landed (short count, the
// loop continues from `written`). A failure mid-record leaves a torn
// tail, which Load drops by design; bytes are only acknowledged as
// durable once the whole line *and* its fsync complete. A zero-byte
// write (possible only for a zero-length buffer, which the callers never
// pass) would loop forever, so it is rejected defensively.
Status WriteAll(int fd, std::string_view bytes) {
  const JournalWriteShim shim = g_write_shim.load(std::memory_order_relaxed);
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        shim != nullptr
            ? shim(fd, bytes.data() + written, bytes.size() - written)
            : ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrFormat("journal write failed: %s",
                                        std::strerror(errno)));
    }
    if (n == 0) {
      return Status::Internal("journal write made no progress");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

std::string HeaderToJson(const JournalHeader& header) {
  std::string out = StrFormat(
      "{\"type\":\"header\",\"version\":%llu,\"config_digest\":\"%s\","
      "\"samples\":[",
      static_cast<unsigned long long>(header.version),
      JsonEscape(header.config_digest).c_str());
  for (size_t i = 0; i < header.sample_names.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("{\"name\":\"%s\",\"digest\":\"%s\"}",
                     JsonEscape(header.sample_names[i]).c_str(),
                     JsonEscape(header.sample_digests[i]).c_str());
  }
  out += "]}";
  return out;
}

Result<JournalHeader> HeaderFromJson(const JsonValue& json) {
  JournalHeader header;
  AUTOVAC_ASSIGN_OR_RETURN(const std::string type,
                           JsonFieldString(json, "type"));
  if (type != "header") {
    return Status::InvalidArgument("first journal record is not a header");
  }
  AUTOVAC_ASSIGN_OR_RETURN(header.version,
                           JsonFieldUint64(json, "version"));
  if (header.version != kJournalVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported journal version %llu",
                  static_cast<unsigned long long>(header.version)));
  }
  AUTOVAC_ASSIGN_OR_RETURN(header.config_digest,
                           JsonFieldString(json, "config_digest"));
  const JsonValue* samples = json.Find("samples");
  if (samples == nullptr || !samples->is_array()) {
    return Status::InvalidArgument("journal header has no samples array");
  }
  for (const JsonValue& sample : samples->array) {
    AUTOVAC_ASSIGN_OR_RETURN(std::string name,
                             JsonFieldString(sample, "name"));
    AUTOVAC_ASSIGN_OR_RETURN(std::string digest,
                             JsonFieldString(sample, "digest"));
    header.sample_names.push_back(std::move(name));
    header.sample_digests.push_back(std::move(digest));
  }
  return header;
}

}  // namespace

void SetJournalWriteShimForTest(JournalWriteShim shim) {
  g_write_shim.store(shim, std::memory_order_relaxed);
}

std::string CampaignConfigDigest(const vaccine::PipelineOptions& options,
                                 const std::vector<vm::Program>& samples,
                                 std::string_view extra) {
  std::string canonical = StrFormat(
      "autovac-campaign-v1 phase1_budget=%llu impact_budget=%llu "
      "min_literal=%zu track_cd=%d run_exclusiveness=%d max_targets=%zu "
      "machine_seed=%llu max_call_depth=%u max_api_calls=%llu "
      "max_inst_records=%zu max_api_records=%zu max_impact_retries=%zu "
      "extra=",
      static_cast<unsigned long long>(options.phase1_budget),
      static_cast<unsigned long long>(options.impact.cycle_budget),
      options.determinism.min_literal_chars,
      options.determinism.track_control_dependence ? 1 : 0,
      options.run_exclusiveness ? 1 : 0, options.max_targets,
      static_cast<unsigned long long>(options.machine_seed),
      options.limits.max_call_depth,
      static_cast<unsigned long long>(options.limits.max_api_calls),
      options.limits.max_instruction_records, options.limits.max_api_records,
      options.max_impact_retries);
  canonical += extra;
  canonical += "\n";
  for (const vm::Program& sample : samples) {
    canonical += sample.Digest();
    canonical += "\n";
  }
  return HexDigest128(canonical);
}

JournalHeader MakeJournalHeader(const vaccine::PipelineOptions& options,
                                const std::vector<vm::Program>& samples,
                                std::string_view extra) {
  JournalHeader header;
  header.config_digest = CampaignConfigDigest(options, samples, extra);
  header.sample_names.reserve(samples.size());
  header.sample_digests.reserve(samples.size());
  for (const vm::Program& sample : samples) {
    header.sample_names.push_back(sample.name);
    header.sample_digests.push_back(sample.Digest());
  }
  return header;
}

CampaignJournal::~CampaignJournal() {
  if (fd_ >= 0) ::close(fd_);
}

CampaignJournal::CampaignJournal(CampaignJournal&& other) noexcept
    : fd_(other.fd_), sync_(other.sync_) {
  other.fd_ = -1;
}

CampaignJournal& CampaignJournal::operator=(
    CampaignJournal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    sync_ = other.sync_;
    other.fd_ = -1;
  }
  return *this;
}

Result<CampaignJournal> CampaignJournal::Create(const std::string& path,
                                                const JournalHeader& header) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(StrFormat("cannot create journal %s: %s",
                                      path.c_str(), std::strerror(errno)));
  }
  CampaignJournal journal;
  journal.fd_ = fd;
  AUTOVAC_RETURN_IF_ERROR(WriteAll(fd, HeaderToJson(header) + "\n"));
  if (::fsync(fd) != 0) {
    return Status::Internal(StrFormat("journal fsync failed: %s",
                                      std::strerror(errno)));
  }
  return journal;
}

Result<CampaignJournal> CampaignJournal::Open(const std::string& path,
                                              const JournalHeader& header,
                                              bool resume, Replay* replay) {
  if (!resume) {
    *replay = Replay{};
    replay->reports.resize(header.sample_names.size());
    return Create(path, header);
  }
  AUTOVAC_ASSIGN_OR_RETURN(*replay, Load(path, header.sample_names.size()));
  if (replay->header.config_digest != header.config_digest) {
    return Status::FailedPrecondition(StrFormat(
        "journal %s belongs to a different campaign "
        "(config digest %s, expected %s); refusing to resume",
        path.c_str(), replay->header.config_digest.c_str(),
        header.config_digest.c_str()));
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return Status::NotFound(StrFormat("cannot open journal %s: %s",
                                      path.c_str(), std::strerror(errno)));
  }
  CampaignJournal journal;
  journal.fd_ = fd;
  return journal;
}

Result<CampaignJournal::Replay> CampaignJournal::Load(
    const std::string& path, size_t corpus_size) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound(StrFormat("cannot read journal %s: %s",
                                      path.c_str(), std::strerror(errno)));
  }
  std::string text;
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::Internal(StrFormat("journal read failed: %s",
                                        std::strerror(err)));
    }
    if (n == 0) break;
    text.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);

  // Split into lines; a final chunk without '\n' is a torn tail.
  std::vector<std::string_view> lines;
  bool tail_unterminated = false;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      lines.emplace_back(text.data() + pos, text.size() - pos);
      tail_unterminated = true;
      break;
    }
    lines.emplace_back(text.data() + pos, eol - pos);
    pos = eol + 1;
  }
  if (lines.empty()) {
    return Status::InvalidArgument("journal is empty: " + path);
  }

  Replay replay;
  replay.reports.resize(corpus_size);

  for (size_t i = 0; i < lines.size(); ++i) {
    const bool is_tail = (i + 1 == lines.size());
    auto parsed = ParseJson(lines[i]);
    if (!parsed.ok()) {
      if (is_tail) {
        // Torn final record: the append was interrupted mid-write. Drop
        // it; the sample will be re-analyzed.
        replay.torn_tail = true;
        break;
      }
      return Status::InvalidArgument(
          StrFormat("journal record %zu is corrupt (%s)", i,
                    parsed.status().message().c_str()));
    }
    if (is_tail && tail_unterminated) {
      // Parsed but unterminated: the newline (written in the same
      // syscall) is missing, so treat it as torn anyway — the record
      // cannot have been acknowledged as durable.
      replay.torn_tail = true;
      break;
    }
    if (i == 0) {
      AUTOVAC_ASSIGN_OR_RETURN(replay.header,
                               HeaderFromJson(parsed.value()));
      continue;
    }
    auto type = JsonFieldString(parsed.value(), "type");
    if (!type.ok() || (type.value() != "sample" && type.value() != "assign")) {
      return Status::InvalidArgument(
          StrFormat("journal record %zu has bad type", i));
    }
    AUTOVAC_ASSIGN_OR_RETURN(const uint64_t index,
                             JsonFieldUint64(parsed.value(), "index"));
    if (index >= corpus_size) {
      return Status::InvalidArgument(
          StrFormat("journal record %zu: sample index %llu out of range",
                    i, static_cast<unsigned long long>(index)));
    }
    if (type.value() == "assign") {
      // Fleet assignment: advisory (the sample is reissued if no sample
      // record follows), but the lease-id floor must survive resume.
      AUTOVAC_ASSIGN_OR_RETURN(const uint64_t lease,
                               JsonFieldUint64(parsed.value(), "lease"));
      ++replay.assignments;
      if (lease > replay.max_lease_id) replay.max_lease_id = lease;
      continue;
    }
    const JsonValue* report_json = parsed.value().Find("report");
    if (report_json == nullptr) {
      return Status::InvalidArgument(
          StrFormat("journal record %zu has no report", i));
    }
    AUTOVAC_ASSIGN_OR_RETURN(vaccine::SampleReport report,
                             vaccine::SampleReportFromJson(*report_json));
    if (!replay.reports[index].has_value()) ++replay.completed;
    replay.reports[index] = std::move(report);
  }
  return replay;
}

Status CampaignJournal::Append(size_t index,
                               const vaccine::SampleReport& report) {
  if (fd_ < 0) return Status::FailedPrecondition("journal is not open");
  const std::string line = StrFormat(
      "{\"type\":\"sample\",\"index\":%zu,\"report\":%s}\n", index,
      vaccine::SampleReportToJson(report).c_str());
  AUTOVAC_RETURN_IF_ERROR(WriteAll(fd_, line));
  if (sync_ && ::fsync(fd_) != 0) {
    return Status::Internal(StrFormat("journal fsync failed: %s",
                                      std::strerror(errno)));
  }
  return Status::Ok();
}

Status CampaignJournal::AppendAssignment(size_t index,
                                         std::string_view worker_id,
                                         uint64_t lease_id) {
  if (fd_ < 0) return Status::FailedPrecondition("journal is not open");
  const std::string line = StrFormat(
      "{\"type\":\"assign\",\"index\":%zu,\"worker\":\"%s\",\"lease\":%llu}\n",
      index, JsonEscape(worker_id).c_str(),
      static_cast<unsigned long long>(lease_id));
  AUTOVAC_RETURN_IF_ERROR(WriteAll(fd_, line));
  if (sync_ && ::fsync(fd_) != 0) {
    return Status::Internal(StrFormat("journal fsync failed: %s",
                                      std::strerror(errno)));
  }
  return Status::Ok();
}

}  // namespace autovac::campaign
