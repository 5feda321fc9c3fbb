// Write-ahead journal for durable campaigns.
//
// Append-only JSONL: line 1 is a header record binding the journal to a
// specific campaign (journal version, a digest of the pipeline
// configuration, and the digest of every corpus sample in order); every
// subsequent line is one completed SampleReport, fsync'd before the
// campaign moves on. A campaign interrupted by crash, OOM-kill or
// operator Ctrl-C therefore loses at most the sample in flight, and
// `--resume` replays the journal to skip exactly the samples already
// done.
//
// Torn-tail semantics: a crash mid-append leaves a final line that is
// either missing its newline or not valid JSON. Load() drops that tail
// record (reporting it via Replay::torn_tail) and the sample is simply
// re-analyzed on resume. Corruption anywhere *before* the tail is a
// refused resume, not a silent skip.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

#include "support/status.h"
#include "vaccine/pipeline.h"
#include "vm/program.h"

namespace autovac::campaign {

// Version 2: sample reports carry a natural-trace summary (digest and
// call count) in place of the trace text. Load refuses any other version.
inline constexpr uint64_t kJournalVersion = 2;

// Test-only write shim: routes every journal ::write through `shim` so a
// test can force short transfers and spurious EINTR against a real fd —
// the same discipline PR 6's wire shim applies to sockets, here applied
// to the journal. The shim returns the byte count written or -1 with
// errno set. nullptr restores the raw syscall.
using JournalWriteShim = ssize_t (*)(int fd, const char* data, size_t len);
void SetJournalWriteShimForTest(JournalWriteShim shim);

struct JournalHeader {
  uint64_t version = kJournalVersion;
  // Digest over the pipeline configuration + corpus digests; a resume
  // against a different campaign is refused instead of producing a
  // silently mixed report.
  std::string config_digest;
  std::vector<std::string> sample_names;    // corpus order
  std::vector<std::string> sample_digests;  // index-aligned with names
};

// Canonical configuration digest: every PipelineOptions field that
// affects analysis output, plus each sample digest in corpus order.
// `extra` folds in caller-side configuration the options struct cannot
// see (e.g. the CLI's fault seed/rate).
[[nodiscard]] std::string CampaignConfigDigest(
    const vaccine::PipelineOptions& options,
    const std::vector<vm::Program>& samples, std::string_view extra = "");

[[nodiscard]] JournalHeader MakeJournalHeader(
    const vaccine::PipelineOptions& options,
    const std::vector<vm::Program>& samples, std::string_view extra = "");

class CampaignJournal {
 public:
  CampaignJournal() = default;
  ~CampaignJournal();
  CampaignJournal(CampaignJournal&& other) noexcept;
  CampaignJournal& operator=(CampaignJournal&& other) noexcept;
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  // Truncates `path` and writes (and fsyncs) the header record.
  [[nodiscard]] static Result<CampaignJournal> Create(
      const std::string& path, const JournalHeader& header);

  // Opens an existing journal for appending further sample records.
  [[nodiscard]] static Result<CampaignJournal> OpenAppend(
      const std::string& path);

  // Replayed journal state.
  struct Replay {
    JournalHeader header;
    // Index-aligned with the corpus; nullopt = not yet completed.
    std::vector<std::optional<vaccine::SampleReport>> reports;
    size_t completed = 0;
    bool torn_tail = false;  // a torn final record was dropped
    // Fleet coordinator state: how many assignment records were seen and
    // the highest lease id ever issued. A resumed coordinator hands out
    // lease ids strictly above max_lease_id, so no lease id from a prior
    // incarnation can ever be mistaken for a live one.
    size_t assignments = 0;
    uint64_t max_lease_id = 0;
  };

  // Parses the journal at `path`. `corpus_size` bounds the sample index
  // space; records past it are rejected (journal belongs to a bigger
  // campaign — the config digest check in the caller gives the real
  // error, this is the defensive backstop).
  [[nodiscard]] static Result<Replay> Load(const std::string& path,
                                           size_t corpus_size);

  // Appends one completed sample record and fsyncs it to disk. With
  // `sync` false (benchmarks only) the fsync is skipped.
  [[nodiscard]] Status Append(size_t index,
                              const vaccine::SampleReport& report);

  // Appends (and fsyncs) one fleet assignment record: sample `index` is
  // now leased to `worker_id` under `lease_id`. Advisory for resume
  // (assignments without a matching sample record are simply reissued),
  // but the durable lease-id floor: Load's max_lease_id covers it.
  [[nodiscard]] Status AppendAssignment(size_t index,
                                        std::string_view worker_id,
                                        uint64_t lease_id);

  void set_sync(bool sync) { sync_ = sync; }
  [[nodiscard]] bool open() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  bool sync_ = true;
};

}  // namespace autovac::campaign
