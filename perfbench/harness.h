// Shared machinery of the end-to-end benchmark: options, metric records,
// percentiles, rusage, the host-drift canary, fork-and-collect, the
// in-memory span log, and the per-seed reference-report cache.
//
// Every workload measures the system from outside, through the public
// entry points of src/: the benchmark times calls, counts what they
// return and checks the outputs; nothing in src/ knows it is measured.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Milliseconds on the steady clock (CLOCK_MONOTONIC, so timestamps taken
// in different processes of one run are comparable).
[[nodiscard]] double NowMs();
[[nodiscard]] double MsSince(Clock::time_point start);

struct Options {
  std::string workload;
  uint64_t seed = 2013;
  double seconds = 10;
  bool trace = false;
  // Small inputs for the benchmark's own self-check (selfcheck.py).
  bool small = false;
  // Self-check fault injection: "report" flips one byte of a produced
  // report before it is checked; "vacd" makes the model expect a wrong
  // reply to every literal-hit query.
  std::string inject;
  std::string workdir;    // per-run scratch directory (relative path)
  std::string refdir;     // reference-report cache, shared across runs
  std::string trace_out;  // Chrome trace_event span file (traced runs)
  size_t nproc = 1;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// What one workload measured and how many of its operations failed.
struct Outcome {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // output-check failures, for stderr

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records `count` failed operations with a reason.
  void Fail(uint64_t count, const std::string& why);
  // Folds another outcome's metrics, counts and errors into this one.
  void Merge(const Outcome& other);
};

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
// empty. With n = 1716 and q = 0.99 it leaves 17 values beyond.
[[nodiscard]] double Percentile(std::vector<double> values, double q);
[[nodiscard]] double Median(std::vector<double> values);

struct Usage {
  double user_ms = 0;
  double sys_ms = 0;
  double maxrss_mb = 0;
  double minflt = 0;
};
[[nodiscard]] Usage SelfUsage();
// Children that have terminated and been waited for (and their waited
// descendants).
[[nodiscard]] Usage ChildrenUsage();

// Host-drift canary: a fixed integer loop plus a 1 MiB memcpy loop.
[[nodiscard]] double HostRefMs();

// Moves the calling thread round the CPUs the process may use, to the
// next one every `every` steps, starting `offset` CPUs in; restores the
// thread's CPU mask when destroyed. On a shared host each vCPU can run
// cache-heavy code at its own speed for ten seconds or more at a time
// (whatever shares its physical core), so a single-threaded pass left on
// one vCPU takes on that vCPU's speed; rotating averages every pass over
// all of them (see README.md, "Host modes were vCPU states").
class CpuRotation {
 public:
  CpuRotation(size_t every, size_t offset);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  // Call before step `step` (0, 1, 2, ...); moves at every `every`-th.
  void Step(size_t step);

 private:
  std::vector<int> cpus_;
  size_t every_;
  size_t offset_;
};

// Named numbers and number lists shipped from a forked child.
class Record {
 public:
  void Set(const std::string& key, double value) { nums_[key] = value; }
  [[nodiscard]] double Get(const std::string& key) const;
  std::vector<double>& List(const std::string& key) { return lists_[key]; }
  [[nodiscard]] const std::vector<double>& List(const std::string& key) const;

  [[nodiscard]] std::string Encode() const;
  [[nodiscard]] static Record Decode(const std::string& text);

 private:
  std::map<std::string, double> nums_;
  std::map<std::string, std::vector<double>> lists_;
};

// Runs `body` in a forked child and returns the Record it produced, or
// nullopt when the child crashed or exited non-zero. `poll`, when set, is
// called every ~2 ms while the child runs. The caller must not have
// started any thread (fork before threads; see README.md).
[[nodiscard]] std::optional<Record> RunInChild(
    const std::function<Record()>& body,
    const std::function<void()>& poll = nullptr);

// Forks a child that runs `body` and _exits with its return code.
[[nodiscard]] pid_t ForkProcess(const std::function<int()>& body);
// Waits for `pid`; true when it exited with status 0.
bool Reap(pid_t pid);

// In-memory spans (name, start, end, parent, sample/request id), written
// out as a Chrome trace_event file when the run ends. Thread-safe.
class SpanLog {
 public:
  // Opens a span under the calling thread's innermost open span.
  size_t Open(const std::string& name, uint64_t id);
  // Closes span `index`; returns its duration in milliseconds.
  double Close(size_t index);
  // Self time (duration minus the time its children cover), summed per
  // span name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> SelfMs() const;
  [[nodiscard]] bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = -1;
    int64_t parent = -1;
    uint64_t id = 0;
    uint32_t tid = 0;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// The process-wide span log of a traced run.
SpanLog& Spans();

// Writes this process's spans to `<workdir>/spans-<part>.json` (main.cc
// merges the parts into one file) and prints their self times to stderr.
void SaveSpans(const Options& options, const std::string& part);

class ScopedSpan {
 public:
  ScopedSpan(const std::string& name, uint64_t id)
      : index_(Spans().Open(name, id)) {}
  ~ScopedSpan() {
    if (!closed_) (void)Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  // Closes early; returns the span's duration in milliseconds.
  double Close() {
    closed_ = true;
    return Spans().Close(index_);
  }

 private:
  size_t index_;
  bool closed_ = false;
};

// Reports as digests (HexDigest128 of each SampleReportToJson line and of
// the whole CampaignReportToJson text): comparing digests keeps ~60 MB of
// report text per pass off the disk, where its writeback would disturb
// the next run.
struct ReportDigests {
  std::vector<std::string> samples;
  std::string campaign;
};
// Where the in-process reference for this seed, corpus size and build
// is cached.
[[nodiscard]] std::string ReferencePath(const Options& options, size_t total);
[[nodiscard]] bool WriteDigests(const std::string& path,
                                const ReportDigests& digests);
[[nodiscard]] std::optional<ReportDigests> ReadDigests(const std::string& path);
// Writes through a temporary file and a rename, so concurrent readers
// never see a partial reference.
[[nodiscard]] bool StoreReference(const std::string& path,
                                  const ReportDigests& reference);
// Compares produced reports with the reference: every differing sample
// is one failed operation; a differing campaign text fails the check.
void CheckAgainstReference(const ReportDigests& produced,
                           const ReportDigests& want, const std::string& what,
                           Outcome& outcome);

[[nodiscard]] bool ReadFile(const std::string& path, std::string* out);
[[nodiscard]] bool WriteFile(const std::string& path, const std::string& data);
void MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);

}  // namespace perfbench
