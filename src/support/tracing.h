// Span-based phase tracer with a deterministic clock.
//
// The tick clock is the cumulative VM instruction counter (the metrics
// registry's "vm.instructions_retired"), not wall time, so two pipeline
// runs under the same seeds produce byte-identical span trees — the
// property the chaos harness asserts and every replay-based test relies
// on. Wall time is recorded alongside each span for human consumption
// (Chrome trace args, BENCH json) but must never appear in a field that
// tests compare, and never drives control flow.
//
// The tracer is intentionally single-threaded, like the pipeline it
// instruments: spans form one stack. When disabled (the default),
// BeginSpan costs exactly one branch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "support/interner.h"

namespace autovac {

inline constexpr uint64_t kNoSpan = UINT64_MAX;
inline constexpr uint32_t kNoParent = UINT32_MAX;

struct SpanRecord {
  uint32_t name_id = 0;        // interned via the tracer
  uint32_t parent = kNoParent; // index of the enclosing span
  uint32_t depth = 0;
  bool closed = false;
  // Deterministic clock (instructions retired).
  uint64_t start_ticks = 0;
  uint64_t end_ticks = 0;
  // Wall clock, ns — informational only, never compared by tests.
  uint64_t start_wall_ns = 0;
  uint64_t end_wall_ns = 0;

  [[nodiscard]] uint64_t ticks() const { return end_ticks - start_ticks; }
  [[nodiscard]] uint64_t wall_ns() const {
    return end_wall_ns - start_wall_ns;
  }
};

// Aggregate cost of every span sharing one name (inclusive time).
struct PhaseTotal {
  std::string name;
  uint64_t spans = 0;
  uint64_t ticks = 0;    // deterministic
  uint64_t wall_ns = 0;  // informational
};

// Sums rollups by phase name, sorted by name: the one fold behind
// Tracer::PhaseTotals, campaign totals over per-sample rollups, and a
// campaign's totals plus the supervisor's own clinic spans.
[[nodiscard]] std::vector<PhaseTotal> MergePhaseTotals(
    const std::vector<const std::vector<PhaseTotal>*>& sources);

class Tracer {
 public:
  using TickClock = std::function<uint64_t()>;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Replaces the deterministic clock (default: the process-wide
  // vm.instructions_retired counter). Must be monotonic non-decreasing.
  void set_tick_clock(TickClock clock);

  // Opens a span nested under the currently open one. Returns kNoSpan
  // when disabled; EndSpan(kNoSpan) is a no-op, so call sites need no
  // enabled() checks of their own.
  [[nodiscard]] uint64_t BeginSpan(std::string_view name);

  // Closes `id`, which must be the innermost open span (RAII via
  // ScopedSpan guarantees this, including during unwinding).
  void EndSpan(uint64_t id);

  // Drops all spans (open and closed). Interned names survive.
  void Clear();

  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }
  [[nodiscard]] const std::string& SpanName(const SpanRecord& span) const {
    return names_.Lookup(span.name_id);
  }
  [[nodiscard]] size_t open_spans() const { return open_.size(); }

  // Inclusive per-name totals over spans_[first_span..], sorted by name.
  // Open spans are charged up to the current clock.
  [[nodiscard]] std::vector<PhaseTotal> PhaseTotals(
      size_t first_span = 0) const;

 private:
  [[nodiscard]] uint64_t Ticks() const;
  static uint64_t WallNs();

  bool enabled_ = false;
  TickClock clock_;
  StringInterner names_;
  std::vector<SpanRecord> spans_;
  std::vector<uint32_t> open_;  // stack of indices into spans_
};

// RAII span; safe to construct against a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name)
      : tracer_(tracer), id_(tracer.BeginSpan(name)) {}
  ~ScopedSpan() { tracer_.EndSpan(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  uint64_t id_;
};

// The process-wide tracer the pipeline and clinic write to.
[[nodiscard]] Tracer& GlobalTracer();

struct ChromeTraceOptions {
  // Attach wall-clock durations under "args". Turn off to make the
  // export byte-identical across identically seeded runs.
  bool include_wall = true;
};

// Serializes the span list in Chrome trace_event JSON ("X" complete
// events; ts/dur are deterministic ticks). Load via chrome://tracing or
// Perfetto.
[[nodiscard]] std::string ExportChromeTrace(
    const Tracer& tracer, const ChromeTraceOptions& options = {});

}  // namespace autovac
