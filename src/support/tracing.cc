#include "support/tracing.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "support/metrics.h"
#include "support/strings.h"

namespace autovac {
namespace {

// The default deterministic clock: cumulative instructions retired across
// every VM run in the process (flushed by Cpu::Run).
uint64_t InstructionTicks() {
  static Counter* instructions =
      GlobalMetrics().GetCounter("vm.instructions_retired");
  return instructions->value();
}

}  // namespace

void Tracer::set_tick_clock(TickClock clock) { clock_ = std::move(clock); }

uint64_t Tracer::Ticks() const {
  return clock_ ? clock_() : InstructionTicks();
}

uint64_t Tracer::WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Tracer::BeginSpan(std::string_view name) {
  if (!enabled_) return kNoSpan;
  SpanRecord span;
  span.name_id = names_.Intern(name);
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.depth = static_cast<uint32_t>(open_.size());
  span.start_ticks = Ticks();
  span.start_wall_ns = WallNs();
  const auto id = static_cast<uint64_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(static_cast<uint32_t>(id));
  return id;
}

void Tracer::EndSpan(uint64_t id) {
  if (id == kNoSpan) return;
  AUTOVAC_CHECK_MSG(id < spans_.size(), "EndSpan: bad span id");
  AUTOVAC_CHECK_MSG(!open_.empty() && open_.back() == id,
                    "EndSpan: spans must close innermost-first");
  SpanRecord& span = spans_[id];
  span.end_ticks = Ticks();
  span.end_wall_ns = WallNs();
  span.closed = true;
  open_.pop_back();
}

void Tracer::Clear() {
  spans_.clear();
  open_.clear();
}

std::vector<PhaseTotal> Tracer::PhaseTotals(size_t first_span) const {
  const uint64_t now_ticks = Ticks();
  const uint64_t now_wall = WallNs();
  std::vector<PhaseTotal> costs;
  for (size_t i = first_span; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    costs.push_back(
        {std::string(SpanName(span)), 1,
         (span.closed ? span.end_ticks : now_ticks) - span.start_ticks,
         (span.closed ? span.end_wall_ns : now_wall) - span.start_wall_ns});
  }
  return MergePhaseTotals({&costs});
}

std::vector<PhaseTotal> MergePhaseTotals(
    const std::vector<const std::vector<PhaseTotal>*>& sources) {
  std::map<std::string, PhaseTotal> merged;
  for (const std::vector<PhaseTotal>* source : sources) {
    for (const PhaseTotal& cost : *source) {
      PhaseTotal& total = merged[cost.name];
      total.name = cost.name;
      total.spans += cost.spans;
      total.ticks += cost.ticks;
      total.wall_ns += cost.wall_ns;
    }
  }
  std::vector<PhaseTotal> out;
  out.reserve(merged.size());
  for (auto& [name, total] : merged) out.push_back(std::move(total));
  return out;
}

Tracer& GlobalTracer() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::string ExportChromeTrace(const Tracer& tracer,
                              const ChromeTraceOptions& options) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : tracer.spans()) {
    if (!first) out += ",";
    first = false;
    const uint64_t dur = span.closed ? span.ticks() : 0;
    out += StrFormat(
        "\n{\"name\":\"%s\",\"cat\":\"autovac\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":1,\"ts\":%llu,\"dur\":%llu,\"args\":{\"depth\":%u",
        JsonEscape(tracer.SpanName(span)).c_str(),
        static_cast<unsigned long long>(span.start_ticks),
        static_cast<unsigned long long>(dur), span.depth);
    if (options.include_wall) {
      out += StrFormat(",\"wall_us\":%.3f",
                       static_cast<double>(span.closed ? span.wall_ns() : 0) /
                           1000.0);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace autovac
