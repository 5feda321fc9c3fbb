// Execution traces.
//
// Phase-I logs every executed API with "the precise calling context
// information including the call stack and the caller-PC" (paper §III-B);
// Phase-II's differential analysis aligns two such API traces; the
// determinism analysis walks an instruction-level trace backwards.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "os/resources.h"
#include "vm/cpu.h"

namespace autovac::trace {

// Byte-level dataflow summary of an API call, for the offline backward
// taint tracking (§IV-C): string helpers *copy* bytes between buffers;
// information APIs *define* fresh bytes whose origin class (environment-
// deterministic vs random) decides identifier determinism.
struct DataFlow {
  uint32_t dst = 0;
  uint32_t dst_len = 0;
  uint32_t src = 0;
  uint32_t src_len = 0;
};

enum class DataOrigin : uint8_t {
  kEnvironment = 0,  // per-machine deterministic (computer name, serial)
  kRandom,           // non-deterministic (tick count, temp names, recv)
};

struct DataDefine {
  uint32_t dst = 0;
  uint32_t len = 0;
  DataOrigin origin = DataOrigin::kRandom;
};

// One executed API call.
struct ApiCallRecord {
  std::string api_name;
  uint32_t caller_pc = 0;             // pc of the `sys` instruction
  std::vector<uint32_t> call_stack;   // return pcs, innermost last
  std::vector<std::string> params;    // resolved parameter values (strings
                                      // dereferenced, handles mapped back)
  bool succeeded = false;
  uint32_t result = 0;                // EAX after the call
  uint32_t last_error = 0;

  // Resource annotation (when the API is in the labelling table).
  bool is_resource_api = false;
  os::ResourceType resource_type = os::ResourceType::kFile;
  os::Operation operation = os::Operation::kOpen;
  std::string resource_identifier;    // e.g. the mutex name or file path
  // Where the identifier string lived in VM memory at call time (0 when
  // the identifier came from a handle); anchors the backward analysis.
  uint32_t identifier_addr = 0;
  uint32_t identifier_len = 0;        // including NUL

  // Index of this call within the run (position in the trace).
  uint32_t sequence = 0;

  // Stack argument slots this call actually consumed (differs from the
  // API table for variadic helpers like wsprintfA); the backward slicer
  // pulls exactly these slots into a replayable slice.
  uint8_t stack_args_used = 0;

  // Set by the taint engine when a value tainted by this call later
  // reaches a predicate (cmp/test) — the paper's Phase-I signal.
  bool taint_reached_predicate = false;

  // Byte-level dataflow (string helpers, info APIs); see above.
  std::vector<DataFlow> flows;
  std::vector<DataDefine> defines;
  // Memory spans the call's EAX result was computed from (lstrlen,
  // lstrcmp, crc...): EAX derives from these bytes.
  struct Span {
    uint32_t addr = 0;
    uint32_t len = 0;
  };
  std::vector<Span> eax_sources;

  // True when a hook (mutation or vaccine daemon) overrode the result.
  bool was_forced = false;

  // True when the fault-injection layer failed the call (chaos campaigns,
  // simulated resource exhaustion) — distinct from was_forced so the
  // differential analyses can tell vaccines from injected environment
  // failures.
  bool fault_injected = false;
};

// A full API trace for one run.
struct ApiTrace {
  std::vector<ApiCallRecord> calls;
  vm::StopReason stop_reason = vm::StopReason::kRunning;
  uint64_t cycles_used = 0;

  [[nodiscard]] size_t size() const { return calls.size(); }

  // Number of native calls, the BDR metric's N (paper §VI-E).
  [[nodiscard]] size_t NativeCallCount() const { return calls.size(); }

  // All calls to APIs with the given name.
  [[nodiscard]] std::vector<const ApiCallRecord*> FindCalls(
      std::string_view api_name) const;

  [[nodiscard]] bool ContainsApi(std::string_view api_name) const;
};

// One retired instruction plus its dataflow facts; enough to run the
// backward taint tracking after the run, on the logged trace, like the
// paper ("we perform the analysis offline on logged traces").
struct InstructionRecord {
  vm::StepInfo step;
  // Which API call (sequence number in the ApiTrace) this `sys`
  // instruction produced, or UINT32_MAX.
  uint32_t api_sequence = UINT32_MAX;
};

struct InstructionTrace {
  std::vector<InstructionRecord> records;

  [[nodiscard]] size_t size() const { return records.size(); }
};

// Renders a one-line summary of a call for logs and reports.
[[nodiscard]] std::string FormatApiCall(const ApiCallRecord& call);

}  // namespace autovac::trace
