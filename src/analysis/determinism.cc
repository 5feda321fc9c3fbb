#include "analysis/determinism.h"

#include <array>
#include <set>

#include "sandbox/api_ids.h"
#include "support/strings.h"
#include "vm/dataflow.h"
#include "vm/memory.h"

namespace autovac::analysis {
namespace {

using vm::Op;
using vm::Reg;

char OriginChar(ByteOrigin origin) {
  switch (origin) {
    case ByteOrigin::kStatic: return 'S';
    case ByteOrigin::kEnvironment: return 'E';
    case ByteOrigin::kRandom: return 'R';
  }
  return '?';
}

ByteOrigin FromDataOrigin(trace::DataOrigin origin) {
  return origin == trace::DataOrigin::kEnvironment ? ByteOrigin::kEnvironment
                                                   : ByteOrigin::kRandom;
}

// ---------------------------------------------------------------------
// Forward origin pass: the opcode table's propagation policy
// (vm::PropagateStep) over three origin classes, joined by severity. The
// tracker is the byte-origin Shadow; only its `sys` handling is its own.
// ---------------------------------------------------------------------
class OriginTracker {
 public:
  using Value = ByteOrigin;

  explicit OriginTracker(bool track_control_dependence = false)
      : track_control_(track_control_dependence) {}

  void Step(const trace::InstructionRecord& record,
            const trace::ApiTrace& api_trace) {
    const vm::StepInfo& step = record.step;
    const ByteOrigin control =
        track_control_ ? region_.Step(step, *this) : ByteOrigin::kStatic;
    vm::PropagateStep(step, *this, control, /*propagate_addresses=*/false);
    if (step.inst.op == Op::kSys) StepSys(record, api_trace);
  }

  // --- the Shadow interface (vm/dataflow.h) ---
  static ByteOrigin Union(ByteOrigin a, ByteOrigin b) { return a > b ? a : b; }
  [[nodiscard]] ByteOrigin Reg(vm::Reg reg) const {
    return reg == vm::Reg::kNone ? ByteOrigin::kStatic
                                 : regs_[static_cast<size_t>(reg)];
  }
  void SetReg(vm::Reg reg, ByteOrigin origin) {
    if (reg != vm::Reg::kNone) regs_[static_cast<size_t>(reg)] = origin;
  }
  [[nodiscard]] ByteOrigin Flags() const { return flags_; }
  void SetFlags(ByteOrigin origin) { flags_ = origin; }
  [[nodiscard]] ByteOrigin RangeUnion(uint32_t addr, uint32_t size) const {
    ByteOrigin origin = ByteOrigin::kStatic;
    for (uint32_t i = 0; i < size && addr + i < vm::kMemSize; ++i) {
      origin = Union(origin, mem_.Get(addr + i));
    }
    return origin;
  }
  void SetRange(uint32_t addr, uint32_t size, ByteOrigin origin) {
    for (uint32_t i = 0; i < size && addr + i < vm::kMemSize; ++i) {
      mem_.Set(addr + i, origin);
    }
  }

  [[nodiscard]] ByteOrigin ByteAt(uint32_t addr) const {
    return addr < vm::kMemSize ? mem_.Get(addr) : ByteOrigin::kStatic;
  }

 private:
  void StepSys(const trace::InstructionRecord& record,
               const trace::ApiTrace& api_trace) {
    if (record.api_sequence >= api_trace.calls.size()) return;
    const trace::ApiCallRecord& call = api_trace.calls[record.api_sequence];

    for (const trace::DataFlow& flow : call.flows) {
      if (flow.dst_len == flow.src_len) {
        for (uint32_t i = 0; i < flow.dst_len; ++i) {
          SetByte(flow.dst + i, ByteAt(flow.src + i));
        }
      } else {
        SetRange(flow.dst, flow.dst_len, RangeUnion(flow.src, flow.src_len));
      }
    }
    for (const trace::DataDefine& define : call.defines) {
      SetRange(define.dst, define.len, FromDataOrigin(define.origin));
    }

    // EAX origin.
    ByteOrigin eax = ByteOrigin::kStatic;
    auto id = sandbox::FindApiByName(call.api_name);
    if (id.has_value()) {
      const sandbox::ApiSpec& spec = sandbox::GetApiSpec(*id);
      if (spec.determinism == sandbox::ApiDeterminism::kEnvironment) {
        eax = ByteOrigin::kEnvironment;
      } else if (spec.determinism == sandbox::ApiDeterminism::kRandom) {
        eax = ByteOrigin::kRandom;
      } else if (!call.eax_sources.empty()) {
        for (const auto& span : call.eax_sources) {
          eax = Union(eax, RangeUnion(span.addr, span.len));
        }
      } else if (spec.is_resource_api || call.api_name == "GetLastError") {
        // Handle values / resource state reflect the machine environment.
        eax = ByteOrigin::kEnvironment;
      }
    }
    SetReg(vm::Reg::kEax, eax);
  }

  void SetByte(uint32_t addr, ByteOrigin origin) {
    if (addr < vm::kMemSize) mem_.Set(addr, origin);
  }

  bool track_control_ = false;
  ByteOrigin flags_ = ByteOrigin::kStatic;
  vm::ControlRegion<ByteOrigin> region_;
  std::array<ByteOrigin, vm::kNumRegs> regs_{};
  // kStatic is ByteOrigin{}, so untouched pages stay unallocated.
  vm::ShadowMemory<ByteOrigin> mem_;
};

// ---------------------------------------------------------------------
// Backward dynamic slice.
// ---------------------------------------------------------------------
struct Workset {
  std::set<uint32_t> mem;
  uint32_t reg_mask = 0;

  void AddReg(Reg reg) {
    if (reg != Reg::kNone) reg_mask |= 1u << static_cast<uint32_t>(reg);
  }
  void RemoveReg(Reg reg) {
    if (reg != Reg::kNone) reg_mask &= ~(1u << static_cast<uint32_t>(reg));
  }
  [[nodiscard]] bool HasReg(Reg reg) const {
    return reg != Reg::kNone &&
           (reg_mask & (1u << static_cast<uint32_t>(reg))) != 0;
  }
  void AddRange(uint32_t addr, uint32_t len) {
    for (uint32_t i = 0; i < len; ++i) mem.insert(addr + i);
  }
  // Returns true when [addr, addr+len) intersects; removes the overlap.
  bool TakeRange(uint32_t addr, uint32_t len) {
    bool hit = false;
    for (uint32_t i = 0; i < len; ++i) {
      hit |= mem.erase(addr + i) > 0;
    }
    return hit;
  }
};

}  // namespace

std::string_view IdentifierClassName(IdentifierClass cls) {
  switch (cls) {
    case IdentifierClass::kStatic: return "static";
    case IdentifierClass::kPartialStatic: return "partial-static";
    case IdentifierClass::kAlgorithmDeterministic:
      return "algorithm-deterministic";
    case IdentifierClass::kNonDeterministic: return "non-deterministic";
  }
  return "?";
}

Result<DeterminismReport> AnalyzeIdentifier(
    const trace::InstructionTrace& inst_trace,
    const trace::ApiTrace& api_trace, uint32_t api_sequence,
    const DeterminismOptions& options) {
  if (api_sequence >= api_trace.calls.size()) {
    return Status::OutOfRange("api_sequence beyond trace");
  }
  const trace::ApiCallRecord& anchor = api_trace.calls[api_sequence];
  if (anchor.identifier_addr == 0 || anchor.identifier_len == 0) {
    return Status::FailedPrecondition(
        "anchor call has no in-memory identifier (handle-based API?)");
  }

  // Locate the anchoring `sys` record in the instruction trace.
  size_t anchor_index = inst_trace.records.size();
  for (size_t i = 0; i < inst_trace.records.size(); ++i) {
    if (inst_trace.records[i].api_sequence == api_sequence) {
      anchor_index = i;
      break;
    }
  }
  if (anchor_index == inst_trace.records.size()) {
    return Status::NotFound("anchor API not present in instruction trace");
  }

  DeterminismReport report;
  report.identifier = anchor.resource_identifier;

  // ---- forward origin pass up to (excluding) the anchor ---------------
  OriginTracker origins(options.track_control_dependence);
  for (size_t i = 0; i < anchor_index; ++i) {
    origins.Step(inst_trace.records[i], api_trace);
  }
  const uint32_t value_len =
      anchor.identifier_len > 0 ? anchor.identifier_len - 1 : 0;  // sans NUL
  bool any_env = false;
  bool any_random = false;
  std::string pattern_text;
  size_t literal_chars = 0;
  bool in_wildcard_run = false;
  for (uint32_t i = 0; i < value_len; ++i) {
    const ByteOrigin origin = origins.ByteAt(anchor.identifier_addr + i);
    report.origin_map.push_back(OriginChar(origin));
    if (origin == ByteOrigin::kStatic) {
      const char c = report.identifier[i];
      if (c == '*' || c == '?' || c == '\\') pattern_text.push_back('\\');
      pattern_text.push_back(c);
      ++literal_chars;
      in_wildcard_run = false;
    } else {
      any_env |= origin == ByteOrigin::kEnvironment;
      any_random |= origin == ByteOrigin::kRandom;
      if (!in_wildcard_run) pattern_text.push_back('*');
      in_wildcard_run = true;
    }
  }

  if (any_random) {
    report.cls = literal_chars >= options.min_literal_chars
                     ? IdentifierClass::kPartialStatic
                     : IdentifierClass::kNonDeterministic;
  } else if (any_env) {
    report.cls = IdentifierClass::kAlgorithmDeterministic;
  } else {
    report.cls = IdentifierClass::kStatic;
  }
  auto pattern = Pattern::Compile(pattern_text);
  if (pattern.ok()) report.pattern = std::move(pattern).value();

  // ---- backward dynamic slice ------------------------------------------
  Workset workset;
  workset.AddRange(anchor.identifier_addr, anchor.identifier_len);
  std::set<uint32_t> slice;
  std::set<uint32_t> contributing;

  for (size_t i = anchor_index; i-- > 0;) {
    const trace::InstructionRecord& record = inst_trace.records[i];
    const vm::StepInfo& step = record.step;
    const vm::Instruction& inst = step.inst;

    if (inst.op == Op::kSys) {
      if (record.api_sequence >= api_trace.calls.size()) continue;
      const trace::ApiCallRecord& call = api_trace.calls[record.api_sequence];
      bool hit = false;
      // Defines are terminal sources; flows continue into their inputs.
      for (const trace::DataDefine& define : call.defines) {
        hit |= workset.TakeRange(define.dst, define.len);
      }
      std::vector<const trace::DataFlow*> hit_flows;
      for (const trace::DataFlow& flow : call.flows) {
        if (workset.TakeRange(flow.dst, flow.dst_len)) {
          hit = true;
          hit_flows.push_back(&flow);
        }
      }
      bool eax_hit = false;
      if (workset.HasReg(Reg::kEax)) {
        eax_hit = true;
        hit = true;
        workset.RemoveReg(Reg::kEax);
      }
      if (!hit) continue;
      slice.insert(static_cast<uint32_t>(i));
      contributing.insert(record.api_sequence);
      for (const trace::DataFlow* flow : hit_flows) {
        workset.AddRange(flow->src, flow->src_len);
      }
      if (eax_hit) {
        for (const auto& span : call.eax_sources) {
          workset.AddRange(span.addr, span.len);
        }
      }
      // Replaying the call needs its argument slots (pointers, sizes);
      // step.u1 carries ESP at trap time (see Cpu::Step).
      workset.AddRange(step.u1, 4u * call.stack_args_used);
      continue;
    }

    const vm::OpInfo& info = vm::GetOpInfo(inst.op);
    bool hit = false;
    if (info.writes_r1 && workset.HasReg(inst.r1)) {
      hit = true;
      // r1 also read by ALU RR/RI & unary forms: re-added below via uses.
      workset.RemoveReg(inst.r1);
    }
    if (info.writes_mem && step.mem_size > 0 &&
        workset.TakeRange(step.mem_addr, step.mem_size)) {
      hit = true;
    }
    if (!hit) continue;
    slice.insert(static_cast<uint32_t>(i));
    // The sources the forward passes join; address registers always
    // count, since replaying the slice needs them.
    vm::ForEachSource(
        inst, /*with_address=*/true, [&](Reg reg) { workset.AddReg(reg); },
        [&] { workset.AddRange(step.mem_addr, step.mem_size); });
  }

  report.slice_records.assign(slice.begin(), slice.end());
  report.contributing_apis.assign(contributing.begin(), contributing.end());
  return report;
}

Result<VaccineSlice> ExtractSlice(const vm::Program& original,
                                  const trace::InstructionTrace& inst_trace,
                                  const trace::ApiTrace& api_trace,
                                  const DeterminismReport& report,
                                  uint32_t api_sequence) {
  (void)api_trace;
  if (api_sequence >= api_trace.calls.size()) {
    return Status::OutOfRange("api_sequence beyond trace");
  }
  const trace::ApiCallRecord& anchor = api_trace.calls[api_sequence];

  VaccineSlice slice;
  slice.output_addr = anchor.identifier_addr;
  slice.output_len = anchor.identifier_len;
  slice.program.name = "slice";
  slice.program.data = original.data;  // .rdata literals + buffer layout

  for (uint32_t index : report.slice_records) {
    if (index >= inst_trace.records.size()) {
      return Status::OutOfRange("slice record index beyond trace");
    }
    const vm::Instruction& inst = inst_trace.records[index].step.inst;
    const vm::OpInfo& info = vm::GetOpInfo(inst.op);
    if (info.is_branch || inst.op == Op::kHlt) continue;  // linearized
    slice.program.code.push_back(inst);
  }
  slice.program.code.push_back({Op::kHlt, Reg::kNone, Reg::kNone, 0});
  return slice;
}

}  // namespace autovac::analysis
