#include "analysis/determinism.h"

#include <algorithm>
#include <array>
#include <set>

#include "sandbox/api_ids.h"
#include "support/strings.h"
#include "vm/isa.h"
#include "vm/memory.h"

namespace autovac::analysis {
namespace {

using vm::Op;
using vm::Reg;

ByteOrigin Max(ByteOrigin a, ByteOrigin b) { return a > b ? a : b; }

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
// Forward origin pass: per-byte / per-register origin propagation that
// mirrors the taint engine's rules but carries three origin classes.
// ---------------------------------------------------------------------
class OriginTracker {
 public:
  explicit OriginTracker(bool track_control_dependence = false)
      : track_control_(track_control_dependence) {}

  void Step(const trace::InstructionRecord& record,
            const trace::ApiTrace& api_trace) {
    const vm::StepInfo& step = record.step;
    const vm::Instruction& inst = step.inst;

    // Control-dependence extension: a conditional forward branch on
    // environment/random-derived flags opens a region in which written
    // values inherit that origin.
    const ByteOrigin control = track_control_ && step.pc >= region_start_ &&
                                       step.pc < region_end_
                                   ? region_origin_
                                   : ByteOrigin::kStatic;
    if (track_control_) {
      const bool conditional =
          inst.op == Op::kJz || inst.op == Op::kJnz || inst.op == Op::kJg ||
          inst.op == Op::kJl || inst.op == Op::kJge || inst.op == Op::kJle;
      if (conditional && flags_ != ByteOrigin::kStatic) {
        const auto target = static_cast<uint32_t>(inst.imm);
        if (target > step.pc) {
          region_origin_ = Max(region_origin_, flags_);
          if (step.branch_taken) {
            const uint32_t span = std::max<uint32_t>(target - step.pc - 1, 1);
            region_start_ = target;
            region_end_ = target + span;
          } else {
            region_start_ = step.pc + 1;
            region_end_ = target;
          }
        }
      } else if (step.pc >= region_end_) {
        region_origin_ = ByteOrigin::kStatic;
        region_start_ = region_end_ = 0;
      }
    }

    switch (inst.op) {
      case Op::kMovRI:
        SetReg(inst.r1, control);
        break;
      case Op::kMovRR:
      case Op::kLea:
        SetReg(inst.r1, Max(RegOrigin(inst.r2), control));
        break;
      case Op::kLoad:
      case Op::kLoadB:
        SetReg(inst.r1,
               Max(RangeOrigin(step.mem_addr, step.mem_size), control));
        break;
      case Op::kStore:
      case Op::kStoreB:
        SetRange(step.mem_addr, step.mem_size,
                 Max(RegOrigin(inst.r2), control));
        break;
      case Op::kPushR:
        SetRange(step.mem_addr, step.mem_size,
                 Max(RegOrigin(inst.r1), control));
        break;
      case Op::kPushI:
      case Op::kCall:
        SetRange(step.mem_addr, step.mem_size, ByteOrigin::kStatic);
        break;
      case Op::kPopR:
        SetReg(inst.r1, RangeOrigin(step.mem_addr, step.mem_size));
        break;
      case Op::kXorRR:
        if (inst.r1 == inst.r2) {
          SetReg(inst.r1, ByteOrigin::kStatic);
          flags_ = ByteOrigin::kStatic;
          break;
        }
        [[fallthrough]];
      case Op::kAddRR: case Op::kSubRR: case Op::kAndRR: case Op::kOrRR:
      case Op::kMulRR:
        SetReg(inst.r1, Max(RegOrigin(inst.r1), RegOrigin(inst.r2)));
        flags_ = RegOrigin(inst.r1);
        break;
      case Op::kCmpRR:
      case Op::kTestRR:
        flags_ = Max(RegOrigin(inst.r1), RegOrigin(inst.r2));
        break;
      case Op::kCmpRI:
      case Op::kTestRI:
        flags_ = RegOrigin(inst.r1);
        break;
      case Op::kAddRI: case Op::kSubRI: case Op::kXorRI: case Op::kAndRI:
      case Op::kOrRI: case Op::kMulRI: case Op::kShlRI: case Op::kShrRI:
      case Op::kNotR: case Op::kNegR: case Op::kIncR: case Op::kDecR:
        flags_ = RegOrigin(inst.r1);
        break;
      case Op::kSys:
        StepSys(record, api_trace);
        break;
      default:
        break;  // pushes/pops/branches handled above or carry no origin
    }
  }

  [[nodiscard]] ByteOrigin RangeOrigin(uint32_t addr, uint32_t size) const {
    ByteOrigin origin = ByteOrigin::kStatic;
    for (uint32_t i = 0; i < size && addr + i < vm::kMemSize; ++i) {
      origin = Max(origin, mem_.Get(addr + i));
    }
    return origin;
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
        SetRange(flow.dst, flow.dst_len,
                 RangeOrigin(flow.src, flow.src_len));
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
          eax = Max(eax, RangeOrigin(span.addr, span.len));
        }
      } else if (spec.is_resource_api || call.api_name == "GetLastError") {
        // Handle values / resource state reflect the machine environment.
        eax = ByteOrigin::kEnvironment;
      }
    }
    SetReg(Reg::kEax, eax);
  }

  void SetReg(Reg reg, ByteOrigin origin) {
    if (reg != Reg::kNone) regs_[static_cast<size_t>(reg)] = origin;
  }
  [[nodiscard]] ByteOrigin RegOrigin(Reg reg) const {
    return reg == Reg::kNone ? ByteOrigin::kStatic
                             : regs_[static_cast<size_t>(reg)];
  }
  void SetByte(uint32_t addr, ByteOrigin origin) {
    if (addr < vm::kMemSize) mem_.Set(addr, origin);
  }
  void SetRange(uint32_t addr, uint32_t size, ByteOrigin origin) {
    for (uint32_t i = 0; i < size && addr + i < vm::kMemSize; ++i) {
      mem_.Set(addr + i, origin);
    }
  }

  bool track_control_ = false;
  ByteOrigin flags_ = ByteOrigin::kStatic;
  ByteOrigin region_origin_ = ByteOrigin::kStatic;
  uint32_t region_start_ = 0;
  uint32_t region_end_ = 0;
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

    switch (inst.op) {
      case Op::kMovRI:
      case Op::kPushI:
        break;  // constant terminal
      case Op::kMovRR:
      case Op::kLea:
        workset.AddReg(inst.r2);
        break;
      case Op::kLoad:
      case Op::kLoadB:
        workset.AddRange(step.mem_addr, step.mem_size);
        // Address registers feed replay correctness.
        workset.AddReg(inst.r2);
        break;
      case Op::kStore:
      case Op::kStoreB:
        workset.AddReg(inst.r2);
        workset.AddReg(inst.r1);  // address base
        break;
      case Op::kPushR:
        workset.AddReg(inst.r1);
        break;
      case Op::kPopR:
        workset.AddRange(step.mem_addr, step.mem_size);
        break;
      case Op::kXorRR:
        if (inst.r1 == inst.r2) break;  // zeroing idiom: constant
        workset.AddReg(inst.r1);
        workset.AddReg(inst.r2);
        break;
      case Op::kAddRR: case Op::kSubRR: case Op::kAndRR: case Op::kOrRR:
      case Op::kMulRR:
        workset.AddReg(inst.r1);
        workset.AddReg(inst.r2);
        break;
      case Op::kAddRI: case Op::kSubRI: case Op::kXorRI: case Op::kAndRI:
      case Op::kOrRI: case Op::kMulRI: case Op::kShlRI: case Op::kShrRI:
      case Op::kNotR: case Op::kNegR: case Op::kIncR: case Op::kDecR:
        workset.AddReg(inst.r1);
        break;
      default:
        break;
    }
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
