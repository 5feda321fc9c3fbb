#include "vm/cpu.h"

#include "support/metrics.h"
#include "support/strings.h"

namespace autovac::vm {
namespace {

// Cached registry handles: resolved once per process, then every flush is
// a handful of relaxed atomic adds.
struct VmMetrics {
  Counter* instructions;
  std::array<Counter*, kNumOpClasses> dispatch;
  std::array<Counter*, kNumStopReasons> stops;
  Counter* runs;
  Counter* smc_regions;
};

VmMetrics& GetVmMetrics() {
  static VmMetrics* metrics = [] {
    auto* m = new VmMetrics();
    MetricsRegistry& registry = GlobalMetrics();
    m->instructions = registry.GetCounter("vm.instructions_retired");
    for (size_t i = 0; i < kNumOpClasses; ++i) {
      m->dispatch[i] = registry.GetCounter(
          std::string("vm.dispatch.") +
          OpClassName(static_cast<OpClass>(i)));
    }
    for (size_t i = 0; i < kNumStopReasons; ++i) {
      m->stops[i] = registry.GetCounter(
          std::string("vm.stop.") +
          StopReasonName(static_cast<StopReason>(i)));
    }
    m->runs = registry.GetCounter("vm.runs");
    m->smc_regions = registry.GetCounter("vm.smc_regions");
    return m;
  }();
  return *metrics;
}

}  // namespace

const char* VmEventName(VmEvent event) {
  switch (event) {
    case VmEvent::kSelfModifyingCode: return "self-modifying-code";
  }
  return "?";
}

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kRunning: return "running";
    case StopReason::kHalted: return "halted";
    case StopReason::kExited: return "exited";
    case StopReason::kFault: return "fault";
    case StopReason::kBudgetExhausted: return "budget-exhausted";
    case StopReason::kCallDepthLimit: return "call-depth-limit";
    case StopReason::kApiCallLimit: return "api-call-limit";
    case StopReason::kTraceLimit: return "trace-limit";
  }
  return "?";
}

Cpu::Cpu(const Program& program, Memory& memory)
    : program_(program), memory_(memory) {
  set_reg(Reg::kEsp, kStackTop);
  set_reg(Reg::kEbp, kStackTop);
  pc_ = program.entry;
}

uint32_t Cpu::Arg(uint32_t i) const {
  uint32_t value = 0;
  const uint32_t addr = reg(Reg::kEsp) + 4 * i;
  if (memory_.Read32(addr, &value) != MemFault::kNone) return 0;
  return value;
}

StopReason Cpu::Run(uint64_t budget) {
  while (stop_reason_ == StopReason::kRunning) {
    if (cycles_used_ >= budget) {
      stop_reason_ = StopReason::kBudgetExhausted;
      break;
    }
    Step();
  }
  FlushMetrics();
  GetVmMetrics().runs->Increment();
  GetVmMetrics().stops[static_cast<size_t>(stop_reason_)]->Increment();
  return stop_reason_;
}

void Cpu::FlushMetrics() {
  VmMetrics& metrics = GetVmMetrics();
  if (instructions_retired_ != 0) {
    metrics.instructions->Increment(instructions_retired_);
    instructions_retired_ = 0;
  }
  if (smc_events_ != 0) {
    metrics.smc_regions->Increment(smc_events_);
    smc_events_ = 0;
  }
  for (size_t i = 0; i < kNumOpClasses; ++i) {
    if (dispatch_counts_[i] != 0) {
      metrics.dispatch[i]->Increment(dispatch_counts_[i]);
      dispatch_counts_[i] = 0;
    }
  }
}

CpuSnapshot Cpu::SnapshotAtSyscall() const {
  CpuSnapshot snap;
  snap.regs = regs_;
  snap.pc = current_pc_;
  snap.zf = zf_;
  snap.sf = sf_;
  snap.of = of_;
  snap.call_depth = call_depth_;
  // Un-charge the in-flight increments from the top of Step(): the
  // resumed CPU re-executes the whole `sys` instruction.
  snap.cycles_used = cycles_used_ - 1;
  snap.api_calls = api_calls_ - 1;
  return snap;
}

void Cpu::Restore(const CpuSnapshot& snap) {
  regs_ = snap.regs;
  pc_ = snap.pc;
  current_pc_ = snap.pc;
  zf_ = snap.zf;
  sf_ = snap.sf;
  of_ = snap.of;
  call_depth_ = snap.call_depth;
  cycles_used_ = snap.cycles_used;
  api_calls_ = snap.api_calls;
  exit_requested_ = false;
  pending_stop_ = StopReason::kRunning;
  stop_reason_ = StopReason::kRunning;
  fault_.clear();
  instructions_retired_ = 0;
  smc_events_ = 0;
  dispatch_counts_.fill(0);
  // The restored Memory may hold older bytes at the same write
  // generations this cache was built against; drop it and re-decode.
  decode_cache_.clear();
}

StopReason Cpu::Fault(std::string message) {
  fault_ = std::move(message);
  stop_reason_ = StopReason::kFault;
  return stop_reason_;
}

bool Cpu::FetchFromMemory(Instruction* out) {
  if (pc_ % kEncodedInstrSize != 0) {
    Fault(StrFormat("misaligned code fetch at %#x", pc_));
    return false;
  }
  if (!Memory::InBounds(pc_, kEncodedInstrSize)) {
    Fault(StrFormat("code fetch out of bounds at %#x", pc_));
    return false;
  }
  const uint32_t page = Memory::PageOf(pc_);
  const uint32_t write_gen = memory_.page_write_gen(page);
  if (write_gen != memory_.page_exec_gen(page)) {
    // Write-then-execute: the page changed since it last ran. Stamp the
    // generation first so re-entrant observers see the armed state
    // cleared, then surface the event exactly once for this dirtying.
    memory_.set_page_exec_gen(page, write_gen);
    ++smc_events_;
    if (observer_ != nullptr) {
      observer_->OnVmEvent(*this, VmEvent::kSelfModifyingCode,
                           page * kCodePageSize, kCodePageSize);
    }
  }
  DecodedPage& entry = decode_cache_[page];
  if (!entry.populated || entry.gen != write_gen) {
    entry.gen = write_gen;
    entry.populated = true;
    entry.valid = 0;
    const std::string_view raw =
        memory_.RawView(page * kCodePageSize, kCodePageSize);
    for (uint32_t slot = 0; slot < entry.insts.size(); ++slot) {
      if (DecodeInstruction(reinterpret_cast<const uint8_t*>(raw.data()) +
                                slot * kEncodedInstrSize,
                            &entry.insts[slot])) {
        entry.valid |= 1u << slot;
      }
    }
  }
  const uint32_t slot = (pc_ % kCodePageSize) / kEncodedInstrSize;
  if ((entry.valid & (1u << slot)) == 0) {
    Fault(StrFormat("invalid instruction encoding at %#x", pc_));
    return false;
  }
  *out = entry.insts[slot];
  return true;
}

StopReason Cpu::Step() {
  if (stop_reason_ != StopReason::kRunning) return stop_reason_;
  const bool mem_mode = pc_ >= kMemExecBase;
  Instruction fetched;
  if (mem_mode) {
    if (!FetchFromMemory(&fetched)) return stop_reason_;
  } else if (pc_ >= program_.code.size()) {
    return Fault(StrFormat("pc out of range: %u", pc_));
  } else {
    fetched = program_.code[pc_];
  }
  const Instruction inst = fetched;
  if (inst.op >= Op::kOpCount) return Fault("invalid opcode");
  current_pc_ = pc_;
  ++cycles_used_;
  ++instructions_retired_;
  ++dispatch_counts_[static_cast<size_t>(GetOpInfo(inst.op).cls)];

  StepInfo step;
  step.pc = pc_;
  step.inst = inst;
  if (inst.r1 != Reg::kNone) step.u1 = reg(inst.r1);
  if (inst.r2 != Reg::kNone) step.u2 = reg(inst.r2);

  const auto imm32 = static_cast<uint32_t>(inst.imm);
  // Static code advances by instruction index; in-memory code by encoded
  // instruction width.
  uint32_t next_pc = pc_ + (mem_mode ? kEncodedInstrSize : 1);

  auto base2 = [&]() -> uint32_t {
    return (inst.r2 == Reg::kNone ? 0u : reg(inst.r2)) + imm32;
  };
  auto base1 = [&]() -> uint32_t {
    return (inst.r1 == Reg::kNone ? 0u : reg(inst.r1)) + imm32;
  };
  auto push32 = [&](uint32_t value) -> bool {
    const uint32_t esp = reg(Reg::kEsp) - 4;
    if (esp < kStackBase) {
      Fault("stack overflow");
      return false;
    }
    if (memory_.Write32(esp, value) != MemFault::kNone) {
      Fault(StrFormat("bad stack write at %#x", esp));
      return false;
    }
    set_reg(Reg::kEsp, esp);
    step.mem_addr = esp;
    step.mem_size = 4;
    return true;
  };
  auto pop32 = [&](uint32_t* value) -> bool {
    const uint32_t esp = reg(Reg::kEsp);
    if (memory_.Read32(esp, value) != MemFault::kNone) {
      Fault(StrFormat("bad stack read at %#x", esp));
      return false;
    }
    set_reg(Reg::kEsp, esp + 4);
    step.mem_addr = esp;
    step.mem_size = 4;
    return true;
  };
  // OF is set on signed overflow, as x86 sets it; the logic ops, the
  // shifts, `not` and `test` clear it.
  auto set_flags = [&](uint32_t value, bool overflow) {
    zf_ = value == 0;
    sf_ = (value >> 31) != 0;
    of_ = overflow;
  };
  auto sub_overflows = [](uint32_t lhs, uint32_t rhs) {
    return ((lhs ^ rhs) & (lhs ^ (lhs - rhs))) >> 31 != 0;
  };
  auto alu = [&](uint32_t rhs) -> uint32_t {
    const uint32_t lhs = step.u1;
    uint32_t value = 0;
    bool overflow = false;
    switch (inst.op) {
      case Op::kAddRR: case Op::kAddRI:
        value = lhs + rhs;
        overflow = ((lhs ^ value) & (rhs ^ value)) >> 31 != 0;
        break;
      case Op::kSubRR: case Op::kSubRI:
        value = lhs - rhs;
        overflow = sub_overflows(lhs, rhs);
        break;
      case Op::kXorRR: case Op::kXorRI: value = lhs ^ rhs; break;
      case Op::kAndRR: case Op::kAndRI: value = lhs & rhs; break;
      case Op::kOrRR: case Op::kOrRI: value = lhs | rhs; break;
      case Op::kMulRR: case Op::kMulRI:
        value = lhs * rhs;
        overflow = static_cast<int64_t>(static_cast<int32_t>(lhs)) *
                       static_cast<int32_t>(rhs) !=
                   static_cast<int32_t>(value);
        break;
      case Op::kShlRI: value = rhs >= 32 ? 0 : lhs << rhs; break;
      case Op::kShrRI: value = rhs >= 32 ? 0 : lhs >> rhs; break;
      default: AUTOVAC_CHECK_MSG(false, "alu on non-alu op");
    }
    set_flags(value, overflow);
    return value;
  };
  auto unary = [&](uint32_t value, bool overflow) {
    set_reg(inst.r1, value);
    set_flags(value, overflow);
    step.result = value;
  };
  // Branch targets: absolute in static code (imm may also name a memory
  // address >= kMemExecBase, which is how an unpacker enters its
  // payload); pc-relative byte offsets in memory mode so packed payloads
  // stay position-independent.
  auto branch_to = [&](bool taken) {
    step.branch_taken = taken;
    if (taken) next_pc = mem_mode ? pc_ + imm32 : imm32;
  };

  switch (inst.op) {
    case Op::kNop:
      break;
    case Op::kHlt:
      stop_reason_ = StopReason::kHalted;
      break;
    case Op::kMovRI:
      set_reg(inst.r1, imm32);
      step.result = imm32;
      break;
    case Op::kMovRR:
      set_reg(inst.r1, step.u2);
      step.result = step.u2;
      break;
    case Op::kLea: {
      const uint32_t value = base2();
      set_reg(inst.r1, value);
      step.result = value;
      break;
    }
    case Op::kLoad: {
      const uint32_t addr = base2();
      uint32_t value = 0;
      if (memory_.Read32(addr, &value) != MemFault::kNone) {
        return Fault(StrFormat("bad load at %#x (pc=%u)", addr, pc_));
      }
      set_reg(inst.r1, value);
      step.mem_addr = addr;
      step.mem_size = 4;
      step.result = value;
      break;
    }
    case Op::kLoadB: {
      const uint32_t addr = base2();
      uint32_t value = 0;
      if (memory_.Read8(addr, &value) != MemFault::kNone) {
        return Fault(StrFormat("bad loadb at %#x (pc=%u)", addr, pc_));
      }
      set_reg(inst.r1, value);
      step.mem_addr = addr;
      step.mem_size = 1;
      step.result = value;
      break;
    }
    case Op::kStore: {
      const uint32_t addr = base1();
      if (memory_.Write32(addr, step.u2) != MemFault::kNone) {
        return Fault(StrFormat("bad store at %#x (pc=%u)", addr, pc_));
      }
      step.mem_addr = addr;
      step.mem_size = 4;
      step.result = step.u2;
      break;
    }
    case Op::kStoreB: {
      const uint32_t addr = base1();
      if (memory_.Write8(addr, step.u2 & 0xFF) != MemFault::kNone) {
        return Fault(StrFormat("bad storeb at %#x (pc=%u)", addr, pc_));
      }
      step.mem_addr = addr;
      step.mem_size = 1;
      step.result = step.u2 & 0xFF;
      break;
    }
    case Op::kPushR:
      if (!push32(step.u1)) return stop_reason_;
      step.result = step.u1;
      break;
    case Op::kPushI:
      if (!push32(imm32)) return stop_reason_;
      step.result = imm32;
      break;
    case Op::kPopR: {
      uint32_t value = 0;
      if (!pop32(&value)) return stop_reason_;
      set_reg(inst.r1, value);
      step.result = value;
      break;
    }
    case Op::kAddRR: case Op::kSubRR: case Op::kXorRR: case Op::kAndRR:
    case Op::kOrRR: case Op::kMulRR: {
      const uint32_t value = alu(step.u2);
      set_reg(inst.r1, value);
      step.result = value;
      break;
    }
    case Op::kAddRI: case Op::kSubRI: case Op::kXorRI: case Op::kAndRI:
    case Op::kOrRI: case Op::kMulRI: case Op::kShlRI: case Op::kShrRI: {
      const uint32_t value = alu(imm32);
      set_reg(inst.r1, value);
      step.result = value;
      break;
    }
    case Op::kNotR:
      unary(~step.u1, false);
      break;
    case Op::kNegR:
      unary(0u - step.u1, step.u1 == 0x80000000u);
      break;
    case Op::kIncR:
      unary(step.u1 + 1, step.u1 == 0x7FFFFFFFu);
      break;
    case Op::kDecR:
      unary(step.u1 - 1, step.u1 == 0x80000000u);
      break;
    case Op::kCmpRR:
      set_flags(step.u1 - step.u2, sub_overflows(step.u1, step.u2));
      break;
    case Op::kCmpRI:
      set_flags(step.u1 - imm32, sub_overflows(step.u1, imm32));
      break;
    case Op::kTestRR:
      set_flags(step.u1 & step.u2, false);
      break;
    case Op::kTestRI:
      set_flags(step.u1 & imm32, false);
      break;
    case Op::kJmp:
      branch_to(true);
      break;
    case Op::kJz:
      branch_to(zf_);
      break;
    case Op::kJnz:
      branch_to(!zf_);
      break;
    case Op::kJg:
      branch_to(!zf_ && sf_ == of_);
      break;
    case Op::kJl:
      branch_to(sf_ != of_);
      break;
    case Op::kJge:
      branch_to(sf_ == of_);
      break;
    case Op::kJle:
      branch_to(zf_ || sf_ != of_);
      break;
    case Op::kCall:
      // The pushed return value is mode-typed like pc itself: an index
      // for static calls, an address for in-memory calls. `ret` pops it
      // blind, which is exactly what lets a payload return across modes.
      if (!push32(pc_ + (mem_mode ? kEncodedInstrSize : 1))) {
        return stop_reason_;
      }
      branch_to(true);
      ++call_depth_;
      if (call_depth_limit_ != 0 && call_depth_ > call_depth_limit_) {
        pending_stop_ = StopReason::kCallDepthLimit;
      }
      break;
    case Op::kRet: {
      uint32_t target = 0;
      if (!pop32(&target)) return stop_reason_;
      step.branch_taken = true;
      next_pc = target;
      if (call_depth_ > 0) --call_depth_;
      break;
    }
    case Op::kSys:
      // Expose the stack pointer at trap time so offline analyses can
      // locate the call's argument slots.
      step.u1 = reg(Reg::kEsp);
      ++api_calls_;
      if (api_call_limit_ != 0 && api_calls_ > api_call_limit_) {
        pending_stop_ = StopReason::kApiCallLimit;
        break;  // over budget: the trap is not delivered
      }
      if (syscall_ != nullptr) {
        syscall_->OnSyscall(*this, inst.imm);
        step.result = reg(Reg::kEax);
      }
      break;
    case Op::kOpCount:
      break;  // refused before dispatch
  }

  if (observer_ != nullptr) observer_->OnStep(*this, step);

  if (exit_requested_ && stop_reason_ == StopReason::kRunning) {
    stop_reason_ = StopReason::kExited;
  }
  if (pending_stop_ != StopReason::kRunning &&
      stop_reason_ == StopReason::kRunning) {
    stop_reason_ = pending_stop_;
  }
  if (stop_reason_ == StopReason::kRunning) pc_ = next_pc;
  return stop_reason_;
}

}  // namespace autovac::vm
