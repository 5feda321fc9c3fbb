// The sandbox CPU: fetch/decode/execute loop over a Program, reporting
// every retired instruction to an observer (the instrumentation hook a
// DBI framework would give us) and trapping `sys` to a syscall handler
// (the kernel).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "support/status.h"
#include "vm/isa.h"
#include "vm/memory.h"
#include "vm/program.h"

namespace autovac::vm {

// Why a run stopped.
enum class StopReason {
  kRunning = 0,
  kHalted,           // hlt retired
  kExited,           // kernel requested termination (ExitProcess etc.)
  kFault,            // memory violation / bad pc / stack overflow
  kBudgetExhausted,  // virtual-time budget spent (the paper's "1 minute")
  kCallDepthLimit,   // call stack grew past the configured depth cap
  kApiCallLimit,     // more syscalls than the configured API-call cap
  kTraceLimit,       // instruction/API trace reached its size cap
};

[[nodiscard]] const char* StopReasonName(StopReason reason);

inline constexpr size_t kNumStopReasons =
    static_cast<size_t>(StopReason::kTraceLimit) + 1;

// Everything observable about one retired instruction. Field semantics:
//   u1/u2      — values of r1/r2 *before* execution
//   mem_addr   — effective address of the memory the opcode reads or
//                writes (OpInfo::src_mem / writes_mem)
//   mem_size   — 1 or 4
//   result     — value written to the destination (reg or memory)
struct StepInfo {
  uint32_t pc = 0;
  Instruction inst;
  uint32_t u1 = 0;
  uint32_t u2 = 0;
  uint32_t mem_addr = 0;
  uint32_t mem_size = 0;
  uint32_t result = 0;
  bool branch_taken = false;
};

class Cpu;

// Architectural CPU state at an instruction boundary: everything a
// resumed run needs to continue executing as if it had run from program
// start. Flush-delta telemetry (instructions_retired, dispatch counts)
// is deliberately absent — those counters are deltas since the last
// metrics flush, not machine state, and a restored CPU starts them at
// zero so resumed runs never double-publish the prefix.
struct CpuSnapshot {
  std::array<uint32_t, kNumRegs> regs{};
  uint32_t pc = 0;
  bool zf = false;
  bool sf = false;
  bool of = false;
  uint32_t call_depth = 0;
  uint64_t cycles_used = 0;
  uint64_t api_calls = 0;
};

// Kernel interface: receives `sys` traps. Implementations read arguments
// from the stack via cpu.Arg(i) and set cpu.regs[eax] for the result.
class SyscallHandler {
 public:
  virtual ~SyscallHandler() = default;
  virtual void OnSyscall(Cpu& cpu, int64_t api_id) = 0;
};

// Instrumentation events beyond plain instruction retirement.
enum class VmEvent : uint8_t {
  // A dirtied page (guest-written since its last decode) is about to
  // execute — the write-then-execute signal a generic unpacking detector
  // keys on. Fired once per dirtied region: re-executing the same page
  // without further writes stays silent; writing it again re-arms it.
  kSelfModifyingCode = 0,
};

[[nodiscard]] const char* VmEventName(VmEvent event);

// Instrumentation interface (taint engine, instruction tracer).
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;
  virtual void OnStep(const Cpu& cpu, const StepInfo& step) = 0;
  // Default no-op so existing observers need not care about VM events.
  // `addr`/`size` describe the affected region (the dirtied page for
  // kSelfModifyingCode).
  virtual void OnVmEvent(const Cpu& cpu, VmEvent event, uint32_t addr,
                         uint32_t size) {
    (void)cpu; (void)event; (void)addr; (void)size;
  }
};

// Program-counter values below this execute the static program's decoded
// `code` vector (pc = instruction index). Values at or above it are guest
// memory addresses: the CPU decodes the fixed 8-byte encoding (see
// isa.h) straight out of .data/heap, which is how multi-stage samples run
// the payloads they unpack at runtime. The threshold equals kDataBase, so
// every writable segment is executable and no static program is large
// enough to collide with it.
inline constexpr uint32_t kMemExecBase = kDataBase;

class Cpu {
 public:
  Cpu(const Program& program, Memory& memory);

  // Runs until stop or until `budget` virtual cycles are consumed.
  StopReason Run(uint64_t budget);

  // Executes one instruction. Returns kRunning while more remain.
  StopReason Step();

  // --- register file -------------------------------------------------
  [[nodiscard]] uint32_t reg(Reg r) const {
    return regs_[static_cast<size_t>(r)];
  }
  void set_reg(Reg r, uint32_t value) { regs_[static_cast<size_t>(r)] = value; }

  [[nodiscard]] uint32_t pc() const { return pc_; }
  [[nodiscard]] bool zf() const { return zf_; }
  [[nodiscard]] bool sf() const { return sf_; }
  [[nodiscard]] bool of() const { return of_; }

  // --- kernel conveniences --------------------------------------------
  // i-th syscall argument (32-bit, cdecl-like: arg0 at [esp]).
  [[nodiscard]] uint32_t Arg(uint32_t i) const;
  void SetResult(uint32_t value) { set_reg(Reg::kEax, value); }

  // Kernel-initiated termination (ExitProcess / TerminateProcess(self)).
  void RequestExit() { exit_requested_ = true; }

  // Deferred stop with an explicit reason, honoured after the current
  // instruction (and its observer callbacks) retire. Used by the sandbox
  // to truncate runs whose traces hit their size caps.
  void RequestStop(StopReason reason) { pending_stop_ = reason; }

  // --- execution envelope ----------------------------------------------
  // Hard caps beyond the cycle budget; 0 means unlimited. Exceeding a cap
  // stops the run with the matching StopReason instead of growing state
  // unboundedly.
  void set_call_depth_limit(uint32_t limit) { call_depth_limit_ = limit; }
  void set_api_call_limit(uint64_t limit) { api_call_limit_ = limit; }
  [[nodiscard]] uint32_t call_depth() const { return call_depth_; }
  [[nodiscard]] uint64_t api_calls() const { return api_calls_; }

  // Virtual clock: syscalls such as Sleep consume extra cycles.
  void ConsumeCycles(uint64_t cycles) { cycles_used_ += cycles; }
  [[nodiscard]] uint64_t cycles_used() const { return cycles_used_; }

  // --- telemetry -------------------------------------------------------
  [[nodiscard]] uint64_t instructions_retired() const {
    return instructions_retired_;
  }
  // kSelfModifyingCode events since the last metrics flush (flushed to
  // vm.smc_regions; like instructions_retired, a flush-delta — observers
  // wanting exact per-run counts hook OnVmEvent).
  [[nodiscard]] uint64_t smc_events() const { return smc_events_; }
  [[nodiscard]] uint64_t dispatch_count(OpClass cls) const {
    return dispatch_counts_[static_cast<size_t>(cls)];
  }
  // Publishes the per-run counters accumulated since the last flush into
  // the global metrics registry. Run() calls this on every exit; call it
  // manually only when stepping the CPU by hand.
  void FlushMetrics();

  // Return-address of the current call frame — the "caller-PC" the paper
  // logs with every API call. Valid while handling a syscall: the pc of
  // the `sys` instruction itself.
  [[nodiscard]] uint32_t current_syscall_pc() const { return current_pc_; }

  // --- checkpoint / restore -------------------------------------------
  // Captures architectural state while handling a `sys` trap, rewound so
  // that resuming from the snapshot re-executes the trapping instruction
  // from scratch: pc points at the `sys` instruction itself and the
  // charges taken at the top of Step() (one cycle, one api call) are
  // subtracted. Valid only from inside SyscallHandler::OnSyscall, before
  // the kernel consumes any extra cycles for the call.
  [[nodiscard]] CpuSnapshot SnapshotAtSyscall() const;
  // Overwrites architectural state with `snap` and clears any stop
  // condition so Run()/Step() continue from the snapshot point.
  // Flush-delta telemetry restarts at zero — the capturing run already
  // published the prefix to the global registry.
  void Restore(const CpuSnapshot& snap);

  [[nodiscard]] Memory& memory() { return memory_; }
  [[nodiscard]] const Memory& memory() const { return memory_; }
  [[nodiscard]] const Program& program() const { return program_; }

  void set_syscall_handler(SyscallHandler* handler) { syscall_ = handler; }
  void set_observer(ExecutionObserver* observer) { observer_ = observer; }

  [[nodiscard]] StopReason stop_reason() const { return stop_reason_; }
  // Human-readable fault description when stop_reason() == kFault.
  [[nodiscard]] const std::string& fault_message() const { return fault_; }

 private:
  // One decoded page of in-memory code. Pure derived state: `gen` pins
  // the Memory write generation the decode came from, so a stale entry
  // (page rewritten, or machine restored to an older snapshot) is simply
  // re-decoded. Never serialized.
  struct DecodedPage {
    uint32_t gen = 0;
    bool populated = false;
    uint32_t valid = 0;  // bit i — slot i decoded successfully
    std::array<Instruction, kCodePageSize / kEncodedInstrSize> insts{};
  };

  StopReason Fault(std::string message);
  // Fetches the instruction at pc_ (>= kMemExecBase) from guest memory,
  // firing kSelfModifyingCode and re-decoding when the page is dirty.
  // Returns false after faulting on misalignment/bounds/bad encoding.
  bool FetchFromMemory(Instruction* out);

  const Program& program_;
  Memory& memory_;
  SyscallHandler* syscall_ = nullptr;
  ExecutionObserver* observer_ = nullptr;

  std::array<uint32_t, kNumRegs> regs_{};
  uint32_t pc_ = 0;
  uint32_t current_pc_ = 0;
  bool zf_ = false;
  bool sf_ = false;
  bool of_ = false;
  bool exit_requested_ = false;
  StopReason pending_stop_ = StopReason::kRunning;
  uint32_t call_depth_ = 0;
  uint32_t call_depth_limit_ = 0;
  uint64_t api_calls_ = 0;
  uint64_t api_call_limit_ = 0;
  uint64_t cycles_used_ = 0;
  uint64_t instructions_retired_ = 0;
  uint64_t smc_events_ = 0;
  std::array<uint64_t, kNumOpClasses> dispatch_counts_{};
  std::unordered_map<uint32_t, DecodedPage> decode_cache_;
  StopReason stop_reason_ = StopReason::kRunning;
  std::string fault_;
};

}  // namespace autovac::vm
