// Unit tests for the VM: memory protection, instruction semantics, flag
// behaviour, faults, the assembler/disassembler pair, and program
// loading.
#include <gtest/gtest.h>

#include "support/strings.h"
#include "vm/assembler.h"
#include "vm/cpu.h"
#include "vm/disassembler.h"
#include "vm/memory.h"
#include "vm/program.h"

namespace autovac::vm {
namespace {

// ---- memory ---------------------------------------------------------

TEST(Memory, ReadWriteRoundTrip) {
  Memory memory;
  ASSERT_EQ(memory.Write32(kDataBase, 0xDEADBEEF), MemFault::kNone);
  uint32_t value = 0;
  ASSERT_EQ(memory.Read32(kDataBase, &value), MemFault::kNone);
  EXPECT_EQ(value, 0xDEADBEEF);
  // Little-endian byte order.
  uint32_t byte = 0;
  ASSERT_EQ(memory.Read8(kDataBase, &byte), MemFault::kNone);
  EXPECT_EQ(byte, 0xEF);
}

TEST(Memory, OutOfBoundsFaults) {
  Memory memory;
  uint32_t value = 0;
  EXPECT_EQ(memory.Read32(kMemSize - 2, &value), MemFault::kOutOfBounds);
  EXPECT_EQ(memory.Write8(kMemSize, 1), MemFault::kOutOfBounds);
  EXPECT_EQ(memory.Read8(kMemSize - 1, &value), MemFault::kNone);
}

TEST(Memory, RdataIsReadOnly) {
  Memory memory;
  EXPECT_EQ(memory.Write8(kRdataBase, 1), MemFault::kWriteToReadOnly);
  EXPECT_EQ(memory.Write32(kRdataEnd - 2, 1), MemFault::kWriteToReadOnly);
  // The loader bypasses protection.
  memory.LoaderWrite(kRdataBase, "abc");
  uint32_t byte = 0;
  ASSERT_EQ(memory.Read8(kRdataBase, &byte), MemFault::kNone);
  EXPECT_EQ(byte, 'a');
}

TEST(Memory, CStringHelpers) {
  Memory memory;
  const uint32_t written = memory.WriteCString(kDataBase, "hello", 0);
  EXPECT_EQ(written, 6u);
  EXPECT_EQ(memory.ReadCString(kDataBase), "hello");
  // Capacity truncation keeps the terminator.
  memory.WriteCString(kDataBase, "longtext", 5);
  EXPECT_EQ(memory.ReadCString(kDataBase), "long");
}

TEST(Memory, ReadCStringRespectsMaxLen) {
  Memory memory;
  memory.WriteCString(kDataBase, "abcdef", 0);
  EXPECT_EQ(memory.ReadCString(kDataBase, 3), "abc");
}

// ---- copy-on-write pages ---------------------------------------------

TEST(Memory, DefaultReadsZeroEverywhere) {
  const Memory memory;
  for (uint32_t addr = 0; addr < kMemSize; ++addr) {
    uint32_t byte = 1;
    ASSERT_EQ(memory.Read8(addr, &byte), MemFault::kNone);
    ASSERT_EQ(byte, 0u) << addr;
  }
  for (uint32_t page = 0; page < kNumCodePages; ++page) {
    ASSERT_EQ(memory.page_write_gen(page), 0u);
    ASSERT_EQ(memory.page_exec_gen(page), 0u);
  }
  EXPECT_EQ(memory.owned_pages(), 0u);
}

TEST(Memory, CopyIsIsolatedFromLaterWritesOnEitherSide) {
  Memory original;
  ASSERT_EQ(original.Write32(kDataBase, 0x11111111), MemFault::kNone);
  Memory copy = original;
  ASSERT_EQ(original.Write32(kDataBase, 0x22222222), MemFault::kNone);
  ASSERT_EQ(copy.Write32(kDataBase + 4, 0x33333333), MemFault::kNone);
  ASSERT_EQ(copy.Write8(kHeapBase, 0x44), MemFault::kNone);

  uint32_t value = 0;
  ASSERT_EQ(copy.Read32(kDataBase, &value), MemFault::kNone);
  EXPECT_EQ(value, 0x11111111u);
  ASSERT_EQ(original.Read32(kDataBase + 4, &value), MemFault::kNone);
  EXPECT_EQ(value, 0u);
  ASSERT_EQ(original.Read8(kHeapBase, &value), MemFault::kNone);
  EXPECT_EQ(value, 0u);
  ASSERT_EQ(original.Read32(kDataBase, &value), MemFault::kNone);
  EXPECT_EQ(value, 0x22222222u);
  // Write generations are per copy too.
  EXPECT_EQ(original.page_write_gen(Memory::PageOf(kDataBase)), 2u);
  EXPECT_EQ(copy.page_write_gen(Memory::PageOf(kDataBase)), 2u);
  EXPECT_EQ(copy.page_write_gen(Memory::PageOf(kHeapBase)), 1u);
  EXPECT_EQ(original.page_write_gen(Memory::PageOf(kHeapBase)), 0u);
}

TEST(Memory, WordsStraddlePageBoundariesOnSharedPages) {
  const uint32_t boundary = kDataBase + kPageBytes;
  Memory original;
  ASSERT_EQ(original.Write32(boundary - 2, 0xA1B2C3D4), MemFault::kNone);
  const Memory copy = original;
  // The straddling write clones both pages out of the shared pair.
  ASSERT_EQ(original.Write32(boundary - 1, 0x01020304), MemFault::kNone);

  uint32_t value = 0;
  ASSERT_EQ(copy.Read32(boundary - 2, &value), MemFault::kNone);
  EXPECT_EQ(value, 0xA1B2C3D4u);
  ASSERT_EQ(original.Read32(boundary - 1, &value), MemFault::kNone);
  EXPECT_EQ(value, 0x01020304u);
  ASSERT_EQ(original.Read32(boundary - 2, &value), MemFault::kNone);
  EXPECT_EQ(value, 0x020304D4u);
  uint32_t byte = 0;
  ASSERT_EQ(copy.Read8(boundary + 2, &byte), MemFault::kNone);
  EXPECT_EQ(byte, 0u);
  ASSERT_EQ(original.Read8(boundary + 2, &byte), MemFault::kNone);
  EXPECT_EQ(byte, 0x01u);
  // Both code pages at the seam were dirtied once per straddling write.
  EXPECT_EQ(original.page_write_gen(Memory::PageOf(boundary - 1)), 2u);
  EXPECT_EQ(original.page_write_gen(Memory::PageOf(boundary)), 2u);
  EXPECT_EQ(copy.page_write_gen(Memory::PageOf(boundary)), 1u);
}

TEST(Memory, LoaderWriteSpansPages) {
  std::string blob(2 * kPageBytes + 10, '\0');
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>('a' + i % 26);
  }
  const uint32_t base = kDataBase + kPageBytes - 5;
  Memory memory;
  memory.LoaderWrite(base, blob);
  for (size_t i = 0; i < blob.size(); ++i) {
    uint32_t byte = 0;
    ASSERT_EQ(memory.Read8(base + static_cast<uint32_t>(i), &byte),
              MemFault::kNone);
    ASSERT_EQ(byte, static_cast<uint8_t>(blob[i])) << i;
  }
  EXPECT_EQ(memory.owned_pages(), 4u);
  // The loaded image is the baseline: no write generation moved.
  EXPECT_EQ(memory.page_write_gen(Memory::PageOf(base)), 0u);
  // Zeros on untouched pages (a `buffer` directive) allocate nothing.
  memory.LoaderWrite(kHeapBase, std::string(3 * kPageBytes, '\0'));
  EXPECT_EQ(memory.owned_pages(), 4u);
}

TEST(Memory, RawViewReturnsOneCodePage) {
  Memory memory;
  const uint32_t code_page = kDataBase + 3 * kCodePageSize;
  ASSERT_EQ(memory.Write8(code_page, 0x5A), MemFault::kNone);
  ASSERT_EQ(memory.Write8(code_page + kCodePageSize - 1, 0xA5),
            MemFault::kNone);
  const std::string_view view = memory.RawView(code_page, kCodePageSize);
  ASSERT_EQ(view.size(), kCodePageSize);
  EXPECT_EQ(static_cast<uint8_t>(view.front()), 0x5A);
  EXPECT_EQ(static_cast<uint8_t>(view.back()), 0xA5);
  // The last code page of an untouched page views the shared zero page.
  const std::string_view zeros =
      memory.RawView(kHeapBase + kPageBytes - kCodePageSize, kCodePageSize);
  EXPECT_EQ(zeros, std::string(kCodePageSize, '\0'));
}

// ---- assembler + cpu -------------------------------------------------

Program MustAssemble(const std::string& source) {
  auto program = Assemble(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

// Runs a program fragment and returns the final CPU for inspection.
struct RunOutcome {
  StopReason reason;
  uint32_t eax;
  uint32_t ebx;
  uint64_t cycles;
  std::string fault;
};

RunOutcome RunSource(const std::string& source, uint64_t budget = 100000) {
  Program program = MustAssemble(source);
  Memory memory;
  program.LoadInto(memory);
  Cpu cpu(program, memory);
  const StopReason reason = cpu.Run(budget);
  return {reason, cpu.reg(Reg::kEax), cpu.reg(Reg::kEbx), cpu.cycles_used(),
          cpu.fault_message()};
}

TEST(Cpu, MovAndArithmetic) {
  auto out = RunSource(R"(
.text
  mov eax, 10
  mov ebx, eax
  add eax, 5
  sub ebx, 3
  hlt
)");
  EXPECT_EQ(out.reason, StopReason::kHalted);
  EXPECT_EQ(out.eax, 15u);
  EXPECT_EQ(out.ebx, 7u);
}

TEST(Cpu, BitwiseOps) {
  auto out = RunSource(R"(
.text
  mov eax, 0xF0
  and eax, 0x3C
  or eax, 0x01
  xor eax, 0xFF
  hlt
)");
  // 0xF0 & 0x3C = 0x30; | 0x01 = 0x31; ^ 0xFF = 0xCE
  EXPECT_EQ(out.eax, 0xCEu);
}

TEST(Cpu, ShiftsAndUnary) {
  auto out = RunSource(R"(
.text
  mov eax, 1
  shl eax, 4
  mov ebx, eax
  shr ebx, 2
  inc eax
  dec ebx
  hlt
)");
  EXPECT_EQ(out.eax, 17u);
  EXPECT_EQ(out.ebx, 3u);
}

TEST(Cpu, NotNegMul) {
  auto out = RunSource(R"(
.text
  mov eax, 5
  neg eax
  not eax
  mov ebx, 6
  mul ebx, 7
  hlt
)");
  EXPECT_EQ(out.eax, 4u);  // -5 = 0xFFFFFFFB; ~ = 4
  EXPECT_EQ(out.ebx, 42u);
}

TEST(Cpu, ShiftBeyond31Clears) {
  auto out = RunSource(R"(
.text
  mov eax, 0xFFFF
  shl eax, 32
  mov ebx, 0xFFFF
  shr ebx, 40
  hlt
)");
  EXPECT_EQ(out.eax, 0u);
  EXPECT_EQ(out.ebx, 0u);
}

TEST(Cpu, StackPushPop) {
  auto out = RunSource(R"(
.text
  push 11
  mov eax, 22
  push eax
  pop ebx
  pop eax
  hlt
)");
  EXPECT_EQ(out.eax, 11u);
  EXPECT_EQ(out.ebx, 22u);
}

TEST(Cpu, CallRet) {
  auto out = RunSource(R"(
.text
main:
  mov eax, 1
  call sub1
  add eax, 100
  hlt
sub1:
  add eax, 10
  ret
)");
  EXPECT_EQ(out.reason, StopReason::kHalted);
  EXPECT_EQ(out.eax, 111u);
}

TEST(Cpu, NestedCalls) {
  auto out = RunSource(R"(
.text
  call a
  hlt
a:
  call b
  add eax, 1
  ret
b:
  mov eax, 40
  add eax, 1
  ret
)");
  EXPECT_EQ(out.eax, 42u);
}

TEST(Cpu, ConditionalBranches) {
  auto out = RunSource(R"(
.text
  mov eax, 5
  cmp eax, 5
  jz equal
  mov ebx, 0
  hlt
equal:
  mov ebx, 1
  hlt
)");
  EXPECT_EQ(out.ebx, 1u);
}

TEST(Cpu, SignedComparisons) {
  // -1 < 2 via jl.
  auto out = RunSource(R"(
.text
  mov eax, -1
  cmp eax, 2
  jl less
  mov ebx, 0
  hlt
less:
  mov ebx, 1
  hlt
)");
  EXPECT_EQ(out.ebx, 1u);
}

TEST(Cpu, JgJleBoundaries) {
  auto out = RunSource(R"(
.text
  mov eax, 3
  cmp eax, 3
  jg greater      ; not taken (equal)
  jle le          ; taken
  hlt
greater:
  mov ebx, 100
  hlt
le:
  mov ebx, 7
  hlt
)");
  EXPECT_EQ(out.ebx, 7u);
}

TEST(Cpu, TestInstruction) {
  auto out = RunSource(R"(
.text
  mov eax, 0x10
  test eax, 0x01
  jz bitclear
  mov ebx, 1
  hlt
bitclear:
  mov ebx, 2
  hlt
)");
  EXPECT_EQ(out.ebx, 2u);
}

TEST(Cpu, LoadStoreWordAndByte) {
  auto out = RunSource(R"(
.data
  buffer buf 16
.text
  lea ecx, [buf]
  mov eax, 0x11223344
  store [ecx], eax
  load ebx, [ecx]
  mov edx, 0x99
  storeb [ecx+4], edx
  loadb eax, [ecx+4]
  hlt
)");
  EXPECT_EQ(out.ebx, 0x11223344u);
  EXPECT_EQ(out.eax, 0x99u);
}

TEST(Cpu, LeaWithDisplacement) {
  auto out = RunSource(R"(
.data
  buffer buf 16
.text
  lea ecx, [buf]
  lea eax, [ecx+12]
  mov ebx, ecx
  sub eax, ebx
  hlt
)");
  EXPECT_EQ(out.eax, 12u);
}

TEST(Cpu, RdataStringsLoaded) {
  auto out = RunSource(R"(
.rdata
  string msg "AB"
.text
  lea ecx, [msg]
  loadb eax, [ecx]
  loadb ebx, [ecx+1]
  hlt
)");
  EXPECT_EQ(out.eax, static_cast<uint32_t>('A'));
  EXPECT_EQ(out.ebx, static_cast<uint32_t>('B'));
}

TEST(Cpu, WriteToRdataFaults) {
  auto out = RunSource(R"(
.rdata
  string msg "AB"
.text
  lea ecx, [msg]
  mov eax, 1
  store [ecx], eax
  hlt
)");
  EXPECT_EQ(out.reason, StopReason::kFault);
  EXPECT_NE(out.fault.find("bad store"), std::string::npos);
}

TEST(Cpu, PcOutOfRangeFaults) {
  auto out = RunSource(R"(
.text
  mov eax, 1
)");
  EXPECT_EQ(out.reason, StopReason::kFault);
}

TEST(Cpu, StackOverflowFaults) {
  auto out = RunSource(R"(
.text
loop:
  push 1
  jmp loop
)");
  EXPECT_EQ(out.reason, StopReason::kFault);
  EXPECT_NE(out.fault.find("stack overflow"), std::string::npos);
}

TEST(Cpu, BudgetExhaustion) {
  auto out = RunSource(R"(
.text
loop:
  jmp loop
)", /*budget=*/500);
  EXPECT_EQ(out.reason, StopReason::kBudgetExhausted);
  EXPECT_GE(out.cycles, 500u);
}

TEST(Cpu, WordDataDirective) {
  auto out = RunSource(R"(
.data
  word table 10 20 30
.text
  lea ecx, [table]
  load eax, [ecx+4]
  hlt
)");
  EXPECT_EQ(out.eax, 20u);
}

TEST(Cpu, EntryDirective) {
  auto out = RunSource(R"(
.entry real_start
.text
  mov eax, 1
  hlt
real_start:
  mov eax, 2
  hlt
)");
  EXPECT_EQ(out.eax, 2u);
}

TEST(Cpu, CharLiteralsAndHex) {
  auto out = RunSource(R"(
.text
  mov eax, 'A'
  mov ebx, 0x10
  hlt
)");
  EXPECT_EQ(out.eax, 65u);
  EXPECT_EQ(out.ebx, 16u);
}

TEST(Cpu, PushDataLabelAsAddress) {
  auto out = RunSource(R"(
.data
  buffer buf 8
.text
  push buf
  pop eax
  lea ebx, [buf]
  hlt
)");
  EXPECT_EQ(out.eax, out.ebx);
}

// ---- assembler error handling ----------------------------------------

TEST(Assembler, UnknownMnemonic) {
  auto result = Assemble(".text\n  frobnicate eax\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(Assembler, UndefinedLabel) {
  auto result = Assemble(".text\n  jmp nowhere\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("nowhere"), std::string::npos);
}

TEST(Assembler, DuplicateCodeLabel) {
  auto result = Assemble(".text\nx:\n  nop\nx:\n  nop\n");
  EXPECT_FALSE(result.ok());
}

TEST(Assembler, DuplicateDataLabel) {
  auto result = Assemble(".data\n  buffer b 4\n  buffer b 4\n.text\n  nop\n");
  EXPECT_FALSE(result.ok());
}

TEST(Assembler, WrongOperandCount) {
  auto result = Assemble(".text\n  mov eax\n");
  EXPECT_FALSE(result.ok());
}

TEST(Assembler, PopNeedsRegister) {
  auto result = Assemble(".text\n  pop 5\n");
  EXPECT_FALSE(result.ok());
}

TEST(Assembler, BadStringEscape) {
  auto result = Assemble(".rdata\n  string s \"a\\q\"\n.text\n  nop\n");
  EXPECT_FALSE(result.ok());
}

TEST(Assembler, StringEscapes) {
  auto program = Assemble(
      ".rdata\n  string s \"a\\\\b\\n\\x41\"\n.text\n  nop\n  hlt\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->data.size(), 1u);
  EXPECT_EQ(program->data[0].bytes, std::string("a\\b\nA\0", 6));
}

TEST(Assembler, CommentsInsideStrings) {
  auto program = Assemble(
      ".rdata\n  string s \"semi;colon\"  ; trailing comment\n.text\n  hlt\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->data[0].bytes, std::string("semi;colon\0", 11));
}

TEST(Assembler, SectionOverflow) {
  std::string source = ".data\n";
  // .data is 0x30000 bytes; requesting more must fail.
  for (int i = 0; i < 16; ++i) {
    source += StrFormat("  buffer b%d 16384\n", i);
  }
  source += ".text\n  hlt\n";
  auto result = Assemble(source);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("overflow"), std::string::npos);
}

TEST(Assembler, SysRequiresResolverForNames) {
  auto result = Assemble(".text\n  sys OpenMutexA\n");
  EXPECT_FALSE(result.ok());
  // Numeric ids always work.
  auto numeric = Assemble(".text\n  sys 15\n  hlt\n");
  EXPECT_TRUE(numeric.ok());
  EXPECT_EQ(numeric->code[0].imm, 15);
}

TEST(Assembler, NegativeDisplacement) {
  auto program = Assemble(".text\n  load eax, [ebp-8]\n  hlt\n");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->code[0].imm, -8);
}

// ---- program -----------------------------------------------------------

TEST(Program, DigestStableAndSensitive) {
  Program a = MustAssemble(".text\n  mov eax, 1\n  hlt\n");
  Program b = MustAssemble(".text\n  mov eax, 1\n  hlt\n");
  Program c = MustAssemble(".text\n  mov eax, 2\n  hlt\n");
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_NE(a.Digest(), c.Digest());
  EXPECT_EQ(a.Digest().size(), 32u);
}

TEST(Program, SymbolLookups) {
  Program program = MustAssemble(
      ".data\n  buffer buf 4\n.text\nstart:\n  hlt\n");
  EXPECT_TRUE(program.CodeSymbol("start").ok());
  EXPECT_FALSE(program.CodeSymbol("absent").ok());
  EXPECT_TRUE(program.DataSymbol("buf").ok());
  EXPECT_GE(program.DataSymbol("buf").value(), kDataBase);
}

// ---- disassembler -------------------------------------------------------

TEST(Disassembler, RendersCoreForms) {
  EXPECT_EQ(DisassembleInstruction({Op::kMovRI, Reg::kEax, Reg::kNone, 5}),
            "mov eax, 5");
  EXPECT_EQ(DisassembleInstruction({Op::kLoad, Reg::kEbx, Reg::kEcx, 8}),
            "load ebx, [ecx+8]");
  EXPECT_EQ(DisassembleInstruction({Op::kStore, Reg::kEcx, Reg::kEax, -4}),
            "store [ecx-4], eax");
  EXPECT_EQ(DisassembleInstruction({Op::kRet, Reg::kNone, Reg::kNone, 0}),
            "ret");
  EXPECT_EQ(DisassembleInstruction({Op::kJz, Reg::kNone, Reg::kNone, 12}),
            "jz 12");
}

TEST(Disassembler, UsesApiNamer) {
  const auto namer = [](int64_t id) -> std::optional<std::string> {
    return id == 3 ? std::optional<std::string>("OpenMutexA") : std::nullopt;
  };
  EXPECT_EQ(DisassembleInstruction({Op::kSys, Reg::kNone, Reg::kNone, 3},
                                   namer),
            "sys OpenMutexA");
  EXPECT_EQ(DisassembleInstruction({Op::kSys, Reg::kNone, Reg::kNone, 99},
                                   namer),
            "sys 99");
}

TEST(Disassembler, ProgramListingHasLabels) {
  Program program = MustAssemble(".text\nmain:\n  nop\nother:\n  hlt\n");
  const std::string listing = DisassembleProgram(program);
  EXPECT_NE(listing.find("main:"), std::string::npos);
  EXPECT_NE(listing.find("other:"), std::string::npos);
  EXPECT_NE(listing.find("nop"), std::string::npos);
}

// Round-trip property: assembling the same source twice yields identical
// programs (digest equality), across a batch of generator seeds.
class AssemblerDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(AssemblerDeterminism, StableDigest) {
  const std::string source = StrFormat(
      ".data\n  buffer b 8\n.text\n  mov eax, %d\n  push eax\n  pop ebx\n"
      "  cmp ebx, %d\n  jz done\n  nop\ndone:\n  hlt\n",
      GetParam(), GetParam());
  Program a = MustAssemble(source);
  Program b = MustAssemble(source);
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_EQ(a.code.size(), b.code.size());
}

INSTANTIATE_TEST_SUITE_P(Values, AssemblerDeterminism,
                         ::testing::Range(0, 8));

// ---- memory execution + self-modifying code --------------------------

TEST(IsaEncoding, RoundTripsAndRejectsGarbage) {
  const Instruction inst{Op::kMovRI, Reg::kEax, Reg::kNone, -7};
  const auto bytes = EncodeInstruction(inst);
  Instruction decoded;
  ASSERT_TRUE(DecodeInstruction(bytes.data(), &decoded));
  EXPECT_EQ(decoded, inst);

  auto bad = bytes;
  bad[0] = static_cast<uint8_t>(Op::kOpCount);  // opcode out of range
  EXPECT_FALSE(DecodeInstruction(bad.data(), &decoded));
  bad = bytes;
  bad[1] = 9;  // register out of range
  EXPECT_FALSE(DecodeInstruction(bad.data(), &decoded));
  bad = bytes;
  bad[3] = 1;  // reserved byte must be zero
  EXPECT_FALSE(DecodeInstruction(bad.data(), &decoded));
}

// Counts kSelfModifyingCode events (the accessor on Cpu is a flush-delta,
// so tests observe the event stream directly).
struct SmcCounter : ExecutionObserver {
  void OnStep(const Cpu&, const StepInfo&) override {}
  void OnVmEvent(const Cpu&, VmEvent event, uint32_t addr,
                 uint32_t size) override {
    if (event != VmEvent::kSelfModifyingCode) return;
    ++events;
    last_addr = addr;
    last_size = size;
  }
  int events = 0;
  uint32_t last_addr = 0;
  uint32_t last_size = 0;
};

// Writes encoded instructions into guest memory. Loader writes leave the
// page generations untouched; guest writes dirty them.
void PlaceEncoded(Memory& memory, uint32_t addr,
                  const std::vector<Instruction>& insts, bool guest) {
  for (const Instruction& inst : insts) {
    const auto bytes = EncodeInstruction(inst);
    for (uint8_t byte : bytes) {
      if (guest) {
        ASSERT_EQ(memory.Write8(addr, byte), MemFault::kNone);
      } else {
        memory.LoaderWrite(addr, std::string(1, static_cast<char>(byte)));
      }
      ++addr;
    }
  }
}

TEST(Cpu, ExecutesEncodedPayloadFromMemory) {
  Program program = MustAssemble(".text\n  hlt\n");
  Memory memory;
  program.LoadInto(memory);
  PlaceEncoded(memory, kDataBase,
               {{Op::kMovRI, Reg::kEax, Reg::kNone, 42},
                {Op::kHlt, Reg::kNone, Reg::kNone, 0}},
               /*guest=*/false);
  program.entry = kDataBase;  // start directly in memory-execution mode
  Cpu cpu(program, memory);
  SmcCounter counter;
  cpu.set_observer(&counter);
  EXPECT_EQ(cpu.Run(100), StopReason::kHalted);
  EXPECT_EQ(cpu.reg(Reg::kEax), 42u);
  // Loader-placed code was never guest-written: no unpacking signal.
  EXPECT_EQ(counter.events, 0);
}

TEST(Cpu, MemoryModeBranchesArePcRelative) {
  Program program = MustAssemble(".text\n  hlt\n");
  Memory memory;
  program.LoadInto(memory);
  // Skip over a trap: jmp +16 hops the mov that would clobber eax.
  PlaceEncoded(memory, kDataBase,
               {{Op::kMovRI, Reg::kEax, Reg::kNone, 1},
                {Op::kJmp, Reg::kNone, Reg::kNone, 16},
                {Op::kMovRI, Reg::kEax, Reg::kNone, 99},
                {Op::kHlt, Reg::kNone, Reg::kNone, 0}},
               /*guest=*/false);
  program.entry = kDataBase;
  Cpu cpu(program, memory);
  EXPECT_EQ(cpu.Run(100), StopReason::kHalted);
  EXPECT_EQ(cpu.reg(Reg::kEax), 1u);
}

TEST(Cpu, WriteThenExecuteFiresEventOncePerDirtiedRegion) {
  Program program = MustAssemble(".text\n  hlt\n");
  Memory memory;
  program.LoadInto(memory);
  // Guest-written payload: loop back to the entry once via ebx.
  PlaceEncoded(memory, kDataBase,
               {{Op::kIncR, Reg::kEax, Reg::kNone, 0},
                {Op::kCmpRI, Reg::kEax, Reg::kNone, 3},
                {Op::kJl, Reg::kNone, Reg::kNone, -16},
                {Op::kHlt, Reg::kNone, Reg::kNone, 0}},
               /*guest=*/true);
  program.entry = kDataBase;
  Cpu cpu(program, memory);
  SmcCounter counter;
  cpu.set_observer(&counter);
  EXPECT_EQ(cpu.Run(100), StopReason::kHalted);
  EXPECT_EQ(cpu.reg(Reg::kEax), 3u);
  // The loop re-enters the dirtied page repeatedly but the event fires
  // exactly once; the region is the containing code page.
  EXPECT_EQ(counter.events, 1);
  EXPECT_EQ(counter.last_addr, Memory::PageOf(kDataBase) * kCodePageSize);
  EXPECT_EQ(counter.last_size, kCodePageSize);
}

TEST(Cpu, RewritingExecutedPageRearmsTheEventAndRedecodes) {
  Program program = MustAssemble(".text\n  hlt\n");
  Memory memory;
  program.LoadInto(memory);
  PlaceEncoded(memory, kDataBase,
               {{Op::kMovRI, Reg::kEax, Reg::kNone, 7},
                {Op::kHlt, Reg::kNone, Reg::kNone, 0}},
               /*guest=*/true);
  program.entry = kDataBase;
  {
    Cpu cpu(program, memory);
    SmcCounter counter;
    cpu.set_observer(&counter);
    EXPECT_EQ(cpu.Run(100), StopReason::kHalted);
    EXPECT_EQ(cpu.reg(Reg::kEax), 7u);
    EXPECT_EQ(counter.events, 1);
  }
  // Overwrite the immediate in place; a fresh run must re-decode the
  // page (observing 8, not a stale 7) and fire the event again.
  PlaceEncoded(memory, kDataBase,
               {{Op::kMovRI, Reg::kEax, Reg::kNone, 8}},
               /*guest=*/true);
  {
    Cpu cpu(program, memory);
    SmcCounter counter;
    cpu.set_observer(&counter);
    EXPECT_EQ(cpu.Run(100), StopReason::kHalted);
    EXPECT_EQ(cpu.reg(Reg::kEax), 8u);
    EXPECT_EQ(counter.events, 1);
  }
}

// The write/exec generations travel with a copy: a code page written in
// a copy after it was taken re-arms the event for the copy's CPU only.
TEST(Cpu, CodePageWrittenAfterCopyFiresAgainInTheCopy) {
  Program program = MustAssemble(".text\n  hlt\n");
  Memory memory;
  program.LoadInto(memory);
  PlaceEncoded(memory, kDataBase,
               {{Op::kMovRI, Reg::kEax, Reg::kNone, 7},
                {Op::kHlt, Reg::kNone, Reg::kNone, 0}},
               /*guest=*/true);
  program.entry = kDataBase;
  auto run = [&](Memory& target, uint32_t expected_eax) {
    Cpu cpu(program, target);
    SmcCounter counter;
    cpu.set_observer(&counter);
    EXPECT_EQ(cpu.Run(100), StopReason::kHalted);
    EXPECT_EQ(cpu.reg(Reg::kEax), expected_eax);
    return counter.events;
  };
  EXPECT_EQ(run(memory, 7), 1);

  // A copy of the executed machine is not dirty: no event in either.
  Memory copy = memory;
  EXPECT_EQ(run(copy, 7), 0);
  PlaceEncoded(copy, kDataBase, {{Op::kMovRI, Reg::kEax, Reg::kNone, 8}},
               /*guest=*/true);
  EXPECT_EQ(run(copy, 8), 1);
  EXPECT_EQ(run(memory, 7), 0);
}

TEST(Cpu, CrossPageWritesDirtyBothPages) {
  Program program = MustAssemble(".text\n  hlt\n");
  Memory memory;
  program.LoadInto(memory);
  // A 32-bit guest write straddling a page boundary dirties both sides.
  const uint32_t boundary = kDataBase + kCodePageSize;
  ASSERT_EQ(memory.Write32(boundary - 2, 0xDEADBEEF), MemFault::kNone);
  EXPECT_GT(memory.page_write_gen(Memory::PageOf(boundary - 2)), 0u);
  EXPECT_GT(memory.page_write_gen(Memory::PageOf(boundary + 1)), 0u);

  // Payload on the first page, falls through onto the second: both pages
  // were dirtied, so entering each fires its own event.
  std::vector<Instruction> pad;
  for (uint32_t i = 0; i < kCodePageSize / kEncodedInstrSize; ++i) {
    pad.push_back({Op::kNop, Reg::kNone, Reg::kNone, 0});
  }
  PlaceEncoded(memory, kDataBase, pad, /*guest=*/true);
  PlaceEncoded(memory, boundary, {{Op::kHlt, Reg::kNone, Reg::kNone, 0}},
               /*guest=*/true);
  program.entry = kDataBase;
  Cpu cpu(program, memory);
  SmcCounter counter;
  cpu.set_observer(&counter);
  EXPECT_EQ(cpu.Run(1000), StopReason::kHalted);
  EXPECT_EQ(counter.events, 2);
}

TEST(Cpu, MisalignedMemoryFetchFaults) {
  Program program = MustAssemble(".text\n  hlt\n");
  Memory memory;
  program.LoadInto(memory);
  program.entry = kDataBase + 3;
  Cpu cpu(program, memory);
  EXPECT_EQ(cpu.Run(10), StopReason::kFault);
  EXPECT_NE(cpu.fault_message().find("misaligned"), std::string::npos);
}

TEST(Cpu, InvalidEncodingFaults) {
  Program program = MustAssemble(".text\n  hlt\n");
  Memory memory;
  program.LoadInto(memory);
  // 0xFF opcode at the entry: decode must reject, not execute garbage.
  ASSERT_EQ(memory.Write8(kDataBase, 0xFF), MemFault::kNone);
  program.entry = kDataBase;
  Cpu cpu(program, memory);
  EXPECT_EQ(cpu.Run(10), StopReason::kFault);
  EXPECT_NE(cpu.fault_message().find("invalid instruction"),
            std::string::npos);
}

TEST(Cpu, StaticCallIntoMemoryReturnsToStaticCode) {
  // A static program calls a data-label payload; ret must bridge back
  // into static mode at the instruction after the call.
  Program program = MustAssemble(R"(
.data
  buffer buf 16
.text
  mov eax, 1
  call buf
  add eax, 100
  hlt
)");
  Memory memory;
  program.LoadInto(memory);
  const uint32_t buf = program.DataSymbol("buf").value();
  PlaceEncoded(memory, buf,
               {{Op::kAddRI, Reg::kEax, Reg::kNone, 10},
                {Op::kRet, Reg::kNone, Reg::kNone, 0}},
               /*guest=*/false);
  Cpu cpu(program, memory);
  EXPECT_EQ(cpu.Run(100), StopReason::kHalted);
  EXPECT_EQ(cpu.reg(Reg::kEax), 111u);
}

}  // namespace
}  // namespace autovac::vm
