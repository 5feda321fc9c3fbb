// Unit tests for the analysis layer: trace alignment (Algorithm 1),
// immunization classification, exclusiveness analysis, mutation-target
// collection, and determinism analysis with slice extraction/replay.
#include <gtest/gtest.h>

#include "analysis/alignment.h"
#include "analysis/determinism.h"
#include "analysis/exclusiveness.h"
#include "analysis/immunization.h"
#include "analysis/impact.h"
#include "sandbox/sandbox.h"
#include "support/strings.h"
#include "vaccine/delivery.h"

namespace autovac::analysis {
namespace {

trace::ApiCallRecord Call(const std::string& api, uint32_t pc,
                          const std::string& identifier = "",
                          bool succeeded = true) {
  trace::ApiCallRecord call;
  call.api_name = api;
  call.caller_pc = pc;
  call.resource_identifier = identifier;
  call.succeeded = succeeded;
  return call;
}

trace::ApiTrace MakeTrace(std::vector<trace::ApiCallRecord> calls) {
  trace::ApiTrace trace;
  for (size_t i = 0; i < calls.size(); ++i) {
    calls[i].sequence = static_cast<uint32_t>(i);
    trace.calls.push_back(std::move(calls[i]));
  }
  return trace;
}

// ---- alignment ---------------------------------------------------------

TEST(Alignment, IdenticalTracesFullyAligned) {
  auto trace = MakeTrace({Call("A", 1), Call("B", 2), Call("C", 3)});
  auto alignment = AlignTraces(trace, trace);
  EXPECT_EQ(alignment.matches.size(), 3u);
  EXPECT_TRUE(alignment.delta_natural.empty());
  EXPECT_TRUE(alignment.delta_mutated.empty());
  EXPECT_DOUBLE_EQ(alignment.MatchRatio(3), 1.0);
}

TEST(Alignment, MissingSuffixLandsInDeltaNatural) {
  auto natural = MakeTrace({Call("A", 1), Call("B", 2), Call("C", 3),
                            Call("D", 4)});
  auto mutated = MakeTrace({Call("A", 1), Call("B", 2)});
  auto alignment = AlignTraces(natural, mutated);
  EXPECT_EQ(alignment.matches.size(), 2u);
  ASSERT_EQ(alignment.delta_natural.size(), 2u);
  EXPECT_EQ(natural.calls[alignment.delta_natural[0]].api_name, "C");
  EXPECT_TRUE(alignment.delta_mutated.empty());
}

TEST(Alignment, ExtraMutatedCallsLandInDeltaMutated) {
  auto natural = MakeTrace({Call("A", 1), Call("B", 2)});
  auto mutated = MakeTrace({Call("A", 1), Call("X", 9), Call("B", 2)});
  auto alignment = AlignTraces(natural, mutated);
  EXPECT_EQ(alignment.matches.size(), 2u);
  ASSERT_EQ(alignment.delta_mutated.size(), 1u);
  EXPECT_EQ(mutated.calls[alignment.delta_mutated[0]].api_name, "X");
}

TEST(Alignment, MiddleGapAligned) {
  auto natural = MakeTrace({Call("A", 1), Call("B", 2), Call("C", 3)});
  auto mutated = MakeTrace({Call("A", 1), Call("C", 3)});
  auto alignment = AlignTraces(natural, mutated);
  EXPECT_EQ(alignment.matches.size(), 2u);
  ASSERT_EQ(alignment.delta_natural.size(), 1u);
  EXPECT_EQ(natural.calls[alignment.delta_natural[0]].api_name, "B");
}

TEST(Alignment, CallerPcDistinguishesSites) {
  // Same API at different sites must not align by default...
  auto natural = MakeTrace({Call("OpenMutexA", 10)});
  auto mutated = MakeTrace({Call("OpenMutexA", 20)});
  auto strict = AlignTraces(natural, mutated);
  EXPECT_TRUE(strict.matches.empty());
  // ...but does when the ablation drops the caller-PC from the context.
  AlignmentOptions loose;
  loose.use_caller_pc = false;
  auto ablated = AlignTraces(natural, mutated, loose);
  EXPECT_EQ(ablated.matches.size(), 1u);
}

TEST(Alignment, IdentifierDistinguishesResources) {
  auto natural = MakeTrace({Call("OpenMutexA", 10, "m1")});
  auto mutated = MakeTrace({Call("OpenMutexA", 10, "m2")});
  EXPECT_TRUE(AlignTraces(natural, mutated).matches.empty());
  AlignmentOptions loose;
  loose.use_identifier = false;
  EXPECT_EQ(AlignTraces(natural, mutated, loose).matches.size(), 1u);
}

TEST(Alignment, HugeTracesUseGreedyFallback) {
  // 8000 x 7200 calls, past the 32M cells where the aligner once fell
  // back to a greedy window: alignment is exact at every size, so every
  // surviving call aligns and only the lost ones land in Δn.
  trace::ApiTrace natural;
  trace::ApiTrace mutated;
  constexpr size_t kBig = 8000;
  for (size_t i = 0; i < kBig; ++i) {
    auto call = Call(i % 2 == 0 ? "send" : "recv",
                     static_cast<uint32_t>(i % 16));
    call.sequence = static_cast<uint32_t>(natural.calls.size());
    natural.calls.push_back(call);
    if (i % 10 != 3) {  // mutated run lost every 10th call
      call.sequence = static_cast<uint32_t>(mutated.calls.size());
      mutated.calls.push_back(call);
    }
  }
  auto alignment = AlignTraces(natural, mutated);
  EXPECT_EQ(alignment.matches.size(), mutated.calls.size());
  EXPECT_EQ(alignment.delta_natural.size(),
            natural.calls.size() - mutated.calls.size());
  EXPECT_TRUE(alignment.delta_mutated.empty());
}

TEST(Alignment, EmptyTraces) {
  trace::ApiTrace empty;
  auto trace = MakeTrace({Call("A", 1)});
  auto a = AlignTraces(empty, trace);
  EXPECT_EQ(a.delta_mutated.size(), 1u);
  auto b = AlignTraces(trace, empty);
  EXPECT_EQ(b.delta_natural.size(), 1u);
  EXPECT_DOUBLE_EQ(b.MatchRatio(0), 1.0);
}

// ---- immunization classification ---------------------------------------

trace::ApiCallRecord ResourceCall(const std::string& api, uint32_t pc,
                                  os::ResourceType type, os::Operation op,
                                  const std::string& identifier) {
  auto call = Call(api, pc, identifier);
  call.is_resource_api = true;
  call.resource_type = type;
  call.operation = op;
  return call;
}

TEST(Immunization, FullWhenMutatedRunSelfTerminates) {
  auto natural = MakeTrace({Call("A", 1), Call("send", 2), Call("send", 3)});
  auto mutated = MakeTrace({Call("A", 1), Call("ExitProcess", 99)});
  auto effect = ClassifyImmunization(natural, mutated);
  EXPECT_EQ(effect.type, ImmunizationType::kFull);
  ASSERT_FALSE(effect.evidence.empty());
  EXPECT_EQ(effect.evidence[0], "ExitProcess");
}

TEST(Immunization, AlignedExitIsNotFull) {
  // Both runs exit at the same site: no difference, no vaccine.
  auto natural = MakeTrace({Call("A", 1), Call("ExitProcess", 9)});
  auto mutated = MakeTrace({Call("A", 1), Call("ExitProcess", 9)});
  EXPECT_EQ(ClassifyImmunization(natural, mutated).type,
            ImmunizationType::kNone);
}

TEST(Immunization, TypeIKernelInjectionFromSysFile) {
  auto natural = MakeTrace(
      {Call("A", 1),
       ResourceCall("CreateFileA", 5, os::ResourceType::kFile,
                    os::Operation::kCreate,
                    "C:\\Windows\\system32\\driver\\evil.sys")});
  auto mutated = MakeTrace({Call("A", 1)});
  EXPECT_EQ(ClassifyImmunization(natural, mutated).type,
            ImmunizationType::kTypeIKernelInjection);
}

TEST(Immunization, TypeIRequiresSysBinaryForServices) {
  auto service_call = Call("CreateServiceA", 7, "svc");
  service_call.is_resource_api = true;
  service_call.resource_type = os::ResourceType::kService;
  service_call.operation = os::Operation::kCreate;
  service_call.params = {"0x100", "\"svc\"", "\"C:\\plain.exe\""};
  auto natural = MakeTrace({Call("A", 1), service_call});
  auto mutated = MakeTrace({Call("A", 1)});
  // Plain .exe service: persistence, not kernel injection.
  EXPECT_EQ(ClassifyImmunization(natural, mutated).type,
            ImmunizationType::kTypeIIIPersistence);

  service_call.params[2] = "\"C:\\drv.sys\"";
  auto natural_sys = MakeTrace({Call("A", 1), service_call});
  EXPECT_EQ(ClassifyImmunization(natural_sys, mutated).type,
            ImmunizationType::kTypeIKernelInjection);
}

TEST(Immunization, TypeIINeedsEnoughNetworkCalls) {
  std::vector<trace::ApiCallRecord> calls{Call("A", 1)};
  for (uint32_t i = 0; i < 2; ++i) calls.push_back(Call("send", 10 + i));
  auto natural_small = MakeTrace(calls);
  auto mutated = MakeTrace({Call("A", 1)});
  // Two lost network calls: below the threshold.
  EXPECT_EQ(ClassifyImmunization(natural_small, mutated).type,
            ImmunizationType::kNone);
  for (uint32_t i = 2; i < 6; ++i) calls.push_back(Call("send", 10 + i));
  auto natural_large = MakeTrace(calls);
  EXPECT_EQ(ClassifyImmunization(natural_large, mutated).type,
            ImmunizationType::kTypeIINetwork);
}

TEST(Immunization, TypeIIIPersistenceFromRunKey) {
  auto natural = MakeTrace(
      {Call("A", 1),
       ResourceCall("RegSetValueExA", 5, os::ResourceType::kRegistry,
                    os::Operation::kWrite,
                    "HKLM\\Software\\Microsoft\\Windows\\CurrentVersion\\Run")});
  auto mutated = MakeTrace({Call("A", 1)});
  EXPECT_EQ(ClassifyImmunization(natural, mutated).type,
            ImmunizationType::kTypeIIIPersistence);
}

TEST(Immunization, TypeIIIFromStartupFolderFile) {
  auto natural = MakeTrace(
      {Call("A", 1),
       ResourceCall("CreateFileA", 5, os::ResourceType::kFile,
                    os::Operation::kCreate,
                    "C:\\Users\\x\\Startup\\evil.lnk")});
  auto mutated = MakeTrace({Call("A", 1)});
  EXPECT_EQ(ClassifyImmunization(natural, mutated).type,
            ImmunizationType::kTypeIIIPersistence);
}

TEST(Immunization, TypeIVProcessInjection) {
  auto natural = MakeTrace(
      {Call("A", 1),
       ResourceCall("WriteProcessMemory", 5, os::ResourceType::kProcess,
                    os::Operation::kWrite, "explorer.exe")});
  auto mutated = MakeTrace({Call("A", 1)});
  EXPECT_EQ(ClassifyImmunization(natural, mutated).type,
            ImmunizationType::kTypeIVProcessInjection);
}

TEST(Immunization, FailedCallsAreNotEvidence) {
  auto failed = ResourceCall("WriteProcessMemory", 5,
                             os::ResourceType::kProcess,
                             os::Operation::kWrite, "explorer.exe");
  failed.succeeded = false;
  auto natural = MakeTrace({Call("A", 1), failed});
  auto mutated = MakeTrace({Call("A", 1)});
  EXPECT_EQ(ClassifyImmunization(natural, mutated).type,
            ImmunizationType::kNone);
}

TEST(Immunization, PriorityKernelOverPersistence) {
  auto natural = MakeTrace(
      {Call("A", 1),
       ResourceCall("CreateFileA", 5, os::ResourceType::kFile,
                    os::Operation::kCreate, "C:\\drv.sys"),
       ResourceCall("RegSetValueExA", 6, os::ResourceType::kRegistry,
                    os::Operation::kWrite,
                    "HKCU\\Software\\Microsoft\\Windows\\CurrentVersion\\Run")});
  auto mutated = MakeTrace({Call("A", 1)});
  EXPECT_EQ(ClassifyImmunization(natural, mutated).type,
            ImmunizationType::kTypeIKernelInjection);
}

TEST(Immunization, NamesAndLabels) {
  EXPECT_EQ(ImmunizationTypeLabel(ImmunizationType::kFull), "Full");
  EXPECT_EQ(ImmunizationTypeLabel(ImmunizationType::kTypeIIIPersistence),
            "Type-III");
  EXPECT_EQ(ImmunizationTypeName(ImmunizationType::kTypeIINetwork),
            "Disable Massive Network Behavior");
}

// ---- exclusiveness ------------------------------------------------------

TEST(Exclusiveness, WhitelistRejectsSystemNames) {
  ExclusivenessIndex index;
  EXPECT_FALSE(index.IsExclusive("uxtheme.dll"));
  EXPECT_FALSE(index.IsExclusive("UXTHEME.DLL"));  // case-insensitive
  EXPECT_FALSE(index.IsExclusive("explorer.exe"));
  EXPECT_FALSE(index.IsExclusive(
      "HKLM\\Software\\Microsoft\\Windows\\CurrentVersion\\Run"));
  EXPECT_TRUE(index.IsExclusive(")!VoqA.I4"));
  EXPECT_FALSE(index.IsExclusive(""));  // nothing to key a vaccine on
}

TEST(Exclusiveness, IndexingBenignTraces) {
  ExclusivenessIndex index;
  auto benign = MakeTrace(
      {ResourceCall("CreateMutexA", 1, os::ResourceType::kMutex,
                    os::Operation::kCreate, "OfficeSingleInstance")});
  index.IndexBenignTrace("office", benign);
  EXPECT_FALSE(index.IsExclusive("OfficeSingleInstance"));
  auto hits = index.Query("OfficeSingleInstance");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].context, "office");
}

TEST(Exclusiveness, QueryAggregatesContexts) {
  ExclusivenessIndex index;
  index.AddKnownBenign("shared", "app1");
  index.AddKnownBenign("shared", "app2");
  EXPECT_EQ(index.Query("shared").size(), 2u);
  EXPECT_TRUE(index.Query("unseen").empty());
}

// ---- mutation targets ------------------------------------------------------

TEST(MutationTargets, CollectsTaintedAndFailed) {
  auto tainted = ResourceCall("OpenMutexA", 10, os::ResourceType::kMutex,
                              os::Operation::kOpen, "m");
  tainted.taint_reached_predicate = true;
  auto failed = ResourceCall("CreateFileA", 20, os::ResourceType::kFile,
                             os::Operation::kCreate, "f");
  failed.succeeded = false;
  auto boring = ResourceCall("WriteFile", 30, os::ResourceType::kFile,
                             os::Operation::kWrite, "g");
  auto non_resource = Call("send", 40);
  non_resource.taint_reached_predicate = true;

  auto trace = MakeTrace({tainted, failed, boring, non_resource});
  auto targets = CollectMutationTargets(trace);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].identifier, "m");
  EXPECT_EQ(targets[1].identifier, "f");
  EXPECT_FALSE(targets[1].natural_success);
}

TEST(MutationTargets, DedupsByApiSiteAndIdentifier) {
  auto call = ResourceCall("OpenMutexA", 10, os::ResourceType::kMutex,
                           os::Operation::kOpen, "m");
  call.taint_reached_predicate = true;
  auto trace = MakeTrace({call, call, call});
  EXPECT_EQ(CollectMutationTargets(trace).size(), 1u);
}

TEST(MutationTargets, SimulatesPresenceLogic) {
  MutationTarget target;
  target.api_name = "OpenMutexA";
  target.resource_type = os::ResourceType::kMutex;
  target.operation = os::Operation::kOpen;
  target.natural_success = false;
  EXPECT_TRUE(target.SimulatesPresence());  // failed open -> fake presence

  target.natural_success = true;
  EXPECT_FALSE(target.SimulatesPresence());  // successful open -> deny

  MutationTarget create;
  create.api_name = "CreateMutexA";
  create.resource_type = os::ResourceType::kMutex;
  create.operation = os::Operation::kCreate;
  create.natural_success = true;
  EXPECT_TRUE(create.SimulatesPresence());  // marker simulation

  create.natural_already_existed = true;
  EXPECT_FALSE(create.SimulatesPresence());  // present already -> deny

  MutationTarget file_create;
  file_create.api_name = "CreateFileA";
  file_create.resource_type = os::ResourceType::kFile;
  file_create.operation = os::Operation::kCreate;
  file_create.natural_success = true;
  EXPECT_FALSE(file_create.SimulatesPresence());  // deny the drop
}

TEST(MutationHook, MatchesExactOccurrence) {
  MutationTarget target;
  target.api_name = "OpenMutexA";
  target.caller_pc = 10;
  target.identifier = "m";
  target.resource_type = os::ResourceType::kMutex;
  target.operation = os::Operation::kOpen;
  target.natural_success = false;
  auto hook = MakeMutationHook(target);

  const sandbox::ApiSpec& spec =
      sandbox::GetApiSpec(sandbox::ApiId::kOpenMutexA);
  sandbox::ApiObservation match{sandbox::ApiId::kOpenMutexA, &spec, 10, 0,
                                "m"};
  auto outcome = hook(match);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);

  sandbox::ApiObservation wrong_pc{sandbox::ApiId::kOpenMutexA, &spec, 11, 0,
                                   "m"};
  EXPECT_FALSE(hook(wrong_pc).has_value());
  sandbox::ApiObservation wrong_id{sandbox::ApiId::kOpenMutexA, &spec, 10, 0,
                                   "other"};
  EXPECT_FALSE(hook(wrong_id).has_value());
}

// ---- determinism analysis ----------------------------------------------------

struct Analyzed {
  sandbox::RunResult run;
  Result<DeterminismReport> report = Status::Internal("unset");
  vm::Program program;
};

// Runs a program and analyzes the identifier of the first call to `api`.
Analyzed AnalyzeFirst(const std::string& source, const std::string& api) {
  Analyzed out;
  auto program = sandbox::AssembleForSandbox(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  out.program = program.value();
  os::HostEnvironment env = os::HostEnvironment::StandardMachine();
  sandbox::RunOptions options;
  options.record_instructions = true;
  out.run = sandbox::RunProgram(out.program, env, options);
  auto calls = out.run.api_trace.FindCalls(api);
  EXPECT_FALSE(calls.empty());
  out.report = AnalyzeIdentifier(out.run.instruction_trace,
                                 out.run.api_trace, calls[0]->sequence);
  return out;
}

TEST(Determinism, StaticLiteralIdentifier) {
  auto analyzed = AnalyzeFirst(R"(
.rdata
  string name "static-mutex"
.text
  push name
  push 0
  sys OpenMutexA
  add esp, 8
  hlt
)", "OpenMutexA");
  ASSERT_TRUE(analyzed.report.ok()) << analyzed.report.status().ToString();
  EXPECT_EQ(analyzed.report->cls, IdentifierClass::kStatic);
  EXPECT_EQ(analyzed.report->identifier, "static-mutex");
  EXPECT_EQ(analyzed.report->origin_map, std::string(12, 'S'));
  EXPECT_TRUE(analyzed.report->pattern.Matches("static-mutex"));
}

TEST(Determinism, EnvironmentDerivedIsAlgorithmic) {
  auto analyzed = AnalyzeFirst(R"(
.rdata
  string fmt "pre-%s-post"
.data
  buffer host 64
  buffer name 128
.text
  push 64
  push host
  sys GetComputerNameA
  add esp, 8
  push host
  push fmt
  push name
  sys wsprintfA
  add esp, 12
  push name
  push 0
  sys OpenMutexA
  add esp, 8
  hlt
)", "OpenMutexA");
  ASSERT_TRUE(analyzed.report.ok());
  EXPECT_EQ(analyzed.report->cls, IdentifierClass::kAlgorithmDeterministic);
  // Literal prefix static, host part environment-derived.
  EXPECT_EQ(analyzed.report->origin_map.substr(0, 4), "SSSS");
  EXPECT_NE(analyzed.report->origin_map.find('E'), std::string::npos);
  EXPECT_EQ(analyzed.report->origin_map.find('R'), std::string::npos);
}

TEST(Determinism, RandomWithLiteralIsPartialStatic) {
  auto analyzed = AnalyzeFirst(R"(
.rdata
  string fmt "syshelper-%x-svc"
.data
  buffer name 128
.text
  sys rand
  push eax
  push fmt
  push name
  sys wsprintfA
  add esp, 12
  push name
  push 1
  sys CreateMutexA
  add esp, 8
  hlt
)", "CreateMutexA");
  ASSERT_TRUE(analyzed.report.ok());
  EXPECT_EQ(analyzed.report->cls, IdentifierClass::kPartialStatic);
  EXPECT_TRUE(analyzed.report->pattern.Matches("syshelper-1234-svc"));
  EXPECT_TRUE(analyzed.report->pattern.Matches("syshelper-cafe-svc"));
  EXPECT_FALSE(analyzed.report->pattern.Matches("other-1234-svc"));
}

TEST(Determinism, PureRandomIsNonDeterministic) {
  auto analyzed = AnalyzeFirst(R"(
.data
  buffer name 260
.text
  push name
  sys GetTempFileNameA
  add esp, 4
  push 2
  push name
  sys CreateFileA
  add esp, 8
  hlt
)", "CreateFileA");
  ASSERT_TRUE(analyzed.report.ok());
  // The temp path has a long static prefix ("C:\Windows\Temp\tmp"), so it
  // classifies as partial static by the letter of the taxonomy — with a
  // tighter minimum it is deleted. Verify both thresholds.
  DeterminismOptions strict;
  strict.min_literal_chars = 64;
  auto calls = analyzed.run.api_trace.FindCalls("CreateFileA");
  auto strict_report =
      AnalyzeIdentifier(analyzed.run.instruction_trace, analyzed.run.api_trace,
                        calls[0]->sequence, strict);
  ASSERT_TRUE(strict_report.ok());
  EXPECT_EQ(strict_report->cls, IdentifierClass::kNonDeterministic);
  EXPECT_NE(analyzed.report->origin_map.find('R'), std::string::npos);
}

TEST(Determinism, HandleAnchoredCallIsRejected) {
  auto analyzed = AnalyzeFirst(R"(
.rdata
  string path "C:\\f.bin"
.text
  push 2
  push path
  sys CreateFileA
  add esp, 8
  mov ebx, eax
  push 4
  push path
  push ebx
  sys WriteFile
  add esp, 12
  hlt
)", "CreateFileA");
  // WriteFile resolves via handle: no in-memory identifier to anchor.
  auto write_calls = analyzed.run.api_trace.FindCalls("WriteFile");
  ASSERT_FALSE(write_calls.empty());
  auto report =
      AnalyzeIdentifier(analyzed.run.instruction_trace, analyzed.run.api_trace,
                        write_calls[0]->sequence);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Determinism, SliceReplaysOnOtherHosts) {
  auto analyzed = AnalyzeFirst(R"(
.rdata
  string fmt "Global\\%s-42"
.data
  buffer host 64
  buffer hex 32
  buffer name 128
.text
  push 64
  push host
  sys GetComputerNameA
  add esp, 8
  push host
  sys lstrlenA
  add esp, 4
  mov ecx, eax
  push ecx
  push host
  push 0
  sys RtlComputeCrc32
  add esp, 12
  push 16
  push hex
  push eax
  sys _itoa
  add esp, 12
  push hex
  push fmt
  push name
  sys wsprintfA
  add esp, 12
  push name
  push 0
  sys OpenMutexA
  add esp, 8
  hlt
)", "OpenMutexA");
  ASSERT_TRUE(analyzed.report.ok());
  ASSERT_EQ(analyzed.report->cls, IdentifierClass::kAlgorithmDeterministic);

  auto calls = analyzed.run.api_trace.FindCalls("OpenMutexA");
  auto slice = ExtractSlice(analyzed.program, analyzed.run.instruction_trace,
                            analyzed.run.api_trace, *analyzed.report,
                            calls[0]->sequence);
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();

  // Property: on the analysis machine the slice regenerates exactly the
  // observed identifier; on randomized hosts it stays format-shaped but
  // host-specific.
  os::HostEnvironment analysis_machine = os::HostEnvironment::StandardMachine();
  EXPECT_EQ(vaccine::VaccineDaemon::ReplaySlice(*slice, analysis_machine),
            analyzed.report->identifier);
  Rng rng(123);
  for (int i = 0; i < 5; ++i) {
    os::HostEnvironment host = os::HostEnvironment::RandomizedMachine(rng);
    const std::string replayed =
        vaccine::VaccineDaemon::ReplaySlice(*slice, host);
    EXPECT_EQ(replayed.substr(0, 7), "Global\\");
    EXPECT_EQ(replayed.substr(replayed.size() - 3), "-42");
  }
}

TEST(Determinism, SliceThroughManualByteLoop) {
  // Identifier assembled byte by byte from the hostname with plain
  // loads/stores (no string helpers): the instruction-level backward
  // slice must still capture the whole chain.
  auto analyzed = AnalyzeFirst(R"(
.data
  buffer host 64
  buffer name 64
.text
  push 64
  push host
  sys GetComputerNameA
  add esp, 8
  lea esi, [host]
  lea edi, [name]
copy:
  loadb eax, [esi]
  cmp eax, 0
  jz done
  storeb [edi], eax
  add esi, 1
  add edi, 1
  jmp copy
done:
  mov eax, 33        ; '!'
  storeb [edi], eax
  add edi, 1
  mov eax, 0
  storeb [edi], eax
  push name
  push 0
  sys OpenMutexA
  add esp, 8
  hlt
)", "OpenMutexA");
  ASSERT_TRUE(analyzed.report.ok());
  EXPECT_EQ(analyzed.report->cls, IdentifierClass::kAlgorithmDeterministic);
  EXPECT_EQ(analyzed.report->identifier, "WIN-DESKTOP7!");

  auto calls = analyzed.run.api_trace.FindCalls("OpenMutexA");
  auto slice = ExtractSlice(analyzed.program, analyzed.run.instruction_trace,
                            analyzed.run.api_trace, *analyzed.report,
                            calls[0]->sequence);
  ASSERT_TRUE(slice.ok());
  Rng rng(5);
  os::HostEnvironment host = os::HostEnvironment::RandomizedMachine(rng);
  const std::string replayed =
      vaccine::VaccineDaemon::ReplaySlice(*slice, host);
  EXPECT_EQ(replayed, host.profile().computer_name + "!");
}

TEST(Determinism, ClassNames) {
  EXPECT_EQ(IdentifierClassName(IdentifierClass::kStatic), "static");
  EXPECT_EQ(IdentifierClassName(IdentifierClass::kAlgorithmDeterministic),
            "algorithm-deterministic");
}

}  // namespace
}  // namespace autovac::analysis
