// Unit tests for the taint subsystem: interned label sets, the shadow
// map, the per-opcode propagation rules (parameterized sweep), the
// zeroing-idiom special case and the tainted-predicate monitor.
#include <gtest/gtest.h>

#include "taint/engine.h"
#include "taint/labels.h"
#include "taint/taint_map.h"

namespace autovac::taint {
namespace {

using vm::Op;
using vm::Reg;

TaintSource MakeSource(uint32_t seq) {
  TaintSource source;
  source.api_sequence = seq;
  source.api_name = "OpenMutexA";
  source.resource_type = os::ResourceType::kMutex;
  source.operation = os::Operation::kOpen;
  source.identifier = "m" + std::to_string(seq);
  return source;
}

// ---- LabelStore ---------------------------------------------------------

TEST(LabelStore, EmptySetIsZero) {
  LabelStore store;
  EXPECT_EQ(store.Sources(kEmptySet).size(), 0u);
  EXPECT_EQ(store.num_sets(), 1u);
}

TEST(LabelStore, SingletonSets) {
  LabelStore store;
  const LabelSetId a = store.AddSource(MakeSource(0));
  const LabelSetId b = store.AddSource(MakeSource(1));
  EXPECT_NE(a, kEmptySet);
  EXPECT_NE(a, b);
  ASSERT_EQ(store.Sources(a).size(), 1u);
  EXPECT_EQ(store.Source(store.Sources(a)[0]).identifier, "m0");
}

TEST(LabelStore, UnionSemantics) {
  LabelStore store;
  const LabelSetId a = store.AddSource(MakeSource(0));
  const LabelSetId b = store.AddSource(MakeSource(1));
  const LabelSetId ab = store.Union(a, b);
  EXPECT_EQ(store.Sources(ab).size(), 2u);
  // Identity / idempotence / commutativity.
  EXPECT_EQ(store.Union(a, kEmptySet), a);
  EXPECT_EQ(store.Union(kEmptySet, b), b);
  EXPECT_EQ(store.Union(ab, a), ab);
  EXPECT_EQ(store.Union(b, a), ab);  // interned: same id
}

TEST(LabelStore, UnionMemoization) {
  LabelStore store;
  const LabelSetId a = store.AddSource(MakeSource(0));
  const LabelSetId b = store.AddSource(MakeSource(1));
  const size_t sets_before = store.num_sets();
  const LabelSetId first = store.Union(a, b);
  const LabelSetId second = store.Union(a, b);
  EXPECT_EQ(first, second);
  EXPECT_EQ(store.num_sets(), sets_before + 1);
}

TEST(LabelStore, LargeUnionChain) {
  LabelStore store;
  LabelSetId acc = kEmptySet;
  for (uint32_t i = 0; i < 100; ++i) {
    acc = store.Union(acc, store.AddSource(MakeSource(i)));
  }
  EXPECT_EQ(store.Sources(acc).size(), 100u);
  // Sources stay sorted (set_union invariant).
  const auto& sources = store.Sources(acc);
  for (size_t i = 1; i < sources.size(); ++i) {
    EXPECT_LT(sources[i - 1], sources[i]);
  }
}

// ---- TaintMap ---------------------------------------------------------------

TEST(TaintMap, RegisterAndMemory) {
  LabelStore store;
  TaintMap map(store);
  const LabelSetId label = store.AddSource(MakeSource(0));
  map.SetReg(Reg::kEax, label);
  EXPECT_EQ(map.Reg(Reg::kEax), label);
  EXPECT_EQ(map.Reg(Reg::kEbx), kEmptySet);
  EXPECT_EQ(map.Reg(Reg::kNone), kEmptySet);

  map.SetRange(vm::kDataBase, 4, label);
  EXPECT_EQ(map.Byte(vm::kDataBase + 3), label);
  EXPECT_EQ(map.Byte(vm::kDataBase + 4), kEmptySet);
  EXPECT_EQ(map.RangeUnion(vm::kDataBase, 8), label);
  EXPECT_EQ(map.RangeUnion(vm::kDataBase + 4, 4), kEmptySet);
}

TEST(TaintMap, RangeUnionMergesDistinctLabels) {
  LabelStore store;
  TaintMap map(store);
  const LabelSetId a = store.AddSource(MakeSource(0));
  const LabelSetId b = store.AddSource(MakeSource(1));
  map.SetRange(vm::kDataBase, 2, a);
  map.SetRange(vm::kDataBase + 2, 2, b);
  const LabelSetId merged = map.RangeUnion(vm::kDataBase, 4);
  EXPECT_EQ(store.Sources(merged).size(), 2u);
}

TEST(TaintMap, UntouchedPagesReadEmpty) {
  LabelStore store;
  const TaintMap map(store);
  for (uint32_t addr = 0; addr < vm::kMemSize; addr += vm::kPageBytes / 2) {
    EXPECT_EQ(map.Byte(addr), kEmptySet);
    EXPECT_EQ(map.RangeUnion(addr, 4), kEmptySet);
  }
  EXPECT_EQ(map.Byte(vm::kMemSize - 1), kEmptySet);
  EXPECT_EQ(map.Byte(vm::kMemSize), kEmptySet);
  EXPECT_EQ(map.owned_pages(), 0u);
}

TEST(TaintMap, ClearingUntouchedPagesAllocatesNothing) {
  LabelStore store;
  TaintMap map(store);
  // Pushes of constants clear stack taint on every run: on a page that
  // never held a label, that must stay free.
  map.SetRange(vm::kStackTop - 64, 64, kEmptySet);
  map.SetRange(vm::kDataBase + vm::kPageBytes - 2, 4, kEmptySet);
  EXPECT_EQ(map.owned_pages(), 0u);

  const LabelSetId label = store.AddSource(MakeSource(0));
  map.SetRange(vm::kDataBase + vm::kPageBytes - 2, 4, label);
  EXPECT_EQ(map.owned_pages(), 2u);
  EXPECT_EQ(map.RangeUnion(vm::kDataBase + vm::kPageBytes - 2, 4), label);
}

// A copy of the map captures its state: the copy shares the shadow pages
// until either side writes them.
TEST(TaintMap, CaptureStateIsIsolatedFromLaterWrites) {
  LabelStore store;
  TaintMap map(store);
  const LabelSetId a = store.AddSource(MakeSource(0));
  const LabelSetId b = store.AddSource(MakeSource(1));
  map.SetRange(vm::kDataBase, 4, a);
  map.SetReg(Reg::kEax, a);
  TaintMap copy = map;

  map.SetRange(vm::kDataBase, 2, b);
  map.SetRange(vm::kHeapBase, 4, b);
  map.SetReg(Reg::kEax, b);

  EXPECT_EQ(copy.Byte(vm::kDataBase), a);
  EXPECT_EQ(copy.Byte(vm::kDataBase + 3), a);
  EXPECT_EQ(copy.Byte(vm::kHeapBase), kEmptySet);
  EXPECT_EQ(copy.Reg(Reg::kEax), a);
  EXPECT_EQ(copy.owned_pages(), 1u);
  // Writing the copy leaves the live map alone as well.
  copy.SetRange(vm::kDataBase + 2, 2, kEmptySet);
  EXPECT_EQ(map.Byte(vm::kDataBase + 2), a);
  EXPECT_EQ(map.Byte(vm::kDataBase), b);
}

// ---- TaintEngine propagation rules ---------------------------------------------

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture() : engine_(store_) {
    label_ = store_.AddSource(MakeSource(0));
  }

  vm::StepInfo Step(Op op, Reg r1, Reg r2, uint32_t mem_addr = 0,
                    uint32_t mem_size = 0) {
    vm::StepInfo step;
    step.inst = {op, r1, r2, 0};
    step.mem_addr = mem_addr;
    step.mem_size = mem_size;
    return step;
  }

  LabelStore store_;
  TaintEngine engine_;
  LabelSetId label_ = kEmptySet;
};

TEST_F(EngineFixture, MovRRPropagates) {
  engine_.map().SetReg(Reg::kEax, label_);
  engine_.OnStep(Step(Op::kMovRR, Reg::kEbx, Reg::kEax));
  EXPECT_EQ(engine_.map().Reg(Reg::kEbx), label_);
}

TEST_F(EngineFixture, MovRIClears) {
  engine_.map().SetReg(Reg::kEax, label_);
  engine_.OnStep(Step(Op::kMovRI, Reg::kEax, Reg::kNone));
  EXPECT_EQ(engine_.map().Reg(Reg::kEax), kEmptySet);
}

TEST_F(EngineFixture, LoadStoreRoundTrip) {
  engine_.map().SetReg(Reg::kEax, label_);
  engine_.OnStep(Step(Op::kStore, Reg::kEcx, Reg::kEax, vm::kDataBase, 4));
  EXPECT_EQ(engine_.map().Byte(vm::kDataBase), label_);
  engine_.OnStep(Step(Op::kLoad, Reg::kEdx, Reg::kEcx, vm::kDataBase, 4));
  EXPECT_EQ(engine_.map().Reg(Reg::kEdx), label_);
}

TEST_F(EngineFixture, ByteOpsPropagatePerByte) {
  engine_.map().SetReg(Reg::kEax, label_);
  engine_.OnStep(Step(Op::kStoreB, Reg::kEcx, Reg::kEax, vm::kDataBase, 1));
  EXPECT_EQ(engine_.map().Byte(vm::kDataBase), label_);
  EXPECT_EQ(engine_.map().Byte(vm::kDataBase + 1), kEmptySet);
  engine_.OnStep(Step(Op::kLoadB, Reg::kEsi, Reg::kEcx, vm::kDataBase, 1));
  EXPECT_EQ(engine_.map().Reg(Reg::kEsi), label_);
}

TEST_F(EngineFixture, PushPopCarryTaintThroughStack) {
  const uint32_t slot = vm::kStackTop - 4;
  engine_.map().SetReg(Reg::kEax, label_);
  engine_.OnStep(Step(Op::kPushR, Reg::kEax, Reg::kNone, slot, 4));
  EXPECT_EQ(engine_.map().Byte(slot), label_);
  engine_.OnStep(Step(Op::kPopR, Reg::kEbx, Reg::kNone, slot, 4));
  EXPECT_EQ(engine_.map().Reg(Reg::kEbx), label_);
}

TEST_F(EngineFixture, PushImmediateClearsSlot) {
  const uint32_t slot = vm::kStackTop - 4;
  engine_.map().SetRange(slot, 4, label_);
  engine_.OnStep(Step(Op::kPushI, Reg::kNone, Reg::kNone, slot, 4));
  EXPECT_EQ(engine_.map().Byte(slot), kEmptySet);
}

TEST_F(EngineFixture, AluMergesOperands) {
  const LabelSetId other = store_.AddSource(MakeSource(1));
  engine_.map().SetReg(Reg::kEax, label_);
  engine_.map().SetReg(Reg::kEbx, other);
  engine_.OnStep(Step(Op::kAddRR, Reg::kEax, Reg::kEbx));
  EXPECT_EQ(store_.Sources(engine_.map().Reg(Reg::kEax)).size(), 2u);
}

TEST_F(EngineFixture, XorZeroingIdiomClears) {
  engine_.map().SetReg(Reg::kEax, label_);
  engine_.OnStep(Step(Op::kXorRR, Reg::kEax, Reg::kEax));
  EXPECT_EQ(engine_.map().Reg(Reg::kEax), kEmptySet);
  EXPECT_EQ(engine_.map().Flags(), kEmptySet);
}

TEST_F(EngineFixture, XorDistinctRegsMerges) {
  engine_.map().SetReg(Reg::kEax, label_);
  engine_.OnStep(Step(Op::kXorRR, Reg::kEax, Reg::kEbx));
  EXPECT_EQ(engine_.map().Reg(Reg::kEax), label_);
}

TEST_F(EngineFixture, ImmediateAluKeepsTaint) {
  engine_.map().SetReg(Reg::kEax, label_);
  engine_.OnStep(Step(Op::kAddRI, Reg::kEax, Reg::kNone));
  EXPECT_EQ(engine_.map().Reg(Reg::kEax), label_);
  EXPECT_EQ(engine_.map().Flags(), label_);
}

TEST_F(EngineFixture, TaintedCmpRecordsPredicate) {
  engine_.map().SetReg(Reg::kEax, label_);
  auto step = Step(Op::kCmpRI, Reg::kEax, Reg::kNone);
  step.pc = 42;
  engine_.OnStep(step);
  ASSERT_EQ(engine_.predicates().size(), 1u);
  EXPECT_EQ(engine_.predicates()[0].pc, 42u);
  EXPECT_EQ(engine_.predicates()[0].labels, label_);
  EXPECT_TRUE(engine_.AnyTaintedPredicate());
}

TEST_F(EngineFixture, UntaintedCmpRecordsNothing) {
  engine_.OnStep(Step(Op::kCmpRI, Reg::kEbx, Reg::kNone));
  EXPECT_TRUE(engine_.predicates().empty());
}

TEST_F(EngineFixture, TestRRMergesBothOperands) {
  const LabelSetId other = store_.AddSource(MakeSource(1));
  engine_.map().SetReg(Reg::kEax, label_);
  engine_.map().SetReg(Reg::kEbx, other);
  engine_.OnStep(Step(Op::kTestRR, Reg::kEax, Reg::kEbx));
  ASSERT_EQ(engine_.predicates().size(), 1u);
  EXPECT_EQ(store_.Sources(engine_.predicates()[0].labels).size(), 2u);
}

TEST_F(EngineFixture, KernelTaintHelpers) {
  engine_.TaintReturnValue(label_);
  EXPECT_EQ(engine_.map().Reg(Reg::kEax), label_);
  engine_.TaintMemory(vm::kDataBase, 8, label_);
  EXPECT_EQ(engine_.MemoryLabel(vm::kDataBase + 2, 2), label_);
}

// Pointer-taint ablation: with propagate_addresses on, a load through a
// tainted pointer taints the result even when the data is clean.
TEST(EngineOptions, PointerTaintAblation) {
  LabelStore store;
  const LabelSetId label = store.AddSource(MakeSource(0));

  TaintEngineOptions with_ptr;
  with_ptr.propagate_addresses = true;
  TaintEngine engine(store, with_ptr);
  engine.map().SetReg(Reg::kEcx, label);  // tainted address register
  vm::StepInfo load;
  load.inst = {Op::kLoad, Reg::kEax, Reg::kEcx, 0};
  load.mem_addr = vm::kDataBase;
  load.mem_size = 4;
  engine.OnStep(load);
  EXPECT_EQ(engine.map().Reg(Reg::kEax), label);

  TaintEngine plain(store);
  plain.map().SetReg(Reg::kEcx, label);
  plain.OnStep(load);
  EXPECT_EQ(plain.map().Reg(Reg::kEax), kEmptySet);
}

// Parameterized sweep: branches never alter data taint.
class BranchSweep : public ::testing::TestWithParam<Op> {};

TEST_P(BranchSweep, BranchesPreserveTaint) {
  LabelStore store;
  TaintEngine engine(store);
  const LabelSetId label = store.AddSource(MakeSource(0));
  engine.map().SetReg(Reg::kEax, label);
  vm::StepInfo step;
  step.inst = {GetParam(), Reg::kNone, Reg::kNone, 0};
  engine.OnStep(step);
  EXPECT_EQ(engine.map().Reg(Reg::kEax), label);
  EXPECT_TRUE(engine.predicates().empty());
}

INSTANTIATE_TEST_SUITE_P(AllBranches, BranchSweep,
                         ::testing::Values(Op::kJmp, Op::kJz, Op::kJnz,
                                           Op::kJg, Op::kJl, Op::kJge,
                                           Op::kJle));

// Parameterized sweep: register-register ALU ops all merge r2 into r1.
class AluSweep : public ::testing::TestWithParam<Op> {};

TEST_P(AluSweep, MergesSecondOperand) {
  LabelStore store;
  TaintEngine engine(store);
  const LabelSetId label = store.AddSource(MakeSource(0));
  engine.map().SetReg(Reg::kEbx, label);
  vm::StepInfo step;
  step.inst = {GetParam(), Reg::kEax, Reg::kEbx, 0};
  engine.OnStep(step);
  EXPECT_EQ(engine.map().Reg(Reg::kEax), label);
  EXPECT_EQ(engine.map().Flags(), label);
}

INSTANTIATE_TEST_SUITE_P(AllRR, AluSweep,
                         ::testing::Values(Op::kAddRR, Op::kSubRR,
                                           Op::kAndRR, Op::kOrRR,
                                           Op::kMulRR));

}  // namespace
}  // namespace autovac::taint
