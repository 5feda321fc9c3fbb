// Differential tests for the bit-parallel trace alignment: AlignTraces
// must return exactly the quadratic reference LCS alignment
// (alignment_reference.h) — the same matches, Δn and Δm, hence the same
// tie-break — on seeded random pairs, on every natural/mutated pair that
// impact analysis produces for real samples, and at sizes past the cell
// budget where an earlier greedy fallback returned different Δ sets.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alignment_reference.h"
#include "analysis/alignment.h"
#include "analysis/impact.h"
#include "evasion/corpus.h"
#include "malware/corpus.h"
#include "malware/families.h"
#include "os/host_environment.h"
#include "sandbox/sandbox.h"
#include "support/rng.h"
#include "support/strings.h"

namespace autovac::analysis {
namespace {

std::vector<AlignmentOptions> AllOptions() {
  std::vector<AlignmentOptions> all;
  for (int bits = 0; bits < 4; ++bits) {
    AlignmentOptions options;
    options.use_caller_pc = (bits & 1) != 0;
    options.use_identifier = (bits & 2) != 0;
    all.push_back(options);
  }
  return all;
}

std::string Describe(const AlignmentOptions& options) {
  return StrFormat("caller_pc=%d identifier=%d", options.use_caller_pc,
                   options.use_identifier);
}

// Compares against the reference and reports only the first difference:
// whole index vectors would drown the failure message.
::testing::AssertionResult SameAsReference(const trace::ApiTrace& natural,
                                           const trace::ApiTrace& mutated,
                                           const AlignmentOptions& options) {
  const Alignment fast = AlignTraces(natural, mutated, options);
  const Alignment slow = reference::AlignTraces(natural, mutated, options);
  auto differ = [&](const char* what, size_t fast_size, size_t slow_size) {
    return ::testing::AssertionFailure()
           << what << " differ (" << fast_size << " vs reference "
           << slow_size << ") for " << natural.calls.size() << " x "
           << mutated.calls.size() << " calls, " << Describe(options);
  };
  if (fast.matches != slow.matches) {
    return differ("matches", fast.matches.size(), slow.matches.size());
  }
  if (fast.delta_natural != slow.delta_natural) {
    return differ("delta_natural", fast.delta_natural.size(),
                  slow.delta_natural.size());
  }
  if (fast.delta_mutated != slow.delta_mutated) {
    return differ("delta_mutated", fast.delta_mutated.size(),
                  slow.delta_mutated.size());
  }
  return ::testing::AssertionSuccess();
}

trace::ApiTrace Sequenced(std::vector<trace::ApiCallRecord> calls) {
  trace::ApiTrace trace;
  for (size_t i = 0; i < calls.size(); ++i) {
    calls[i].sequence = static_cast<uint32_t>(i);
  }
  trace.calls = std::move(calls);
  return trace;
}

// Alphabet of one random pair: how many API names, call sites and
// identifiers its calls draw from. Small alphabets make many equal
// triples (ties, dense match masks); large ones make mostly unique ones.
struct Alphabet {
  size_t apis = 4;
  size_t sites = 2;
  size_t identifiers = 2;
};

trace::ApiCallRecord RandomCall(Rng& rng, const Alphabet& alphabet) {
  trace::ApiCallRecord call;
  call.api_name = StrFormat("Api%llu", static_cast<unsigned long long>(
                                           rng.NextBelow(alphabet.apis)));
  call.caller_pc = static_cast<uint32_t>(0x1000 +
                                         4 * rng.NextBelow(alphabet.sites));
  const uint64_t id = rng.NextBelow(alphabet.identifiers + 1);
  call.resource_identifier =
      id == 0 ? "" : StrFormat("res%llu", static_cast<unsigned long long>(id));
  return call;
}

Alphabet RandomAlphabet(Rng& rng) {
  Alphabet alphabet;
  alphabet.apis = 1 + rng.NextBelow(rng.NextBool(0.25) ? 400 : 6);
  alphabet.sites = 1 + rng.NextBelow(3);
  alphabet.identifiers = rng.NextBelow(3);
  return alphabet;
}

// A natural suffix of `n` calls after `prefix` shared ones, and a mutated
// suffix of `m` calls: either independent, or an edit of the natural one
// (deletions, insertions, substitutions), the shape a mutation produces.
std::pair<trace::ApiTrace, trace::ApiTrace> RandomPair(Rng& rng, size_t prefix,
                                                       size_t n, size_t m) {
  const Alphabet alphabet = RandomAlphabet(rng);
  std::vector<trace::ApiCallRecord> natural;
  std::vector<trace::ApiCallRecord> mutated;
  for (size_t i = 0; i < prefix + n; ++i) {
    natural.push_back(RandomCall(rng, alphabet));
  }
  mutated.assign(natural.begin(), natural.begin() + prefix);
  const bool edited = rng.NextBool();
  size_t source = prefix;
  while (mutated.size() < prefix + m) {
    if (edited && source < natural.size() && !rng.NextBool(0.2)) {
      mutated.push_back(natural[source++]);
    } else {
      if (edited && rng.NextBool()) ++source;  // a substitution
      mutated.push_back(RandomCall(rng, alphabet));
    }
  }
  return {Sequenced(std::move(natural)), Sequenced(std::move(mutated))};
}

TEST(AlignmentDifferential, RandomPairsMatchReference) {
  Rng rng(0xA11C);
  for (int round = 0; round < 1500; ++round) {
    const size_t prefix = rng.NextBool(0.3) ? rng.NextBelow(40) : 0;
    auto [natural, mutated] =
        RandomPair(rng, prefix, rng.NextBelow(200), rng.NextBelow(200));
    for (const AlignmentOptions& options : AllOptions()) {
      ASSERT_TRUE(SameAsReference(natural, mutated, options))
          << "round " << round;
    }
  }
}

// Row vectors hold 64 mutated calls per word, and the traceback keeps
// every ceil(sqrt(n'))-th row of the n' natural suffix calls: sweep both
// across those edges (n' = k^2 - 1, k^2, k^2 + 1; m' = 64k - 1, 64k,
// 64k + 1).
TEST(AlignmentDifferential, WordAndCheckpointBoundaries) {
  const std::vector<size_t> natural_lengths = {0,  1,  2,  3,  4,   5,  8,
                                               9,  10, 15, 16, 17,  63, 64,
                                               65, 99, 100, 101, 255, 256, 257};
  const std::vector<size_t> mutated_lengths = {0,   1,   2,   63,  64,
                                               65,  127, 128, 129, 191,
                                               192, 193, 255, 256, 257};
  const std::vector<AlignmentOptions> options = AllOptions();
  Rng rng(0xB0DE);
  size_t round = 0;
  for (size_t n : natural_lengths) {
    for (size_t m : mutated_lengths) {
      const size_t prefix = rng.NextBelow(4);
      auto [natural, mutated] = RandomPair(rng, prefix, n, m);
      ASSERT_TRUE(
          SameAsReference(natural, mutated, options[round++ % options.size()]))
          << "n'=" << n << " m'=" << m << " prefix=" << prefix;
    }
  }
}

// Multi-word rows and many checkpoint blocks, where the traceback
// recomputes truncated rows block by block.
TEST(AlignmentDifferential, LongPairsMatchReference) {
  Rng rng(0x10C);
  for (int round = 0; round < 12; ++round) {
    const size_t prefix = rng.NextBelow(300);
    auto [natural, mutated] = RandomPair(rng, prefix, 500 + rng.NextBelow(1500),
                                         500 + rng.NextBelow(1500));
    ASSERT_TRUE(SameAsReference(natural, mutated,
                                AllOptions()[round % AllOptions().size()]))
        << "round " << round;
  }
}

// Every natural/mutated pair impact analysis produces for `program`: one
// mutated run per mutation target, unfiltered. Each pair is checked under
// the pipeline's default options and under one more combination, which
// `rotation` cycles through all four. Returns the number of pairs.
size_t CheckImpactPairs(const vm::Program& program, size_t& rotation) {
  const os::HostEnvironment baseline = os::HostEnvironment::StandardMachine();
  os::HostEnvironment env = baseline;
  const sandbox::RunResult natural = sandbox::RunProgram(program, env);
  size_t pairs = 0;
  for (const MutationTarget& target :
       CollectMutationTargets(natural.api_trace)) {
    const ImpactResult impact =
        RunImpactAnalysis(program, baseline, natural.api_trace, target);
    const AlignmentOptions rotated =
        AllOptions()[rotation++ % AllOptions().size()];
    for (const AlignmentOptions& options : {AlignmentOptions{}, rotated}) {
      EXPECT_TRUE(
          SameAsReference(natural.api_trace, impact.mutated_trace, options))
          << program.name << " target " << target.api_name << " "
          << target.identifier;
    }
    ++pairs;
  }
  return pairs;
}

TEST(AlignmentDifferential, TableIISlicePairsMatchReference) {
  malware::CorpusOptions options;
  options.seed = 2013;
  options.total = 32;  // Table II proportions, every category present
  auto corpus = malware::GenerateCorpus(options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  size_t pairs = 0;
  size_t rotation = 0;
  for (const malware::CorpusSample& sample : corpus.value()) {
    pairs += CheckImpactPairs(sample.program, rotation);
  }
  EXPECT_GT(pairs, corpus->size());
}

TEST(AlignmentDifferential, EvasionClassPairsMatchReference) {
  evasion::EvasiveCorpusOptions options;
  options.seed = 2013;
  options.per_class = 3;
  auto corpus = evasion::GenerateEvasiveCorpus(options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  std::vector<size_t> pairs(evasion::kNumEvasionClasses, 0);
  size_t rotation = 0;
  for (const evasion::EvasiveSample& sample : corpus.value()) {
    pairs[static_cast<size_t>(sample.cls)] +=
        CheckImpactPairs(sample.program, rotation);
  }
  for (evasion::EvasionClass cls : evasion::AllEvasionClasses()) {
    EXPECT_GT(pairs[static_cast<size_t>(cls)], 0u)
        << evasion::EvasionClassName(cls);
  }
}

TEST(AlignmentDifferential, TableVIIFamilyPairsMatchReference) {
  size_t rotation = 0;
  for (const malware::FamilyModel& family : malware::HighProfileFamilies()) {
    for (uint32_t variant = 0; variant < 3; ++variant) {
      malware::VariantOptions options;
      options.variant = variant;
      auto program = family.build(options);
      ASSERT_TRUE(program.ok()) << family.name;
      EXPECT_GT(CheckImpactPairs(program.value(), rotation), 0u)
          << family.name << " variant " << variant;
    }
  }
}

// Past the old 32M-cell budget (6,300 x ~6,400 calls) with a 300-call
// detour before the first match, wider than the old greedy window of 256
// calls: the greedy matcher aligned nothing here. Every call carries its
// own identifier, so the LCS is unique and the exact answer is known:
// the natural trace is the detour, then the mutated trace with every
// 7th call dropped and a natural-only call after every 11th.
TEST(AlignmentDifferential, PastTheOldCellBudgetStaysExact) {
  constexpr size_t kDetour = 300;
  constexpr size_t kShared = 6000;  // natural calls after the detour
  auto call = [](const char* api, size_t id) {
    trace::ApiCallRecord record;
    record.api_name = api;
    record.caller_pc = static_cast<uint32_t>(0x2000 + 4 * (id % 13));
    record.resource_identifier = StrFormat("res%zu", id);
    return record;
  };
  std::vector<trace::ApiCallRecord> natural;
  std::vector<trace::ApiCallRecord> mutated;
  for (size_t i = 0; i < kDetour; ++i) natural.push_back(call("Sleep", i));
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  std::vector<uint32_t> delta_natural;
  std::vector<uint32_t> delta_mutated;
  for (uint32_t i = 0; i < kDetour; ++i) delta_natural.push_back(i);
  for (size_t k = 0; natural.size() < kDetour + kShared; ++k) {
    const trace::ApiCallRecord shared = call(k % 2 == 0 ? "send" : "recv", k);
    if (k % 7 == 3) {  // lost in the natural run: mutated-only
      delta_mutated.push_back(static_cast<uint32_t>(mutated.size()));
      mutated.push_back(shared);
      continue;
    }
    matches.emplace_back(static_cast<uint32_t>(natural.size()),
                         static_cast<uint32_t>(mutated.size()));
    natural.push_back(shared);
    mutated.push_back(shared);
    if (k % 11 == 5) {  // natural-only behaviour
      delta_natural.push_back(static_cast<uint32_t>(natural.size()));
      natural.push_back(call("RegSetValueExA", 1'000'000 + k));
    }
  }
  ASSERT_GT(natural.size() * mutated.size(), size_t{32} * 1024 * 1024);
  const trace::ApiTrace natural_trace = Sequenced(std::move(natural));
  const trace::ApiTrace mutated_trace = Sequenced(std::move(mutated));

  const Alignment alignment = AlignTraces(natural_trace, mutated_trace);
  EXPECT_EQ(alignment.matches, matches);
  EXPECT_EQ(alignment.delta_natural, delta_natural);
  EXPECT_EQ(alignment.delta_mutated, delta_mutated);
}

// The same size with a two-call alphabet: every row's match mask is
// dense and ties are everywhere. The mutated run lost every 10th call
// after a 300-call detour, so every mutated call aligns.
TEST(AlignmentDifferential, PastTheOldCellBudgetAlignsRepetitiveTraces) {
  trace::ApiTrace natural;
  trace::ApiTrace mutated;
  for (size_t i = 0; i < 300; ++i) {
    trace::ApiCallRecord detour;
    detour.api_name = "Sleep";
    detour.caller_pc = 0x3000;
    natural.calls.push_back(detour);
  }
  for (size_t i = 0; i < 7000; ++i) {
    trace::ApiCallRecord call;
    call.api_name = i % 2 == 0 ? "send" : "recv";
    call.caller_pc = static_cast<uint32_t>(i % 16);
    natural.calls.push_back(call);
    if (i % 10 != 3) mutated.calls.push_back(call);
  }
  ASSERT_GT(natural.calls.size() * mutated.calls.size(),
            size_t{32} * 1024 * 1024);
  const Alignment alignment = AlignTraces(natural, mutated);
  ASSERT_EQ(alignment.matches.size(), mutated.calls.size());
  EXPECT_TRUE(alignment.delta_mutated.empty());
  ASSERT_EQ(alignment.delta_natural.size(),
            natural.calls.size() - mutated.calls.size());
  for (uint32_t i = 0; i < 300; ++i) EXPECT_EQ(alignment.delta_natural[i], i);
  for (size_t k = 0; k < alignment.matches.size(); ++k) {
    const auto [i, j] = alignment.matches[k];
    ASSERT_EQ(j, k);
    ASSERT_TRUE(CallsAligned(natural.calls[i], mutated.calls[j], {}));
  }
}

}  // namespace
}  // namespace autovac::analysis
