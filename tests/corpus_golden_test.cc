// Golden digests of the seeded generators. They pin the order of every
// random draw: each draw is its own statement, because C++ leaves the
// order of function arguments and `+` operands unspecified, so a seed
// gives the same Table II corpus, Table VII variants and field machines
// under every compiler. The digests are g++'s output for the order these
// generators have always used.
#include <gtest/gtest.h>

#include <string>

#include "malware/corpus.h"
#include "malware/families.h"
#include "os/host_environment.h"
#include "support/digest.h"
#include "support/rng.h"
#include "support/strings.h"

namespace autovac {
namespace {

std::string ProgramLine(const vm::Program& program) {
  return program.name + " " + program.Digest() + "\n";
}

// The Table II corpus at the paper's seed, one digest per category (the
// categories take different generator paths).
TEST(CorpusGolden, TableIICorpusAtSeed2013) {
  auto corpus = malware::GenerateCorpus({.seed = 2013, .total = 1716});
  ASSERT_TRUE(corpus.ok());
  std::string lines[malware::kNumCategories];
  for (const malware::CorpusSample& sample : corpus.value()) {
    lines[static_cast<size_t>(sample.category)] += ProgramLine(sample.program);
  }
  const char* const kExpected[malware::kNumCategories] = {
      "fd06fc1205216ad1ded0684d7a7e491a", "22cf2556e03e450a4873ad12b0d6ff63",
      "5af855f15040dbb229788826a86e1be3", "50e11463c56d6601eb3e12afe662153c",
      "10a68cc30d315ca9bd8545721c05a016", "0981a7c0db3530c7ea0289ede90f3298",
  };
  for (size_t i = 0; i < malware::kNumCategories; ++i) {
    EXPECT_EQ(HexDigest128(lines[i]), kExpected[i])
        << malware::CategoryName(static_cast<malware::Category>(i));
  }
}

// Eight variants of each Table VII family.
TEST(CorpusGolden, TableVIIFamilyVariants) {
  const std::vector<malware::FamilyModel> families =
      malware::HighProfileFamilies();
  const char* const kExpected[] = {
      "ba3ea17540552bef1c2f0c81794fd4ce", "e2f1c39aeba6461553a2f1c57c2a6a10",
      "60748a25bcc0ca2a7a1d750d572c98e3", "3b4d7bcfe9fb20fc140d4400d3f93811",
      "0f3ab55caf0a327b2819811b29f392e2", "5934bebb2d32b6439a0fa76f8bd8b9f2",
  };
  ASSERT_EQ(families.size(), std::size(kExpected));
  for (size_t i = 0; i < families.size(); ++i) {
    std::string lines;
    for (uint32_t variant = 0; variant < 8; ++variant) {
      auto program = families[i].build({.variant = variant});
      ASSERT_TRUE(program.ok()) << families[i].name << " " << variant;
      lines += ProgramLine(program.value());
    }
    EXPECT_EQ(HexDigest128(lines), kExpected[i]) << families[i].name;
  }
}

// Randomized field machines: the profile (whose IP address takes two
// draws) and the machine's entropy seed come from one stream.
TEST(CorpusGolden, RandomizedMachineProfiles) {
  const struct {
    uint64_t seed;
    const char* profile;
  } kExpected[] = {
      {1, "WIN-I69L8OVB alice d87226d1 192.168.230.204 2c83f301eb3f9c90"},
      {2013, "WIN-M5GVSDKH heidi cad7a8f4 192.168.225.182 b8f7c59f9814cacd"},
      {3101, "WIN-DE2C68GT alice a7372337 192.168.133.250 56aeb4b7b9a69d1a"},
  };
  for (const auto& expected : kExpected) {
    Rng rng(expected.seed);
    os::HostEnvironment env = os::HostEnvironment::RandomizedMachine(rng);
    const os::HostProfile& profile = env.profile();
    EXPECT_EQ(StrFormat("%s %s %08x %s %016llx", profile.computer_name.c_str(),
                        profile.user_name.c_str(), profile.volume_serial,
                        profile.ip_address.c_str(),
                        static_cast<unsigned long long>(env.entropy().NextU64())),
              expected.profile)
        << "seed " << expected.seed;
  }
}

}  // namespace
}  // namespace autovac
