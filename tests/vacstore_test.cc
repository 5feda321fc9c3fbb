// VaccineStore coverage: content-address dedup, feed epochs, conflict
// quarantine, durable JSONL persistence (reload equality, torn-tail
// repair, mid-file corruption refusal, quarantine folding). Scratch
// files live under the build directory with per-test names, like the
// campaign durability tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/exclusiveness.h"
#include "vaccine/json.h"
#include "vacstore/store.h"

namespace autovac::vacstore {
namespace {

class ScratchFile {
 public:
  explicit ScratchFile(std::string path) : path_(std::move(path)) {
    Remove();
  }
  ~ScratchFile() { Remove(); }
  const std::string& path() const { return path_; }

 private:
  void Remove() {
    for (const char* suffix : {"", ".compact", ".ckpt", ".ckpt.tmp",
                               ".rotate"}) {
      std::remove((path_ + suffix).c_str());
    }
  }
  std::string path_;
};

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

vaccine::Vaccine MakeVaccine(os::ResourceType type,
                             const std::string& identifier,
                             bool presence = true,
                             analysis::IdentifierClass kind =
                                 analysis::IdentifierClass::kStatic) {
  vaccine::Vaccine v;
  v.malware_name = "sample-" + identifier;
  v.malware_digest = "d-" + identifier;
  v.resource_type = type;
  v.identifier = identifier;
  v.simulate_presence = presence;
  v.identifier_kind = kind;
  v.immunization = analysis::ImmunizationType::kFull;
  v.delivery = kind == analysis::IdentifierClass::kStatic
                   ? vaccine::DeliveryMethod::kDirectInjection
                   : vaccine::DeliveryMethod::kDaemon;
  if (kind == analysis::IdentifierClass::kPartialStatic) {
    auto pattern = Pattern::Compile(identifier);
    EXPECT_TRUE(pattern.ok());
    if (pattern.ok()) v.pattern = std::move(pattern).value();
  }
  return v;
}

// Canonical serialization of a store's feed, for equality comparisons.
std::string FeedImage(const VaccineStore& store) {
  std::string image;
  for (const StoreEntry& entry : store.entries()) {
    image += entry.digest + "|" + std::to_string(entry.epoch) + "|" +
             (entry.quarantined ? "q|" : "s|") +
             vaccine::VaccineToJson(entry.vaccine) + "\n";
  }
  return image;
}

TEST(VaccineStore, PushDedupsAndAssignsEpochs) {
  VaccineStore store;
  const auto a = MakeVaccine(os::ResourceType::kMutex, "evil-a");
  const auto b = MakeVaccine(os::ResourceType::kFile, "C:\\evil-b");

  auto first = store.Push({a, b, a});  // in-batch duplicate too
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->added, 2u);
  EXPECT_EQ(first->duplicates, 1u);
  EXPECT_EQ(first->epoch, 1u);

  // Re-pushing known content adds nothing and does not bump the epoch.
  auto second = store.Push({a, b});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->added, 0u);
  EXPECT_EQ(second->duplicates, 2u);
  EXPECT_EQ(second->epoch, 1u);
  EXPECT_EQ(store.epoch(), 1u);

  // A batch with one new vaccine starts epoch 2.
  auto third = store.Push({b, MakeVaccine(os::ResourceType::kMutex, "c")});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->added, 1u);
  EXPECT_EQ(third->epoch, 2u);

  // Delta sync: epoch 1 onward skips the first batch.
  EXPECT_EQ(store.Since(0).size(), 3u);
  ASSERT_EQ(store.Since(1).size(), 1u);
  EXPECT_EQ(store.Since(1)[0]->vaccine.identifier, "c");
  EXPECT_TRUE(store.Since(2).empty());
}

TEST(VaccineStore, FindDigestIsContentAddressed) {
  VaccineStore store;
  const auto v = MakeVaccine(os::ResourceType::kMutex, "marker");
  ASSERT_TRUE(store.Push({v}).ok());
  const std::string digest = vaccine::VaccineDigest(v);
  ASSERT_NE(store.FindDigest(digest), nullptr);
  EXPECT_EQ(store.FindDigest(digest)->vaccine.identifier, "marker");
  EXPECT_EQ(store.FindDigest("no-such-digest"), nullptr);
}

TEST(VaccineStore, ConflictingVaccinesAreQuarantinedNotServed) {
  analysis::ExclusivenessIndex index;  // builtin whitelist only
  VaccineStore store;
  store.SetConflictIndex(&index);

  // kernel32.dll is on the benign whitelist -> static conflict.
  const auto benign_clash =
      MakeVaccine(os::ResourceType::kLibrary, "kernel32.dll");
  // A pattern that would intercept a whitelisted identifier collides too
  // (pattern backslashes are escaped in the glob dialect).
  const auto pattern_clash =
      MakeVaccine(os::ResourceType::kFile, "c:\\\\windows\\\\*", true,
                  analysis::IdentifierClass::kPartialStatic);
  const auto safe = MakeVaccine(os::ResourceType::kMutex, "EvilMutex123");

  auto stats = store.Push({benign_clash, pattern_clash, safe});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->added, 3u);
  EXPECT_EQ(stats->quarantined, 2u);
  EXPECT_EQ(store.served_count(), 1u);
  EXPECT_EQ(store.quarantined_count(), 2u);

  // Quarantined entries are stored but never enter the feed.
  ASSERT_EQ(store.Since(0).size(), 1u);
  EXPECT_EQ(store.Since(0)[0]->vaccine.identifier, "EvilMutex123");
  const StoreEntry* entry =
      store.FindDigest(vaccine::VaccineDigest(benign_clash));
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->quarantined);
  EXPECT_FALSE(entry->quarantine_reason.empty());
}

TEST(VaccineStore, RescanQuarantinesOnNewEvidence) {
  VaccineStore store;  // no conflict index at push time
  const auto v = MakeVaccine(os::ResourceType::kLibrary, "uxtheme.dll");
  ASSERT_TRUE(store.Push({v}).ok());
  EXPECT_EQ(store.served_count(), 1u);

  analysis::ExclusivenessIndex index;
  store.SetConflictIndex(&index);
  auto retracted = store.RescanConflicts();
  ASSERT_TRUE(retracted.ok());
  EXPECT_EQ(*retracted, 1u);
  EXPECT_EQ(store.served_count(), 0u);
  // A second scan is a no-op.
  EXPECT_EQ(store.RescanConflicts().value(), 0u);
}

TEST(VaccineStore, ManualQuarantineAndUnknownDigest) {
  VaccineStore store;
  const auto v = MakeVaccine(os::ResourceType::kMutex, "m");
  ASSERT_TRUE(store.Push({v}).ok());
  const std::string digest = vaccine::VaccineDigest(v);
  ASSERT_TRUE(store.Quarantine(digest, "operator retraction").ok());
  EXPECT_TRUE(store.FindDigest(digest)->quarantined);
  // Idempotent, and unknown digests are NotFound.
  EXPECT_TRUE(store.Quarantine(digest, "again").ok());
  EXPECT_EQ(store.Quarantine("bogus", "x").code(), StatusCode::kNotFound);
}

TEST(VaccineStore, ReloadIsByteIdenticalAndDurable) {
  ScratchFile file("vacstore_reload_test.jsonl");
  std::string image;
  {
    auto store = VaccineStore::Open(file.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store->persistent());
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "a"),
                     MakeVaccine(os::ResourceType::kFile, "C:\\b")})
            .ok());
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kService, "svc")}).ok());
    ASSERT_TRUE(store
                    ->Quarantine(vaccine::VaccineDigest(MakeVaccine(
                                     os::ResourceType::kFile, "C:\\b")),
                                 "clinic evidence")
                    .ok());
    image = FeedImage(*store);
  }
  auto reloaded = VaccineStore::Open(file.path());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_FALSE(reloaded->repaired_torn_tail());
  EXPECT_EQ(FeedImage(*reloaded), image);
  // Two pushes plus one quarantine: retractions get their own epoch so
  // delta-sync clients can pull the tombstone.
  EXPECT_EQ(reloaded->epoch(), 3u);
  EXPECT_EQ(reloaded->served_count(), 2u);
  EXPECT_EQ(reloaded->quarantined_count(), 1u);

  // The quarantine record was folded into the add line by compaction on
  // load; a third open sees one line per entry plus the header.
  auto again = VaccineStore::Open(file.path());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(FeedImage(*again), image);
}

TEST(VaccineStore, TornTailIsDroppedAndCompactedAway) {
  ScratchFile file("vacstore_torn_test.jsonl");
  std::string image_two;
  {
    auto store = VaccineStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "a")}).ok());
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "b")}).ok());
    image_two = FeedImage(*store);
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "c")}).ok());
  }
  const std::string intact = ReadFile(file.path());
  const size_t last_line = intact.rfind('\n', intact.size() - 2) + 1;

  for (const size_t cut :
       {last_line + 1, last_line + 20, intact.size() - 1}) {
    WriteFile(file.path(), intact.substr(0, cut));
    auto repaired = VaccineStore::Open(file.path());
    ASSERT_TRUE(repaired.ok()) << "cut=" << cut << ": "
                               << repaired.status().ToString();
    EXPECT_TRUE(repaired->repaired_torn_tail()) << "cut=" << cut;
    EXPECT_EQ(FeedImage(*repaired), image_two) << "cut=" << cut;

    // The compaction rewrote the file: reopening is clean.
    auto clean = VaccineStore::Open(file.path());
    ASSERT_TRUE(clean.ok());
    EXPECT_FALSE(clean->repaired_torn_tail()) << "cut=" << cut;
    EXPECT_EQ(FeedImage(*clean), image_two) << "cut=" << cut;
  }
}

TEST(VaccineStore, MidFileCorruptionRefusesToLoad) {
  ScratchFile file("vacstore_corrupt_test.jsonl");
  {
    auto store = VaccineStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "a"),
                     MakeVaccine(os::ResourceType::kMutex, "b")})
            .ok());
  }
  std::string corrupted = ReadFile(file.path());
  corrupted.insert(corrupted.find('\n') + 1, 1, 'x');
  WriteFile(file.path(), corrupted);
  EXPECT_FALSE(VaccineStore::Open(file.path()).ok());
}

TEST(VaccineStore, DigestMismatchRefusesToLoad) {
  ScratchFile file("vacstore_tamper_test.jsonl");
  {
    auto store = VaccineStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "orig"),
                     MakeVaccine(os::ResourceType::kMutex, "pad")})
            .ok());
  }
  // Tamper with the stored vaccine without updating its digest.
  std::string tampered = ReadFile(file.path());
  const size_t pos = tampered.find("orig");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 4, "evil");
  WriteFile(file.path(), tampered);
  EXPECT_FALSE(VaccineStore::Open(file.path()).ok());
}

TEST(VaccineStore, UncommittedBatchIsDroppedOnReload) {
  ScratchFile file("vacstore_uncommitted_test.jsonl");
  std::string image_one;
  {
    auto store = VaccineStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "a")}).ok());
    image_one = FeedImage(*store);
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "b")}).ok());
  }
  // Remove the second batch's commit record but keep its (fully
  // terminated) add line: the adds landed, the atomicity point did not.
  std::string journal = ReadFile(file.path());
  const size_t last_line = journal.rfind('\n', journal.size() - 2) + 1;
  ASSERT_NE(journal.substr(last_line).find("\"commit\""),
            std::string::npos);
  WriteFile(file.path(), journal.substr(0, last_line));

  auto reloaded = VaccineStore::Open(file.path());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded->dropped_uncommitted_batch());
  EXPECT_EQ(FeedImage(*reloaded), image_one);
  EXPECT_EQ(reloaded->epoch(), 1u);

  // The rewrite scrubbed the orphaned adds; the next open is clean, and
  // re-pushing the lost batch converges to the fault-free state.
  auto clean = VaccineStore::Open(file.path());
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->dropped_uncommitted_batch());
  ASSERT_TRUE(
      clean->Push({MakeVaccine(os::ResourceType::kMutex, "b")}).ok());
  EXPECT_EQ(clean->entries().size(), 2u);
  EXPECT_EQ(clean->epoch(), 2u);
}

TEST(VaccineStore, CheckpointBoundsRecoveryToTheDelta) {
  ScratchFile file("vacstore_ckpt_test.jsonl");
  std::string image;
  {
    auto store = VaccineStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "a"),
                     MakeVaccine(os::ResourceType::kFile, "C:\\b")})
            .ok());
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kService, "svc")}).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(FileExists(file.path() + ".ckpt"));
    // Post-checkpoint delta: one batch (one add + one commit record).
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "delta")}).ok());
    image = FeedImage(*store);
  }
  // The rotated journal holds only the delta; the checkpoint holds the
  // first three entries. Recovery replays exactly two records.
  auto reloaded = VaccineStore::Open(file.path());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded->checkpoint_loaded());
  EXPECT_FALSE(reloaded->checkpoint_fallback());
  EXPECT_EQ(reloaded->replayed_records(), 2u);
  EXPECT_EQ(FeedImage(*reloaded), image);
  EXPECT_EQ(reloaded->epoch(), 3u);

  // Epochs keep counting from where the checkpoint left off.
  ASSERT_TRUE(
      reloaded->Push({MakeVaccine(os::ResourceType::kMutex, "next")}).ok());
  EXPECT_EQ(reloaded->epoch(), 4u);
}

TEST(VaccineStore, TornCheckpointFallsBackToFullReplay) {
  ScratchFile file("vacstore_ckptfall_test.jsonl");
  std::string image;
  {
    auto store = VaccineStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "a"),
                     MakeVaccine(os::ResourceType::kMutex, "b")})
            .ok());
    image = FeedImage(*store);
  }
  // A torn/corrupt checkpoint next to an unrotated (complete) journal:
  // recovery must distrust the checkpoint and replay the journal fully.
  WriteFile(file.path() + ".ckpt", "{\"type\":\"vacstore-ckpt\",\"ver");
  auto recovered = VaccineStore::Open(file.path());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->checkpoint_fallback());
  EXPECT_FALSE(recovered->checkpoint_loaded());
  EXPECT_EQ(FeedImage(*recovered), image);

  // The unusable checkpoint was discarded; the next open is clean.
  EXPECT_FALSE(FileExists(file.path() + ".ckpt"));
  auto clean = VaccineStore::Open(file.path());
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->checkpoint_fallback());
  EXPECT_EQ(FeedImage(*clean), image);
}

TEST(VaccineStore, RotatedJournalWithLostCheckpointRefusesToGuess) {
  ScratchFile file("vacstore_ckptlost_test.jsonl");
  {
    auto store = VaccineStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        store->Push({MakeVaccine(os::ResourceType::kMutex, "a")}).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  // The journal was rotated (its base epoch vouches for checkpointed
  // history), so losing the checkpoint means losing data — loading must
  // refuse rather than silently serve an empty feed.
  ASSERT_EQ(std::remove((file.path() + ".ckpt").c_str()), 0);
  auto lost = VaccineStore::Open(file.path());
  ASSERT_FALSE(lost.ok());
  EXPECT_NE(lost.status().ToString().find("rotated"), std::string::npos)
      << lost.status().ToString();

  // Same refusal when the checkpoint exists but is corrupt.
  WriteFile(file.path() + ".ckpt", "garbage\n");
  EXPECT_FALSE(VaccineStore::Open(file.path()).ok());
}

TEST(VaccineStore, EmptyAndHeaderOnlyFilesLoadEmpty) {
  ScratchFile file("vacstore_empty_test.jsonl");
  auto store = VaccineStore::Open(file.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->entries().size(), 0u);
  EXPECT_EQ(store->epoch(), 0u);
  // Open wrote the header; a second open parses it.
  auto again = VaccineStore::Open(file.path());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->entries().size(), 0u);
}

}  // namespace
}  // namespace autovac::vacstore
