// PolicyRegistry: versioned storage round-trips, monotonic version
// assignment, lifecycle status + CURRENT pointer semantics, corruption
// containment (CRC footers), and v1-checkpoint compatibility — entries
// written by old builds must stay loadable.

#include "policy/registry.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "rl/policy_io.hpp"
#include "util/crc32.hpp"
#include "util/framing.hpp"

namespace pmrl::policy {
namespace {

/// Fresh per-test registry directory (removed and recreated).
std::filesystem::path test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("pmrl_registry_" + std::to_string(::getpid()) + "_" + info->name());
  std::filesystem::remove_all(dir);
  return dir;
}

rl::RlGovernor marked_governor(double q) {
  rl::RlGovernor governor(rl::RlGovernorConfig{}, 2);
  governor.agent(0).set_q_value(3, 1, q);
  return governor;
}

PolicyMeta lineage_meta() {
  PolicyMeta meta;
  meta.parent_version = 0;
  meta.train_seed = 42;
  meta.merge_seed = 7;
  meta.episodes = 60;
  meta.actors = 4;
  meta.note = "unit test";
  return meta;
}

TEST(PolicyRegistryTest, AddAssignsMonotonicVersionsAndRoundTripsMeta) {
  PolicyRegistry registry(test_dir());
  EXPECT_TRUE(registry.list().empty());
  EXPECT_EQ(registry.add(marked_governor(-1.0), lineage_meta()), 1u);
  auto second = lineage_meta();
  second.parent_version = 1;
  EXPECT_EQ(registry.add(marked_governor(-2.0), second), 2u);

  const auto entries = registry.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].version, 1u);
  EXPECT_EQ(entries[1].version, 2u);
  EXPECT_EQ(entries[1].parent_version, 1u);
  EXPECT_EQ(entries[0].status, PolicyStatus::Candidate);
  EXPECT_EQ(entries[0].train_seed, 42u);
  EXPECT_EQ(entries[0].merge_seed, 7u);
  EXPECT_EQ(entries[0].episodes, 60u);
  EXPECT_EQ(entries[0].actors, 4u);
  EXPECT_EQ(entries[0].note, "unit test");
}

TEST(PolicyRegistryTest, LoadRestoresTheCheckpoint) {
  PolicyRegistry registry(test_dir());
  const auto version = registry.add(marked_governor(-3.5), lineage_meta());
  rl::RlGovernor restored(rl::RlGovernorConfig{}, 2);
  registry.load(version, restored);
  EXPECT_DOUBLE_EQ(restored.agent(0).q_value(3, 1), -3.5);
}

TEST(PolicyRegistryTest, PromoteSetsCurrentRollbackDoesNot) {
  PolicyRegistry registry(test_dir());
  registry.add(marked_governor(-1.0), lineage_meta());
  registry.add(marked_governor(-2.0), lineage_meta());
  EXPECT_FALSE(registry.current().has_value());

  registry.promote(1);
  ASSERT_TRUE(registry.current().has_value());
  EXPECT_EQ(*registry.current(), 1u);
  EXPECT_EQ(registry.meta(1)->status, PolicyStatus::Promoted);

  registry.rollback(2);
  EXPECT_EQ(registry.meta(2)->status, PolicyStatus::RolledBack);
  EXPECT_EQ(*registry.current(), 1u);  // the incumbent keeps serving
}

TEST(PolicyRegistryTest, LatestCandidateSkipsServedVersions) {
  PolicyRegistry registry(test_dir());
  registry.add(marked_governor(-1.0), lineage_meta());
  registry.add(marked_governor(-2.0), lineage_meta());
  registry.add(marked_governor(-3.0), lineage_meta());
  EXPECT_EQ(*registry.latest_candidate(), 3u);
  registry.set_status(3, PolicyStatus::Canary);
  EXPECT_EQ(*registry.latest_candidate(), 2u);
  registry.promote(2);
  registry.rollback(1);
  EXPECT_FALSE(registry.latest_candidate().has_value());
}

TEST(PolicyRegistryTest, SetStatusOnMissingVersionThrows) {
  PolicyRegistry registry(test_dir());
  EXPECT_THROW(registry.set_status(9, PolicyStatus::Promoted),
               std::runtime_error);
}

TEST(PolicyRegistryTest, CorruptMetaIsSkippedNotServed) {
  PolicyRegistry registry(test_dir());
  registry.add(marked_governor(-1.0), lineage_meta());
  registry.add(marked_governor(-2.0), lineage_meta());
  {
    std::ofstream out(registry.meta_path(1),
                      std::ios::binary | std::ios::app);
    out << "tampered\n";
  }
  EXPECT_FALSE(registry.meta(1).has_value());
  const auto entries = registry.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].version, 2u);
  // Version assignment still moves forward from the highest readable id.
  EXPECT_EQ(registry.add(marked_governor(-3.0), lineage_meta()), 3u);
}

// Only an absent CURRENT reads as "nothing promoted"; a damaged one is a
// typed error, so no caller mistakes it for a fresh registry.
TEST(PolicyRegistryTest, CorruptCurrentPointerIsATypedError) {
  PolicyRegistry registry(test_dir());
  registry.add(marked_governor(-1.0), lineage_meta());
  EXPECT_FALSE(registry.current().has_value());
  registry.promote(1);
  ASSERT_EQ(registry.current(), 1u);
  const std::string bad_crc = "1\ncrc32,00000000\n";
  const std::string no_number =
      "one\n" + util::crc32_footer_line(pmrl::crc32("one\n"));
  for (const std::string& damaged : {bad_crc, no_number, std::string()}) {
    {
      std::ofstream out(registry.dir() / "CURRENT", std::ios::binary);
      out << damaged;
    }
    EXPECT_THROW((void)registry.current(), CorruptCurrentError) << damaged;
  }
}

// Satellite: a registry entry whose checkpoint was written by an old build
// in the v1 format (no crc32 footer) must still load.
TEST(PolicyRegistryTest, V1CheckpointEntryStillLoads) {
  PolicyRegistry registry(test_dir());
  const auto version = registry.add(marked_governor(-4.25), lineage_meta());

  // Rewrite the stored checkpoint as a v1 file, exactly as an old build
  // would have produced it.
  std::ifstream in(registry.policy_path(version));
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  ASSERT_EQ(text.rfind("pmrl-policy,2,", 0), 0u);
  text.replace(0, 14, "pmrl-policy,1,");
  const std::size_t footer = text.rfind("crc32,");
  ASSERT_NE(footer, std::string::npos);
  text.erase(footer);
  {
    std::ofstream out(registry.policy_path(version), std::ios::binary);
    out << text;
  }

  rl::RlGovernor restored(rl::RlGovernorConfig{}, 2);
  registry.load(version, restored);
  EXPECT_DOUBLE_EQ(restored.agent(0).q_value(3, 1), -4.25);
}

}  // namespace
}  // namespace pmrl::policy
