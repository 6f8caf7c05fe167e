// Region home migration tests: the directory authority, descriptor and
// resident copies move; the address never changes; stale descriptors
// elsewhere recover through the normal bounce + re-resolve path.
#include <gtest/gtest.h>

#include "core/client.h"

namespace khz::core {
namespace {

using consistency::LockMode;

Bytes fill(std::size_t n, std::uint8_t v) { return Bytes(n, v); }

TEST(MigrationTest, DataSurvivesAndNewHomeServes) {
  SimWorld world({.nodes = 3});
  auto base = world.create_region(0, 8192);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 8192}, fill(8192, 0x3C)).ok());

  ASSERT_TRUE(world.migrate(0, base.value(), 2).ok());
  world.pump_for(1'000'000);

  // The new home answers descriptor lookups.
  auto attrs = world.getattr(1, base.value());
  ASSERT_TRUE(attrs.ok());
  // And the data is intact, served by node 2.
  auto r = world.get(1, {base.value(), 8192});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0x3C);
  EXPECT_EQ(r.value()[8191], 0x3C);
}

TEST(MigrationTest, OldHomeCanDieAfterMigration) {
  SimWorldOptions opts{.nodes = 3};
  opts.rpc_timeout = 50'000;
  SimWorld world(opts);
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 0x77)).ok());
  ASSERT_TRUE(world.migrate(1, base.value(), 2).ok());
  world.pump_for(1'000'000);

  world.net().set_node_up(1, false);
  auto r = world.get(0, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0x77);
}

TEST(MigrationTest, WritesWorkAtNewHome) {
  SimWorld world({.nodes = 3});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 4096}, fill(4096, 1)).ok());
  ASSERT_TRUE(world.migrate(0, base.value(), 1).ok());
  world.pump_for(1'000'000);

  ASSERT_TRUE(world.put(2, {base.value(), 4096}, fill(4096, 2)).ok());
  auto r = world.get(1, {base.value(), 4096});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0], 2);
}

TEST(MigrationTest, StaleCachedDescriptorRecovers) {
  SimWorld world({.nodes = 4});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 4096}, fill(4096, 9)).ok());
  // Node 3 caches the descriptor (home = 0) and the page.
  ASSERT_TRUE(world.get(3, {base.value(), 4096}).ok());

  ASSERT_TRUE(world.migrate(0, base.value(), 2).ok());
  world.pump_for(1'000'000);
  // Invalidate node 3's page copy so its next read must contact a home —
  // using its stale cached descriptor that still names node 0.
  world.node(3).page_info(base.value()).state =
      storage::PageState::kInvalid;
  world.node(3).storage().erase(base.value());

  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 10)).ok());
  auto r = world.get(3, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 10);
}

TEST(MigrationTest, RefusedWhileLockedLocally) {
  SimWorld world({.nodes = 2});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  auto ctx = world.lock(0, {base.value(), 4096}, LockMode::kWrite);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(world.migrate(0, base.value(), 1).error(),
            ErrorCode::kConflict);
  world.unlock(0, ctx.value());
  EXPECT_TRUE(world.migrate(0, base.value(), 1).ok());
}

TEST(MigrationTest, ErrorsForUnknownRegionOrNonBase) {
  SimWorld world({.nodes = 2});
  auto base = world.create_region(0, 8192);
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(world.migrate(0, GlobalAddress{7, 7}, 1).ok());
  EXPECT_EQ(world.migrate(0, base.value().plus(4096), 1).error(),
            ErrorCode::kBadArgument);
}

TEST(MigrationTest, MigrateToSelfIsNoOp) {
  SimWorld world({.nodes = 2});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 4096}, fill(4096, 5)).ok());
  EXPECT_TRUE(world.migrate(0, base.value(), 0).ok());
  EXPECT_EQ(world.get(1, {base.value(), 4096}).value()[0], 5);
}

TEST(MigrationTest, ChainOfMigrationsKeepsDataReachable) {
  SimWorld world({.nodes = 4});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 4096}, fill(4096, 0xC0)).ok());
  for (NodeId target : {1u, 2u, 3u, 0u}) {
    ASSERT_TRUE(world.migrate(0, base.value(), target).ok()) << target;
    world.pump_for(1'000'000);
    auto r = world.get((target + 1) % 4, {base.value(), 4096});
    ASSERT_TRUE(r.ok()) << "after migrating to " << target;
    EXPECT_EQ(r.value()[0], 0xC0);
  }
}

TEST(MigrationTest, AddressMapTracksNewHome) {
  SimWorld world({.nodes = 3});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  world.pump_for(1'000'000);
  ASSERT_TRUE(world.migrate(1, base.value(), 2).ok());
  world.pump_for(1'000'000);
  auto entry = world.node(0).address_map()->lookup(base.value());
  ASSERT_TRUE(entry.has_value());
  ASSERT_FALSE(entry->homes.empty());
  EXPECT_EQ(entry->homes.front(), 2u);
}

}  // namespace
}  // namespace khz::core
