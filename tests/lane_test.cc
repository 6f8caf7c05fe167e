// Parallel execution lanes (docs/architecture.md, threading model):
// region-to-lane routing stability across restart, cross-lane multi-page
// locking with rollback intact, lane-affine timers, the lanes=1
// byte-for-byte-legacy guarantee, per-lane telemetry, and a TcpWorld
// multi-lane smoke over real sockets and threads.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>

#include "common/lane.h"
#include "core/client.h"
#include "core/tcp_world.h"

namespace khz::core {
namespace {

using consistency::LockMode;

namespace fs = std::filesystem;

constexpr std::uint64_t kPage = 4096;

SimWorldOptions laned(std::size_t nodes, unsigned lanes) {
  SimWorldOptions o;
  o.nodes = nodes;
  o.lanes = lanes;
  return o;
}

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i / kPage);
  }
  return b;
}

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("khz_lane_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

// ---------------------------------------------------------------------------
// lane_of unit behaviour
// ---------------------------------------------------------------------------

TEST(LaneOf, SingleLaneAndZeroKeyAlwaysLaneZero) {
  EXPECT_EQ(lane_of(0, 1), 0u);
  EXPECT_EQ(lane_of(0x1234, 1), 0u);
  EXPECT_EQ(lane_of(0, 8), 0u);  // key 0 = the map region, pinned to lane 0
}

TEST(LaneOf, DeterministicAndCoversAllLanes) {
  bool hit[8] = {};
  for (std::uint64_t k = 1; k < 4096; ++k) {
    const unsigned l = lane_of(k, 8);
    ASSERT_LT(l, 8u);
    EXPECT_EQ(l, lane_of(k, 8));  // stable
    hit[l] = true;
  }
  for (bool h : hit) EXPECT_TRUE(h);  // splitmix spreads across every lane
}

// ---------------------------------------------------------------------------
// Routing stability across restart
// ---------------------------------------------------------------------------

TEST(Lanes, RegionDataSurvivesRestartWithLanes) {
  // Region state recovered from the metadata journal must land on the same
  // lane that owned it before the crash (region_key hashes the base
  // address, so the mapping is a pure function of the address). A put
  // before the crash must be readable after reboot.
  TempDir tmp;
  SimWorldOptions opts = laned(2, 4);
  opts.disk_root = tmp.path();
  opts.disk_pages = 512;
  SimWorld world(opts);
  const std::uint64_t bytes = 4 * kPage;
  std::vector<GlobalAddress> bases;
  for (int i = 0; i < 6; ++i) {  // several regions → several lanes
    auto base = world.create_region(0, bytes);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(world.put(0, {base.value(), bytes},
                          pattern(bytes, static_cast<std::uint8_t>(i)))
                    .ok());
    bases.push_back(base.value());
  }
  world.restart_node(0);
  for (int i = 0; i < 6; ++i) {
    auto got = world.get(0, {bases[static_cast<std::size_t>(i)], bytes});
    ASSERT_TRUE(got.ok()) << "region " << i;
    EXPECT_EQ(got.value(), pattern(bytes, static_cast<std::uint8_t>(i)));
  }
}

// ---------------------------------------------------------------------------
// Cross-lane locking
// ---------------------------------------------------------------------------

TEST(Lanes, MultiPageLockAcrossManyRegionsAndLanes) {
  // Locks against regions owned by different lanes, issued from one
  // client entry point, must all complete: the entry hop posts onto each
  // region's lane and the continuation carries the deadline across.
  SimWorld world(laned(3, 4));
  const std::uint64_t bytes = 8 * kPage;
  for (int i = 0; i < 8; ++i) {
    auto base = world.create_region(static_cast<NodeId>(i % 3), bytes);
    ASSERT_TRUE(base.ok());
    auto lk = world.lock(2, {base.value(), bytes}, LockMode::kWrite);
    ASSERT_TRUE(lk.ok()) << "region " << i;
    ASSERT_TRUE(world
                    .write(2, lk.value(), 0,
                           pattern(bytes, static_cast<std::uint8_t>(i)))
                    .ok());
    world.unlock(2, lk.value());
    auto got = world.get(1, {base.value(), bytes});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), pattern(bytes, static_cast<std::uint8_t>(i)));
  }
}

TEST(Lanes, FailedLockRollsBackWithLanes) {
  // All-or-nothing multi-page acquisition still holds with lanes: a lock
  // spanning unreserved space fails and leaves nothing held, so a
  // follow-up lock of the valid prefix succeeds immediately.
  SimWorld world(laned(2, 4));
  const std::uint64_t bytes = 4 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());
  auto bad = world.lock(1, {base.value(), 2 * bytes}, LockMode::kWrite);
  EXPECT_FALSE(bad.ok());
  auto good = world.lock(1, {base.value(), bytes}, LockMode::kWrite);
  ASSERT_TRUE(good.ok());
  world.unlock(1, good.value());
}

// ---------------------------------------------------------------------------
// Lane-affine timers
// ---------------------------------------------------------------------------

TEST(Lanes, TimerFiresOnOwningLane) {
  SimWorld world(laned(1, 4));
  auto* ep = world.net().endpoint(0);
  ASSERT_NE(ep, nullptr);
  unsigned fired_on = 99;
  ep->schedule_on(2, 10, [&] { fired_on = current_lane(); });
  world.pump_for(1000);
  EXPECT_EQ(fired_on, 2u);
}

// ---------------------------------------------------------------------------
// lanes=1 is byte-for-byte the legacy node
// ---------------------------------------------------------------------------

std::map<net::MsgType, std::uint64_t> run_workload_messages(unsigned lanes) {
  SimWorld world(laned(3, lanes));
  const std::uint64_t bytes = 8 * kPage;
  auto base = world.create_region(0, bytes);
  EXPECT_TRUE(base.ok());
  EXPECT_TRUE(world.put(1, {base.value(), bytes}, pattern(bytes, 7)).ok());
  auto got = world.get(2, {base.value(), bytes});
  EXPECT_TRUE(got.ok());
  EXPECT_TRUE(world.migrate(0, base.value(), 1).ok());
  EXPECT_TRUE(world.unreserve(2, base.value()).ok());
  return world.net().stats().per_type;
}

TEST(Lanes, LanesOneMatchesLegacyMessageForMessage) {
  // Lanes split a node's work across executors; they must not change the
  // protocol: the same deterministic workload sends exactly the same
  // messages, kind for kind, at lanes=4 as at lanes=1.
  const auto one = run_workload_messages(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(run_workload_messages(4), one);
  SimWorld defaulted({.nodes = 3});  // lanes unset = one lane
  EXPECT_EQ(defaulted.node(0).lanes(), 1u);
}

// ---------------------------------------------------------------------------
// Per-lane telemetry
// ---------------------------------------------------------------------------

TEST(Lanes, LaneTelemetryVisibleInMetrics) {
  SimWorld world(laned(2, 4));
  const std::uint64_t bytes = 4 * kPage;
  for (int i = 0; i < 6; ++i) {
    auto base = world.create_region(0, bytes);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(world.put(1, {base.value(), bytes}, pattern(bytes, 1)).ok());
  }
  const std::string json = world.metrics_json(0);
  EXPECT_NE(json.find("lane.depth.0"), std::string::npos);
  EXPECT_NE(json.find("lane.depth.3"), std::string::npos);
  EXPECT_NE(json.find("lane.dispatch_us"), std::string::npos);
  // Every queued continuation was dispatched: depth gauges are back to 0.
  for (unsigned l = 0; l < 4; ++l) {
    EXPECT_EQ(world.node(0)
                  .metrics()
                  .gauge("lane.depth." + std::to_string(l))
                  .value(),
              0);
  }
}

// ---------------------------------------------------------------------------
// TcpWorld: real threads, one executor per lane
// ---------------------------------------------------------------------------

TEST(Lanes, TcpWorldMultiLaneRoundTrip) {
  TcpWorldOptions opts;
  opts.nodes = 2;
  opts.base_port = 41200;
  opts.lanes = 2;
  TcpWorld world(opts);
  TcpClient client(world, 0);
  const std::uint64_t bytes = 4 * kPage;
  for (int i = 0; i < 4; ++i) {
    auto base = client.reserve(bytes, {});
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(client.allocate({base.value(), bytes}).ok());
    auto lk = client.lock({base.value(), bytes}, LockMode::kWrite);
    ASSERT_TRUE(lk.ok());
    const Bytes data = pattern(bytes, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(client.write(lk.value(), 0, data).ok());
    auto got = client.read(lk.value(), 0, bytes);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), data);
    client.unlock(lk.value());
  }
}

}  // namespace
}  // namespace khz::core
