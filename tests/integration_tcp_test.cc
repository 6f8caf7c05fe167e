// Integration tests over real TCP sockets: the identical node logic that
// the simulator exercises, driven through kernel sockets and executor
// threads — demonstrating the paper's portability claim that only the
// messaging layer is system-dependent (Section 5).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "core/sim_world.h"
#include "core/tcp_world.h"
#include "kfs/fs.h"

namespace khz::core {
namespace {

using consistency::LockMode;

Bytes fill(std::size_t n, std::uint8_t v) { return Bytes(n, v); }

TEST(TcpIntegration, ReserveWriteReadAcrossRealSockets) {
  TcpWorld world({.nodes = 3, .base_port = 42100});
  TcpClient alice(world, 1);
  TcpClient bob(world, 2);

  auto base = alice.create_region(8192);
  ASSERT_TRUE(base.ok()) << to_string(base.error());

  ASSERT_TRUE(alice.put({base.value(), 8192}, fill(8192, 0xC3)).ok());
  auto r = bob.get({base.value(), 8192});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0xC3);
  EXPECT_EQ(r.value()[8191], 0xC3);
}

TEST(TcpIntegration, CrewExclusionHoldsOverTcp) {
  TcpWorld world({.nodes = 3, .base_port = 42200});
  TcpClient c1(world, 1);
  TcpClient c2(world, 2);
  auto base = c1.create_region(4096);
  ASSERT_TRUE(base.ok());

  // Sequential writes from different nodes always read back coherently.
  for (int i = 1; i <= 5; ++i) {
    TcpClient& writer = (i % 2 == 0) ? c1 : c2;
    TcpClient& reader = (i % 2 == 0) ? c2 : c1;
    ASSERT_TRUE(writer
                    .put({base.value(), 4096},
                         fill(4096, static_cast<std::uint8_t>(i)))
                    .ok())
        << i;
    auto r = reader.get({base.value(), 4096});
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.value()[0], i) << i;
  }
}

TEST(TcpIntegration, AttributesAndLocationQueriesWork) {
  TcpWorld world({.nodes = 3, .base_port = 42300});
  TcpClient c1(world, 1);
  RegionAttrs attrs;
  attrs.min_replicas = 2;
  auto base = c1.create_region(4096, attrs);
  ASSERT_TRUE(base.ok());

  auto got = c1.getattr(base.value());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().min_replicas, 2u);

  auto holders = c1.locate(base.value());
  ASSERT_TRUE(holders.ok());
  EXPECT_FALSE(holders.value().empty());
}

TEST(TcpIntegration, KfsRunsUnmodifiedOverTcp) {
  TcpWorld world({.nodes = 3, .base_port = 42400});
  TcpClient c0(world, 0);
  TcpClient c2(world, 2);

  auto super = kfs::FileSystem::mkfs(c0);
  ASSERT_TRUE(super.ok()) << to_string(super.error());
  auto fs0 = kfs::FileSystem::mount(c0, super.value());
  ASSERT_TRUE(fs0.ok());
  auto fs2 = kfs::FileSystem::mount(c2, super.value());
  ASSERT_TRUE(fs2.ok());

  ASSERT_TRUE(fs0.value().mkdir("/shared").ok());
  auto fh = fs0.value().create("/shared/notes.txt");
  ASSERT_TRUE(fh.ok());
  const std::string text = "written over real sockets";
  ASSERT_TRUE(fs0.value()
                  .write(fh.value(), 0,
                         {reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size()})
                  .ok());

  auto fh2 = fs2.value().open("/shared/notes.txt");
  ASSERT_TRUE(fh2.ok());
  auto back = fs2.value().read(fh2.value(), 0, text.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::string(back.value().begin(), back.value().end()), text);
}

TEST(TcpIntegration, MigrationOverRealSockets) {
  TcpWorld world({.nodes = 3, .base_port = 42600});
  TcpClient c0(world, 0);
  TcpClient c1(world, 1);

  auto base = c0.create_region(4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(c0.put({base.value(), 4096}, fill(4096, 0x19)).ok());

  // Migrate the home from node 0 to node 2 through the executor API.
  std::mutex mu;
  std::condition_variable cv;
  std::optional<Status> migrated;
  world.transport(0).run_on_executor([&] {
    world.node(0).migrate(base.value(), 2, [&](Status s) {
      std::lock_guard lk(mu);
      migrated = s;
      cv.notify_one();
    });
  });
  {
    std::unique_lock lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(10),
                            [&] { return migrated.has_value(); }));
  }
  ASSERT_TRUE(migrated->ok()) << to_string(migrated->error());

  // Data remains readable and writable through the new home.
  auto r = c1.get({base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0x19);
  ASSERT_TRUE(c1.put({base.value(), 4096}, fill(4096, 0x20)).ok());
  EXPECT_EQ(c0.get({base.value(), 4096}).value()[0], 0x20);
}

TEST(TcpIntegration, TransportStatsSeeClusterTraffic) {
  TcpWorld world({.nodes = 3, .base_port = 42700});
  TcpClient c1(world, 1);
  TcpClient c2(world, 2);
  auto base = c1.create_region(4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(c1.put({base.value(), 4096}, fill(4096, 0x5C)).ok());
  auto r = c2.get({base.value(), 4096});
  ASSERT_TRUE(r.ok());

  // The data plane ran over real sockets: every endpoint's counters are
  // visible through the world, and nothing backed up or was shed.
  const auto total = world.total_transport_stats();
  EXPECT_GT(total.messages_sent, 0u);
  EXPECT_GT(total.bytes_sent, 4096u);  // at least one page crossed the wire
  EXPECT_EQ(total.frames_dropped, 0u);
  EXPECT_GT(world.transport_stats(2).messages_sent, 0u);
}

TEST(TcpIntegration, ConcurrentClientsFromSeparateThreads) {
  TcpWorld world({.nodes = 3, .base_port = 42500});
  TcpClient c0(world, 0);
  auto base = c0.create_region(4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(c0.put({base.value(), 8}, fill(8, 0)).ok());

  // Two OS threads increment a shared counter through different nodes;
  // Khazana's locking must linearize them.
  auto worker = [&](NodeId node, int rounds) {
    TcpClient c(world, node);
    for (int i = 0; i < rounds; ++i) {
      auto ctx = c.lock({base.value(), 8}, LockMode::kWrite);
      ASSERT_TRUE(ctx.ok());
      auto cur = c.read(ctx.value(), 0, 8);
      ASSERT_TRUE(cur.ok());
      std::uint64_t v = 0;
      std::memcpy(&v, cur.value().data(), 8);
      ++v;
      Bytes out(8);
      std::memcpy(out.data(), &v, 8);
      ASSERT_TRUE(c.write(ctx.value(), 0, out).ok());
      c.unlock(ctx.value());
    }
  };
  std::thread t1(worker, 1, 10);
  std::thread t2(worker, 2, 10);
  t1.join();
  t2.join();

  auto final = c0.get({base.value(), 8});
  ASSERT_TRUE(final.ok());
  std::uint64_t v = 0;
  std::memcpy(&v, final.value().data(), 8);
  EXPECT_EQ(v, 20u);
}

// ---------------------------------------------------------------------------
// Knob round trip: both worlds build every node from one NodeConfig
// template, so a knob set on the template reaches every node unchanged.
// ---------------------------------------------------------------------------

/// Sets every non-identity NodeConfig knob away from its default.
void set_every_knob(NodeConfig& c) {
  c.ram_pages = 1000;
  c.disk_pages = 900;
  c.rpc_timeout = 150'000;
  c.max_retries = 5;
  c.ping_interval = 400'000;
  c.admission = {.client_queue_limit = 64,
                 .protocol_queue_limit = 128,
                 .replication_queue_limit = 32,
                 .service_us = 1};
  c.sync_metadata = true;
  c.segment_bytes = 1ull << 20;
  c.group_commit_us = 5'000;
  c.checkpoint_interval = 900'000;
  c.slow_op_threshold_us = 1'000'000;
  c.slow_op_deadline_fraction = 0.9;
  c.flight_recorder_capacity = 8;
  c.stats_sample_interval = 700'000;
  c.stats_series_capacity = 16;
  c.location = {.hint_sync_interval = 600'000, .free_space_ttl = 5'000'000};
  c.seed = 9;
  c.principal = 7;
  c.lanes = 2;
}

/// Every node of `world` carries `knobs` verbatim, plus its own identity:
/// id, the full peer list, node 0 as genesis, the first `managers` nodes as
/// cluster managers and its own directory under `disk_root`.
template <typename World>
void expect_nodes_carry(World& world, const NodeConfig& knobs,
                        std::size_t managers,
                        const std::filesystem::path& disk_root) {
  std::vector<NodeId> peers;
  for (std::size_t i = 0; i < world.size(); ++i) {
    peers.push_back(static_cast<NodeId>(i));
  }
  const std::vector<NodeId> cms(peers.begin(), peers.begin() + managers);
  for (NodeId id : peers) {
    NodeConfig got = world.node(id).config();
    EXPECT_EQ(got.id, id);
    EXPECT_EQ(got.genesis, 0u);
    EXPECT_EQ(got.peers, peers);
    EXPECT_EQ(got.cluster_managers, cms);
    EXPECT_EQ(got.disk_dir, disk_root / ("node" + std::to_string(id)));
    EXPECT_EQ(world.node(id).lanes(), 2u);
    // With the identity fields put back, what remains is the template.
    got.id = knobs.id;
    got.genesis = knobs.genesis;
    got.peers = knobs.peers;
    got.cluster_managers = knobs.cluster_managers;
    got.disk_dir = knobs.disk_dir;
    EXPECT_TRUE(got == knobs) << "node " << id;
  }
}

/// A fresh per-process directory, removed again on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : dir_(std::filesystem::temp_directory_path() /
             ("khz_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] const std::filesystem::path& path() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

TEST(TcpWorldConfig, SimWorldNodesCarryEveryTemplateKnob) {
  TempDir tmp("sim_knobs");
  SimWorldOptions opts{.nodes = 3, .managers = 2, .disk_root = tmp.path()};
  set_every_knob(opts);
  SimWorld world(opts);
  expect_nodes_carry(world, opts, 2, tmp.path());
}

TEST(TcpWorldConfig, TcpWorldNodesCarryEveryTemplateKnob) {
  TempDir tmp("tcp_knobs");
  TcpWorldOptions opts{
      .nodes = 3, .base_port = 42800, .disk_root = tmp.path()};
  set_every_knob(opts);
  TcpWorld world(opts);
  expect_nodes_carry(world, opts, 1, tmp.path());
}

}  // namespace
}  // namespace khz::core
