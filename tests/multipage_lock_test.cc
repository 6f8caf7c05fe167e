// Pipelined multi-page lock acquisition and the multi-page fetch messages:
// coalesced fetches, all-or-nothing rollback, ordered-acquisition progress
// under overlap, and resilience to message loss/duplication.
#include <gtest/gtest.h>

#include "core/client.h"

namespace khz::core {
namespace {

using consistency::LockMode;
using net::MsgType;

constexpr std::uint64_t kPage = 4096;

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i / kPage);
  }
  return b;
}

TEST(MultiPageLock, ColdReadCoalescesFetchesIntoOneBatch) {
  SimWorld world({.nodes = 2});
  const std::uint64_t bytes = 16 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), bytes}, pattern(bytes, 0x40)).ok());

  world.net().stats().clear();
  auto got = world.get(1, {base.value(), bytes});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), pattern(bytes, 0x40));

  // All 16 cold pages ride one fetch + one response instead of 16
  // request/reply pairs.
  const auto& per_type = world.net().stats().per_type;
  auto count = [&](MsgType t) {
    auto it = per_type.find(t);
    return it == per_type.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(count(MsgType::kPageFetchReq), 1u);
  EXPECT_EQ(count(MsgType::kPageFetchResp), 1u);
  EXPECT_EQ(count(MsgType::kCm), 0u);  // every grant rode the response

  const auto pages = world.node(1)
                         .metrics()
                         .histogram("crew.batch_pages")
                         .snapshot();
  EXPECT_EQ(pages.count, 1u);
  EXPECT_EQ(pages.max, 16u);
  // Every page's request -> grant round is timed, all in the one exchange.
  const auto rounds = world.node(1)
                          .metrics()
                          .histogram("crew.round_us")
                          .snapshot();
  EXPECT_EQ(rounds.count, 16u);
}

TEST(MultiPageLock, ColdWriteLockAlsoBatches) {
  SimWorld world({.nodes = 2});
  const std::uint64_t bytes = 8 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());

  world.net().stats().clear();
  auto ctx = world.lock(1, {base.value(), bytes}, LockMode::kWrite);
  ASSERT_TRUE(ctx.ok());
  world.unlock(1, ctx.value());

  const auto& per_type = world.net().stats().per_type;
  auto it = per_type.find(MsgType::kPageFetchReq);
  ASSERT_NE(it, per_type.end());
  EXPECT_EQ(it->second, 1u);
  const auto pages = world.node(1)
                         .metrics()
                         .histogram("crew.batch_pages")
                         .snapshot();
  EXPECT_EQ(pages.max, 8u);
}

TEST(MultiPageLock, PartialFailureReleasesEveryGrantedPage) {
  // Node 1 owns the first five pages; the home (node 0) then dies, so the
  // range lock's later pages can never be granted. The op must fail AND
  // leave no stray hold on the pages it had already locked.
  SimWorldOptions opts;
  opts.nodes = 2;
  opts.rpc_timeout = 50'000;
  opts.max_retries = 1;
  SimWorld world(opts);
  const std::uint64_t bytes = 8 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(
      world.put(1, {base.value(), 5 * kPage}, pattern(5 * kPage, 1)).ok());

  world.net().set_node_up(0, false);

  std::optional<Result<consistency::LockContext>> out;
  world.node(1).lock({base.value(), bytes}, LockMode::kWrite,
                     [&](Result<consistency::LockContext> r) { out = r; });
  ASSERT_TRUE(world.pump_until([&] { return out.has_value(); }));
  ASSERT_FALSE(out->ok());
  EXPECT_EQ(out->error(), ErrorCode::kUnreachable);

  for (std::uint64_t p = 0; p < 8; ++p) {
    auto& info = world.node(1).page_info(base.value().plus(p * kPage));
    EXPECT_EQ(info.write_holds, 0u) << "page " << p;
    EXPECT_EQ(info.read_holds, 0u) << "page " << p;
  }
  EXPECT_EQ(world.node(1).metrics().counter("node.locks_failed").value(),
            1u);

  // The released pages are actually reusable: a lock over just the pages
  // node 1 still owns succeeds without the home.
  auto retry = world.lock(1, {base.value(), 5 * kPage}, LockMode::kWrite);
  ASSERT_TRUE(retry.ok());
  world.unlock(1, retry.value());
}

TEST(MultiPageLock, OverlappingRangeLocksBothMakeProgress) {
  // Two writers repeatedly lock overlapping page ranges. Ascending-address
  // hold order guarantees the overlap region cannot deadlock; both ops
  // must complete every round.
  SimWorld world({.nodes = 3});
  const std::uint64_t bytes = 12 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());

  for (int round = 0; round < 5; ++round) {
    std::optional<Result<consistency::LockContext>> a, b;
    world.node(1).lock({base.value(), 8 * kPage}, LockMode::kWrite,
                       [&](Result<consistency::LockContext> r) { a = r; });
    world.node(2).lock({base.value().plus(4 * kPage), 8 * kPage},
                       LockMode::kWrite,
                       [&](Result<consistency::LockContext> r) { b = r; });
    // The first grant holds pages the second needs; release it as soon as
    // it lands so the second can finish.
    ASSERT_TRUE(world.pump_until([&] { return a.has_value() || b.has_value(); }))
        << "round " << round;
    if (a.has_value()) {
      ASSERT_TRUE(a->ok()) << "round " << round;
      world.unlock(1, a->value());
      ASSERT_TRUE(world.pump_until([&] { return b.has_value(); }))
          << "round " << round;
      ASSERT_TRUE(b->ok()) << "round " << round;
      world.unlock(2, b->value());
    } else {
      ASSERT_TRUE(b->ok()) << "round " << round;
      world.unlock(2, b->value());
      ASSERT_TRUE(world.pump_until([&] { return a.has_value(); }))
          << "round " << round;
      ASSERT_TRUE(a->ok()) << "round " << round;
      world.unlock(1, a->value());
    }
  }
}

TEST(MultiPageLock, BatchFetchSurvivesDropAndDuplication) {
  // Requester -> home loses and duplicates messages (a lost fetch is
  // re-sent by its pages' retry timers); home -> requester duplicates
  // grants (the unsolicited-grant guard must drop the replays). Drops on
  // the home -> sharer direction are excluded deliberately: a lost
  // invalidate makes the home presume the sharer dead after its timeout —
  // the protocol's documented availability tradeoff — which would leave a
  // legitimately stale copy and has nothing to do with multi-page fetches.
  SimWorldOptions opts;
  opts.nodes = 2;
  opts.seed = 7;
  SimWorld world(opts);
  net::LinkProfile to_home = net::LinkProfile::lan();
  to_home.drop_probability = 0.05;
  to_home.dup_probability = 0.05;
  net::LinkProfile from_home = net::LinkProfile::lan();
  from_home.dup_probability = 0.05;
  world.net().set_link(1, 0, to_home);
  world.net().set_link(0, 1, from_home);
  const std::uint64_t bytes = 16 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());

  for (int round = 0; round < 3; ++round) {
    const auto v = static_cast<std::uint8_t>(0x10 + round);
    ASSERT_TRUE(world.put(0, {base.value(), bytes}, pattern(bytes, v)).ok())
        << "round " << round;
    auto got = world.get(1, {base.value(), bytes});
    ASSERT_TRUE(got.ok()) << "round " << round;
    EXPECT_EQ(got.value(), pattern(bytes, v)) << "round " << round;
  }
  EXPECT_GT(world.net().stats().messages_duplicated, 0u);
}

TEST(MultiPageLock, ReplicateToShipsRegionAsOneBatchedPush) {
  SimWorld world({.nodes = 3});
  const std::uint64_t bytes = 6 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), bytes}, pattern(bytes, 0x55)).ok());

  world.net().stats().clear();
  ASSERT_TRUE(world.replicate_to(0, base.value(), 2).ok());
  const auto& per_type = world.net().stats().per_type;
  auto it = per_type.find(MsgType::kReplicaPush);
  ASSERT_NE(it, per_type.end());
  EXPECT_EQ(it->second, 1u);  // six pages, one message

  // The replica actually landed: node 2 serves the data from its copy.
  auto got = world.get(2, {base.value(), bytes});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), pattern(bytes, 0x55));
}

}  // namespace
}  // namespace khz::core
