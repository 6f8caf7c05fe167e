// Direct unit tests of the consistency-manager state machines against a
// scripted mock CmHost: message flows, deferred conflicting operations,
// timeout/retry behaviour, eviction decisions and node-down cleanup —
// without a network or node in the loop.
#include <gtest/gtest.h>

#include <deque>

#include "consistency/crew.h"
#include "consistency/eventual.h"
#include "consistency/release.h"

namespace khz::consistency {
namespace {

using storage::PageInfo;
using storage::PageState;

constexpr GlobalAddress kPage{0, 0x1000};
constexpr NodeId kSelf = 1;
constexpr NodeId kHome = 0;
constexpr NodeId kPeer = 2;

/// Scripted host: captures outbound CM messages and timers; the test
/// drives message delivery and timer firing by hand.
class MockHost final : public CmHost {
 public:
  enum class Kind { kCm, kFetchReq, kFetchResp };
  struct Sent {
    NodeId to;
    ProtocolId protocol;
    GlobalAddress page;  // a fetch message's first page
    Bytes payload;
    Kind kind = Kind::kCm;
  };
  struct Timer {
    std::uint64_t id;
    Micros delay;
    std::function<void()> fn;
    bool cancelled = false;
  };

  [[nodiscard]] NodeId self() const override { return self_; }
  void send_cm(NodeId peer, ProtocolId protocol, const GlobalAddress& page,
               Bytes payload) override {
    sent.push_back({peer, protocol, page, std::move(payload)});
  }
  void send_page_fetch(NodeId peer, ProtocolId protocol, bool request,
                       Bytes payload, std::uint64_t) override {
    Decoder d(payload);
    (void)d.u32();
    const GlobalAddress first = d.addr();
    sent.push_back({peer, protocol, first, std::move(payload),
                    request ? Kind::kFetchReq : Kind::kFetchResp});
  }
  PageInfo& page_info(const GlobalAddress& page) override {
    auto [it, inserted] = pages_.try_emplace(page);
    if (inserted) it->second.addr = page;
    return it->second;
  }
  const Bytes* page_data(const GlobalAddress& page) override {
    auto it = data_.find(page);
    return it == data_.end() ? nullptr : &it->second;
  }
  void store_page(const GlobalAddress& page, Bytes data) override {
    data_[page] = std::move(data);
  }
  void drop_page(const GlobalAddress& page) override { data_.erase(page); }
  NodeId home_of(const GlobalAddress&) override { return home_; }
  bool is_home(const GlobalAddress&) override { return self_ == home_; }
  std::vector<NodeId> alternate_homes(const GlobalAddress&) override {
    return alternates_;
  }
  std::uint32_t page_size_of(const GlobalAddress&) override { return 4096; }
  std::uint32_t min_replicas_of(const GlobalAddress&) override { return 1; }
  std::vector<NodeId> membership() override { return {0, 1, 2, 3}; }
  void note_copyset_change(const GlobalAddress&) override {
    ++copyset_changes;
  }
  [[nodiscard]] Micros now() const override { return now_; }
  std::uint64_t schedule(Micros delay, std::function<void()> fn) override {
    timers.push_back({next_timer_++, delay, std::move(fn)});
    return timers.back().id;
  }
  void cancel(std::uint64_t timer_id) override {
    for (auto& t : timers) {
      if (t.id == timer_id) t.cancelled = true;
    }
  }
  Rng& rng() override { return rng_; }
  [[nodiscard]] Micros rpc_timeout() const override { return 1000; }
  [[nodiscard]] int max_retries() const override { return 2; }

  /// Fires the oldest pending (non-cancelled) timer.
  bool fire_next_timer() {
    for (auto& t : timers) {
      if (!t.cancelled && t.fn) {
        auto fn = std::move(t.fn);
        t.cancelled = true;
        fn();
        return true;
      }
    }
    return false;
  }

  /// Fires every pending zero-delay timer (the same-turn fetch flush).
  void settle() {
    for (std::size_t i = 0; i < timers.size(); ++i) {
      auto& t = timers[i];
      if (t.cancelled || t.delay != 0 || !t.fn) continue;
      auto fn = std::move(t.fn);
      t.cancelled = true;
      fn();
    }
  }

  /// Pops the oldest captured message, once the current turn has flushed.
  Sent take() {
    settle();
    EXPECT_FALSE(sent.empty());
    Sent s = std::move(sent.front());
    sent.pop_front();
    return s;
  }

  void set_self(NodeId n) { self_ = n; }
  void set_home(NodeId n) { home_ = n; }
  void set_alternates(std::vector<NodeId> a) { alternates_ = std::move(a); }

  std::deque<Sent> sent;
  std::vector<Timer> timers;
  int copyset_changes = 0;

 private:
  NodeId self_ = kSelf;
  NodeId home_ = kHome;
  std::vector<NodeId> alternates_;
  std::map<GlobalAddress, PageInfo> pages_;
  std::map<GlobalAddress, Bytes> data_;
  Rng rng_{1};
  std::uint64_t next_timer_ = 1;
  Micros now_ = 0;
};

/// Builds a CM wire payload: subtype + body.
template <typename Sub>
Bytes cm_payload(Sub sub, const std::function<void(Encoder&)>& body = {}) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(sub));
  if (body) body(e);
  return std::move(e).take();
}

template <typename Sub>
Sub subtype_of(const Bytes& payload) {
  Decoder d(payload);
  return static_cast<Sub>(d.u8());
}

void deliver(ConsistencyManager& cm, NodeId from, const Bytes& payload,
             const GlobalAddress& page = kPage) {
  Decoder d(payload);
  cm.on_message(from, page, d);
}

/// Delivers a kPageFetchReq payload: u32 n, n * { addr, u8 mode }.
void deliver_fetch(
    ConsistencyManager& cm, NodeId from,
    const std::vector<std::pair<GlobalAddress, LockMode>>& entries) {
  Encoder e;
  e.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [page, mode] : entries) {
    e.addr(page);
    e.u8(static_cast<std::uint8_t>(mode));
  }
  const Bytes payload = std::move(e).take();
  Decoder d(payload);
  cm.on_page_fetch(from, d);
}
void deliver_fetch(ConsistencyManager& cm, NodeId from, LockMode mode) {
  deliver_fetch(cm, from, {{kPage, mode}});
}

/// The entries of a captured kPageFetchReq.
std::vector<std::pair<GlobalAddress, LockMode>> fetch_entries(
    const MockHost::Sent& s) {
  EXPECT_EQ(s.kind, MockHost::Kind::kFetchReq);
  Decoder d(s.payload);
  std::vector<std::pair<GlobalAddress, LockMode>> out(d.u32());
  for (auto& [page, mode] : out) {
    page = d.addr();
    mode = static_cast<LockMode>(d.u8());
  }
  return out;
}

/// Mode of a captured one-page kPageFetchReq.
LockMode fetch_mode(const MockHost::Sent& s) {
  const auto entries = fetch_entries(s);
  EXPECT_EQ(entries.size(), 1u);
  return entries.empty() ? LockMode::kNone : entries[0].second;
}

/// CREW subtype of a captured kCm message, or of the first entry of a
/// captured kPageFetchResp.
CrewManager::Sub crew_sub(const MockHost::Sent& s) {
  Decoder d(s.payload);
  if (s.kind == MockHost::Kind::kFetchResp) {
    (void)d.u32();
    (void)d.addr();
  }
  EXPECT_NE(s.kind, MockHost::Kind::kFetchReq);
  return static_cast<CrewManager::Sub>(d.u8());
}

// ---------------------------------------------------------------------------
// CREW requester side
// ---------------------------------------------------------------------------

using Sub = CrewManager::Sub;

TEST(CrewUnit, ColdReadSendsReadReqToHomeAndGrantsOnData) {
  MockHost host;
  CrewManager cm(host);

  Status granted = ErrorCode::kInternal;
  bool called = false;
  cm.acquire(kPage, LockMode::kRead, [&](Status s) {
    called = true;
    granted = s;
  });
  EXPECT_FALSE(called);  // no local copy: must go remote
  auto req = host.take();
  EXPECT_EQ(req.to, kHome);
  EXPECT_EQ(fetch_mode(req), LockMode::kRead);

  deliver(cm, kHome, cm_payload(Sub::kData, [](Encoder& e) {
            e.u64(5);
            e.bytes(Bytes(4096, 0xAA));
          }));
  ASSERT_TRUE(called);
  EXPECT_TRUE(granted.ok());
  EXPECT_EQ(host.page_info(kPage).state, PageState::kShared);
  EXPECT_EQ(host.page_info(kPage).version, 5u);
  EXPECT_EQ(host.page_info(kPage).read_holds, 1u);
  ASSERT_NE(host.page_data(kPage), nullptr);
  EXPECT_EQ((*host.page_data(kPage))[0], 0xAA);
}

TEST(CrewUnit, WarmReadGrantsWithoutMessages) {
  MockHost host;
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 1));
  host.page_info(kPage).state = PageState::kShared;

  bool called = false;
  cm.acquire(kPage, LockMode::kRead, [&](Status s) {
    called = true;
    EXPECT_TRUE(s.ok());
  });
  EXPECT_TRUE(called);
  EXPECT_TRUE(host.sent.empty());
}

TEST(CrewUnit, ColdWriteGetsOwnership) {
  MockHost host;
  CrewManager cm(host);
  bool called = false;
  cm.acquire(kPage, LockMode::kWrite, [&](Status s) {
    called = true;
    EXPECT_TRUE(s.ok());
  });
  auto req = host.take();
  EXPECT_EQ(fetch_mode(req), LockMode::kWrite);
  deliver(cm, kHome, cm_payload(Sub::kOwner, [](Encoder& e) {
            e.u64(3);
            e.bytes(Bytes(4096, 0xBB));
          }));
  ASSERT_TRUE(called);
  EXPECT_EQ(host.page_info(kPage).state, PageState::kExclusive);
  EXPECT_EQ(host.page_info(kPage).owner, kSelf);
  EXPECT_EQ(host.page_info(kPage).write_holds, 1u);
}

TEST(CrewUnit, TimeoutRetriesThenFails) {
  MockHost host;
  CrewManager cm(host);
  Status result = ErrorCode::kOk;
  bool called = false;
  cm.acquire(kPage, LockMode::kRead, [&](Status s) {
    called = true;
    result = s;
  });
  (void)host.take();                   // attempt 1
  ASSERT_TRUE(host.fire_next_timer());  // retry 1
  (void)host.take();
  ASSERT_TRUE(host.fire_next_timer());  // retry 2 (max_retries = 2)
  (void)host.take();
  ASSERT_TRUE(host.fire_next_timer());  // exhausted
  ASSERT_TRUE(called);
  EXPECT_EQ(result.error(), ErrorCode::kUnreachable);
}

TEST(CrewUnit, RetriesWalkAlternateHomes) {
  MockHost host;
  host.set_alternates({kPeer, 3});
  CrewManager cm(host);
  cm.acquire(kPage, LockMode::kRead, [](Status) {});
  EXPECT_EQ(host.take().to, kHome);    // primary first
  ASSERT_TRUE(host.fire_next_timer());
  EXPECT_EQ(host.take().to, kPeer);    // then the first alternate
  ASSERT_TRUE(host.fire_next_timer());
  EXPECT_EQ(host.take().to, 3u);       // then the next
}

TEST(CrewUnit, NackFailsWaitersWithCarriedError) {
  MockHost host;
  CrewManager cm(host);
  Status result = ErrorCode::kOk;
  cm.acquire(kPage, LockMode::kRead, [&](Status s) { result = s; });
  (void)host.take();
  deliver(cm, kHome, cm_payload(Sub::kNack, [](Encoder& e) {
            e.u8(static_cast<std::uint8_t>(ErrorCode::kNotFound));
          }));
  EXPECT_EQ(result.error(), ErrorCode::kNotFound);
}

TEST(CrewUnit, SecondReaderPiggybacksOnOutstandingRequest) {
  MockHost host;
  CrewManager cm(host);
  int grants = 0;
  cm.acquire(kPage, LockMode::kRead, [&](Status s) { grants += s.ok(); });
  cm.acquire(kPage, LockMode::kRead, [&](Status s) { grants += s.ok(); });
  host.settle();
  EXPECT_EQ(host.sent.size(), 1u);  // one read fetch covers both waiters
  deliver(cm, kHome, cm_payload(Sub::kData, [](Encoder& e) {
            e.u64(1);
            e.bytes(Bytes(4096, 0));
          }));
  EXPECT_EQ(grants, 2);
  EXPECT_EQ(host.page_info(kPage).read_holds, 2u);
}

TEST(CrewUnit, FetchesOfOneTurnShareOneMessage) {
  // Acquires and prefetches issued in one execution turn toward one home
  // leave as one kPageFetchReq carrying every page.
  MockHost host;
  CrewManager cm(host);
  constexpr GlobalAddress kOther{0, 0x2000};
  cm.acquire(kPage, LockMode::kRead, [](Status) {});
  cm.prefetch(kOther, LockMode::kWrite, [](Status) {});
  EXPECT_TRUE(host.sent.empty());  // held until the turn ends
  auto req = host.take();
  EXPECT_TRUE(host.sent.empty());
  EXPECT_EQ(req.to, kHome);
  const auto entries = fetch_entries(req);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, kPage);
  EXPECT_EQ(entries[0].second, LockMode::kRead);
  EXPECT_EQ(entries[1].first, kOther);
  EXPECT_EQ(entries[1].second, LockMode::kWrite);
}

// ---------------------------------------------------------------------------
// CREW holder side: deferred conflicting operations (Section 3.3)
// ---------------------------------------------------------------------------

TEST(CrewUnit, InvalidateDeferredWhileLockedThenAcked) {
  MockHost host;
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 1));
  host.page_info(kPage).state = PageState::kShared;
  cm.acquire(kPage, LockMode::kRead, [](Status) {});
  ASSERT_EQ(host.page_info(kPage).read_holds, 1u);

  deliver(cm, kHome, cm_payload(Sub::kInvalidate));
  EXPECT_TRUE(host.sent.empty());  // delayed: conflicting local hold
  EXPECT_NE(host.page_data(kPage), nullptr);

  cm.release(kPage, LockMode::kRead, false);
  auto ack = host.take();
  EXPECT_EQ(ack.to, kHome);
  EXPECT_EQ(subtype_of<Sub>(ack.payload), Sub::kInvAck);
  EXPECT_EQ(host.page_info(kPage).state, PageState::kInvalid);
  EXPECT_EQ(host.page_data(kPage), nullptr);
}

TEST(CrewUnit, InvalidateAppliedImmediatelyWhenUnlocked) {
  MockHost host;
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 1));
  host.page_info(kPage).state = PageState::kShared;
  deliver(cm, kHome, cm_payload(Sub::kInvalidate));
  EXPECT_EQ(subtype_of<Sub>(host.take().payload), Sub::kInvAck);
  EXPECT_EQ(host.page_info(kPage).state, PageState::kInvalid);
}

TEST(CrewUnit, DowngradeDeferredWhileWriteHeld) {
  MockHost host;
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 7));
  auto& info = host.page_info(kPage);
  info.state = PageState::kExclusive;
  info.owner = kSelf;
  cm.acquire(kPage, LockMode::kWrite, [](Status) {});
  ASSERT_EQ(info.write_holds, 1u);

  deliver(cm, kHome, cm_payload(Sub::kDowngradeReq, [](Encoder& e) {
            e.u32(kPeer);  // requester
          }));
  EXPECT_TRUE(host.sent.empty());  // deferred until release

  cm.release(kPage, LockMode::kWrite, /*dirty=*/true);
  // Two messages: data to the requester, DowngradeDone to the home.
  auto to_requester = host.take();
  EXPECT_EQ(to_requester.to, kPeer);
  EXPECT_EQ(subtype_of<Sub>(to_requester.payload), Sub::kData);
  auto to_home = host.take();
  EXPECT_EQ(to_home.to, kHome);
  EXPECT_EQ(subtype_of<Sub>(to_home.payload), Sub::kDowngradeDone);
  EXPECT_EQ(info.state, PageState::kShared);
}

TEST(CrewUnit, XferShipsOwnershipAndInvalidatesSelf) {
  MockHost host;
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 9));
  auto& info = host.page_info(kPage);
  info.state = PageState::kExclusive;
  info.owner = kSelf;

  deliver(cm, kHome, cm_payload(Sub::kXferReq, [](Encoder& e) {
            e.u32(kPeer);
          }));
  auto to_requester = host.take();
  EXPECT_EQ(to_requester.to, kPeer);
  EXPECT_EQ(subtype_of<Sub>(to_requester.payload), Sub::kOwner);
  auto to_home = host.take();
  EXPECT_EQ(subtype_of<Sub>(to_home.payload), Sub::kXferDone);
  EXPECT_EQ(info.state, PageState::kInvalid);
  EXPECT_EQ(info.owner, kPeer);
  EXPECT_EQ(host.page_data(kPage), nullptr);
}

// ---------------------------------------------------------------------------
// CREW home side
// ---------------------------------------------------------------------------

TEST(CrewUnit, HomeServesReadFromOwnCopy) {
  MockHost host;
  host.set_self(kHome);
  host.set_home(kHome);
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 3));
  auto& info = host.page_info(kPage);
  info.state = PageState::kShared;
  info.owner = kHome;
  info.homed_locally = true;
  info.sharers = {kHome};

  deliver_fetch(cm, kPeer, LockMode::kRead);
  auto resp = host.take();
  EXPECT_EQ(resp.to, kPeer);
  EXPECT_EQ(crew_sub(resp), Sub::kData);
  EXPECT_TRUE(info.sharers.contains(kPeer));
}

TEST(CrewUnit, HomeWriteInvalidatesCopysetBeforeGrant) {
  MockHost host;
  host.set_self(kHome);
  host.set_home(kHome);
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 3));
  auto& info = host.page_info(kPage);
  info.state = PageState::kShared;
  info.owner = kHome;
  info.homed_locally = true;
  info.sharers = {kHome, 2, 3};

  deliver_fetch(cm, kPeer, LockMode::kWrite);
  // One invalidation to node 3 (kPeer==2 is the requester, home is self).
  auto inval = host.take();
  EXPECT_EQ(inval.to, 3u);
  EXPECT_EQ(crew_sub(inval), Sub::kInvalidate);
  EXPECT_TRUE(host.sent.empty());  // grant waits for the ack

  deliver(cm, 3, cm_payload(Sub::kInvAck));
  auto grant = host.take();
  EXPECT_EQ(grant.to, kPeer);
  EXPECT_EQ(crew_sub(grant), Sub::kOwner);
  EXPECT_EQ(info.owner, kPeer);
  EXPECT_EQ(info.sharers, (std::set<NodeId>{kPeer}));
  EXPECT_EQ(info.state, PageState::kInvalid);  // home's copy is now stale
}

TEST(CrewUnit, HomeQueuesSecondRequestUntilFirstCompletes) {
  MockHost host;
  host.set_self(kHome);
  host.set_home(kHome);
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 3));
  auto& info = host.page_info(kPage);
  info.state = PageState::kShared;
  info.owner = kHome;
  info.homed_locally = true;
  info.sharers = {kHome, 3};

  deliver_fetch(cm, kPeer, LockMode::kWrite);
  (void)host.take();  // invalidation to 3; transaction is now busy
  deliver_fetch(cm, 3, LockMode::kWrite);  // second writer queues
  EXPECT_TRUE(host.sent.empty());

  deliver(cm, 3, cm_payload(Sub::kInvAck));
  // Grant to the first writer, then the queued request starts (a transfer
  // request to the new owner).
  EXPECT_EQ(crew_sub(host.take()), Sub::kOwner);
  auto xfer = host.take();
  EXPECT_EQ(xfer.to, kPeer);  // current owner
  EXPECT_EQ(crew_sub(xfer), Sub::kXferReq);
}

TEST(CrewUnit, HomeDuplicateRequestIsIgnored) {
  MockHost host;
  host.set_self(kHome);
  host.set_home(kHome);
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 3));
  auto& info = host.page_info(kPage);
  info.state = PageState::kShared;
  info.owner = kHome;
  info.homed_locally = true;
  info.sharers = {kHome, 3};

  deliver_fetch(cm, kPeer, LockMode::kWrite);
  (void)host.take();
  deliver_fetch(cm, kPeer, LockMode::kWrite);  // retransmission
  EXPECT_TRUE(host.sent.empty());
}

TEST(CrewUnit, HomeTimesOutDeadSharerAndProceeds) {
  MockHost host;
  host.set_self(kHome);
  host.set_home(kHome);
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 3));
  auto& info = host.page_info(kPage);
  info.state = PageState::kShared;
  info.owner = kHome;
  info.homed_locally = true;
  info.sharers = {kHome, 3};

  deliver_fetch(cm, kPeer, LockMode::kWrite);
  (void)host.take();                    // invalidation to dead node 3
  ASSERT_TRUE(host.fire_next_timer());  // home timeout
  auto grant = host.take();
  EXPECT_EQ(crew_sub(grant), Sub::kOwner);
  EXPECT_FALSE(info.sharers.contains(3));
}

TEST(CrewUnit, NonHomeRefusesMisdirectedRequest) {
  MockHost host;  // self=1, home=0: we are NOT the home
  CrewManager cm(host);
  deliver_fetch(cm, kPeer, LockMode::kRead);
  auto nack = host.take();
  EXPECT_EQ(nack.to, kPeer);
  EXPECT_EQ(crew_sub(nack), Sub::kNack);
}

TEST(CrewUnit, NonHomeReplicaServesReadsButNotWrites) {
  // The availability fallback: a node that holds a valid replica answers
  // read requests (a requester failing over from a dead home), but writes
  // still need the real home's directory authority.
  MockHost host;  // self=1, home=0
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 0x42));
  host.page_info(kPage).state = PageState::kShared;

  deliver_fetch(cm, kPeer, LockMode::kRead);
  auto data = host.take();
  EXPECT_EQ(data.to, kPeer);
  EXPECT_EQ(crew_sub(data), Sub::kData);

  deliver_fetch(cm, kPeer, LockMode::kWrite);
  auto nack = host.take();
  EXPECT_EQ(crew_sub(nack), Sub::kNack);
}

TEST(CrewUnit, HomeAnswersImmediateGrantsInOneResponse) {
  // One two-page fetch: the home can serve the first page at once (into
  // the kPageFetchResp), but the second needs an invalidation round, whose
  // grant later travels per page.
  MockHost host;
  host.set_self(kHome);
  host.set_home(kHome);
  CrewManager cm(host);
  constexpr GlobalAddress kOther{0, 0x2000};
  for (const GlobalAddress& p : {kPage, kOther}) {
    host.store_page(p, Bytes(4096, 3));
    auto& info = host.page_info(p);
    info.state = PageState::kShared;
    info.owner = kHome;
    info.homed_locally = true;
    info.sharers = {kHome, 3};
  }

  deliver_fetch(cm, kPeer,
                {{kPage, LockMode::kRead}, {kOther, LockMode::kWrite}});
  auto inval = host.take();
  EXPECT_EQ(inval.to, 3u);
  EXPECT_EQ(inval.page, kOther);
  EXPECT_EQ(crew_sub(inval), Sub::kInvalidate);
  auto resp = host.take();
  EXPECT_EQ(resp.kind, MockHost::Kind::kFetchResp);
  EXPECT_EQ(resp.to, kPeer);
  EXPECT_EQ(resp.page, kPage);
  EXPECT_EQ(crew_sub(resp), Sub::kData);
  EXPECT_EQ(Decoder(resp.payload).u32(), 1u);  // only the decided page
  EXPECT_TRUE(host.sent.empty());

  deliver(cm, 3, cm_payload(Sub::kInvAck), kOther);
  auto grant = host.take();
  EXPECT_EQ(grant.kind, MockHost::Kind::kCm);
  EXPECT_EQ(grant.to, kPeer);
  EXPECT_EQ(crew_sub(grant), Sub::kOwner);
}

// ---------------------------------------------------------------------------
// CREW eviction / node-down
// ---------------------------------------------------------------------------

TEST(CrewUnit, EvictionRules) {
  MockHost host;
  CrewManager cm(host);
  auto& info = host.page_info(kPage);

  // Locked: veto.
  info.state = PageState::kShared;
  info.read_holds = 1;
  EXPECT_FALSE(cm.on_evict(kPage));
  info.read_holds = 0;

  // Homed locally: veto (directory + fallback copy).
  info.homed_locally = true;
  EXPECT_FALSE(cm.on_evict(kPage));
  info.homed_locally = false;

  // Sole exclusive copy: veto (data loss).
  info.state = PageState::kExclusive;
  info.owner = kSelf;
  EXPECT_FALSE(cm.on_evict(kPage));

  // Plain shared copy: allowed, home notified.
  info.state = PageState::kShared;
  info.owner = kHome;
  EXPECT_TRUE(cm.on_evict(kPage));
  EXPECT_EQ(subtype_of<Sub>(host.take().payload), Sub::kDropCopy);
  EXPECT_EQ(info.state, PageState::kInvalid);
}

TEST(CrewUnit, NodeDownPrunesSharersAndRecoversOwnership) {
  MockHost host;
  host.set_self(kHome);
  host.set_home(kHome);
  CrewManager cm(host);
  host.store_page(kPage, Bytes(4096, 1));
  auto& info = host.page_info(kPage);
  info.homed_locally = true;
  info.owner = kPeer;  // remote owner about to die
  info.sharers = {kHome, kPeer, 3};
  // CM must know the page (state map) for cleanup to see it.
  deliver(cm, 3, cm_payload(Sub::kDropCopy));

  cm.on_node_down(kPeer);
  EXPECT_FALSE(info.sharers.contains(kPeer));
  EXPECT_EQ(info.owner, kHome);  // home had a copy: reclaims ownership
}

// ---------------------------------------------------------------------------
// Release protocol
// ---------------------------------------------------------------------------

using RSub = ReleaseManager::Sub;

TEST(ReleaseUnit, ColdReadFetchesFromHome) {
  MockHost host;
  ReleaseManager cm(host);
  bool granted = false;
  cm.acquire(kPage, LockMode::kRead, [&](Status s) { granted = s.ok(); });
  EXPECT_FALSE(granted);
  auto req = host.take();
  EXPECT_EQ(req.to, kHome);
  EXPECT_EQ(subtype_of<RSub>(req.payload), RSub::kFetchReq);
  deliver(cm, kHome, cm_payload(RSub::kData, [](Encoder& e) {
            e.u64(4);
            e.bytes(Bytes(4096, 2));
          }));
  EXPECT_TRUE(granted);
}

TEST(ReleaseUnit, WriteGrantsImmediatelyWithLocalCopy) {
  MockHost host;
  ReleaseManager cm(host);
  host.store_page(kPage, Bytes(4096, 1));
  host.page_info(kPage).state = PageState::kShared;
  bool granted = false;
  cm.acquire(kPage, LockMode::kWriteShared,
             [&](Status s) { granted = s.ok(); });
  EXPECT_TRUE(granted);
  EXPECT_TRUE(host.sent.empty());
}

TEST(ReleaseUnit, DirtyReleaseSendsWriteBackAndRetriesUntilAck) {
  MockHost host;
  ReleaseManager cm(host);
  host.store_page(kPage, Bytes(4096, 1));
  host.page_info(kPage).state = PageState::kShared;
  bool granted = false;
  cm.acquire(kPage, LockMode::kWrite, [&](Status s) { granted = s.ok(); });
  ASSERT_TRUE(granted);

  cm.release(kPage, LockMode::kWrite, /*dirty=*/true);
  EXPECT_EQ(subtype_of<RSub>(host.take().payload), RSub::kWriteBack);
  EXPECT_EQ(cm.pending_writebacks(), 1u);

  // No ack: background retry fires and resends — forever, never failing
  // to the client (Section 3.5 release semantics).
  ASSERT_TRUE(host.fire_next_timer());
  EXPECT_EQ(subtype_of<RSub>(host.take().payload), RSub::kWriteBack);
  ASSERT_TRUE(host.fire_next_timer());
  EXPECT_EQ(subtype_of<RSub>(host.take().payload), RSub::kWriteBack);

  deliver(cm, kHome, cm_payload(RSub::kWriteBackAck));
  EXPECT_EQ(cm.pending_writebacks(), 0u);
}

TEST(ReleaseUnit, HomeAppliesWriteBackAndMulticastsUpdate) {
  MockHost host;
  host.set_self(kHome);
  host.set_home(kHome);
  ReleaseManager cm(host);
  host.store_page(kPage, Bytes(4096, 0));
  auto& info = host.page_info(kPage);
  info.homed_locally = true;
  info.state = PageState::kShared;
  info.sharers = {kHome, 2, 3};

  deliver(cm, kPeer, cm_payload(RSub::kWriteBack, [](Encoder& e) {
            e.bytes(Bytes(4096, 0x44));
          }));
  // Ack to the writer + update to the other sharer (node 3).
  auto ack = host.take();
  EXPECT_EQ(ack.to, kPeer);
  EXPECT_EQ(subtype_of<RSub>(ack.payload), RSub::kWriteBackAck);
  auto update = host.take();
  EXPECT_EQ(update.to, 3u);
  EXPECT_EQ(subtype_of<RSub>(update.payload), RSub::kUpdate);
  EXPECT_EQ((*host.page_data(kPage))[0], 0x44);
  EXPECT_EQ(info.version, 1u);
}

TEST(ReleaseUnit, StaleUpdateIsIgnored) {
  MockHost host;
  ReleaseManager cm(host);
  host.store_page(kPage, Bytes(4096, 9));
  auto& info = host.page_info(kPage);
  info.state = PageState::kShared;
  info.version = 10;
  deliver(cm, kHome, cm_payload(RSub::kUpdate, [](Encoder& e) {
            e.u64(4);  // older version
            e.bytes(Bytes(4096, 1));
          }));
  EXPECT_EQ((*host.page_data(kPage))[0], 9);
  EXPECT_EQ(info.version, 10u);
}

TEST(ReleaseUnit, EvictVetoedWithPendingWriteback) {
  MockHost host;
  ReleaseManager cm(host);
  host.store_page(kPage, Bytes(4096, 1));
  host.page_info(kPage).state = PageState::kShared;
  bool granted = false;
  cm.acquire(kPage, LockMode::kWrite, [&](Status s) { granted = s.ok(); });
  ASSERT_TRUE(granted);
  cm.release(kPage, LockMode::kWrite, true);
  (void)host.take();  // the writeback
  EXPECT_FALSE(cm.on_evict(kPage));  // unacked writeback pins the page
  deliver(cm, kHome, cm_payload(RSub::kWriteBackAck));
  EXPECT_TRUE(cm.on_evict(kPage));
}

// ---------------------------------------------------------------------------
// Eventual protocol
// ---------------------------------------------------------------------------

using ESub = EventualManager::Sub;

TEST(EventualUnit, DirtyReleaseGossipsToHomeAndPeers) {
  MockHost host;
  EventualManager cm(host);
  host.store_page(kPage, Bytes(4096, 1));
  host.page_info(kPage).state = PageState::kShared;
  bool granted = false;
  cm.acquire(kPage, LockMode::kWrite, [&](Status s) { granted = s.ok(); });
  ASSERT_TRUE(granted);
  cm.release(kPage, LockMode::kWrite, true);
  ASSERT_FALSE(host.sent.empty());
  bool home_got_gossip = false;
  while (!host.sent.empty()) {
    auto s = host.take();
    EXPECT_EQ(subtype_of<ESub>(s.payload), ESub::kGossip);
    home_got_gossip |= s.to == kHome;
  }
  EXPECT_TRUE(home_got_gossip);
}

TEST(EventualUnit, NewerGossipInstallsOlderIsDropped) {
  MockHost host;
  EventualManager cm(host);
  host.store_page(kPage, Bytes(4096, 1));
  host.page_info(kPage).state = PageState::kShared;

  deliver(cm, kPeer, cm_payload(ESub::kGossip, [](Encoder& e) {
            e.u64(7);       // counter
            e.u32(kPeer);   // writer
            e.bytes(Bytes(4096, 0x77));
          }));
  EXPECT_EQ((*host.page_data(kPage))[0], 0x77);

  deliver(cm, 3, cm_payload(ESub::kGossip, [](Encoder& e) {
            e.u64(5);  // older
            e.u32(3);
            e.bytes(Bytes(4096, 0x55));
          }));
  EXPECT_EQ((*host.page_data(kPage))[0], 0x77);  // unchanged
}

TEST(EventualUnit, DigestExchangeConvergesBothDirections) {
  MockHost host;
  EventualManager cm(host);
  host.store_page(kPage, Bytes(4096, 2));
  host.page_info(kPage).state = PageState::kShared;
  // Install a local stamp by writing once.
  bool granted = false;
  cm.acquire(kPage, LockMode::kWrite, [&](Status s) { granted = s.ok(); });
  ASSERT_TRUE(granted);
  cm.release(kPage, LockMode::kWrite, true);
  while (!host.sent.empty()) (void)host.take();  // discard release gossip

  // Peer sends an older digest: we respond with our newer data.
  deliver(cm, kPeer, cm_payload(ESub::kDigest, [](Encoder& e) {
            e.u64(0);
            e.u32(kPeer);
          }));
  EXPECT_EQ(subtype_of<ESub>(host.take().payload), ESub::kGossip);

  // Peer sends a newer digest: we ask for the data.
  deliver(cm, kPeer, cm_payload(ESub::kDigest, [](Encoder& e) {
            e.u64(99);
            e.u32(kPeer);
          }));
  EXPECT_EQ(subtype_of<ESub>(host.take().payload), ESub::kWant);
}

TEST(EventualUnit, TiesBreakByWriterId) {
  MockHost host;
  EventualManager cm(host);
  host.store_page(kPage, Bytes(4096, 1));
  host.page_info(kPage).state = PageState::kShared;
  deliver(cm, 3, cm_payload(ESub::kGossip, [](Encoder& e) {
            e.u64(5);
            e.u32(3);
            e.bytes(Bytes(4096, 0x33));
          }));
  // Same counter, higher writer id wins (total order).
  deliver(cm, kPeer, cm_payload(ESub::kGossip, [](Encoder& e) {
            e.u64(5);
            e.u32(9);
            e.bytes(Bytes(4096, 0x99));
          }));
  EXPECT_EQ((*host.page_data(kPage))[0], 0x99);
  // Lower writer id at the same counter loses.
  deliver(cm, kPeer, cm_payload(ESub::kGossip, [](Encoder& e) {
            e.u64(5);
            e.u32(1);
            e.bytes(Bytes(4096, 0x11));
          }));
  EXPECT_EQ((*host.page_data(kPage))[0], 0x99);
}

}  // namespace
}  // namespace khz::consistency
