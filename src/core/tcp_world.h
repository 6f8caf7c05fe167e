// TcpWorld: a Khazana deployment over real localhost TCP sockets.
//
// The same Node code as SimWorld, but each node runs on its own executor
// thread and messages travel through the kernel's TCP stack. TcpClient
// provides the blocking SyncClient surface by posting operations onto the
// node's executor and waiting on a condition variable. Used by the
// integration tests to demonstrate that the node logic is genuinely
// transport-agnostic (paper, Section 5: "only the messaging layer is
// system dependent").
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/client.h"
#include "core/node.h"
#include "net/tcp_transport.h"

namespace khz::core {

/// A TcpWorld deployment: the node knobs every member shares (the
/// NodeConfig base; identity fields are filled in per node) plus the
/// deployment shape. Node i listens on base_port + i.
struct TcpWorldOptions : NodeConfig {
  std::size_t nodes = 3;
  std::uint16_t base_port = 39000;
  /// Non-empty: every node gets a DiskStore under <disk_root>/node<i>.
  std::filesystem::path disk_root;
};

class TcpWorld {
 public:
  explicit TcpWorld(TcpWorldOptions opts = {});
  ~TcpWorld();

  TcpWorld(const TcpWorld&) = delete;
  TcpWorld& operator=(const TcpWorld&) = delete;

  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] net::TcpTransport& transport(NodeId id) {
    return *transports_.at(id);
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Wire-level counters of one node's endpoint.
  [[nodiscard]] net::TransportStats transport_stats(NodeId id) const {
    return transports_.at(id)->stats();
  }
  /// Sum of transport_stats() across the whole deployment.
  [[nodiscard]] net::TransportStats total_transport_stats() const;

  // --- observability ----------------------------------------------------
  /// Chrome trace-event JSON of every node's finished spans, merged.
  /// Each node's span ring is read on its own executor thread.
  [[nodiscard]] std::string trace_json();
  /// One node's metric registry with its endpoint's wire counters
  /// mirrored in under tcp.* and the transport's own instruments
  /// (tcp.send_queue_us) merged into the dump.
  [[nodiscard]] std::string metrics_text(NodeId id);
  [[nodiscard]] std::string metrics_json(NodeId id);

  /// Blocking remote-stats scrape: node `via` fetches `peer`'s registry
  /// (plus the sections in `flags`) over real TCP. Issued on `via`'s
  /// executor; the calling thread blocks until the response arrives.
  Result<Node::RemoteStats> scrape(NodeId via, NodeId peer,
                                   std::uint8_t flags = 0);

  /// Scrapes every node over the wire and emits one cluster-wide rollup
  /// (counters/gauges summed, histograms merged bucket-wise) plus the
  /// per-node breakdown: {"cluster":{...},"nodes":{"0":{...},...}}. Each
  /// endpoint's tcp.* wire counters are mirrored into its node registry
  /// first, and the transport's own instruments are folded into both
  /// sides, so the per-node objects match metrics_json(id).
  [[nodiscard]] std::string cluster_metrics_json();

 private:
  /// Mirrors the endpoint's TransportStats into the node registry's tcp.*
  /// counters (Counter::set is atomic — safe from any thread).
  void mirror_wire_counters(NodeId id);
  [[nodiscard]] obs::MetricsSnapshot merged_snapshot(NodeId id);

  net::TcpBus bus_;
  std::vector<net::TcpTransport*> transports_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// Blocking SyncClient over a TcpWorld node. Operations are posted to the
/// node's executor thread; the calling thread blocks until the completion
/// callback fires.
class TcpClient final : public SyncClient {
 public:
  TcpClient(TcpWorld& world, NodeId node) : world_(world), node_(node) {}

  Result<GlobalAddress> reserve(std::uint64_t size,
                                const RegionAttrs& attrs) override {
    return wait<Result<GlobalAddress>>([&](auto done) {
      world_.node(node_).reserve(size, attrs, done);
    });
  }
  Status unreserve(const GlobalAddress& base) override {
    return wait<Status>([&](auto done) {
      world_.node(node_).unreserve(base, done);
    });
  }
  Status allocate(const AddressRange& range) override {
    return wait<Status>([&](auto done) {
      world_.node(node_).allocate(range, done);
    });
  }
  Status deallocate(const AddressRange& range) override {
    return wait<Status>([&](auto done) {
      world_.node(node_).deallocate(range, done);
    });
  }
  Result<consistency::LockContext> lock(
      const AddressRange& range, consistency::LockMode mode) override {
    return wait<Result<consistency::LockContext>>([&](auto done) {
      world_.node(node_).lock(range, mode, done);
    });
  }
  void unlock(const consistency::LockContext& ctx) override {
    world_.transport(node_).run_on_lane(
        lock_lane(ctx), [&] { world_.node(node_).unlock(ctx); });
  }
  Result<Bytes> read(const consistency::LockContext& ctx,
                     std::uint64_t offset, std::uint64_t len) override {
    std::optional<Result<Bytes>> out;
    world_.transport(node_).run_on_lane(
        lock_lane(ctx),
        [&] { out = world_.node(node_).read(ctx, offset, len); });
    return std::move(out).value();
  }
  Status write(const consistency::LockContext& ctx, std::uint64_t offset,
               std::span<const std::uint8_t> data) override {
    std::optional<Status> out;
    world_.transport(node_).run_on_lane(
        lock_lane(ctx),
        [&] { out = world_.node(node_).write(ctx, offset, data); });
    return out.value();
  }
  Result<RegionAttrs> getattr(const GlobalAddress& base) override {
    return wait<Result<RegionAttrs>>([&](auto done) {
      world_.node(node_).getattr(base, done);
    });
  }
  Status setattr(const GlobalAddress& base,
                 const RegionAttrs& attrs) override {
    return wait<Status>([&](auto done) {
      world_.node(node_).setattr(base, attrs, done);
    });
  }
  Result<std::vector<NodeId>> locate(const GlobalAddress& addr) override {
    return wait<Result<std::vector<NodeId>>>([&](auto done) {
      world_.node(node_).locate(addr, done);
    });
  }
  [[nodiscard]] NodeId node_id() const override { return node_; }

 private:
  /// Lock state lives on the lane that minted the lock's id (ids are
  /// lane-strided), so unlock/read/write must run on that lane's thread.
  [[nodiscard]] unsigned lock_lane(const consistency::LockContext& ctx) {
    const unsigned lanes = world_.node(node_).lanes();
    return lanes <= 1 ? 0u : static_cast<unsigned>(ctx.id % lanes);
  }

  /// Posts `start(done)` to the node executor; blocks until `done(result)`
  /// fires (possibly much later, from a different executor callback).
  template <typename R, typename Start>
  R wait(Start start) {
    auto state = std::make_shared<WaitState<R>>();
    world_.transport(node_).run_on_executor([&] {
      start([state](R r) {
        std::lock_guard lk(state->mu);
        state->result = std::move(r);
        state->cv.notify_one();
      });
    });
    std::unique_lock lk(state->mu);
    state->cv.wait(lk, [&] { return state->result.has_value(); });
    return std::move(*state->result);
  }

  template <typename R>
  struct WaitState {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<R> result;
  };

  TcpWorld& world_;
  NodeId node_;
};

}  // namespace khz::core
