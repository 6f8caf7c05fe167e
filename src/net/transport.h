// Transport abstraction.
//
// A Transport delivers Messages between nodes and runs deferred callbacks
// (timers) in the owning node's execution context. Node logic built on this
// interface runs unchanged over the deterministic simulator and over real
// TCP sockets — the paper's claim that only the messaging layer is
// system-dependent (Section 5), made concrete.
//
// Execution model: all callbacks for one node are partitioned across N
// execution lanes (default 1). Callbacks on one lane are serialized, so
// lane-owned node state needs no locking; a multi-lane transport dispatches
// each inbound message onto target_lane(msg) and keeps timers lane-affine
// (a timer fires on the lane that scheduled it). With lanes() == 1 this
// degenerates to the historical single-context model.
#pragma once

#include <cstdint>
#include <functional>

#include "common/clock.h"
#include "net/message.h"

namespace khz::net {

/// Wire-level counters for one transport endpoint (observability for tests
/// and benches). All values are cumulative since
/// start() except `queued_bytes`, a point-in-time gauge of the outbound
/// backlog across all peers.
struct TransportStats {
  std::uint64_t messages_sent = 0;      // frames fully handed to the kernel
  std::uint64_t messages_received = 0;  // frames decoded and dispatched
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_dropped = 0;   // queue overflow or undecodable frame
  std::uint64_t connects = 0;         // successful outbound connections
  std::uint64_t reconnects = 0;       // connects to a peer we had lost
  std::uint64_t connect_failures = 0; // failed outbound connection attempts
  std::uint64_t queued_bytes = 0;     // current outbound backlog (gauge)
  std::uint64_t peak_queued_bytes = 0;
};

class Transport {
 public:
  using Handler = std::function<void(Message)>;

  virtual ~Transport() = default;

  /// The node this endpoint belongs to.
  [[nodiscard]] virtual NodeId local() const = 0;

  /// Sends asynchronously; best-effort (messages may be lost or the peer
  /// may be down — Khazana's retry machinery owns reliability).
  virtual void send(Message msg) = 0;

  /// Installs the inbound-message callback. Must be set before any
  /// messages arrive.
  virtual void set_handler(Handler handler) = 0;

  /// Runs `fn` in this node's execution context after `delay` microseconds.
  /// Returns a timer id usable with cancel().
  virtual std::uint64_t schedule(Micros delay, std::function<void()> fn) = 0;

  /// Cancels a pending timer; no-op if it already fired.
  virtual void cancel(std::uint64_t timer_id) = 0;

  /// Time source consistent with schedule() delays.
  [[nodiscard]] virtual const Clock& clock() const = 0;

  // --- execution lanes (defaults keep single-lane transports unchanged) --

  /// Number of execution lanes this endpoint dispatches across.
  [[nodiscard]] virtual unsigned lanes() const { return 1; }

  /// Requests `n` lanes. Must be called before traffic flows; transports
  /// whose executors are already running may ignore it (TcpBus configures
  /// endpoints at add_node time instead).
  virtual void configure_lanes(unsigned n) { (void)n; }

  /// schedule(), but pinned to an explicit lane instead of the caller's.
  virtual std::uint64_t schedule_on(unsigned lane, Micros delay,
                                    std::function<void()> fn) {
    (void)lane;
    return schedule(delay, std::move(fn));
  }

  /// Runs `fn` on `lane` as soon as possible (a zero-delay lane-pinned
  /// timer). The cross-lane hop primitive.
  virtual void post(unsigned lane, std::function<void()> fn) {
    (void)schedule_on(lane, 0, std::move(fn));
  }
};

}  // namespace khz::net
