// khz_perf — one wall-clock benchmark run of Khazana over a TcpWorld on
// loopback sockets (and, for durable_spill, a real SegmentStore on disk).
//
//   khz_perf --workload NAME --seed N --seconds S --trace 0|1
//            --dir RUN_DIR --port BASE_PORT
//
// Every workload is a closed loop driven by ONE client thread: the next
// operation is issued only after the previous one returned. See README.md
// in this directory for the workloads, metrics and run environment.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same loop
// with bench-timed spans around each SyncClient call and prints the
// per-layer metrics: those spans, diffs of every node's metric registry,
// HierarchyStats read on the node's executor, calibration loops, and the
// node span rings exported to RUN_DIR/trace.json (merged by run.py).
//
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every operation succeeded with the bytes the
// benchmark's shadow copy predicts and every traced-run assertion held.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/tcp_world.h"
#include "net/message.h"
#include "obs/trace.h"

using namespace khz;        // NOLINT
using namespace khz::core;  // NOLINT
namespace fs = std::filesystem;
using WallClock = std::chrono::steady_clock;

namespace {

constexpr std::uint64_t kPage = kDefaultPageSize;
constexpr int kSetups = 9;  // setup_s is the median of these
// Warm-up is a fixed amount of work, so that peak_rss_mib, read after it,
// does not depend on how fast the program runs.
constexpr std::uint64_t kWarmupOps = 10'000;
constexpr int kCalibrationReps = 2000;
constexpr std::chrono::seconds kWindow{1};
// A window is clean when the hypervisor stole at most this share of the
// VM's CPU time during it. Medians use only clean windows when at least
// kMinCleanWindows of them exist, and every window otherwise.
constexpr double kMaxStealShare = 0.02;
constexpr std::size_t kMinCleanWindows = 5;

std::uint64_t ns_between(WallClock::time_point a, WallClock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double seconds_between(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds the hypervisor ran something else while this VM's vCPUs
/// were runnable: the "steal" column of /proc/stat, summed over CPUs. Stays
/// 0 where the kernel does not report it.
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t v[8] = {};
  in >> label;
  for (auto& x : v) in >> x;
  if (!in || label != "cpu") return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// One figure measured over one window of the timed loop.
struct WindowValue {
  double value;
  bool clean;  // the hypervisor stole at most kMaxStealShare of the window
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median over the clean windows, or over every window when fewer than
/// kMinCleanWindows are clean.
double median_over_windows(const std::vector<WindowValue>& windows) {
  std::vector<double> all, clean;
  for (const WindowValue& w : windows) {
    all.push_back(w.value);
    if (w.clean) clean.push_back(w.value);
  }
  return median(clean.size() >= kMinCleanWindows ? clean : all);
}

/// splitmix64: the workload's only source of randomness, seeded by --seed.
class WorkloadRng {
 public:
  explicit WorkloadRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool chance(double p) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t s_;
};

/// Latency histogram in fixed memory: exact below 1024 ns, then 512
/// sub-buckets per power of two (<= 0.2% relative error). Fixed size, so
/// the benchmark's own footprint does not grow with throughput and skew
/// peak_rss_mib.
class LatencyHist {
 public:
  void record(std::uint64_t ns) {
    ++buckets_[std::min(index(ns), kBuckets - 1)];
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Nearest-rank percentile in microseconds (0 when empty).
  [[nodiscard]] double percentile_us(double p) const {
    if (count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return static_cast<double>(midpoint(i)) / 1000.0;
    }
    return static_cast<double>(midpoint(kBuckets - 1)) / 1000.0;
  }

 private:
  static constexpr std::size_t kSub = 512;
  static constexpr std::size_t kBuckets = 2 * kSub + 40 * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const auto e = static_cast<std::size_t>(std::bit_width(v)) - 10;
    return 2 * kSub + (e - 1) * kSub + static_cast<std::size_t>(v >> e) - kSub;
  }
  static std::uint64_t midpoint(std::size_t i) {
    if (i < 2 * kSub) return i;
    const std::size_t e = (i - 2 * kSub) / kSub + 1;
    const std::uint64_t m = (i - 2 * kSub) % kSub + kSub;
    return (m << e) + (std::uint64_t{1} << e) / 2;
  }

  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
};

/// Latencies of one op class split into fixed-length windows. The run
/// reports the median over windows of each window's percentile, so a burst
/// of interference from outside the process that spoils a few windows
/// moves the result less than it moves a pooled percentile; windows in
/// which the hypervisor stole CPU time are left out when enough others
/// remain.
class WindowedLatency {
 public:
  static constexpr std::array<double, 3> kPercentiles{50, 90, 99};

  void record(std::uint64_t ns) { cur_.push_back(ns); }
  void close_window(bool clean) {
    // Fewer samples would put a window's p99 on its last handful of ops.
    if (cur_.size() >= 1000) {
      for (std::size_t i = 0; i < kPercentiles.size(); ++i) {
        per_window_[i].push_back({exact_percentile_us(kPercentiles[i]), clean});
      }
    }
    cur_.clear();
  }
  /// Median over windows of the per-window percentile `p` (one of
  /// kPercentiles); the pooled percentile when no window held enough
  /// samples.
  [[nodiscard]] double median_us(double p, const LatencyHist& pooled) const {
    const auto i = static_cast<std::size_t>(
        std::find(kPercentiles.begin(), kPercentiles.end(), p) -
        kPercentiles.begin());
    const std::vector<WindowValue>& v = per_window_.at(i);
    return v.empty() ? pooled.percentile_us(p) : median_over_windows(v);
  }

 private:
  double exact_percentile_us(double p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(cur_.size())));
    auto nth = cur_.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(cur_.begin(), nth, cur_.end());
    return static_cast<double>(*nth) / 1000.0;
  }

  std::vector<std::uint64_t> cur_;
  std::array<std::vector<WindowValue>, kPercentiles.size()> per_window_;
};

// --- workloads ------------------------------------------------------------

enum class Kind { kWarmLocal, kPingpong, kDurableSpill, kRegionChurn };

struct Spec {
  Kind kind;
  std::size_t nodes;
  std::size_t ram_pages;
  bool disk;
  std::uint64_t region_pages;  // 0: region_churn creates its own regions
};

bool spec_for(const std::string& name, Spec& out) {
  static const std::map<std::string, Spec> specs = {
      {"warm_local", {Kind::kWarmLocal, 1, 4096, false, 1024}},
      {"coherence_pingpong", {Kind::kPingpong, 2, 4096, false, 1024}},
      {"durable_spill", {Kind::kDurableSpill, 1, 256, true, 4096}},
      // ram_pages bounds how many unreserved pages each node keeps cached.
      {"region_churn", {Kind::kRegionChurn, 2, 256, false, 0}},
  };
  auto it = specs.find(name);
  if (it == specs.end()) return false;
  out = it->second;
  return true;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path dir;
  std::uint16_t port = 0;
};

/// Per-phase record of what the client loop did.
struct Recorder {
  bool traced = false;
  LatencyHist get, put, create, del;
  WindowedLatency get_w, put_w;
  std::vector<WindowValue> window_ops_s;
  // Traced only: one span per SyncClient call, and the data ops they form.
  LatencyHist lock, read, write, unlock, data_op;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t puts = 0;
};

/// The page image a put with `stamp` writes: 512 words that all depend on
/// the stamp and their position, so a stale, torn or misplaced page fails
/// the comparison.
void fill_page(std::uint64_t stamp, Bytes& page) {
  page.resize(kPage);
  for (std::size_t i = 0; i < kPage / 8; ++i) {
    const std::uint64_t w = stamp ^ (i * 0x9E3779B97F4A7C15ull);
    std::memcpy(page.data() + i * 8, &w, 8);
  }
}

bool page_matches(const Bytes& got, std::uint64_t stamp) {
  if (got.size() != kPage) return false;
  for (std::size_t i = 0; i < kPage / 8; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, got.data() + i * 8, 8);
    if (w != (stamp ^ (i * 0x9E3779B97F4A7C15ull))) return false;
  }
  return true;
}

/// First base port at or after `from` whose `n` ports are all free on
/// loopback, so a squatted port degrades nothing.
std::uint16_t free_base_port(std::uint16_t from, std::size_t n) {
  for (std::uint32_t base = from; base + n < 65000; base += n) {
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
      ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
      ::close(fd);
    }
    if (ok) return static_cast<std::uint16_t>(base);
  }
  return from;
}

/// One deployment plus the client loop that drives it.
class Bench {
 public:
  Bench(const Options& o, const Spec& s, int setup_index, WorkloadRng& rng)
      : spec_(s), rng_(rng) {
    TcpWorldOptions w;
    w.nodes = s.nodes;
    w.base_port = free_base_port(
        static_cast<std::uint16_t>(o.port + setup_index * 4), 4);
    w.ram_pages = s.ram_pages;
    w.lanes = 1;
    w.seed = o.seed;
    if (s.disk) {
      // Flush policy of durable_spill: fdatasync on commit, group commit
      // drained every 5 ms, checkpoint + compaction every 250 ms.
      w.disk_root = o.dir / ("setup" + std::to_string(setup_index));
      w.sync_metadata = true;
      w.group_commit_us = 5'000;
      w.checkpoint_interval = 250'000;
      w.segment_bytes = 2ull << 20;
    }
    world_ = std::make_unique<TcpWorld>(w);
    for (std::size_t i = 0; i < s.nodes; ++i) {
      clients_.push_back(
          std::make_unique<TcpClient>(*world_, static_cast<NodeId>(i)));
    }
  }

  /// Region creation and prefill. region_churn has no standing region; its
  /// prefill is ram_pages cycles, which open the node-to-node connections
  /// and fill each node's page cache with unreserved pages, so the measured
  /// loop starts in steady state. False if any op failed.
  bool prefill(Recorder& rec) {
    if (spec_.kind == Kind::kRegionChurn) {
      for (std::size_t i = 0; i < spec_.ram_pages; ++i) churn_cycle(rec);
      return rec.failed == 0;
    }
    auto base = clients_[0]->create_region(spec_.region_pages * kPage);
    ++rec.ops;
    if (!base.ok()) {
      ++rec.failed;
      return false;
    }
    base_ = base.value();
    shadow_.assign(spec_.region_pages, 0);
    for (std::uint64_t p = 0; p < spec_.region_pages; ++p) {
      do_put(*clients_[0], p, rec);
    }
    return rec.failed == 0;
  }

  /// Runs the closed loop until at least `ops` client ops are done.
  void run_ops(std::uint64_t ops, Recorder& rec) {
    while (rec.ops < ops) step(rec);
  }

  /// Runs the closed loop until `seconds` elapse; returns the elapsed time.
  double run(double seconds, Recorder& rec,
             const std::function<void()>& every_64_steps = {}) {
    const auto t0 = WallClock::now();
    const auto until = t0 + std::chrono::duration_cast<WallClock::duration>(
                                std::chrono::duration<double>(seconds));
    std::uint64_t steps = 0;
    auto window_start = t0;
    std::uint64_t window_ops = rec.ops;
    double window_steal = steal_seconds();
    const double cpus = std::max(1u, std::thread::hardware_concurrency());
    auto close_window = [&](WallClock::time_point now) {
      const double span = seconds_between(window_start, now);
      const double steal = steal_seconds();
      const bool clean = steal - window_steal <= kMaxStealShare * span * cpus;
      rec.window_ops_s.push_back(
          {static_cast<double>(rec.ops - window_ops) / span, clean});
      rec.get_w.close_window(clean);
      rec.put_w.close_window(clean);
      window_start = now;
      window_ops = rec.ops;
      window_steal = steal;
    };
    auto now = t0;
    for (; now < until; now = WallClock::now()) {
      if (now - window_start >= kWindow) close_window(now);
      step(rec);
      if (every_64_steps && (++steps & 63) == 0) every_64_steps();
    }
    // A trailing partial window counts when it is at least half a window.
    if (2 * (now - window_start) >= kWindow) close_window(now);
    return seconds_between(t0, now);
  }

  [[nodiscard]] TcpWorld& world() { return *world_; }

 private:
  AddressRange page_range(std::uint64_t p) const {
    return {base_.plus(p * kPage), kPage};
  }

  void step(Recorder& rec) {
    switch (spec_.kind) {
      case Kind::kWarmLocal:
      case Kind::kDurableSpill: {
        const double put_share = spec_.kind == Kind::kWarmLocal ? 0.1 : 0.5;
        const std::uint64_t p = rng_.below(spec_.region_pages);
        if (rng_.chance(put_share)) {
          do_put(*clients_[0], p, rec);
        } else {
          do_get(*clients_[0], p, rec);
        }
        break;
      }
      case Kind::kPingpong: {
        // Fixed alternation on one page: node 0 (the home) then node 1, so
        // every run does the same coherence work per op.
        const std::uint64_t p = rng_.below(spec_.region_pages);
        for (const auto& [node, put_share] :
             {std::pair<NodeId, double>{0, 0.5}, {1, 0.3}}) {
          if (rng_.chance(put_share)) {
            do_put(*clients_[node], p, rec);
          } else {
            do_get(*clients_[node], p, rec);
          }
        }
        break;
      }
      case Kind::kRegionChurn:
        churn_cycle(rec);
        break;
    }
  }

  /// create_region(1 page) on the creator -> put there -> first get from
  /// the other node -> unreserve; the creator alternates every cycle.
  void churn_cycle(Recorder& rec) {
    SyncClient& creator = *clients_[cycle_ & 1];
    SyncClient& other = *clients_[(cycle_ + 1) & 1];
    ++cycle_;
    auto t0 = WallClock::now();
    auto base = creator.create_region(kPage);
    ++rec.ops;
    if (!base.ok()) {
      ++rec.failed;
      return;
    }
    rec.create.record(ns_between(t0, WallClock::now()));
    base_ = base.value();
    shadow_.assign(1, 0);
    do_put(creator, 0, rec);
    do_get(other, 0, rec);
    t0 = WallClock::now();
    const Status s = creator.unreserve(base_);
    ++rec.ops;
    if (!s.ok()) {
      ++rec.failed;
      return;
    }
    rec.del.record(ns_between(t0, WallClock::now()));
  }

  void do_put(SyncClient& c, std::uint64_t p, Recorder& rec) {
    const std::uint64_t stamp = rng_.next() | 1;
    fill_page(stamp, buf_);
    const AddressRange r = page_range(p);
    ++rec.ops;
    ++rec.puts;
    const auto t0 = WallClock::now();
    Status s;
    if (!rec.traced) {
      s = c.put(r, buf_);
    } else {
      auto ctx = c.lock(r, consistency::LockMode::kWrite);
      const auto t1 = WallClock::now();
      if (!ctx.ok()) {
        ++rec.failed;
        return;
      }
      s = c.write(ctx.value(), 0, buf_);
      const auto t2 = WallClock::now();
      c.unlock(ctx.value());
      const auto t3 = WallClock::now();
      rec.lock.record(ns_between(t0, t1));
      rec.write.record(ns_between(t1, t2));
      rec.unlock.record(ns_between(t2, t3));
    }
    const std::uint64_t ns = ns_between(t0, WallClock::now());
    if (!s.ok()) {
      ++rec.failed;
      return;
    }
    shadow_[p] = stamp;
    rec.put.record(ns);
    rec.put_w.record(ns);
    if (rec.traced) rec.data_op.record(ns);
  }

  void do_get(SyncClient& c, std::uint64_t p, Recorder& rec) {
    const AddressRange r = page_range(p);
    ++rec.ops;
    const auto t0 = WallClock::now();
    std::optional<Result<Bytes>> out;
    if (!rec.traced) {
      out = c.get(r);
    } else {
      auto ctx = c.lock(r, consistency::LockMode::kRead);
      const auto t1 = WallClock::now();
      if (!ctx.ok()) {
        ++rec.failed;
        return;
      }
      out = c.read(ctx.value(), 0, r.size);
      const auto t2 = WallClock::now();
      c.unlock(ctx.value());
      const auto t3 = WallClock::now();
      rec.lock.record(ns_between(t0, t1));
      rec.read.record(ns_between(t1, t2));
      rec.unlock.record(ns_between(t2, t3));
    }
    const std::uint64_t ns = ns_between(t0, WallClock::now());
    if (!out->ok() || !page_matches(out->value(), shadow_[p])) {
      ++rec.failed;
      return;
    }
    rec.get.record(ns);
    rec.get_w.record(ns);
    if (rec.traced) rec.data_op.record(ns);
  }

  Spec spec_;
  WorkloadRng& rng_;
  std::unique_ptr<TcpWorld> world_;
  std::vector<std::unique_ptr<TcpClient>> clients_;
  GlobalAddress base_;
  std::vector<std::uint64_t> shadow_;  // stamp of the last put, per page
  std::uint64_t cycle_ = 0;
  Bytes buf_;
};

// --- metric output --------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
  std::uint64_t samples;  // 0: not a percentile
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0) {
    metrics_[name] = {value, unit, samples};
  }
  void add_hist(const std::string& name, const LatencyHist& h, double p) {
    add(name, h.percentile_us(p), "us", h.count());
  }
  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const auto& [name, m] : metrics_) {
      if (m.samples > 0) {
        std::printf("%-40s %14.4f %-6s (n=%llu)\n", name.c_str(), m.value,
                    m.unit.c_str(), static_cast<unsigned long long>(m.samples));
      } else {
        std::printf("%-40s %14.4f %s\n", name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    std::printf("%-40s %14.6f ratio (%llu of %llu ops)\n", "fail_ratio",
                attempted == 0 ? 0.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, m] : metrics_) {
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      json += std::string(first ? "" : ", ") + "\"" + name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, Metric> metrics_;
};

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Bytes this process caused to be sent to the storage layer.
std::uint64_t proc_write_bytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "write_bytes:") return value;
  }
  return 0;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

// --- traced-run probes ----------------------------------------------------

/// Every node's registry merged with its endpoint's own instruments.
struct WorldSnapshot {
  obs::MetricsSnapshot metrics;
  net::TransportStats wire;
  storage::HierarchyStats hierarchy;
};

WorldSnapshot snapshot_world(TcpWorld& world) {
  WorldSnapshot s;
  for (std::size_t i = 0; i < world.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    s.metrics.merge(world.node(id).metrics().snapshot());
    s.metrics.merge(world.transport(id).metrics().snapshot());
    const net::TransportStats w = world.transport_stats(id);
    s.wire.messages_sent += w.messages_sent;
    s.wire.bytes_sent += w.bytes_sent;
    // HierarchyStats is plain node state: read it on the node's executor.
    storage::HierarchyStats h;
    world.transport(id).run_on_executor(
        [&] { h = world.node(id).storage().stats(); });
    s.hierarchy.ram_hits += h.ram_hits;
    s.hierarchy.disk_hits += h.disk_hits;
    s.hierarchy.misses += h.misses;
    s.hierarchy.ram_to_disk += h.ram_to_disk;
  }
  return s;
}

obs::HistogramSnapshot hist_diff(const obs::MetricsSnapshot& d,
                                 const std::string& name) {
  auto it = d.histograms.find(name);
  return it == d.histograms.end() ? obs::HistogramSnapshot{} : it->second;
}

std::uint64_t counter_diff(const obs::MetricsSnapshot& d,
                           const std::string& name) {
  auto it = d.counters.find(name);
  return it == d.counters.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// p50 of a bare client->lane->client round trip (run_on_lane no-op).
LatencyHist time_handoff(TcpWorld& world) {
  LatencyHist h;
  for (int i = 0; i < kCalibrationReps; ++i) {
    const auto t0 = WallClock::now();
    world.transport(0).run_on_lane(0, [] {});
    h.record(ns_between(t0, WallClock::now()));
  }
  return h;
}

/// encode_framed + decode of one page-carrying message; stops recording at
/// the first round trip that does not reproduce the payload.
LatencyHist time_codec() {
  net::Message m;
  m.type = net::MsgType::kPageFetchResp;
  m.src = 0;
  m.dst = 1;
  m.rpc_id = 7;
  m.route_key = 1ull << 40;
  m.payload.assign(kPage + 32, 0x5A);
  LatencyHist h;
  for (int i = 0; i < kCalibrationReps; ++i) {
    const auto t0 = WallClock::now();
    const Bytes framed = m.encode_framed();
    net::Message out;
    const bool ok = net::Message::decode(
        std::span<const std::uint8_t>(framed).subspan(4), out);
    const auto t1 = WallClock::now();
    if (!ok || out.payload != m.payload) return h;
    h.record(ns_between(t0, t1));
  }
  return h;
}

/// begin_span + end_span of one span on a private Tracer (so the node
/// rings exported to trace.json stay untouched): the obs layer's cost per
/// traced step.
LatencyHist time_span() {
  SteadyClock clock;
  obs::Tracer tracer(0);
  tracer.set_clock(&clock);
  LatencyHist h;
  for (int i = 0; i < kCalibrationReps; ++i) {
    const auto t0 = WallClock::now();
    tracer.end_span(tracer.begin_span("bench"));
    h.record(ns_between(t0, WallClock::now()));
  }
  return h;
}

/// Adds the per-layer metrics of one traced phase; returns false when a
/// workload's stated prediction or durability assertion does not hold.
bool add_layer_metrics(Report& r, const Spec& spec, const Recorder& rec,
                       double elapsed, const WorldSnapshot& before,
                       const WorldSnapshot& after, TcpWorld& world,
                       std::uint64_t written_bytes,
                       std::uint64_t compaction_cycles,
                       const fs::path& disk_dir) {
  const obs::MetricsSnapshot d = after.metrics.diff(before.metrics);
  const double ops = static_cast<double>(rec.ops);

  // core
  const LatencyHist handoff = time_handoff(world);
  r.add_hist("core.handoff_us", handoff, 50);
  r.add_hist("core.lock_us", rec.lock, 50);
  r.add_hist("core.read_us", rec.read, 50);
  r.add_hist("core.write_us", rec.write, 50);
  r.add_hist("core.unlock_us", rec.unlock, 50);
  obs::HistogramSnapshot node_lock = hist_diff(d, "op.lock.read_us");
  node_lock.merge(hist_diff(d, "op.lock.write_us"));
  node_lock.merge(hist_diff(d, "op.lock.write_shared_us"));
  r.add("core.node_lock_us", node_lock.percentile(50), "us", node_lock.count);
  obs::HistogramSnapshot node_rw = hist_diff(d, "op.read_us");
  node_rw.merge(hist_diff(d, "op.write_us"));
  r.add("core.node_rw_us", node_rw.percentile(50), "us", node_rw.count);
  r.add_hist("core.op_us", rec.data_op, 50);
  // A get or put makes three client->lane hand-offs (lock, read/write,
  // unlock). The node-side lock covers location, CREW and storage work;
  // node-side unlock (write-back, release) is left unattributed.
  const double attributed = 3 * handoff.percentile_us(50) +
                            node_lock.percentile(50) + node_rw.percentile(50);
  r.add("core.attributed_us", attributed, "us");
  r.add("core.unattributed_us", rec.data_op.percentile_us(50) - attributed,
        "us");
  // No workload here steers an RPC away from a suspected node, so
  // rpc.steered is not reported.
  r.add("core.rpc_attempts_per_op",
        ratio(static_cast<double>(counter_diff(d, "rpc.attempts")), ops),
        "1/op");

  // consistency
  const auto crew_round = hist_diff(d, "crew.round_us");
  r.add("consistency.crew_round_us", crew_round.percentile(50), "us",
        crew_round.count);

  // location. No workload resolves through a map walk or a cluster walk,
  // so those hit classes are not reported.
  const double resolves =
      static_cast<double>(counter_diff(d, "location.resolves"));
  r.add("location.resolves_per_op", ratio(resolves, ops), "1/op");
  for (const char* cls : {"home", "region_dir", "manager"}) {
    r.add(std::string("location.hit_share.") + cls,
          ratio(static_cast<double>(
                    counter_diff(d, std::string("location.hits.") + cls)),
                resolves),
          "ratio");
  }
  for (const auto& [cls, hist] :
       {std::pair<std::string, std::string>{"region_dir",
                                            "resolve.region_dir_us"},
        {"manager", "resolve.manager_hint_us"}}) {
    const auto h = hist_diff(d, hist);
    r.add("location.resolve_us." + cls, h.percentile(50), "us", h.count);
  }
  const auto reserve = hist_diff(d, "op.reserve_us");
  r.add("location.reserve_us", reserve.percentile(50), "us", reserve.count);
  r.add_hist("create_p50_us", rec.create, 50);
  r.add_hist("delete_p50_us", rec.del, 50);

  // storage
  const storage::HierarchyStats& h0 = before.hierarchy;
  const storage::HierarchyStats& h1 = after.hierarchy;
  const double ram_hits = static_cast<double>(h1.ram_hits - h0.ram_hits);
  const double disk_hits = static_cast<double>(h1.disk_hits - h0.disk_hits);
  const double misses = static_cast<double>(h1.misses - h0.misses);
  r.add("storage.ram_hit_ratio", ratio(ram_hits, ram_hits + disk_hits + misses),
        "ratio");
  r.add("storage.disk_reads_per_op", ratio(disk_hits, ops), "1/op");
  r.add("storage.spills_per_op",
        ratio(static_cast<double>(h1.ram_to_disk - h0.ram_to_disk), ops),
        "1/op");
  const auto fsync = hist_diff(d, "storage.fsync_us");
  r.add("storage.fsync_p50_us", fsync.percentile(50), "us", fsync.count);
  r.add("storage.fsync_p99_us", fsync.percentile(99), "us", fsync.count);
  r.add("storage.fsyncs_per_s", static_cast<double>(fsync.count) / elapsed,
        "1/s");
  r.add("storage.group_commit_pages",
        hist_diff(d, "storage.group_commit_pages").mean(), "pages");
  const double put_bytes = static_cast<double>(rec.puts * kPage);
  r.add("storage.write_amp",
        spec.disk ? ratio(static_cast<double>(written_bytes), put_bytes) : 0.0,
        "ratio");
  r.add("storage.space_amp",
        spec.disk ? ratio(static_cast<double>(dir_bytes(disk_dir)),
                          static_cast<double>(spec.region_pages * kPage))
                  : 0.0,
        "ratio");
  r.add("storage.compaction_pages_per_s",
        static_cast<double>(counter_diff(d, "storage.compaction_pages")) /
            elapsed,
        "1/s");
  r.add("storage.compaction_cycles", static_cast<double>(compaction_cycles),
        "count");

  // net
  const double msgs =
      static_cast<double>(after.wire.messages_sent - before.wire.messages_sent);
  r.add("net.msgs_per_op", ratio(msgs, ops), "1/op");
  r.add("net.bytes_per_op",
        ratio(static_cast<double>(after.wire.bytes_sent -
                                  before.wire.bytes_sent),
              ops),
        "B/op");
  const auto queue = hist_diff(d, "tcp.send_queue_us");
  r.add("net.send_queue_us", queue.percentile(99), "us", queue.count);
  r.add("net.writev_frames", hist_diff(d, "tcp.writev_frames").mean(),
        "frames");
  const LatencyHist codec = time_codec();
  r.add_hist("net.codec_us", codec, 50);

  // obs
  r.add_hist("obs.span_us", time_span(), 50);

  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "assertion failed: %s\n", what);
      ok = false;
    }
  };
  expect(codec.count() == kCalibrationReps, "page messages survive the codec");
  if (spec.kind == Kind::kWarmLocal || spec.kind == Kind::kDurableSpill) {
    expect(msgs == 0, "no wire messages on a single-node workload");
  }
  if (spec.kind == Kind::kWarmLocal) {
    // Holds by construction (warm_local has no disk store); checked so that
    // a change to the workload's set-up cannot silently add disk reads.
    expect(disk_hits == 0, "no disk reads on warm_local");
  }
  if (spec.kind == Kind::kDurableSpill) {
    expect(fsync.count > 0, "durable_spill issues fdatasyncs");
    expect(compaction_cycles >= 3,
           "durable_spill's checkpoint timer compacts >= 3 times");
  }
  return ok;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::stoull(v);
    } else if (k == "--seconds") {
      o.seconds = std::stod(v);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--dir") {
      o.dir = v;
    } else if (k == "--port") {
      o.port = static_cast<std::uint16_t>(std::stoul(v));
    } else {
      return false;
    }
  }
  return !o.workload.empty() && !o.dir.empty() && o.port != 0 &&
         o.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  Spec spec{};
  try {
    if (!parse_args(argc, argv, opts)) throw std::invalid_argument("args");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: khz_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 --dir RUN_DIR --port BASE_PORT\n");
    return 2;
  }
  if (!spec_for(opts.workload, spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  WorkloadRng rng(opts.seed * 0x100000001B3ull +
                  static_cast<std::uint64_t>(spec.kind));
  Report report;
  Recorder setup_rec;
  bool correct = true;

  // Set up kSetups times (each a fresh world, ports and directory); keep the
  // last for the measurement and report the median set-up time.
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  const int setups = opts.trace ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    bench.reset();
    if (k > 0) fs::remove_all(opts.dir / ("setup" + std::to_string(k - 1)));
    const auto t0 = WallClock::now();
    bench = std::make_unique<Bench>(opts, spec, k, rng);
    correct = bench->prefill(setup_rec) && correct;
    setup_s.push_back(seconds_between(t0, WallClock::now()));
  }
  std::sort(setup_s.begin(), setup_s.end());

  Recorder warm;
  bench->run_ops(kWarmupOps, warm);
  // Memory after set-up and a fixed amount of work: throughput does not
  // change it (region_churn's footprint grows with every cycle run).
  const double rss_mib = peak_rss_mib();
  std::uint64_t attempted = setup_rec.ops + warm.ops;
  std::uint64_t failed = setup_rec.failed + warm.failed;

  if (!opts.trace) {
    Recorder plain;
    bench->run(opts.seconds, plain);
    attempted += plain.ops;
    failed += plain.failed;
    // Medians over the run's one-second windows, clean ones only when at
    // least kMinCleanWindows are clean; `n` is the pooled count.
    report.add("ops_per_s", median_over_windows(plain.window_ops_s), "1/s",
               plain.window_ops_s.size());
    report.add("clean_windows",
               static_cast<double>(std::count_if(
                   plain.window_ops_s.begin(), plain.window_ops_s.end(),
                   [](const WindowValue& w) { return w.clean; })),
               "windows", plain.window_ops_s.size());
    report.add("get_p50_us", plain.get_w.median_us(50, plain.get), "us",
               plain.get.count());
    report.add("get_p90_us", plain.get_w.median_us(90, plain.get), "us",
               plain.get.count());
    report.add("get_p99_us", plain.get_w.median_us(99, plain.get), "us",
               plain.get.count());
    report.add("put_p50_us", plain.put_w.median_us(50, plain.put), "us",
               plain.put.count());
    report.add("put_p90_us", plain.put_w.median_us(90, plain.put), "us",
               plain.put.count());
    report.add("put_p99_us", plain.put_w.median_us(99, plain.put), "us",
               plain.put.count());
    report.add("setup_s", setup_s[setup_s.size() / 2], "s");
  } else {
    TcpWorld& world = bench->world();
    const fs::path disk_dir = opts.dir / "setup0";
    Recorder traced;
    traced.traced = true;
    // Only the checkpoint timer compacts, so each sampling interval in which
    // storage.compaction_pages rose saw at least one timer-driven cycle.
    const obs::Counter& compacted =
        world.node(0).metrics().counter("storage.compaction_pages");
    std::uint64_t last_compacted = compacted.value();
    std::uint64_t compaction_cycles = 0;
    auto watch_compaction = [&] {
      const std::uint64_t n = compacted.value();
      if (n > last_compacted) ++compaction_cycles;
      last_compacted = n;
    };
    const WorldSnapshot before = snapshot_world(world);
    const std::uint64_t written0 = proc_write_bytes();
    const double traced_s =
        bench->run(opts.seconds, traced,
                   spec.disk ? std::function<void()>(watch_compaction)
                             : std::function<void()>());
    const std::uint64_t written = proc_write_bytes() - written0;
    const WorldSnapshot after = snapshot_world(world);
    attempted += traced.ops;
    failed += traced.failed;
    correct = add_layer_metrics(report, spec, traced, traced_s, before, after,
                                world, written, compaction_cycles, disk_dir) &&
              correct;
    std::ofstream(opts.dir / "trace.json") << world.trace_json();
  }
  bench.reset();
  if (!opts.trace) report.add("peak_rss_mib", rss_mib, "MiB");

  correct = correct && failed == 0;
  report.print(correct, attempted, failed);
  return correct ? 0 : 1;
}
