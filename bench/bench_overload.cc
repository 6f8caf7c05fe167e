// OVERLOAD — latency vs offered load through saturation, with admission
// control on (bounded deadline-shedding queues + kNack backpressure) and
// client retry budgets.
//
// Two sections:
//
//  * SimWorld sweep: an open-loop zipfian generator (bench/load_gen.h)
//    offers a fixed rate of getattr operations against a home node whose
//    admission drain is paced at one request per admission_service_us —
//    the saturation point is therefore exactly 1e6/service_us ops/s. The
//    sweep crosses it (0.25x .. 2x) and reports goodput, success-latency
//    percentiles and shed counts per point. The claim under test: p99 of
//    *successful* ops stays bounded past the knee (the queue bound + EDF
//    shedding caps queueing delay at limit * service_us), goodput
//    plateaus at capacity instead of collapsing, and the overflow turns
//    into admission.shed + fast client failures rather than unbounded
//    queue growth.
//
//  * TcpWorld spot check: the same generator over real sockets at ~2x the
//    paced capacity for a quarter second — real microseconds, same shape.
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "bench/load_gen.h"

namespace khz {
namespace {

constexpr std::uint64_t kPage = 4096;
constexpr std::size_t kRegions = 64;
constexpr Micros kOpDeadline = 50'000;
constexpr Micros kServiceUs = 500;  // sim saturation = 2000 ops/s
constexpr double kSaturationOpsS = 1e6 / kServiceUs;

/// One offered-load point, run in a fresh world so counters start clean.
struct Point {
  int pct;  // offered load as % of saturation
  double offered_ops_s;
  double goodput_ops_s;
  double p50_us;
  double p99_us;
  std::uint64_t issued;
  std::uint64_t ok;
  std::uint64_t failed;
  std::uint64_t shed;
  std::uint64_t nacks;
  std::uint64_t expired_in_queue;
  std::uint64_t budget_exhausted;
  // Slow-op flight recorder on the client node, fetched through the real
  // scrape path (node 2 scrapes node 1) after the load drains.
  std::uint64_t slow_dossiers;
  std::uint64_t dossier_spans;        // span count of the newest dossier
  std::uint64_t dossier_queue_depth;  // its captured client-queue depth
  std::string newest_dossier_json;    // the full dossier, for the 2x point
};

Point run_sim_point(int pct) {
  // rpc_timeout (the per-attempt timeout) must exceed the worst-case
  // queue wait (limit * service_us = 32 ms), or every queued-but-served
  // request is timed out client-side and retried — amplification, not
  // measurement. The op deadline provides the real bound.
  // Slow-op capture: an op burning half its 50 ms deadline budget is worth
  // a dossier. Past the knee the client queue's worst-case wait alone is
  // 32 ms (limit * service_us), so the overloaded points must produce
  // dossiers while the underloaded ones stay quiet.
  core::SimWorldOptions wopts;
  wopts.nodes = 3;
  wopts.rpc_timeout = 50'000;
  wopts.admission = {.client_queue_limit = 64,
                     .protocol_queue_limit = 512,
                     .replication_queue_limit = 256,
                     .service_us = kServiceUs};
  wopts.slow_op_deadline_fraction = 0.5;
  wopts.flight_recorder_capacity = 64;
  wopts.seed = 7 + static_cast<std::uint64_t>(pct);
  core::SimWorld world(wopts);

  // kRegions single-page regions homed on node 0, the paced server.
  std::vector<GlobalAddress> bases;
  for (std::size_t r = 0; r < kRegions; ++r) {
    auto base = world.create_region(0, kPage);
    if (!base.ok()) {
      std::fprintf(stderr, "overload: create_region %zu: %s\n", r,
                   std::string(to_string(base.error())).c_str());
      std::abort();
    }
    bases.push_back(base.value());
  }
  // Each create also queues background map/hint traffic on the paced home
  // node; let that backlog drain so warm-up starts from an idle server.
  world.pump_for(500'000);
  // Warm node 1's resolve path so the measured ops are one RPC each, not
  // a cold three-level lookup.
  for (const auto& b : bases) {
    bool warmed = false;
    for (int attempt = 0; attempt < 5 && !warmed; ++attempt) {
      warmed = world.getattr(1, b).ok();
    }
    if (!warmed) {
      std::fprintf(stderr, "overload: warm getattr failed\n");
      std::abort();
    }
  }

  const double rate = kSaturationOpsS * pct / 100.0;
  bench::OpenLoopLoad::Options opts;
  opts.rate_ops_per_sec = rate;
  opts.duration = 2'000'000;
  opts.keys = kRegions;
  opts.clients = 2000;
  opts.seed = 1000 + static_cast<std::uint64_t>(pct);
  core::Node& client = world.node(1);
  bench::OpenLoopLoad load(
      client, opts,
      [&client, &bases](std::size_t, std::size_t key, auto done) {
        core::RpcEngine::DeadlineScope scope(client.rpc_engine(),
                                             client.now() + kOpDeadline);
        client.getattr(bases[key],
                       [done = std::move(done)](auto r) { done(r.ok()); });
      });
  load.start();
  if (!world.pump_until([&] { return load.done(); }, 50'000'000)) {
    std::fprintf(stderr, "overload: sim pump limit hit at %d%%\n", pct);
    std::abort();
  }

  auto& server = world.node(0).metrics();
  auto& stats = load.stats();
  const auto lat = stats.latency_us.snapshot();
  Point p;
  p.pct = pct;
  p.offered_ops_s = rate;
  p.goodput_ops_s =
      static_cast<double>(stats.ok) / (opts.duration / 1e6);
  p.p50_us = lat.percentile(50);
  p.p99_us = lat.percentile(99);
  p.issued = stats.issued;
  p.ok = stats.ok;
  p.failed = stats.failed;
  p.shed = server.counter("admission.shed").value();
  p.nacks = server.counter("admission.nacks_sent").value();
  p.expired_in_queue = server.counter("admission.expired_in_queue").value();
  p.budget_exhausted =
      client.metrics().counter("rpc.retry_budget_exhausted").value();

  // Dossiers live on the node the ops were issued on (node 1); fetch them
  // through the real wire path by scraping from node 2.
  p.slow_dossiers = 0;
  p.dossier_spans = 0;
  p.dossier_queue_depth = 0;
  auto scraped = world.scrape(2, 1, core::Node::kScrapeDossiers);
  if (scraped.ok()) {
    const auto& rs = scraped.value();
    p.slow_dossiers = rs.dossiers_dropped + rs.dossiers.size();
    if (!rs.dossiers.empty()) {
      const auto& newest = rs.dossiers.back();
      p.dossier_spans = newest.spans.size();
      p.dossier_queue_depth = newest.depth_client;
      p.newest_dossier_json = newest.to_json();
    }
  }
  return p;
}

void sim_sweep(bench::JsonReport& report) {
  bench::title(
      "OVERLOAD / sim sweep",
      "Open-loop zipfian getattr load vs a paced home node (saturation "
      "2000 ops/s). Admission: client queue 64 (EDF, shed latest "
      "deadline, Nack), op deadline 50 ms.");
  bench::table_header({"offered%", "offered/s", "goodput/s", "p50", "p99",
                       "failed", "shed", "nacks"});
  report.meta("world.sim", "deterministic simulator, 3 nodes");
  report.metric("saturation_ops_s", kSaturationOpsS);
  report.metric("op_deadline_us", kOpDeadline);
  report.metric("client_queue_limit", 64);
  for (const int pct : {25, 50, 75, 100, 125, 150, 200}) {
    const Point p = run_sim_point(pct);
    bench::cell(static_cast<std::uint64_t>(p.pct));
    bench::cell(p.offered_ops_s);
    bench::cell(p.goodput_ops_s);
    bench::cell(bench::us(static_cast<Micros>(p.p50_us)));
    bench::cell(bench::us(static_cast<Micros>(p.p99_us)));
    bench::cell(p.failed);
    bench::cell(p.shed);
    bench::cell(p.nacks);
    bench::endrow();

    char key[64];
    std::snprintf(key, sizeof(key), "sim.p%03d.", p.pct);
    const std::string k(key);
    report.metric(k + "offered_ops_s", p.offered_ops_s);
    report.metric(k + "goodput_ops_s", p.goodput_ops_s);
    report.metric(k + "p50_us", p.p50_us);
    report.metric(k + "p99_us", p.p99_us);
    report.metric(k + "issued", static_cast<double>(p.issued));
    report.metric(k + "ok", static_cast<double>(p.ok));
    report.metric(k + "failed", static_cast<double>(p.failed));
    report.metric(k + "shed", static_cast<double>(p.shed));
    report.metric(k + "nacks", static_cast<double>(p.nacks));
    report.metric(k + "expired_in_queue",
                  static_cast<double>(p.expired_in_queue));
    report.metric(k + "retry_budget_exhausted",
                  static_cast<double>(p.budget_exhausted));
    report.metric(k + "slow_dossiers", static_cast<double>(p.slow_dossiers));
    report.metric(k + "dossier_spans", static_cast<double>(p.dossier_spans));
    report.metric(k + "dossier_queue_depth",
                  static_cast<double>(p.dossier_queue_depth));

    // Past the knee the flight recorder must have fired; show the newest
    // dossier (span tree + queue depths) the 2x point produced.
    if (p.pct == 200) {
      std::printf("\n2x slow-op dossiers (scraped from node 1): %llu\n",
                  static_cast<unsigned long long>(p.slow_dossiers));
      if (!p.newest_dossier_json.empty()) {
        std::printf("newest: %s\n", p.newest_dossier_json.c_str());
      }
    }
  }
}

void tcp_spot_check(bench::JsonReport& report) {
  bench::title(
      "OVERLOAD / tcp spot check",
      "Same generator over real sockets: ~2x the paced capacity for "
      "250 ms of wall-clock. Expect a nonzero shed count and bounded "
      "success latency.");

  constexpr Micros kTcpServiceUs = 400;  // capacity 2500 ops/s
  constexpr double kTcpRate = 5000;      // ~2x capacity
  constexpr std::size_t kTcpRegions = 16;
  core::TcpWorldOptions wopts;
  wopts.nodes = 2;
  wopts.rpc_timeout = 100'000;
  wopts.admission = {.client_queue_limit = 32,
                     .protocol_queue_limit = 512,
                     .replication_queue_limit = 256,
                     .service_us = kTcpServiceUs};
  core::TcpWorld world(wopts);
  core::TcpClient setup(world, 0);
  std::vector<GlobalAddress> bases;
  for (std::size_t r = 0; r < kTcpRegions; ++r) {
    auto base = setup.reserve(kPage, {});
    if (!base.ok()) std::abort();
    if (!setup.allocate({base.value(), kPage}).ok()) std::abort();
    bases.push_back(base.value());
  }
  // Let the paced home node drain the creates' background traffic, then
  // warm node 1's resolver (retrying: a one-shot probe can be shed).
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  core::TcpClient warm(world, 1);
  for (const auto& b : bases) {
    bool warmed = false;
    for (int attempt = 0; attempt < 5 && !warmed; ++attempt) {
      warmed = warm.getattr(b).ok();
    }
    if (!warmed) std::abort();
  }

  bench::OpenLoopLoad::Options opts;
  opts.rate_ops_per_sec = kTcpRate;
  opts.duration = 250'000;
  opts.keys = kTcpRegions;
  opts.clients = 500;
  opts.seed = 99;
  core::Node& client = world.node(1);
  bench::OpenLoopLoad load(
      client, opts,
      [&client, &bases](std::size_t, std::size_t key, auto done) {
        core::RpcEngine::DeadlineScope scope(client.rpc_engine(),
                                             client.now() + 30'000);
        client.getattr(bases[key],
                       [done = std::move(done)](auto r) { done(r.ok()); });
      });
  world.transport(1).run_on_executor([&load] { load.start(); });
  // Real time: arrivals run for duration, then in-flight ops drain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!load.done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  auto& stats = load.stats();
  const auto lat = stats.latency_us.snapshot();
  const std::uint64_t shed =
      world.node(0).metrics().counter("admission.shed").value();
  const std::uint64_t nacks =
      world.node(0).metrics().counter("admission.nacks_sent").value();
  bench::table_header(
      {"offered/s", "issued", "ok", "failed", "p99", "shed", "nacks"});
  bench::cell(kTcpRate);
  bench::cell(stats.issued.load());
  bench::cell(stats.ok.load());
  bench::cell(stats.failed.load());
  bench::cell(bench::us(static_cast<Micros>(lat.percentile(99))));
  bench::cell(shed);
  bench::cell(nacks);
  bench::endrow();
  report.meta("world.tcp", "real sockets, 2 nodes");
  report.metric("tcp.offered_ops_s", kTcpRate);
  report.metric("tcp.issued", static_cast<double>(stats.issued.load()));
  report.metric("tcp.ok", static_cast<double>(stats.ok.load()));
  report.metric("tcp.failed", static_cast<double>(stats.failed.load()));
  report.metric("tcp.p99_us", lat.percentile(99));
  report.metric("tcp.shed", static_cast<double>(shed));
  report.metric("tcp.nacks", static_cast<double>(nacks));
}

}  // namespace
}  // namespace khz

int main(int argc, char** argv) {
  khz::bench::JsonReport report("overload", argc, argv);
  khz::sim_sweep(report);
  khz::tcp_spot_check(report);
  report.finish();
  return 0;
}
