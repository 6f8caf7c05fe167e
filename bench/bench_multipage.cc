// MULTIPAGE — cost of an N-page range lock + read, 1..64 pages.
//
// The pipelined lock path (prefetch window + coalesced multi-page
// kPageFetchReq messages) should make a cold N-page operation cost ~1
// round trip instead of N sequential ones. Two sections:
//
//  * SimWorld sweep over a WAN-like link (deterministic virtual time),
//    against the pre-change behavior — sequential per-page lock/read —
//    as the comparator;
//  * a TcpWorld spot check over real sockets, reading the pages-per-batch
//    histogram to show a 16-page cold read rides one batch request.
#include <chrono>

#include "bench/bench_util.h"

namespace khz {
namespace {

constexpr std::uint64_t kPage = 4096;

using consistency::LockMode;

struct SweepPoint {
  std::uint64_t pages;
  Micros range_us;       // one pipelined range lock+read+unlock
  Micros sequential_us;  // per-page lock+read+unlock loop (old behavior)
  std::uint64_t range_msgs;
  std::uint64_t sequential_msgs;
};

// Cold-cache cost of reading `pages` pages homed on node 0 from node 1.
// `per_page` switches between one range op and the sequential loop.
void measure(std::uint64_t pages, bool per_page, Micros* out_us,
             std::uint64_t* out_msgs) {
  core::SimWorld world({.nodes = 2, .link = net::LinkProfile::wan()});
  const std::uint64_t bytes = pages * kPage;
  auto base = world.create_region(0, bytes);
  if (!base.ok()) std::abort();
  if (!world.put(0, {base.value(), bytes}, bench::fill(bytes, 0x5A)).ok()) {
    std::abort();
  }
  bench::TrafficMeter meter(world);
  const Micros t0 = world.net().now();
  if (per_page) {
    for (std::uint64_t p = 0; p < pages; ++p) {
      if (!world.get(1, {base.value().plus(p * kPage), kPage}).ok()) {
        std::abort();
      }
    }
  } else {
    if (!world.get(1, {base.value(), bytes}).ok()) std::abort();
  }
  *out_us = world.net().now() - t0;
  *out_msgs = meter.delta().messages;
}

void sim_sweep(bench::JsonReport& report) {
  bench::title("MULTIPAGE / sim sweep",
               "Cold N-page read from a remote home over a WAN link: one "
               "pipelined range lock vs N sequential per-page locks "
               "(virtual us; identical every run).");

  std::vector<SweepPoint> points;
  for (std::uint64_t pages : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    SweepPoint pt;
    pt.pages = pages;
    measure(pages, /*per_page=*/false, &pt.range_us, &pt.range_msgs);
    measure(pages, /*per_page=*/true, &pt.sequential_us,
            &pt.sequential_msgs);
    points.push_back(pt);
  }

  bench::table_header({"pages", "range lock", "msgs", "sequential", "msgs",
                       "speedup", "vs 1-page"});
  const double base_us = static_cast<double>(points.front().range_us);
  for (const auto& pt : points) {
    bench::cell(pt.pages);
    bench::cell(bench::us(pt.range_us));
    bench::cell(pt.range_msgs);
    bench::cell(bench::us(pt.sequential_us));
    bench::cell(pt.sequential_msgs);
    bench::cell(static_cast<double>(pt.sequential_us) /
                static_cast<double>(pt.range_us));
    bench::cell(static_cast<double>(pt.range_us) / base_us);
    bench::endrow();
    const std::string n = std::to_string(pt.pages);
    report.metric("sim_range_us_" + n, static_cast<double>(pt.range_us));
    report.metric("sim_seq_us_" + n, static_cast<double>(pt.sequential_us));
    report.metric("sim_range_msgs_" + n,
                  static_cast<double>(pt.range_msgs));
    report.metric("sim_seq_msgs_" + n,
                  static_cast<double>(pt.sequential_msgs));
  }
  // Headline acceptance number: a 16-page op within 3x of a 1-page op.
  for (const auto& pt : points) {
    if (pt.pages == 16) {
      report.metric("sim_ratio_16_vs_1",
                    static_cast<double>(pt.range_us) / base_us);
    }
  }
}

void tcp_spot_check(bench::JsonReport& report) {
  bench::title("MULTIPAGE / tcp spot check",
               "16-page cold read over real sockets: wall time, wire "
               "messages, and the pages-per-batch histogram (the batch "
               "request + response replace 16 per-page round trips).");

  core::TcpWorld world({.nodes = 2, .base_port = 41300});
  core::TcpClient c0(world, 0);
  core::TcpClient c1(world, 1);
  const std::uint64_t bytes = 16 * kPage;
  auto base = c0.create_region(bytes);
  if (!base.ok()) std::abort();
  if (!c0.put({base.value(), bytes}, bench::fill(bytes, 0x6B)).ok()) {
    std::abort();
  }

  bench::TrafficMeter meter(world);
  const auto t0 = std::chrono::steady_clock::now();
  auto got = c1.get({base.value(), bytes});
  const auto t1 = std::chrono::steady_clock::now();
  if (!got.ok() || got.value() != bench::fill(bytes, 0x6B)) std::abort();
  const auto wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
          .count());

  obs::HistogramSnapshot batch_pages;
  obs::HistogramSnapshot rounds;
  world.transport(1).run_on_executor([&] {
    auto& reg = world.node(1).metrics();
    batch_pages = reg.histogram("crew.batch_pages").snapshot();
    rounds = reg.histogram("crew.round_us").snapshot();
  });
  const obs::HistogramSnapshot gather =
      world.transport(1).metrics().histogram("tcp.writev_frames").snapshot();
  const auto traffic = meter.delta();

  bench::table_header({"metric", "value"});
  bench::cell("cold read wall");
  bench::cell(bench::us(static_cast<Micros>(wall_us)));
  bench::endrow();
  bench::cell("wire messages");
  bench::cell(traffic.messages);
  bench::endrow();
  bench::cell("batch requests");
  bench::cell(batch_pages.count);
  bench::endrow();
  bench::cell("pages/batch max");
  bench::cell(batch_pages.max);
  bench::endrow();
  bench::cell("page round p50");
  bench::cell(bench::us(static_cast<Micros>(rounds.percentile(50))));
  bench::endrow();
  bench::cell("frames/sendmsg max");
  bench::cell(gather.max);
  bench::endrow();

  report.metric("tcp_cold16_wall_us", static_cast<double>(wall_us));
  report.metric("tcp_cold16_msgs", static_cast<double>(traffic.messages));
  report.metric("tcp_batch_requests", static_cast<double>(batch_pages.count));
  report.metric("tcp_pages_per_batch_max",
                static_cast<double>(batch_pages.max));
  report.metric("tcp_sendmsg_frames_max", static_cast<double>(gather.max));
}

}  // namespace
}  // namespace khz

int main(int argc, char** argv) {
  khz::bench::JsonReport report("multipage", argc, argv);
  khz::sim_sweep(report);
  khz::tcp_spot_check(report);
  return 0;
}
