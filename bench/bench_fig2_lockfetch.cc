// FIG2 — Figure 2: "Sequence of actions on a lock and fetch request".
//
// The paper's only protocol figure: node A lock+fetches page p owned by
// node B. This harness reproduces the exchange, prints the actual message
// trace annotated with the corresponding Figure-2 steps, and reports the
// end-to-end latency and message count for a cold request, a warm (cached)
// repeat, and a write (ownership-transfer) request — each under LAN and
// WAN link profiles.
#include <map>

#include "bench/bench_util.h"
#include "consistency/crew.h"

namespace khz {
namespace {

using namespace khz::bench;           // NOLINT
using core::SimWorld;
using core::SimWorldOptions;
using consistency::LockMode;

const char* figure2_step(const net::Message& m) {
  using net::MsgType;
  switch (m.type) {
    case MsgType::kHintQueryReq:
      return "step 1:    A consults the cluster manager for p's region";
    case MsgType::kHintQueryResp:
      return "step 1:    ... manager returns home hint";
    case MsgType::kDescLookupReq:
      return "steps 2,3: A fetches the region descriptor";
    case MsgType::kDescLookupResp:
      return "steps 2,3: ... descriptor arrives (page dir lookup = step 4)";
    case MsgType::kPageFetchReq: {
      // u8 protocol, u32 n, then the first entry's addr and mode.
      Decoder d(m.payload);
      (void)d.u8();
      (void)d.u32();
      (void)d.addr();
      return static_cast<LockMode>(d.u8()) == LockMode::kRead
                 ? "steps 5,6: A's CM asks B's CM for read credentials"
                 : "steps 5,6: A's CM asks B's CM for write credentials";
    }
    case MsgType::kCm:
    case MsgType::kPageFetchResp: {
      // kCm: u8 protocol, addr, u8 sub. kPageFetchResp: u8 protocol,
      // u32 n, then the first entry's addr and u8 sub.
      Decoder d(m.payload);
      (void)d.u8();
      if (m.type == MsgType::kPageFetchResp) (void)d.u32();
      (void)d.addr();
      const auto sub = static_cast<consistency::CrewManager::Sub>(d.u8());
      switch (sub) {
        case consistency::CrewManager::Sub::kData:
          return "steps 7-10: B supplies a copy of p; A caches it";
        case consistency::CrewManager::Sub::kOwner:
          return "steps 7-10: B ships p + ownership to A";
        default:
          return "           (consistency traffic)";
      }
    }
    default:
      return "           (other)";
  }
}

struct RunResult {
  Micros cold_read;
  std::uint64_t cold_read_msgs;
  Micros warm_read;
  std::uint64_t warm_read_msgs;
  Micros cold_write;
  std::uint64_t cold_write_msgs;
};

RunResult run(const net::LinkProfile& link, bool trace) {
  SimWorld world({.nodes = 2, .link = link});
  // Node B (id 0, also home) creates and owns page p.
  auto base = world.create_region(0, 4096);
  if (!base.ok()) std::abort();
  const AddressRange p{base.value(), 4096};
  if (!world.put(0, p, fill(4096, 0xF2)).ok()) std::abort();

  if (trace) {
    world.net().set_tap([](Micros t, const net::Message& m) {
      std::printf("  [%9s] %-16s %u -> %u   %s\n", us(t).c_str(),
                  std::string(net::to_string(m.type)).c_str(), m.src, m.dst,
                  figure2_step(m));
    });
  }

  RunResult out{};
  // Cold <lock, fetch> from node A (Figure 2 proper; steps 11-13 — the
  // local grant and data copy to the requestor — happen inside node A).
  TrafficMeter meter(world);
  Micros t0 = world.net().now();
  auto ctx = world.lock(1, p, LockMode::kRead);
  if (!ctx.ok()) std::abort();
  auto data = world.read(1, ctx.value(), 0, 4096);
  if (!data.ok() || data.value()[0] != 0xF2) std::abort();
  world.unlock(1, ctx.value());
  out.cold_read = world.net().now() - t0;
  out.cold_read_msgs = meter.delta().messages;
  world.net().set_tap(nullptr);

  // Warm repeat: the copy is cached and still valid.
  meter.reset();
  t0 = world.net().now();
  if (!world.get(1, p).ok()) std::abort();
  out.warm_read = world.net().now() - t0;
  out.warm_read_msgs = meter.delta().messages;

  // Write lock: ownership transfer (B invalidates + ships ownership).
  meter.reset();
  t0 = world.net().now();
  if (!world.put(1, p, fill(4096, 0x11)).ok()) std::abort();
  out.cold_write = world.net().now() - t0;
  out.cold_write_msgs = meter.delta().messages;
  return out;
}

}  // namespace
}  // namespace khz

int main(int argc, char** argv) {
  using namespace khz;        // NOLINT
  using namespace khz::bench; // NOLINT

  JsonReport report("fig2_lockfetch", argc, argv);
  title("FIG2 | bench_fig2_lockfetch",
        "Figure 2: lock+fetch of page p at node A, owned by node B.\n"
        "Message trace (LAN profile), then latency/message summary.");

  std::printf("\nProtocol trace, cold read lock (A = node 1, B = node 0):\n");
  (void)run(net::LinkProfile::lan(), /*trace=*/true);

  std::printf(
      "\nSummary (one 4 KiB page; LAN = 0.1 ms links, WAN = 40 ms links):\n\n");
  table_header({"link", "op", "latency", "messages"});
  for (const auto& [name, link] :
       std::vector<std::pair<std::string, net::LinkProfile>>{
           {"LAN", net::LinkProfile::lan()},
           {"WAN", net::LinkProfile::wan()}}) {
    const auto r = run(link, false);
    cell(name); cell(std::string("cold read")); cell(us(r.cold_read));
    cell(r.cold_read_msgs); endrow();
    cell(name); cell(std::string("warm read")); cell(us(r.warm_read));
    cell(r.warm_read_msgs); endrow();
    cell(name); cell(std::string("write+own")); cell(us(r.cold_write));
    cell(r.cold_write_msgs); endrow();

    const std::string prefix = name == "LAN" ? "lan_" : "wan_";
    report.metric(prefix + "cold_read_us", static_cast<double>(r.cold_read));
    report.metric(prefix + "cold_read_msgs",
                  static_cast<double>(r.cold_read_msgs));
    report.metric(prefix + "warm_read_us", static_cast<double>(r.warm_read));
    report.metric(prefix + "warm_read_msgs",
                  static_cast<double>(r.warm_read_msgs));
    report.metric(prefix + "cold_write_us",
                  static_cast<double>(r.cold_write));
    report.metric(prefix + "cold_write_msgs",
                  static_cast<double>(r.cold_write_msgs));
  }
  std::printf(
      "\nShape check vs paper: the cold path costs a handful of messages\n"
      "(descriptor lookup + CM exchange + data); the warm path is free —\n"
      "all later lock/read pairs are served from the local replica.\n");
  return 0;
}
