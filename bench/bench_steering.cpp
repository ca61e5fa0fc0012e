// Experiment E6: the steered data plane.
//
// End-to-end forwarding through deployed chains of growing length: the
// per-packet virtual latency grows with hops/VNFs, and the host cost of
// simulating each packet grows with the number of elements it traverses.
// Also quantifies the proactive-vs-reactive ablation (first-packet
// penalty = one controller RTT) from inside the full environment.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "pox/l2_learning.hpp"

using namespace escape;
using benchutil::build_linear;
using benchutil::monitor_chain;

/// Simulates 1000 packets through a deployed chain per iteration.
static void BM_Steering_ChainForwarding(benchmark::State& state) {
  const int chain_len = static_cast<int>(state.range(0));
  Environment env;
  build_linear(env, std::max(2, chain_len));
  if (auto s = env.start(); !s.ok()) {
    state.SkipWithError(s.error().message.c_str());
    return;
  }
  auto chain = env.deploy(monitor_chain(chain_len));
  if (!chain.ok()) {
    state.SkipWithError(chain.error().message.c_str());
    return;
  }
  auto* src = env.host("sap1");
  auto* dst = env.host("sap2");

  std::uint64_t delivered = 0;
  double latency_us = 0;
  for (auto _ : state) {
    dst->reset_counters();
    src->start_udp_flow(dst->mac(), dst->ip(), 5000, 80, 1000, 100'000);
    env.run_for(seconds(1));
    delivered = dst->rx_packets();
    latency_us = dst->latency_us().p50();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["delivered_of_1000"] = static_cast<double>(delivered);
  state.counters["virt_latency_p50_us"] = latency_us;
  state.counters["chain_len"] = chain_len;
}
BENCHMARK(BM_Steering_ChainForwarding)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(6)
    ->Unit(benchmark::kMillisecond);

/// Proactive vs reactive first-packet latency, measured in virtual time.
static void BM_Steering_FirstPacket(benchmark::State& state) {
  const bool reactive = state.range(0) == 1;
  double first_us = 0;
  for (auto _ : state) {
    Environment env;
    build_linear(env, 2);
    if (auto s = env.start(); !s.ok()) {
      state.SkipWithError(s.error().message.c_str());
      return;
    }
    // Steer only the port-80 class proactively so the reactive class
    // below genuinely misses in the flow tables.
    auto match80 = env.default_match(monitor_chain(1));
    if (!match80.ok()) {
      state.SkipWithError(match80.error().message.c_str());
      return;
    }
    match80->nw_proto(net::ipproto::kUdp).tp_dst(80);
    auto chain = env.deploy(monitor_chain(1), *match80);
    if (!chain.ok()) {
      state.SkipWithError(chain.error().message.c_str());
      return;
    }
    auto* src = env.host("sap1");
    auto* dst = env.host("sap2");

    if (reactive) {
      // Re-register the installed path reactively for a second class.
      pox::ChainPath path = env.deployment(*chain)->record.chain_path;
      path.chain_id = 4242;
      path.match = openflow::Match()
                       .dl_type(net::ethertype::kIpv4)
                       .nw_proto(net::ipproto::kUdp)
                       .tp_dst(9000);
      env.steering().register_chain(path);
      src->start_udp_flow(dst->mac(), dst->ip(), 1, 9000, 1, 1000);
    } else {
      src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 1, 1000);
    }
    env.run_for(seconds(1));
    first_us = dst->latency_us().max();
  }
  state.counters["first_packet_virt_us"] = first_us;
  state.SetLabel(reactive ? "reactive" : "proactive");
}
BENCHMARK(BM_Steering_FirstPacket)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Controller packet-in handling rate: L2 learning under a MAC scan.
static void BM_Steering_PacketInRate(benchmark::State& state) {
  EventScheduler sched;
  netemu::Network net(sched);
  pox::Controller controller(sched, 10 * timeunit::kMicrosecond);
  controller.add_app(std::make_shared<pox::L2Learning>());
  net.add_switch("s1", 1);
  auto& h1 = net.add_host("h1", net::MacAddr::from_u64(0xa1), net::Ipv4Addr(10, 0, 0, 1));
  auto& h2 = net.add_host("h2", net::MacAddr::from_u64(0xa2), net::Ipv4Addr(10, 0, 0, 2));
  (void)net.add_link("h1", 0, "s1", 1);
  (void)net.add_link("h2", 0, "s1", 2);
  net.attach_controller(controller);
  sched.run_for(milliseconds(1));

  std::uint64_t mac = 0x100;
  for (auto _ : state) {
    // Every frame has a fresh source MAC -> guaranteed packet-in.
    net::Packet p = net::make_udp_packet(net::MacAddr::from_u64(mac++),
                                         net::MacAddr::from_u64(0xa2),
                                         net::Ipv4Addr(10, 0, 0, 1),
                                         net::Ipv4Addr(10, 0, 0, 2), 1, 2);
    h1.send(std::move(p));
    // run_for, not run(): the switch's periodic expiry sweep keeps the
    // event queue non-empty forever.
    sched.run_for(milliseconds(1));
  }
  benchmark::DoNotOptimize(h2.rx_packets());
  state.SetItemsProcessed(state.iterations());
  state.counters["packet_ins"] = static_cast<double>(controller.packet_ins_handled());
}
BENCHMARK(BM_Steering_PacketInRate);

ESCAPE_BENCH_MAIN("steering");
