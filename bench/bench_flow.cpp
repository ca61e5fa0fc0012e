// Flow-classification substrate throughput: raw FlowStateTable churn
// (insert/lookup/sweep) at 10k/100k/1M concurrent flows, and the
// router-level FlowManager -> FlowLB push path under a packet mix.
// Flow counts and table memory are virtual-state deterministic and go
// into BENCH_flow.json for the CI regression gate; wall-clock
// throughput lives in the benchmark output.
#include "bench_common.hpp"

#include "click/elements.hpp"
#include "click/flow.hpp"
#include "net/builder.hpp"

namespace escape {
namespace {

click::FlowTuple nth_tuple(std::uint32_t n) {
  click::FlowTuple t;
  t.src_ip = 0x0a000000u + (n & 0xffffu);
  t.dst_ip = 0x0a010000u + (n >> 16);
  t.src_port = static_cast<std::uint16_t>(1024 + (n % 60000));
  t.dst_port = 80;
  t.proto = net::ipproto::kUdp;
  return t;
}

/// Insert N flows, look every one up again, then sweep them all out.
void BM_FlowTableChurn(benchmark::State& state) {
  const std::uint32_t flows = static_cast<std::uint32_t>(state.range(0));
  std::size_t memory = 0;
  std::size_t max_probe = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    click::FlowStateTable table(1024, flows);
    table.reserve_scratch(16);  // a typical downstream consumer
    for (std::uint32_t i = 0; i < flows; ++i) {
      benchmark::DoNotOptimize(table.find_or_create(nth_tuple(i), /*now=*/i));
    }
    for (std::uint32_t i = 0; i < flows; ++i) {
      benchmark::DoNotOptimize(table.find(nth_tuple(i)));
    }
    memory = table.memory_bytes();
    max_probe = table.max_probe();
    ops += 2ull * flows + table.sweep(/*now=*/flows + seconds(60), seconds(30));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["flows"] = static_cast<double>(flows);
  state.counters["mbytes"] = static_cast<double>(memory) / (1024.0 * 1024.0);
  state.counters["max_probe"] = static_cast<double>(max_probe);

  const std::string scale = std::to_string(flows);
  obs::MetricsRegistry::global()
      .gauge("bench_flow_table_bytes", {{"flows", scale}})
      .set(static_cast<double>(memory));
  obs::MetricsRegistry::global()
      .gauge("bench_flow_max_probe", {{"flows", scale}})
      .set(static_cast<double>(max_probe));
}
BENCHMARK(BM_FlowTableChurn)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

/// The full element path: FlowManager classification plus a sticky LB,
/// 32 packets per iteration cycling through 1k concurrent flows.
void BM_FlowManagerPush(benchmark::State& state) {
  constexpr std::uint32_t kFlows = 1000;
  constexpr std::size_t kPerIteration = 32;
  EventScheduler sched;
  auto router = click::build_router(R"(
    from :: FromDevice(DEVNAME in0);
    fm :: FlowManager(CAPACITY 4096, TIMEOUT_MS 60000);
    lb :: FlowLB(N 2, MODE rr);
    a :: ToDevice(DEVNAME out0);
    b :: ToDevice(DEVNAME out1);
    from -> fm -> lb;
    lb[0] -> a;
    lb[1] -> b;
  )", sched);
  if (!router.ok()) {
    state.SkipWithError(router.error().to_string().c_str());
    return;
  }
  auto* from = dynamic_cast<click::FromDevice*>((*router)->element("from"));
  std::uint64_t sunk = 0;
  for (const char* dev : {"a", "b"}) {
    auto* to = dynamic_cast<click::ToDevice*>((*router)->element(dev));
    to->set_sink([&sunk](net::Packet&&) { ++sunk; });
  }

  // Pre-built frames: the bench measures classification, not building.
  std::vector<net::Packet> frames;
  frames.reserve(kFlows);
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    frames.push_back(net::make_udp_packet(
        net::MacAddr::from_u64(1), net::MacAddr::from_u64(2), net::Ipv4Addr(10, 0, 0, 1),
        net::Ipv4Addr(10, 0, 1, 1), static_cast<std::uint16_t>(1024 + i), 80, 98));
  }

  std::uint64_t pushed = 0;
  std::uint32_t next = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kPerIteration; ++i) {
      from->inject(net::Packet(frames[next]));
      next = (next + 1) % kFlows;
    }
    pushed += kPerIteration;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pushed));
  state.counters["sunk"] = static_cast<double>(sunk);

  // Steady state is virtual-time deterministic: every distinct tuple is
  // a live flow, none evicted.
  obs::MetricsRegistry::global()
      .gauge("bench_flow_active_flows", {})
      .set(std::stod((*router)->call_read("fm.flows").value()));
  obs::MetricsRegistry::global()
      .gauge("bench_flow_lb_backends", {})
      .set(2.0);
}
BENCHMARK(BM_FlowManagerPush)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace escape

ESCAPE_BENCH_MAIN("flow");
