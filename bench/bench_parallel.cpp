// Scaling of the sharded parallel event engine: the same multi-region
// traffic workload executed with 1/2/4/8 worker threads. The partition
// (8 regions) is fixed, so every thread count executes bit-identical
// event sequences -- the bench verifies that via the order digest while
// measuring wall-clock throughput. A second case drives 20 shards one
// step() at a time, the path control pumps take, and exports the
// engine's exact work counters for that run.
#include "bench_common.hpp"

#include <chrono>

#include "netemu/network.hpp"
#include "util/sharded_event.hpp"

namespace escape {
namespace {

constexpr int kRegions = 8;
constexpr int kPairsPerRegion = 2;
constexpr std::uint64_t kFramesPerFlow = 4000;

std::string region_name(int r, const std::string& suffix) {
  return "r" + std::to_string(r) + "_" + suffix;
}

/// kRegions islands of host pairs exchanging local traffic, chained by
/// gateway host pairs whose links carry the cross-region (cross-shard)
/// latency. Partitioned by region -> one shard per region.
void build_and_run(std::size_t threads, std::uint64_t* executed, std::uint64_t* digest,
                   double* virtual_ms) {
  ShardedScheduler sched;
  netemu::Network net{sched.shard(0)};

  netemu::LinkConfig intra;
  intra.bandwidth_bps = 10'000'000'000ULL;
  intra.delay = 20 * timeunit::kMicrosecond;
  netemu::LinkConfig inter = intra;
  inter.delay = 200 * timeunit::kMicrosecond;  // the conservative lookahead

  for (int r = 0; r < kRegions; ++r) {
    for (int p = 0; p < kPairsPerRegion; ++p) {
      const std::string a = region_name(r, "src" + std::to_string(p));
      const std::string b = region_name(r, "dst" + std::to_string(p));
      net.add_host(a);
      net.add_host(b);
      (void)net.add_link(a, 0, b, 0, intra);
    }
  }
  // Ring of gateway pairs: r0_gw1 - r1_gw0, r1_gw1 - r2_gw0, ...
  for (int r = 0; r < kRegions; ++r) {
    net.add_host(region_name(r, "gw1"));
    net.add_host(region_name((r + 1) % kRegions, "gw0" + std::to_string(r)));
    (void)net.add_link(region_name(r, "gw1"), 0,
                       region_name((r + 1) % kRegions, "gw0" + std::to_string(r)), 0, inter);
  }

  net.partition(sched, netemu::ShardBy::kRegion, threads);

  for (int r = 0; r < kRegions; ++r) {
    for (int p = 0; p < kPairsPerRegion; ++p) {
      auto* src = net.host(region_name(r, "src" + std::to_string(p)));
      auto* dst = net.host(region_name(r, "dst" + std::to_string(p)));
      src->start_udp_flow(dst->mac(), dst->ip(), 5000, 7777, kFramesPerFlow,
                          /*rate_pps=*/1'000'000, /*frame_size=*/1400);
    }
    auto* gw = net.host(region_name(r, "gw1"));
    auto* peer = net.host(region_name((r + 1) % kRegions, "gw0" + std::to_string(r)));
    gw->start_udp_flow(peer->mac(), peer->ip(), 6000, 8888, kFramesPerFlow / 4,
                       /*rate_pps=*/250'000, /*frame_size=*/1400);
  }

  sched.run();
  *executed = sched.executed_events();
  *digest = sched.order_digest();
  *virtual_ms = static_cast<double>(sched.now()) / timeunit::kMillisecond;
}

void BM_ParallelTraffic(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  static std::uint64_t reference_digest = 0;  // set by the threads=1 run

  std::uint64_t total_events = 0;
  std::uint64_t executed = 0, digest = 0;
  double virtual_ms = 0;
  for (auto _ : state) {
    build_and_run(threads, &executed, &digest, &virtual_ms);
    total_events += executed;
  }
  if (threads == 1) {
    reference_digest = digest;
  } else if (reference_digest != 0 && digest != reference_digest) {
    state.SkipWithError("order digest diverged from the single-thread run");
    return;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(total_events));
  state.counters["events"] = static_cast<double>(executed);
  state.counters["virtual_ms"] = virtual_ms;
  state.counters["threads"] = static_cast<double>(threads);

  // Mirror the workload size into the registry so BENCH_parallel.json
  // records the scaling runs (timing lives in the benchmark output).
  obs::MetricsRegistry::global()
      .gauge("bench_parallel_events_total", {{"threads", std::to_string(threads)}})
      .set(static_cast<double>(executed));
}
BENCHMARK(BM_ParallelTraffic)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// --- step-driven: what a control pump runs ---------------------------------------

constexpr std::size_t kStepShards = 20;  // the switch count of a k=4 fat tree
constexpr SimDuration kHop = timeunit::kMillisecond;
constexpr SimDuration kGrid = 10 * timeunit::kMicrosecond;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The StepDeterminism workload's shape (tests/parallel_test.cpp), run
/// for 400 ms of virtual time: every shard starts chains of hops, each
/// hop posts two or three mails 1 ms or more ahead to one other shard
/// (one carries the chain on), and it arms its shard's timer, or
/// cancels it while still pending.
struct StepChains {
  ShardedScheduler sched{kStepShards, 1};
  SimTime stop = 400 * kHop;
  std::vector<std::uint64_t> rng = std::vector<std::uint64_t>(kStepShards);
  std::vector<EventHandle> timer = std::vector<EventHandle>(kStepShards);

  StepChains() {
    for (std::size_t i = 0; i < kStepShards; ++i) {
      rng[i] = 0x5eed0000u + i;
      for (std::size_t j = 0; j < kStepShards; ++j) sched.add_lookahead_edge(i, j, kHop);
    }
    for (std::size_t i = 0; i < kStepShards; ++i) {
      sched.shard(i).schedule_at(0, [this, i] { hop(i); });
      sched.shard(i).schedule_at((i % 3) * kGrid, [this, i] { hop(i); });
    }
  }

  void hop(std::size_t s) {
    EventScheduler& self = sched.shard(s);
    if (self.now() >= stop) return;
    const std::uint64_t x = splitmix64(rng[s]);
    const std::size_t dst = (s + 1 + x % (kStepShards - 1)) % kStepShards;
    const std::size_t mails = 2 + (x >> 8) % 2;
    const std::size_t carrier = (x >> 12) % mails;
    for (std::size_t m = 0; m < mails; ++m) {
      const SimTime when = self.now() + kHop + (mails - 1 - m + ((x >> (16 + m)) & 1)) * kGrid;
      if (m == carrier) {
        sched.post_at(dst, when, [this, dst] { hop(dst); });
      } else {
        sched.post_at(dst, when, [] {});
      }
    }
    if (timer[s].pending()) {
      timer[s].cancel();
    } else {
      timer[s] = self.schedule(((x >> 24) % 50) * kGrid, [] {});
    }
  }
};

void BM_StepDriven(benchmark::State& state) {
  std::uint64_t steps = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t front_reads = 0;    // of one run: the same every iteration
  std::uint64_t outbox_visits = 0;  // likewise
  for (auto _ : state) {
    StepChains w;
    const auto t0 = std::chrono::steady_clock::now();
    while (w.sched.step()) ++steps;
    step_ns += static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                              std::chrono::steady_clock::now() - t0)
                                              .count());
    front_reads = w.sched.front_reads();
    outbox_visits = w.sched.outbox_visits();
  }
  benchmark::DoNotOptimize(steps);
  const double steps_per_run = static_cast<double>(steps) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["ns_per_step"] = static_cast<double>(step_ns) / static_cast<double>(steps);
  state.counters["front_reads_per_step"] = static_cast<double>(front_reads) / steps_per_run;
  state.counters["boxes_per_step"] = static_cast<double>(outbox_visits) / steps_per_run;

  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("bench_parallel_step_front_reads_total", {}).set(static_cast<double>(front_reads));
  reg.gauge("bench_parallel_step_outbox_visits_total", {}).set(static_cast<double>(outbox_visits));
}
BENCHMARK(BM_StepDriven)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace escape

ESCAPE_BENCH_MAIN("parallel");
