// Experiment E2: mapping algorithm scaling and quality.
//
// Real (wall-clock) time per mapping is the figure of merit here: the
// greedy family stays ~linear in chain length x containers while
// backtracking explodes combinatorially; acceptance under load differs
// per algorithm (loadbalance accepts more chains on tight CPU budgets).
// What each case decided -- its path delay, the share of iterations it
// accepted and the chains admitted until full -- is deterministic and
// exported as bench_mapping_* gauges into BENCH_mapping.json, gated
// exact against the committed baseline.
#include "bench_common.hpp"
#include <benchmark/benchmark.h>

#include "obs/metrics.hpp"
#include "orchestrator/mapping.hpp"
#include "util/random.hpp"

using namespace escape;
using orchestrator::MappingRegistry;

namespace {

/// Random substrate: `n_sw` switches in a ring with random chords, one
/// container per switch, SAPs on switches 0 and n/2.
sg::ResourceGraph random_substrate(int n_sw, Rng& rng) {
  sg::ResourceGraph g;
  g.add_sap("sap1").add_sap("sap2");
  for (int i = 0; i < n_sw; ++i) {
    g.add_switch("s" + std::to_string(i));
    g.add_container("c" + std::to_string(i), 1.0, 8);
  }
  for (int i = 0; i < n_sw; ++i) {
    const int next = (i + 1) % n_sw;
    g.add_link("s" + std::to_string(i), 10, "s" + std::to_string(next), 11, 1'000'000'000,
               (500 + rng.next_below(1500)) * timeunit::kMicrosecond);
    g.add_link("c" + std::to_string(i), 0, "s" + std::to_string(i), 3, 1'000'000'000,
               100 * timeunit::kMicrosecond);
  }
  // Random chords add routing diversity.
  for (int i = 0; i < n_sw / 3; ++i) {
    const auto a = rng.next_below(static_cast<std::uint64_t>(n_sw));
    const auto b = rng.next_below(static_cast<std::uint64_t>(n_sw));
    if (a == b) continue;
    g.add_link("s" + std::to_string(a), static_cast<std::uint16_t>(20 + i),
               "s" + std::to_string(b), static_cast<std::uint16_t>(30 + i), 1'000'000'000,
               (500 + rng.next_below(1500)) * timeunit::kMicrosecond);
  }
  g.add_link("sap1", 0, "s0", 1, 1'000'000'000, 100 * timeunit::kMicrosecond);
  g.add_link("sap2", 0, "s" + std::to_string(n_sw / 2), 1, 1'000'000'000,
             100 * timeunit::kMicrosecond);
  return g;
}

sg::ServiceGraph random_chain(int k, Rng& rng) {
  sg::ServiceGraph g("rand");
  g.add_sap("sap1").add_sap("sap2");
  std::string prev = "sap1";
  for (int i = 0; i < k; ++i) {
    std::string id = "v" + std::to_string(i);
    g.add_vnf(id, "monitor", {}, 0.1 + 0.05 * static_cast<double>(rng.next_below(4)));
    g.add_link(prev, id, 1'000'000 * (1 + rng.next_below(10)));
    prev = id;
  }
  g.add_link(prev, "sap2", 1'000'000);
  return g;
}

void run_mapping_bench(benchmark::State& state, const char* algo_name) {
  const int chain_len = static_cast<int>(state.range(0));
  const int n_switches = static_cast<int>(state.range(1));
  Rng rng(1234);
  auto substrate = random_substrate(n_switches, rng);
  auto graph = random_chain(chain_len, rng);
  auto algo = MappingRegistry::global().create(algo_name);

  std::uint64_t ok = 0, total = 0;
  SimDuration delay = 0;
  for (auto _ : state) {
    sg::ResourceGraph view = substrate;  // fresh budgets per iteration
    auto result = algo->map(graph, view);
    ++total;
    if (result.ok()) {
      ++ok;
      delay = result->total_path_delay;
    }
    benchmark::DoNotOptimize(result);
  }
  const double accepted_pct =
      total ? 100.0 * static_cast<double>(ok) / static_cast<double>(total) : 0;
  state.counters["accepted_pct"] = accepted_pct;
  state.counters["path_delay_ms"] = static_cast<double>(delay) / timeunit::kMillisecond;
  state.counters["chain_len"] = chain_len;
  state.counters["switches"] = n_switches;
  const obs::Labels labels{{"algo", algo_name},
                           {"chain_len", std::to_string(chain_len)},
                           {"switches", std::to_string(n_switches)}};
  auto& registry = obs::MetricsRegistry::global();
  registry.gauge("bench_mapping_path_delay_us", labels)
      .set(static_cast<double>(delay) / timeunit::kMicrosecond);
  registry.gauge("bench_mapping_accepted_pct", labels).set(accepted_pct);
}

}  // namespace

#define MAPPING_BENCH(NAME, ALGO)                                     \
  static void NAME(benchmark::State& state) {                         \
    run_mapping_bench(state, ALGO);                                   \
  }                                                                   \
  BENCHMARK(NAME)->ArgsProduct({{1, 2, 4, 6}, {4, 8, 16}})->Unit(benchmark::kMicrosecond)

MAPPING_BENCH(BM_Map_Greedy, "greedy");
MAPPING_BENCH(BM_Map_LoadBalance, "loadbalance");
MAPPING_BENCH(BM_Map_DelayGreedy, "delaygreedy");
MAPPING_BENCH(BM_Map_Backtracking, "backtracking");

/// Acceptance-under-load: keep admitting chains into one shared view
/// until the first rejection; the counter reports how many fit.
static void BM_Map_AcceptanceUntilFull(benchmark::State& state) {
  const char* algo_name = state.range(0) == 0 ? "greedy" : "loadbalance";
  Rng rng(99);
  auto substrate = random_substrate(8, rng);
  auto algo = MappingRegistry::global().create(algo_name);
  double admitted = 0;
  for (auto _ : state) {
    sg::ResourceGraph view = substrate;
    Rng chain_rng(7);
    admitted = 0;
    while (true) {
      auto graph = random_chain(3, chain_rng);
      auto result = algo->map(graph, view);
      if (!result.ok()) break;
      admitted += 1;
      if (admitted > 1000) break;  // safety
    }
  }
  state.counters["admitted_chains"] = admitted;
  state.SetLabel(algo_name);
  obs::MetricsRegistry::global()
      .gauge("bench_mapping_admitted_chains", {{"algo", algo_name}})
      .set(admitted);
}
BENCHMARK(BM_Map_AcceptanceUntilFull)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

ESCAPE_BENCH_MAIN("mapping");
