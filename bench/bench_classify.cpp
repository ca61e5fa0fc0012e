// Bench E8 -- million-flow classification: tuple-space-search FlowTable
// lookup throughput against the linear reference oracle, rule-install
// throughput and resync-batch latency at 1k/10k/100k/1M rules, and the
// table-miss (packet-in) service rate.
//
// Deterministic gauges (table sizes, mask-group counts, purge-examined
// counts) go into BENCH_classify.json for the CI regression gate;
// wall-clock throughput and the measured TSS-vs-linear speedup are
// artifact-only (the speedup is still recorded so the snapshot shows
// the order-of-magnitude win at 100k rules).
#include "bench_common.hpp"

#include <chrono>
#include <vector>

#include "openflow/flow_table.hpp"
#include "util/random.hpp"

#include "../tests/support/linear_flow_oracle.hpp"

namespace escape {
namespace {

using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::FlowTable;
using openflow::Match;
using openflow::testing::LinearFlowTableOracle;

net::FlowKey nth_key(std::uint32_t n) {
  net::FlowKey k;
  k.dl_type = net::ethertype::kIpv4;
  k.nw_proto = net::ipproto::kTcp;
  k.nw_src = net::Ipv4Addr(0x0a000000u + n);
  k.nw_dst = net::Ipv4Addr(0x14000000u + (n >> 8));
  k.tp_src = static_cast<std::uint16_t>(1024 + (n % 60000));
  k.tp_dst = 443;
  return k;
}

/// A realistic mix: mostly exact micro-flow rules plus a spread of
/// wildcard masks (CIDR aggregates, service ports, protocol catch-alls)
/// that forces multi-group probes. Seeded => identical on every run.
std::vector<FlowMod> rule_set(std::uint32_t rules) {
  Rng rng{rules * 2654435761u + 17};
  std::vector<FlowMod> mods;
  mods.reserve(rules);
  for (std::uint32_t i = 0; i < rules; ++i) {
    FlowMod mod;
    mod.cookie = i;
    const std::uint64_t r = rng.next_below(100);
    if (r < 90) {
      mod.match = Match::exact(nth_key(i));
      mod.priority = 0x8000;
    } else if (r < 94) {
      // 4096 distinct /24 aggregates (the varied bits sit above the
      // prefix boundary; host bits would canonicalize away).
      mod.match = Match().dl_type(net::ethertype::kIpv4).nw_dst(
          net::Ipv4Addr(0x14000000u + (static_cast<std::uint32_t>(rng.next_below(1 << 12)) << 8)),
          24);
      mod.priority = 200;
    } else if (r < 97) {
      // 256 distinct /16 aggregates.
      mod.match = Match()
                      .dl_type(net::ethertype::kIpv4)
                      .nw_proto(net::ipproto::kTcp)
                      .nw_src(net::Ipv4Addr(0x0a000000u + (static_cast<std::uint32_t>(
                                                               rng.next_below(1 << 8))
                                                           << 16)),
                              16);
      mod.priority = 150;
    } else if (r < 99) {
      mod.match = Match().dl_type(net::ethertype::kIpv4).tp_dst(
          static_cast<std::uint16_t>(rng.next_range(1, 1024)));
      mod.priority = 100;
    } else {
      mod.match = Match().in_port(static_cast<std::uint16_t>(rng.next_range(1, 48)));
      mod.priority = 50;
    }
    mods.push_back(std::move(mod));
  }
  return mods;
}

/// Lookup keys: 75% known micro-flows (hits), 25% strangers that fall
/// through to the wildcard groups or miss entirely.
std::vector<net::FlowKey> key_stream(std::uint32_t rules, std::size_t count) {
  Rng rng{rules + 99};
  std::vector<net::FlowKey> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.next_bool(0.75)) {
      keys.push_back(nth_key(static_cast<std::uint32_t>(rng.next_below(rules))));
    } else {
      net::FlowKey k = nth_key(static_cast<std::uint32_t>(rng.next_below(rules)));
      k.nw_src = net::Ipv4Addr(0xc0a80000u + static_cast<std::uint32_t>(rng.next_below(1 << 16)));
      keys.push_back(k);
    }
  }
  return keys;
}

/// Tuple-space lookup throughput at 1k..1M rules.
void BM_TssLookup(benchmark::State& state) {
  const auto rules = static_cast<std::uint32_t>(state.range(0));
  FlowTable table;
  table.apply_batch(rule_set(rules), 0);
  const auto keys = key_stream(rules, 8192);

  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(keys[i], 64, 1));
    i = (i + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rules"] = static_cast<double>(rules);
  state.counters["mask_groups"] = static_cast<double>(table.mask_group_count());

  const std::string scale = std::to_string(rules);
  obs::MetricsRegistry::global()
      .gauge("bench_classify_table_rules", {{"rules", scale}})
      .set(static_cast<double>(table.size()));
  obs::MetricsRegistry::global()
      .gauge("bench_classify_mask_groups", {{"rules", scale}})
      .set(static_cast<double>(table.mask_group_count()));
}
BENCHMARK(BM_TssLookup)->Arg(1'000)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

/// The same rule set through the linear oracle -- the seed
/// implementation's cost model. 1M is omitted: a single linear lookup
/// over a million wildcard rules takes milliseconds, which is the point.
void BM_LinearLookup(benchmark::State& state) {
  const auto rules = static_cast<std::uint32_t>(state.range(0));
  LinearFlowTableOracle oracle;
  oracle.apply_batch(rule_set(rules), 0);
  const auto keys = key_stream(rules, 8192);

  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.lookup(keys[i], 64, 1));
    i = (i + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rules"] = static_cast<double>(rules);
}
BENCHMARK(BM_LinearLookup)->Arg(1'000)->Arg(10'000)->Arg(100'000);

/// Measures the TSS-vs-linear speedup at 100k rules head to head over
/// the same key stream and records it in the snapshot. Wall-clock, so
/// artifact-only -- but the ratio is machine-stable to well within an
/// order of magnitude, and the acceptance bar is >= 10x.
void BM_LookupSpeedup100k(benchmark::State& state) {
  constexpr std::uint32_t kRules = 100'000;
  const auto mods = rule_set(kRules);
  const auto keys = key_stream(kRules, 4096);
  FlowTable table;
  table.apply_batch(mods, 0);
  LinearFlowTableOracle oracle;
  oracle.apply_batch(mods, 0);

  double speedup = 0;
  for (auto _ : state) {
    using clock = std::chrono::steady_clock;
    constexpr std::size_t kTssLookups = 100'000;
    constexpr std::size_t kLinearLookups = 500;
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < kTssLookups; ++i) {
      benchmark::DoNotOptimize(table.lookup(keys[i % keys.size()], 64, 1));
    }
    const auto t1 = clock::now();
    for (std::size_t i = 0; i < kLinearLookups; ++i) {
      benchmark::DoNotOptimize(oracle.lookup(keys[i % keys.size()], 64, 1));
    }
    const auto t2 = clock::now();
    const double tss_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                          static_cast<double>(kTssLookups);
    const double linear_ns = std::chrono::duration<double, std::nano>(t2 - t1).count() /
                             static_cast<double>(kLinearLookups);
    speedup = linear_ns / tss_ns;
    state.counters["tss_ns"] = tss_ns;
    state.counters["linear_ns"] = linear_ns;
  }
  state.counters["speedup"] = speedup;
  obs::MetricsRegistry::global().gauge("bench_classify_lookup_speedup_100k", {}).set(speedup);
}
BENCHMARK(BM_LookupSpeedup100k)->Iterations(1);

/// Rule-install throughput: one apply_batch of N adds into an empty
/// table. Per-rule cost should stay flat from 10k to 1M (sub-linear
/// total growth); the per-rule nanoseconds land in the snapshot.
void BM_RuleInstall(benchmark::State& state) {
  const auto rules = static_cast<std::uint32_t>(state.range(0));
  const auto mods = rule_set(rules);
  double ns_per_rule = 0;
  for (auto _ : state) {
    state.PauseTiming();
    FlowTable table;
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    table.apply_batch(mods, 0);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(table.size());
    ns_per_rule =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / static_cast<double>(rules);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * rules);
  state.counters["ns_per_rule"] = ns_per_rule;
  obs::MetricsRegistry::global()
      .gauge("bench_classify_install_ns_per_rule", {{"rules", std::to_string(rules)}})
      .set(ns_per_rule);
}
BENCHMARK(BM_RuleInstall)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

/// Resync repair batch: 1k strict purges + 1k reinstalls against a
/// standing table of N rules (the steering audit's repair path). Cost
/// must track the batch size, not the table size; the strict purge
/// examines exactly its own bucket.
void BM_ResyncBatch(benchmark::State& state) {
  const auto rules = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint32_t kBatch = 1'000;
  FlowTable table;
  table.apply_batch(rule_set(rules), 0);

  std::vector<FlowMod> repair;
  repair.reserve(2 * kBatch);
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    FlowMod del;
    del.command = FlowModCommand::kDeleteStrict;
    del.match = Match::exact(nth_key(i));
    del.priority = 0x8000;
    repair.push_back(del);
  }
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    FlowMod add;
    add.match = Match::exact(nth_key(i));
    add.priority = 0x8000;
    add.cookie = i;
    repair.push_back(add);
  }

  double ns_per_mod = 0;
  std::size_t examined = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    table.apply_batch(repair, 1);
    const auto t1 = std::chrono::steady_clock::now();
    examined = table.last_delete_examined();
    ns_per_mod = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(repair.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * repair.size());
  state.counters["ns_per_mod"] = ns_per_mod;

  const std::string scale = std::to_string(rules);
  obs::MetricsRegistry::global()
      .gauge("bench_classify_resync_ns_per_mod", {{"rules", scale}})
      .set(ns_per_mod);
  // Deterministic: the last strict delete of the batch examined exactly
  // the one entry in its bucket, independent of the table size.
  obs::MetricsRegistry::global()
      .gauge("bench_classify_strict_delete_examined", {{"rules", scale}})
      .set(static_cast<double>(examined));
}
BENCHMARK(BM_ResyncBatch)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

/// Table-miss service rate: the packet-in path. Every key misses and
/// probes every eligible tuple space.
void BM_MissPath(benchmark::State& state) {
  constexpr std::uint32_t kRules = 100'000;
  FlowTable table;
  table.apply_batch(rule_set(kRules), 0);

  Rng rng{7};
  std::vector<net::FlowKey> keys;
  for (int i = 0; i < 1024; ++i) {
    net::FlowKey k;
    k.dl_type = net::ethertype::kArp;  // no rule matches ARP in the set
    k.nw_src = net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64()));
    keys.push_back(k);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(keys[i], 64, 1));
    i = (i + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MissPath);

}  // namespace
}  // namespace escape

ESCAPE_BENCH_MAIN("classify");
