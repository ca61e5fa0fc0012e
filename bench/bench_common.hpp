// Shared topology builders for the benchmark suite, plus the
// ESCAPE_BENCH_MAIN entry point that dumps the metrics registry to
// BENCH_<name>.json after the run (CI uploads these as artifacts).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>

#include "escape/environment.hpp"
#include "obs/metrics.hpp"

namespace escape::benchutil {

/// Writes the process-wide metrics snapshot to BENCH_<name>.json in the
/// working directory. Called once every benchmark (and so every
/// Environment) is gone: the series hosts, links and switches expose
/// have left with them, and the file holds the registry-owned metrics.
/// Returns false (with a note on stderr) on I/O error so benches still
/// exit 0 -- the artifact is best-effort.
inline bool write_bench_json(const std::string& name) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  out << obs::MetricsRegistry::global().snapshot_json().dump(2) << "\n";
  std::fprintf(stderr, "bench: metrics snapshot -> %s\n", path.c_str());
  return true;
}

/// Linear topology: sap1 - s1 - s2 - ... - sN - sap2, one container per
/// switch. Every link 1 Gb/s, 100 us.
inline void build_linear(Environment& env, int n_switches) {
  auto& net = env.network();
  netemu::LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.delay = 100 * timeunit::kMicrosecond;
  net.add_host("sap1");
  net.add_host("sap2");
  for (int i = 1; i <= n_switches; ++i) {
    net.add_switch("s" + std::to_string(i));
    net.add_container("c" + std::to_string(i), 4.0, 32);
    (void)net.add_link("c" + std::to_string(i), 0, "s" + std::to_string(i), 3, cfg);
    if (i > 1) {
      (void)net.add_link("s" + std::to_string(i - 1), 2, "s" + std::to_string(i), 1, cfg);
    }
  }
  (void)net.add_link("sap1", 0, "s1", 10, cfg);
  (void)net.add_link("sap2", 0, "s" + std::to_string(n_switches), 10, cfg);
}

/// A k-VNF monitor chain between sap1 and sap2.
inline sg::ServiceGraph monitor_chain(int k, double cpu = 0.05,
                                      std::uint64_t bw = 1'000'000) {
  sg::ServiceGraph g("bench-chain");
  g.add_sap("sap1").add_sap("sap2");
  std::string prev = "sap1";
  for (int i = 0; i < k; ++i) {
    std::string id = "v" + std::to_string(i);
    g.add_vnf(id, "monitor", {}, cpu);
    g.add_link(prev, id, bw);
    prev = id;
  }
  g.add_link(prev, "sap2", bw);
  return g;
}

}  // namespace escape::benchutil

/// Drop-in replacement for BENCHMARK_MAIN() that also emits the
/// BENCH_<name>.json metrics artifact after the benchmarks ran.
#define ESCAPE_BENCH_MAIN(name)                                      \
  int main(int argc, char** argv) {                                  \
    ::benchmark::Initialize(&argc, argv);                            \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {      \
      return 1;                                                      \
    }                                                                \
    ::benchmark::RunSpecifiedBenchmarks();                           \
    ::benchmark::Shutdown();                                         \
    ::escape::benchutil::write_bench_json(name);                     \
    return 0;                                                        \
  }                                                                  \
  static_assert(true, "require a trailing semicolon")
