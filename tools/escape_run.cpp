// escape-run: the command-line front end of the framework -- the
// replacement for the paper's MiniEdit-based GUI workflow. Takes a
// topology description and a service-graph description (both JSON),
// deploys the chain, drives traffic between its SAPs and prints a
// deployment / traffic / monitoring report.
//
//   escape-run <topology.json> <service_graph.json>
//              [--algorithm greedy|loadbalance|delaygreedy|backtracking]
//              [--rate PPS] [--count N] [--duration SECONDS]
//              [--return-path] [--verbose]
//              [--metrics] [--metrics-json FILE]
//              [--monitor VNF] [--monitor-interval MS]
//              [--faults FILE] [--self-heal] [--autoscale FILE]
//              [--threads N] [--shard-by region|switch|none]
//              [--flow-capacity N] [--flow-timeout-ms MS]
//
// Synthetic-workload mode (no JSON artifacts; see src/util/workload.hpp):
//
//   escape-run --workload [--workload-seed N] [--workload-k K]
//              [--workload-flows N] [--workload-chains N]
//              [--rate PPS] [--metrics] [--metrics-json FILE] ...
//
// Chaos-exploration mode (no JSON artifacts; the built-in lifecycle
// scenario is recorded, then replayed under every enumerated fault
// schedule with global invariant checking):
//
//   escape-run --chaos-explore [--chaos-depth N] [--chaos-seed N]
//              [--chaos-max N] [--chaos-artifacts DIR] [--threads N]
//              [--probe-interval-ms MS] [--probe-miss N]
//   escape-run --chaos-replay FILE [--threads N]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "chaos/explorer.hpp"
#include "chaos/scenario.hpp"
#include "click/flow.hpp"
#include "escape/environment.hpp"
#include "fault/fault_plane.hpp"
#include "obs/metrics.hpp"
#include "util/workload.hpp"

using namespace escape;

namespace {

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return make_error("cli.io", "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Options {
  std::string topology_path;
  std::string sg_path;
  std::string algorithm = "greedy";
  std::uint64_t rate = 1000;
  std::uint64_t count = 1000;
  std::uint64_t duration_s = 2;
  bool return_path = false;
  bool verbose = false;
  bool metrics = false;
  std::string metrics_json_path;
  std::string monitor_vnf;  // live per-VNF monitor (Clicky-style)
  std::uint64_t monitor_interval_ms = 500;
  std::string faults_path;  // chaos script (fault::FaultPlane JSON)
  std::string autoscale_path;  // elastic-scaling policy (AutoScaler JSON)
  bool self_heal = false;
  std::uint64_t of_echo_ms = 0;  // 0 = default OpenFlow keepalive cadence
  std::uint64_t threads = 1;     // event-engine worker threads
  netemu::ShardBy shard_by = netemu::ShardBy::kNone;
  bool workload = false;  // synthetic fat-tree workload instead of JSON inputs
  workload::Options workload_opts;
  // Health-probe tuning (satellite of the self-healing loop); 0 / -1
  // keep the compiled-in defaults.
  std::uint64_t probe_interval_ms = 0;
  std::uint64_t probe_timeout_ms = 0;
  int probe_miss = 0;
  // Chaos exploration (src/chaos).
  bool chaos_explore = false;
  int chaos_depth = 1;
  std::uint64_t chaos_seed = 1;
  std::uint64_t chaos_max = 0;
  std::string chaos_artifacts;
  std::string chaos_replay_path;
};

chaos::LifecycleScenarioOptions scenario_options(const Options& opts) {
  chaos::LifecycleScenarioOptions scenario;
  scenario.threads = opts.threads;
  if (opts.probe_interval_ms > 0) {
    scenario.probe_interval = opts.probe_interval_ms * timeunit::kMillisecond;
  }
  if (opts.probe_timeout_ms > 0) {
    scenario.probe_timeout = opts.probe_timeout_ms * timeunit::kMillisecond;
  }
  if (opts.probe_miss > 0) scenario.probe_miss = opts.probe_miss;
  return scenario;
}

/// --chaos-explore: systematic fault-schedule search over the built-in
/// lifecycle scenario. Exit code 1 when any schedule breaks an invariant.
int run_chaos_explore(const Options& opts) {
  chaos::ExplorerOptions explorer_opts;
  explorer_opts.depth = opts.chaos_depth;
  explorer_opts.seed = opts.chaos_seed;
  explorer_opts.max_schedules = opts.chaos_max;
  explorer_opts.artifact_dir = opts.chaos_artifacts;
  chaos::ChaosExplorer explorer(chaos::lifecycle_scenario(scenario_options(opts)),
                                explorer_opts);
  chaos::ExploreReport report = explorer.explore();
  std::printf("chaos-explore: %s\n", report.summary().c_str());
  if (!report.clean_violations.empty()) {
    for (const auto& v : report.clean_violations) {
      std::printf("  clean-run violation: %s\n", chaos::to_string(v).c_str());
    }
    return 1;
  }
  for (std::size_t i = 0; i < report.episodes.size(); ++i) {
    const chaos::Episode& episode = report.episodes[i];
    if (!episode.failed()) continue;
    std::printf("FAIL schedule #%zu:\n", i);
    for (const auto& spec : episode.schedule) {
      std::printf("  fault %s\n", spec.to_string().c_str());
    }
    for (const auto& v : episode.violations) {
      std::printf("  violation %s\n", chaos::to_string(v).c_str());
    }
  }
  return report.failures() == 0 ? 0 : 1;
}

/// --chaos-replay FILE: replay one (typically minimized) schedule.
int run_chaos_replay(const Options& opts) {
  auto text = read_file(opts.chaos_replay_path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.error().to_string().c_str());
    return 1;
  }
  auto schedule = chaos::schedule_from_json(*text);
  if (!schedule.ok()) {
    std::fprintf(stderr, "chaos-replay: %s\n", schedule.error().to_string().c_str());
    return 1;
  }
  chaos::ChaosExplorer explorer(chaos::lifecycle_scenario(scenario_options(opts)), {});
  chaos::Episode episode = explorer.run_schedule(*schedule);
  std::printf("chaos-replay: %zu fault(s) armed, %zu fired, digest %llu\n",
              episode.schedule.size(), episode.faults_fired,
              static_cast<unsigned long long>(episode.digest));
  for (const auto& v : episode.violations) {
    std::printf("  violation %s\n", chaos::to_string(v).c_str());
  }
  if (episode.violations.empty()) std::printf("  all invariants hold\n");
  return episode.failed() ? 1 : 0;
}

/// Prints the registry lines that belong to one VNF (matched by its
/// vnf="..." label), prefixed with the current virtual time. Call it
/// between run_until slices, never from an event: rendering reads the
/// handlers of VNFs on every shard, so no shard may be running.
void print_monitor_sample(const Options& opts, SimTime now) {
  const std::string needle = "vnf=\"" + opts.monitor_vnf + "\"";
  std::istringstream lines(obs::MetricsRegistry::global().render_text());
  std::printf("-- t=%.1f ms  vnf=%s --\n",
              static_cast<double>(now) / timeunit::kMillisecond, opts.monitor_vnf.c_str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(needle) != std::string::npos) std::printf("  %s\n", line.c_str());
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <topology.json> <service_graph.json>\n"
               "          [--algorithm NAME] [--rate PPS] [--count N]\n"
               "          [--duration SECONDS] [--return-path] [--verbose]\n"
               "          [--metrics] [--metrics-json FILE]\n"
               "          [--monitor VNF] [--monitor-interval MS]\n"
               "          [--faults FILE] [--self-heal] [--of-echo-ms MS]\n"
               "          [--autoscale FILE]\n"
               "          [--threads N] [--shard-by region|switch|none]\n"
               "          [--flow-capacity N] [--flow-timeout-ms MS]\n"
               "   or: %s --workload [--workload-seed N] [--workload-k K]\n"
               "          [--workload-flows N] [--workload-chains N] ...\n"
               "   or: %s --chaos-explore [--chaos-depth N] [--chaos-seed N]\n"
               "          [--chaos-max N] [--chaos-artifacts DIR] [--threads N]\n"
               "          [--probe-interval-ms MS] [--probe-timeout-ms MS]\n"
               "          [--probe-miss N]\n"
               "   or: %s --chaos-replay FILE [--threads N]\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

/// --workload: synthesize a fat-tree substrate and a heavy-tailed
/// traffic + chain-churn schedule from a seed, then run it. This is the
/// paper's "scalability" demo without hand-authored JSON, and the same
/// generator the classification benches replay (bench E8).
int run_workload(const Options& opts) {
  const workload::Plan plan = workload::generate(opts.workload_opts);

  // Materialize the plan as a TopologySpec: auto-assigned ports (0 for
  // hosts/containers, dense from 1 for switches -- the spec only needs
  // them unique per node).
  service::TopologySpec spec;
  spec.name = "fat-tree-workload";
  for (const auto& h : plan.hosts) spec.nodes.push_back({h, "host", 1.0, 8});
  for (const auto& s : plan.switches) spec.nodes.push_back({s, "switch", 1.0, 8});
  for (const auto& c : plan.containers) spec.nodes.push_back({c, "container", 4.0, 16});
  std::map<std::string, std::uint16_t> next_port;
  for (const auto& s : plan.switches) next_port[s] = 1;
  auto port_of = [&next_port](const std::string& node) -> std::uint16_t {
    auto it = next_port.find(node);
    return it == next_port.end() ? 0 : it->second++;
  };
  for (const auto& l : plan.links) {
    service::TopologyLinkSpec link;
    link.a = l.a;
    link.port_a = port_of(l.a);
    link.b = l.b;
    link.port_b = port_of(l.b);
    spec.links.push_back(link);
  }

  EnvironmentOptions env_opts{.mapping_algorithm = opts.algorithm};
  env_opts.threads = opts.threads;
  env_opts.shard_by = opts.shard_by;
  Environment env{env_opts};
  if (auto s = env.load_topology(spec); !s.ok()) {
    std::fprintf(stderr, "build: %s\n", s.error().to_string().c_str());
    return 1;
  }
  if (auto s = env.start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.error().to_string().c_str());
    return 1;
  }
  std::printf(
      "workload: fat-tree k=%u, %zu hosts, %zu switches, %zu flows, "
      "%zu churn events (seed %llu)\n",
      opts.workload_opts.fattree_k, plan.hosts.size(), plan.switches.size(),
      plan.arrivals.size(), plan.churn.size(),
      static_cast<unsigned long long>(opts.workload_opts.seed));

  // Plan times are relative to t=0 but env.start() already advanced the
  // virtual clock (discovery, handshakes), so rebase everything on "now".
  const SimTime base = env.scheduler().now();

  // Flow arrivals: every event starts a UDP flow at its planned virtual
  // time; the per-flow packet rate comes from --rate. Each arrival goes
  // straight onto the source host's shard, so starting the flow is a
  // shard-local event even with --threads N (cross-shard hops then ride
  // the links' registered lookahead).
  std::uint64_t packets_offered = 0;
  for (const auto& fa : plan.arrivals) {
    packets_offered += fa.packets;
    netemu::Host* src = env.host(plan.hosts[fa.src_host]);
    netemu::Host* dst = env.host(plan.hosts[fa.dst_host]);
    if (!src || !dst) continue;
    src->scheduler().schedule_at(base + fa.at, [src, dst, fa, rate = opts.rate] {
      src->start_udp_flow(dst->mac(), dst->ip(), fa.src_port, fa.dst_port, fa.packets, rate);
    });
  }

  // Chain churn: each slot alternates deploy/teardown of a one-firewall
  // chain between a fixed pair of hosts. Deploys are whole-network
  // orchestration, so they run on the control thread *between* scheduler
  // segments (like the JSON workflow's deploy-then-run), not inside an
  // event. Deploy failures (e.g. substrate exhaustion) are counted, not
  // fatal -- churn keeps running.
  std::map<std::uint32_t, std::uint32_t> live;  // slot -> chain id
  std::uint64_t deploys = 0, teardowns = 0, failures = 0;
  for (const auto& ev : plan.churn) {
    env.scheduler().run_until(base + ev.at);
    if (ev.deploy) {
      const std::size_t n = plan.hosts.size();
      const std::string& a = plan.hosts[(2 * ev.slot) % n];
      const std::string& b = plan.hosts[(2 * ev.slot + 1) % n];
      sg::ServiceGraph graph("churn-" + std::to_string(ev.slot));
      const std::string fw = "fw_slot" + std::to_string(ev.slot);
      graph.add_sap(a);
      graph.add_vnf(fw, "firewall", {{"default", "allow"}}, 0.05);
      graph.add_link(a, fw);
      graph.add_link(fw, b);
      graph.add_sap(b);
      auto id = env.deploy(graph);
      if (id.ok()) {
        live[ev.slot] = *id;
        ++deploys;
      } else {
        ++failures;
      }
    } else {
      auto it = live.find(ev.slot);
      if (it == live.end()) continue;  // matching deploy failed
      if (env.undeploy(it->second).ok()) ++teardowns;
      live.erase(it);
    }
  }

  // Run to the planned horizon plus drain time for in-flight packets.
  env.scheduler().run_until(base + plan.horizon + seconds(opts.duration_s));

  std::uint64_t delivered = 0;
  for (const auto& h : plan.hosts) {
    if (netemu::Host* host = env.host(h)) delivered += host->rx_packets();
  }
  std::printf("traffic: %llu/%llu packets delivered across %zu flows\n",
              static_cast<unsigned long long>(delivered),
              static_cast<unsigned long long>(packets_offered), plan.arrivals.size());
  std::printf("churn: %llu deploys, %llu teardowns, %llu failures, %zu chains live at end\n",
              static_cast<unsigned long long>(deploys),
              static_cast<unsigned long long>(teardowns),
              static_cast<unsigned long long>(failures), live.size());

  if (opts.metrics) {
    std::printf("\n=== metrics (Prometheus text exposition) ===\n%s",
                obs::MetricsRegistry::global().render_text().c_str());
  }
  if (!opts.metrics_json_path.empty()) {
    std::ofstream out(opts.metrics_json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opts.metrics_json_path.c_str());
      return 1;
    }
    out << obs::MetricsRegistry::global().snapshot_json().dump(2) << "\n";
    std::printf("metrics snapshot written to %s\n", opts.metrics_json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--algorithm") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.algorithm = v;
    } else if (arg == "--rate") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.rate = std::strtoull(v, nullptr, 10);
    } else if (arg == "--count") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.count = std::strtoull(v, nullptr, 10);
    } else if (arg == "--duration") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.duration_s = std::strtoull(v, nullptr, 10);
    } else if (arg == "--return-path") {
      opts.return_path = true;
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else if (arg == "--metrics") {
      opts.metrics = true;
    } else if (arg == "--metrics-json") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.metrics_json_path = v;
    } else if (arg == "--monitor") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.monitor_vnf = v;
    } else if (arg == "--monitor-interval") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.monitor_interval_ms = std::strtoull(v, nullptr, 10);
      if (opts.monitor_interval_ms == 0) opts.monitor_interval_ms = 1;
    } else if (arg == "--faults") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.faults_path = v;
    } else if (arg == "--autoscale") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.autoscale_path = v;
    } else if (arg == "--of-echo-ms") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.of_echo_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--self-heal") {
      opts.self_heal = true;
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.threads = std::strtoull(v, nullptr, 10);
      if (opts.threads == 0) opts.threads = 1;
    } else if (arg == "--shard-by") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "region") == 0) {
        opts.shard_by = netemu::ShardBy::kRegion;
      } else if (std::strcmp(v, "switch") == 0) {
        opts.shard_by = netemu::ShardBy::kSwitch;
      } else if (std::strcmp(v, "none") == 0) {
        opts.shard_by = netemu::ShardBy::kNone;
      } else {
        std::fprintf(stderr, "unknown --shard-by mode: %s\n", v);
        return usage(argv[0]);
      }
    } else if (arg == "--flow-capacity") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      // Process-wide defaults used by every FlowManager whose CAPACITY /
      // TIMEOUT_MS is "default" -- i.e. the catalog-rendered chains.
      click::FlowManager::set_default_capacity(std::strtoull(v, nullptr, 10));
    } else if (arg == "--flow-timeout-ms") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      click::FlowManager::set_default_idle_timeout(
          milliseconds(std::strtoull(v, nullptr, 10)));
    } else if (arg == "--workload") {
      opts.workload = true;
    } else if (arg == "--workload-seed") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.workload_opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--workload-k") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.workload_opts.fattree_k =
          static_cast<std::uint32_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--workload-flows") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.workload_opts.flows = std::strtoull(v, nullptr, 10);
    } else if (arg == "--workload-chains") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.workload_opts.chains =
          static_cast<std::uint32_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--probe-interval-ms") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.probe_interval_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--probe-timeout-ms") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.probe_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--probe-miss") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.probe_miss = static_cast<int>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--chaos-explore") {
      opts.chaos_explore = true;
    } else if (arg == "--chaos-depth") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.chaos_depth = static_cast<int>(std::strtoull(v, nullptr, 10));
      if (opts.chaos_depth < 1) opts.chaos_depth = 1;
    } else if (arg == "--chaos-seed") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.chaos_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--chaos-max") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.chaos_max = std::strtoull(v, nullptr, 10);
    } else if (arg == "--chaos-artifacts") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.chaos_artifacts = v;
    } else if (arg == "--chaos-replay") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.chaos_replay_path = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }
  if (opts.workload) {
    if (!positional.empty()) return usage(argv[0]);  // plan is synthesized
    Logging::set_level(opts.verbose ? LogLevel::kInfo : LogLevel::kWarn);
    return run_workload(opts);
  }
  if (opts.chaos_explore || !opts.chaos_replay_path.empty()) {
    if (!positional.empty()) return usage(argv[0]);  // scenario is built in
    Logging::set_level(opts.verbose ? LogLevel::kInfo : LogLevel::kWarn);
    return opts.chaos_explore ? run_chaos_explore(opts) : run_chaos_replay(opts);
  }
  if (positional.size() != 2) return usage(argv[0]);
  opts.topology_path = positional[0];
  opts.sg_path = positional[1];

  Logging::set_level(opts.verbose ? LogLevel::kInfo : LogLevel::kWarn);

  // --- load the two artifacts -------------------------------------------
  auto topo_text = read_file(opts.topology_path);
  if (!topo_text.ok()) {
    std::fprintf(stderr, "%s\n", topo_text.error().to_string().c_str());
    return 1;
  }
  auto spec = service::TopologySpec::from_json(*topo_text);
  if (!spec.ok()) {
    std::fprintf(stderr, "topology: %s\n", spec.error().to_string().c_str());
    return 1;
  }
  auto sg_text = read_file(opts.sg_path);
  if (!sg_text.ok()) {
    std::fprintf(stderr, "%s\n", sg_text.error().to_string().c_str());
    return 1;
  }
  auto graph = service::service_graph_from_json(*sg_text);
  if (!graph.ok()) {
    std::fprintf(stderr, "service graph: %s\n", graph.error().to_string().c_str());
    return 1;
  }

  // --- bring the environment up ------------------------------------------
  EnvironmentOptions env_opts{.mapping_algorithm = opts.algorithm};
  env_opts.threads = opts.threads;
  env_opts.shard_by = opts.shard_by;
  if (opts.of_echo_ms > 0) {
    // Faster OpenFlow keepalives so short chaos runs can actually see
    // echo-timeout detection (default cadence is one probe per second).
    env_opts.controller_liveness.echo_interval = opts.of_echo_ms * timeunit::kMillisecond;
    env_opts.switch_liveness.echo_interval = opts.of_echo_ms * timeunit::kMillisecond;
  }
  Environment env{env_opts};
  if (auto s = env.load_topology(*spec); !s.ok()) {
    std::fprintf(stderr, "build: %s\n", s.error().to_string().c_str());
    return 1;
  }
  if (auto s = env.start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.error().to_string().c_str());
    return 1;
  }
  std::printf("topology '%s': %zu switches, %zu containers, %zu hosts\n",
              spec->name.c_str(), env.network().switch_count(),
              env.network().container_count(), env.network().host_count());

  if (opts.self_heal) {
    // Probe cadence used to be compile-time only; --probe-interval-ms /
    // --probe-timeout-ms / --probe-miss now override the defaults.
    RecoveryOptions recovery;
    if (opts.probe_interval_ms > 0) {
      recovery.health.probe_interval = opts.probe_interval_ms * timeunit::kMillisecond;
    }
    if (opts.probe_timeout_ms > 0) {
      recovery.health.probe_timeout = opts.probe_timeout_ms * timeunit::kMillisecond;
    }
    if (opts.probe_miss > 0) recovery.health.failure_threshold = opts.probe_miss;
    if (auto s = env.enable_self_healing(recovery); !s.ok()) {
      std::fprintf(stderr, "self-heal: %s\n", s.error().to_string().c_str());
      return 1;
    }
    std::printf(
        "self-healing enabled (probe every %.0f ms, timeout %.0f ms, "
        "%d misses -> dead)\n",
        static_cast<double>(recovery.health.probe_interval) / timeunit::kMillisecond,
        static_cast<double>(recovery.health.probe_timeout) / timeunit::kMillisecond,
        recovery.health.failure_threshold);
  }

  // The fault plane must outlive the traffic run: repeating events stay
  // armed in the scheduler until the plane is destroyed.
  fault::FaultPlane faults{env};
  if (!opts.faults_path.empty()) {
    auto script = read_file(opts.faults_path);
    if (!script.ok()) {
      std::fprintf(stderr, "%s\n", script.error().to_string().c_str());
      return 1;
    }
    if (auto s = faults.load_json(*script); !s.ok()) {
      std::fprintf(stderr, "faults: %s\n", s.error().to_string().c_str());
      return 1;
    }
    std::printf("fault script '%s': %zu events armed\n", opts.faults_path.c_str(),
                faults.scheduled());
  }

  // --- deploy --------------------------------------------------------------
  auto chain = env.deploy(*graph);
  if (!chain.ok()) {
    std::fprintf(stderr, "deploy: %s\n", chain.error().to_string().c_str());
    return 1;
  }
  const ChainDeployment* dep = env.deployment(*chain);
  std::printf("chain %u '%s' deployed with %s\n", *chain, graph->name().c_str(),
              dep->record.mapping.to_string().c_str());
  std::printf("setup latency: %.3f ms (virtual)\n",
              static_cast<double>(dep->record.setup_latency()) / timeunit::kMillisecond);
  if (opts.return_path) {
    auto reverse = env.install_return_path(*chain);
    if (!reverse.ok()) {
      std::fprintf(stderr, "return path: %s\n", reverse.error().to_string().c_str());
      return 1;
    }
    std::printf("return path installed (chain %u)\n", *reverse);
  }

  // --- elastic scaling ----------------------------------------------------
  if (!opts.autoscale_path.empty()) {
    auto policy_text = read_file(opts.autoscale_path);
    if (!policy_text.ok()) {
      std::fprintf(stderr, "%s\n", policy_text.error().to_string().c_str());
      return 1;
    }
    auto policy = orchestrator::autoscale_options_from_json(*policy_text);
    if (!policy.ok()) {
      std::fprintf(stderr, "autoscale: %s\n", policy.error().to_string().c_str());
      return 1;
    }
    const std::size_t policies = policy->policies.size();
    if (auto s = env.enable_autoscaling(std::move(*policy)); !s.ok()) {
      std::fprintf(stderr, "autoscale: %s\n", s.error().to_string().c_str());
      return 1;
    }
    std::printf("autoscaling enabled (%zu policies from %s)\n", policies,
                opts.autoscale_path.c_str());
  }

  // --- traffic ---------------------------------------------------------------
  auto order = graph->chain_order();
  netemu::Host* src = env.host(order->front());
  netemu::Host* dst = env.host(order->back());
  src->start_udp_flow(dst->mac(), dst->ip(), 40000, 80, opts.count, opts.rate);

  // Clicky-style live monitor: the traffic runs in slices of virtual
  // time and the registry is sampled between them.
  const SimTime end = env.scheduler().now() + seconds(opts.duration_s);
  if (!opts.monitor_vnf.empty()) {
    const SimDuration interval = opts.monitor_interval_ms * timeunit::kMillisecond;
    std::printf("\nlive monitor (every %llu ms virtual):\n",
                static_cast<unsigned long long>(opts.monitor_interval_ms));
    for (SimTime t = env.scheduler().now() + interval; t <= end; t += interval) {
      env.scheduler().run_until(t);
      print_monitor_sample(opts, t);
    }
  }
  env.scheduler().run_until(end);

  std::printf("\ntraffic %s -> %s: %llu/%llu delivered",
              order->front().c_str(), order->back().c_str(),
              static_cast<unsigned long long>(dst->rx_packets()),
              static_cast<unsigned long long>(opts.count));
  if (dst->latency_us().count()) {
    std::printf(", latency p50 %.1f us p95 %.1f us", dst->latency_us().p50(),
                dst->latency_us().p95());
  }
  std::printf("\n");

  if (!opts.faults_path.empty()) {
    std::printf("faults injected: %llu\n",
                static_cast<unsigned long long>(faults.injections()));
    for (std::uint32_t id : env.deployed_chains()) {
      auto state = env.chain_state(id);
      if (state.ok()) {
        std::printf("chain %u state: %s\n", id,
                    std::string(chain_state_name(*state)).c_str());
      }
    }
  }

  if (!opts.autoscale_path.empty()) {
    std::printf("chain %u instances at end: %zu (generation %u)\n", *chain,
                dep->scale_instances, dep->scale_generation);
  }

  auto stats = env.chain_stats(*chain);
  if (stats.ok()) {
    std::printf("chain flow stats (first hop): %llu packets, %llu bytes across %zu flows\n",
                static_cast<unsigned long long>(stats->packets),
                static_cast<unsigned long long>(stats->bytes), stats->flows);
  }

  // --- monitoring ---------------------------------------------------------------
  std::printf("\nVNF monitoring (NETCONF getVNFInfo):\n");
  for (const auto& vnf : dep->record.vnfs) {
    auto info = env.monitor_vnf(vnf.container, vnf.instance_id);
    if (!info.ok()) continue;
    std::printf("  %s (%s) @ %s [%s] cpu=%.2f\n", vnf.vnf_id.c_str(),
                info->vnf_type.c_str(), vnf.container.c_str(),
                std::string(netemu::vnf_status_name(info->status)).c_str(),
                info->cpu_share);
    for (const auto& [handler, value] : info->handlers) {
      if (opts.verbose || handler.find("count") != std::string::npos ||
          handler.find("denied") != std::string::npos ||
          handler.find("accepted") != std::string::npos) {
        std::printf("    %-26s %s\n", handler.c_str(), value.c_str());
      }
    }
  }

  // --- observability snapshot -----------------------------------------------
  if (opts.metrics) {
    std::printf("\n=== metrics (Prometheus text exposition) ===\n%s",
                obs::MetricsRegistry::global().render_text().c_str());
  }
  if (!opts.metrics_json_path.empty()) {
    std::ofstream out(opts.metrics_json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opts.metrics_json_path.c_str());
      return 1;
    }
    out << obs::MetricsRegistry::global().snapshot_json().dump(2) << "\n";
    std::printf("\nmetrics snapshot written to %s\n", opts.metrics_json_path.c_str());
  }
  return 0;
}
