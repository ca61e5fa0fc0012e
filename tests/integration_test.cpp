// Integration tests: the whole ESCAPE environment end to end -- the
// paper's five demo steps plus failure handling, multi-chain operation
// and CPU contention (Fig. 1 exercised in one process).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

#include "escape/environment.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

namespace escape {
namespace {

/// The quickstart topology: two SAPs, two switches, two containers.
/// A high `c1_switch_port` leaves few s1 ports below OFPP_MAX (0xff00)
/// for veths.
void build_demo_topology(Environment& env, std::uint16_t c1_switch_port = 3) {
  auto& net = env.network();
  net.add_host("sap1");
  net.add_host("sap2");
  net.add_switch("s1");
  net.add_switch("s2");
  net.add_container("c1", 1.0, 8);
  net.add_container("c2", 1.0, 8);
  netemu::LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.delay = 100 * timeunit::kMicrosecond;
  ASSERT_TRUE(net.add_link("sap1", 0, "s1", 1, cfg).ok());
  ASSERT_TRUE(net.add_link("sap2", 0, "s2", 1, cfg).ok());
  ASSERT_TRUE(net.add_link("s1", 2, "s2", 2, cfg).ok());
  ASSERT_TRUE(net.add_link("c1", 0, "s1", c1_switch_port, cfg).ok());
  ASSERT_TRUE(net.add_link("c2", 0, "s2", 3, cfg).ok());
}

sg::ServiceGraph demo_graph() {
  sg::ServiceGraph g("demo");
  g.add_sap("sap1")
      .add_sap("sap2")
      .add_vnf("mon1", "monitor", {}, 0.1)
      .add_vnf("fw1", "firewall",
               {{"rules", "deny udp && dst port 9999; allow ip"}, {"default", "allow"}}, 0.2)
      .add_link("sap1", "mon1", 10'000'000)
      .add_link("mon1", "fw1", 10'000'000)
      .add_link("fw1", "sap2", 10'000'000);
  return g;
}

struct EnvFixture : ::testing::Test {
  Environment env;

  void SetUp() override {
    build_demo_topology(env);
    ASSERT_TRUE(env.start().ok());
  }

  void send_flow(std::uint64_t count, std::uint16_t dport = 7777,
                 std::uint64_t rate = 1000) {
    auto* src = env.host("sap1");
    auto* dst = env.host("sap2");
    src->start_udp_flow(dst->mac(), dst->ip(), 5000, dport, count, rate);
  }
};

TEST_F(EnvFixture, StartBringsUpAllLayers) {
  EXPECT_TRUE(env.started());
  EXPECT_EQ(env.controller().connected_switches().size(), 2u);
  EXPECT_NE(env.agent_client("c1"), nullptr);
  EXPECT_NE(env.agent_client("c2"), nullptr);
  EXPECT_EQ(env.agent_client("nope"), nullptr);
}

TEST_F(EnvFixture, DeployBeforeStartRejected) {
  Environment fresh;
  auto r = fresh.deploy(demo_graph());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "escape.not-started");
}

TEST_F(EnvFixture, FullDemoWorkflow) {
  // Step 3: map + deploy.
  auto chain = env.deploy(demo_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  const ChainDeployment* dep = env.deployment(*chain);
  ASSERT_NE(dep, nullptr);
  EXPECT_EQ(dep->record.vnfs.size(), 2u);
  EXPECT_GT(dep->record.setup_latency(), 0u);
  EXPECT_TRUE(env.steering().installed(*chain));

  // Step 4: send traffic and verify delivery + firewall policy.
  send_flow(300);
  env.run_for(seconds(1));
  EXPECT_EQ(env.host("sap2")->rx_packets(), 300u);
  EXPECT_GT(env.host("sap2")->latency_us().mean(), 0.0);

  send_flow(50, /*dport=*/9999);  // denied by the firewall VNF
  env.run_for(seconds(1));
  EXPECT_EQ(env.host("sap2")->rx_packets(), 300u);

  // Step 5: monitor over NETCONF -- counters reflect the traffic.
  bool saw_monitor = false;
  for (const auto& vnf : dep->record.vnfs) {
    auto info = env.monitor_vnf(vnf.container, vnf.instance_id);
    ASSERT_TRUE(info.ok()) << info.error().to_string();
    EXPECT_EQ(info->status, netemu::VnfStatus::kRunning);
    if (vnf.vnf_id == "mon1") {
      EXPECT_EQ(info->handlers.at("cnt.count"), "350");
      saw_monitor = true;
    }
    if (vnf.vnf_id == "fw1") {
      EXPECT_EQ(info->handlers.at("fw.denied"), "50");
      EXPECT_EQ(info->handlers.at("fw.accepted"), "300");
    }
  }
  EXPECT_TRUE(saw_monitor);
}

TEST_F(EnvFixture, UndeployStopsTrafficAndFreesResources) {
  auto chain = env.deploy(demo_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  const auto vnfs = env.deployment(*chain)->record.vnfs;

  ASSERT_TRUE(env.undeploy(*chain).ok());
  EXPECT_EQ(env.deployment(*chain), nullptr);
  EXPECT_FALSE(env.steering().installed(*chain));

  // VNFs are gone from their containers.
  for (const auto& v : vnfs) {
    EXPECT_FALSE(env.monitor_vnf(v.container, v.instance_id).ok());
  }
  // Containers are back to zero CPU use.
  EXPECT_DOUBLE_EQ(env.container("c1")->cpu_in_use(), 0.0);
  EXPECT_DOUBLE_EQ(env.container("c2")->cpu_in_use(), 0.0);

  // Traffic no longer reaches sap2.
  send_flow(20);
  env.run_for(seconds(1));
  EXPECT_EQ(env.host("sap2")->rx_packets(), 0u);

  EXPECT_FALSE(env.undeploy(*chain).ok());  // double undeploy errors
}

TEST_F(EnvFixture, RedeployAfterUndeployWorks) {
  auto first = env.deploy(demo_graph());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(env.undeploy(*first).ok());
  auto second = env.deploy(demo_graph());
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  send_flow(10);
  env.run_for(seconds(1));
  EXPECT_EQ(env.host("sap2")->rx_packets(), 10u);
}

TEST_F(EnvFixture, TwoChainsCoexistWithDistinctMatches) {
  auto chain1 = env.deploy(demo_graph());
  ASSERT_TRUE(chain1.ok()) << chain1.error().to_string();

  // Second chain in the reverse direction (sap2 -> sap1) with its own VNF.
  sg::ServiceGraph g2("reverse");
  g2.add_sap("sap2")
      .add_sap("sap1")
      .add_vnf("mon2", "monitor", {}, 0.1)
      .add_link("sap2", "mon2", 10'000'000)
      .add_link("mon2", "sap1", 10'000'000);
  auto chain2 = env.deploy(g2);
  ASSERT_TRUE(chain2.ok()) << chain2.error().to_string();

  send_flow(100);
  auto* h2 = env.host("sap2");
  auto* h1 = env.host("sap1");
  h2->start_udp_flow(h1->mac(), h1->ip(), 6000, 8888, 40, 1000);
  env.run_for(seconds(1));
  EXPECT_EQ(h2->rx_packets(), 100u);
  EXPECT_EQ(h1->rx_packets(), 40u);

  // The reverse chain's monitor saw only the reverse traffic.
  const auto* dep2 = env.deployment(*chain2);
  auto info = env.monitor_vnf(dep2->record.vnfs[0].container, dep2->record.vnfs[0].instance_id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->handlers.at("cnt.count"), "40");
}

TEST_F(EnvFixture, MappingFailureLeavesEnvironmentClean) {
  sg::ServiceGraph g = demo_graph();
  // Demand more CPU than any container offers.
  sg::ServiceGraph heavy("heavy");
  heavy.add_sap("sap1").add_sap("sap2");
  heavy.add_vnf("big", "monitor", {}, 0.9);
  heavy.add_vnf("big2", "monitor", {}, 0.9);
  heavy.add_vnf("big3", "monitor", {}, 0.9);
  heavy.add_link("sap1", "big").add_link("big", "big2").add_link("big2", "big3");
  heavy.add_link("big3", "sap2");
  auto r = env.deploy(heavy);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "mapping.no-capacity");
  EXPECT_DOUBLE_EQ(env.container("c1")->cpu_in_use(), 0.0);
  EXPECT_TRUE(env.deployed_chains().empty());
}

TEST_F(EnvFixture, UnknownVnfTypeFailsBeforeTouchingInfrastructure) {
  sg::ServiceGraph g("bad");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("x", "warp-drive");
  g.add_link("sap1", "x").add_link("x", "sap2");
  auto r = env.deploy(g);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "service.unknown-vnf-type");
  EXPECT_TRUE(env.container("c1")->vnf_ids().empty());
}

TEST_F(EnvFixture, CpuShareSlowsVnfProcessing) {
  // Two identical ratelimiter chains, one with a tiny CPU share: the
  // Click task model scales per-packet cost by 1/share, which shows up
  // as reduced throughput under load.
  sg::ServiceGraph fast("fast");
  fast.add_sap("sap1").add_sap("sap2");
  fast.add_vnf("rl", "ratelimiter", {{"rate", "500"}}, 0.5);
  fast.add_link("sap1", "rl", 1'000'000).add_link("rl", "sap2", 1'000'000);
  auto chain = env.deploy(fast);
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();

  send_flow(2000, 7777, 2000);  // 2000 pps against a 500 pps limiter
  env.run_for(seconds(1));
  const auto received = env.host("sap2")->rx_packets();
  EXPECT_GE(received, 400u);
  EXPECT_LE(received, 600u);
}

TEST_F(EnvFixture, DeploymentRecordsMappingAlgorithm) {
  Environment env2{EnvironmentOptions{.mapping_algorithm = "loadbalance"}};
  build_demo_topology(env2);
  ASSERT_TRUE(env2.start().ok());
  auto chain = env2.deploy(demo_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  EXPECT_EQ(env2.deployment(*chain)->record.mapping.algorithm, "loadbalance");
  // Load balancing spreads the two VNFs over both containers.
  EXPECT_GT(env2.container("c1")->cpu_in_use(), 0.0);
  EXPECT_GT(env2.container("c2")->cpu_in_use(), 0.0);
}

TEST_F(EnvFixture, UnknownMappingAlgorithmRejected) {
  Environment env2{EnvironmentOptions{.mapping_algorithm = "astrology"}};
  build_demo_topology(env2);
  ASSERT_TRUE(env2.start().ok());
  auto r = env2.deploy(demo_graph());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "escape.unknown-algorithm");
}

TEST_F(EnvFixture, TopologyFromJsonSpecDeploys) {
  Environment env2;
  auto spec = service::TopologySpec::from_json(R"({
    "nodes": [
      {"name": "sap1", "kind": "host"},
      {"name": "sap2", "kind": "host"},
      {"name": "s1", "kind": "switch"},
      {"name": "c1", "kind": "container", "cpu": 1.0, "slots": 8}
    ],
    "links": [
      {"a": "sap1", "a_port": 0, "b": "s1", "b_port": 1},
      {"a": "sap2", "a_port": 0, "b": "s1", "b_port": 2},
      {"a": "c1", "a_port": 0, "b": "s1", "b_port": 3}
    ]
  })");
  ASSERT_TRUE(spec.ok()) << spec.error().to_string();
  ASSERT_TRUE(env2.load_topology(*spec).ok());
  ASSERT_TRUE(env2.start().ok());

  sg::ServiceGraph g("json-chain");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("mon", "monitor", {}, 0.1);
  g.add_link("sap1", "mon").add_link("mon", "sap2");
  auto chain = env2.deploy(g);
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();

  auto* src = env2.host("sap1");
  auto* dst = env2.host("sap2");
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 2, 25, 1000);
  env2.run_for(seconds(1));
  EXPECT_EQ(dst->rx_packets(), 25u);
}

TEST_F(EnvFixture, ConsecutiveVnfsOnSameContainerHairpin) {
  // Force both VNFs onto c1 by exhausting c2.
  ASSERT_TRUE(env.container("c2")->init_vnf("hog", "x",
                                            "c :: Counter; c -> Discard;", 0.95).ok());
  ASSERT_TRUE(env.container("c2")->start_vnf("hog").ok());

  auto chain = env.deploy(demo_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  const auto& placements = env.deployment(*chain)->record.mapping.placements;
  EXPECT_EQ(placements.at("mon1"), "c1");
  EXPECT_EQ(placements.at("fw1"), "c1");

  send_flow(60);
  env.run_for(seconds(1));
  EXPECT_EQ(env.host("sap2")->rx_packets(), 60u);
}

TEST_F(EnvFixture, WatchVnfEventsAcrossContainers) {
  std::vector<std::string> log;
  ASSERT_TRUE(env.watch_vnf_events([&](const std::string& container,
                                       const std::string& vnf_id,
                                       netemu::VnfStatus status) {
               log.push_back(container + "/" + vnf_id + ":" +
                             std::string(netemu::vnf_status_name(status)));
             }).ok());

  auto chain = env.deploy(demo_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  // Two VNFs, each INITIALIZED then RUNNING.
  ASSERT_EQ(log.size(), 4u);
  EXPECT_NE(log[1].find(":RUNNING"), std::string::npos);

  ASSERT_TRUE(env.undeploy(*chain).ok());
  env.run_for(milliseconds(5));
  // Undeploy adds a STOPPED event per VNF.
  ASSERT_EQ(log.size(), 6u);
  EXPECT_NE(log[4].find(":STOPPED"), std::string::npos);
}

TEST_F(EnvFixture, BandwidthReservationsPersistAcrossDeployments) {
  // A 400 Mb/s chain loads its container's 1 Gb/s access link twice
  // (in + out = 800 Mb/s), so each container carries at most one chain.
  auto heavy_graph = [](const char* vnf_id) {
    sg::ServiceGraph g("heavy-bw");
    g.add_sap("sap1").add_sap("sap2");
    g.add_vnf(vnf_id, "monitor", {}, 0.05);
    g.add_link("sap1", vnf_id, 400'000'000);
    g.add_link(vnf_id, "sap2", 400'000'000);
    return g;
  };
  auto match_port = [](std::uint16_t p) {
    return openflow::Match().dl_type(net::ethertype::kIpv4).tp_dst(p);
  };
  auto first = env.deploy(heavy_graph("m1"), match_port(80));
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  auto second = env.deploy(heavy_graph("m2"), match_port(81));
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  // Containers saturated and the sap1 access link has only 200 Mb/s
  // left: without persistent reservations this would double-book.
  auto third = env.deploy(heavy_graph("m3"), match_port(82));
  ASSERT_FALSE(third.ok());

  // Undeploying frees the bandwidth again.
  ASSERT_TRUE(env.undeploy(*first).ok());
  auto fourth = env.deploy(heavy_graph("m4"), match_port(83));
  EXPECT_TRUE(fourth.ok()) << fourth.error().to_string();
}

TEST_F(EnvFixture, PingThroughChainWithReturnPath) {
  auto chain = env.deploy(demo_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  auto reverse = env.install_return_path(*chain);
  ASSERT_TRUE(reverse.ok()) << reverse.error().to_string();
  EXPECT_NE(*reverse, *chain);
  EXPECT_TRUE(env.steering().installed(*reverse));

  auto* a = env.host("sap1");
  auto* b = env.host("sap2");
  for (std::uint16_t seq = 0; seq < 5; ++seq) a->send_ping(b->mac(), b->ip(), seq);
  env.run_for(seconds(1));

  // Every echo request traversed the chain and every reply came back on
  // the VNF-free return path; latency at sap1 is the full RTT.
  EXPECT_EQ(b->echo_requests_served(), 5u);
  EXPECT_EQ(a->rx_packets(), 5u);
  EXPECT_EQ(a->latency_us().count(), 5u);
  EXPECT_GT(a->latency_us().mean(), 0.0);

  // The return path is a first-class chain: it can be torn down.
  ASSERT_TRUE(env.undeploy(*reverse).ok());
  a->reset_counters();
  a->send_ping(b->mac(), b->ip(), 9);
  env.run_for(seconds(1));
  EXPECT_EQ(a->rx_packets(), 0u);  // replies have no route anymore
}

TEST_F(EnvFixture, ReturnPathRequiresDeployedChain) {
  EXPECT_FALSE(env.install_return_path(777).ok());
}

TEST_F(EnvFixture, ChainStatsThroughOpenFlow) {
  auto chain = env.deploy(demo_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  send_flow(120);
  env.run_for(seconds(1));

  auto stats = env.chain_stats(*chain);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats->chain_id, *chain);
  EXPECT_GE(stats->flows, 1u);
  // The first-hop entry counted every packet of the flow.
  EXPECT_EQ(stats->packets, 120u);
  EXPECT_GT(stats->bytes, 0u);

  // Unknown chains are rejected.
  EXPECT_FALSE(env.chain_stats(424242).ok());
}

TEST_F(EnvFixture, SlaReportAgainstMeasuredLatency) {
  sg::ServiceGraph g = demo_graph();
  g.add_requirement({"sap1", "sap2", 10'000'000, 50 * timeunit::kMillisecond});
  auto chain = env.deploy(g);
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  send_flow(100);
  env.run_for(seconds(1));
  const double measured_ms = env.host("sap2")->latency_us().mean() / 1000.0;
  auto report = service::ServiceLayer::check_delay(g.requirements()[0], measured_ms);
  EXPECT_TRUE(report.delay_met);
  EXPECT_GT(report.measured_delay_ms, 0.0);
}

TEST_F(EnvFixture, MetricsCoverEveryLayer) {
  // The ISSUE acceptance check: after one demo run, a single registry
  // snapshot holds at least one metric from each of the five layers --
  // Click element, emulated link, OpenFlow switch, NETCONF session and
  // the steering controller.
  auto chain = env.deploy(demo_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  send_flow(50);
  env.run_for(seconds(1));

  const std::string text = obs::MetricsRegistry::global().render_text();
  // Click: the deployed VNFs' read handlers are exported as callback
  // gauges labelled by container/vnf/element.
  EXPECT_NE(text.find("escape_click_handler_value"), std::string::npos);
  EXPECT_NE(text.find("vnf=\"chain" + std::to_string(*chain) + ".mon1\""), std::string::npos);
  // Data plane: per-link delivery counters.
  EXPECT_NE(text.find("escape_link_delivered_total"), std::string::npos);
  // OpenFlow: the demo traffic hits proactively installed flows.
  EXPECT_NE(text.find("escape_of_table_hits_total"), std::string::npos);
  // NETCONF: deployment issued startVNF/connectVNF RPCs on both sides.
  EXPECT_NE(text.find("escape_netconf_rpcs_total{side=\"client\"}"), std::string::npos);
  EXPECT_NE(text.find("escape_netconf_rpcs_total{side=\"server\"}"), std::string::npos);
  // Steering: flow-mods pushed and the chain counted as installed.
  EXPECT_NE(text.find("escape_steering_flowmods_total"), std::string::npos);
  EXPECT_NE(text.find("escape_host_rx_packets_total"), std::string::npos);

  // The same data must round-trip as JSON.
  auto doc = json::parse(obs::MetricsRegistry::global().snapshot_json().dump());
  ASSERT_TRUE(doc.ok());
  EXPECT_GT((*doc)["metrics"].as_array().size(), 10u);
}

TEST_F(EnvFixture, DeploymentEmitsControlPlaneTraces) {
  obs::tracer().clear();
  auto chain = env.deploy(demo_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  send_flow(10);
  env.run_for(seconds(1));

  bool saw_netconf = false, saw_steering = false;
  for (const auto& event : obs::tracer().events()) {
    if (event.category == "netconf") saw_netconf = true;
    if (event.category == "steering") saw_steering = true;
  }
  EXPECT_TRUE(saw_netconf);
  EXPECT_TRUE(saw_steering);
}

TEST_F(EnvFixture, NetconfRttHistogramSeesChannelDelay) {
  auto& rtt = obs::MetricsRegistry::global().histogram("escape_netconf_rpc_rtt_us");
  rtt.clear();
  auto chain = env.deploy(demo_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  // Deployment issues startVNF/connectVNF RPCs over the management pipe;
  // each reply takes at least one round trip of the control-plane delay.
  EXPECT_GT(rtt.count(), 0u);
  EXPECT_GT(rtt.min(), 0.0);
}

/// Rendered value by series (name plus labels).
using SeriesValues = std::map<std::string, std::string>;

/// Every exposition line of the global registry.
SeriesValues exposition_values() {
  SeriesValues values;
  std::istringstream lines(obs::MetricsRegistry::global().render_text());
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    values[line.substr(0, space)] = line.substr(space + 1);
  }
  return values;
}

/// The series host, link and switch expose, with the value each
/// component's own accessor reports.
SeriesValues component_counts(Environment& env) {
  SeriesValues want;
  auto add = [&want](const std::string& name, const obs::Labels& labels, std::uint64_t v) {
    want[name + obs::format_labels(labels)] = std::to_string(v);
  };
  auto& net = env.network();
  for (const auto& name : net.node_names()) {
    if (netemu::Host* h = net.host(name)) {
      const obs::Labels labels{{"host", name}};
      add("escape_host_rx_packets_total", labels, h->rx_packets());
      add("escape_host_rx_bytes_total", labels, h->rx_bytes());
      add("escape_host_tx_packets_total", labels, h->tx_packets());
      add("escape_host_latency_us_count", labels, h->latency_us().count());
    }
    if (netemu::SwitchNode* sw = net.switch_node(name)) {
      const auto& dp = sw->datapath();
      const obs::Labels labels{{"dpid", std::to_string(sw->dpid())}};
      add("escape_of_table_hits_total", labels, dp.flow_table().matches());
      add("escape_of_table_misses_total", labels,
          dp.flow_table().lookups() - dp.flow_table().matches());
      add("escape_of_packet_ins_total", labels, dp.packet_ins_sent());
    }
  }
  for (const auto& link : net.links()) {
    const std::string id = strings::format("%s:%u-%s:%u", link->node(0)->name().c_str(),
                                           link->port(0), link->node(1)->name().c_str(),
                                           link->port(1));
    for (int d = 0; d < 2; ++d) {
      const obs::Labels labels{{"link", id}, {"dir", d == 0 ? "ab" : "ba"}};
      add("escape_link_delivered_total", labels, link->delivered(d));
      add("escape_link_dropped_total", labels, link->dropped(d));
    }
  }
  return want;
}

/// The series of `values` whose metric names appear in `like`.
SeriesValues same_families(const SeriesValues& values, const SeriesValues& like) {
  std::set<std::string> names;
  for (const auto& [series, _] : like) names.insert(series.substr(0, series.find('{')));
  SeriesValues out;
  for (const auto& [series, value] : values) {
    if (names.count(series.substr(0, series.find('{')))) out[series] = value;
  }
  return out;
}

TEST(MetricsOwnership, SeriesAreComponentCountsAndDieWithThem) {
  SeriesValues want;
  {
    EnvironmentOptions opts;
    opts.threads = 2;
    opts.shard_by = netemu::ShardBy::kSwitch;
    Environment env{opts};
    build_demo_topology(env);
    ASSERT_TRUE(env.start().ok());
    ASSERT_EQ(env.scheduler().shard_count(), 2u);
    auto chain = env.deploy(demo_graph());
    ASSERT_TRUE(chain.ok()) << chain.error().to_string();
    auto* sap1 = env.host("sap1");
    auto* sap2 = env.host("sap2");
    sap1->start_udp_flow(sap2->mac(), sap2->ip(), 5000, 7777, 200, 2000);
    sap1->send_ping(sap2->mac(), sap2->ip(), 1);  // no return path: a table miss
    env.run_for(seconds(1));
    ASSERT_GE(sap2->rx_packets(), 200u);

    want = component_counts(env);
    EXPECT_EQ(same_families(exposition_values(), want), want);
  }
  // The components are gone and so are their series. Registry-owned
  // dpid series (packet-in RTT, echo RTT, channel-down) outlive them by
  // design: no component counts those.
  const auto left = exposition_values();
  for (const auto& [series, _] : want) EXPECT_EQ(left.count(series), 0u) << series;
}

// enable_self_healing() builds its new HealthMonitor before the old one
// dies: the newer collector wins the shared identity, and the old one's
// removal leaves it.
TEST(MetricsOwnership, SelfHealingTwiceLeavesOneLiveHealthGauge) {
  Environment env;
  build_demo_topology(env);
  ASSERT_TRUE(env.start().ok());
  ASSERT_TRUE(env.enable_self_healing().ok());
  ASSERT_TRUE(env.enable_self_healing().ok());
  ASSERT_TRUE(env.kill_container("c1").ok());
  env.run_for(seconds(1));
  ASSERT_EQ(env.health_monitor()->agents_down(), 1u);

  std::vector<std::string> lines;
  std::istringstream text(obs::MetricsRegistry::global().render_text());
  for (std::string line; std::getline(text, line);) {
    if (line.rfind("escape_health_agents_down", 0) == 0) lines.push_back(line);
  }
  EXPECT_EQ(lines, std::vector<std::string>{"escape_health_agents_down 1"});
}

// --- port allocation and chain lifecycles --------------------------------------

/// What a failed or finished chain operation must leave as it found it:
/// CPU, slots and bandwidth held in the orchestration view, installed
/// chains and every switch's flow-table size.
std::string footprint(Environment& env) {
  std::string out;
  for (const auto& n : env.resource_view()->nodes()) {
    out += strings::format("%s cpu=%.6f slots=%zu\n", n.name.c_str(), n.cpu_used,
                           n.vnf_slots_used);
  }
  for (const auto& l : env.resource_view()->links()) {
    out += strings::format("%s-%s bw=%llu\n", l.a.c_str(), l.b.c_str(),
                           static_cast<unsigned long long>(l.bandwidth_used));
  }
  out += strings::format("chains=%zu\n", env.steering().installed_count());
  for (const auto& name : env.network().node_names()) {
    if (auto* sw = env.network().switch_node(name)) {
      out += strings::format("%s flows=%zu\n", name.c_str(), sw->datapath().flow_table().size());
    }
  }
  return out;
}

sg::ServiceGraph single_vnf_graph(const std::string& name, const std::string& type) {
  sg::ServiceGraph g(name);
  g.add_sap("sap1").add_sap("sap2").add_vnf("v", type, {}, 0.1);
  g.add_link("sap1", "v", 1'000'000).add_link("v", "sap2", 1'000'000);
  return g;
}

TEST(PortExhaustion, DeployFailsAndRollsBack) {
  // One s1 port is left: the VNF's in-veth takes 0xfeff, its out-veth
  // finds none. Neither may reach a reserved number (0xff00 and up).
  Environment env;
  build_demo_topology(env, 0xfefe);
  ASSERT_TRUE(env.start().ok());
  const std::string start = footprint(env);

  for (int attempt = 0; attempt < 2; ++attempt) {
    auto chain = env.deploy(single_vnf_graph("crowded", "monitor"));
    ASSERT_FALSE(chain.ok());
    EXPECT_EQ(chain.error().code, "netemu.ports-exhausted");
    EXPECT_EQ(footprint(env), start);
    EXPECT_TRUE(env.deployed_chains().empty());
  }
  for (const auto& link : env.network().links()) {
    for (int e = 0; e < 2; ++e) {
      if (link->node(e)->kind() == netemu::NodeKind::kSwitch) {
        EXPECT_LT(link->port(e), 0xff00);
      }
    }
  }
  EXPECT_FALSE(env.network().switch_node("s1")->datapath().has_port(0xff00));
}

TEST(PortExhaustion, ScaleFailsAndRollsBack) {
  // Two s1 ports are left: enough for the chain's in/out veths, none for
  // the splitter a scale-out needs.
  Environment env;
  build_demo_topology(env, 0xfefd);
  ASSERT_TRUE(env.start().ok());
  const std::string start = footprint(env);
  auto chain = env.deploy(single_vnf_graph("elastic", "flow_nat"));
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  ASSERT_EQ(env.deployment(*chain)->record.vnfs[0].container, "c1");
  const std::string deployed = footprint(env);

  auto s = env.scale_chain(*chain, 2);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "netemu.ports-exhausted");
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  EXPECT_EQ(*env.chain_instances(*chain), 1u);
  EXPECT_EQ(footprint(env), deployed);

  // The old generation keeps serving.
  auto* sap1 = env.host("sap1");
  auto* sap2 = env.host("sap2");
  sap1->start_udp_flow(sap2->mac(), sap2->ip(), 5000, 7777, 20, 1000);
  env.run_for(seconds(1));
  EXPECT_EQ(sap2->rx_packets(), 20u);
  ASSERT_TRUE(env.undeploy(*chain).ok());
  EXPECT_EQ(footprint(env), start);
}

/// The allocation rule Network::next_free_port keeps per node, as the
/// scan over the link list it replaced: one above the highest port the
/// first `links` links use on `node`.
std::uint16_t scanned_next_port(const netemu::Network& net, std::size_t links,
                                const netemu::Node* node) {
  std::uint16_t next = 0;
  for (std::size_t k = 0; k < links; ++k) {
    const auto& link = net.links()[k];
    for (int e = 0; e < 2; ++e) {
      if (link->node(e) == node) {
        next = std::max<std::uint16_t>(next, static_cast<std::uint16_t>(link->port(e) + 1));
      }
    }
  }
  return next;
}

/// Every link added since `first` took, on both ends, the port the scan
/// gives at the moment it was added.
void expect_ports_match_scan(const netemu::Network& net, std::size_t first) {
  for (std::size_t k = first; k < net.links().size(); ++k) {
    const auto& link = net.links()[k];
    for (int e = 0; e < 2; ++e) {
      EXPECT_EQ(link->port(e), scanned_next_port(net, k, link->node(e)))
          << "link " << k << " end " << e << " (" << link->node(e)->name() << ")";
    }
  }
}

struct LifecycleRun {
  std::vector<SimDuration> setup_latency;  // per cycle
  std::vector<std::uint64_t> delivered;    // per cycle
  std::size_t links = 0;
};

/// ~40 seeded deploy -> probe -> monitor -> undeploy cycles of 1-3 VNF
/// chains on a 3-switch line; every 5th cycle scales a flow_nat chain
/// 1 -> 2 -> 1 before the undeploy.
LifecycleRun run_lifecycles(EnvironmentOptions options) {
  constexpr int kCycles = 40;
  constexpr std::uint64_t kProbe = 16;
  const char* const kTypes[] = {"monitor", "firewall", "dpi", "flow_nat", "tcp_ids"};
  LifecycleRun run;
  Environment env(options);
  auto& net = env.network();
  netemu::LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.delay = 100 * timeunit::kMicrosecond;
  net.add_host("sap1");
  net.add_host("sap2");
  for (int i = 1; i <= 3; ++i) {
    const std::string n = std::to_string(i);
    net.add_switch("s" + n);
    net.add_container("c" + n, 4.0, 32);
    EXPECT_TRUE(net.add_link("c" + n, 0, "s" + n, 3, cfg).ok());
    if (i > 1) {
      EXPECT_TRUE(net.add_link("s" + std::to_string(i - 1), 2, "s" + n, 1, cfg).ok());
    }
  }
  EXPECT_TRUE(net.add_link("sap1", 0, "s1", 10, cfg).ok());
  EXPECT_TRUE(net.add_link("sap2", 0, "s3", 10, cfg).ok());
  EXPECT_TRUE(env.start().ok());
  const std::string start = footprint(env);
  auto* sap1 = env.host("sap1");
  auto* sap2 = env.host("sap2");
  auto& registry = obs::MetricsRegistry::global();

  Rng rng(15);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const bool scale = (cycle + 1) % 5 == 0;
    sg::ServiceGraph g("lc" + std::to_string(cycle));
    g.add_sap("sap1").add_sap("sap2");
    std::string prev = "sap1";
    const std::size_t n = scale ? 1 : 1 + rng.next_below(3);
    for (std::size_t v = 0; v < n; ++v) {
      const std::string id = "v" + std::to_string(v);
      g.add_vnf(id, scale ? "flow_nat" : kTypes[rng.next_below(std::size(kTypes))], {}, 0.1);
      g.add_link(prev, id, 1'000'000);
      prev = id;
    }
    g.add_link(prev, "sap2", 1'000'000);

    std::size_t first = net.links().size();
    auto chain = env.deploy(g);
    if (!chain.ok()) {
      ADD_FAILURE() << "cycle " << cycle << ": " << chain.error().to_string();
      return run;
    }
    expect_ports_match_scan(net, first);
    run.setup_latency.push_back(env.deployment(*chain)->record.setup_latency());

    const std::uint64_t rx0 = sap2->rx_packets();
    sap1->start_udp_flow(sap2->mac(), sap2->ip(), static_cast<std::uint16_t>(10000 + cycle), 7,
                         kProbe, 50'000, 64);
    env.run_for(3 * timeunit::kMillisecond);
    run.delivered.push_back(sap2->rx_packets() - rx0);
    EXPECT_EQ(run.delivered.back(), kProbe) << "cycle " << cycle;

    // Every instance the chain ran, with the series of each numeric
    // handler its router's collector emitted while alive.
    auto handler_series = [&registry] {
      std::set<std::string> out;
      std::istringstream lines(registry.render_text());
      for (std::string line; std::getline(lines, line);) {
        if (line.rfind("escape_click_handler_value{", 0) == 0) {
          out.insert(line.substr(0, line.rfind(' ')));
        }
      }
      return out;
    };
    std::vector<std::string> series;
    auto monitor_all = [&] {
      const std::set<std::string> rendered = handler_series();
      for (const auto& vnf : env.deployment(*chain)->record.vnfs) {
        auto info = env.monitor_vnf(vnf.container, vnf.instance_id);
        ASSERT_TRUE(info.ok()) << info.error().to_string();
        ASSERT_FALSE(info->handlers.empty());
        for (const auto& [spec, value] : info->handlers) {
          char* end = nullptr;
          std::strtod(value.c_str(), &end);
          if (end == value.c_str() || *end != '\0') continue;  // not a number: no series
          const auto dot = spec.find('.');
          const obs::Labels labels{{"container", vnf.container},
                                   {"vnf", vnf.instance_id},
                                   {"element", spec.substr(0, dot)},
                                   {"handler", spec.substr(dot + 1)}};
          series.push_back("escape_click_handler_value" + obs::format_labels(labels));
          EXPECT_EQ(rendered.count(series.back()), 1u) << spec;
        }
      }
    };
    monitor_all();
    if (scale) {
      for (std::size_t target : {2u, 1u}) {
        first = net.links().size();
        EXPECT_TRUE(env.scale_chain(*chain, target).ok()) << "cycle " << cycle;
        expect_ports_match_scan(net, first);
        EXPECT_GT(net.links().size(), first);
        monitor_all();
      }
    }

    EXPECT_TRUE(env.undeploy(*chain).ok()) << "cycle " << cycle;
    const std::set<std::string> rendered = handler_series();
    for (const auto& s : series) {
      EXPECT_EQ(rendered.count(s), 0u) << "cycle " << cycle << ": " << s;
    }
  }
  EXPECT_EQ(footprint(env), start);
  run.links = net.links().size();
  return run;
}

TEST(ChainLifecycles, RepeatedLifecyclesLeaveNoSeriesAndAllocateLikeTheScan) {
  const LifecycleRun one = run_lifecycles({});
  ASSERT_EQ(one.setup_latency.size(), 40u);

  EnvironmentOptions sharded;
  sharded.threads = 2;
  sharded.shard_by = netemu::ShardBy::kSwitch;
  const LifecycleRun two = run_lifecycles(sharded);
  EXPECT_EQ(two.setup_latency, one.setup_latency);
  EXPECT_EQ(two.delivered, one.delivered);
  EXPECT_EQ(two.links, one.links);
}

}  // namespace
}  // namespace escape
