// Failure injection: the environment under packet loss, congestion, CPU
// starvation and management-plane lifecycle events mid-traffic.
#include <gtest/gtest.h>

#include <algorithm>

#include "escape/environment.hpp"
#include "fault/fault_plane.hpp"

namespace escape {
namespace {

/// Demo topology with a configurable core link between s1 and s2.
void build_topology(Environment& env, netemu::LinkConfig core) {
  auto& net = env.network();
  net.add_host("sap1");
  net.add_host("sap2");
  net.add_switch("s1");
  net.add_switch("s2");
  net.add_container("c1", 1.0, 8);
  netemu::LinkConfig edge;
  edge.bandwidth_bps = 1'000'000'000;
  edge.delay = 50 * timeunit::kMicrosecond;
  ASSERT_TRUE(net.add_link("sap1", 0, "s1", 1, edge).ok());
  ASSERT_TRUE(net.add_link("sap2", 0, "s2", 1, edge).ok());
  ASSERT_TRUE(net.add_link("s1", 2, "s2", 2, core).ok());
  ASSERT_TRUE(net.add_link("c1", 0, "s1", 3, edge).ok());
}

sg::ServiceGraph monitor_graph() {
  sg::ServiceGraph g("mon");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("mon", "monitor", {}, 0.1);
  g.add_link("sap1", "mon").add_link("mon", "sap2");
  return g;
}

TEST(Failure, LossyCoreLinkDropsProportionally) {
  Environment env;
  netemu::LinkConfig lossy;
  lossy.bandwidth_bps = 1'000'000'000;
  lossy.delay = 50 * timeunit::kMicrosecond;
  lossy.loss = 0.10;
  build_topology(env, lossy);
  ASSERT_TRUE(env.start().ok());
  auto chain = env.deploy(monitor_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();

  auto* src = env.host("sap1");
  auto* dst = env.host("sap2");
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 3000, 5000);
  env.run_for(seconds(1));
  const double delivery =
      static_cast<double>(dst->rx_packets()) / static_cast<double>(src->tx_packets());
  EXPECT_NEAR(delivery, 0.90, 0.03);
  // Loss shows up as a sequence-number gap, the standard-tools view.
  EXPECT_LT(dst->rx_packets(), dst->max_seq_seen());
}

TEST(Failure, BottleneckLinkTailDropsUnderOverload) {
  Environment env;
  netemu::LinkConfig narrow;
  narrow.bandwidth_bps = 1'000'000;  // 1 Mb/s: ~1275 pps at 98 B
  narrow.delay = 50 * timeunit::kMicrosecond;
  narrow.queue_frames = 20;
  build_topology(env, narrow);
  ASSERT_TRUE(env.start().ok());
  auto chain = env.deploy(monitor_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();

  auto* src = env.host("sap1");
  auto* dst = env.host("sap2");
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 5000, 5000);  // 4x overload
  env.run_for(seconds(2));
  // Roughly the serialization rate of the bottleneck gets through.
  EXPECT_GT(dst->rx_packets(), 1000u);
  EXPECT_LT(dst->rx_packets(), 3500u);
  // The drops happened on the emulated core link, not in the VNF.
  std::uint64_t link_drops = 0;
  for (const auto& link : env.network().links()) {
    link_drops += link->dropped(0) + link->dropped(1);
  }
  EXPECT_GT(link_drops, 1000u);
}

TEST(Failure, StoppingVnfMidTrafficBlackholesTheChain) {
  Environment env;
  netemu::LinkConfig core;
  core.bandwidth_bps = 1'000'000'000;
  core.delay = 50 * timeunit::kMicrosecond;
  build_topology(env, core);
  ASSERT_TRUE(env.start().ok());
  auto chain = env.deploy(monitor_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  const auto& vnf = env.deployment(*chain)->record.vnfs[0];

  auto* src = env.host("sap1");
  auto* dst = env.host("sap2");
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 100, 1000);
  env.run_for(seconds(1));
  EXPECT_EQ(dst->rx_packets(), 100u);

  // Stop the VNF through its management agent (operator action).
  bool stopped = false;
  env.agent_client(vnf.container)
      ->stop_vnf(vnf.instance_id, [&](Status s) { stopped = s.ok(); });
  env.run_for(milliseconds(10));
  ASSERT_TRUE(stopped);

  // Traffic is now blackholed at the container.
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 50, 1000);
  env.run_for(seconds(1));
  EXPECT_EQ(dst->rx_packets(), 100u);

  // Restart: the data path heals (device connections were kept).
  bool started = false;
  env.agent_client(vnf.container)
      ->start_vnf(vnf.instance_id, [&](Status s) { started = s.ok(); });
  env.run_for(milliseconds(10));
  ASSERT_TRUE(started);
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 50, 1000);
  env.run_for(seconds(1));
  EXPECT_EQ(dst->rx_packets(), 150u);
}

TEST(Failure, CpuStarvedWorkerSheds) {
  Environment env;
  netemu::LinkConfig core;
  core.bandwidth_bps = 1'000'000'000;
  core.delay = 50 * timeunit::kMicrosecond;
  build_topology(env, core);
  ASSERT_TRUE(env.start().ok());

  // Worker at 100 us per packet nominal (10 kpps); share 0.2 -> 2 kpps.
  sg::ServiceGraph g("starved");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("w", "worker", {{"ns_per_packet", "100000"}, {"queue", "100"}}, 0.2);
  g.add_link("sap1", "w").add_link("w", "sap2");
  auto chain = env.deploy(g);
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();

  auto* src = env.host("sap1");
  auto* dst = env.host("sap2");
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 4000, 4000);
  env.run_for(seconds(2));
  // Delivered tracks the share-scaled capacity (2 kpps for ~1 s of
  // arrivals + queue drain), far below the 4000 offered.
  EXPECT_GT(dst->rx_packets(), 1500u);
  EXPECT_LT(dst->rx_packets(), 3000u);

  // The VNF's own queue recorded the shed load.
  const auto& vnf = env.deployment(*chain)->record.vnfs[0];
  auto info = env.monitor_vnf(vnf.container, vnf.instance_id);
  ASSERT_TRUE(info.ok());
  EXPECT_GT(std::stoull(info->handlers.at("q.drops")), 500u);
}

TEST(Failure, WorkerAtFullShareCarriesSameLoad) {
  Environment env;
  netemu::LinkConfig core;
  core.bandwidth_bps = 1'000'000'000;
  core.delay = 50 * timeunit::kMicrosecond;
  build_topology(env, core);
  ASSERT_TRUE(env.start().ok());

  sg::ServiceGraph g("full-share");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("w", "worker", {{"ns_per_packet", "100000"}, {"queue", "100"}}, 1.0);
  g.add_link("sap1", "w").add_link("w", "sap2");
  auto chain = env.deploy(g);
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();

  auto* src = env.host("sap1");
  auto* dst = env.host("sap2");
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 4000, 4000);
  env.run_for(seconds(2));
  // 4 kpps offered, 10 kpps capacity: everything arrives.
  EXPECT_EQ(dst->rx_packets(), 4000u);
}

/// Dual-container variant of build_topology: c2 hangs off s2, giving
/// the recovery loop somewhere to re-embed a chain that lost c1.
void build_chaos_topology(Environment& env) {
  netemu::LinkConfig core;
  core.bandwidth_bps = 1'000'000'000;
  core.delay = 50 * timeunit::kMicrosecond;
  build_topology(env, core);
  auto& net = env.network();
  net.add_container("c2", 1.0, 8);
  netemu::LinkConfig edge;
  edge.bandwidth_bps = 1'000'000'000;
  edge.delay = 50 * timeunit::kMicrosecond;
  ASSERT_TRUE(net.add_link("c2", 0, "s2", 3, edge).ok());
}

TEST(Failure, ChaosKillContainerMidTrafficTrafficResumesAfterReembed) {
  Environment env;
  build_chaos_topology(env);
  ASSERT_TRUE(env.start().ok());
  ASSERT_TRUE(env.enable_self_healing().ok());
  auto chain = env.deploy(monitor_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  ASSERT_EQ(env.deployment(*chain)->record.mapping.placements.at("mon"), "c1");

  auto* src = env.host("sap1");
  auto* dst = env.host("sap2");
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 100, 1000);
  env.run_for(seconds(1));
  EXPECT_EQ(dst->rx_packets(), 100u);

  // Power-fail the container carrying the chain, mid-life. Traffic sent
  // right after dies at the dead container or the torn-down steering.
  ASSERT_TRUE(env.kill_container("c1").ok());
  env.run_for(seconds(1));  // recovery runs inside virtual time
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  EXPECT_EQ(env.deployment(*chain)->record.mapping.placements.at("mon"), "c2");

  // The re-embedded chain carries traffic end to end again.
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 50, 1000);
  env.run_for(seconds(1));
  EXPECT_EQ(dst->rx_packets(), 150u);
}

TEST(Failure, FailedRecoveryAttemptsDoNotLeakReservations) {
  Environment env;
  build_chaos_topology(env);
  ASSERT_TRUE(env.start().ok());
  ASSERT_TRUE(env.enable_self_healing().ok());

  // Full-CPU chain: if a failed recovery attempt leaks (or double-releases)
  // reservations, re-placement on c2 is corrupted forever after.
  sg::ServiceGraph g("heavy");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("w", "monitor", {}, 1.0);
  g.add_link("sap1", "w").add_link("w", "sap2");
  auto chain = env.deploy(g);
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  ASSERT_EQ(env.deployment(*chain)->record.mapping.placements.at("w"), "c1");

  // Black-hole c2's management transport so every redeploy fails *after*
  // mapping committed new reservations on c2, then kill c1. Each failed
  // attempt must release exactly what it committed.
  netconf::TransportFaults faults;
  faults.drop_prob = 1.0;
  ASSERT_TRUE(env.set_netconf_faults("c2", faults).ok());
  ASSERT_TRUE(env.kill_container("c1").ok());
  env.run_for(seconds(2));
  ASSERT_EQ(*env.chain_state(*chain), ChainState::kFailed);

  // Heal c2: the agent-up event re-queues the failed chain. Recovery can
  // only fit on c2 if the failed attempts left the view's accounting
  // intact -- a leaked 1.0-CPU reservation makes this stay kFailed.
  ASSERT_TRUE(env.clear_netconf_faults("c2").ok());
  env.run_for(seconds(2));
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  EXPECT_EQ(env.deployment(*chain)->record.mapping.placements.at("w"), "c2");
}

TEST(Failure, ChaosAgentCrashDuringDeployFailsCleanly) {
  Environment env;
  build_chaos_topology(env);
  ASSERT_TRUE(env.start().ok());

  // The agent dies while the bring-up RPC sequence is mid-flight; the
  // deploy must come back with an annotated error, not hang, and must
  // roll its partial state back.
  env.scheduler().schedule(500 * timeunit::kMicrosecond,
                           [&env] { ASSERT_TRUE(env.crash_agent("c1").ok()); });
  auto chain = env.deploy(monitor_graph());
  ASSERT_FALSE(chain.ok());
  EXPECT_NE(chain.error().message.find("bring-up"), std::string::npos)
      << chain.error().to_string();
  EXPECT_TRUE(env.deployed_chains().empty());

  // The failed attempt released its reservations and c2 still has a live
  // agent: a fresh deploy succeeds on the survivor.
  auto retry = env.deploy(monitor_graph());
  ASSERT_TRUE(retry.ok()) << retry.error().to_string();
  EXPECT_EQ(env.deployment(*retry)->record.mapping.placements.at("mon"), "c2");
}

TEST(Failure, TeardownToleratesManuallyRemovedVnf) {
  Environment env;
  netemu::LinkConfig core;
  core.bandwidth_bps = 1'000'000'000;
  core.delay = 50 * timeunit::kMicrosecond;
  build_topology(env, core);
  ASSERT_TRUE(env.start().ok());
  auto chain = env.deploy(monitor_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  const auto vnf = env.deployment(*chain)->record.vnfs[0];

  // An operator rips the VNF out from under the orchestrator.
  bool stopped = false, removed = false;
  env.agent_client(vnf.container)
      ->stop_vnf(vnf.instance_id, [&](Status s) { stopped = s.ok(); });
  env.run_for(milliseconds(10));
  env.agent_client(vnf.container)
      ->remove_vnf(vnf.instance_id, [&](Status s) { removed = s.ok(); });
  env.run_for(milliseconds(10));
  ASSERT_TRUE(stopped);
  ASSERT_TRUE(removed);

  // Teardown is idempotent: already-gone pieces are benign.
  EXPECT_TRUE(env.undeploy(*chain).ok());
  EXPECT_TRUE(env.deployed_chains().empty());
}

TEST(Failure, ChaosOfChannelFlapResyncsSteeringWithoutReembed) {
  // Control-plane chaos: flap one switch's OpenFlow channel and restart
  // another mid-life. The chain must go DEGRADED (steering divergence),
  // get repaired by the resync audit -- NOT re-embedded -- and end up
  // with every switch's table exactly mirroring the intent store.
  EnvironmentOptions opts;
  opts.controller_liveness.echo_interval = 10 * timeunit::kMillisecond;
  opts.controller_liveness.miss_threshold = 2;
  opts.switch_liveness.echo_interval = 10 * timeunit::kMillisecond;
  opts.switch_liveness.miss_threshold = 2;
  Environment env(opts);
  build_chaos_topology(env);
  ASSERT_TRUE(env.start().ok());
  ASSERT_TRUE(env.enable_self_healing().ok());
  auto chain = env.deploy(monitor_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  ASSERT_EQ(env.deployment(*chain)->record.mapping.placements.at("mon"), "c1");

  auto* src = env.host("sap1");
  auto* dst = env.host("sap2");
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 100, 1000);
  env.run_for(seconds(1));
  EXPECT_EQ(dst->rx_packets(), 100u);

  const auto resyncs_before = env.steering().resyncs();
  const auto placements_before = env.deployment(*chain)->record.mapping.placements;

  fault::FaultPlane chaos(env);
  fault::FaultEvent flap;
  flap.at = 50 * timeunit::kMillisecond;
  flap.action = "of-channel-flap";
  flap.target = "s1";
  flap.down = 100 * timeunit::kMillisecond;
  ASSERT_TRUE(chaos.schedule(flap).ok());
  fault::FaultEvent restart;
  restart.at = 80 * timeunit::kMillisecond;
  restart.action = "switch-restart";
  restart.target = "s2";
  ASSERT_TRUE(chaos.schedule(restart).ok());

  // Mid-outage: s1's channel death has been detected (echo timeout at
  // ~flap + 2 x 10 ms), so the chain is degraded on steering grounds.
  env.run_for(100 * timeunit::kMillisecond);
  EXPECT_EQ(chaos.injections(), 2u);
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kDegraded);

  // The channel restores at +150 ms; the resync audit repairs both
  // dpids and the chain flips back to ACTIVE in place.
  env.run_for(seconds(1));
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  EXPECT_GT(env.steering().resyncs(), resyncs_before);
  EXPECT_EQ(env.steering().dirty_count(), 0u);
  // Repaired, not re-embedded: the placement is untouched.
  EXPECT_EQ(env.deployment(*chain)->record.mapping.placements, placements_before);

  // Every dpid's table mirrors the steering intent exactly (cookie != 0
  // is the steering namespace; cookie 0 l2 entries are out of scope).
  for (const char* name : {"s1", "s2"}) {
    auto* node = env.network().switch_node(name);
    ASSERT_NE(node, nullptr);
    const auto* intent = env.steering().intent(node->dpid());
    const std::size_t intent_rules = intent ? intent->size() : 0;
    const auto entries = node->datapath().flow_table().stats(env.scheduler().now());
    std::size_t steering_entries = 0;
    for (const auto& e : entries) {
      if (e.cookie != 0) ++steering_entries;
    }
    EXPECT_EQ(steering_entries, intent_rules) << name;
    if (intent) {
      for (const auto& rule : *intent) {
        const bool present = std::any_of(entries.begin(), entries.end(), [&](const auto& e) {
          return e.cookie == rule.chain_id && e.priority == rule.priority &&
                 e.match == rule.match && e.actions == openflow::output_to(rule.out_port);
        });
        EXPECT_TRUE(present) << name << ": missing intent rule of chain " << rule.chain_id;
      }
    }
  }

  // And the repaired chain carries traffic end to end again.
  src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 50, 1000);
  env.run_for(seconds(1));
  EXPECT_EQ(dst->rx_packets(), 150u);
}

TEST(Failure, AgentUpLeavesSteeringOnlyDegradationToTheResync) {
  // An unrelated agent coming back while s1's channel is down must not
  // re-embed a chain that is degraded only on steering grounds: its
  // instance on c1 is healthy and the resync repairs its rules in place.
  // A re-embed through the unreachable s1 leaves no instance anywhere
  // (or, with the longer outage, a FAILED chain).
  for (const int outage_ms : {150, 400}) {
    SCOPED_TRACE("s1 outage " + std::to_string(outage_ms) + " ms");
    EnvironmentOptions opts;
    opts.controller_liveness.echo_interval = 10 * timeunit::kMillisecond;
    opts.controller_liveness.miss_threshold = 2;
    opts.switch_liveness.echo_interval = 10 * timeunit::kMillisecond;
    opts.switch_liveness.miss_threshold = 2;
    Environment env(opts);
    build_chaos_topology(env);
    ASSERT_TRUE(env.start().ok());
    ASSERT_TRUE(env.enable_self_healing().ok());
    auto chain = env.deploy(monitor_graph());
    ASSERT_TRUE(chain.ok()) << chain.error().to_string();
    ASSERT_EQ(env.deployment(*chain)->record.mapping.placements.at("mon"), "c1");

    fault::FaultPlane chaos(env);
    fault::FaultEvent flap;
    flap.at = 10 * timeunit::kMillisecond;
    flap.action = "of-channel-flap";
    flap.target = "s1";
    flap.down = outage_ms * timeunit::kMillisecond;
    ASSERT_TRUE(chaos.schedule(flap).ok());
    fault::FaultEvent crash;
    crash.at = 60 * timeunit::kMillisecond;
    crash.action = "crash-agent";
    crash.target = "c2";
    ASSERT_TRUE(chaos.schedule(crash).ok());
    fault::FaultEvent respawn = crash;
    respawn.at = 90 * timeunit::kMillisecond;
    respawn.action = "respawn-agent";
    ASSERT_TRUE(chaos.schedule(respawn).ok());

    env.run_for(800 * timeunit::kMillisecond);
    EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
    const auto& vnfs = env.deployment(*chain)->record.vnfs;
    ASSERT_EQ(vnfs.size(), 1u);
    EXPECT_EQ(vnfs.front().container, "c1");
    const auto running = env.container("c1")->vnf_ids();
    EXPECT_NE(std::find(running.begin(), running.end(), vnfs.front().instance_id),
              running.end())
        << "the chain's instance is gone from c1";

    auto* src = env.host("sap1");
    auto* dst = env.host("sap2");
    src->start_udp_flow(dst->mac(), dst->ip(), 1, 80, 50, 1000);
    env.run_for(seconds(1));
    EXPECT_EQ(dst->rx_packets(), 50u);
  }
}

TEST(Failure, SchedulerStaysQuietAfterTrafficEnds) {
  // Guard against runaway periodic work: after all flows end, a bounded
  // run_for must not execute unbounded event counts (the switch sweep
  // and probes are the only periodic activity).
  Environment env;
  netemu::LinkConfig core;
  core.bandwidth_bps = 1'000'000'000;
  core.delay = 50 * timeunit::kMicrosecond;
  build_topology(env, core);
  ASSERT_TRUE(env.start().ok());
  auto chain = env.deploy(monitor_graph());
  ASSERT_TRUE(chain.ok());
  const std::uint64_t before = env.scheduler().executed_events();
  env.run_for(seconds(10));
  const std::uint64_t idle_events = env.scheduler().executed_events() - before;
  // Per switch per second: 1 table sweep, plus the echo keepalives (one
  // probe tick each side and the request/reply deliveries, ~6 events per
  // direction pair). 2 switches x 10 s x ~8 events, with slack -- but
  // still bounded, which is what this guard is about.
  EXPECT_LT(idle_events, 400u);
}

TEST(Failure, ChaosScalingMidTrafficStaysLossFreeAndConverges) {
  // The full elastic lifecycle under control-plane chaos: a stateful NAT
  // chain scales out while carrying traffic, survives an OpenFlow
  // channel flap on its entry switch, scales back in under the tail of
  // the flow -- and not one packet is lost, with every switch's table
  // mirroring the steering intent at the end.
  EnvironmentOptions opts;
  opts.controller_liveness.echo_interval = 10 * timeunit::kMillisecond;
  opts.controller_liveness.miss_threshold = 2;
  opts.switch_liveness.echo_interval = 10 * timeunit::kMillisecond;
  opts.switch_liveness.miss_threshold = 2;
  Environment env(opts);
  build_chaos_topology(env);
  ASSERT_TRUE(env.start().ok());
  ASSERT_TRUE(env.enable_self_healing().ok());

  sg::ServiceGraph g("elastic");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("nat", "flow_nat",
            {{"capacity", "1024"}, {"timeout_ms", "30000"}, {"port_count", "64"}}, 0.15);
  g.add_link("sap1", "nat").add_link("nat", "sap2");
  auto* src = env.host("sap1");
  auto* dst = env.host("sap2");
  openflow::Match match;
  match.dl_type(net::ethertype::kIpv4).nw_dst(dst->ip());
  auto chain = env.deploy(g, match);
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();

  src->start_udp_flow(dst->mac(), dst->ip(), 5000, 7777, 2000, 2000);
  env.run_for(100 * timeunit::kMillisecond);  // ~200 packets down the old path

  // Scale out under live traffic.
  ASSERT_TRUE(env.scale_chain(*chain, 2).ok());
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  EXPECT_EQ(env.deployment(*chain)->scale_instances, 2u);

  // Flap the entry switch's OpenFlow channel while both replicas carry
  // the flow; the datapath keeps forwarding and the resync audit must
  // repair the scaled generation's rules, not a pristine copy.
  fault::FaultPlane chaos(env);
  fault::FaultEvent flap;
  flap.at = 50 * timeunit::kMillisecond;
  flap.action = "of-channel-flap";
  flap.target = "s1";
  flap.down = 100 * timeunit::kMillisecond;
  ASSERT_TRUE(chaos.schedule(flap).ok());
  env.run_for(600 * timeunit::kMillisecond);  // outage + resync settle
  EXPECT_EQ(chaos.injections(), 1u);
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  EXPECT_EQ(env.steering().dirty_count(), 0u);

  // Scale back in under the tail of the flow.
  ASSERT_TRUE(env.scale_chain(*chain, 1).ok());
  env.run_for(seconds(1));  // flow finishes + drain

  EXPECT_EQ(src->tx_packets(), 2000u);
  EXPECT_EQ(dst->rx_packets(), 2000u);
  EXPECT_EQ(dst->max_seq_seen(), 2000u);
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  EXPECT_EQ(env.deployment(*chain)->scale_instances, 1u);
  EXPECT_EQ(env.deployment(*chain)->record.vnfs.size(), 1u);

  // Every dpid's table mirrors the steering intent exactly (cookie != 0
  // is the steering namespace; cookie 0 l2 entries are out of scope).
  for (const char* name : {"s1", "s2"}) {
    auto* node = env.network().switch_node(name);
    ASSERT_NE(node, nullptr);
    const auto* intent = env.steering().intent(node->dpid());
    const std::size_t intent_rules = intent ? intent->size() : 0;
    const auto entries = node->datapath().flow_table().stats(env.scheduler().now());
    std::size_t steering_entries = 0;
    for (const auto& e : entries) {
      if (e.cookie != 0) ++steering_entries;
    }
    EXPECT_EQ(steering_entries, intent_rules) << name;
    if (intent) {
      for (const auto& rule : *intent) {
        const bool present = std::any_of(entries.begin(), entries.end(), [&](const auto& e) {
          return e.cookie == rule.chain_id && e.priority == rule.priority &&
                 e.match == rule.match && e.actions == openflow::output_to(rule.out_port);
        });
        EXPECT_TRUE(present) << name << ": missing intent rule of chain " << rule.chain_id;
      }
    }
  }
  EXPECT_EQ(env.steering().dirty_count(), 0u);

  EXPECT_TRUE(env.undeploy(*chain).ok());
  EXPECT_TRUE(env.deployed_chains().empty());
}

}  // namespace
}  // namespace escape
