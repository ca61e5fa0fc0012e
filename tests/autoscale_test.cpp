// Elastic scaling: per-VNF flow-state codecs round-trip live state, the
// FlowManager hold buffer gives loss-free cut-over, the AutoScaler
// policy engine turns sampled handler load into bounded scale
// decisions, and the environment migrates running stateful chains
// make-before-break -- zero packet loss, preserved NAT mappings,
// cross-packet IDS detection across the hand-off, exact reservation
// accounting whatever fails mid-flight.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "click/config.hpp"
#include "click/elements.hpp"
#include "click/flow.hpp"
#include "escape/environment.hpp"
#include "net/builder.hpp"
#include "net/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orchestrator/autoscaler.hpp"

namespace escape {
namespace {

using click::FlowManager;
using click::FromDevice;
using click::Router;
using click::ToDevice;
using click::build_router;
using net::Ipv4Addr;
using net::MacAddr;
using net::Packet;

Packet udp_packet(std::uint16_t sport, std::uint16_t dport = 7777,
                  Ipv4Addr src = Ipv4Addr(10, 0, 0, 5), Ipv4Addr dst = Ipv4Addr(8, 8, 8, 8)) {
  return net::make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2), src, dst, sport,
                              dport, 98);
}

Packet tcp_packet(std::uint32_t seq, std::uint8_t flags, std::string_view payload) {
  net::TcpFields f;
  f.src_port = 1234;
  f.dst_port = 80;
  f.seq = seq;
  f.flags = flags;
  net::PacketBuilder b;
  b.eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
      .ipv4(Ipv4Addr(10, 0, 0, 5), Ipv4Addr(8, 8, 8, 8), net::ipproto::kTcp)
      .tcp(f);
  if (!payload.empty()) b.payload(payload);
  return b.build();
}

struct Collector {
  std::vector<Packet> packets;

  void attach(Router& router, const std::string& todevice_name) {
    auto* to = dynamic_cast<ToDevice*>(router.element(todevice_name));
    ASSERT_NE(to, nullptr);
    to->set_sink([this](Packet&& p) { packets.push_back(std::move(p)); });
  }
};

constexpr const char* kNatConfig = R"(
  fin :: FromDevice(DEVNAME in0);
  fext :: FromDevice(DEVNAME in1);
  fm :: FlowManager;
  nat :: FlowNAT(EXTERNAL_IP 192.0.2.1, PORT_BASE 20000, PORT_COUNT 64);
  tout :: ToDevice(DEVNAME out0);
  tin :: ToDevice(DEVNAME out1);
  fin -> fm -> [0]nat;
  fext -> [1]nat;
  nat[0] -> tout;
  nat[1] -> tin;
)";

// --- flow-state hand-off (the migration payload) -----------------------------

TEST(FlowStateHandoff, NatMappingsSurviveExportImport) {
  EventScheduler sched_a;
  auto a = build_router(kNatConfig, sched_a);
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  Collector out_a;
  out_a.attach(**a, "tout");
  auto* from_a = dynamic_cast<FromDevice*>((*a)->element("fin"));
  from_a->inject(udp_packet(5000));
  from_a->inject(udp_packet(5000));
  ASSERT_EQ(out_a.packets.size(), 2u);
  const auto key_a = net::extract_flow_key(out_a.packets[0], 0);
  ASSERT_TRUE(key_a.has_value());
  EXPECT_EQ(key_a->nw_src, Ipv4Addr(192, 0, 2, 1));

  auto* fm_a = dynamic_cast<FlowManager*>((*a)->element("fm"));
  const std::string blob = fm_a->export_state();
  EXPECT_NE(blob.find("flow "), std::string::npos);
  EXPECT_NE(blob.find("state nat "), std::string::npos);

  // A freshly started replica imports the state: the same flow keeps
  // its translated port, and the mapping is a restore, not a re-alloc.
  EventScheduler sched_b;
  auto b = build_router(kNatConfig, sched_b);
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  Collector out_b;
  out_b.attach(**b, "tout");
  auto* fm_b = dynamic_cast<FlowManager*>((*b)->element("fm"));
  auto imported = fm_b->import_state(blob);
  ASSERT_TRUE(imported.ok()) << imported.error().to_string();
  EXPECT_EQ(*imported, 1u);

  auto* from_b = dynamic_cast<FromDevice*>((*b)->element("fin"));
  from_b->inject(udp_packet(5000));
  ASSERT_EQ(out_b.packets.size(), 1u);
  const auto key_b = net::extract_flow_key(out_b.packets[0], 0);
  ASSERT_TRUE(key_b.has_value());
  EXPECT_EQ(key_b->tp_src, key_a->tp_src) << "translated port changed across migration";
  EXPECT_EQ((*b)->call_read("nat.mappings").value(), "1");
}

TEST(FlowStateHandoff, IdsDetectsSignatureSplitAcrossMigration) {
  constexpr const char* kIds = R"(
    from :: FromDevice(DEVNAME in0);
    fm :: FlowManager;
    ra :: TcpReassembler;
    ids :: StreamIDS(PATTERNS "attack");
    out :: ToDevice(DEVNAME out0);
    from -> fm -> ra -> ids -> out;
  )";
  EventScheduler sched_a;
  auto a = build_router(kIds, sched_a);
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  auto* from_a = dynamic_cast<FromDevice*>((*a)->element("from"));
  from_a->inject(tcp_packet(1000, /*SYN*/ 0x02, ""));
  from_a->inject(tcp_packet(1001, /*ACK*/ 0x10, "some att"));
  EXPECT_EQ((*a)->call_read("ids.alerts").value(), "0");

  // Migrate the half-scanned stream to a new instance mid-signature.
  const std::string blob =
      dynamic_cast<FlowManager*>((*a)->element("fm"))->export_state();
  EventScheduler sched_b;
  auto b = build_router(kIds, sched_b);
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  auto st =
      dynamic_cast<FlowManager*>((*b)->element("fm"))->import_state(blob);
  ASSERT_TRUE(st.ok()) << st.error().to_string();

  auto* from_b = dynamic_cast<FromDevice*>((*b)->element("from"));
  from_b->inject(tcp_packet(1009, 0x10, "ack here"));
  EXPECT_EQ((*b)->call_read("ids.alerts").value(), "1")
      << "cross-packet signature lost across migration";
  EXPECT_EQ((*b)->call_read("ra.resets").ok()
                ? (*b)->call_read("ra.resets").value()
                : "0",
            "0");
}

TEST(FlowStateHandoff, LbStickinessSurvivesExportImport) {
  constexpr const char* kLb = R"(
    from :: FromDevice(DEVNAME in0);
    fm :: FlowManager;
    lb :: FlowLB(N 2, MODE rr);
    a :: ToDevice(DEVNAME out0);
    b :: ToDevice(DEVNAME out1);
    from -> fm -> lb;
    lb[0] -> a;
    lb[1] -> b;
  )";
  EventScheduler sched_a;
  auto r1 = build_router(kLb, sched_a);
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  Collector a1, b1;
  a1.attach(**r1, "a");
  b1.attach(**r1, "b");
  auto* from1 = dynamic_cast<FromDevice*>((*r1)->element("from"));
  from1->inject(udp_packet(6000));
  from1->inject(udp_packet(6001));  // round-robin: lands on the other backend
  ASSERT_EQ(a1.packets.size(), 1u);
  ASSERT_EQ(b1.packets.size(), 1u);

  const std::string blob =
      dynamic_cast<FlowManager*>((*r1)->element("fm"))->export_state();
  EventScheduler sched_b;
  auto r2 = build_router(kLb, sched_b);
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  Collector a2, b2;
  a2.attach(**r2, "a");
  b2.attach(**r2, "b");
  auto st =
      dynamic_cast<FlowManager*>((*r2)->element("fm"))->import_state(blob);
  ASSERT_TRUE(st.ok()) << st.error().to_string();

  auto* from2 = dynamic_cast<FromDevice*>((*r2)->element("from"));
  from2->inject(udp_packet(6000));
  from2->inject(udp_packet(6001));
  // Both flows stay pinned to their pre-migration backends: with fresh
  // round-robin state both would have landed on backend 0 first.
  EXPECT_EQ(a2.packets.size(), 1u);
  EXPECT_EQ(b2.packets.size(), 1u);
}

TEST(FlowStateHandoff, HoldBuffersThenFlushesInArrivalOrder) {
  constexpr const char* kFm = R"(
    from :: FromDevice(DEVNAME in0);
    fm :: FlowManager(HOLD true);
    out :: ToDevice(DEVNAME out0);
    from -> fm -> out;
  )";
  EventScheduler sched;
  auto router = build_router(kFm, sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector sink;
  sink.attach(**router, "out");
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));
  for (std::uint16_t i = 0; i < 5; ++i) from->inject(udp_packet(7000 + i));
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ((*router)->call_read("fm.held").value(), "5");

  // Releasing the hold drains FIFO through normal classification.
  ASSERT_TRUE((*router)->call_write("fm.hold", "0").ok());
  ASSERT_EQ(sink.packets.size(), 5u);
  for (std::uint16_t i = 0; i < 5; ++i) {
    const auto key = net::extract_flow_key(sink.packets[i], 0);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(key->tp_src, 7000 + i);
  }
  EXPECT_EQ((*router)->call_read("fm.held").value(), "0");
  EXPECT_EQ((*router)->call_read("fm.flows").value(), "5");
}

// --- AutoScaler policy engine (synthetic hooks) ------------------------------

orchestrator::ScalingPolicy test_policy() {
  orchestrator::ScalingPolicy p;
  p.vnf = "nat";
  p.handler = "fm.lookups";
  p.rate = true;
  p.scale_out_above = 1000;  // per-instance events/s
  p.scale_in_below = 100;
  p.sustain_ticks = 2;
  p.cooldown = 100 * timeunit::kMillisecond;
  p.min_instances = 1;
  p.max_instances = 4;
  return p;
}

struct FakeChain {
  double counter = 0;
  double per_tick = 0;  // counter increment per tick
  std::size_t instances = 1;
  bool eligible = true;
  std::vector<std::size_t> targets;  // every scale_to request
};

orchestrator::AutoScaler::Hooks fake_hooks(FakeChain& chain) {
  orchestrator::AutoScaler::Hooks hooks;
  hooks.instances = [&chain](std::uint32_t) { return chain.instances; };
  hooks.eligible = [&chain](std::uint32_t) { return chain.eligible; };
  hooks.sample = [&chain](std::uint32_t, const orchestrator::ScalingPolicy&,
                          std::function<void(Result<double>)> cb) {
    chain.counter += chain.per_tick;
    cb(chain.counter);
  };
  hooks.scale_to = [&chain](std::uint32_t, const orchestrator::ScalingPolicy&,
                            std::size_t target, std::function<void(Status)> cb) {
    chain.targets.push_back(target);
    chain.instances = target;
    cb(ok_status());
  };
  return hooks;
}

TEST(AutoScalerPolicy, SustainedHighRateScalesOutStepwiseWithCooldown) {
  EventScheduler sched;
  orchestrator::AutoScalerOptions opts;
  opts.tick = 10 * timeunit::kMillisecond;
  FakeChain chain;
  chain.per_tick = 50;  // 5000 events/s >> 1000 threshold
  orchestrator::AutoScaler scaler(sched, opts, fake_hooks(chain));
  scaler.watch_chain(7, test_policy());
  scaler.start();

  // tick 1 = rate baseline; ticks 2-3 sustain; decision on tick 3.
  sched.run_for(35 * timeunit::kMillisecond);
  ASSERT_EQ(chain.targets.size(), 1u);
  EXPECT_EQ(chain.targets[0], 2u);

  // Load still high, but the cooldown holds the next step back.
  sched.run_for(50 * timeunit::kMillisecond);
  EXPECT_EQ(chain.targets.size(), 1u);
  sched.run_for(300 * timeunit::kMillisecond);
  ASSERT_GE(chain.targets.size(), 2u);
  EXPECT_EQ(chain.targets[1], 3u);
  EXPECT_GE(scaler.scale_out_decisions(), 2u);
}

TEST(AutoScalerPolicy, IdleRateScalesInAndStopsAtMinInstances) {
  EventScheduler sched;
  orchestrator::AutoScalerOptions opts;
  opts.tick = 10 * timeunit::kMillisecond;
  FakeChain chain;
  chain.per_tick = 0;  // flat counter: 0 events/s
  chain.instances = 3;
  orchestrator::AutoScaler scaler(sched, opts, fake_hooks(chain));
  scaler.watch_chain(7, test_policy());
  scaler.start();

  sched.run_for(800 * timeunit::kMillisecond);
  ASSERT_GE(chain.targets.size(), 2u);
  EXPECT_EQ(chain.targets[0], 2u);
  EXPECT_EQ(chain.targets[1], 1u);
  EXPECT_EQ(chain.instances, 1u);  // never below min_instances
  EXPECT_EQ(scaler.scale_in_decisions(), 2u);
}

TEST(AutoScalerPolicy, IneligibleTicksResetHysteresisAndBaseline) {
  EventScheduler sched;
  orchestrator::AutoScalerOptions opts;
  opts.tick = 10 * timeunit::kMillisecond;
  FakeChain chain;
  chain.per_tick = 50;
  orchestrator::AutoScaler scaler(sched, opts, fake_hooks(chain));
  scaler.watch_chain(7, test_policy());
  scaler.start();

  // One high sample, then the chain degrades: the streak must restart
  // from scratch (baseline + sustain) once it is healthy again.
  sched.run_for(25 * timeunit::kMillisecond);  // baseline + 1 high tick
  ASSERT_TRUE(chain.targets.empty());
  chain.eligible = false;
  sched.run_for(30 * timeunit::kMillisecond);
  chain.eligible = true;
  sched.run_for(15 * timeunit::kMillisecond);  // baseline + 1 high: not yet
  EXPECT_TRUE(chain.targets.empty());
  sched.run_for(10 * timeunit::kMillisecond);  // second sustained high tick
  EXPECT_EQ(chain.targets.size(), 1u);
}

TEST(AutoScalerPolicy, PolicyJsonParsesDefaultsAndBounds) {
  auto opts = orchestrator::autoscale_options_from_json(R"({
    "tick_ms": 20, "drain_ms": 2,
    "policies": [{
      "vnf": "nat", "handler": "fm.lookups", "mode": "rate",
      "scale_out_above": 4000, "scale_in_below": 500,
      "sustain_ticks": 3, "cooldown_ms": 200,
      "min_instances": 1, "max_instances": 4
    }]
  })");
  ASSERT_TRUE(opts.ok()) << opts.error().to_string();
  EXPECT_EQ(opts->tick, 20 * timeunit::kMillisecond);
  EXPECT_EQ(opts->drain, 2 * timeunit::kMillisecond);
  ASSERT_EQ(opts->policies.size(), 1u);
  EXPECT_EQ(opts->policies[0].vnf, "nat");
  EXPECT_TRUE(opts->policies[0].rate);
  EXPECT_EQ(opts->policies[0].max_instances, 4u);
}

TEST(AutoScalerPolicy, PolicyJsonRejectsBadDocuments) {
  auto bad = [](const char* text) {
    auto r = orchestrator::autoscale_options_from_json(text);
    EXPECT_FALSE(r.ok()) << text;
    if (!r.ok()) EXPECT_EQ(r.error().code, "autoscale.bad-policy");
  };
  bad(R"({"policies": []})");
  bad(R"({"policies": [{"handler": "fm.lookups", "scale_out_above": 10, "scale_in_below": 1}]})");
  bad(R"({"policies": [{"vnf": "nat", "handler": "nodot", "scale_out_above": 10, "scale_in_below": 1}]})");
  bad(R"({"policies": [{"vnf": "nat", "scale_out_above": 1, "scale_in_below": 10}]})");
  bad(R"({"policies": [{"vnf": "nat", "scale_out_above": 10, "scale_in_below": 1, "mode": "sideways"}]})");
  bad(R"({"policies": [{"vnf": "nat", "scale_out_above": 10, "scale_in_below": 1, "min_instances": 3, "max_instances": 2}]})");
}

// --- live migration through the environment ----------------------------------

netemu::LinkConfig fast_link() {
  netemu::LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.delay = 50 * timeunit::kMicrosecond;
  return cfg;
}

void build_scaling_topology(Environment& env, double container_cpu = 2.0) {
  auto& net = env.network();
  net.add_host("sap1");
  net.add_host("sap2");
  net.add_switch("s1");
  net.add_switch("s2");
  net.add_container("c1", container_cpu, 8);
  net.add_container("c2", container_cpu, 8);
  ASSERT_TRUE(net.add_link("sap1", 0, "s1", 1, fast_link()).ok());
  ASSERT_TRUE(net.add_link("sap2", 0, "s2", 1, fast_link()).ok());
  ASSERT_TRUE(net.add_link("s1", 2, "s2", 2, fast_link()).ok());
  ASSERT_TRUE(net.add_link("c1", 0, "s1", 3, fast_link()).ok());
  ASSERT_TRUE(net.add_link("c2", 0, "s2", 3, fast_link()).ok());
}

sg::ServiceGraph nat_graph() {
  sg::ServiceGraph g("elastic");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("nat", "flow_nat",
            {{"capacity", "1024"}, {"timeout_ms", "30000"}, {"port_count", "64"}}, 0.15);
  g.add_link("sap1", "nat").add_link("nat", "sap2");
  return g;
}

openflow::Match dst_match(netemu::Host* dst) {
  // The NAT rewrites nw_src mid-chain; steer on destination only.
  openflow::Match match;
  match.dl_type(net::ethertype::kIpv4).nw_dst(dst->ip());
  return match;
}

double total_container_cpu_used(const Environment& env) {
  double used = 0;
  for (const auto& node : env.resource_view()->nodes()) {
    if (node.kind == sg::ResourceKind::kContainer) used += node.cpu_used;
  }
  return used;
}

TEST(ScalingMigration, ScaleOutIsLossFreeAndKeepsNatMappings) {
  Environment env;
  build_scaling_topology(env);
  ASSERT_TRUE(env.start().ok());
  auto* sap1 = env.host("sap1");
  auto* sap2 = env.host("sap2");
  auto chain = env.deploy(nat_graph(), dst_match(sap2));
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();

  // The receiver records every translated source port it sees: the NAT
  // mapping must not change when the flow migrates to a replica.
  std::set<std::uint16_t> translated;
  sap2->on_receive([&translated](const net::Packet& p) {
    if (auto key = net::extract_flow_key(p, 0); key && key->nw_proto == net::ipproto::kUdp) {
      translated.insert(key->tp_src);
    }
  });

  // 600 packets over 300 ms of virtual time; migrate mid-flow.
  sap1->start_udp_flow(sap2->mac(), sap2->ip(), 5000, 7777, 600, 2000);
  env.run_for(50 * timeunit::kMillisecond);
  ASSERT_TRUE(env.scale_chain(*chain, 2).ok());
  EXPECT_EQ(*env.chain_instances(*chain), 2u);
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  // New generation: splitter + 2 replicas carried in the live record.
  EXPECT_EQ(env.deployment(*chain)->record.vnfs.size(), 3u);

  env.run_for(seconds(1));
  EXPECT_EQ(sap2->rx_packets(), 600u) << "packets lost during scale-out";
  EXPECT_EQ(sap2->max_seq_seen(), 600u) << "sequence gap: drops during migration";
  EXPECT_EQ(translated.size(), 1u) << "NAT mapping changed across migration";
}

TEST(ScalingMigration, ScaleInMergesStateAndReleasesEverything) {
  Environment env;
  build_scaling_topology(env);
  ASSERT_TRUE(env.start().ok());
  auto* sap1 = env.host("sap1");
  auto* sap2 = env.host("sap2");
  auto chain = env.deploy(nat_graph(), dst_match(sap2));
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  const double baseline = total_container_cpu_used(env);

  sap1->start_udp_flow(sap2->mac(), sap2->ip(), 5000, 7777, 800, 2000);
  env.run_for(50 * timeunit::kMillisecond);
  ASSERT_TRUE(env.scale_chain(*chain, 2).ok());
  env.run_for(100 * timeunit::kMillisecond);
  ASSERT_TRUE(env.scale_chain(*chain, 1).ok());
  EXPECT_EQ(*env.chain_instances(*chain), 1u);
  env.run_for(seconds(1));
  EXPECT_EQ(sap2->rx_packets(), 800u) << "packets lost during scale-in";
  EXPECT_EQ(sap2->max_seq_seen(), 800u);

  // Back at one instance the footprint equals the original deployment;
  // undeploy releases the rest (the ledger and the graph agree).
  EXPECT_NEAR(total_container_cpu_used(env), baseline, 1e-9);
  ASSERT_TRUE(env.undeploy(*chain).ok());
  EXPECT_NEAR(total_container_cpu_used(env), 0.0, 1e-9);
}

TEST(ScalingMigration, FailedScaleOutDoesNotLeakReservations) {
  Environment env;
  build_scaling_topology(env, /*container_cpu=*/0.3);
  ASSERT_TRUE(env.start().ok());
  auto* sap2 = env.host("sap2");
  auto chain = env.deploy(nat_graph(), dst_match(sap2));
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  const double baseline = total_container_cpu_used(env);

  // 4 replicas + splitter need 0.7 CPU; only 0.45 is free. The partial
  // reservations taken before the shortfall must all come back.
  auto s = env.scale_chain(*chain, 4);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "autoscale.no-capacity");
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  EXPECT_NEAR(total_container_cpu_used(env), baseline, 1e-9);

  // A target that fits still works afterwards -- accounting intact.
  ASSERT_TRUE(env.scale_chain(*chain, 2).ok());
  EXPECT_EQ(*env.chain_instances(*chain), 2u);
  ASSERT_TRUE(env.undeploy(*chain).ok());
  EXPECT_NEAR(total_container_cpu_used(env), 0.0, 1e-9);
}

TEST(ScalingMigration, BringUpRpcFailureUnwindsAndChainStaysActive) {
  Environment env;
  build_scaling_topology(env);
  ASSERT_TRUE(env.start().ok());
  auto* sap1 = env.host("sap1");
  auto* sap2 = env.host("sap2");
  auto chain = env.deploy(nat_graph(), dst_match(sap2));
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  const double baseline = total_container_cpu_used(env);

  // Crash the management agent of the container that hosts the chain
  // (and would host the new generation): every bring-up RPC fails fast
  // on the closed session, after CPU and veths were already committed.
  const std::string host = env.deployment(*chain)->record.vnfs[0].container;
  ASSERT_TRUE(env.crash_agent(host).ok());
  auto s = env.scale_chain(*chain, 2);
  ASSERT_FALSE(s.ok());
  ASSERT_TRUE(env.respawn_agent(host).ok());

  // The old generation never stopped serving and nothing leaked.
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  EXPECT_EQ(*env.chain_instances(*chain), 1u);
  EXPECT_NEAR(total_container_cpu_used(env), baseline, 1e-9);
  sap1->start_udp_flow(sap2->mac(), sap2->ip(), 5000, 7777, 50, 1000);
  env.run_for(seconds(1));
  EXPECT_EQ(sap2->rx_packets(), 50u)
      << "tx=" << sap1->tx_packets() << " max_seq=" << sap2->max_seq_seen();
}

TEST(ScalingMigration, ContainerKillMidMigrationConvergesViaRecovery) {
  Environment env;
  build_scaling_topology(env);
  ASSERT_TRUE(env.start().ok());
  ASSERT_TRUE(env.enable_self_healing().ok());
  auto* sap2 = env.host("sap2");
  auto chain = env.deploy(nat_graph(), dst_match(sap2));
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  const std::string host = env.deployment(*chain)->record.vnfs[0].container;

  // Start the migration, then power-fail the hosting container while
  // the bring-up RPCs are in flight. The fault plane owns the chain
  // from here: the migration must abort exactly once and recovery must
  // re-embed the ORIGINAL single-instance chain on the survivor.
  Status result = ok_status();
  bool finished = false;
  env.scale_chain_async(*chain, 2, [&](Status s) {
    result = s;
    finished = true;
  });
  env.run_for(200 * timeunit::kMicrosecond);  // mid-bring-up
  ASSERT_TRUE(env.kill_container(host).ok());
  env.run_for(seconds(2));

  ASSERT_TRUE(finished);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "autoscale.aborted");
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  EXPECT_EQ(*env.chain_instances(*chain), 1u);
  EXPECT_NE(env.deployment(*chain)->record.vnfs[0].container, host);

  // Reservation accounting survived the crossed fault/migration paths:
  // exactly the recovered instance's CPU is booked, nothing double
  // released, nothing leaked.
  ASSERT_TRUE(env.undeploy(*chain).ok());
  EXPECT_NEAR(total_container_cpu_used(env), 0.0, 1e-9);
}

/// The rendered value of a chain's instances gauge ("" when it is not
/// exported).
std::string instances_gauge(std::uint32_t chain) {
  const std::string series = "escape_chain_instances{chain=\"" + std::to_string(chain) + "\"}";
  std::istringstream lines(obs::MetricsRegistry::global().render_text());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(series + " ", 0) == 0) return line.substr(series.size() + 1);
  }
  return "";
}

TEST(ScalingMigration, InstancesGaugeFollowsTheChainFromDeployToUndeploy) {
  Environment env;
  build_scaling_topology(env);
  ASSERT_TRUE(env.start().ok());
  ASSERT_TRUE(env.enable_self_healing().ok());
  auto chain = env.deploy(nat_graph(), dst_match(env.host("sap2")));
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  EXPECT_EQ(instances_gauge(*chain), "1");

  ASSERT_TRUE(env.scale_chain(*chain, 2).ok());
  EXPECT_EQ(instances_gauge(*chain), "2");

  // Recovery re-embeds the unscaled graph on the surviving container.
  const std::string replicas_host = env.deployment(*chain)->record.vnfs.back().container;
  ASSERT_TRUE(env.kill_container(replicas_host).ok());
  env.run_for(seconds(2));
  ASSERT_EQ(*env.chain_state(*chain), ChainState::kActive);
  ASSERT_EQ(*env.chain_instances(*chain), 1u);
  EXPECT_EQ(instances_gauge(*chain), "1");

  ASSERT_TRUE(env.undeploy(*chain).ok());
  EXPECT_EQ(instances_gauge(*chain), "");
}

TEST(ScalingMigration, AutoscalerClosesTheLoopOutAndBackIn) {
  Environment env;
  build_scaling_topology(env);
  ASSERT_TRUE(env.start().ok());
  auto* sap1 = env.host("sap1");
  auto* sap2 = env.host("sap2");
  auto chain = env.deploy(nat_graph(), dst_match(sap2));
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();

  auto opts = orchestrator::autoscale_options_from_json(R"({
    "tick_ms": 20, "drain_ms": 2,
    "policies": [{
      "vnf": "nat", "handler": "fm.lookups", "mode": "rate",
      "scale_out_above": 800, "scale_in_below": 100,
      "sustain_ticks": 2, "cooldown_ms": 100,
      "min_instances": 1, "max_instances": 3
    }]
  })");
  ASSERT_TRUE(opts.ok()) << opts.error().to_string();
  ASSERT_TRUE(env.enable_autoscaling(*opts).ok());
  ASSERT_TRUE(env.autoscaler()->watching(*chain));

  // A 2000 pps burst: 2000 lookups/s per instance >> 800 threshold.
  sap1->start_udp_flow(sap2->mac(), sap2->ip(), 5000, 7777, 1200, 2000);
  env.run_for(600 * timeunit::kMillisecond);
  EXPECT_GE(env.autoscaler()->scale_out_decisions(), 1u);
  EXPECT_GE(*env.chain_instances(*chain), 2u);
  EXPECT_EQ(sap2->rx_packets(), 1200u) << "autoscaled migration dropped packets";

  // Silence: the rate collapses below the floor and the chain drains
  // back to one instance.
  env.run_for(seconds(2));
  EXPECT_GE(env.autoscaler()->scale_in_decisions(), 1u);
  EXPECT_EQ(*env.chain_instances(*chain), 1u);
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
}

// --- determinism across thread counts ----------------------------------------

struct ScaleFingerprint {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t rx = 0;
  std::size_t instances = 0;
  int state = -1;

  bool operator==(const ScaleFingerprint&) const = default;
};

ScaleFingerprint run_scaled_chain(std::size_t threads) {
  obs::MetricsRegistry::global().reset_values();
  obs::clear_all_tracers();
  EnvironmentOptions opts;
  opts.threads = threads;
  opts.shard_by = netemu::ShardBy::kSwitch;
  Environment env{opts};
  build_scaling_topology(env);
  EXPECT_TRUE(env.start().ok());
  auto* sap1 = env.host("sap1");
  auto* sap2 = env.host("sap2");
  auto chain = env.deploy(nat_graph(), dst_match(sap2));
  EXPECT_TRUE(chain.ok()) << (chain.ok() ? "" : chain.error().to_string());

  sap1->start_udp_flow(sap2->mac(), sap2->ip(), 5000, 7777, 600, 2000);
  env.run_for(50 * timeunit::kMillisecond);
  EXPECT_TRUE(env.scale_chain(*chain, 2).ok());
  env.run_for(100 * timeunit::kMillisecond);
  EXPECT_TRUE(env.scale_chain(*chain, 1).ok());
  env.run_for(seconds(1));

  ScaleFingerprint f;
  f.digest = env.scheduler().order_digest();
  f.executed = env.scheduler().executed_events();
  f.rx = sap2->rx_packets();
  f.instances = *env.chain_instances(*chain);
  f.state = static_cast<int>(*env.chain_state(*chain));
  return f;
}

TEST(ScalingMigration, MigrationIsBitIdenticalAcrossThreadCounts) {
  const ScaleFingerprint seq = run_scaled_chain(1);
  const ScaleFingerprint par = run_scaled_chain(4);
  EXPECT_EQ(seq.rx, 600u);
  EXPECT_EQ(seq.instances, 1u);
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace escape
