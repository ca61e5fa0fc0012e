// Tests for the controller platform and its applications: handshake,
// L2 learning, LLDP discovery and chain steering.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/builder.hpp"
#include "net/packet_pool.hpp"
#include "netemu/network.hpp"
#include "pox/discovery.hpp"
#include "pox/l2_learning.hpp"
#include "pox/steering.hpp"

namespace escape::pox {
namespace {

using net::Ipv4Addr;
using net::MacAddr;

/// Two hosts, one switch -- the minimal learning-switch scenario.
struct OneSwitchFixture : ::testing::Test {
  EventScheduler sched;
  netemu::Network net{sched};
  Controller controller{sched, 10 * timeunit::kMicrosecond};

  netemu::Host* h1 = nullptr;
  netemu::Host* h2 = nullptr;

  void SetUp() override {
    h1 = &net.add_host("h1", MacAddr::from_u64(0xa1), Ipv4Addr(10, 0, 0, 1));
    h2 = &net.add_host("h2", MacAddr::from_u64(0xa2), Ipv4Addr(10, 0, 0, 2));
    net.add_switch("s1", 1);
    ASSERT_TRUE(net.add_link("h1", 0, "s1", 1).ok());
    ASSERT_TRUE(net.add_link("h2", 0, "s1", 2).ok());
  }

  void connect() {
    net.attach_controller(controller);
    sched.run_for(milliseconds(1));
  }
};

TEST_F(OneSwitchFixture, HandshakeBringsConnectionUp) {
  connect();
  auto dpids = controller.connected_switches();
  ASSERT_EQ(dpids.size(), 1u);
  EXPECT_EQ(dpids[0], 1u);
  SwitchConnection* conn = controller.connection(1);
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->up());
  EXPECT_EQ(conn->ports().size(), 2u);
}

TEST_F(OneSwitchFixture, L2LearningEstablishesBidirectionalFlow) {
  auto l2 = std::make_shared<L2Learning>();
  controller.add_app(l2);
  connect();

  // First packet floods (dst unknown), reply installs both directions.
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1000, 2000));
  sched.run_for(milliseconds(5));
  EXPECT_EQ(h2->rx_packets(), 1u);
  EXPECT_GE(l2->floods(), 1u);

  h2->send(net::make_udp_packet(h2->mac(), h1->mac(), h2->ip(), h1->ip(), 2000, 1000));
  sched.run_for(milliseconds(5));
  EXPECT_EQ(h1->rx_packets(), 1u);
  EXPECT_GE(l2->installs(), 1u);

  // The third h1->h2 packet still misses (only the h2->h1 flow was
  // installed so far) and installs the forward flow; after that the
  // datapath switches without controller involvement.
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1000, 2000));
  sched.run_for(milliseconds(5));
  EXPECT_EQ(h2->rx_packets(), 2u);
  const auto packet_ins_before = controller.packet_ins_handled();
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1000, 2000));
  sched.run_for(milliseconds(5));
  EXPECT_EQ(h2->rx_packets(), 3u);
  EXPECT_EQ(controller.packet_ins_handled(), packet_ins_before);

  // Learned table is inspectable.
  const auto* table = l2->table(1);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->at(h1->mac()), 1);
  EXPECT_EQ(table->at(h2->mac()), 2);
}

TEST_F(OneSwitchFixture, BroadcastAlwaysFloods) {
  auto l2 = std::make_shared<L2Learning>();
  controller.add_app(l2);
  connect();
  h1->send(net::PacketBuilder()
               .eth(h1->mac(), MacAddr::broadcast(), net::ethertype::kArp)
               .arp(net::ArpView::kRequest, h1->mac(), h1->ip(), MacAddr(), h2->ip())
               .build());
  sched.run_for(milliseconds(5));
  // h2 answers the ARP request (broadcast reached it).
  EXPECT_GE(h1->rx_packets() + h2->rx_packets(), 1u);
  EXPECT_GE(l2->floods(), 1u);
}

/// Three switches in a line for discovery and steering.
struct LineFixture : ::testing::Test {
  EventScheduler sched;
  netemu::Network net{sched};
  Controller controller{sched, 10 * timeunit::kMicrosecond};

  void SetUp() override {
    net.add_switch("s1", 1);
    net.add_switch("s2", 2);
    net.add_switch("s3", 3);
    net.add_host("h1", MacAddr::from_u64(0xa1), Ipv4Addr(10, 0, 0, 1));
    net.add_host("h2", MacAddr::from_u64(0xa2), Ipv4Addr(10, 0, 0, 2));
    ASSERT_TRUE(net.add_link("h1", 0, "s1", 1).ok());
    ASSERT_TRUE(net.add_link("s1", 2, "s2", 1).ok());
    ASSERT_TRUE(net.add_link("s2", 2, "s3", 1).ok());
    ASSERT_TRUE(net.add_link("h2", 0, "s3", 2).ok());
  }
};

TEST_F(LineFixture, DiscoveryFindsAllAdjacencies) {
  auto discovery = std::make_shared<Discovery>(milliseconds(100));
  controller.add_app(discovery);
  int callbacks = 0;
  discovery->set_link_callback([&](const Link&) { ++callbacks; });
  net.attach_controller(controller);
  sched.run_for(milliseconds(500));

  auto links = discovery->links();
  // 2 inter-switch adjacencies, both directions. (Host links carry no
  // LLDP speaker, so they are not discovered.)
  EXPECT_EQ(links.size(), 4u);
  EXPECT_EQ(callbacks, 4);
  EXPECT_TRUE(discovery->bidirectional(1, 2, 2, 1));
  EXPECT_TRUE(discovery->bidirectional(2, 2, 3, 1));
  EXPECT_FALSE(discovery->bidirectional(1, 2, 3, 1));
}

TEST_F(LineFixture, ProactiveChainInstallForwardsEndToEnd) {
  auto steering = std::make_shared<TrafficSteering>();
  controller.add_app(steering);
  net.attach_controller(controller);
  sched.run_for(milliseconds(1));

  ChainPath path;
  path.chain_id = 7;
  path.match = openflow::Match().dl_type(net::ethertype::kIpv4).nw_dst(Ipv4Addr(10, 0, 0, 2));
  path.hops = {{1, 1, 2}, {2, 1, 2}, {3, 1, 2}};
  ASSERT_TRUE(steering->install_chain(path).ok());
  EXPECT_TRUE(steering->installed(7));
  sched.run_for(milliseconds(1));  // flow-mods propagate

  auto* h1 = net.host("h1");
  auto* h2 = net.host("h2");
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1, 2));
  sched.run_for(milliseconds(10));
  EXPECT_EQ(h2->rx_packets(), 1u);

  // Removal stops forwarding.
  ASSERT_TRUE(steering->remove_chain(7).ok());
  sched.run_for(milliseconds(1));
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1, 2));
  sched.run_for(milliseconds(10));
  EXPECT_EQ(h2->rx_packets(), 1u);
  EXPECT_FALSE(steering->installed(7));
}

TEST_F(LineFixture, ReactiveChainInstallsOnFirstPacket) {
  auto steering = std::make_shared<TrafficSteering>();
  controller.add_app(steering);
  net.attach_controller(controller);
  sched.run_for(milliseconds(1));
  auto& rtt = obs::MetricsRegistry::global().histogram("escape_of_packet_in_rtt_us",
                                                       {{"dpid", "1"}});
  const std::size_t rtt_before = rtt.count();

  ChainPath path;
  path.chain_id = 9;
  path.match = openflow::Match().dl_type(net::ethertype::kIpv4).nw_dst(Ipv4Addr(10, 0, 0, 2));
  path.hops = {{1, 1, 2}, {2, 1, 2}, {3, 1, 2}};
  steering->register_chain(path);
  EXPECT_FALSE(steering->installed(9));

  auto* h1 = net.host("h1");
  auto* h2 = net.host("h2");
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1, 2));
  sched.run_for(milliseconds(20));
  EXPECT_TRUE(steering->installed(9));
  EXPECT_EQ(steering->reactive_installs(), 1u);
  // The triggering (buffered) packet itself is released through the chain.
  EXPECT_EQ(h2->rx_packets(), 1u);
  // The flow-mod releasing the buffer closed the packet-in RTT span:
  // one round trip of the 10 us control channel, so >= 20 us.
  ASSERT_GT(rtt.count(), rtt_before);
  EXPECT_GE(rtt.max(), 20.0);

  // Follow-up traffic uses the installed flows.
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1, 2));
  sched.run_for(milliseconds(10));
  EXPECT_EQ(h2->rx_packets(), 2u);
}

TEST_F(LineFixture, InstallFailsForUnknownSwitch) {
  auto steering = std::make_shared<TrafficSteering>();
  controller.add_app(steering);
  net.attach_controller(controller);
  sched.run_for(milliseconds(1));

  ChainPath path;
  path.chain_id = 1;
  path.hops = {{99, 0, 1}};
  auto s = steering->install_chain(path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "pox.steering.switch-down");
  EXPECT_FALSE(steering->installed(1));
}

TEST_F(LineFixture, RemoveUnknownChainErrors) {
  auto steering = std::make_shared<TrafficSteering>();
  controller.add_app(steering);
  EXPECT_FALSE(steering->remove_chain(12345).ok());
}

TEST_F(LineFixture, IdleTimeoutChainFallsBackToPending) {
  auto steering = std::make_shared<TrafficSteering>();
  controller.add_app(steering);
  net.attach_controller(controller);
  sched.run_for(milliseconds(1));

  ChainPath path;
  path.chain_id = 3;
  path.match = openflow::Match().dl_type(net::ethertype::kIpv4).nw_dst(Ipv4Addr(10, 0, 0, 2));
  path.hops = {{1, 1, 2}, {2, 1, 2}, {3, 1, 2}};
  path.idle_timeout = milliseconds(50);
  ASSERT_TRUE(steering->install_chain(path).ok());
  sched.run_for(milliseconds(1));

  auto* h1 = net.host("h1");
  auto* h2 = net.host("h2");
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1, 2));
  sched.run_for(milliseconds(10));
  EXPECT_EQ(h2->rx_packets(), 1u);

  // Let the flows idle out; the chain reverts to pending and reinstalls
  // reactively on the next packet.
  sched.run_for(seconds(3));
  EXPECT_FALSE(steering->installed(3));
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1, 2));
  sched.run_for(milliseconds(20));
  EXPECT_TRUE(steering->installed(3));
  EXPECT_EQ(h2->rx_packets(), 2u);
}

TEST(ControllerApps, AppLookupByName) {
  EventScheduler sched;
  Controller controller(sched);
  controller.add_app(std::make_shared<TrafficSteering>());
  EXPECT_NE(controller.app("traffic_steering"), nullptr);
  EXPECT_EQ(controller.app("nope"), nullptr);
}

/// Copies every packet-in frame it sees.
struct FrameRecorder : App {
  std::vector<std::vector<std::uint8_t>> frames;
  std::string_view name() const override { return "frame_recorder"; }
  bool on_packet_in(SwitchConnection&, const openflow::PacketIn& in) override {
    frames.push_back(in.packet.data());
    return false;
  }
};

/// Each packet-in reaches the apps intact and then gives its buffer back
/// to the controller thread's pool. The pool's own bound caps what it
/// keeps (PacketPool.MaxFreeBoundsTheFreeList).
TEST(ControllerPacketIn, EachFrameReachesTheAppsIntactAndReturnsOneBuffer) {
  EventScheduler sched;
  Controller controller(sched, 10 * timeunit::kMicrosecond);
  auto recorder = std::make_shared<FrameRecorder>();
  controller.add_app(recorder);
  // An empty table: every frame misses and goes to the controller.
  openflow::OpenFlowSwitch sw(1, sched);
  sw.add_port(1, "eth1", MacAddr::from_u64(1), [](net::Packet&&) {});
  controller.attach_switch(sw);
  sched.run_for(milliseconds(1));

  net::PacketPool& pool = net::default_packet_pool();
  pool.clear();
  constexpr std::size_t kPacketIns = 50;
  std::vector<net::Packet> sent;
  for (std::size_t i = 0; i < kPacketIns; ++i) {
    // Frames of their own, not from the pool: only the controller's
    // recycling moves the free list.
    sent.push_back(net::make_udp_packet(MacAddr::from_u64(0xa1), MacAddr::from_u64(0xa2),
                                        Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                                        static_cast<std::uint16_t>(1000 + i), 2000));
    sw.receive(1, net::Packet(sent.back()));
    sched.run_for(milliseconds(1));
    ASSERT_EQ(recorder->frames.size(), i + 1);
    EXPECT_EQ(recorder->frames.back(), sent.back().data()) << "packet-in " << i;
    EXPECT_EQ(pool.free_buffers(), i + 1) << "packet-in " << i;
  }
  EXPECT_EQ(pool.recycled(), kPacketIns);
  EXPECT_EQ(controller.packet_ins_handled(), kPacketIns);
  pool.clear();
}

/// One switch with fast echo keepalives on both ends, so channel death
/// is detected within tens of virtual milliseconds.
struct LivenessFixture : OneSwitchFixture {
  openflow::OpenFlowSwitch* sw = nullptr;

  void fast_liveness(openflow::FailMode mode = openflow::FailMode::kSecure) {
    ControllerLiveness cl;
    cl.echo_interval = 10 * timeunit::kMillisecond;
    cl.miss_threshold = 2;
    controller.set_liveness(cl);

    sw = &net.switch_node("s1")->datapath();
    openflow::SwitchLiveness sl;
    sl.echo_interval = 10 * timeunit::kMillisecond;
    sl.miss_threshold = 2;
    sl.fail_mode = mode;
    sw->set_liveness(sl);
  }
};

TEST_F(LivenessFixture, EchoTimeoutDeclaresChannelDeadAndRevives) {
  fast_liveness();
  connect();
  SwitchConnection* conn = controller.connection(1);
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->up());
  EXPECT_TRUE(sw->connected());

  // Sever the channel silently (admin down drops frames; neither side
  // gets a FIN). Both echo state machines must notice the half-open
  // channel within miss_threshold * echo_interval.
  ASSERT_TRUE(controller.set_channel_admin(1, false).ok());
  sched.run_for(milliseconds(100));
  EXPECT_FALSE(conn->up());
  EXPECT_FALSE(sw->channel_live());
  EXPECT_FALSE(sw->connected());  // half-open: channel attached, but dead

  // Restore the channel: the next probe round trips, the switch revives
  // and the controller re-handshakes.
  ASSERT_TRUE(controller.set_channel_admin(1, true).ok());
  sched.run_for(milliseconds(100));
  EXPECT_TRUE(conn->up());
  EXPECT_TRUE(sw->connected());
}

TEST_F(LivenessFixture, FailSecureDropsTableMisses) {
  fast_liveness(openflow::FailMode::kSecure);
  controller.add_app(std::make_shared<L2Learning>());
  connect();

  ASSERT_TRUE(controller.set_channel_admin(1, false).ok());
  sched.run_for(milliseconds(100));
  ASSERT_FALSE(sw->connected());

  const auto drops_before = sw->failmode_drops();
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1000, 2000));
  sched.run_for(milliseconds(10));
  EXPECT_EQ(h2->rx_packets(), 0u);  // fail-secure: misses are dropped
  EXPECT_GT(sw->failmode_drops(), drops_before);
  EXPECT_EQ(sw->standalone_forwards(), 0u);
}

TEST_F(LivenessFixture, FailStandaloneFallsBackToLocalL2) {
  fast_liveness(openflow::FailMode::kStandalone);
  connect();

  ASSERT_TRUE(controller.set_channel_admin(1, false).ok());
  sched.run_for(milliseconds(100));
  ASSERT_FALSE(sw->connected());

  // Unknown destination floods; the reply uses the learned port.
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1000, 2000));
  sched.run_for(milliseconds(10));
  EXPECT_EQ(h2->rx_packets(), 1u);
  h2->send(net::make_udp_packet(h2->mac(), h1->mac(), h2->ip(), h1->ip(), 2000, 1000));
  sched.run_for(milliseconds(10));
  EXPECT_EQ(h1->rx_packets(), 1u);
  EXPECT_GE(sw->standalone_forwards(), 2u);
  EXPECT_EQ(sw->failmode_drops(), 0u);
  // The controller never saw these packets (channel is down).
  EXPECT_EQ(controller.packet_ins_handled(), 0u);
}

TEST_F(LivenessFixture, L2TablesEvictedOnChannelDownAndSwitchRestart) {
  fast_liveness();
  auto l2 = std::make_shared<L2Learning>();
  controller.add_app(l2);
  connect();

  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1000, 2000));
  h2->send(net::make_udp_packet(h2->mac(), h1->mac(), h2->ip(), h1->ip(), 2000, 1000));
  sched.run_for(milliseconds(5));
  ASSERT_NE(l2->table(1), nullptr);

  // Channel death invalidates the learned MACs (the datapath may have
  // been rewired while we could not see it).
  ASSERT_TRUE(controller.set_channel_admin(1, false).ok());
  sched.run_for(milliseconds(100));
  EXPECT_EQ(l2->table(1), nullptr);

  // Relearn after revival, then a switch restart (unsolicited Hello)
  // must evict again even though the channel itself stayed healthy.
  ASSERT_TRUE(controller.set_channel_admin(1, true).ok());
  sched.run_for(milliseconds(100));
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1000, 2000));
  sched.run_for(milliseconds(5));
  ASSERT_NE(l2->table(1), nullptr);

  sw->restart();
  sched.run_for(milliseconds(50));
  EXPECT_EQ(l2->table(1), nullptr);
  SwitchConnection* conn = controller.connection(1);
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->up());  // restart re-handshakes automatically
}

TEST_F(LivenessFixture, ResyncPurgesForeignRulesAndReinstallsMissing) {
  fast_liveness();
  auto steering = std::make_shared<TrafficSteering>();
  controller.add_app(steering);
  connect();

  ChainPath path;
  path.chain_id = 7;
  path.match = openflow::Match().dl_type(net::ethertype::kIpv4).nw_dst(Ipv4Addr(10, 0, 0, 2));
  path.hops = {{1, 1, 2}};
  ASSERT_TRUE(steering->install_chain(path).ok());
  sched.run_for(milliseconds(1));
  ASSERT_NE(steering->intent(1), nullptr);
  const std::size_t intent_rules = steering->intent(1)->size();
  ASSERT_GE(intent_rules, 1u);

  const auto resyncs_before = steering->resyncs();
  const auto purged_before = steering->rules_purged();
  const auto reinstalled_before = steering->rules_reinstalled();

  // Take the channel down, then tamper with the table behind the
  // controller's back: wipe the intended rules and plant a foreign
  // steering-cookie entry.
  ASSERT_TRUE(controller.set_channel_admin(1, false).ok());
  sched.run_for(milliseconds(100));
  ASSERT_TRUE(steering->dirty(1));
  sw->flow_table().clear();
  openflow::FlowMod foreign;
  foreign.match = openflow::Match().dl_type(net::ethertype::kIpv4).nw_dst(Ipv4Addr(10, 0, 0, 99));
  foreign.priority = 0x9000;
  foreign.cookie = 999;  // steering namespace, but nobody's intent
  foreign.actions = openflow::output_to(2);
  sw->flow_table().apply(foreign, sched.now());

  // Reconnect: the audit must purge the foreign entry, reinstall the
  // missing chain rules and barrier-confirm the dpid clean.
  ASSERT_TRUE(controller.set_channel_admin(1, true).ok());
  sched.run_for(milliseconds(200));
  EXPECT_FALSE(steering->dirty(1));
  EXPECT_GT(steering->resyncs(), resyncs_before);
  EXPECT_GE(steering->rules_purged(), purged_before + 1);
  EXPECT_GE(steering->rules_reinstalled(), reinstalled_before + intent_rules);

  // The table now mirrors the intent store exactly (steering cookies).
  std::size_t chain_entries = 0;
  bool foreign_present = false;
  for (const auto& e : sw->flow_table().stats(sched.now())) {
    if (e.cookie == 999) foreign_present = true;
    if (e.cookie == 7) ++chain_entries;
  }
  EXPECT_FALSE(foreign_present);
  EXPECT_EQ(chain_entries, intent_rules);

  // And the chain carries traffic again.
  h1->send(net::make_udp_packet(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 1000, 2000));
  sched.run_for(milliseconds(10));
  EXPECT_EQ(h2->rx_packets(), 1u);
}

TEST_F(OneSwitchFixture, ConfirmedInstallFiresOnlyAfterBarrier) {
  auto steering = std::make_shared<TrafficSteering>();
  controller.add_app(steering);
  connect();

  ChainPath path;
  path.chain_id = 11;
  path.match = openflow::Match().dl_type(net::ethertype::kIpv4).nw_dst(Ipv4Addr(10, 0, 0, 2));
  path.hops = {{1, 1, 2}};

  int done_calls = 0;
  Status result = ok_status();
  steering->install_chain_confirmed(path, [&](Status s) {
    ++done_calls;
    result = std::move(s);
  });
  // The rules + barrier are still in flight on the control channel.
  EXPECT_EQ(done_calls, 0);
  sched.run_for(milliseconds(1));
  EXPECT_EQ(done_calls, 1);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(steering->installed(11));
}

TEST_F(OneSwitchFixture, ConfirmedInstallRetriesThroughChannelOutage) {
  auto steering = std::make_shared<TrafficSteering>();
  controller.add_app(steering);
  connect();
  steering->install_options().confirm_timeout = 2 * timeunit::kMillisecond;

  ChainPath path;
  path.chain_id = 12;
  path.match = openflow::Match().dl_type(net::ethertype::kIpv4).nw_dst(Ipv4Addr(10, 0, 0, 2));
  path.hops = {{1, 1, 2}};

  // First attempt's flow-mods are dropped on the admin-down channel; the
  // channel recovers before the confirm timeout, so the retry succeeds.
  // (Default slow echo keepalives: the connection is never declared
  // dead during this short outage.)
  ASSERT_TRUE(controller.set_channel_admin(1, false).ok());
  int done_calls = 0;
  Status result = ok_status();
  steering->install_chain_confirmed(path, [&](Status s) {
    ++done_calls;
    result = std::move(s);
  });
  sched.run_for(milliseconds(1));
  EXPECT_EQ(done_calls, 0);
  ASSERT_TRUE(controller.set_channel_admin(1, true).ok());
  sched.run_for(milliseconds(20));
  EXPECT_EQ(done_calls, 1);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(steering->installed(12));
}

TEST_F(OneSwitchFixture, ConfirmedInstallFailsAfterBoundedRetries) {
  auto steering = std::make_shared<TrafficSteering>();
  controller.add_app(steering);
  connect();
  steering->install_options().confirm_timeout = 2 * timeunit::kMillisecond;
  steering->install_options().max_attempts = 3;

  ChainPath path;
  path.chain_id = 13;
  path.match = openflow::Match().dl_type(net::ethertype::kIpv4).nw_dst(Ipv4Addr(10, 0, 0, 2));
  path.hops = {{1, 1, 2}};

  ASSERT_TRUE(controller.set_channel_admin(1, false).ok());
  int done_calls = 0;
  Status result = ok_status();
  steering->install_chain_confirmed(path, [&](Status s) {
    ++done_calls;
    result = std::move(s);
  });
  sched.run_for(milliseconds(200));
  EXPECT_EQ(done_calls, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(steering->installed(13));
}

}  // namespace
}  // namespace escape::pox
