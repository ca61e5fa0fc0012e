// Tests for the emulated infrastructure: link bandwidth/delay/queue
// semantics, hosts, and the VNF container lifecycle (the cgroup-style
// CPU share model included).
#include <gtest/gtest.h>

#include "click/flow.hpp"
#include "net/builder.hpp"
#include "netemu/network.hpp"
#include "netemu/pcap.hpp"

#include <cstring>
#include <sstream>

namespace escape::netemu {
namespace {

using net::Ipv4Addr;
using net::MacAddr;

TEST(Link, PropagationDelayIsApplied) {
  EventScheduler sched;
  Network net(sched);
  auto& a = net.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.delay = milliseconds(2);
  ASSERT_TRUE(net.add_link("a", 0, "b", 0, cfg).ok());

  net::Packet p = net::make_udp_packet(a.mac(), b.mac(), a.ip(), b.ip(), 1, 2, 1000);
  p.set_timestamp(sched.now());
  a.send(std::move(p));
  sched.run_for(milliseconds(1));
  EXPECT_EQ(b.rx_packets(), 0u);  // still propagating
  sched.run_for(milliseconds(2));
  EXPECT_EQ(b.rx_packets(), 1u);
  // Latency = serialization (8 us for 1000 B at 1 Gb/s) + 2 ms propagation.
  EXPECT_NEAR(b.latency_us().mean(), 2008.0, 1.0);
}

TEST(Link, BandwidthSerializesBackToBack) {
  EventScheduler sched;
  Network net(sched);
  auto& a = net.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;  // 1000-byte frame = 1 ms serialization
  cfg.delay = 0;
  ASSERT_TRUE(net.add_link("a", 0, "b", 0, cfg).ok());

  for (int i = 0; i < 10; ++i) {
    net::Packet p = net::make_udp_packet(a.mac(), b.mac(), a.ip(), b.ip(), 1, 2, 1000);
    p.set_timestamp(sched.now());
    a.send(std::move(p));
  }
  sched.run_for(milliseconds(5));
  EXPECT_EQ(b.rx_packets(), 5u);  // one per millisecond
  sched.run_for(milliseconds(5));
  EXPECT_EQ(b.rx_packets(), 10u);
}

TEST(Link, QueueBoundDropsExcess) {
  EventScheduler sched;
  Network net(sched);
  auto& a = net.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;
  cfg.queue_frames = 3;
  ASSERT_TRUE(net.add_link("a", 0, "b", 0, cfg).ok());

  for (int i = 0; i < 10; ++i) {
    a.send(net::make_udp_packet(a.mac(), b.mac(), a.ip(), b.ip(), 1, 2, 1000));
  }
  sched.run();
  EXPECT_EQ(b.rx_packets(), 3u);
  EXPECT_EQ(net.links()[0]->dropped(0), 7u);
  EXPECT_EQ(net.links()[0]->delivered(0), 3u);
}

TEST(Link, BurstDeliversInOrderWithScalarTiming) {
  EventScheduler sched;
  Network net(sched);
  auto& a = net.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;  // 1000-byte frame = 1 ms serialization
  cfg.delay = 0;
  ASSERT_TRUE(net.add_link("a", 0, "b", 0, cfg).ok());

  std::vector<std::uint64_t> rx_seqs;
  std::vector<SimTime> rx_times;
  b.on_receive([&](const net::Packet& p) {
    rx_seqs.push_back(p.seq());
    rx_times.push_back(sched.now());
  });

  for (std::uint64_t i = 0; i < 10; ++i) {
    net::Packet p = net::make_udp_packet(a.mac(), b.mac(), a.ip(), b.ip(), 1, 2, 1000);
    p.set_seq(i);
    a.send(std::move(p));
  }
  // The whole burst is represented by a single armed delivery event per
  // link direction, not one event per frame.
  EXPECT_LE(sched.pending_events(), 2u);

  sched.run();
  ASSERT_EQ(rx_seqs.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rx_seqs[i], i);  // FIFO order preserved
    // Serialization spaces deliveries exactly one frame time apart,
    // identical to the per-event model.
    EXPECT_EQ(rx_times[i], static_cast<SimTime>((i + 1) * timeunit::kMillisecond));
  }
  EXPECT_EQ(net.links()[0]->delivered(0), 10u);
  // Each fire of the armed event carries exactly one frame.
  EXPECT_EQ(sched.executed_events(), 10u);
}

TEST(Link, FrameRingGrowsWhileWrappedInFifoOrder) {
  EventScheduler sched;
  Network net(sched);
  auto& a = net.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;  // 1000-byte frame = 1 ms serialization
  cfg.delay = 0;
  ASSERT_TRUE(net.add_link("a", 0, "b", 0, cfg).ok());
  std::vector<std::uint64_t> rx_seqs;
  std::vector<SimTime> rx_times;
  b.on_receive([&](const net::Packet& p) {
    rx_seqs.push_back(p.seq());
    rx_times.push_back(sched.now());
  });
  auto send = [&](std::uint64_t seq) {
    net::Packet p = net::make_udp_packet(a.mac(), b.mac(), a.ip(), b.ip(), 1, 2, 1000);
    p.set_seq(seq);
    a.send(std::move(p));
  };

  // Three frames, two delivered: the third sits mid-ring, so the next
  // burst wraps around before the ring has to grow (twice).
  for (std::uint64_t i = 0; i < 3; ++i) send(i);
  sched.run_until(milliseconds(2));
  ASSERT_EQ(rx_seqs.size(), 2u);
  for (std::uint64_t i = 3; i < 13; ++i) send(i);
  sched.run();
  ASSERT_EQ(rx_seqs.size(), 13u);
  for (std::uint64_t i = 0; i < 13; ++i) {
    EXPECT_EQ(rx_seqs[i], i);
    EXPECT_EQ(rx_times[i], static_cast<SimTime>((i + 1) * timeunit::kMillisecond));
  }
}

TEST(Link, DownDropsQueuedAndOfferedFrames) {
  EventScheduler sched;
  Network net(sched);
  auto& a = net.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;  // 1000-byte frame = 1 ms serialization
  cfg.delay = 0;
  ASSERT_TRUE(net.add_link("a", 0, "b", 0, cfg).ok());
  Link& link = *net.links()[0];
  auto send = [&] { a.send(net::make_udp_packet(a.mac(), b.mac(), a.ip(), b.ip(), 1, 2, 1000)); };

  for (int i = 0; i < 5; ++i) send();
  sched.run_until(milliseconds(2));
  EXPECT_EQ(b.rx_packets(), 2u);
  link.set_up(false);  // the three queued frames are lost with the wire
  EXPECT_EQ(link.dropped(0), 3u);
  EXPECT_EQ(sched.pending_events(), 0u);
  send();  // offered while down
  EXPECT_EQ(link.dropped(0), 4u);
  link.set_up(true);  // an idle wire again
  send();
  send();
  sched.run();
  EXPECT_EQ(b.rx_packets(), 4u);
  EXPECT_EQ(link.delivered(0), 4u);
  EXPECT_EQ(link.dropped(0), 4u);
  EXPECT_EQ(sched.now(), milliseconds(4));
}

TEST(Link, RandomLossDropsApproximately) {
  EventScheduler sched;
  Network net(sched);
  auto& a = net.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  LinkConfig cfg;
  cfg.loss = 0.2;
  cfg.queue_frames = 100000;
  ASSERT_TRUE(net.add_link("a", 0, "b", 0, cfg).ok());

  for (int i = 0; i < 2000; ++i) {
    a.send(net::make_udp_packet(a.mac(), b.mac(), a.ip(), b.ip(), 1, 2, 100));
    sched.run_for(microseconds(10));
  }
  sched.run();
  EXPECT_NEAR(static_cast<double>(b.rx_packets()) / 2000.0, 0.8, 0.05);
}

TEST(Host, ArpResponder) {
  EventScheduler sched;
  Network net(sched);
  auto& a = net.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  ASSERT_TRUE(net.add_link("a", 0, "b", 0).ok());

  bool got_reply = false;
  a.on_receive([&](const net::Packet& p) {
    auto eth = net::EthernetView::parse(p.bytes());
    if (eth && eth->ethertype == net::ethertype::kArp) {
      auto arp = net::ArpView::parse(eth->payload);
      if (arp && arp->opcode == net::ArpView::kReply) {
        got_reply = arp->sender_ip == Ipv4Addr(10, 0, 0, 2) &&
                    arp->sender_mac == MacAddr::from_u64(2);
      }
    }
  });
  a.send(net::PacketBuilder()
             .eth(a.mac(), MacAddr::broadcast(), net::ethertype::kArp)
             .arp(net::ArpView::kRequest, a.mac(), a.ip(), MacAddr(), b.ip())
             .build());
  sched.run();
  EXPECT_TRUE(got_reply);
  // ARP requests for other addresses are ignored.
  a.send(net::PacketBuilder()
             .eth(a.mac(), MacAddr::broadcast(), net::ethertype::kArp)
             .arp(net::ArpView::kRequest, a.mac(), a.ip(), MacAddr(), Ipv4Addr(9, 9, 9, 9))
             .build());
  std::uint64_t before = a.rx_packets();
  sched.run();
  EXPECT_EQ(a.rx_packets(), before);
}

TEST(Host, UdpFlowPacingAndSequencing) {
  EventScheduler sched;
  Network net(sched);
  auto& a = net.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  ASSERT_TRUE(net.add_link("a", 0, "b", 0).ok());

  a.start_udp_flow(b.mac(), b.ip(), 1000, 2000, /*count=*/100, /*rate_pps=*/1000);
  sched.run_for(milliseconds(50));
  // Packets sent at t=0..49ms have arrived (the 50 ms one is still on
  // the wire: ~50 us link delay).
  EXPECT_EQ(b.rx_packets(), 50u);
  sched.run();
  EXPECT_EQ(b.rx_packets(), 100u);
  EXPECT_EQ(b.max_seq_seen(), 100u);
  EXPECT_EQ(a.tx_packets(), 100u);
  b.reset_counters();
  EXPECT_EQ(b.rx_packets(), 0u);
}

TEST(Network, NodeManagement) {
  EventScheduler sched;
  Network net(sched);
  net.add_host("h1");
  net.add_switch("s1");
  net.add_container("c1");
  EXPECT_EQ(net.host_count(), 1u);
  EXPECT_EQ(net.switch_count(), 1u);
  EXPECT_EQ(net.container_count(), 1u);
  EXPECT_NE(net.node("h1"), nullptr);
  EXPECT_EQ(net.node("zzz"), nullptr);
  EXPECT_NE(net.host("h1"), nullptr);
  EXPECT_EQ(net.host("s1"), nullptr);  // wrong type
  EXPECT_THROW(net.add_host("h1"), std::invalid_argument);
}

TEST(Network, AutoAddressesAreUnique) {
  EventScheduler sched;
  Network net(sched);
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  EXPECT_NE(h1.mac(), h2.mac());
  EXPECT_NE(h1.ip(), h2.ip());
}

TEST(Network, PortConflictRejected) {
  EventScheduler sched;
  Network net(sched);
  net.add_host("a");
  net.add_host("b");
  net.add_host("c");
  ASSERT_TRUE(net.add_link("a", 0, "b", 0).ok());
  auto s = net.add_link("a", 0, "c", 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "netemu.port-in-use");
}

TEST(Network, NextFreePortIsOneAboveHighestLinkedPort) {
  EventScheduler sched;
  Network net(sched);
  net.add_host("h1");
  net.add_switch("s1");
  net.add_container("c1");
  EXPECT_EQ(*net.next_free_port(net.node("s1")), 0);
  ASSERT_TRUE(net.add_link("h1", 0, "s1", 7).ok());
  ASSERT_TRUE(net.add_link("c1", 4, "s1", 3).ok());
  // The highest port counts, not the count of links or the last one.
  EXPECT_EQ(*net.next_free_port(net.node("s1")), 8);
  EXPECT_EQ(*net.next_free_port(net.node("c1")), 5);
  EXPECT_EQ(*net.next_free_port(net.node("h1")), 1);
  // A failed add_link records nothing.
  EXPECT_FALSE(net.add_link("c1", 9, "s1", 7).ok());
  EXPECT_EQ(*net.next_free_port(net.node("c1")), 5);
}

TEST(Network, SwitchPortsAtOrAboveOfppMaxRejected) {
  EventScheduler sched;
  Network net(sched);
  net.add_host("h1");
  net.add_host("h2");
  net.add_switch("s1");
  for (std::uint16_t reserved : {0xff00, 0xfff8, 0xfffb, 0xfffd, 0xffff}) {
    auto s = net.add_link("h1", 0, "s1", reserved);
    ASSERT_FALSE(s.ok()) << reserved;
    EXPECT_EQ(s.error().code, "netemu.reserved-port");
    s = net.add_link("s1", reserved, "h1", 0);
    ASSERT_FALSE(s.ok()) << reserved;
    EXPECT_EQ(s.error().code, "netemu.reserved-port");
  }
  EXPECT_TRUE(net.links().empty());
  EXPECT_FALSE(net.switch_node("s1")->datapath().has_port(0xfffd));
  ASSERT_TRUE(net.add_link("h1", 0, "s1", 0xfeff).ok());
  EXPECT_TRUE(net.switch_node("s1")->datapath().has_port(0xfeff));
  // Only switch ports are OpenFlow port numbers.
  EXPECT_TRUE(net.add_link("h2", 0xffff, "s1", 1).ok());
}

TEST(Network, PortAllocationStopsBelowOfppMax) {
  EventScheduler sched;
  Network net(sched);
  net.add_host("h1");
  net.add_host("h2");
  net.add_switch("s1");
  ASSERT_TRUE(net.add_link("h1", 0, "s1", 0xfefe).ok());
  EXPECT_EQ(*net.next_free_port(net.node("s1")), 0xfeff);
  ASSERT_TRUE(net.add_link("h2", 0, "s1", 0xfeff).ok());
  auto next = net.next_free_port(net.node("s1"));
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, "netemu.ports-exhausted");
  // A host at 65535 neither wraps to port 0 nor reaches a reserved number.
  net.add_host("h3");
  ASSERT_TRUE(net.add_link("h3", 0xffff, "h1", 1).ok());
  next = net.next_free_port(net.node("h3"));
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, "netemu.ports-exhausted");
}

// --- VnfContainer -------------------------------------------------------------------

constexpr const char* kMonitorConfig =
    "from :: FromDevice(DEVNAME in0);\n"
    "cnt :: Counter;\n"
    "to :: ToDevice(DEVNAME out0);\n"
    "from -> cnt -> to;\n";

struct ContainerFixture : ::testing::Test {
  EventScheduler sched;
  VnfContainer c{"c1", sched, /*cpu=*/1.0, /*max_vnfs=*/4};
};

TEST_F(ContainerFixture, LifecycleInitStartStopRemove) {
  ASSERT_TRUE(c.init_vnf("v1", "monitor", kMonitorConfig, 0.5).ok());
  auto info = c.vnf_info("v1");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->status, VnfStatus::kInitialized);
  EXPECT_DOUBLE_EQ(c.cpu_in_use(), 0.0);  // not running yet

  ASSERT_TRUE(c.start_vnf("v1").ok());
  EXPECT_DOUBLE_EQ(c.cpu_in_use(), 0.5);
  EXPECT_EQ(c.vnf_info("v1")->status, VnfStatus::kRunning);

  ASSERT_TRUE(c.stop_vnf("v1").ok());
  EXPECT_DOUBLE_EQ(c.cpu_in_use(), 0.0);
  EXPECT_EQ(c.vnf_info("v1")->status, VnfStatus::kStopped);

  ASSERT_TRUE(c.remove_vnf("v1").ok());
  EXPECT_FALSE(c.vnf_info("v1").ok());
}

TEST_F(ContainerFixture, LifecycleErrors) {
  EXPECT_FALSE(c.start_vnf("ghost").ok());
  ASSERT_TRUE(c.init_vnf("v1", "monitor", kMonitorConfig, 0.5).ok());
  EXPECT_FALSE(c.init_vnf("v1", "monitor", kMonitorConfig, 0.5).ok());  // dup
  EXPECT_FALSE(c.stop_vnf("v1").ok());    // not running
  EXPECT_FALSE(c.init_vnf("v2", "x", kMonitorConfig, 0.0).ok());   // bad share
  EXPECT_FALSE(c.init_vnf("v2", "x", kMonitorConfig, 1.5).ok());   // share > capacity
  ASSERT_TRUE(c.start_vnf("v1").ok());
  EXPECT_FALSE(c.start_vnf("v1").ok());   // already running
  EXPECT_FALSE(c.remove_vnf("v1").ok());  // must stop first
}

TEST_F(ContainerFixture, CpuBudgetEnforced) {
  ASSERT_TRUE(c.init_vnf("v1", "m", kMonitorConfig, 0.6).ok());
  ASSERT_TRUE(c.init_vnf("v2", "m", kMonitorConfig, 0.6).ok());
  ASSERT_TRUE(c.start_vnf("v1").ok());
  auto s = c.start_vnf("v2");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "container.cpu-exhausted");
  // Stopping v1 frees budget.
  ASSERT_TRUE(c.stop_vnf("v1").ok());
  EXPECT_TRUE(c.start_vnf("v2").ok());
}

TEST_F(ContainerFixture, SlotLimitEnforced) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c.init_vnf("v" + std::to_string(i), "m", kMonitorConfig, 0.1).ok());
  }
  auto s = c.init_vnf("v4", "m", kMonitorConfig, 0.1);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "container.full");
}

TEST_F(ContainerFixture, BadClickConfigRejectedAtStart) {
  ASSERT_TRUE(c.init_vnf("v1", "m", "zzz ->;", 0.1).ok());
  EXPECT_FALSE(c.start_vnf("v1").ok());
  EXPECT_EQ(c.vnf_info("v1")->status, VnfStatus::kInitialized);
}

TEST_F(ContainerFixture, PacketPathThroughVnf) {
  // c1 wired to a peer host through port 0 (in) and port 1 (out).
  Network net(sched);
  auto& container = net.add_container("cx", 1.0, 4);
  auto& hin = net.add_host("hin", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& hout = net.add_host("hout", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  ASSERT_TRUE(net.add_link("hin", 0, "cx", 0).ok());
  ASSERT_TRUE(net.add_link("cx", 1, "hout", 0).ok());

  ASSERT_TRUE(container.init_vnf("mon", "monitor", kMonitorConfig, 0.2).ok());
  ASSERT_TRUE(container.start_vnf("mon").ok());
  ASSERT_TRUE(container.connect_vnf("mon", "in0", 0).ok());
  ASSERT_TRUE(container.connect_vnf("mon", "out0", 1).ok());

  hin.send(net::make_udp_packet(hin.mac(), hout.mac(), hin.ip(), hout.ip(), 1, 2));
  sched.run();
  EXPECT_EQ(hout.rx_packets(), 1u);
  EXPECT_EQ(container.read_handler("mon", "cnt.count").value(), "1");

  // Disconnect: traffic stops flowing.
  ASSERT_TRUE(container.disconnect_vnf("mon", "in0").ok());
  hin.send(net::make_udp_packet(hin.mac(), hout.mac(), hin.ip(), hout.ip(), 1, 2));
  sched.run();
  EXPECT_EQ(hout.rx_packets(), 1u);
}

TEST_F(ContainerFixture, ConnectConflictsAndErrors) {
  ASSERT_TRUE(c.init_vnf("v1", "m", kMonitorConfig, 0.1).ok());
  ASSERT_TRUE(c.init_vnf("v2", "m", kMonitorConfig, 0.1).ok());
  ASSERT_TRUE(c.connect_vnf("v1", "in0", 0).ok());
  auto s = c.connect_vnf("v2", "in0", 0);  // port taken by v1
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "container.port-in-use");
  // Re-connecting the same device to the same port is fine (idempotent).
  EXPECT_TRUE(c.connect_vnf("v1", "in0", 0).ok());
  EXPECT_FALSE(c.disconnect_vnf("v1", "bogus").ok());
  EXPECT_FALSE(c.connect_vnf("ghost", "in0", 3).ok());
}

TEST_F(ContainerFixture, StoppedVnfKeepsFinalHandlerSnapshot) {
  Network net(sched);
  auto& container = net.add_container("cy", 1.0, 4);
  auto& hin = net.add_host("hy", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  ASSERT_TRUE(net.add_link("hy", 0, "cy", 0).ok());
  ASSERT_TRUE(container.init_vnf("mon", "monitor", kMonitorConfig, 0.2).ok());
  ASSERT_TRUE(container.start_vnf("mon").ok());
  ASSERT_TRUE(container.connect_vnf("mon", "in0", 0).ok());
  hin.send(net::make_udp_packet(hin.mac(), MacAddr::from_u64(9), hin.ip(),
                                Ipv4Addr(10, 0, 0, 9), 1, 2));
  sched.run();
  ASSERT_TRUE(container.stop_vnf("mon").ok());
  auto info = container.vnf_info("mon");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->handlers.at("cnt.count"), "1");
  // Live handler reads are rejected once stopped.
  EXPECT_FALSE(container.read_handler("mon", "cnt.count").ok());
}

TEST_F(ContainerFixture, WriteHandlerThroughContainer) {
  ASSERT_TRUE(c.init_vnf("v1", "m", kMonitorConfig, 0.1).ok());
  ASSERT_TRUE(c.start_vnf("v1").ok());
  ASSERT_TRUE(c.write_handler("v1", "cnt.reset", "").ok());
  EXPECT_FALSE(c.write_handler("v1", "cnt.bogus", "").ok());
}

// --- flow-state split (the scale-out hand-off) -------------------------------------

click::FlowTuple tuple_of(std::uint32_t i) {
  click::FlowTuple t;
  t.src_ip = 0x0a000001;
  t.dst_ip = 0x0a000101;
  t.src_port = static_cast<std::uint16_t>(1000 + i);
  t.dst_port = 80;
  t.proto = 17;
  return t;
}

/// One record as FlowManager::export_state writes it.
std::string flow_line(const click::FlowTuple& t) {
  return "flow " + std::to_string(t.src_ip) + " " + std::to_string(t.dst_ip) + " " +
         std::to_string(t.src_port) + " " + std::to_string(t.dst_port) + " " +
         std::to_string(unsigned{t.proto}) + " 5 9 3 300";
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(SplitFlowState, EachFlowAndItsStateLandOnHashModN) {
  constexpr std::size_t kParts = 3;
  std::string blob = "manager fm\n";
  for (std::uint32_t i = 0; i < 24; ++i) {
    blob += flow_line(tuple_of(i)) + "\nstate nat " + std::to_string(i) + "\n";
  }
  blob += "endmanager\n";
  const std::vector<std::string> parts = split_flow_state({blob}, kParts);
  ASSERT_EQ(parts.size(), kParts);

  std::size_t flows = 0;
  for (std::size_t p = 0; p < kParts; ++p) {
    const std::vector<std::string> lines = lines_of(parts[p]);
    for (std::size_t k = 0; k < lines.size(); ++k) {
      if (lines[k].rfind("flow ", 0) != 0) continue;
      const auto record = click::parse_flow_record(lines[k]);
      ASSERT_TRUE(record.has_value()) << lines[k];
      EXPECT_EQ(record->tuple.hash() % kParts, p) << lines[k];
      const std::uint32_t index = record->tuple.src_port - 1000u;
      ASSERT_LT(k + 1, lines.size());
      EXPECT_EQ(lines[k + 1], "state nat " + std::to_string(index));
      ++flows;
    }
  }
  EXPECT_EQ(flows, 24u);
}

TEST(SplitFlowState, PartsRepeatTheManagerHeaderAndCloseIt) {
  constexpr std::size_t kParts = 2;
  // Two old instances, each with two managers: every part opens each
  // manager it receives flows for and closes it before the next.
  std::vector<std::string> blobs;
  for (std::uint32_t source = 0; source < 2; ++source) {
    std::string blob;
    for (const char* manager : {"fm", "fm2"}) {
      blob += std::string("manager ") + manager + "\n";
      for (std::uint32_t i = 0; i < 16; ++i) {
        blob += flow_line(tuple_of(100 * source + i)) + "\n";
      }
      blob += "endmanager\n";
    }
    blobs.push_back(blob);
  }
  for (const std::string& part : split_flow_state(blobs, kParts)) {
    const std::vector<std::string> lines = lines_of(part);
    ASSERT_FALSE(lines.empty());
    std::string open;
    std::size_t sections = 0;
    for (const std::string& line : lines) {
      if (line.rfind("manager ", 0) == 0) {
        EXPECT_TRUE(open.empty()) << "section " << open << " left open";
        open = line;
        ++sections;
      } else if (line == "endmanager") {
        EXPECT_FALSE(open.empty());
        open.clear();
      } else {
        EXPECT_FALSE(open.empty()) << "record outside a manager section: " << line;
      }
    }
    EXPECT_TRUE(open.empty());
    EXPECT_EQ(lines.back(), "endmanager");
    EXPECT_EQ(sections, 4u);  // both managers, once per source blob
  }
}

TEST(SplitFlowState, EmptyPartsStayEmpty) {
  const click::FlowTuple t = tuple_of(7);
  const std::string blob = "manager fm\n" + flow_line(t) + "\nendmanager\n";
  const std::vector<std::string> parts = split_flow_state({blob, "manager fm\nendmanager\n"}, 4);
  ASSERT_EQ(parts.size(), 4u);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (p == t.hash() % 4) {
      EXPECT_EQ(parts[p], blob);
    } else {
      EXPECT_EQ(parts[p], "") << "part " << p;
    }
  }
}

TEST(SplitFlowState, RecordTheImporterRejectsIsDroppedWithItsState) {
  const click::FlowTuple good = tuple_of(1);
  const std::string blob = "manager fm\n"
                           "flow 167772161 167772417 70000 80 17 5 9 3 300\n"
                           "state nat port-above-range\n"
                           "flow 167772161 167772417 1000 80\n"
                           "state nat truncated-record\n" +
                           flow_line(good) + "\nstate nat kept\nendmanager\n";
  const std::vector<std::string> parts = split_flow_state({blob}, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "manager fm\n" + flow_line(good) + "\nstate nat kept\nendmanager\n");
  EXPECT_FALSE(click::parse_flow_record("flow 167772161 167772417 70000 80 17 5 9 3 300"));
  EXPECT_FALSE(click::parse_flow_record("flow 167772161 167772417 1000 80"));
}

// --- pcap capture -----------------------------------------------------------------

TEST(Pcap, WritesParseableFile) {
  EventScheduler sched;
  PcapWriter writer;
  const std::string path = ::testing::TempDir() + "/escape_test.pcap";
  ASSERT_TRUE(writer.open(path).ok());

  net::Packet p1 = net::make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2),
                                        Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1, 2, 98);
  net::Packet p2 = net::make_udp_packet(MacAddr::from_u64(3), MacAddr::from_u64(4),
                                        Ipv4Addr(10, 0, 0, 3), Ipv4Addr(10, 0, 0, 4), 3, 4, 60);
  ASSERT_TRUE(writer.write(p1, seconds(1) + microseconds(500)).ok());
  ASSERT_TRUE(writer.write(p2, seconds(2)).ok());
  EXPECT_EQ(writer.frames_written(), 2u);
  writer.close();

  // Re-read and verify the structure byte by byte.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::uint8_t header[24];
  ASSERT_EQ(std::fread(header, 1, 24, f), 24u);
  std::uint32_t magic, linktype;
  std::memcpy(&magic, &header[0], 4);
  std::memcpy(&linktype, &header[20], 4);
  EXPECT_EQ(magic, 0xa1b2c3d4u);
  EXPECT_EQ(linktype, 1u);  // Ethernet

  std::uint8_t record[16];
  ASSERT_EQ(std::fread(record, 1, 16, f), 16u);
  std::uint32_t ts_sec, ts_usec, caplen, origlen;
  std::memcpy(&ts_sec, &record[0], 4);
  std::memcpy(&ts_usec, &record[4], 4);
  std::memcpy(&caplen, &record[8], 4);
  std::memcpy(&origlen, &record[12], 4);
  EXPECT_EQ(ts_sec, 1u);
  EXPECT_EQ(ts_usec, 500u);
  EXPECT_EQ(caplen, 98u);
  EXPECT_EQ(origlen, 98u);
  std::vector<std::uint8_t> frame(caplen);
  ASSERT_EQ(std::fread(frame.data(), 1, caplen, f), caplen);
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), p1.data().begin()));
  std::fclose(f);
}

TEST(Pcap, SnaplenTruncatesCapturedBytesOnly) {
  PcapWriter writer;
  const std::string path = ::testing::TempDir() + "/escape_snap.pcap";
  ASSERT_TRUE(writer.open(path, /*snaplen=*/32).ok());
  net::Packet big = net::make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2),
                                         Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2, 1500);
  ASSERT_TRUE(writer.write(big, 0).ok());
  writer.close();

  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 24, SEEK_SET);
  std::uint8_t record[16];
  ASSERT_EQ(std::fread(record, 1, 16, f), 16u);
  std::uint32_t caplen, origlen;
  std::memcpy(&caplen, &record[8], 4);
  std::memcpy(&origlen, &record[12], 4);
  EXPECT_EQ(caplen, 32u);
  EXPECT_EQ(origlen, 1500u);
  std::fclose(f);
}

TEST(Pcap, CaptureFromHostObserver) {
  EventScheduler sched;
  Network net(sched);
  auto& a = net.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  ASSERT_TRUE(net.add_link("a", 0, "b", 0).ok());

  PcapWriter writer;
  const std::string path = ::testing::TempDir() + "/escape_host.pcap";
  ASSERT_TRUE(writer.open(path).ok());
  b.on_receive([&](const net::Packet& p) { (void)writer.write(p, sched.now()); });

  a.start_udp_flow(b.mac(), b.ip(), 1, 2, 10, 1000);
  sched.run();
  EXPECT_EQ(writer.frames_written(), 10u);
}

TEST(Pcap, ErrorsOnClosedWriterAndBadPath) {
  PcapWriter writer;
  net::Packet p = net::make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2),
                                       Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2);
  EXPECT_FALSE(writer.write(p, 0).ok());
  EXPECT_FALSE(writer.open("/nonexistent-dir-zzz/x.pcap").ok());
}

}  // namespace
}  // namespace escape::netemu
