// The flow-aware middlebox substrate: FlowStateTable hashing/eviction,
// FlowManager classification and context publication, the stateful VNFs
// built on it (FlowNAT, FlowLB, TcpReassembler, StreamIDS), and the
// bit-identical-across-thread-counts guarantee for a stateful chain.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "click/config.hpp"
#include "click/elements.hpp"
#include "click/flow.hpp"
#include "escape/environment.hpp"
#include "net/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "openflow/switch.hpp"
#include "support/view_flow_parser.hpp"
#include "util/strings.hpp"

namespace escape {
namespace {

using click::FlowBlockHeader;
using click::FlowManager;
using click::FlowStateTable;
using click::FlowTuple;
using click::FromDevice;
using click::Router;
using click::ToDevice;
using click::build_router;
using net::Ipv4Addr;
using net::MacAddr;
using net::Packet;

FlowTuple tuple(std::uint32_t n, std::uint16_t sport = 1000, std::uint16_t dport = 2000) {
  FlowTuple t;
  t.src_ip = Ipv4Addr(10, 0, 0, 1).value() + n;
  t.dst_ip = Ipv4Addr(10, 0, 1, 1).value();
  t.src_port = sport;
  t.dst_port = dport;
  t.proto = net::ipproto::kUdp;
  return t;
}

Packet udp_packet(std::uint16_t sport, std::uint16_t dport = 7777,
                  Ipv4Addr src = Ipv4Addr(10, 0, 0, 5), Ipv4Addr dst = Ipv4Addr(8, 8, 8, 8)) {
  return net::make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2), src, dst, sport,
                              dport, 98);
}

Packet tcp_packet(std::uint32_t seq, std::uint8_t flags, std::string_view payload,
                  std::uint16_t sport = 1234, std::uint16_t dport = 80) {
  net::TcpFields f;
  f.src_port = sport;
  f.dst_port = dport;
  f.seq = seq;
  f.flags = flags;
  net::PacketBuilder b;
  b.eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
      .ipv4(Ipv4Addr(10, 0, 0, 5), Ipv4Addr(8, 8, 8, 8), net::ipproto::kTcp)
      .tcp(f);
  if (!payload.empty()) b.payload(payload);
  return b.build();
}

/// Collects packets for assertions: a ToDevice with an inspecting sink.
struct Collector {
  std::vector<Packet> packets;

  void attach(Router& router, const std::string& todevice_name) {
    auto* to = dynamic_cast<ToDevice*>(router.element(todevice_name));
    ASSERT_NE(to, nullptr);
    to->set_sink([this](Packet&& p) { packets.push_back(std::move(p)); });
  }
};

// --- FlowTuple --------------------------------------------------------------

/// The one-pass FlowTuple parser against the view-based body it
/// replaced, on the seeded mutation corpus: the same frames rejected and
/// the same tuple, field for field.
TEST(FlowTupleDifferential, OnePassParserMatchesViewParserOnMutationCorpus) {
  const std::vector<Packet> corpus = net::testing::parser_mutation_corpus(0x5eed, 400);
  ASSERT_GE(corpus.size(), 3000u);
  std::size_t rejected = 0, l4_zero = 0;
  std::map<std::uint8_t, std::size_t> with_ports;  // proto -> tuples with a nonzero port
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Packet& p = corpus[i];
    const auto want = net::testing::view_flow_tuple(p);
    const auto got = FlowTuple::from_packet(p);
    ASSERT_EQ(got.has_value(), want.has_value()) << "frame " << i << " len " << p.size();
    if (!want) {
      ++rejected;
      continue;
    }
    EXPECT_EQ(*got, *want) << "frame " << i << ": " << got->to_string() << " vs "
                           << want->to_string();
    if (want->src_port != 0 || want->dst_port != 0) {
      ++with_ports[want->proto];
    } else {
      ++l4_zero;
    }
  }
  // The corpus reached every branch: rejections, each L4 header's
  // ports, and L4 headers that failed their checks.
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(l4_zero, 10u);
  EXPECT_GT(with_ports[net::ipproto::kTcp], 10u);
  EXPECT_GT(with_ports[net::ipproto::kUdp], 10u);
  EXPECT_GT(with_ports[net::ipproto::kIcmp], 10u);
}

// --- FlowStateTable ---------------------------------------------------------

TEST(FlowStateTable, CollidingKeysSurviveProbingAndBackwardShiftDeletion) {
  FlowStateTable table(8, 10000);
  constexpr std::uint32_t kFlows = 500;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    auto res = table.find_or_create(tuple(i), 0);
    ASSERT_NE(res.block, nullptr);
    EXPECT_TRUE(res.created);
  }
  EXPECT_EQ(table.size(), kFlows);
  EXPECT_EQ(table.created_total(), kFlows);
  // 500 keys in a power-of-two table guarantee hash-slot collisions; the
  // robin-hood probe telemetry must have seen displacement.
  EXPECT_GT(table.max_probe(), 0u);

  // Every key still resolves to the block holding its own tuple.
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    std::uint8_t* block = table.find(tuple(i));
    ASSERT_NE(block, nullptr) << "flow " << i << " lost";
    EXPECT_EQ(table.header_of(block)->tuple, tuple(i));
  }

  // Erase every other entry: backward-shift deletion must not strand any
  // survivor behind a hole in its probe chain.
  for (std::uint32_t i = 0; i < kFlows; i += 2) EXPECT_TRUE(table.erase(tuple(i)));
  EXPECT_EQ(table.size(), kFlows / 2);
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    std::uint8_t* block = table.find(tuple(i));
    if (i % 2 == 0) {
      EXPECT_EQ(block, nullptr);
    } else {
      ASSERT_NE(block, nullptr) << "flow " << i << " lost after deletions";
      EXPECT_EQ(table.header_of(block)->tuple, tuple(i));
    }
  }
  // Deleted keys can be re-created.
  auto res = table.find_or_create(tuple(0), 7);
  ASSERT_NE(res.block, nullptr);
  EXPECT_TRUE(res.created);
}

TEST(FlowStateTable, ScratchReservationLayoutAndZeroInit) {
  FlowStateTable table(8, 16);
  std::size_t a = table.reserve_scratch(sizeof(std::uint64_t), alignof(std::uint64_t));
  std::size_t b = table.reserve_scratch(3, 1);
  std::size_t c = table.reserve_scratch(sizeof(std::uint32_t), alignof(std::uint32_t));
  EXPECT_GE(a, sizeof(FlowBlockHeader));
  EXPECT_EQ(a % alignof(std::uint64_t), 0u);
  EXPECT_GE(b, a + sizeof(std::uint64_t));
  EXPECT_EQ(c % alignof(std::uint32_t), 0u);
  EXPECT_GE(c, b + 3);

  auto res = table.find_or_create(tuple(1), 0);
  ASSERT_NE(res.block, nullptr);
  EXPECT_GE(table.block_size(), c + sizeof(std::uint32_t));
  for (std::size_t off = a; off < table.block_size(); ++off) {
    ASSERT_EQ(res.block[off], 0u) << "scratch byte " << off << " not zeroed";
  }
  // Scratch persists across lookups of the same flow.
  res.block[a] = 0xAB;
  auto again = table.find_or_create(tuple(1), 5);
  EXPECT_FALSE(again.created);
  EXPECT_EQ(again.block, res.block);
  EXPECT_EQ(again.block[a], 0xAB);
}

TEST(FlowStateTable, CapacityCapAndEvictListeners) {
  FlowStateTable table(8, 2);
  std::vector<FlowTuple> evicted;
  table.add_evict_listener(
      [&](const FlowBlockHeader& hdr, std::uint8_t*) { evicted.push_back(hdr.tuple); });

  ASSERT_NE(table.find_or_create(tuple(1), 0).block, nullptr);
  ASSERT_NE(table.find_or_create(tuple(2), 0).block, nullptr);
  auto full = table.find_or_create(tuple(3), 0);
  EXPECT_EQ(full.block, nullptr);
  EXPECT_FALSE(full.created);
  EXPECT_EQ(table.created_total(), 2u);

  EXPECT_TRUE(table.erase(tuple(1)));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], tuple(1));
  // Capacity freed: the blocked flow fits now.
  EXPECT_NE(table.find_or_create(tuple(3), 0).block, nullptr);

  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(evicted.size(), 3u);
  EXPECT_EQ(table.evicted_total(), 3u);
  EXPECT_EQ(table.evicted_idle(), 0u);
}

TEST(FlowStateTable, SweepEvictsOnlyIdleFlows) {
  FlowStateTable table(8, 100);
  ASSERT_NE(table.find_or_create(tuple(1), 0).block, nullptr);
  auto b = table.find_or_create(tuple(2), 0);
  ASSERT_NE(b.block, nullptr);
  table.header_of(b.block)->last_seen = milliseconds(50);

  EXPECT_EQ(table.sweep(milliseconds(100), milliseconds(60)), 1u);
  EXPECT_EQ(table.find(tuple(1)), nullptr);   // idle 100 ms >= 60 ms
  EXPECT_NE(table.find(tuple(2)), nullptr);   // idle 50 ms
  EXPECT_EQ(table.evicted_idle(), 1u);

  EXPECT_EQ(table.sweep(milliseconds(200), milliseconds(60)), 1u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.evicted_idle(), 2u);
}

// --- FlowManager element ----------------------------------------------------

TEST(FlowManagerElement, ClassifiesFlowsAndCounts) {
  EventScheduler sched;
  auto router = build_router(R"(
    from :: FromDevice(DEVNAME in0);
    fm :: FlowManager(CAPACITY 100, TIMEOUT_MS 1000);
    out :: ToDevice(DEVNAME out0);
    from -> fm -> out;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector sink;
  sink.attach(**router, "out");
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));

  for (int i = 0; i < 3; ++i) from->inject(udp_packet(1111));
  for (int i = 0; i < 2; ++i) from->inject(udp_packet(2222));
  // Non-IPv4 passes through unclassified.
  net::PacketBuilder arp;
  arp.eth(MacAddr::from_u64(1), MacAddr::from_u64(2), net::ethertype::kArp);
  from->inject(arp.build());

  EXPECT_EQ(sink.packets.size(), 6u);
  EXPECT_EQ((*router)->call_read("fm.flows").value(), "2");
  EXPECT_EQ((*router)->call_read("fm.lookups").value(), "5");
  EXPECT_EQ((*router)->call_read("fm.misses").value(), "2");
  EXPECT_EQ((*router)->call_read("fm.hits").value(), "3");
  EXPECT_EQ((*router)->call_read("fm.non_ip").value(), "1");
  EXPECT_DOUBLE_EQ(std::stod((*router)->call_read("fm.hit_rate").value()), 0.6);
  EXPECT_GT(std::stoull((*router)->call_read("fm.memory_bytes").value()), 0u);
}

TEST(FlowManagerElement, InterleavedFlowsCountPerPacketInArrivalOrder) {
  EventScheduler sched;
  auto router = build_router(R"(
    from :: FromDevice(DEVNAME in0);
    fm :: FlowManager;
    out :: ToDevice(DEVNAME out0);
    from -> fm -> out;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector sink;
  sink.attach(**router, "out");
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));

  // Two runs of one flow split by a packet of another flow: every packet
  // is one lookup, and only the first packet of each flow misses.
  for (std::uint16_t sport : {1111, 1111, 2222, 1111, 1111}) from->inject(udp_packet(sport));

  EXPECT_EQ(sink.packets.size(), 5u);
  EXPECT_EQ((*router)->call_read("fm.flows").value(), "2");
  EXPECT_EQ((*router)->call_read("fm.lookups").value(), "5");
  EXPECT_EQ((*router)->call_read("fm.misses").value(), "2");
  EXPECT_EQ((*router)->call_read("fm.hits").value(), "3");
  // Arrival order is preserved.
  for (std::size_t i = 0; i < 5; ++i) {
    auto t = FlowTuple::from_packet(sink.packets[i]);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->src_port, i == 2 ? 2222 : 1111);
  }
}

TEST(FlowManagerElement, IdleTimeoutEvictsUnderVirtualTime) {
  EventScheduler sched;
  auto router = build_router(R"(
    from :: FromDevice(DEVNAME in0);
    fm :: FlowManager(TIMEOUT_MS 50, SWEEP_MS 10);
    out :: ToDevice(DEVNAME out0);
    from -> fm -> out;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));

  from->inject(udp_packet(1111));
  from->inject(udp_packet(2222));
  EXPECT_EQ((*router)->call_read("fm.flows").value(), "2");

  sched.run_until(milliseconds(30));
  from->inject(udp_packet(1111));  // refresh flow A at t=30ms

  // At the t=50ms sweep flow B is 50 ms idle and goes; A is 20 ms idle.
  sched.run_until(milliseconds(70));
  EXPECT_EQ((*router)->call_read("fm.flows").value(), "1");
  EXPECT_EQ((*router)->call_read("fm.evicted_idle").value(), "1");

  // By t=80ms flow A has been idle 50 ms too.
  sched.run_until(milliseconds(140));
  EXPECT_EQ((*router)->call_read("fm.flows").value(), "0");
  EXPECT_EQ((*router)->call_read("fm.evicted_idle").value(), "2");
}

TEST(FlowManagerElement, FullTableOverflowsToPortOne) {
  EventScheduler sched;
  auto router = build_router(R"(
    from :: FromDevice(DEVNAME in0);
    fm :: FlowManager(CAPACITY 2, TIMEOUT_MS 1000);
    out :: ToDevice(DEVNAME out0);
    ovf :: ToDevice(DEVNAME ovf0);
    from -> fm -> out;
    fm[1] -> ovf;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector sink, overflow;
  sink.attach(**router, "out");
  overflow.attach(**router, "ovf");
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));

  from->inject(udp_packet(1111));
  from->inject(udp_packet(2222));
  from->inject(udp_packet(3333));  // table full: overflow path
  from->inject(udp_packet(1111));  // established flows keep flowing

  EXPECT_EQ(sink.packets.size(), 3u);
  ASSERT_EQ(overflow.packets.size(), 1u);
  auto t = FlowTuple::from_packet(overflow.packets[0]);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->src_port, 3333);
  EXPECT_EQ((*router)->call_read("fm.full_drops").value(), "1");
}

TEST(FlowManagerElement, PacketsWithoutAFlowLeaveUnderNullContext) {
  EventScheduler sched;
  auto router = build_router(R"(
    from :: FromDevice(DEVNAME in0);
    fm :: FlowManager(CAPACITY 1, TIMEOUT_MS 1000);
    out :: ToDevice(DEVNAME out0);
    ovf :: ToDevice(DEVNAME ovf0);
    from -> fm -> out;
    fm[1] -> ovf;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  // An enclosing manager's context, as under chained FlowManagers.
  click::FlowCtx outer{nullptr, nullptr};
  const click::Element* fm = (*router)->element("fm");
  std::vector<std::string> seen;  // the context each packet leaves under
  for (const char* dev : {"out", "ovf"}) {
    auto* to = dynamic_cast<ToDevice*>((*router)->element(dev));
    ASSERT_NE(to, nullptr);
    to->set_sink([&](Packet&&) {
      const click::FlowCtx* ctx = click::current_flow();
      seen.push_back(ctx == nullptr ? "none" : ctx == &outer ? "outer"
                     : ctx->manager == fm ? "fm" : "other");
    });
  }
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));

  click::FlowScope scope(&outer);
  from->inject(udp_packet(1111));  // gets a flow of fm
  from->inject(udp_packet(2222));  // table full: overflow port
  net::PacketBuilder arp;
  arp.eth(MacAddr::from_u64(1), MacAddr::from_u64(2), net::ethertype::kArp);
  from->inject(arp.build());  // non-IPv4

  EXPECT_EQ(seen, (std::vector<std::string>{"fm", "none", "none"}));
}

// --- FlowNAT ----------------------------------------------------------------

constexpr const char* kNatConfig = R"(
  fin :: FromDevice(DEVNAME in0);
  fext :: FromDevice(DEVNAME in1);
  fm :: FlowManager(TIMEOUT_MS 50, SWEEP_MS 10);
  nat :: FlowNAT(EXTERNAL_IP 192.0.2.1, PORT_BASE 20000, PORT_COUNT 2);
  tout :: ToDevice(DEVNAME out0);
  tin :: ToDevice(DEVNAME out1);
  fin -> fm -> [0]nat;
  fext -> [1]nat;
  nat[0] -> tout;
  nat[1] -> tin;
)";

TEST(FlowNatElement, TranslatesBidirectionally) {
  EventScheduler sched;
  auto router = build_router(kNatConfig, sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector out_ext, out_int;
  out_ext.attach(**router, "tout");
  out_int.attach(**router, "tin");
  auto* fin = dynamic_cast<FromDevice*>((*router)->element("fin"));
  auto* fext = dynamic_cast<FromDevice*>((*router)->element("fext"));

  // Outbound: source rewritten to the external ip and an allocated port.
  fin->inject(udp_packet(1234, 80, Ipv4Addr(10, 0, 0, 5), Ipv4Addr(8, 8, 8, 8)));
  ASSERT_EQ(out_ext.packets.size(), 1u);
  auto t = FlowTuple::from_packet(out_ext.packets[0]);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->src_ip, Ipv4Addr(192, 0, 2, 1).value());
  EXPECT_EQ(t->src_port, 20000);
  EXPECT_EQ(t->dst_port, 80);
  EXPECT_EQ((*router)->call_read("nat.mappings").value(), "1");
  EXPECT_EQ((*router)->call_read("nat.ports_free").value(), "1");

  // Return traffic to the allocated port translates back to the host.
  fext->inject(udp_packet(80, 20000, Ipv4Addr(8, 8, 8, 8), Ipv4Addr(192, 0, 2, 1)));
  ASSERT_EQ(out_int.packets.size(), 1u);
  auto r = FlowTuple::from_packet(out_int.packets[0]);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->dst_ip, Ipv4Addr(10, 0, 0, 5).value());
  EXPECT_EQ(r->dst_port, 1234);
  EXPECT_EQ((*router)->call_read("nat.translated").value(), "2");

  // Unknown inbound port: nothing to deliver to, dropped.
  fext->inject(udp_packet(80, 20001, Ipv4Addr(8, 8, 8, 8), Ipv4Addr(192, 0, 2, 1)));
  EXPECT_EQ(out_int.packets.size(), 1u);
  EXPECT_EQ((*router)->call_read("nat.dropped").value(), "1");
}

TEST(FlowNatElement, PortExhaustionThenIdleEvictionReclaimsPorts) {
  EventScheduler sched;
  auto router = build_router(kNatConfig, sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector out_ext;
  out_ext.attach(**router, "tout");
  auto* fin = dynamic_cast<FromDevice*>((*router)->element("fin"));

  fin->inject(udp_packet(1111, 80));
  fin->inject(udp_packet(2222, 80));
  EXPECT_EQ((*router)->call_read("nat.ports_free").value(), "0");
  EXPECT_EQ(out_ext.packets.size(), 2u);

  // Pool exhausted: the third flow is blocked, and stays blocked on its
  // next packet without counting a second exhaustion.
  fin->inject(udp_packet(3333, 80));
  fin->inject(udp_packet(3333, 80));
  EXPECT_EQ(out_ext.packets.size(), 2u);
  EXPECT_EQ((*router)->call_read("nat.exhausted").value(), "1");
  EXPECT_EQ((*router)->call_read("nat.dropped").value(), "2");

  // Idle eviction returns the ports; mappings die with their flows.
  sched.run_until(milliseconds(120));
  EXPECT_EQ((*router)->call_read("nat.ports_free").value(), "2");
  EXPECT_EQ((*router)->call_read("nat.mappings").value(), "0");
  EXPECT_EQ((*router)->call_read("fm.flows").value(), "0");

  // A fresh flow reuses a reclaimed port.
  fin->inject(udp_packet(4444, 80));
  ASSERT_EQ(out_ext.packets.size(), 3u);
  auto t = FlowTuple::from_packet(out_ext.packets[2]);
  ASSERT_TRUE(t);
  EXPECT_TRUE(t->src_port == 20000 || t->src_port == 20001);
  EXPECT_EQ((*router)->call_read("nat.ports_free").value(), "1");
}

TEST(FlowNatElement, PortRangeIsCheckedBeforeItNarrows) {
  EventScheduler sched;
  const std::string default_range = "PORT_BASE 20000, PORT_COUNT 2";
  auto build = [&](std::string_view range) {
    std::string config = kNatConfig;
    config.replace(config.find(default_range), default_range.size(), range);
    return build_router(config, sched);
  };
  // 70000 would narrow to 4464, and port 0 is no port.
  for (const char* range : {"PORT_BASE 70000, PORT_COUNT 1", "PORT_BASE 0, PORT_COUNT 1"}) {
    auto router = build(range);
    ASSERT_FALSE(router.ok()) << range;
    EXPECT_NE(router.error().to_string().find("PORT_BASE must be 1..65535"), std::string::npos)
        << router.error().to_string();
  }
  // A count that would wrap base + count around to 0.
  auto wrapped = build("PORT_BASE 1, PORT_COUNT 18446744073709551615");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_NE(wrapped.error().to_string().find("port range out of bounds"), std::string::npos);
  // The last port alone is a whole range.
  auto last = build("PORT_BASE 65535, PORT_COUNT 1");
  ASSERT_TRUE(last.ok()) << last.error().to_string();
  EXPECT_EQ((*last)->call_read("nat.ports_total").value(), "1");
}

// --- FlowLB -----------------------------------------------------------------

TEST(FlowLbElement, FlowsStickToTheirBackend) {
  EventScheduler sched;
  auto router = build_router(R"(
    from :: FromDevice(DEVNAME in0);
    fm :: FlowManager(TIMEOUT_MS 50, SWEEP_MS 10);
    lb :: FlowLB(N 2, MODE rr);
    a :: ToDevice(DEVNAME out0);
    b :: ToDevice(DEVNAME out1);
    from -> fm -> lb;
    lb[0] -> a;
    lb[1] -> b;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector a, b;
  a.attach(**router, "a");
  b.attach(**router, "b");
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));

  // Round-robin over flows, not packets: all of flow 1 goes to backend
  // 0, all of flow 2 to backend 1, regardless of interleaving.
  from->inject(udp_packet(1111));
  from->inject(udp_packet(2222));
  from->inject(udp_packet(1111));
  from->inject(udp_packet(2222));
  from->inject(udp_packet(1111));
  EXPECT_EQ(a.packets.size(), 3u);
  EXPECT_EQ(b.packets.size(), 2u);
  for (const Packet& p : a.packets) EXPECT_EQ(FlowTuple::from_packet(p)->src_port, 1111);
  for (const Packet& p : b.packets) EXPECT_EQ(FlowTuple::from_packet(p)->src_port, 2222);
  EXPECT_EQ((*router)->call_read("lb.flows_assigned").value(), "2");
  EXPECT_EQ((*router)->call_read("lb.out0_flows").value(), "1");
  EXPECT_EQ((*router)->call_read("lb.out1_flows").value(), "1");

  // Eviction releases the assignment counters.
  sched.run_until(milliseconds(120));
  EXPECT_EQ((*router)->call_read("lb.out0_flows").value(), "0");
  EXPECT_EQ((*router)->call_read("lb.out1_flows").value(), "0");
}

// --- TcpReassembler + StreamIDS ---------------------------------------------

constexpr const char* kIdsConfig = R"(
  from :: FromDevice(DEVNAME in0);
  fm :: FlowManager;
  ra :: TcpReassembler;
  ids :: StreamIDS(PATTERNS "attack");
  out :: ToDevice(DEVNAME out0);
  from -> fm -> ra -> ids -> out;
)";

TEST(StreamIdsElement, DetectsPatternAcrossPacketBoundary) {
  EventScheduler sched;
  auto router = build_router(kIdsConfig, sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector sink;
  sink.attach(**router, "out");
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));

  from->inject(tcp_packet(1000, /*SYN*/ 0x02, ""));
  from->inject(tcp_packet(1001, /*ACK*/ 0x10, "some att"));
  EXPECT_EQ((*router)->call_read("ids.alerts").value(), "0");
  from->inject(tcp_packet(1009, 0x10, "ack here"));
  EXPECT_EQ((*router)->call_read("ids.alerts").value(), "1");
  EXPECT_EQ((*router)->call_read("ids.pattern0_hits").value(), "1");
  EXPECT_EQ((*router)->call_read("ra.reassembled_bytes").value(), "16");
  EXPECT_EQ(sink.packets.size(), 3u);  // alert mode forwards everything
}

TEST(StreamIdsElement, OutOfOrderSegmentsReassembleAndMatchOnce) {
  EventScheduler sched;
  auto router = build_router(kIdsConfig, sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector sink;
  sink.attach(**router, "out");
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));

  from->inject(tcp_packet(1000, 0x02, ""));
  from->inject(tcp_packet(1009, 0x10, "ack here"));  // future segment
  EXPECT_EQ((*router)->call_read("ra.ooo_segments").value(), "1");
  EXPECT_EQ((*router)->call_read("ids.alerts").value(), "0");
  from->inject(tcp_packet(1001, 0x10, "some att"));  // closes the gap
  EXPECT_EQ((*router)->call_read("ids.alerts").value(), "1");

  // A full retransmit delivers nothing new: no double-count, no rescan.
  from->inject(tcp_packet(1001, 0x10, "some att"));
  EXPECT_EQ((*router)->call_read("ids.alerts").value(), "1");
  EXPECT_EQ((*router)->call_read("ra.duplicate_bytes").value(), "8");
}

TEST(StreamIdsElement, DropModeCutsTheFlowAfterAlert) {
  EventScheduler sched;
  auto router = build_router(R"(
    from :: FromDevice(DEVNAME in0);
    fm :: FlowManager;
    ra :: TcpReassembler;
    ids :: StreamIDS(PATTERNS "attack", MODE drop);
    out :: ToDevice(DEVNAME out0);
    cut :: ToDevice(DEVNAME cut0);
    from -> fm -> ra -> ids -> out;
    ids[1] -> cut;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector sink, cut;
  sink.attach(**router, "out");
  cut.attach(**router, "cut");
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));

  from->inject(tcp_packet(1000, 0x02, ""));
  from->inject(tcp_packet(1001, 0x10, "some att"));
  from->inject(tcp_packet(1009, 0x10, "ack here"));  // completes the match
  from->inject(tcp_packet(1017, 0x10, "more data"));  // flow already cut
  EXPECT_EQ(sink.packets.size(), 2u);  // SYN + the innocent first segment
  EXPECT_EQ(cut.packets.size(), 2u);
  EXPECT_EQ((*router)->call_read("ids.cut_packets").value(), "2");
  EXPECT_EQ((*router)->call_read("ids.alerts").value(), "1");
}

TEST(StreamIdsElement, UdpFallsBackToPerPacketScan) {
  EventScheduler sched;
  auto router = build_router(kIdsConfig, sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));

  net::PacketBuilder b;
  b.eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
      .ipv4(Ipv4Addr(10, 0, 0, 5), Ipv4Addr(8, 8, 8, 8))
      .udp(1111, 53)
      .payload(std::string_view("xx attack yy"));
  from->inject(b.build());
  EXPECT_EQ((*router)->call_read("ids.alerts").value(), "1");
}

// --- stateful chain determinism ---------------------------------------------

netemu::LinkConfig chain_link() {
  netemu::LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.delay = 50 * timeunit::kMicrosecond;
  return cfg;
}

struct ChainFingerprint {
  std::size_t shards = 0;
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_packets = 0;
  int chain_state = -1;
  std::string metrics;

  bool operator==(const ChainFingerprint&) const = default;
};

/// A NAT + sticky-LB chain with short flow timeouts under UDP traffic:
/// flow creation, context-carried state updates, the periodic sweep and
/// the eviction listeners (port reclaim, flow-count decrement) must all
/// execute identically whatever the worker thread count.
ChainFingerprint run_stateful_chain(std::size_t threads) {
  obs::MetricsRegistry::global().reset_values();
  obs::clear_all_tracers();
  EnvironmentOptions opts;
  opts.threads = threads;
  opts.shard_by = netemu::ShardBy::kSwitch;
  Environment env{opts};
  auto& net = env.network();
  net.add_host("sap1");
  net.add_host("sap2");
  net.add_switch("s1");
  net.add_switch("s2");
  net.add_container("c1", 1.0, 8);
  net.add_container("c2", 1.0, 8);
  EXPECT_TRUE(net.add_link("sap1", 0, "s1", 1, chain_link()).ok());
  EXPECT_TRUE(net.add_link("sap2", 0, "s2", 1, chain_link()).ok());
  EXPECT_TRUE(net.add_link("s1", 2, "s2", 2, chain_link()).ok());
  EXPECT_TRUE(net.add_link("c1", 0, "s1", 3, chain_link()).ok());
  EXPECT_TRUE(net.add_link("c2", 0, "s2", 3, chain_link()).ok());
  EXPECT_TRUE(env.start().ok());
  EXPECT_EQ(env.scheduler().shard_count(), 2u);

  sg::ServiceGraph g("stateful");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("nat", "flow_nat",
            {{"capacity", "1024"}, {"timeout_ms", "200"}, {"port_count", "64"}}, 0.15);
  g.add_vnf("lb", "flow_lb", {{"capacity", "1024"}, {"timeout_ms", "200"}, {"mode", "rr"}},
            0.1);
  g.add_link("sap1", "nat").add_link("nat", "lb").add_link("lb", "sap2");

  auto* sap1 = env.host("sap1");
  auto* sap2 = env.host("sap2");
  // Steer on destination only: the NAT rewrites the source address
  // mid-chain, so the default src+dst match would stop matching at the
  // first post-NAT hop.
  openflow::Match match;
  match.dl_type(net::ethertype::kIpv4).nw_dst(sap2->ip());
  auto chain = env.deploy(g, match);
  EXPECT_TRUE(chain.ok()) << (chain.ok() ? "" : chain.error().to_string());
  sap1->start_udp_flow(sap2->mac(), sap2->ip(), 5000, 7777, 300, 2000);
  // Long enough to cover the traffic, the 1 s sweep tick and the idle
  // eviction of every flow (200 ms timeout).
  env.run_for(1500 * timeunit::kMillisecond);

  ChainFingerprint f;
  f.shards = env.scheduler().shard_count();
  f.digest = env.scheduler().order_digest();
  f.executed = env.scheduler().executed_events();
  f.rx_packets = sap2->rx_packets();
  f.rx_bytes = sap2->rx_bytes();
  f.tx_packets = sap1->tx_packets();
  if (chain.ok()) {
    if (const ChainDeployment* dep = env.deployment(*chain)) {
      f.chain_state = static_cast<int>(dep->state);
    }
  }
  // The registry snapshot covers every VNF handler, including the flow
  // table gauges (flows, evictions, NAT ports, LB assignment counts).
  // The steering install latency is wall-clock and excluded.
  std::istringstream exposition(obs::MetricsRegistry::global().render_text());
  std::string line;
  while (std::getline(exposition, line)) {
    if (line.find("escape_steering_install_latency_us") != std::string::npos) continue;
    f.metrics += line;
    f.metrics += '\n';
  }
  return f;
}

TEST(StatefulChainDeterminism, NatLbChainBitIdenticalAcrossThreadCounts) {
  const ChainFingerprint seq = run_stateful_chain(1);
  const ChainFingerprint par = run_stateful_chain(4);
  EXPECT_EQ(seq.shards, 2u);
  EXPECT_GT(seq.rx_packets, 0u);
  // The substrate actually ran: the FlowManager handler gauges of both
  // VNF routers are in the fingerprinted exposition.
  EXPECT_NE(seq.metrics.find("element=\"fm\""), std::string::npos);
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace escape
