// Unit tests for the Click element framework: configuration parsing,
// router validation, element semantics and the handler surface.
#include <gtest/gtest.h>

#include <algorithm>

#include "click/config.hpp"
#include "click/elements.hpp"
#include "net/builder.hpp"
#include "util/strings.hpp"

namespace escape::click {
namespace {

using net::Ipv4Addr;
using net::MacAddr;

Packet test_packet(std::uint16_t dport = 2000, std::size_t size = 98) {
  return net::make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2),
                              Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1000, dport, size);
}

// --- ConfigArgs -----------------------------------------------------------------

TEST(ConfigArgs, KeywordAndPositional) {
  auto args = ConfigArgs::parse("RATE 1000, BURST 20, extra");
  EXPECT_EQ(args.keyword("RATE"), "1000");
  EXPECT_EQ(args.keyword("rate"), "1000");  // case-insensitive
  EXPECT_EQ(args.keyword("BURST"), "20");
  EXPECT_EQ(args.positional(0), "extra");
  EXPECT_FALSE(args.keyword("MISSING"));
}

TEST(ConfigArgs, NestedParensAndQuotesStayIntact) {
  auto args = ConfigArgs::parse(R"(RULES "deny udp, allow ip", DEFAULT allow)");
  EXPECT_EQ(args.keyword("RULES"), "\"deny udp, allow ip\"");
  EXPECT_EQ(args.keyword("DEFAULT"), "allow");
}

TEST(ConfigArgs, NumericHelpers) {
  auto args = ConfigArgs::parse("RATE 10k, P 0.5");
  EXPECT_EQ(args.keyword_u64("RATE"), 10'000u);
  EXPECT_DOUBLE_EQ(*args.keyword_double("P"), 0.5);
}

TEST(ConfigArgs, KeywordOrPositionalFallback) {
  auto a = ConfigArgs::parse("100");
  EXPECT_EQ(a.keyword_or_positional("CAPACITY", 0), "100");
  auto b = ConfigArgs::parse("CAPACITY 200");
  EXPECT_EQ(b.keyword_or_positional("CAPACITY", 0), "200");
}

TEST(ConfigArgs, EmptyString) {
  auto args = ConfigArgs::parse("");
  EXPECT_TRUE(args.empty());
}

// --- config language parser -------------------------------------------------------

TEST(ConfigParser, DeclarationsAndChains) {
  auto parsed = parse_config(R"(
    src :: RatedSource(RATE 100);
    q :: Queue(50);
    src -> q;
    q -> Unqueue -> Discard;
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->declarations.size(), 4u);  // src, q, anon Unqueue, anon Discard
  EXPECT_EQ(parsed->connections.size(), 3u);
  EXPECT_EQ(parsed->declarations[0].name, "src");
  EXPECT_EQ(parsed->declarations[0].class_name, "RatedSource");
  EXPECT_EQ(parsed->declarations[0].config, "RATE 100");
}

TEST(ConfigParser, PortSpecifiers) {
  auto parsed = parse_config(R"(
    cl :: Classifier(12/0800, -);
    a :: Counter; b :: Counter;
    cl[0] -> a; cl [1] -> b;
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_EQ(parsed->connections.size(), 2u);
  EXPECT_EQ(parsed->connections[0].from_port, 0);
  EXPECT_EQ(parsed->connections[1].from_port, 1);
}

TEST(ConfigParser, InputPortSpecifier) {
  auto parsed = parse_config(R"(
    n :: FlowNAT;
    src :: InfiniteSource(LIMIT 1);
    src -> [1]n;
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->connections[0].to_port, 1);
}

TEST(ConfigParser, CommentsIgnored) {
  auto parsed = parse_config(
      "// line comment\n"
      "c :: Counter; /* block\ncomment */ c -> Discard;\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->declarations.size(), 2u);
}

TEST(ConfigParser, InlineDeclarationInChain) {
  auto parsed = parse_config("src :: InfiniteSource -> mid :: Counter -> Discard;");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->declarations.size(), 3u);
  EXPECT_EQ(parsed->connections.size(), 2u);
  EXPECT_EQ(parsed->connections[0].from, "src");
  EXPECT_EQ(parsed->connections[0].to, "mid");
}

TEST(ConfigParser, Errors) {
  EXPECT_FALSE(parse_config("x -> y;").ok());              // undeclared lowercase refs
  EXPECT_FALSE(parse_config("a :: Counter; a :: Queue;").ok());  // duplicate
  EXPECT_FALSE(parse_config("a :: Counter(").ok());        // unbalanced paren
  EXPECT_FALSE(parse_config("a :: ;").ok());               // missing class
}

TEST(BuildRouter, UnknownClassRejected) {
  EventScheduler sched;
  auto r = build_router("x :: NoSuchElement;", sched);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "click.config.unknown-class");
}

TEST(BuildRouter, ProcessingConflictRejected) {
  EventScheduler sched;
  // Pushing straight into a pull-input element (Unqueue) is illegal.
  auto r = build_router("InfiniteSource -> Unqueue -> Discard;", sched);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "click.router.processing");
}

TEST(BuildRouter, FanOutWithoutTeeRejected) {
  EventScheduler sched;
  auto r = build_router(R"(
    s :: InfiniteSource(LIMIT 1);
    a :: Counter; b :: Counter;
    s -> a; s -> b;
  )", sched);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "click.router.fanout");
}

TEST(BuildRouter, BadElementConfigSurfacesName) {
  EventScheduler sched;
  auto r = build_router("p :: Paint(COLOR 999);", sched);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("p (Paint)"), std::string::npos);
}

// --- element semantics ---------------------------------------------------------------

/// Collects packets for assertions: a ToDevice with an inspecting sink.
struct Collector {
  std::vector<Packet> packets;

  void attach(Router& router, const std::string& todevice_name) {
    auto* to = dynamic_cast<ToDevice*>(router.element(todevice_name));
    ASSERT_NE(to, nullptr);
    to->set_sink([this](Packet&& p) { packets.push_back(std::move(p)); });
  }
};

TEST(Elements, SourceQueueUnqueueSinkPipeline) {
  EventScheduler sched;
  auto router = build_router(R"(
    src :: InfiniteSource(LIMIT 100, BURST 10, INTERVAL 1000);
    q :: Queue(1000);
    u :: Unqueue(BURST 4, INTERVAL 500);
    cnt :: Counter;
    out :: ToDevice(DEVNAME out0);
    src -> q; q -> u -> cnt -> out;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector sink;
  sink.attach(**router, "out");
  sched.run();
  EXPECT_EQ(sink.packets.size(), 100u);
  EXPECT_EQ((*router)->call_read("cnt.count").value(), "100");
  EXPECT_EQ((*router)->call_read("src.count").value(), "100");
}

TEST(Elements, QueueTailDropsAndHandlers) {
  EventScheduler sched;
  auto router = build_router("q :: Queue(CAPACITY 5);", sched);
  ASSERT_TRUE(router.ok());
  auto* q = dynamic_cast<Queue*>((*router)->element("q"));
  for (int i = 0; i < 8; ++i) q->push(0, test_packet());
  EXPECT_EQ(q->length(), 5u);
  EXPECT_EQ(q->drops(), 3u);
  EXPECT_EQ((*router)->call_read("q.length").value(), "5");
  EXPECT_EQ((*router)->call_read("q.drops").value(), "3");
  EXPECT_EQ((*router)->call_read("q.highwater").value(), "5");
  // Pull drains FIFO.
  auto p = q->pull(0);
  ASSERT_TRUE(p);
  EXPECT_EQ(q->length(), 4u);
}

TEST(Elements, QueueTailDropsLateArrivalsAndDrainsFifo) {
  EventScheduler sched;
  auto router = build_router("q :: Queue(CAPACITY 5);", sched);
  ASSERT_TRUE(router.ok());
  auto* q = dynamic_cast<Queue*>((*router)->element("q"));
  ASSERT_NE(q, nullptr);
  for (std::uint64_t i = 0; i < 8; ++i) {
    Packet p = test_packet();
    p.set_seq(i);
    q->push(0, std::move(p));
  }
  EXPECT_EQ(q->length(), 5u);
  EXPECT_EQ(q->drops(), 3u);
  EXPECT_EQ((*router)->call_read("q.highwater").value(), "5");

  // The first five arrivals survive and leave in arrival order.
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto p = q->pull(0);
    ASSERT_TRUE(p);
    EXPECT_EQ(p->seq(), i);
  }
  EXPECT_FALSE(q->pull(0));
  EXPECT_EQ(q->length(), 0u);
}

TEST(Elements, RatedSourcePacesPackets) {
  EventScheduler sched;
  auto router = build_router(R"(
    src :: RatedSource(RATE 1000, LIMIT 0);
    cnt :: Counter;
    src -> cnt -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  sched.run_until(seconds(1));
  auto count = strings::parse_u64((*router)->call_read("cnt.count").value());
  // 1000 pps for 1 virtual second: 1000 or 1001 depending on edge.
  EXPECT_GE(*count, 1000u);
  EXPECT_LE(*count, 1001u);
}

TEST(Elements, RatedUnqueueEnforcesRate) {
  EventScheduler sched;
  auto router = build_router(R"(
    src :: InfiniteSource(LIMIT 5000, BURST 5000, INTERVAL 1);
    q :: Queue(10000);
    ru :: RatedUnqueue(RATE 100);
    cnt :: Counter;
    src -> q; q -> ru -> cnt -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  sched.run_until(seconds(1));
  auto count = strings::parse_u64((*router)->call_read("cnt.count").value());
  EXPECT_GE(*count, 95u);
  EXPECT_LE(*count, 105u);
}

TEST(Elements, TeeDuplicates) {
  EventScheduler sched;
  auto router = build_router(R"(
    t :: Tee(3);
    a :: Counter; b :: Counter; c :: Counter;
    t[0] -> a -> Discard; t[1] -> b -> Discard; t[2] -> c -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  (*router)->element("t")->push(0, test_packet());
  for (const char* name : {"a.count", "b.count", "c.count"}) {
    EXPECT_EQ((*router)->call_read(name).value(), "1");
  }
}

TEST(Elements, SwitchRoutesAndRetargets) {
  EventScheduler sched;
  auto router = build_router(R"(
    s :: Switch(N 2, PORT 0);
    a :: Counter; b :: Counter;
    s[0] -> a -> Discard; s[1] -> b -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Element* sw = (*router)->element("s");
  sw->push(0, test_packet());
  ASSERT_TRUE((*router)->call_write("s.switch", "1").ok());
  sw->push(0, test_packet());
  sw->push(0, test_packet());
  EXPECT_EQ((*router)->call_read("a.count").value(), "1");
  EXPECT_EQ((*router)->call_read("b.count").value(), "2");
  // -1 drops.
  ASSERT_TRUE((*router)->call_write("s.switch", "-1").ok());
  sw->push(0, test_packet());
  EXPECT_EQ((*router)->call_read("b.count").value(), "2");
  // Out-of-range rejected.
  EXPECT_FALSE((*router)->call_write("s.switch", "7").ok());
}

TEST(Elements, RoundRobinSwitchBalances) {
  EventScheduler sched;
  auto router = build_router(R"(
    rr :: RoundRobinSwitch(2);
    a :: Counter; b :: Counter;
    rr[0] -> a -> Discard; rr[1] -> b -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  for (int i = 0; i < 10; ++i) (*router)->element("rr")->push(0, test_packet());
  EXPECT_EQ((*router)->call_read("a.count").value(), "5");
  EXPECT_EQ((*router)->call_read("b.count").value(), "5");
}

TEST(Elements, PaintAndPaintSwitchAndCheckPaint) {
  EventScheduler sched;
  auto router = build_router(R"(
    p :: Paint(COLOR 2);
    ps :: PaintSwitch(N 3);
    z :: Counter; one :: Counter; two :: Counter;
    p -> ps;
    ps[0] -> z -> Discard; ps[1] -> one -> Discard; ps[2] -> two -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  (*router)->element("p")->push(0, test_packet());
  EXPECT_EQ((*router)->call_read("two.count").value(), "1");
  EXPECT_EQ((*router)->call_read("z.count").value(), "0");
}

TEST(Elements, ClassifierByEthertype) {
  EventScheduler sched;
  auto router = build_router(R"(
    cl :: Classifier(12/0800, 12/0806, -);
    ip :: Counter; arp :: Counter; other :: Counter;
    cl[0] -> ip -> Discard; cl[1] -> arp -> Discard; cl[2] -> other -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Element* cl = (*router)->element("cl");
  cl->push(0, test_packet());  // IPv4
  Packet arp_packet = net::PacketBuilder()
                          .eth(MacAddr::from_u64(1), MacAddr::broadcast(), net::ethertype::kArp)
                          .arp(net::ArpView::kRequest, MacAddr::from_u64(1),
                               Ipv4Addr(10, 0, 0, 1), MacAddr(), Ipv4Addr(10, 0, 0, 2))
                          .build();
  cl->push(0, std::move(arp_packet));
  Packet weird = net::PacketBuilder()
                     .eth(MacAddr::from_u64(1), MacAddr::from_u64(2), 0x1234)
                     .payload(std::string_view("x"))
                     .build();
  cl->push(0, std::move(weird));
  EXPECT_EQ((*router)->call_read("ip.count").value(), "1");
  EXPECT_EQ((*router)->call_read("arp.count").value(), "1");
  EXPECT_EQ((*router)->call_read("other.count").value(), "1");
}

TEST(Elements, IPClassifierFirstMatchWins) {
  EventScheduler sched;
  auto router = build_router(R"(
    cl :: IPClassifier(udp && dst port 53, udp, -);
    dns :: Counter; udp :: Counter; rest :: Counter;
    cl[0] -> dns -> Discard; cl[1] -> udp -> Discard; cl[2] -> rest -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Element* cl = (*router)->element("cl");
  cl->push(0, test_packet(53));
  cl->push(0, test_packet(99));
  EXPECT_EQ((*router)->call_read("dns.count").value(), "1");
  EXPECT_EQ((*router)->call_read("udp.count").value(), "1");
  EXPECT_EQ((*router)->call_read("rest.count").value(), "0");
}

TEST(Elements, CheckIPHeaderSplitsGoodAndBad) {
  EventScheduler sched;
  auto router = build_router(R"(
    chk :: CheckIPHeader;
    good :: Counter; bad :: Counter;
    chk[0] -> good -> Discard; chk[1] -> bad -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Element* chk = (*router)->element("chk");
  chk->push(0, test_packet());
  Packet corrupted = test_packet();
  corrupted.mutable_bytes()[net::EthernetView::kSize + 10] ^= 0xff;  // break checksum
  chk->push(0, std::move(corrupted));
  EXPECT_EQ((*router)->call_read("good.count").value(), "1");
  EXPECT_EQ((*router)->call_read("bad.count").value(), "1");
  EXPECT_EQ((*router)->call_read("chk.drops").value(), "1");
}

TEST(Elements, DecIPTTLExpiry) {
  EventScheduler sched;
  auto router = build_router(R"(
    dec :: DecIPTTL;
    ok :: Counter; exp :: Counter;
    dec[0] -> ok -> Discard; dec[1] -> exp -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Packet p = net::PacketBuilder()
                 .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
                 .ipv4(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), net::ipproto::kUdp,
                       /*ttl=*/1)
                 .udp(1, 2)
                 .build();
  (*router)->element("dec")->push(0, std::move(p));  // ttl 1 -> 0, ok
  Packet dead = net::PacketBuilder()
                    .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
                    .ipv4(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), net::ipproto::kUdp, 0)
                    .udp(1, 2)
                    .build();
  (*router)->element("dec")->push(0, std::move(dead));
  EXPECT_EQ((*router)->call_read("ok.count").value(), "1");
  EXPECT_EQ((*router)->call_read("exp.count").value(), "1");
}

TEST(Elements, IPRewriterRewrites) {
  EventScheduler sched;
  auto router = build_router(R"(
    rw :: IPRewriter(SRC_IP 192.168.1.1, DST_PORT 8080);
    out :: ToDevice(DEVNAME out0);
    rw -> out;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector sink;
  sink.attach(**router, "out");
  (*router)->element("rw")->push(0, test_packet());
  ASSERT_EQ(sink.packets.size(), 1u);
  auto key = net::extract_flow_key(sink.packets[0], 0);
  EXPECT_EQ(key->nw_src, Ipv4Addr(192, 168, 1, 1));
  EXPECT_EQ(key->tp_dst, 8080);
  EXPECT_EQ(key->tp_src, 1000);  // untouched
}

TEST(Elements, DelayDefersDelivery) {
  EventScheduler sched;
  auto router = build_router(R"(
    d :: Delay(DELAY 5000000);
    cnt :: Counter;
    d -> cnt -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  (*router)->element("d")->push(0, test_packet());
  sched.run_until(milliseconds(4));
  EXPECT_EQ((*router)->call_read("cnt.count").value(), "0");
  sched.run_until(milliseconds(6));
  EXPECT_EQ((*router)->call_read("cnt.count").value(), "1");
}

TEST(Elements, DelayCancelsPacketsStillInsideWhenDestroyed) {
  // A router torn down (stop_vnf, undeploy, scale-in, crash) while a
  // packet waits in Delay must take the packet's event with it, or the
  // event fires into the freed element.
  EventScheduler sched;
  std::string delivered;
  {
    auto router = build_router(R"(
      d :: Delay(DELAY 5000000);
      cnt :: Counter;
      d -> cnt -> Discard;
    )", sched);
    ASSERT_TRUE(router.ok()) << router.error().to_string();
    (*router)->element("d")->push(0, test_packet());
    sched.run_until(milliseconds(2));
    (*router)->element("d")->push(0, test_packet());
    EXPECT_EQ(sched.pending_events(), 2u);
    sched.run_until(milliseconds(6));  // the first packet leaves at 5 ms
    delivered = (*router)->call_read("cnt.count").value();
    EXPECT_EQ(sched.pending_events(), 1u);
  }
  EXPECT_EQ(delivered, "1");
  EXPECT_EQ(sched.pending_events(), 0u);
  sched.run_until(milliseconds(20));
  EXPECT_EQ(sched.executed_events(), 1u);
}

TEST(Elements, MeterSplitsConformingAndExcess) {
  EventScheduler sched;
  auto router = build_router(R"(
    m :: Meter(RATE 10);
    ok :: Counter; over :: Counter;
    m[0] -> ok -> Discard; m[1] -> over -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  for (int i = 0; i < 100; ++i) (*router)->element("m")->push(0, test_packet());
  auto ok = *strings::parse_u64((*router)->call_read("ok.count").value());
  auto over = *strings::parse_u64((*router)->call_read("over.count").value());
  EXPECT_EQ(ok + over, 100u);
  EXPECT_LE(ok, 10u);  // burst-limited
  EXPECT_GE(over, 90u);
}

TEST(Elements, RandomSampleDropRateCalibrated) {
  EventScheduler sched;
  auto router = build_router(R"(
    rs :: RandomSample(P 0.25, SEED 7);
    kept :: Counter;
    rs -> kept -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  for (int i = 0; i < 4000; ++i) (*router)->element("rs")->push(0, test_packet());
  auto kept = *strings::parse_u64((*router)->call_read("kept.count").value());
  EXPECT_NEAR(static_cast<double>(kept) / 4000.0, 0.25, 0.03);
}

TEST(Elements, FirewallRulesFirstMatchAndHandlers) {
  EventScheduler sched;
  auto router = build_router(R"(
    fw :: Firewall(RULES "deny udp && dst port 53; allow udp", DEFAULT deny);
    ok :: Counter; no :: Counter;
    fw[0] -> ok -> Discard; fw[1] -> no -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Element* fw = (*router)->element("fw");
  fw->push(0, test_packet(53));   // denied by rule 1
  fw->push(0, test_packet(100));  // allowed by rule 2
  Packet arp = net::PacketBuilder()
                   .eth(MacAddr::from_u64(1), MacAddr::broadcast(), net::ethertype::kArp)
                   .arp(net::ArpView::kRequest, MacAddr::from_u64(1), Ipv4Addr(1, 1, 1, 1),
                        MacAddr(), Ipv4Addr(2, 2, 2, 2))
                   .build();
  fw->push(0, std::move(arp));  // default deny
  EXPECT_EQ((*router)->call_read("fw.accepted").value(), "1");
  EXPECT_EQ((*router)->call_read("fw.denied").value(), "2");

  // Runtime rule addition through the write handler.
  ASSERT_TRUE((*router)->call_write("fw.add_rule", "allow arp").ok());
  // New rule is appended, but first match (default deny comes last) --
  // the deny rules above don't match ARP, so ARP is now allowed.
  Packet arp2 = net::PacketBuilder()
                    .eth(MacAddr::from_u64(1), MacAddr::broadcast(), net::ethertype::kArp)
                    .arp(net::ArpView::kRequest, MacAddr::from_u64(1), Ipv4Addr(1, 1, 1, 1),
                         MacAddr(), Ipv4Addr(2, 2, 2, 2))
                    .build();
  fw->push(0, std::move(arp2));
  EXPECT_EQ((*router)->call_read("fw.accepted").value(), "2");
}

TEST(Elements, DpiCounterFindsPatterns) {
  EventScheduler sched;
  auto router = build_router(R"(
    dpi :: DpiCounter(PATTERNS "attack;beacon");
    dpi -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Element* dpi = (*router)->element("dpi");
  Packet evil = net::PacketBuilder()
                    .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
                    .ipv4(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2))
                    .udp(1, 2)
                    .payload(std::string_view("launch attack now"))
                    .build();
  dpi->push(0, std::move(evil));
  dpi->push(0, test_packet());
  EXPECT_EQ((*router)->call_read("dpi.matches_0").value(), "1");
  EXPECT_EQ((*router)->call_read("dpi.matches_1").value(), "0");
  EXPECT_EQ((*router)->call_read("dpi.total").value(), "2");
}

TEST(Elements, FromDeviceToDeviceBridge) {
  EventScheduler sched;
  auto router = build_router(R"(
    from :: FromDevice(DEVNAME in0);
    to :: ToDevice(DEVNAME out0);
    from -> to;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  auto* from = dynamic_cast<FromDevice*>((*router)->element("from"));
  auto* to = dynamic_cast<ToDevice*>((*router)->element("to"));
  EXPECT_EQ(from->devname(), "in0");
  EXPECT_EQ(to->devname(), "out0");
  // Without a sink, packets are counted as drops.
  from->inject(test_packet());
  EXPECT_EQ((*router)->call_read("to.no_sink_drops").value(), "1");
  int delivered = 0;
  to->set_sink([&](Packet&&) { ++delivered; });
  from->inject(test_packet());
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ((*router)->call_read("from.count").value(), "2");
}

TEST(Router, CpuShareScalesDelays) {
  EventScheduler sched;
  Router router(sched);
  router.set_cpu_share(0.5);
  EXPECT_EQ(router.scale_delay(1000), 2000u);
  router.set_cpu_share(1.0);
  EXPECT_EQ(router.scale_delay(1000), 1000u);
  router.set_cpu_share(2.0);  // clamped to 1.0
  EXPECT_DOUBLE_EQ(router.cpu_share(), 1.0);
}

TEST(Router, HandlerDispatchErrors) {
  EventScheduler sched;
  auto router = build_router("c :: Counter; c -> Discard;", sched);
  ASSERT_TRUE(router.ok());
  EXPECT_FALSE((*router)->call_read("nope.count").ok());
  EXPECT_FALSE((*router)->call_read("c.nope").ok());
  EXPECT_FALSE((*router)->call_read("no-dot").ok());
  EXPECT_TRUE((*router)->call_write("c.reset", "").ok());
}

TEST(Router, ListReadHandlersCoversElements) {
  EventScheduler sched;
  auto router = build_router("c :: Counter; q :: Queue; c -> q;", sched);
  ASSERT_TRUE(router.ok());
  auto names = (*router)->list_read_handlers();
  EXPECT_NE(std::find(names.begin(), names.end(), "c.count"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "q.length"), names.end());
}


// --- elementclass compounds -----------------------------------------------------

TEST(Compounds, BasicExpansion) {
  auto parsed = parse_config(R"(
    elementclass CountedPath {
      input -> c :: Counter -> output;
    }
    src :: InfiniteSource(LIMIT 5);
    cp :: CountedPath;
    src -> cp -> Discard;
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  // The compound instance disappears; its inner Counter is prefixed.
  bool found_inner = false;
  for (const auto& d : parsed->declarations) {
    EXPECT_NE(d.class_name, "CountedPath");
    if (d.name == "cp/c") {
      EXPECT_EQ(d.class_name, "Counter");
      found_inner = true;
    }
  }
  EXPECT_TRUE(found_inner);
}

TEST(Compounds, RunsEndToEnd) {
  EventScheduler sched;
  auto router = build_router(R"(
    elementclass CountedQueue {
      input -> q :: Queue(100);
      q -> u :: Unqueue -> cnt :: Counter -> output;
    }
    src :: InfiniteSource(LIMIT 50, BURST 10);
    cq :: CountedQueue;
    sink :: Counter;
    src -> cq -> sink -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  sched.run();
  EXPECT_EQ((*router)->call_read("cq/cnt.count").value(), "50");
  EXPECT_EQ((*router)->call_read("sink.count").value(), "50");
}

TEST(Compounds, MultiplePortsAndInstances) {
  EventScheduler sched;
  auto router = build_router(R"(
    elementclass Splitter {
      input -> cl :: IPClassifier(udp && dst port 53, -);
      cl[0] -> output;
      cl[1] -> [1]output;
    }
    a :: Splitter;
    dns :: Counter; rest :: Counter;
    a[0] -> dns -> Discard;
    a[1] -> rest -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Element* in = (*router)->element("a/cl");
  ASSERT_NE(in, nullptr);
  in->push(0, test_packet(53));
  in->push(0, test_packet(99));
  EXPECT_EQ((*router)->call_read("dns.count").value(), "1");
  EXPECT_EQ((*router)->call_read("rest.count").value(), "1");
}

TEST(Compounds, TwoInstancesOfSameClass) {
  EventScheduler sched;
  auto router = build_router(R"(
    elementclass M { input -> c :: Counter -> output; }
    s1 :: InfiniteSource(LIMIT 3);
    s2 :: InfiniteSource(LIMIT 7);
    m1 :: M; m2 :: M;
    s1 -> m1 -> Discard;
    s2 -> m2 -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  sched.run();
  EXPECT_EQ((*router)->call_read("m1/c.count").value(), "3");
  EXPECT_EQ((*router)->call_read("m2/c.count").value(), "7");
}

TEST(Compounds, NestedCompounds) {
  EventScheduler sched;
  auto router = build_router(R"(
    elementclass Inner { input -> c :: Counter -> output; }
    elementclass Outer { input -> i :: Inner -> output; }
    src :: InfiniteSource(LIMIT 4);
    o :: Outer;
    src -> o -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  sched.run();
  EXPECT_EQ((*router)->call_read("o/i/c.count").value(), "4");
}

TEST(Compounds, Errors) {
  // Unterminated body.
  EXPECT_FALSE(parse_config("elementclass X { input -> Discard;").ok());
  // input -> output passthrough unsupported.
  EXPECT_FALSE(parse_config(R"(
    elementclass P { input -> output; }
    a :: P;
  )").ok());
  // Referencing a port the compound does not expose.
  auto r = parse_config(R"(
    elementclass O { input -> c :: Counter -> output; }
    s :: InfiniteSource; o :: O;
    s -> [1]o;
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "click.config.compound-port");
  // Compounds take no configuration.
  EXPECT_FALSE(parse_config(R"(
    elementclass O { input -> c :: Counter -> output; }
    o :: O(42);
  )").ok());
  // Conflicting redefinition.
  EXPECT_FALSE(parse_config(R"(
    elementclass O { input -> c :: Counter -> output; }
    elementclass O { input -> q :: Queue -> output; }
  )").ok());
  // input/output outside a compound body are plain undeclared names.
  EXPECT_FALSE(parse_config("input -> Discard;").ok());
}


// --- pull schedulers --------------------------------------------------------------

TEST(Elements, RoundRobinSchedInterleavesQueues) {
  EventScheduler sched;
  auto router = build_router(R"(
    qa :: Queue(100); qb :: Queue(100);
    rr :: RoundRobinSched(2);
    u :: Unqueue(BURST 1, INTERVAL 100);
    out :: ToDevice(DEVNAME out0);
    qa -> [0]rr; qb -> [1]rr;
    rr -> u -> out;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector sink;
  sink.attach(**router, "out");
  auto* qa = dynamic_cast<Queue*>((*router)->element("qa"));
  auto* qb = dynamic_cast<Queue*>((*router)->element("qb"));
  for (int i = 0; i < 4; ++i) {
    Packet a = test_packet();
    a.set_paint(1);
    qa->push(0, std::move(a));
    Packet b = test_packet();
    b.set_paint(2);
    qb->push(0, std::move(b));
  }
  sched.run();
  ASSERT_EQ(sink.packets.size(), 8u);
  // Strict alternation between the two queues.
  for (std::size_t i = 0; i + 1 < sink.packets.size(); ++i) {
    EXPECT_NE(sink.packets[i].paint(), sink.packets[i + 1].paint()) << i;
  }
}

TEST(Elements, RoundRobinSchedSkipsEmptyInputs) {
  EventScheduler sched;
  auto router = build_router(R"(
    qa :: Queue(100); qb :: Queue(100);
    rr :: RoundRobinSched(2);
    u :: Unqueue(BURST 1, INTERVAL 100);
    cnt :: Counter;
    qa -> [0]rr; qb -> [1]rr;
    rr -> u -> cnt -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  auto* qb = dynamic_cast<Queue*>((*router)->element("qb"));
  for (int i = 0; i < 5; ++i) qb->push(0, test_packet());
  sched.run();
  EXPECT_EQ((*router)->call_read("cnt.count").value(), "5");
}

TEST(Elements, PrioSchedStrictPriority) {
  EventScheduler sched;
  auto router = build_router(R"(
    hi :: Queue(100); lo :: Queue(100);
    prio :: PrioSched(2);
    u :: Unqueue(BURST 1, INTERVAL 100);
    out :: ToDevice(DEVNAME out0);
    hi -> [0]prio; lo -> [1]prio;
    prio -> u -> out;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  Collector sink;
  sink.attach(**router, "out");
  auto* hi = dynamic_cast<Queue*>((*router)->element("hi"));
  auto* lo = dynamic_cast<Queue*>((*router)->element("lo"));
  for (int i = 0; i < 3; ++i) {
    Packet h = test_packet();
    h.set_paint(1);
    hi->push(0, std::move(h));
    Packet l = test_packet();
    l.set_paint(2);
    lo->push(0, std::move(l));
  }
  sched.run();
  ASSERT_EQ(sink.packets.size(), 6u);
  // All high-priority packets drain before any low-priority one.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(sink.packets[static_cast<std::size_t>(i)].paint(), 1);
  for (int i = 3; i < 6; ++i) EXPECT_EQ(sink.packets[static_cast<std::size_t>(i)].paint(), 2);
  EXPECT_EQ((*router)->call_read("prio.served_0").value(), "3");
  EXPECT_EQ((*router)->call_read("prio.served_1").value(), "3");
}

TEST(Elements, DrainTaskWakesThroughScheduler) {
  // The Unqueue sits behind a scheduler, not directly behind a Queue:
  // wake-up registration must walk the pull graph.
  EventScheduler sched;
  auto router = build_router(R"(
    q :: Queue(100);
    rr :: RoundRobinSched(1);
    u :: Unqueue(BURST 1, INTERVAL 100);
    cnt :: Counter;
    q -> [0]rr; rr -> u -> cnt -> Discard;
  )", sched);
  ASSERT_TRUE(router.ok()) << router.error().to_string();
  sched.run();  // drain task goes idle (everything empty)
  auto* q = dynamic_cast<Queue*>((*router)->element("q"));
  q->push(0, test_packet());  // must wake the task through the scheduler
  sched.run();
  EXPECT_EQ((*router)->call_read("cnt.count").value(), "1");
}

}  // namespace
}  // namespace escape::click
