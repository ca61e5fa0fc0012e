// Unit tests for addresses, headers, checksums, flow keys and the packet
// builder.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/builder.hpp"
#include "net/flow.hpp"
#include "net/headers.hpp"
#include "net/packet_pool.hpp"
#include "support/view_flow_parser.hpp"

namespace escape::net {
namespace {

// --- addresses ------------------------------------------------------------------

TEST(MacAddr, ParseAndFormat) {
  auto mac = MacAddr::parse("0a:1b:2c:3d:4e:5f");
  ASSERT_TRUE(mac);
  EXPECT_EQ(mac->to_string(), "0a:1b:2c:3d:4e:5f");
  EXPECT_EQ(mac->to_u64(), 0x0a1b2c3d4e5fULL);
}

TEST(MacAddr, ParseRejectsGarbage) {
  EXPECT_FALSE(MacAddr::parse("no"));
  EXPECT_FALSE(MacAddr::parse("0a:1b:2c:3d:4e"));
  EXPECT_FALSE(MacAddr::parse("0a:1b:2c:3d:4e:zz"));
  EXPECT_FALSE(MacAddr::parse("0a:1b:2c:3d:4e:5f:00"));
}

TEST(MacAddr, SpecialAddresses) {
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddr::broadcast().is_multicast());
  EXPECT_TRUE(MacAddr({0x01, 0, 0x5e, 0, 0, 1}).is_multicast());
  EXPECT_FALSE(MacAddr::from_u64(0x020000000001).is_multicast());
}

TEST(MacAddr, FromU64RoundTrip) {
  auto mac = MacAddr::from_u64(0x112233445566ULL);
  EXPECT_EQ(mac.to_string(), "11:22:33:44:55:66");
}

TEST(Ipv4Addr, ParseAndFormat) {
  auto a = Ipv4Addr::parse("10.0.0.1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "10.0.0.1");
  EXPECT_EQ(a->value(), 0x0a000001u);
}

TEST(Ipv4Addr, ParseRejectsGarbage) {
  EXPECT_FALSE(Ipv4Addr::parse("10.0.0"));
  EXPECT_FALSE(Ipv4Addr::parse("10.0.0.256"));
  EXPECT_FALSE(Ipv4Addr::parse("10.0.0.1.2"));
  EXPECT_FALSE(Ipv4Addr::parse("a.b.c.d"));
}

TEST(Ipv4Addr, Subnets) {
  Ipv4Addr addr(10, 1, 2, 3);
  EXPECT_TRUE(addr.in_subnet(Ipv4Addr(10, 0, 0, 0), 8));
  EXPECT_FALSE(addr.in_subnet(Ipv4Addr(10, 2, 0, 0), 16));
  EXPECT_TRUE(addr.in_subnet(Ipv4Addr(10, 1, 2, 3), 32));
  EXPECT_FALSE(addr.in_subnet(Ipv4Addr(10, 1, 2, 4), 32));
  EXPECT_TRUE(addr.in_subnet(Ipv4Addr(0, 0, 0, 0), 0));  // /0 matches all
}

// --- checksum --------------------------------------------------------------------

TEST(Checksum, KnownVector) {
  // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthHandled) {
  const std::uint8_t data[] = {0x01, 0x02, 0x03};
  // Verify: sum = 0x0102 + 0x0300 = 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

// --- builder / parser round trips ---------------------------------------------------

TEST(Builder, UdpPacketRoundTrip) {
  Packet p = make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 1),
                             Ipv4Addr(10, 0, 0, 2), 1234, 5678, 120);
  EXPECT_EQ(p.size(), 120u);

  auto eth = EthernetView::parse(p.bytes());
  ASSERT_TRUE(eth);
  EXPECT_EQ(eth->src.to_u64(), 1u);
  EXPECT_EQ(eth->dst.to_u64(), 2u);
  EXPECT_EQ(eth->ethertype, ethertype::kIpv4);

  auto ip = Ipv4View::parse(eth->payload);
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->src, Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(ip->dst, Ipv4Addr(10, 0, 0, 2));
  EXPECT_EQ(ip->protocol, ipproto::kUdp);
  EXPECT_EQ(ip->total_length, 120 - EthernetView::kSize);
  EXPECT_TRUE(Ipv4View::verify_checksum(eth->payload));

  auto udp = UdpView::parse(ip->payload);
  ASSERT_TRUE(udp);
  EXPECT_EQ(udp->src_port, 1234);
  EXPECT_EQ(udp->dst_port, 5678);
}

TEST(Builder, TcpPacketRoundTrip) {
  TcpFields tcp;
  tcp.src_port = 80;
  tcp.dst_port = 4000;
  tcp.seq = 1000;
  tcp.ack = 2000;
  tcp.flags = 0x12;  // SYN|ACK
  Packet p = PacketBuilder()
                 .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
                 .ipv4(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2))
                 .tcp(tcp)
                 .payload(std::string_view("hello"))
                 .build();
  auto eth = EthernetView::parse(p.bytes());
  auto ip = Ipv4View::parse(eth->payload);
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->protocol, ipproto::kTcp);
  auto view = TcpView::parse(ip->payload);
  ASSERT_TRUE(view);
  EXPECT_EQ(view->src_port, 80);
  EXPECT_TRUE(view->syn());
  EXPECT_TRUE(view->ack_flag());
  EXPECT_FALSE(view->fin());
  EXPECT_EQ(std::string(view->payload.begin(), view->payload.end()), "hello");
}

TEST(Builder, ArpRoundTrip) {
  Packet p = PacketBuilder()
                 .eth(MacAddr::from_u64(3), MacAddr::broadcast(), ethertype::kArp)
                 .arp(ArpView::kRequest, MacAddr::from_u64(3), Ipv4Addr(10, 0, 0, 3),
                      MacAddr(), Ipv4Addr(10, 0, 0, 9))
                 .build();
  auto eth = EthernetView::parse(p.bytes());
  ASSERT_TRUE(eth);
  EXPECT_EQ(eth->ethertype, ethertype::kArp);
  auto arp = ArpView::parse(eth->payload);
  ASSERT_TRUE(arp);
  EXPECT_EQ(arp->opcode, ArpView::kRequest);
  EXPECT_EQ(arp->sender_ip, Ipv4Addr(10, 0, 0, 3));
  EXPECT_EQ(arp->target_ip, Ipv4Addr(10, 0, 0, 9));
}

TEST(Builder, IcmpEchoRoundTrip) {
  Packet p = PacketBuilder()
                 .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
                 .ipv4(Ipv4Addr(1, 0, 0, 1), Ipv4Addr(1, 0, 0, 2), ipproto::kIcmp)
                 .icmp_echo(IcmpView::kEchoRequest, 7, 3)
                 .build();
  auto eth = EthernetView::parse(p.bytes());
  auto ip = Ipv4View::parse(eth->payload);
  ASSERT_TRUE(ip);
  auto icmp = IcmpView::parse(ip->payload);
  ASSERT_TRUE(icmp);
  EXPECT_EQ(icmp->type, IcmpView::kEchoRequest);
  EXPECT_EQ(icmp->identifier, 7);
  EXPECT_EQ(icmp->sequence, 3);
  // ICMP checksum over the message must verify.
  EXPECT_EQ(internet_checksum(ip->payload), 0);
}

TEST(Parser, TruncatedFramesRejected) {
  std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_FALSE(EthernetView::parse(tiny));
  std::vector<std::uint8_t> no_ip(EthernetView::kSize + 10, 0);
  store_be16(&no_ip[12], ethertype::kIpv4);
  auto eth = EthernetView::parse(no_ip);
  ASSERT_TRUE(eth);
  EXPECT_FALSE(Ipv4View::parse(eth->payload));
}

TEST(Parser, BadIpVersionOrIhlRejected) {
  Packet p = make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2), Ipv4Addr(1, 1, 1, 1),
                             Ipv4Addr(2, 2, 2, 2), 1, 2);
  auto bytes = p.mutable_bytes();
  bytes[EthernetView::kSize] = 0x65;  // version 6
  auto eth = EthernetView::parse(p.bytes());
  EXPECT_FALSE(Ipv4View::parse(eth->payload));
  bytes[EthernetView::kSize] = 0x44;  // ihl 4 < 5
  eth = EthernetView::parse(p.bytes());
  EXPECT_FALSE(Ipv4View::parse(eth->payload));
}

// --- in-place mutators ---------------------------------------------------------------

TEST(Mutators, RewritesKeepChecksumValid) {
  Packet p = make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 1),
                             Ipv4Addr(10, 0, 0, 2), 1000, 2000);
  EXPECT_TRUE(set_ipv4_src(p, Ipv4Addr(192, 168, 0, 1)));
  EXPECT_TRUE(set_ipv4_dst(p, Ipv4Addr(192, 168, 0, 2)));
  EXPECT_TRUE(set_ipv4_dscp(p, 46));
  EXPECT_TRUE(set_l4_src_port(p, 1111));
  EXPECT_TRUE(set_l4_dst_port(p, 2222));
  set_eth_src(p, MacAddr::from_u64(9));
  set_eth_dst(p, MacAddr::from_u64(8));

  auto eth = EthernetView::parse(p.bytes());
  EXPECT_EQ(eth->src.to_u64(), 9u);
  EXPECT_EQ(eth->dst.to_u64(), 8u);
  auto ip = Ipv4View::parse(eth->payload);
  EXPECT_EQ(ip->src, Ipv4Addr(192, 168, 0, 1));
  EXPECT_EQ(ip->dst, Ipv4Addr(192, 168, 0, 2));
  EXPECT_EQ(ip->dscp, 46);
  EXPECT_TRUE(Ipv4View::verify_checksum(eth->payload));
  auto udp = UdpView::parse(ip->payload);
  EXPECT_EQ(udp->src_port, 1111);
  EXPECT_EQ(udp->dst_port, 2222);
}

TEST(Mutators, TtlDecrement) {
  Packet p = PacketBuilder()
                 .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
                 .ipv4(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), ipproto::kUdp, /*ttl=*/2)
                 .udp(1, 2)
                 .build();
  EXPECT_TRUE(dec_ipv4_ttl(p));
  EXPECT_TRUE(dec_ipv4_ttl(p));
  EXPECT_FALSE(dec_ipv4_ttl(p));  // TTL now 0
  auto eth = EthernetView::parse(p.bytes());
  EXPECT_TRUE(Ipv4View::verify_checksum(eth->payload));
}

TEST(Mutators, NonIpFramesUntouched) {
  Packet p = PacketBuilder()
                 .eth(MacAddr::from_u64(1), MacAddr::from_u64(2), ethertype::kArp)
                 .arp(ArpView::kRequest, MacAddr::from_u64(1), Ipv4Addr(1, 1, 1, 1), MacAddr(),
                      Ipv4Addr(2, 2, 2, 2))
                 .build();
  EXPECT_FALSE(set_ipv4_src(p, Ipv4Addr(9, 9, 9, 9)));
  EXPECT_FALSE(set_l4_dst_port(p, 99));
  EXPECT_FALSE(dec_ipv4_ttl(p));
}

// --- flow key ---------------------------------------------------------------------------

TEST(FlowKey, UdpExtraction) {
  Packet p = make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 1),
                             Ipv4Addr(10, 0, 0, 2), 1000, 2000);
  auto key = extract_flow_key(p, 7);
  ASSERT_TRUE(key);
  EXPECT_EQ(key->in_port, 7);
  EXPECT_EQ(key->dl_type, ethertype::kIpv4);
  EXPECT_EQ(key->nw_proto, ipproto::kUdp);
  EXPECT_EQ(key->nw_src, Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(key->tp_src, 1000);
  EXPECT_EQ(key->tp_dst, 2000);
}

TEST(FlowKey, ArpExtraction) {
  Packet p = PacketBuilder()
                 .eth(MacAddr::from_u64(1), MacAddr::broadcast(), ethertype::kArp)
                 .arp(ArpView::kReply, MacAddr::from_u64(1), Ipv4Addr(1, 1, 1, 1),
                      MacAddr::from_u64(2), Ipv4Addr(2, 2, 2, 2))
                 .build();
  auto key = extract_flow_key(p, 0);
  ASSERT_TRUE(key);
  EXPECT_EQ(key->dl_type, ethertype::kArp);
  EXPECT_EQ(key->nw_proto, ArpView::kReply);
  EXPECT_EQ(key->nw_src, Ipv4Addr(1, 1, 1, 1));
}

TEST(FlowKey, IcmpUsesTypeCodeAsPorts) {
  Packet p = PacketBuilder()
                 .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
                 .ipv4(Ipv4Addr(1, 0, 0, 1), Ipv4Addr(1, 0, 0, 2), ipproto::kIcmp)
                 .icmp_echo(IcmpView::kEchoRequest, 1, 1)
                 .build();
  auto key = extract_flow_key(p, 0);
  ASSERT_TRUE(key);
  EXPECT_EQ(key->tp_src, IcmpView::kEchoRequest);
  EXPECT_EQ(key->tp_dst, 0);
}

TEST(FlowKey, EqualityAndHashConsistency) {
  Packet p1 = make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2),
                              Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1, 2);
  Packet p2 = make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2),
                              Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1, 2);
  auto k1 = extract_flow_key(p1, 4);
  auto k2 = extract_flow_key(p2, 4);
  EXPECT_EQ(*k1, *k2);
  EXPECT_EQ(std::hash<FlowKey>{}(*k1), std::hash<FlowKey>{}(*k2));
  auto k3 = extract_flow_key(p2, 5);
  EXPECT_NE(*k1, *k3);
}

/// The one-pass parser against the view-based reference on a seeded
/// mutation corpus: the same frames rejected, the same key field for
/// field, and the same TCP flags from the flag-reporting overload.
TEST(FlowKeyDifferential, OnePassParserMatchesViewParserOnMutationCorpus) {
  const std::vector<Packet> corpus = testing::parser_mutation_corpus(0x5eed, 400);
  std::size_t rejected = 0, ip_rejected = 0, l4_rejected = 0;
  std::size_t tcp_with_flags = 0, arp_accepted = 0, arp_rejected = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Packet& p = corpus[i];
    const auto want = testing::view_extract_flow_key(p, 7);
    const auto got = extract_flow_key(p, 7);
    ASSERT_EQ(got.has_value(), want.has_value()) << "frame " << i << " len " << p.size();
    std::uint8_t flags = 0xee;
    const auto got_with_flags = extract_flow_key(p, 7, flags);
    ASSERT_EQ(got_with_flags.has_value(), want.has_value()) << "frame " << i;
    EXPECT_EQ(flags, testing::view_tcp_flags(p)) << "frame " << i;
    if (!want) {
      ++rejected;
      continue;
    }
    EXPECT_EQ(*got, *want) << "frame " << i << ": " << got->to_string() << " vs "
                           << want->to_string();
    EXPECT_EQ(*got_with_flags, *want) << "frame " << i;

    // Tally which checks the corpus reached, so it cannot pass vacuously.
    if (want->dl_type == ethertype::kIpv4) {
      const bool has_l4 = want->nw_proto == ipproto::kUdp || want->nw_proto == ipproto::kTcp ||
                          want->nw_proto == ipproto::kIcmp;
      if (want->nw_src.value() == 0 && want->nw_dst.value() == 0) ++ip_rejected;
      if (has_l4 && want->tp_src == 0 && want->tp_dst == 0) ++l4_rejected;
      if (flags != 0) ++tcp_with_flags;
    } else if (want->dl_type == ethertype::kArp) {
      ++(want->nw_src.value() != 0 ? arp_accepted : arp_rejected);
    }
  }
  EXPECT_GT(corpus.size(), 3000u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(ip_rejected, 100u);
  EXPECT_GT(l4_rejected, 50u);
  EXPECT_GT(tcp_with_flags, 100u);
  EXPECT_GT(arp_accepted, 10u);
  EXPECT_GT(arp_rejected, 10u);
}

TEST(FlowKey, TcpFlagsNeedAValidTcpHeader) {
  TcpFields tcp;
  tcp.src_port = 1;
  tcp.dst_port = 2;
  tcp.flags = 0x11;  // FIN|ACK
  Packet p = PacketBuilder()
                 .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
                 .ipv4(Ipv4Addr(1, 0, 0, 1), Ipv4Addr(1, 0, 0, 2), ipproto::kTcp)
                 .tcp(tcp)
                 .build();
  std::uint8_t flags = 0;
  auto key = extract_flow_key(p, 0, flags);
  ASSERT_TRUE(key);
  EXPECT_EQ(flags, 0x11);
  EXPECT_EQ(key->tp_dst, 2);

  // Data offset 4 (< 5 words): the key keeps L3, loses L4 and the flags.
  p.mutable_bytes()[EthernetView::kSize + Ipv4View::kMinSize + 12] = 4 << 4;
  key = extract_flow_key(p, 0, flags);
  ASSERT_TRUE(key);
  EXPECT_EQ(flags, 0);
  EXPECT_EQ(key->nw_proto, ipproto::kTcp);
  EXPECT_EQ(key->tp_dst, 0);
}

TEST(PacketAnnotations, Defaults) {
  Packet p;
  EXPECT_EQ(p.paint(), 0);
  EXPECT_EQ(p.in_port(), -1);
  EXPECT_EQ(p.seq(), 0u);
  p.set_paint(3);
  p.set_seq(99);
  p.set_chain_tag(5);
  EXPECT_EQ(p.paint(), 3);
  EXPECT_EQ(p.seq(), 99u);
  EXPECT_EQ(p.chain_tag(), 5u);
}

/// Frame-size sweep: IP total length always consistent with frame size.
class FrameSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrameSizeSweep, LengthsConsistent) {
  Packet p = make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2), Ipv4Addr(1, 1, 1, 1),
                             Ipv4Addr(2, 2, 2, 2), 1, 2, GetParam());
  EXPECT_EQ(p.size(), GetParam());
  auto eth = EthernetView::parse(p.bytes());
  auto ip = Ipv4View::parse(eth->payload);
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->total_length, GetParam() - EthernetView::kSize);
  EXPECT_TRUE(Ipv4View::verify_checksum(eth->payload));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FrameSizeSweep,
                         ::testing::Values(64, 98, 128, 512, 1024, 1500));

// --- PacketPool ----------------------------------------------------------------------

TEST(PacketPool, RecycledBufferIsHandedOutAgain) {
  PacketPool pool;
  Packet p = pool.acquire(128);
  EXPECT_EQ(pool.fresh_allocs(), 1u);
  const std::uint8_t* buffer = p.bytes().data();

  pool.recycle(std::move(p));
  EXPECT_EQ(pool.free_buffers(), 1u);
  EXPECT_EQ(pool.recycled(), 1u);

  Packet q = pool.acquire(64);
  EXPECT_EQ(q.bytes().data(), buffer);  // same storage, no fresh allocation
  EXPECT_EQ(q.size(), 64u);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.fresh_allocs(), 1u);
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(PacketPool, ReusedPacketHasAnnotationsReset) {
  PacketPool pool;
  Packet p = pool.acquire(100);
  p.set_paint(7);
  p.set_in_port(3);
  p.set_seq(42);
  p.set_timestamp(123456);
  p.set_chain_tag(9);
  pool.recycle(std::move(p));

  Packet q = pool.acquire(100);
  EXPECT_EQ(q.paint(), 0);
  EXPECT_EQ(q.in_port(), -1);
  EXPECT_EQ(q.seq(), 0u);
  EXPECT_FALSE(q.has_timestamp());
  EXPECT_EQ(q.chain_tag(), 0u);
}

TEST(PacketPool, AcquireCopyReplicatesBytesFromRecycledBuffer) {
  PacketPool pool;
  Packet proto = make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2),
                                 Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1, 2, 200);
  pool.recycle(pool.acquire(1500));  // seed the free list with a big buffer
  Packet copy = pool.acquire_copy(proto);
  EXPECT_EQ(pool.reuses(), 1u);
  ASSERT_EQ(copy.size(), proto.size());
  EXPECT_TRUE(std::equal(copy.bytes().begin(), copy.bytes().end(), proto.bytes().begin()));
}

TEST(PacketPool, MaxFreeBoundsTheFreeList) {
  PacketPool pool(/*max_free=*/2);
  std::vector<Packet> live;
  for (int i = 0; i < 5; ++i) live.push_back(pool.acquire(64));
  for (auto& p : live) pool.recycle(std::move(p));
  EXPECT_EQ(pool.free_buffers(), 2u);  // excess buffers freed normally
  EXPECT_EQ(pool.recycled(), 2u);

  // The per-thread pool every sink recycles into (Host::deliver, Discard,
  // the controller's packet-ins) keeps the default bound.
  PacketPool& shared = default_packet_pool();
  shared.clear();
  std::vector<Packet> burst;
  for (std::size_t i = 0; i < PacketPool::kDefaultMaxFree + 50; ++i) {
    burst.push_back(Packet(std::vector<std::uint8_t>(64)));
  }
  for (auto& p : burst) shared.recycle(std::move(p));
  EXPECT_EQ(shared.free_buffers(), PacketPool::kDefaultMaxFree);
  EXPECT_EQ(shared.recycled(), PacketPool::kDefaultMaxFree);
  shared.clear();
}

}  // namespace
}  // namespace escape::net
