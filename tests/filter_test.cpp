// Tests for the packet filter expression language (compile + evaluate).
#include <gtest/gtest.h>

#include "click/filter_expr.hpp"
#include "net/builder.hpp"
#include "support/view_flow_parser.hpp"

namespace escape::click {
namespace {

using net::Ipv4Addr;
using net::MacAddr;
using net::Packet;

Packet udp_packet(Ipv4Addr src, Ipv4Addr dst, std::uint16_t sport, std::uint16_t dport,
                  std::uint8_t dscp = 0) {
  return net::PacketBuilder()
      .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
      .ipv4(src, dst, net::ipproto::kUdp, 64, dscp)
      .udp(sport, dport)
      .build();
}

Packet tcp_packet(std::uint8_t flags, std::uint16_t dport = 80) {
  net::TcpFields tcp;
  tcp.src_port = 1234;
  tcp.dst_port = dport;
  tcp.flags = flags;
  return net::PacketBuilder()
      .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
      .ipv4(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2))
      .tcp(tcp)
      .build();
}

Packet arp_packet() {
  return net::PacketBuilder()
      .eth(MacAddr::from_u64(1), MacAddr::broadcast(), net::ethertype::kArp)
      .arp(net::ArpView::kRequest, MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1), MacAddr(),
           Ipv4Addr(10, 0, 0, 2))
      .build();
}

bool eval(const char* expr, const Packet& p) {
  auto compiled = FilterExpr::compile(expr);
  EXPECT_TRUE(compiled.ok()) << expr << ": "
                             << (compiled.ok() ? "" : compiled.error().to_string());
  return compiled.ok() && compiled->matches(p);
}

TEST(FilterExpr, ProtocolPrimitives) {
  Packet udp = udp_packet(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1, 2);
  EXPECT_TRUE(eval("ip", udp));
  EXPECT_TRUE(eval("udp", udp));
  EXPECT_FALSE(eval("tcp", udp));
  EXPECT_FALSE(eval("icmp", udp));
  EXPECT_FALSE(eval("arp", udp));
  EXPECT_TRUE(eval("arp", arp_packet()));
  EXPECT_FALSE(eval("ip", arp_packet()));
  EXPECT_TRUE(eval("tcp", tcp_packet(0x02)));
}

TEST(FilterExpr, HostMatching) {
  Packet p = udp_packet(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1, 2);
  EXPECT_TRUE(eval("src host 10.0.0.1", p));
  EXPECT_FALSE(eval("src host 10.0.0.2", p));
  EXPECT_TRUE(eval("dst host 10.0.0.2", p));
  EXPECT_TRUE(eval("host 10.0.0.1", p));
  EXPECT_TRUE(eval("host 10.0.0.2", p));
  EXPECT_FALSE(eval("host 10.0.0.3", p));
}

TEST(FilterExpr, NetMatching) {
  Packet p = udp_packet(Ipv4Addr(10, 1, 0, 1), Ipv4Addr(192, 168, 5, 9), 1, 2);
  EXPECT_TRUE(eval("src net 10.0.0.0/8", p));
  EXPECT_FALSE(eval("src net 10.2.0.0/16", p));
  EXPECT_TRUE(eval("dst net 192.168.0.0/16", p));
  EXPECT_TRUE(eval("net 192.168.5.0/24", p));
  EXPECT_FALSE(eval("net 172.16.0.0/12", p));
}

TEST(FilterExpr, PortMatching) {
  Packet p = udp_packet(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 5353, 53);
  EXPECT_TRUE(eval("src port 5353", p));
  EXPECT_TRUE(eval("dst port 53", p));
  EXPECT_TRUE(eval("port 53", p));
  EXPECT_TRUE(eval("port 5353", p));
  EXPECT_FALSE(eval("port 80", p));
  // Ports require TCP/UDP: ARP never matches.
  EXPECT_FALSE(eval("port 53", arp_packet()));
}

TEST(FilterExpr, DscpMatching) {
  Packet p = udp_packet(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2, /*dscp=*/46);
  EXPECT_TRUE(eval("dscp 46", p));
  EXPECT_FALSE(eval("dscp 0", p));
  EXPECT_TRUE(eval("tos 46", p));
}

TEST(FilterExpr, TcpFlags) {
  EXPECT_TRUE(eval("tcp && syn", tcp_packet(0x02)));
  EXPECT_TRUE(eval("syn && ack", tcp_packet(0x12)));
  EXPECT_FALSE(eval("syn", tcp_packet(0x10)));
  EXPECT_TRUE(eval("fin", tcp_packet(0x01)));
  EXPECT_TRUE(eval("rst", tcp_packet(0x04)));
}

TEST(FilterExpr, BooleanOperators) {
  Packet p = udp_packet(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1000, 53);
  EXPECT_TRUE(eval("udp && dst port 53", p));
  EXPECT_FALSE(eval("udp && dst port 54", p));
  EXPECT_TRUE(eval("tcp || udp", p));
  EXPECT_TRUE(eval("!tcp", p));
  EXPECT_TRUE(eval("not tcp", p));
  EXPECT_TRUE(eval("udp and dst port 53", p));
  EXPECT_TRUE(eval("tcp or udp", p));
  EXPECT_TRUE(eval("true", p));
  EXPECT_FALSE(eval("false", p));
}

TEST(FilterExpr, PrecedenceAndParens) {
  Packet dns = udp_packet(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 53);
  // AND binds tighter than OR: matches via the udp&&53 disjunct.
  EXPECT_TRUE(eval("tcp && syn || udp && dst port 53", dns));
  // Parens force the other grouping.
  EXPECT_FALSE(eval("tcp && (syn || udp) && dst port 53", dns));
  EXPECT_TRUE(eval("!(tcp || icmp)", dns));
}

TEST(FilterExpr, CompileErrors) {
  EXPECT_FALSE(FilterExpr::compile("").ok());
  EXPECT_FALSE(FilterExpr::compile("bogus").ok());
  EXPECT_FALSE(FilterExpr::compile("udp &&").ok());
  EXPECT_FALSE(FilterExpr::compile("(udp").ok());
  EXPECT_FALSE(FilterExpr::compile("src host").ok());
  EXPECT_FALSE(FilterExpr::compile("src host 1.2.3.4.5").ok());
  EXPECT_FALSE(FilterExpr::compile("net 10.0.0.0").ok());     // missing /len
  EXPECT_FALSE(FilterExpr::compile("net 10.0.0.0/33").ok());  // len out of range
  EXPECT_FALSE(FilterExpr::compile("port 70000").ok());
  EXPECT_FALSE(FilterExpr::compile("dscp 64").ok());
  EXPECT_FALSE(FilterExpr::compile("udp udp").ok());  // trailing token
}

TEST(FilterExpr, SourcePreserved) {
  auto compiled = FilterExpr::compile("udp && dst port 53");
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->source(), "udp && dst port 53");
}

TEST(FilterExpr, DefaultConstructedMatchesNothing) {
  FilterExpr expr;
  EXPECT_FALSE(expr.matches(udp_packet(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2)));
}

/// Property sweep: for every port p, "dst port p" matches exactly the
/// packet with that destination port.
class PortSweep : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(PortSweep, DstPortExactness) {
  const std::uint16_t port = GetParam();
  auto compiled = FilterExpr::compile("dst port " + std::to_string(port));
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->matches(udp_packet(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 9, port)));
  EXPECT_FALSE(compiled->matches(
      udp_packet(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 9,
                 static_cast<std::uint16_t>(port + 1))));
}

INSTANTIATE_TEST_SUITE_P(Ports, PortSweep,
                         ::testing::Values(1, 22, 53, 80, 443, 8080, 65534));

/// Property sweep: prefix-length consistency -- an address inside the
/// prefix matches, the address with the highest-order prefix bit flipped
/// does not (for len >= 1).
// --- ClassifyCtx ----------------------------------------------------------------

/// from_packet against the view-based reference (a key parse, then a
/// second Ethernet/IPv4/TCP parse for the flags) on the seeded mutation
/// corpus the parser's own differential test uses.
TEST(ClassifyCtx, FromPacketMatchesViewParserOnMutationCorpus) {
  const std::vector<Packet> corpus = net::testing::parser_mutation_corpus(0xf1a9, 400);
  std::size_t with_flags = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const ClassifyCtx ctx = ClassifyCtx::from_packet(corpus[i]);
    const net::FlowKey want =
        net::testing::view_extract_flow_key(corpus[i], 0).value_or(net::FlowKey{});
    EXPECT_EQ(ctx.key, want) << "frame " << i << ": " << ctx.key.to_string() << " vs "
                             << want.to_string();
    EXPECT_EQ(ctx.tcp_flags, net::testing::view_tcp_flags(corpus[i])) << "frame " << i;
    if (ctx.tcp_flags != 0) ++with_flags;
  }
  EXPECT_GT(with_flags, 100u);
}

class PrefixSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrefixSweep, PrefixSemantics) {
  const int len = GetParam();
  const Ipv4Addr base(10, 20, 30, 40);
  auto expr = FilterExpr::compile("src net " + base.to_string() + "/" + std::to_string(len));
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE(expr->matches(udp_packet(base, Ipv4Addr(1, 1, 1, 1), 1, 2)));
  if (len >= 1) {
    const std::uint32_t flipped = base.value() ^ (1u << (32 - len));
    EXPECT_FALSE(expr->matches(udp_packet(Ipv4Addr(flipped), Ipv4Addr(1, 1, 1, 1), 1, 2)))
        << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, PrefixSweep,
                         ::testing::Values(0, 1, 8, 12, 16, 24, 31, 32));

}  // namespace
}  // namespace escape::click
