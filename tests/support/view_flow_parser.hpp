// The reference parsers the one-pass net::extract_flow_key and
// click::FlowTuple::from_packet are differentially tested against
// (tests/net_test.cpp, tests/filter_test.cpp, tests/flow_test.cpp),
// plus the seeded frame corpus the suites feed them.
//
// view_extract_flow_key is the view-based parser the one-pass kernel
// replaced: each header is parsed into its std::optional<...View> from
// net/headers.hpp, and the next header is parsed from the previous
// view's payload. view_tcp_flags is how ClassifyCtx::from_packet used to
// read the TCP flags: a second Ethernet -> IPv4 -> TCP view parse.
// view_flow_tuple is the view-based body FlowTuple::from_packet had.
// The views carry every bounds and sanity check, so these functions
// define which frames are accepted and what each field holds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "click/flow.hpp"
#include "net/builder.hpp"
#include "net/flow.hpp"
#include "net/headers.hpp"
#include "util/random.hpp"

namespace escape::net::testing {

inline std::optional<FlowKey> view_extract_flow_key(const Packet& packet,
                                                    std::uint16_t in_port) {
  auto eth = EthernetView::parse(packet.bytes());
  if (!eth) return std::nullopt;

  FlowKey key;
  key.in_port = in_port;
  key.dl_src = eth->src;
  key.dl_dst = eth->dst;
  key.dl_type = eth->ethertype;

  if (eth->ethertype == ethertype::kIpv4) {
    if (auto ip = Ipv4View::parse(eth->payload)) {
      key.nw_proto = ip->protocol;
      key.nw_src = ip->src;
      key.nw_dst = ip->dst;
      key.nw_tos = ip->dscp;
      if (ip->protocol == ipproto::kUdp) {
        if (auto udp = UdpView::parse(ip->payload)) {
          key.tp_src = udp->src_port;
          key.tp_dst = udp->dst_port;
        }
      } else if (ip->protocol == ipproto::kTcp) {
        if (auto tcp = TcpView::parse(ip->payload)) {
          key.tp_src = tcp->src_port;
          key.tp_dst = tcp->dst_port;
        }
      } else if (ip->protocol == ipproto::kIcmp) {
        if (auto icmp = IcmpView::parse(ip->payload)) {
          key.tp_src = icmp->type;
          key.tp_dst = icmp->code;
        }
      }
    }
  } else if (eth->ethertype == ethertype::kArp) {
    if (auto arp = ArpView::parse(eth->payload)) {
      key.nw_proto = static_cast<std::uint8_t>(arp->opcode);
      key.nw_src = arp->sender_ip;
      key.nw_dst = arp->target_ip;
    }
  }
  return key;
}

/// TCP flags of a frame whose reference key says IPv4/TCP; 0 otherwise.
inline std::uint8_t view_tcp_flags(const Packet& p) {
  auto key = view_extract_flow_key(p, 0);
  if (!key || key->dl_type != ethertype::kIpv4 || key->nw_proto != ipproto::kTcp) return 0;
  if (auto eth = EthernetView::parse(p.bytes())) {
    if (auto ip = Ipv4View::parse(eth->payload)) {
      if (auto tcp = TcpView::parse(ip->payload)) return tcp->flags;
    }
  }
  return 0;
}

/// The 5-tuple of an IPv4 frame; nullopt for anything else.
inline std::optional<click::FlowTuple> view_flow_tuple(const Packet& p) {
  using click::FlowTuple;
  auto eth = net::EthernetView::parse(p.bytes());
  if (!eth || eth->ethertype != net::ethertype::kIpv4) return std::nullopt;
  auto ip = net::Ipv4View::parse(eth->payload);
  if (!ip) return std::nullopt;
  FlowTuple t;
  t.src_ip = ip->src.value();
  t.dst_ip = ip->dst.value();
  t.proto = ip->protocol;
  if (ip->protocol == net::ipproto::kTcp) {
    if (auto tcp = net::TcpView::parse(ip->payload)) {
      t.src_port = tcp->src_port;
      t.dst_port = tcp->dst_port;
    }
  } else if (ip->protocol == net::ipproto::kUdp) {
    if (auto udp = net::UdpView::parse(ip->payload)) {
      t.src_port = udp->src_port;
      t.dst_port = udp->dst_port;
    }
  } else if (ip->protocol == net::ipproto::kIcmp) {
    if (auto icmp = net::IcmpView::parse(ip->payload)) {
      t.src_port = icmp->type;
      t.dst_port = icmp->identifier;
    }
  }
  return t;
}

/// Well-formed seed frames: UDP, TCP (with and without options), ICMP,
/// IPv4 with no L4 key fields (GRE), ARP, LLDP and an unknown ethertype.
inline std::vector<Packet> parser_seed_frames() {
  const MacAddr a = MacAddr::from_u64(0x0a0b0c0d0e01);
  const MacAddr b = MacAddr::from_u64(0x0a0b0c0d0e02);
  const Ipv4Addr ip_a(10, 1, 2, 3);
  const Ipv4Addr ip_b(192, 168, 7, 9);
  std::vector<Packet> seeds;
  seeds.push_back(PacketBuilder()
                      .eth(a, b)
                      .ipv4(ip_a, ip_b, ipproto::kUdp, 64, 46)
                      .udp(5353, 53)
                      .payload("query")
                      .build());
  TcpFields tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 443;
  tcp.seq = 7;
  tcp.flags = 0x12;  // SYN|ACK
  seeds.push_back(PacketBuilder()
                      .eth(a, b)
                      .ipv4(ip_a, ip_b, ipproto::kTcp, 64, 10)
                      .tcp(tcp)
                      .pad_to(64)
                      .build());
  // TCP with 12 bytes of options: data offset 8.
  Packet with_options = PacketBuilder()
                            .eth(a, b)
                            .ipv4(ip_a, ip_b, ipproto::kTcp)
                            .tcp(tcp)
                            .payload("0123456789ab")
                            .build();
  with_options.mutable_bytes()[EthernetView::kSize + Ipv4View::kMinSize + 12] = 8 << 4;
  seeds.push_back(std::move(with_options));
  seeds.push_back(PacketBuilder()
                      .eth(a, b)
                      .ipv4(ip_a, ip_b, ipproto::kIcmp)
                      .icmp_echo(IcmpView::kEchoRequest, 9, 1)
                      .build());
  seeds.push_back(PacketBuilder()
                      .eth(a, MacAddr::broadcast(), ethertype::kArp)
                      .arp(ArpView::kReply, a, ip_a, b, ip_b)
                      .build());
  seeds.push_back(
      PacketBuilder().eth(a, b, ethertype::kLldp).payload("chassis-port-ttl").build());
  seeds.push_back(PacketBuilder().eth(a, b, 0x86dd).pad_to(80).build());
  seeds.push_back(PacketBuilder().eth(a, b).ipv4(ip_a, ip_b, 47).pad_to(60).build());
  return seeds;
}

/// The differential corpus: every seed frame, each of its truncations,
/// targeted corruptions of the version, IHL, TCP data-offset and ARP
/// htype/ptype/hlen/plen fields, and `flips_per_seed` seeded random
/// byte flips per seed frame.
inline std::vector<Packet> parser_mutation_corpus(std::uint64_t seed, int flips_per_seed) {
  constexpr std::size_t kL3 = EthernetView::kSize;
  std::vector<Packet> corpus;
  auto with = [](const Packet& base, std::size_t at, std::uint8_t value) {
    Packet p = base;
    if (at < p.size()) p.mutable_bytes()[at] = value;
    return p;
  };
  Rng rng{seed};
  for (const Packet& base : parser_seed_frames()) {
    corpus.push_back(base);
    for (std::size_t len = 0; len < base.size(); ++len) {
      corpus.emplace_back(base.data().data(), len);
    }
    const std::uint16_t type = load_be16(&base.data()[12]);
    if (type == ethertype::kIpv4) {
      const std::uint8_t vihl = base.data()[kL3];
      for (std::uint8_t version : {0, 4, 5, 6, 15}) {
        for (std::uint8_t ihl = 0; ihl < 16; ++ihl) {
          corpus.push_back(with(base, kL3, static_cast<std::uint8_t>(version << 4 | ihl)));
        }
      }
      const std::size_t l4 = kL3 + std::size_t{static_cast<std::size_t>(vihl & 0x0f)} * 4;
      for (std::uint8_t offset = 0; offset < 16; ++offset) {
        corpus.push_back(with(base, l4 + 12, static_cast<std::uint8_t>(offset << 4)));
      }
      for (std::uint8_t proto : {ipproto::kIcmp, ipproto::kTcp, ipproto::kUdp}) {
        corpus.push_back(with(base, kL3 + 9, proto));
      }
    } else if (type == ethertype::kArp) {
      for (std::size_t field = 0; field < 6; ++field) {
        for (std::uint8_t value : {0, 1, 4, 6, 8, 0xff}) {
          corpus.push_back(with(base, kL3 + field, value));
        }
      }
    }
    for (std::uint16_t ether : {ethertype::kIpv4, ethertype::kArp}) {
      Packet p = base;
      store_be16(&p.mutable_bytes()[12], ether);
      corpus.push_back(std::move(p));
    }
    for (int i = 0; i < flips_per_seed; ++i) {
      Packet p = base;
      const int flips = static_cast<int>(rng.next_range(1, 4));
      for (int f = 0; f < flips; ++f) {
        const std::size_t at = rng.next_below(p.size());
        p.mutable_bytes()[at] ^= static_cast<std::uint8_t>(rng.next_range(1, 255));
      }
      if (rng.next_bool(0.25)) p.data().resize(rng.next_below(p.size() + 1));
      corpus.push_back(std::move(p));
    }
  }
  return corpus;
}

}  // namespace escape::net::testing
