#include "net/flow.hpp"

#include <array>
#include <cstring>

#include "net/headers.hpp"
#include "util/strings.hpp"

namespace escape::net {

namespace {

MacAddr load_mac(const std::uint8_t* p) {
  std::array<std::uint8_t, 6> bytes{};
  std::memcpy(bytes.data(), p, bytes.size());
  return MacAddr(bytes);
}

/// One bounds-checked pass over the fixed header offsets. It accepts
/// exactly the frames the header views in net/headers.hpp accept and
/// fills the same fields: a header that fails its checks leaves its
/// fields (and everything after it) zero. `tcp_flags` is set only by a
/// valid TCP header.
std::optional<FlowKey> parse(std::span<const std::uint8_t> frame, std::uint16_t in_port,
                             std::uint8_t& tcp_flags) {
  tcp_flags = 0;
  if (frame.size() < EthernetView::kSize) return std::nullopt;
  const std::uint8_t* p = frame.data();
  FlowKey key;
  key.in_port = in_port;
  key.dl_dst = load_mac(p);
  key.dl_src = load_mac(p + 6);
  key.dl_type = load_be16(p + 12);
  const std::uint8_t* l3 = p + EthernetView::kSize;
  const std::size_t l3_len = frame.size() - EthernetView::kSize;

  if (key.dl_type == ethertype::kIpv4) {
    const auto ip = Ipv4FlowView::parse({l3, l3_len});
    if (!ip) return key;
    key.nw_tos = ip->dscp;
    key.nw_proto = ip->protocol;
    key.nw_src = ip->src;
    key.nw_dst = ip->dst;
    key.tp_src = ip->tp_src;
    key.tp_dst = ip->tp_dst;
    tcp_flags = ip->tcp_flags;
  } else if (key.dl_type == ethertype::kArp) {
    // Ethernet/IPv4 ARP only: htype 1, ptype IPv4, hlen 6, plen 4.
    if (l3_len >= ArpView::kSize && load_be16(l3) == 1 && load_be16(l3 + 2) == ethertype::kIpv4 &&
        l3[4] == 6 && l3[5] == 4) {
      key.nw_proto = l3[7];  // low byte of the opcode
      key.nw_src = Ipv4Addr(load_be32(l3 + 14));
      key.nw_dst = Ipv4Addr(load_be32(l3 + 24));
    }
  }
  return key;
}

}  // namespace

std::optional<FlowKey> extract_flow_key(const Packet& packet, std::uint16_t in_port) {
  std::uint8_t tcp_flags = 0;
  return parse(packet.bytes(), in_port, tcp_flags);
}

std::optional<FlowKey> extract_flow_key(const Packet& packet, std::uint16_t in_port,
                                        std::uint8_t& tcp_flags) {
  return parse(packet.bytes(), in_port, tcp_flags);
}

std::string FlowKey::to_string() const {
  return strings::format(
      "flow[in=%u %s->%s type=0x%04x proto=%u %s:%u->%s:%u tos=%u]", in_port,
      dl_src.to_string().c_str(), dl_dst.to_string().c_str(), dl_type, nw_proto,
      nw_src.to_string().c_str(), tp_src, nw_dst.to_string().c_str(), tp_dst, nw_tos);
}

}  // namespace escape::net
