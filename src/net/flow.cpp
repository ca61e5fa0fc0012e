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
    if (l3_len < Ipv4View::kMinSize || (l3[0] >> 4) != 4) return key;
    const std::size_t ihl_bytes = static_cast<std::size_t>(l3[0] & 0x0f) * 4;
    if (ihl_bytes < Ipv4View::kMinSize || ihl_bytes > l3_len) return key;
    key.nw_tos = l3[1] >> 2;
    key.nw_proto = l3[9];
    key.nw_src = Ipv4Addr(load_be32(l3 + 12));
    key.nw_dst = Ipv4Addr(load_be32(l3 + 16));
    const std::uint8_t* l4 = l3 + ihl_bytes;
    const std::size_t l4_len = l3_len - ihl_bytes;
    switch (key.nw_proto) {
      case ipproto::kUdp:
        if (l4_len >= UdpView::kSize) {
          key.tp_src = load_be16(l4);
          key.tp_dst = load_be16(l4 + 2);
        }
        break;
      case ipproto::kTcp:
        if (l4_len >= TcpView::kMinSize) {
          const std::size_t offset_bytes = static_cast<std::size_t>(l4[12] >> 4) * 4;
          if (offset_bytes >= TcpView::kMinSize && offset_bytes <= l4_len) {
            key.tp_src = load_be16(l4);
            key.tp_dst = load_be16(l4 + 2);
            tcp_flags = l4[13];
          }
        }
        break;
      case ipproto::kIcmp:
        if (l4_len >= IcmpView::kMinSize) {
          key.tp_src = l4[0];  // type
          key.tp_dst = l4[1];  // code
        }
        break;
      default:
        break;
    }
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
