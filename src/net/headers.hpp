// Protocol header views and codecs: Ethernet, ARP, IPv4, ICMP, UDP, TCP.
//
// Each header type offers a non-owning view over packet bytes with typed
// accessors, a `parse` that validates bounds, and a writer used by
// PacketBuilder. All multi-byte fields are big-endian on the wire.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/addr.hpp"
#include "net/packet.hpp"

namespace escape::net {

// EtherTypes and IP protocol numbers used by the framework.
namespace ethertype {
inline constexpr std::uint16_t kIpv4 = 0x0800;
inline constexpr std::uint16_t kArp = 0x0806;
inline constexpr std::uint16_t kLldp = 0x88cc;  // used by topology discovery
}  // namespace ethertype

namespace ipproto {
inline constexpr std::uint8_t kIcmp = 1;
inline constexpr std::uint8_t kTcp = 6;
inline constexpr std::uint8_t kUdp = 17;
}  // namespace ipproto

/// Internet checksum (RFC 1071) over `data`.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

// --- Ethernet -------------------------------------------------------------

struct EthernetView {
  static constexpr std::size_t kSize = 14;

  MacAddr dst;
  MacAddr src;
  std::uint16_t ethertype = 0;
  std::span<const std::uint8_t> payload;

  static std::optional<EthernetView> parse(std::span<const std::uint8_t> frame);
};

/// Writes an Ethernet header into `out[0..14)`. Precondition: out.size() >= 14.
void write_ethernet(std::span<std::uint8_t> out, MacAddr dst, MacAddr src,
                    std::uint16_t ethertype);

/// In-place rewrite helpers for a full frame (used by OpenFlow actions).
void set_eth_dst(Packet& p, MacAddr dst);
void set_eth_src(Packet& p, MacAddr src);

// --- ARP (Ethernet/IPv4 only) ----------------------------------------------

struct ArpView {
  static constexpr std::size_t kSize = 28;
  static constexpr std::uint16_t kRequest = 1;
  static constexpr std::uint16_t kReply = 2;

  std::uint16_t opcode = 0;
  MacAddr sender_mac;
  Ipv4Addr sender_ip;
  MacAddr target_mac;
  Ipv4Addr target_ip;

  static std::optional<ArpView> parse(std::span<const std::uint8_t> l3);
};

void write_arp(std::span<std::uint8_t> out, std::uint16_t opcode, MacAddr sender_mac,
               Ipv4Addr sender_ip, MacAddr target_mac, Ipv4Addr target_ip);

// --- IPv4 -------------------------------------------------------------------

struct Ipv4View {
  static constexpr std::size_t kMinSize = 20;

  std::uint8_t ihl = 5;  // header length in 32-bit words
  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;
  std::uint16_t identification = 0;
  std::uint8_t ttl = 0;
  std::uint8_t protocol = 0;
  std::uint16_t checksum = 0;
  Ipv4Addr src;
  Ipv4Addr dst;
  std::span<const std::uint8_t> payload;

  std::size_t header_len() const { return std::size_t{ihl} * 4; }

  static std::optional<Ipv4View> parse(std::span<const std::uint8_t> l3);

  /// Recomputes the header checksum over `l3` and returns whether the
  /// stored checksum was valid.
  static bool verify_checksum(std::span<const std::uint8_t> l3);
};

struct Ipv4Fields {
  std::uint8_t dscp = 0;
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = ipproto::kUdp;
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t total_length = 0;  // header + payload
};

/// Writes a 20-byte IPv4 header with correct checksum into out[0..20).
void write_ipv4(std::span<std::uint8_t> out, const Ipv4Fields& fields);

// In-place mutators over a full Ethernet frame carrying IPv4; they fix the
// header checksum. No-ops (returning false) if the frame is not IPv4.
bool set_ipv4_src(Packet& p, Ipv4Addr addr);
bool set_ipv4_dst(Packet& p, Ipv4Addr addr);
bool set_ipv4_dscp(Packet& p, std::uint8_t dscp);
bool dec_ipv4_ttl(Packet& p);  // false if not IPv4 or TTL already 0

// --- ICMP (echo subset) -----------------------------------------------------

struct IcmpView {
  static constexpr std::size_t kMinSize = 8;
  static constexpr std::uint8_t kEchoReply = 0;
  static constexpr std::uint8_t kEchoRequest = 8;

  std::uint8_t type = 0;
  std::uint8_t code = 0;
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;
  std::span<const std::uint8_t> payload;

  static std::optional<IcmpView> parse(std::span<const std::uint8_t> l4);
};

void write_icmp_echo(std::span<std::uint8_t> out, std::uint8_t type, std::uint16_t identifier,
                     std::uint16_t sequence, std::span<const std::uint8_t> payload);

// --- UDP --------------------------------------------------------------------

struct UdpView {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;
  std::span<const std::uint8_t> payload;

  static std::optional<UdpView> parse(std::span<const std::uint8_t> l4);
};

void write_udp(std::span<std::uint8_t> out, std::uint16_t src_port, std::uint16_t dst_port,
               std::uint16_t length);

// In-place port rewrites over a full frame (IPv4/UDP or IPv4/TCP).
bool set_l4_src_port(Packet& p, std::uint16_t port);
bool set_l4_dst_port(Packet& p, std::uint16_t port);

// --- TCP (header only; no state machine) -------------------------------------

struct TcpView {
  static constexpr std::size_t kMinSize = 20;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t data_offset = 5;  // words
  std::uint8_t flags = 0;        // FIN=1 SYN=2 RST=4 PSH=8 ACK=16
  std::uint16_t window = 0;
  std::span<const std::uint8_t> payload;

  bool syn() const { return flags & 0x02; }
  bool ack_flag() const { return flags & 0x10; }
  bool fin() const { return flags & 0x01; }
  bool rst() const { return flags & 0x04; }

  static std::optional<TcpView> parse(std::span<const std::uint8_t> l4);
};

struct TcpFields {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
};

void write_tcp(std::span<std::uint8_t> out, const TcpFields& fields);

// --- IPv4 flow fields (one pass) ---------------------------------------------

/// What the flow parsers (net::extract_flow_key and
/// click::FlowTuple::from_packet) read of an IPv4 packet, in one
/// bounds-checked pass over fixed offsets. It accepts exactly what
/// Ipv4View::parse accepts, and an L4 header that fails its view's
/// checks leaves its fields zero.
struct Ipv4FlowView {
  std::uint8_t dscp = 0;
  std::uint8_t protocol = 0;
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t tp_src = 0;  // TCP/UDP source port, ICMP type
  std::uint16_t tp_dst = 0;  // TCP/UDP destination port, ICMP code
  std::uint16_t icmp_identifier = 0;
  std::uint8_t tcp_flags = 0;

  /// `l3` is the frame after its Ethernet header.
  static std::optional<Ipv4FlowView> parse(std::span<const std::uint8_t> l3) {
    if (l3.size() < Ipv4View::kMinSize || (l3[0] >> 4) != 4) return std::nullopt;
    const std::size_t ihl_bytes = static_cast<std::size_t>(l3[0] & 0x0f) * 4;
    if (ihl_bytes < Ipv4View::kMinSize || ihl_bytes > l3.size()) return std::nullopt;
    Ipv4FlowView ip;
    ip.dscp = l3[1] >> 2;
    ip.protocol = l3[9];
    ip.src = Ipv4Addr(load_be32(&l3[12]));
    ip.dst = Ipv4Addr(load_be32(&l3[16]));
    const std::uint8_t* l4 = l3.data() + ihl_bytes;
    const std::size_t l4_len = l3.size() - ihl_bytes;
    switch (ip.protocol) {
      case ipproto::kUdp:
        if (l4_len >= UdpView::kSize) {
          ip.tp_src = load_be16(l4);
          ip.tp_dst = load_be16(l4 + 2);
        }
        break;
      case ipproto::kTcp:
        if (l4_len >= TcpView::kMinSize) {
          const std::size_t offset_bytes = static_cast<std::size_t>(l4[12] >> 4) * 4;
          if (offset_bytes >= TcpView::kMinSize && offset_bytes <= l4_len) {
            ip.tp_src = load_be16(l4);
            ip.tp_dst = load_be16(l4 + 2);
            ip.tcp_flags = l4[13];
          }
        }
        break;
      case ipproto::kIcmp:
        if (l4_len >= IcmpView::kMinSize) {
          ip.tp_src = l4[0];
          ip.tp_dst = l4[1];
          ip.icmp_identifier = load_be16(l4 + 4);
        }
        break;
      default:
        break;
    }
    return ip;
  }
};

}  // namespace escape::net
