// Flow key extraction: the canonical parsed-header tuple used by the
// OpenFlow match engine, Click classifiers and monitoring.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/addr.hpp"
#include "net/packet.hpp"

namespace escape::net {

/// OpenFlow-1.0-style 10-tuple (after the in_port): parsed once per
/// packet, matched many times.
struct FlowKey {
  std::uint16_t in_port = 0;
  MacAddr dl_src;
  MacAddr dl_dst;
  std::uint16_t dl_type = 0;
  std::uint8_t nw_proto = 0;   // valid when dl_type == IPv4 (or ARP opcode)
  Ipv4Addr nw_src;
  Ipv4Addr nw_dst;
  std::uint8_t nw_tos = 0;     // DSCP
  std::uint16_t tp_src = 0;    // valid for TCP/UDP (ICMP: type)
  std::uint16_t tp_dst = 0;    // valid for TCP/UDP (ICMP: code)

  bool operator==(const FlowKey&) const = default;

  std::string to_string() const;
};

/// Extracts a FlowKey from an Ethernet frame. `in_port` is supplied by
/// the switch. Returns nullopt only for frames too short to carry an
/// Ethernet header; a later header that fails its checks leaves its
/// fields zero.
std::optional<FlowKey> extract_flow_key(const Packet& packet, std::uint16_t in_port);

/// The same single pass, also reporting the TCP flags: `tcp_flags` is 0
/// unless the frame carries a valid IPv4/TCP header.
std::optional<FlowKey> extract_flow_key(const Packet& packet, std::uint16_t in_port,
                                        std::uint8_t& tcp_flags);

}  // namespace escape::net

template <>
struct std::hash<escape::net::FlowKey> {
  std::size_t operator()(const escape::net::FlowKey& k) const noexcept {
    // FNV-1a over the fields; cheap and adequate for table sizing.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(k.in_port);
    mix(k.dl_src.to_u64());
    mix(k.dl_dst.to_u64());
    mix(k.dl_type);
    mix(k.nw_proto);
    mix(k.nw_src.value());
    mix(k.nw_dst.value());
    mix(k.nw_tos);
    mix((std::uint64_t{k.tp_src} << 16) | k.tp_dst);
    return static_cast<std::size_t>(h);
  }
};
