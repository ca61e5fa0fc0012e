// A pcap-like packet filter expression language, compiled once and
// evaluated per packet. Backs the IPClassifier and IPFilter elements and
// the Firewall VNF rules in the catalog.
//
// Grammar (case-insensitive keywords):
//   expr  := or
//   or    := and (("or" | "||") and)*
//   and   := unary (("and" | "&&") unary)*
//   unary := ("not" | "!") unary | "(" or ")" | prim
//   prim  := "ip" | "arp" | "tcp" | "udp" | "icmp" | "true" | "false"
//          | ["src"|"dst"] "host" IPV4
//          | ["src"|"dst"] "net" IPV4 "/" LEN
//          | ["src"|"dst"] "port" NUM
//          | ("dscp" | "tos") NUM
//          | "syn" | "ack" | "fin" | "rst"        (TCP flag tests)
// Direction-less host/net/port match either direction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "net/packet.hpp"
#include "util/result.hpp"

namespace escape::click {

/// Per-packet classification context: the extracted flow key plus TCP
/// flags (0 when not TCP).
struct ClassifyCtx {
  net::FlowKey key;
  std::uint8_t tcp_flags = 0;

  /// Extracts the context from a raw Ethernet frame.
  static ClassifyCtx from_packet(const net::Packet& p);
};

class FilterExpr {
 public:
  /// Compiles an expression; errors carry the offending position.
  static Result<FilterExpr> compile(std::string_view text);

  bool matches(const ClassifyCtx& ctx) const;
  bool matches(const net::Packet& p) const { return matches(ClassifyCtx::from_packet(p)); }

  const std::string& source() const { return source_; }

 private:
  enum class Op : std::uint8_t {
    kTrue, kFalse,
    kAnd, kOr, kNot,
    kIsIp, kIsArp, kIsTcp, kIsUdp, kIsIcmp,
    kSrcHost, kDstHost, kAnyHost,
    kSrcNet, kDstNet, kAnyNet,
    kSrcPort, kDstPort, kAnyPort,
    kDscp,
    kTcpSyn, kTcpAck, kTcpFin, kTcpRst,
  };

  struct Node {
    Op op;
    // Operands: children for kAnd/kOr/kNot; address/prefix or port/dscp
    // value for the leaf tests.
    int lhs = -1;
    int rhs = -1;
    std::uint32_t value = 0;
    int prefix_len = 32;
  };

  bool eval(int node, const ClassifyCtx& ctx) const;

  friend class FilterParser;
  friend class ClassifierTree;  // partial-evaluates nodes_ per protocol leaf
  std::vector<Node> nodes_;
  int root_ = -1;
  std::string source_;
};

}  // namespace escape::click
