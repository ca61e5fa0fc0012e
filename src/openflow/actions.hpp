// OpenFlow 1.0 action list: output and header-rewrite actions applied by
// the switch datapath after a flow-table hit.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "net/addr.hpp"
#include "net/packet.hpp"

namespace escape::openflow {

/// Reserved output "ports" (OF 1.0 ofp_port special values).
enum SpecialPort : std::uint16_t {
  kPortMax = 0xff00,        // OFPP_MAX: physical ports lie below this
  kPortInPort = 0xfff8,     // send back out the ingress port
  kPortFlood = 0xfffb,      // all ports except ingress
  kPortAll = 0xfffc,        // all ports including ingress
  kPortController = 0xfffd, // encapsulate as packet-in
  kPortNone = 0xffff,
};

struct ActionOutput {
  std::uint16_t port = kPortNone;
  std::uint16_t max_len = 0xffff;  // bytes of a packet-in sent to controller
  bool operator==(const ActionOutput&) const = default;
};
struct ActionSetDlSrc {
  net::MacAddr mac;
  bool operator==(const ActionSetDlSrc&) const = default;
};
struct ActionSetDlDst {
  net::MacAddr mac;
  bool operator==(const ActionSetDlDst&) const = default;
};
struct ActionSetNwSrc {
  net::Ipv4Addr addr;
  bool operator==(const ActionSetNwSrc&) const = default;
};
struct ActionSetNwDst {
  net::Ipv4Addr addr;
  bool operator==(const ActionSetNwDst&) const = default;
};
struct ActionSetNwTos {
  std::uint8_t dscp = 0;
  bool operator==(const ActionSetNwTos&) const = default;
};
struct ActionSetTpSrc {
  std::uint16_t port = 0;
  bool operator==(const ActionSetTpSrc&) const = default;
};
struct ActionSetTpDst {
  std::uint16_t port = 0;
  bool operator==(const ActionSetTpDst&) const = default;
};

using Action = std::variant<ActionOutput, ActionSetDlSrc, ActionSetDlDst, ActionSetNwSrc,
                            ActionSetNwDst, ActionSetNwTos, ActionSetTpSrc, ActionSetTpDst>;

using ActionList = std::vector<Action>;

/// Applies a header-rewrite action in place; output actions are handled
/// by the switch and ignored here.
void apply_rewrite(const Action& action, net::Packet& packet);

std::string action_to_string(const Action& action);
std::string actions_to_string(const ActionList& actions);

/// Convenience factory for the common single-output action list.
ActionList output_to(std::uint16_t port);

}  // namespace escape::openflow
