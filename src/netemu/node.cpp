#include "netemu/node.hpp"

#include <vector>

#include "netemu/link.hpp"

namespace escape::netemu {

std::string_view node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kHost: return "host";
    case NodeKind::kSwitch: return "switch";
    case NodeKind::kVnfContainer: return "container";
  }
  return "?";
}

Status Node::attach_link(std::uint16_t port, Link* link, int endpoint) {
  if (ports_.count(port)) {
    return make_error("netemu.port-in-use",
                      name_ + ": port " + std::to_string(port) + " already has a link");
  }
  ports_[port] = Attachment{link, endpoint};
  return ok_status();
}

void Node::detach_link(std::uint16_t port) { ports_.erase(port); }

std::vector<std::uint16_t> Node::attached_ports() const {
  std::vector<std::uint16_t> out;
  out.reserve(ports_.size());
  for (const auto& [no, _] : ports_) out.push_back(no);
  return out;
}

void Node::send_out(std::uint16_t port, net::Packet&& packet) {
  auto it = ports_.find(port);
  if (it == ports_.end()) return;  // unwired port: drop
  it->second.link->transmit(it->second.endpoint, std::move(packet));
}

}  // namespace escape::netemu
