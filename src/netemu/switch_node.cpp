#include "netemu/switch_node.hpp"

#include "util/strings.hpp"

namespace escape::netemu {

SwitchNode::SwitchNode(std::string name, EventScheduler& scheduler, openflow::DatapathId dpid)
    : Node(std::move(name), scheduler), datapath_(dpid, scheduler) {}

void SwitchNode::ensure_port(std::uint16_t port) {
  if (datapath_.has_port(port)) return;
  const net::MacAddr hw = net::MacAddr::from_u64((dpid() << 8) | port);
  datapath_.add_port(port, strings::format("%s-eth%u", name().c_str(), port), hw,
                     [this, port](net::Packet&& packet) { send_out(port, std::move(packet)); });
}

void SwitchNode::deliver(std::uint16_t port, net::Packet&& packet) {
  datapath_.receive(port, std::move(packet));
}

}  // namespace escape::netemu
