// An OpenFlow switch embedded in the emulated network (the Open vSwitch
// node of Mininet): wraps openflow::OpenFlowSwitch, wiring node ports to
// datapath ports.
#pragma once

#include <memory>

#include "netemu/node.hpp"
#include "openflow/switch.hpp"

namespace escape::netemu {

class SwitchNode : public Node {
 public:
  SwitchNode(std::string name, EventScheduler& scheduler, openflow::DatapathId dpid);

  NodeKind kind() const override { return NodeKind::kSwitch; }
  openflow::OpenFlowSwitch& datapath() { return datapath_; }
  openflow::DatapathId dpid() const { return datapath_.datapath_id(); }

  void deliver(std::uint16_t port, net::Packet&& packet) override;

  /// Declares a datapath port backed by node port `port`. Must be called
  /// for every port before traffic flows (Network::add_link does this).
  void ensure_port(std::uint16_t port);

 protected:
  void on_rebind() override { datapath_.rebind_scheduler(scheduler()); }

 private:
  openflow::OpenFlowSwitch datapath_;
};

}  // namespace escape::netemu
