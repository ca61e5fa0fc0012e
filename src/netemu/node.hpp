// Node and port primitives of the emulated infrastructure layer (the
// Mininet stand-in). Every node -- host, OpenFlow switch, VNF container
// -- owns numbered ports; links attach to ports and move packets between
// nodes under bandwidth/delay/queue constraints.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "util/event.hpp"
#include "util/result.hpp"

namespace escape::netemu {

class Link;

enum class NodeKind { kHost, kSwitch, kVnfContainer };

std::string_view node_kind_name(NodeKind kind);

class Node {
 public:
  Node(std::string name, EventScheduler& scheduler)
      : name_(std::move(name)), scheduler_(&scheduler) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }
  virtual NodeKind kind() const = 0;

  EventScheduler& scheduler() { return *scheduler_; }

  /// Re-points this node at another shard's event queue
  /// (Network::partition). Only valid while the node has nothing
  /// scheduled -- partitioning runs before the controller attaches and
  /// before traffic starts.
  void rebind_scheduler(EventScheduler& scheduler) {
    scheduler_ = &scheduler;
    on_rebind();
  }

  /// A frame arrives on `port` (called by the attached Link).
  virtual void deliver(std::uint16_t port, net::Packet&& packet) = 0;

  /// Attaches a link endpoint to `port`; at most one link per port.
  Status attach_link(std::uint16_t port, Link* link, int endpoint);
  void detach_link(std::uint16_t port);
  bool port_attached(std::uint16_t port) const { return ports_.count(port) > 0; }
  std::vector<std::uint16_t> attached_ports() const;

 protected:
  /// Hook for subclasses owning scheduler-bound helpers (the switch's
  /// embedded datapath) to follow a rebind.
  virtual void on_rebind() {}

  /// Sends a frame out of `port` into the attached link (dropped if no
  /// link is attached).
  void send_out(std::uint16_t port, net::Packet&& packet);

 private:
  struct Attachment {
    Link* link = nullptr;
    int endpoint = 0;  // 0 or 1: which side of the link we are
  };

  std::string name_;
  EventScheduler* scheduler_;
  std::map<std::uint16_t, Attachment> ports_;
};

}  // namespace escape::netemu
