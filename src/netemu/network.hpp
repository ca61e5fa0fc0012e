// The emulated network: owns nodes and links, provides Mininet-style
// topology construction ("define VNF containers and the rest of the
// topology" -- demo step 1).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "netemu/host.hpp"
#include "netemu/link.hpp"
#include "netemu/switch_node.hpp"
#include "netemu/vnf_container.hpp"
#include "pox/core.hpp"

namespace escape::netemu {

/// How Network::partition groups nodes into shards.
enum class ShardBy {
  kNone,    // everything on shard 0 (sequential; the default)
  kSwitch,  // one shard per switch cluster; hosts/containers join the
            // nearest switch (hop-count BFS, ties to the smaller shard id)
  kRegion,  // one shard per region = node-name prefix before the first '_'
            // ("edge_s1" and "edge_h1" share the "edge" shard)
};

class Network {
 public:
  explicit Network(EventScheduler& scheduler) : scheduler_(&scheduler) {}

  EventScheduler& scheduler() { return *scheduler_; }

  /// Adds a host with explicit addresses.
  Host& add_host(const std::string& name, net::MacAddr mac, net::Ipv4Addr ip);

  /// Adds a host with auto-assigned addresses (10.0.0.N, MAC ...:N).
  Host& add_host(const std::string& name);

  /// Adds an OpenFlow switch; dpid defaults to a running counter.
  SwitchNode& add_switch(const std::string& name, openflow::DatapathId dpid = 0);

  /// Adds a VNF container (execution environment).
  VnfContainer& add_container(const std::string& name, double cpu_capacity = 1.0,
                              std::size_t max_vnfs = 16);

  /// Wires a[port_a] <-> b[port_b]. Switch datapath ports are declared
  /// automatically. A switch port at or above OFPP_MAX (0xff00) is
  /// rejected: those numbers are OpenFlow's reserved ports.
  Status add_link(const std::string& a, std::uint16_t port_a, const std::string& b,
                  std::uint16_t port_b, LinkConfig config = {});

  /// The port a new link on `node` takes: one above the highest port
  /// any link uses there, 0 if none does. add_link keeps the record per
  /// node, synchronously even when the attach itself is deferred to the
  /// node's shard, so the orchestrator allocates without reading remote
  /// node state. Fails with netemu.ports-exhausted instead of handing
  /// out a port at or above OFPP_MAX.
  Result<std::uint16_t> next_free_port(const Node* node) const;

  Node* node(const std::string& name);
  Host* host(const std::string& name);
  SwitchNode* switch_node(const std::string& name);
  VnfContainer* container(const std::string& name);

  std::vector<std::string> node_names() const;
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

  /// First link between the named nodes, either orientation (nullptr if
  /// none). With parallel links, returns the earliest-added one.
  Link* find_link(const std::string& a, const std::string& b);

  /// Administratively raises/lowers the first link between `a` and `b`
  /// (the fault plane's link-down / link-up).
  Status set_link_state(const std::string& a, const std::string& b, bool up);

  /// Attaches every switch to the controller (OF handshake begins; run
  /// the scheduler to complete it).
  void attach_controller(pox::Controller& controller);

  /// Splits the topology into shards and rebinds every node and link.
  /// Clusters joined by a zero-delay link are merged (zero lookahead
  /// would force sequential execution anyway), and the cluster count is
  /// capped at 64 (round-robin fold). Grows `sched` to the resulting
  /// width with `threads` workers and returns the shard count. Must run
  /// before the controller is attached and before any event is queued
  /// on a node that moves off shard 0; kNone leaves everything in place.
  std::size_t partition(ShardedScheduler& sched, ShardBy mode, std::size_t threads = 0);

  std::size_t switch_count() const;
  std::size_t host_count() const;
  std::size_t container_count() const;

 private:
  template <typename T>
  T* typed_node(const std::string& name);

  EventScheduler* scheduler_;
  std::map<std::string, std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unordered_map<const Node*, std::uint32_t> next_port_;  // next_free_port()
  std::uint64_t next_auto_addr_ = 1;
  openflow::DatapathId next_dpid_ = 1;
};

}  // namespace escape::netemu
