// The orchestrator's global network and resource view: an annotated
// graph of SAPs, switches and VNF containers with CPU, bandwidth and
// delay budgets. Built either from an emulated Network (deployment) or
// synthetically (mapping benches).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/result.hpp"
#include "util/time.hpp"

namespace escape::sg {

enum class ResourceKind { kSap, kSwitch, kContainer };

struct ResourceNode {
  std::string name;
  ResourceKind kind = ResourceKind::kSwitch;
  // Container resources (ignored for other kinds).
  double cpu_capacity = 0;
  double cpu_used = 0;
  std::size_t vnf_slots = 0;
  std::size_t vnf_slots_used = 0;
  // Administrative availability: a crashed container (or a node behind a
  // dead agent) is excluded from placement without touching its resource
  // accounting, so releases after recovery stay balanced.
  bool available = true;

  double cpu_free() const { return cpu_capacity - cpu_used; }
  std::size_t slots_free() const { return vnf_slots - vnf_slots_used; }
};

struct ResourceLink {
  std::string a;
  std::string b;
  std::uint16_t port_a = 0;
  std::uint16_t port_b = 0;
  std::uint64_t bandwidth_bps = 0;
  std::uint64_t bandwidth_used = 0;
  SimDuration delay = 0;
  bool available = true;  // a downed link is skipped by shortest_path

  std::uint64_t bandwidth_free() const { return bandwidth_bps - bandwidth_used; }
};

/// A hop along a routed substrate path, directional.
struct PathHop {
  std::string node;        // node entered
  std::uint16_t in_port;   // port on `node` the path enters through
  int link_index;          // into ResourceGraph::links()
};

struct RoutedPath {
  std::vector<std::string> nodes;  // first = source, last = destination
  std::vector<int> link_indices;   // links traversed, in order
  SimDuration total_delay = 0;
};

class ResourceGraph {
 public:
  ResourceGraph& add_node(ResourceNode node);
  ResourceGraph& add_sap(const std::string& name);
  ResourceGraph& add_switch(const std::string& name);
  ResourceGraph& add_container(const std::string& name, double cpu_capacity,
                               std::size_t vnf_slots);
  /// Links are bidirectional with a shared bandwidth budget.
  ResourceGraph& add_link(const std::string& a, std::uint16_t port_a, const std::string& b,
                          std::uint16_t port_b, std::uint64_t bandwidth_bps, SimDuration delay);

  ResourceNode* node(const std::string& name);
  const ResourceNode* node(const std::string& name) const;
  const std::vector<ResourceNode>& nodes() const { return nodes_; }
  const std::vector<ResourceLink>& links() const { return links_; }
  ResourceLink& link(int index) { return links_[static_cast<std::size_t>(index)]; }

  std::vector<std::string> containers() const;

  /// Shortest paths by delay from one root over the links with at least
  /// `min_bw` free bandwidth: each node's distance and the (predecessor,
  /// link) it is reached through, by node index. Unreached nodes read
  /// kUnreached; a tree from an unknown root reaches nothing.
  struct PathTree {
    static constexpr SimDuration kUnreached = std::numeric_limits<SimDuration>::max();
    std::size_t root = 0;
    std::vector<SimDuration> dist;
    std::vector<std::pair<std::size_t, int>> via;
  };

  /// Dijkstra by delay from `from`. Only switches forward transit
  /// traffic: SAPs and containers are endpoints, `from` excepted. Equal
  /// delays break by node name, so the tree is the same whatever order
  /// the nodes were added in.
  PathTree shortest_path_tree(const std::string& from, std::uint64_t min_bw = 0) const;

  /// The path to `to` in `tree`; nullopt when `tree` does not reach it.
  std::optional<RoutedPath> path_in(const PathTree& tree, const std::string& to) const;

  /// The search of shortest_path_tree, stopped once `to` is settled.
  /// Returns nullopt when unreachable.
  std::optional<RoutedPath> shortest_path(const std::string& from, const std::string& to,
                                          std::uint64_t min_bw = 0) const;

  /// Commits/releases bandwidth along a routed path.
  void reserve_path(const RoutedPath& path, std::uint64_t bw);
  void release_path(const RoutedPath& path, std::uint64_t bw);

  /// Commits/releases container resources.
  Status reserve_vnf(const std::string& container, double cpu);
  void release_vnf(const std::string& container, double cpu);

  /// The port of `node_name` that faces link `link_index`.
  std::uint16_t port_on(int link_index, const std::string& node_name) const;

  /// The node on the other end of `link_index` from `node_name`.
  const std::string& peer_of(int link_index, const std::string& node_name) const;

  /// Marks a node (un)available for placement/routing. Unknown names are
  /// ignored (the view may predate a dynamically added node).
  void set_node_available(const std::string& name, bool available);

  /// Marks every link between `a` and `b` (un)available for routing.
  void set_link_available(const std::string& a, const std::string& b, bool available);

 private:
  static constexpr std::size_t kNoNode = std::numeric_limits<std::size_t>::max();

  /// Where `name` is or would go in `by_rank_`.
  std::vector<std::size_t>::const_iterator name_slot(const std::string& name) const;
  /// The index of the node named `name`, or kNoNode.
  std::size_t find(const std::string& name) const;
  /// The tree from node `root`, grown until node `stop` is settled or
  /// no node is left.
  PathTree grow(std::size_t root, std::uint64_t min_bw, std::size_t stop) const;

  std::vector<ResourceNode> nodes_;
  std::vector<ResourceLink> links_;
  std::vector<std::size_t> by_rank_;  // node indices in name order
  std::vector<std::size_t> rank_;     // node index -> position in by_rank_
  std::vector<std::vector<std::pair<int, std::size_t>>> adjacency_;  // (link, peer), link order
};

}  // namespace escape::sg
