#include "sg/resource_model.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace escape::sg {

ResourceGraph& ResourceGraph::add_node(ResourceNode node) {
  auto slot = name_slot(node.name);
  if (slot != by_rank_.end() && nodes_[*slot].name == node.name) {
    throw std::invalid_argument("duplicate resource node: " + node.name);
  }
  by_rank_.insert(slot, nodes_.size());
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  // Name ranks order the search's ties; a new name shifts the ones after it.
  rank_.resize(nodes_.size());
  for (std::size_t r = 0; r < by_rank_.size(); ++r) rank_[by_rank_[r]] = r;
  return *this;
}

ResourceGraph& ResourceGraph::add_sap(const std::string& name) {
  return add_node(ResourceNode{name, ResourceKind::kSap, 0, 0, 0, 0});
}

ResourceGraph& ResourceGraph::add_switch(const std::string& name) {
  return add_node(ResourceNode{name, ResourceKind::kSwitch, 0, 0, 0, 0});
}

ResourceGraph& ResourceGraph::add_container(const std::string& name, double cpu_capacity,
                                            std::size_t vnf_slots) {
  return add_node(ResourceNode{name, ResourceKind::kContainer, cpu_capacity, 0, vnf_slots, 0});
}

ResourceGraph& ResourceGraph::add_link(const std::string& a, std::uint16_t port_a,
                                       const std::string& b, std::uint16_t port_b,
                                       std::uint64_t bandwidth_bps, SimDuration delay) {
  const std::size_t ia = find(a);
  const std::size_t ib = find(b);
  if (ia == kNoNode) throw std::invalid_argument("unknown resource node: " + a);
  if (ib == kNoNode) throw std::invalid_argument("unknown resource node: " + b);
  const int idx = static_cast<int>(links_.size());
  links_.push_back(ResourceLink{a, b, port_a, port_b, bandwidth_bps, 0, delay});
  adjacency_[ia].emplace_back(idx, ib);
  adjacency_[ib].emplace_back(idx, ia);
  return *this;
}

std::vector<std::size_t>::const_iterator ResourceGraph::name_slot(const std::string& name) const {
  return std::lower_bound(by_rank_.begin(), by_rank_.end(), name,
                          [this](std::size_t i, const std::string& n) { return nodes_[i].name < n; });
}

std::size_t ResourceGraph::find(const std::string& name) const {
  auto slot = name_slot(name);
  return slot != by_rank_.end() && nodes_[*slot].name == name ? *slot : kNoNode;
}

ResourceNode* ResourceGraph::node(const std::string& name) {
  const std::size_t i = find(name);
  return i == kNoNode ? nullptr : &nodes_[i];
}

const ResourceNode* ResourceGraph::node(const std::string& name) const {
  const std::size_t i = find(name);
  return i == kNoNode ? nullptr : &nodes_[i];
}

std::vector<std::string> ResourceGraph::containers() const {
  std::vector<std::string> out;
  for (const auto& n : nodes_) {
    if (n.kind == ResourceKind::kContainer) out.push_back(n.name);
  }
  return out;
}

ResourceGraph::PathTree ResourceGraph::shortest_path_tree(const std::string& from,
                                                          std::uint64_t min_bw) const {
  const std::size_t root = find(from);
  return root == kNoNode ? PathTree{} : grow(root, min_bw, kNoNode);
}

std::optional<RoutedPath> ResourceGraph::shortest_path(const std::string& from,
                                                       const std::string& to,
                                                       std::uint64_t min_bw) const {
  const std::size_t root = find(from);
  const std::size_t stop = find(to);
  if (root == kNoNode || stop == kNoNode) return std::nullopt;
  return path_in(grow(root, min_bw, stop), to);
}

ResourceGraph::PathTree ResourceGraph::grow(std::size_t root, std::uint64_t min_bw,
                                            std::size_t stop) const {
  PathTree tree;
  tree.root = root;
  tree.dist.assign(nodes_.size(), PathTree::kUnreached);
  tree.via.assign(nodes_.size(), {root, -1});
  tree.dist[root] = 0;

  // Keyed (delay, name rank): the order of a queue keyed (delay, name).
  using QEntry = std::pair<SimDuration, std::size_t>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> queue;
  queue.push({0, rank_[root]});

  while (!queue.empty()) {
    const auto [d, rank] = queue.top();
    queue.pop();
    const std::size_t u = by_rank_[rank];
    if (d > tree.dist[u]) continue;
    if (u == stop) break;
    // Only switches forward transit traffic; SAPs and containers are
    // valid endpoints but never intermediate hops.
    if (u != root && nodes_[u].kind != ResourceKind::kSwitch) continue;
    for (const auto& [link_idx, v] : adjacency_[u]) {
      const ResourceLink& l = links_[static_cast<std::size_t>(link_idx)];
      if (!l.available) continue;
      if (l.bandwidth_free() < min_bw) continue;
      const SimDuration nd = d + l.delay;
      if (nd < tree.dist[v]) {
        tree.dist[v] = nd;
        tree.via[v] = {u, link_idx};
        queue.push({nd, rank_[v]});
      }
    }
  }
  return tree;
}

// A settled node's predecessor never changes (delays are non-negative),
// so reading a full tree gives the path a search stopped at `to` gives.
std::optional<RoutedPath> ResourceGraph::path_in(const PathTree& tree,
                                                 const std::string& to) const {
  const std::size_t end = find(to);
  if (end == kNoNode || tree.dist.empty() || tree.dist[end] == PathTree::kUnreached) {
    return std::nullopt;
  }
  RoutedPath path;
  path.total_delay = tree.dist[end];
  for (std::size_t cur = end; cur != tree.root; cur = tree.via[cur].first) {
    path.nodes.push_back(nodes_[cur].name);
    path.link_indices.push_back(tree.via[cur].second);
  }
  path.nodes.push_back(nodes_[tree.root].name);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.link_indices.begin(), path.link_indices.end());
  return path;
}

void ResourceGraph::reserve_path(const RoutedPath& path, std::uint64_t bw) {
  for (int idx : path.link_indices) {
    links_[static_cast<std::size_t>(idx)].bandwidth_used += bw;
  }
}

void ResourceGraph::release_path(const RoutedPath& path, std::uint64_t bw) {
  for (int idx : path.link_indices) {
    auto& l = links_[static_cast<std::size_t>(idx)];
    l.bandwidth_used = l.bandwidth_used >= bw ? l.bandwidth_used - bw : 0;
  }
}

Status ResourceGraph::reserve_vnf(const std::string& container, double cpu) {
  ResourceNode* n = node(container);
  if (!n || n->kind != ResourceKind::kContainer) {
    return make_error("resource.not-a-container", container + " is not a container");
  }
  if (n->cpu_free() + 1e-9 < cpu) {
    return make_error("resource.cpu-exhausted", container + ": insufficient CPU");
  }
  if (n->slots_free() == 0) {
    return make_error("resource.slots-exhausted", container + ": no free VNF slots");
  }
  n->cpu_used += cpu;
  n->vnf_slots_used += 1;
  return ok_status();
}

void ResourceGraph::release_vnf(const std::string& container, double cpu) {
  ResourceNode* n = node(container);
  if (!n) return;
  n->cpu_used = std::max(0.0, n->cpu_used - cpu);
  if (n->vnf_slots_used > 0) n->vnf_slots_used -= 1;
}

void ResourceGraph::set_node_available(const std::string& name, bool available) {
  if (ResourceNode* n = node(name)) n->available = available;
}

void ResourceGraph::set_link_available(const std::string& a, const std::string& b,
                                       bool available) {
  for (auto& l : links_) {
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) l.available = available;
  }
}

std::uint16_t ResourceGraph::port_on(int link_index, const std::string& node_name) const {
  const ResourceLink& l = links_[static_cast<std::size_t>(link_index)];
  return l.a == node_name ? l.port_a : l.port_b;
}

const std::string& ResourceGraph::peer_of(int link_index, const std::string& node_name) const {
  const ResourceLink& l = links_[static_cast<std::size_t>(link_index)];
  return l.a == node_name ? l.b : l.a;
}

}  // namespace escape::sg
