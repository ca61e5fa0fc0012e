// ResourceGraph::shortest_path as it was before the resource view moved
// to dense indices, kept verbatim as the oracle of the same-paths test
// (orchestrator_test): on every (from, to, min_bw) query both searches
// must return the identical RoutedPath. It works over the public API:
// the string-keyed adjacency it walks is rebuilt from links() in link
// order, the order in which add_link appended to it, and link and node
// state is read live, so the view may be perturbed between queries as
// long as no node or link is added. Not linked into the library.
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sg/resource_model.hpp"

namespace escape::testsupport {

class ReferenceShortestPath {
 public:
  explicit ReferenceShortestPath(const sg::ResourceGraph& view)
      : view_(view), nodes_(view.nodes()), links_(view.links()) {
    for (std::size_t i = 0; i < links_.size(); ++i) {
      adjacency_[links_[i].a].emplace_back(static_cast<int>(i), links_[i].b);
      adjacency_[links_[i].b].emplace_back(static_cast<int>(i), links_[i].a);
    }
  }

  std::optional<sg::RoutedPath> shortest_path(const std::string& from, const std::string& to,
                                              std::uint64_t min_bw = 0) const {
    using sg::ResourceKind;
    using sg::ResourceLink;
    using sg::RoutedPath;
    if (!node(from) || !node(to)) return std::nullopt;
    constexpr SimDuration kInf = std::numeric_limits<SimDuration>::max();

    std::map<std::string, SimDuration> dist;
    std::map<std::string, std::pair<std::string, int>> prev;  // node -> (pred, link)
    for (const auto& n : nodes_) dist[n.name] = kInf;
    dist[from] = 0;

    using QEntry = std::pair<SimDuration, std::string>;
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> queue;
    queue.push({0, from});

    while (!queue.empty()) {
      auto [d, u] = queue.top();
      queue.pop();
      if (d > dist[u]) continue;
      if (u == to) break;
      // Only switches forward transit traffic; SAPs and containers are
      // valid endpoints but never intermediate hops.
      if (u != from && node(u)->kind != ResourceKind::kSwitch) continue;
      for (const auto& [link_idx, v] : neighbors(u)) {
        const ResourceLink& l = links_[static_cast<std::size_t>(link_idx)];
        if (!l.available) continue;
        if (l.bandwidth_free() < min_bw) continue;
        const SimDuration nd = d + l.delay;
        if (nd < dist[v]) {
          dist[v] = nd;
          prev[v] = {u, link_idx};
          queue.push({nd, v});
        }
      }
    }
    if (dist[to] == kInf) return std::nullopt;

    RoutedPath path;
    path.total_delay = dist[to];
    std::string cur = to;
    while (cur != from) {
      auto [pred, link_idx] = prev[cur];
      path.nodes.push_back(cur);
      path.link_indices.push_back(link_idx);
      cur = pred;
    }
    path.nodes.push_back(from);
    std::reverse(path.nodes.begin(), path.nodes.end());
    std::reverse(path.link_indices.begin(), path.link_indices.end());
    return path;
  }

 private:
  const sg::ResourceNode* node(const std::string& name) const { return view_.node(name); }

  std::vector<std::pair<int, std::string>> neighbors(const std::string& name) const {
    auto it = adjacency_.find(name);
    return it == adjacency_.end() ? std::vector<std::pair<int, std::string>>{} : it->second;
  }

  const sg::ResourceGraph& view_;
  const std::vector<sg::ResourceNode>& nodes_;
  const std::vector<sg::ResourceLink>& links_;
  std::map<std::string, std::vector<std::pair<int, std::string>>> adjacency_;
};

}  // namespace escape::testsupport
