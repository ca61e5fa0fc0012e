#include "orchestrator/mapping.hpp"

#include <algorithm>
#include <limits>

#include "util/strings.hpp"

namespace escape::orchestrator {

std::string MappingResult::to_string() const {
  std::string out = algorithm + ": ";
  for (const auto& [vnf, container] : placements) {
    out += vnf + "@" + container + " ";
  }
  out += strings::format("(path delay %.3f ms)",
                         static_cast<double>(total_path_delay) / timeunit::kMillisecond);
  return out;
}

namespace {

/// Pre-flight data shared by all algorithms: chain order, per-segment
/// bandwidth requirements and the end-to-end delay budget.
struct ChainSpec {
  std::vector<std::string> order;                 // sap, vnf..., sap
  std::vector<std::uint64_t> segment_bw;          // order.size()-1 entries
  SimDuration delay_budget = 0;                   // 0 = unconstrained
};

Result<ChainSpec> analyze(const sg::ServiceGraph& graph, const sg::ResourceGraph& view) {
  auto order = graph.chain_order();
  if (!order.ok()) return order.error();

  ChainSpec spec;
  spec.order = std::move(*order);

  for (std::size_t i = 0; i + 1 < spec.order.size(); ++i) {
    std::uint64_t bw = 0;
    for (const auto& l : graph.links()) {
      if (l.src == spec.order[i] && l.dst == spec.order[i + 1]) bw = l.bandwidth_bps;
    }
    spec.segment_bw.push_back(bw);
  }

  const std::string& entry = spec.order.front();
  const std::string& exit = spec.order.back();
  for (const auto& r : graph.requirements()) {
    if ((r.sap_a == entry && r.sap_b == exit) || (r.sap_a == exit && r.sap_b == entry)) {
      spec.delay_budget = r.max_delay;
    }
  }

  // The SAPs must exist in the substrate under the same names.
  for (const std::string* sap : {&entry, &exit}) {
    const sg::ResourceNode* n = view.node(*sap);
    if (!n || n->kind != sg::ResourceKind::kSap) {
      return make_error("mapping.unknown-sap",
                        "SAP '" + *sap + "' not present in the resource view");
    }
  }
  return spec;
}

struct Candidate {
  std::string container;
  sg::RoutedPath path;       // prev substrate node -> container
  double cpu_utilization;    // after placement
};

/// Enumerates feasible containers, in view order, for placing `vnf`
/// reachable from `prev` with `bw` free bandwidth. One search from
/// `prev` serves every container.
std::vector<Candidate> feasible_containers(const sg::ResourceGraph& view,
                                           const std::string& prev, const sg::VnfNode& vnf,
                                           std::uint64_t bw) {
  std::vector<Candidate> out;
  const sg::ResourceGraph::PathTree tree = view.shortest_path_tree(prev, bw);
  for (const sg::ResourceNode& node : view.nodes()) {
    if (node.kind != sg::ResourceKind::kContainer) continue;
    if (!node.available) continue;  // crashed / quarantined container
    if (node.cpu_free() + 1e-9 < vnf.cpu_demand || node.slots_free() == 0) continue;
    auto path = view.path_in(tree, node.name);
    if (!path) continue;
    Candidate c;
    c.container = node.name;
    c.path = std::move(*path);
    c.cpu_utilization =
        node.cpu_capacity > 0 ? (node.cpu_used + vnf.cpu_demand) / node.cpu_capacity : 1.0;
    out.push_back(std::move(c));
  }
  return out;
}

/// Reservations made on the live view, each saving the loads it
/// overwrites. Unless committed, they are written back in reverse order
/// on destruction: restored, never subtracted, because `cpu_used` is a
/// double and x + y - y need not be x.
class UndoLog {
 public:
  explicit UndoLog(sg::ResourceGraph& view) : view_(view) {}
  UndoLog(const UndoLog&) = delete;
  UndoLog& operator=(const UndoLog&) = delete;
  ~UndoLog() {
    if (committed_) return;
    for (auto it = links_.rbegin(); it != links_.rend(); ++it) {
      view_.link(it->first).bandwidth_used = it->second;
    }
    for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
      it->node->cpu_used = it->cpu_used;
      it->node->vnf_slots_used = it->slots_used;
    }
  }

  Status reserve_vnf(const std::string& container, double cpu) {
    if (sg::ResourceNode* n = view_.node(container)) {
      nodes_.push_back({n, n->cpu_used, n->vnf_slots_used});
    }
    return view_.reserve_vnf(container, cpu);
  }
  void reserve_path(const sg::RoutedPath& path, std::uint64_t bw) {
    for (int idx : path.link_indices) {
      links_.emplace_back(idx, view_.link(idx).bandwidth_used);
    }
    view_.reserve_path(path, bw);
  }
  void commit() { committed_ = true; }

 private:
  struct NodeLoad {
    sg::ResourceNode* node;
    double cpu_used;
    std::size_t slots_used;
  };
  sg::ResourceGraph& view_;
  std::vector<NodeLoad> nodes_;
  std::vector<std::pair<int, std::uint64_t>> links_;
  bool committed_ = false;
};

/// Shared greedy-family driver: `choose` picks among feasible candidates.
Result<MappingResult> map_greedy(const sg::ServiceGraph& graph, sg::ResourceGraph& view,
                                 std::string_view algo_name,
                                 const std::function<std::size_t(const std::vector<Candidate>&)>&
                                     choose) {
  auto spec = analyze(graph, view);
  if (!spec.ok()) return spec.error();

  UndoLog reservations(view);  // any return before the commit rolls back
  MappingResult result;
  result.algorithm = std::string(algo_name);

  // `prev_sg` names the SG node the running segment starts at; `prev_sub`
  // is where that node lives in the substrate (equal for SAPs).
  std::string prev_sg = spec->order.front();
  std::string prev_sub = spec->order.front();
  for (std::size_t i = 1; i < spec->order.size(); ++i) {
    const std::string& node_id = spec->order[i];
    const std::uint64_t bw = spec->segment_bw[i - 1];

    if (graph.is_sap(node_id)) {
      // Final segment to the exit SAP.
      auto path = view.shortest_path(prev_sub, node_id, bw);
      if (!path) {
        return make_error("mapping.no-route",
                          "no feasible route " + prev_sub + " -> " + node_id);
      }
      reservations.reserve_path(*path, bw);
      result.total_path_delay += path->total_delay;
      result.link_mappings.push_back(LinkMapping{prev_sg, node_id, std::move(*path), bw});
      prev_sg = prev_sub = node_id;
      continue;
    }

    const sg::VnfNode* vnf = graph.vnf(node_id);
    auto candidates = feasible_containers(view, prev_sub, *vnf, bw);
    if (candidates.empty()) {
      return make_error("mapping.no-capacity",
                        "no feasible container for VNF '" + node_id + "'");
    }
    Candidate& chosen = candidates[choose(candidates)];
    if (auto s = reservations.reserve_vnf(chosen.container, vnf->cpu_demand); !s.ok()) {
      return s.error();
    }
    reservations.reserve_path(chosen.path, bw);
    result.total_path_delay += chosen.path.total_delay;
    result.placements[node_id] = chosen.container;
    result.link_mappings.push_back(LinkMapping{prev_sg, node_id, std::move(chosen.path), bw});
    prev_sg = node_id;
    prev_sub = std::move(chosen.container);
  }

  if (spec->delay_budget > 0 && result.total_path_delay > spec->delay_budget) {
    return make_error("mapping.delay-violated",
                      strings::format("mapped path delay %.3f ms exceeds budget %.3f ms",
                                      static_cast<double>(result.total_path_delay) /
                                          timeunit::kMillisecond,
                                      static_cast<double>(spec->delay_budget) /
                                          timeunit::kMillisecond));
  }
  reservations.commit();
  return result;
}

}  // namespace

Result<MappingResult> GreedyFirstFit::map(const sg::ServiceGraph& graph,
                                          sg::ResourceGraph& view) {
  // Candidates come in view order (name order for a view built from a
  // Network); first fit = index 0.
  return map_greedy(graph, view, name(), [](const std::vector<Candidate>&) { return 0u; });
}

Result<MappingResult> LoadBalanceBestFit::map(const sg::ServiceGraph& graph,
                                              sg::ResourceGraph& view) {
  return map_greedy(graph, view, name(), [](const std::vector<Candidate>& c) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < c.size(); ++i) {
      if (c[i].cpu_utilization < c[best].cpu_utilization ||
          (c[i].cpu_utilization == c[best].cpu_utilization &&
           c[i].path.total_delay < c[best].path.total_delay)) {
        best = i;
      }
    }
    return best;
  });
}

Result<MappingResult> DelayGreedy::map(const sg::ServiceGraph& graph,
                                       sg::ResourceGraph& view) {
  return map_greedy(graph, view, name(), [](const std::vector<Candidate>& c) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < c.size(); ++i) {
      if (c[i].path.total_delay < c[best].path.total_delay) best = i;
    }
    return best;
  });
}

Result<MappingResult> Backtracking::map(const sg::ServiceGraph& graph,
                                        sg::ResourceGraph& view) {
  auto spec = analyze(graph, view);
  if (!spec.ok()) return spec.error();

  // Collect the VNFs in chain order.
  std::vector<const sg::VnfNode*> vnfs;
  for (std::size_t i = 1; i + 1 < spec->order.size(); ++i) {
    if (const auto* v = graph.vnf(spec->order[i])) vnfs.push_back(v);
  }

  struct Best {
    bool found = false;
    SimDuration delay = std::numeric_limits<SimDuration>::max();
    MappingResult result;
    sg::ResourceGraph view;
  } best;

  std::size_t explored = 0;
  sg::ResourceGraph work = view;
  MappingResult current;
  current.algorithm = std::string(name());

  // Depth-first over container assignments, committing reservations on
  // the way down and undoing them on the way back up.
  std::function<void(std::size_t, const std::string&, SimDuration)> dfs =
      [&](std::size_t depth, const std::string& prev, SimDuration delay_so_far) {
        if (explored >= node_limit_) return;
        if (best.found && delay_so_far >= best.delay) return;  // prune
        if (spec->delay_budget > 0 && delay_so_far > spec->delay_budget) return;

        const std::string prev_sg =
            depth == 0 ? spec->order.front() : vnfs[depth - 1]->id;

        if (depth == vnfs.size()) {
          // Route the final segment to the exit SAP.
          const std::uint64_t bw = spec->segment_bw.back();
          auto path = work.shortest_path(prev, spec->order.back(), bw);
          if (!path) return;
          const SimDuration total = delay_so_far + path->total_delay;
          if (best.found && total >= best.delay) return;
          if (spec->delay_budget > 0 && total > spec->delay_budget) return;
          ++explored;
          best.found = true;
          best.delay = total;
          best.result = current;
          best.result.total_path_delay = total;
          best.result.link_mappings.push_back(
              LinkMapping{prev_sg, spec->order.back(), *path, bw});
          best.view = work;
          best.view.reserve_path(*path, bw);
          return;
        }

        const sg::VnfNode* vnf = vnfs[depth];
        const std::uint64_t bw = spec->segment_bw[depth];
        for (auto& cand : feasible_containers(work, prev, *vnf, bw)) {
          ++explored;
          if (!work.reserve_vnf(cand.container, vnf->cpu_demand).ok()) continue;
          work.reserve_path(cand.path, bw);
          current.placements[vnf->id] = cand.container;
          current.link_mappings.push_back(LinkMapping{prev_sg, vnf->id, cand.path, bw});

          dfs(depth + 1, cand.container, delay_so_far + cand.path.total_delay);

          current.link_mappings.pop_back();
          current.placements.erase(vnf->id);
          work.release_path(cand.path, bw);
          work.release_vnf(cand.container, vnf->cpu_demand);
        }
      };

  dfs(0, spec->order.front(), 0);

  if (!best.found) {
    return make_error("mapping.no-solution",
                      "backtracking found no feasible mapping (explored " +
                          std::to_string(explored) + " states)");
  }
  view = std::move(best.view);
  return best.result;
}

// --- MappingRegistry -------------------------------------------------------------

MappingRegistry& MappingRegistry::global() {
  static MappingRegistry* instance = [] {
    auto* r = new MappingRegistry();
    r->register_algorithm("greedy", [] { return std::make_unique<GreedyFirstFit>(); });
    r->register_algorithm("loadbalance",
                          [] { return std::make_unique<LoadBalanceBestFit>(); });
    r->register_algorithm("delaygreedy", [] { return std::make_unique<DelayGreedy>(); });
    r->register_algorithm("backtracking", [] { return std::make_unique<Backtracking>(); });
    return r;
  }();
  return *instance;
}

void MappingRegistry::register_algorithm(const std::string& name, Factory factory) {
  factories_[name] = std::move(factory);
}

std::unique_ptr<MappingAlgorithm> MappingRegistry::create(const std::string& name) const {
  auto it = factories_.find(name);
  return it == factories_.end() ? nullptr : it->second();
}

std::vector<std::string> MappingRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [k, _] : factories_) out.push_back(k);
  return out;
}

}  // namespace escape::orchestrator
