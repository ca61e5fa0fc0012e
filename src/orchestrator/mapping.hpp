// Service-graph mapping: "a dedicated component maps abstract service
// graphs into available resources based on different optimization
// algorithms (which can be easily changed or customized)".
//
// A MappingAlgorithm consumes a (linear-chain) service graph and a
// resource view and produces VNF placements plus routed substrate paths
// for every SG link, respecting CPU, slot and bandwidth budgets and the
// end-to-end delay requirement. Algorithms are registered by name in the
// MappingRegistry -- the extensibility hook the paper advertises.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "sg/resource_model.hpp"
#include "sg/service_graph.hpp"
#include "util/result.hpp"

namespace escape::orchestrator {

/// The mapping of one SG link onto the substrate.
struct LinkMapping {
  std::string sg_src;  // SG node ids
  std::string sg_dst;
  sg::RoutedPath path;  // substrate route (endpoint nodes included)
  std::uint64_t bandwidth_bps = 0;
};

struct MappingResult {
  std::string algorithm;
  std::map<std::string, std::string> placements;  // vnf id -> container
  std::vector<LinkMapping> link_mappings;         // in chain order
  SimDuration total_path_delay = 0;

  std::string to_string() const;
};

class MappingAlgorithm {
 public:
  virtual ~MappingAlgorithm() = default;
  virtual std::string_view name() const = 0;

  /// Maps `graph` onto `view`. On success the reservations (CPU, slots,
  /// bandwidth) are committed to `view`; on failure `view` is unchanged.
  virtual Result<MappingResult> map(const sg::ServiceGraph& graph,
                                    sg::ResourceGraph& view) = 0;
};

/// First-fit greedy: walk the chain, place each VNF on the first
/// container (in view order) with enough CPU/slots and a routable,
/// bandwidth-feasible segment from the previous node.
class GreedyFirstFit : public MappingAlgorithm {
 public:
  std::string_view name() const override { return "greedy"; }
  Result<MappingResult> map(const sg::ServiceGraph& graph, sg::ResourceGraph& view) override;
};

/// Load-balancing best-fit: like greedy but picks the feasible container
/// with the lowest CPU utilization (ties broken by segment delay).
class LoadBalanceBestFit : public MappingAlgorithm {
 public:
  std::string_view name() const override { return "loadbalance"; }
  Result<MappingResult> map(const sg::ServiceGraph& graph, sg::ResourceGraph& view) override;
};

/// Delay-greedy (nearest neighbour): picks the feasible container with
/// the lowest added path delay from the previous chain node.
class DelayGreedy : public MappingAlgorithm {
 public:
  std::string_view name() const override { return "delaygreedy"; }
  Result<MappingResult> map(const sg::ServiceGraph& graph, sg::ResourceGraph& view) override;
};

/// Exhaustive backtracking: explores container assignments depth-first
/// and returns the feasible mapping with minimal total path delay.
/// Exponential in chain length; intended for small instances and as the
/// optimality baseline in bench_mapping.
class Backtracking : public MappingAlgorithm {
 public:
  /// `node_limit` caps explored assignments to keep runtime bounded.
  explicit Backtracking(std::size_t node_limit = 2'000'000) : node_limit_(node_limit) {}
  std::string_view name() const override { return "backtracking"; }
  Result<MappingResult> map(const sg::ServiceGraph& graph, sg::ResourceGraph& view) override;

 private:
  std::size_t node_limit_;
};

/// Name -> algorithm factory registry.
class MappingRegistry {
 public:
  using Factory = std::function<std::unique_ptr<MappingAlgorithm>()>;

  /// Global registry preloaded with the four built-ins.
  static MappingRegistry& global();

  void register_algorithm(const std::string& name, Factory factory);
  std::unique_ptr<MappingAlgorithm> create(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace escape::orchestrator
