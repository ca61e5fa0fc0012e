// The VNF catalog: "a built-in set of useful VNFs implemented in Click".
// Each catalog entry is a Click configuration template with $parameters;
// the service layer renders a concrete configuration per VNF instance,
// which the orchestrator ships to a container through NETCONF.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace escape::service {

struct VnfTemplate {
  std::string type;         // catalog key ("firewall")
  std::string description;  // one-liner for the GUI / docs
  std::string config_template;
  double default_cpu = 0.1;
  int data_ports = 1;  // in/out device pairs (inN/outN)
  std::map<std::string, std::string> param_defaults;
  /// The VNF rewrites packet source fields (NAT-style). A chain match
  /// built for such a chain must not pin nw_src/tp_src: post-VNF hops
  /// see the rewritten header.
  bool rewrites_source = false;
};

class VnfCatalog {
 public:
  /// The built-in catalog (monitor, firewall, ratelimiter, worker, dpi,
  /// delay, headerrewriter, flow_nat, flow_lb, tcp_ids).
  static VnfCatalog with_builtins();

  void add(VnfTemplate tmpl);
  bool has(const std::string& type) const { return templates_.count(type) > 0; }
  const VnfTemplate* get(const std::string& type) const;
  std::vector<std::string> types() const;

  /// Renders the Click configuration for one instance: substitutes
  /// $param / ${param} occurrences from `params` (falling back to the
  /// template defaults). Unknown or unresolved parameters are errors.
  Result<std::string> render(const std::string& type,
                             const std::map<std::string, std::string>& params) const;

 private:
  std::map<std::string, VnfTemplate> templates_;
};

/// Renders the Click configuration of the scale-out splitter VNF: a
/// FlowManager born holding (it buffers traffic until the migrated flow
/// state is imported and the hold is released) feeding a flow-sticky
/// hash-mode FlowLB with `fanout` outputs (one per replica). Not a
/// catalog template because the output wiring varies with the fanout,
/// which $param substitution cannot express. fanout is clamped to
/// FlowLB's [2, 64] range.
std::string render_flow_splitter(std::size_t fanout);

}  // namespace escape::service
