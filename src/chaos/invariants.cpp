#include "chaos/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "obs/metrics.hpp"

namespace escape::chaos {

namespace {

void report(std::vector<Violation>& out, std::string invariant, std::string subject,
            std::string detail) {
  obs::MetricsRegistry::global()
      .counter("escape_chaos_violations_total", {{"invariant", invariant}})
      .add();
  out.push_back({std::move(invariant), std::move(subject), std::move(detail)});
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

void check_terminal_states(Environment& env, std::vector<Violation>& out) {
  for (std::uint32_t id : env.deployed_chains()) {
    const ChainDeployment* dep = env.deployment(id);
    if (dep == nullptr) continue;
    if (dep->state != ChainState::kActive && dep->state != ChainState::kFailed) {
      report(out, "chain.non-terminal", "chain " + std::to_string(id),
             std::string("quiesced in state ") + std::string(chain_state_name(dep->state)));
    }
  }
}

/// An ACTIVE chain holds exactly what its record runs on: one CPU share
/// per instance, on that instance's container, and the mapping's paths.
void check_chain_ledger(const ChainDeployment& dep, std::vector<Violation>& out) {
  std::vector<std::string> held, running;
  for (const auto& [container, share] : dep.reservations.cpu) held.push_back(container);
  for (const auto& vnf : dep.record.vnfs) running.push_back(vnf.container);
  std::sort(held.begin(), held.end());
  std::sort(running.begin(), running.end());
  if (held != running) {
    std::ostringstream os;
    os << "ledger holds " << held.size() << " CPU share(s) on [";
    for (const auto& c : held) os << ' ' << c;
    os << " ] but the record runs " << running.size() << " instance(s) on [";
    for (const auto& c : running) os << ' ' << c;
    os << " ]";
    report(out, "ledger.chain-cpu", "chain " + std::to_string(dep.id), os.str());
  }
  const auto& links = dep.reservations.links;
  const auto& mapped = dep.record.mapping.link_mappings;
  const bool same_links = std::equal(
      links.begin(), links.end(), mapped.begin(), mapped.end(), [](const auto& a, const auto& b) {
        return a.bandwidth_bps == b.bandwidth_bps && a.path.link_indices == b.path.link_indices;
      });
  if (!same_links) {
    report(out, "ledger.chain-links", "chain " + std::to_string(dep.id),
           "the ledger's " + std::to_string(links.size()) + " link path(s) differ from the " +
               std::to_string(mapped.size()) + " of the mapping");
  }
}

void check_resource_ledger(Environment& env, std::vector<Violation>& out) {
  const sg::ResourceGraph* view = env.resource_view();
  if (view == nullptr) return;

  // Expected books: the sum of the chains' reservation ledgers.
  std::map<std::string, double> cpu;
  std::map<std::string, std::size_t> slots;
  std::map<int, std::uint64_t> bandwidth;
  for (std::uint32_t id : env.deployed_chains()) {
    const ChainDeployment* dep = env.deployment(id);
    if (dep == nullptr) continue;
    for (const auto& [container, share] : dep->reservations.cpu) {
      cpu[container] += share;
      slots[container] += 1;
    }
    for (const auto& lm : dep->reservations.links) {
      if (lm.bandwidth_bps == 0) continue;
      for (int idx : lm.path.link_indices) bandwidth[idx] += lm.bandwidth_bps;
    }
    if (dep->state == ChainState::kActive) check_chain_ledger(*dep, out);
  }

  for (const auto& node : view->nodes()) {
    if (node.kind != sg::ResourceKind::kContainer) continue;
    const double want_cpu = cpu.count(node.name) ? cpu[node.name] : 0.0;
    const std::size_t want_slots = slots.count(node.name) ? slots[node.name] : 0;
    if (std::abs(node.cpu_used - want_cpu) > 1e-9) {
      std::ostringstream os;
      os << "view cpu_used=" << node.cpu_used << " but live chains reserve " << want_cpu;
      report(out, "ledger.cpu", node.name, os.str());
    }
    if (node.vnf_slots_used != want_slots) {
      std::ostringstream os;
      os << "view slots_used=" << node.vnf_slots_used << " but live chains hold "
         << want_slots;
      report(out, "ledger.slots", node.name, os.str());
    }
  }
  const auto& links = view->links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    const std::uint64_t want =
        bandwidth.count(static_cast<int>(i)) ? bandwidth[static_cast<int>(i)] : 0;
    if (links[i].bandwidth_used != want) {
      std::ostringstream os;
      os << "view bandwidth_used=" << links[i].bandwidth_used << " but live chains reserve "
         << want;
      report(out, "ledger.bandwidth", links[i].a + "<->" + links[i].b, os.str());
    }
  }
}

void check_steering(Environment& env, std::vector<Violation>& out) {
  pox::TrafficSteering& steering = env.steering();
  std::set<openflow::DatapathId> up;
  for (openflow::DatapathId dpid : env.controller().connected_switches()) up.insert(dpid);

  for (const std::string& name : env.network().node_names()) {
    netemu::SwitchNode* sw = env.network().switch_node(name);
    if (sw == nullptr) continue;
    const openflow::DatapathId dpid = sw->dpid();
    if (steering.dirty(dpid)) {
      report(out, "steering.dirty", name,
             up.count(dpid) ? "dpid still marked dirty with its connection up"
                            : "dpid dirty and its connection never recovered");
      continue;
    }
    if (!up.count(dpid)) continue;  // table untrusted but not claimed clean

    // Multiset diff of rule identities (cookie, priority, match digest):
    // the intent store vs the cookied slice of the actual table. The
    // human-readable match rides along for the violation report.
    std::multiset<std::tuple<std::uint64_t, std::uint16_t, std::uint64_t>> want, have;
    std::map<std::tuple<std::uint64_t, std::uint16_t, std::uint64_t>, std::string> pretty;
    if (const auto* rules = steering.intent(dpid)) {
      for (const auto& r : *rules) {
        std::tuple<std::uint64_t, std::uint16_t, std::uint64_t> k{r.chain_id, r.priority,
                                                                  r.match.digest()};
        pretty.emplace(k, r.match.to_string());
        want.insert(k);
      }
    }
    for (const auto& e : sw->datapath().flow_table().cookied_stats(env.scheduler().now())) {
      std::tuple<std::uint64_t, std::uint16_t, std::uint64_t> k{e.cookie, e.priority,
                                                                e.match.digest()};
      pretty.emplace(k, e.match.to_string());
      have.insert(k);
    }
    if (want != have) {
      std::ostringstream os;
      os << "intent has " << want.size() << " rule(s), flow table has " << have.size();
      for (const auto& k : want) {
        if (want.count(k) > have.count(k)) {
          os << "; missing cookie=" << std::get<0>(k) << " prio=" << std::get<1>(k) << " "
             << pretty[k];
        }
      }
      for (const auto& k : have) {
        if (have.count(k) > want.count(k)) {
          os << "; stray cookie=" << std::get<0>(k) << " prio=" << std::get<1>(k) << " "
             << pretty[k];
        }
      }
      report(out, "steering.intent-mismatch", name, os.str());
    }
  }
}

void check_containers(Environment& env, std::vector<Violation>& out) {
  // Instance ids owned by some chain's live record.
  std::set<std::string> accounted;
  for (std::uint32_t id : env.deployed_chains()) {
    const ChainDeployment* dep = env.deployment(id);
    if (dep == nullptr) continue;
    for (const auto& vnf : dep->record.vnfs) accounted.insert(vnf.instance_id);
  }

  for (const std::string& name : env.network().node_names()) {
    netemu::VnfContainer* container = env.network().container(name);
    if (container == nullptr || !container->alive()) continue;
    for (const std::string& vnf_id : container->vnf_ids()) {
      if (!accounted.count(vnf_id)) {
        report(out, "vnf.orphan-instance", name,
               "instance '" + vnf_id + "' belongs to no live deployment record");
      }
      auto info = container->vnf_info(vnf_id);
      if (!info.ok() || info->status != netemu::VnfStatus::kRunning) continue;
      for (const auto& [handler, value] : info->handlers) {
        if (ends_with(handler, ".hold") && value != "0") {
          report(out, "vnf.stranded-hold", name,
                 "instance '" + vnf_id + "' handler " + handler + "=" + value +
                     " after quiesce");
        }
        if (ends_with(handler, ".held") && value != "0") {
          report(out, "vnf.stranded-buffer", name,
                 "instance '" + vnf_id + "' still buffers " + value + " packet(s) (" +
                     handler + ")");
        }
        if (ends_with(handler, ".ports_free")) {
          const std::string elem = handler.substr(0, handler.size() - sizeof("ports_free"));
          auto mappings = info->handlers.find(elem + ".mappings");
          auto total = info->handlers.find(elem + ".ports_total");
          if (mappings == info->handlers.end() || total == info->handlers.end()) continue;
          // Conservation holds for the pool's own range: migrated-in
          // mappings may carry a foreign port (the exporting replica's
          // range) that never touched this pool. Elements without the
          // native/foreign split have only local mappings.
          auto native = info->handlers.find(elem + ".mappings_native");
          const long free = std::stol(value);
          const long used =
              std::stol((native != info->handlers.end() ? native : mappings)->second);
          const long all = std::stol(total->second);
          if (free + used != all) {
            std::ostringstream os;
            os << "instance '" << vnf_id << "' element " << elem << ": ports_free=" << free
               << " + native mappings=" << used << " != ports_total=" << all;
            report(out, "nat.port-leak", name, os.str());
          }
        }
      }
    }
  }
}

}  // namespace

std::string to_string(const Violation& v) {
  return v.invariant + " [" + v.subject + "]: " + v.detail;
}

std::vector<Violation> check_invariants(Environment& env) {
  std::vector<Violation> out;
  check_terminal_states(env, out);
  check_resource_ledger(env, out);
  check_steering(env, out);
  check_containers(env, out);
  return out;
}

}  // namespace escape::chaos
