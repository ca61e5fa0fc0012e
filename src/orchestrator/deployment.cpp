#include "orchestrator/deployment.hpp"

#include <algorithm>
#include <tuple>

#include "chaos/fault_point.hpp"

namespace escape::orchestrator {

namespace {
// Bring-up steps queued per VNF in deploy() (initiate, start, connect in,
// connect out). Rollback sizing derives the owning VNF from the failing
// step index via this constant -- keep it in sync with the push_backs.
constexpr std::size_t kStepsPerVnf = 4;

/// Runs one NETCONF operation through a named fault point: an injected
/// drop fails it locally (deferred one event, like a real reply), an
/// injected delay defers the send, an injected crash (handled inside
/// hit()) kills the target first and lets the RPC fail naturally.
void run_rpc_step(EventScheduler& scheduler, const char* site,
                  const chaos::SiteContext& ctx,
                  std::function<void(netconf::VnfAgentClient::StatusCallback)> op,
                  netconf::VnfAgentClient::StatusCallback cb) {
  const chaos::Decision fp =
      chaos::hit(site, chaos::kCanCrash | chaos::kCanDrop | chaos::kCanDelay, ctx);
  if (fp.drop()) {
    scheduler.schedule(0, [cb = std::move(cb), site]() mutable {
      cb(make_error("chaos.injected-drop", std::string("injected rpc drop at ") + site));
    });
    return;
  }
  if (fp.delayed()) {
    scheduler.schedule(fp.delay, [op = std::move(op), cb = std::move(cb)]() mutable {
      op(std::move(cb));
    });
    return;
  }
  op(std::move(cb));
}
}  // namespace

DeploymentEngine::DeploymentEngine(netemu::Network& network, pox::TrafficSteering& steering,
                                   std::map<std::string, netconf::VnfAgentClient*> agents)
    : network_(&network), steering_(&steering), agents_(std::move(agents)) {}

netemu::LinkConfig DeploymentEngine::veth_config() {
  netemu::LinkConfig cfg;
  cfg.bandwidth_bps = 10'000'000'000ULL;  // 10 Gbit/s veth
  cfg.delay = timeunit::kMicrosecond;
  cfg.queue_frames = 1000;
  return cfg;
}

Result<std::pair<std::uint16_t, std::uint16_t>> DeploymentEngine::add_veth(
    netemu::Network& network, netemu::Node& container, netemu::Node& sw) {
  auto container_port = network.next_free_port(&container);
  if (!container_port.ok()) return container_port.error();
  auto switch_port = network.next_free_port(&sw);
  if (!switch_port.ok()) return switch_port.error();
  if (auto s = network.add_link(container.name(), *container_port, sw.name(), *switch_port,
                                veth_config());
      !s.ok()) {
    return s.error();
  }
  return std::pair{*container_port, *switch_port};
}

namespace {

/// The default attachment switch of a container: the switch on the other
/// end of its first (topology) link.
Result<std::string> default_adjacent_switch(netemu::Network& network,
                                            const std::string& container) {
  for (const auto& link : network.links()) {
    for (int endpoint = 0; endpoint < 2; ++endpoint) {
      if (link->node(endpoint)->name() == container &&
          link->node(1 - endpoint)->kind() == netemu::NodeKind::kSwitch) {
        return link->node(1 - endpoint)->name();
      }
    }
  }
  return make_error("deploy.no-adjacent-switch",
                    container + " has no switch neighbour to attach veths to");
}

}  // namespace

Result<std::vector<VnfDeployment>> DeploymentEngine::allocate_veths(
    std::uint32_t chain_id, const MappingResult& mapping) {
  std::vector<VnfDeployment> out;

  for (std::size_t i = 0; i < mapping.link_mappings.size(); ++i) {
    const LinkMapping& entering = mapping.link_mappings[i];
    auto placement = mapping.placements.find(entering.sg_dst);
    if (placement == mapping.placements.end()) continue;  // segment to a SAP

    const std::string& vnf_id = entering.sg_dst;
    const std::string& container_name = placement->second;
    netemu::VnfContainer* container = network_->container(container_name);
    if (!container) {
      return make_error("deploy.unknown-container", "not in network: " + container_name);
    }

    VnfDeployment d;
    d.vnf_id = vnf_id;
    // Container-unique instance id: several chains may place same-named
    // VNFs on one container.
    d.instance_id = "chain" + std::to_string(chain_id) + "." + vnf_id;
    d.container = container_name;

    // Attachment switch on the ingress side: the last switch of the
    // entering segment, or the container's default neighbour when the
    // segment is degenerate (previous VNF in the same container).
    if (entering.path.nodes.size() >= 2) {
      d.in_switch = entering.path.nodes[entering.path.nodes.size() - 2];
    } else {
      auto s = default_adjacent_switch(*network_, container_name);
      if (!s.ok()) return s.error();
      d.in_switch = *s;
    }

    // Egress side: first switch of the segment leaving this VNF.
    if (i + 1 >= mapping.link_mappings.size()) {
      return make_error("deploy.bad-mapping", vnf_id + " has no outgoing segment");
    }
    const LinkMapping& leaving = mapping.link_mappings[i + 1];
    if (leaving.path.nodes.size() >= 2) {
      d.out_switch = leaving.path.nodes[1];
    } else {
      auto s = default_adjacent_switch(*network_, container_name);
      if (!s.ok()) return s.error();
      d.out_switch = *s;
    }

    netemu::SwitchNode* in_sw = network_->switch_node(d.in_switch);
    netemu::SwitchNode* out_sw = network_->switch_node(d.out_switch);
    if (!in_sw || !out_sw) {
      return make_error("deploy.no-switch",
                        vnf_id + ": mapped path does not traverse an OpenFlow switch "
                                 "next to the container");
    }

    // Fresh ports, then the two veth links.
    auto in_veth = add_veth(*network_, *container, *in_sw);
    if (!in_veth.ok()) return in_veth.error();
    std::tie(d.container_in_port, d.switch_in_port) = *in_veth;
    auto out_veth = add_veth(*network_, *container, *out_sw);
    if (!out_veth.ok()) return out_veth.error();
    std::tie(d.container_out_port, d.switch_out_port) = *out_veth;
    out.push_back(std::move(d));
  }
  return out;
}

Result<pox::ChainPath> DeploymentEngine::compute_chain_path(
    std::uint32_t chain_id, const MappingResult& mapping, const sg::ResourceGraph& view,
    const std::vector<VnfDeployment>& vnfs, openflow::Match match) const {
  pox::ChainPath chain;
  chain.chain_id = chain_id;
  chain.match = match;

  auto vnf_record = [&vnfs](const std::string& vnf_id) -> const VnfDeployment* {
    for (const auto& v : vnfs) {
      if (v.vnf_id == vnf_id) return &v;
    }
    return nullptr;
  };
  auto dpid_of = [this](const std::string& name) -> Result<openflow::DatapathId> {
    netemu::SwitchNode* sw = network_->switch_node(name);
    if (!sw) return make_error("deploy.no-switch", "not a switch: " + name);
    return sw->dpid();
  };

  for (std::size_t k = 0; k < mapping.link_mappings.size(); ++k) {
    const LinkMapping& seg = mapping.link_mappings[k];
    const VnfDeployment* src_vnf = vnf_record(seg.sg_src);
    const VnfDeployment* dst_vnf = vnf_record(seg.sg_dst);
    const auto& nodes = seg.path.nodes;
    const std::size_t n = nodes.size();

    if (n <= 1) {
      // Degenerate segment: both endpoints in the same container. One
      // hairpin hop at the shared attachment switch.
      if (!src_vnf || !dst_vnf) {
        return make_error("deploy.bad-segment", "degenerate segment without VNF endpoints");
      }
      if (src_vnf->out_switch != dst_vnf->in_switch) {
        return make_error("deploy.bad-segment", "hairpin endpoints on different switches");
      }
      auto dpid = dpid_of(src_vnf->out_switch);
      if (!dpid.ok()) return dpid.error();
      chain.hops.push_back({*dpid, src_vnf->switch_out_port, dst_vnf->switch_in_port});
      continue;
    }

    // Regular segment: switches occupy positions 1 .. n-2.
    if (n < 3 && !(src_vnf || dst_vnf)) {
      return make_error("deploy.bad-segment",
                        "segment " + seg.sg_src + "->" + seg.sg_dst +
                            " traverses no OpenFlow switch");
    }
    for (std::size_t j = 1; j + 1 < n; ++j) {
      netemu::SwitchNode* sw = network_->switch_node(nodes[j]);
      if (!sw) continue;  // defensive: containers never appear mid-path
      auto dpid = dpid_of(nodes[j]);
      if (!dpid.ok()) return dpid.error();

      std::uint16_t in_port;
      if (j == 1 && src_vnf) {
        in_port = src_vnf->switch_out_port;  // traffic re-enters from the VNF
      } else {
        in_port = view.port_on(seg.path.link_indices[j - 1], nodes[j]);
      }
      std::uint16_t out_port;
      if (j + 2 == n && dst_vnf) {
        out_port = dst_vnf->switch_in_port;  // traffic leaves toward the VNF
      } else {
        out_port = view.port_on(seg.path.link_indices[j], nodes[j]);
      }
      chain.hops.push_back({*dpid, in_port, out_port});
    }
  }

  if (chain.hops.empty()) {
    return make_error("deploy.empty-chain", "no steering hops computed");
  }
  return chain;
}

void DeploymentEngine::deploy(std::uint32_t chain_id, const MappingResult& mapping,
                              const sg::ResourceGraph& view,
                              const std::vector<service::RenderedVnf>& rendered,
                              openflow::Match match, CompletionCallback done) {
  auto record = std::make_shared<DeploymentRecord>();
  record->chain_id = chain_id;
  record->mapping = mapping;
  record->started_at = network_->scheduler().now();

  // Phase 1 (synchronous): veth allocation.
  auto veths = allocate_veths(chain_id, mapping);
  if (!veths.ok()) {
    done(veths.error());
    return;
  }
  record->vnfs = std::move(*veths);

  // Phase 3 input is computed now so errors surface before any RPC.
  auto chain = compute_chain_path(chain_id, mapping, view, record->vnfs, match);
  if (!chain.ok()) {
    done(chain.error());
    return;
  }
  record->chain_path = std::move(*chain);

  // Phase 2: sequential NETCONF bring-up of every VNF.
  struct Step {
    std::function<void(netconf::VnfAgentClient::StatusCallback)> run;
    std::string container;  // fault-point crash target
  };
  auto steps = std::make_shared<std::vector<Step>>();

  for (const auto& d : record->vnfs) {
    auto agent_it = agents_.find(d.container);
    if (agent_it == agents_.end()) {
      done(make_error("deploy.no-agent", "no management agent for " + d.container));
      return;
    }
    netconf::VnfAgentClient* agent = agent_it->second;

    const service::RenderedVnf* vnf = nullptr;
    for (const auto& r : rendered) {
      if (r.id == d.vnf_id) vnf = &r;
    }
    if (!vnf) {
      done(make_error("deploy.missing-config", "no rendered config for " + d.vnf_id));
      return;
    }

    // Copied, not pointed-to: the caller's `rendered` vector may be a
    // temporary (the recovery path's is), and this step runs from a
    // scheduler callback long after deploy() returned.
    steps->push_back({[agent, v = *vnf, id = d.instance_id](auto cb) {
                        agent->initiate_vnf(id, v.vnf_type, v.click_config, v.cpu_demand,
                                            std::move(cb));
                      },
                      d.container});
    steps->push_back(
        {[agent, id = d.instance_id](auto cb) { agent->start_vnf(id, std::move(cb)); },
         d.container});
    steps->push_back({[agent, id = d.instance_id, port = d.container_in_port](auto cb) {
                        agent->connect_vnf(id, "in0", port, std::move(cb));
                      },
                      d.container});
    steps->push_back({[agent, id = d.instance_id, port = d.container_out_port](auto cb) {
                        agent->connect_vnf(id, "out0", port, std::move(cb));
                      },
                      d.container});
    static_assert(kStepsPerVnf == 4, "step pushes above must match kStepsPerVnf");
  }

  auto* engine = this;
  auto run_all = std::make_shared<std::function<void(std::size_t)>>();
  // The stored function must only hold a weak self-reference: capturing
  // run_all by value would form a shared_ptr cycle (function -> itself)
  // that leaks the record and every capture. The pending step callback
  // takes a strong ref, which is what keeps the loop alive between
  // scheduler events.
  std::weak_ptr<std::function<void(std::size_t)>> weak_run = run_all;
  *run_all = [engine, steps, record, done, weak_run](std::size_t index) {
    if (index == steps->size()) {
      // Injectable: the hand-off from NETCONF bring-up to steering. A
      // drop fails the install (partial bring-up rolls back); a crash
      // restarts the chain's entry switch under the install.
      const chaos::Decision fp =
          chaos::hit("deploy.steering.install", chaos::kCanDrop | chaos::kCanCrash,
                     chaos::SiteContext::of_switch(record->chain_path.hops.front().dpid,
                                                   record->chain_id));
      if (fp.drop()) {
        Error error = make_error("chaos.injected-drop", "steering install dropped");
        engine->teardown_best_effort(*record, [done, error](Status) { done(error); });
        return;
      }
      // Phase 3: steering. Barrier-confirmed: the completion only fires
      // once every touched switch has committed the chain's rules, so a
      // chain cannot report deployed while its flow-mods are in flight
      // (the old fixed settle delay just hoped they had landed).
      engine->steering_->install_chain_confirmed(
          record->chain_path, [engine, record, done](Status s) {
            if (!s.ok()) {
              Error error = s.error();
              engine->teardown_best_effort(*record, [done, error](Status) { done(error); });
              return;
            }
            record->completed_at = engine->network_->scheduler().now();
            done(*record);
          });
      return;
    }
    auto self = weak_run.lock();
    auto continue_with = [engine, steps, record, done, self, index](Status s) {
      if (!s.ok()) {
        // Partial-result reporting: annotate how far bring-up got, then
        // roll back the VNFs already touched (best effort -- some of them
        // may live on an agent that just died).
        DeploymentRecord partial = *record;
        partial.vnfs.resize(std::min(partial.vnfs.size(), index / kStepsPerVnf + 1));
        Error error = make_error(
            s.error().code,
            "chain " + std::to_string(record->chain_id) + " failed at bring-up step " +
                std::to_string(index + 1) + "/" + std::to_string(steps->size()) + ": " +
                s.error().message + " (partial bring-up rolled back)");
        engine->teardown_best_effort(partial, [done, error](Status) { done(error); });
        return;
      }
      (*self)(index + 1);
    };
    run_rpc_step(engine->network_->scheduler(), "deploy.rpc",
                 chaos::SiteContext::of_container((*steps)[index].container,
                                                  record->chain_id),
                 (*steps)[index].run, std::move(continue_with));
  };
  (*run_all)(0);
}

namespace {

/// "Already gone" outcomes an idempotent teardown steps over: the flow /
/// VNF / agent the step wanted to remove no longer exists, which is the
/// desired end state anyway.
bool benign_teardown_error(const Error& error) {
  return error.code == "pox.steering.unknown-chain" ||
         error.code == "container.unknown-vnf" ||
         error.code == "container.not-running" || error.code == "container.dead" ||
         error.code == "netconf.session.closed" || error.code == "netconf.circuit-open";
}

}  // namespace

void DeploymentEngine::teardown(const DeploymentRecord& record,
                                std::function<void(Status)> done) {
  teardown_impl(record, /*best_effort=*/false, /*remove_steering=*/true, std::move(done));
}

void DeploymentEngine::teardown_best_effort(const DeploymentRecord& record,
                                            std::function<void(Status)> done) {
  teardown_impl(record, /*best_effort=*/true, /*remove_steering=*/true, std::move(done));
}

void DeploymentEngine::teardown_instances(const DeploymentRecord& record,
                                          std::function<void(Status)> done) {
  teardown_impl(record, /*best_effort=*/false, /*remove_steering=*/false, std::move(done));
}

void DeploymentEngine::teardown_impl(const DeploymentRecord& record, bool best_effort,
                                     bool remove_steering, std::function<void(Status)> done) {
  // Steering rules live under the path's id, which diverges from the
  // logical chain id once the chain has been scaled (each migration
  // generation installs under a fresh steering id so make-before-break
  // can hold both rule sets at once).
  const std::uint32_t steering_id =
      record.chain_path.chain_id != 0 ? record.chain_path.chain_id : record.chain_id;
  if (remove_steering) {
    // Injectable: the steering removal that opens every teardown. A drop
    // leaves the rules installed (callers must converge later anyway); a
    // crash restarts the entry switch under the removal.
    const chaos::Decision fp = chaos::hit(
        "teardown.steering", chaos::kCanDrop | chaos::kCanCrash,
        record.chain_path.hops.empty()
            ? chaos::SiteContext::of_container("", record.chain_id)
            : chaos::SiteContext::of_switch(record.chain_path.hops.front().dpid,
                                            record.chain_id));
    Status removed =
        fp.drop() ? Status(make_error("chaos.injected-drop", "steering removal dropped"))
                  : steering_->remove_chain(steering_id);
    if (auto s = std::move(removed);
        !s.ok() && !best_effort && !benign_teardown_error(s.error())) {
      done(s);
      return;
    }
  }
  auto vnfs = std::make_shared<std::vector<VnfDeployment>>(record.vnfs);
  auto* engine = this;
  auto run = std::make_shared<std::function<void(std::size_t)>>();
  // Weak self-reference for the same reason as in deploy(): the pending
  // RPC callbacks hold the strong refs that keep the loop alive.
  std::weak_ptr<std::function<void(std::size_t)>> weak_run = run;
  *run = [engine, vnfs, done, weak_run, best_effort](std::size_t index) {
    if (index == vnfs->size()) {
      done(ok_status());
      return;
    }
    auto tolerated = [best_effort](const Error& error) {
      return best_effort || benign_teardown_error(error);
    };
    const VnfDeployment d = (*vnfs)[index];
    auto self = weak_run.lock();
    auto it = engine->agents_.find(d.container);
    if (it == engine->agents_.end()) {
      if (best_effort) {
        (*self)(index + 1);
      } else {
        done(make_error("deploy.no-agent", "no management agent for " + d.container));
      }
      return;
    }
    netconf::VnfAgentClient* agent = it->second;
    run_rpc_step(
        engine->network_->scheduler(), "teardown.rpc.stop",
        chaos::SiteContext::of_container(d.container),
        [agent, id = d.instance_id](auto cb) { agent->stop_vnf(id, std::move(cb)); },
        [engine, agent, d, done, self, index, tolerated](Status s) {
          if (!s.ok() && !tolerated(s.error())) {
            done(s);
            return;
          }
          run_rpc_step(
              engine->network_->scheduler(), "teardown.rpc.remove",
              chaos::SiteContext::of_container(d.container),
              [agent, id = d.instance_id](auto cb) { agent->remove_vnf(id, std::move(cb)); },
              [self, index, done, tolerated](Status s2) {
                if (!s2.ok() && !tolerated(s2.error())) {
                  done(s2);
                  return;
                }
                (*self)(index + 1);
              });
        });
  };
  (*run)(0);
}

}  // namespace escape::orchestrator
