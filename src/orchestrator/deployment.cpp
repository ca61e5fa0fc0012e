#include "orchestrator/deployment.hpp"

#include <algorithm>
#include <tuple>

#include "chaos/fault_point.hpp"

namespace escape::orchestrator {

namespace {

/// A chain in flight: what its pending callbacks share.
struct ChainRun {
  EventScheduler* scheduler;
  std::shared_ptr<RpcChain> chain;
  RpcChainHooks hooks;
  std::function<void(Status, std::size_t)> done;

  bool stopped() const { return hooks.stop && hooks.stop(); }
};

void run_step(const std::shared_ptr<ChainRun>& run, std::size_t index);

void on_reply(const std::shared_ptr<ChainRun>& run, std::size_t index, Status s) {
  if (run->stopped()) return;
  if (!s.ok() && !(run->hooks.tolerate && run->hooks.tolerate(s.error()))) {
    run->done(std::move(s), index);
    return;
  }
  run_step(run, index + 1);
}

void send(const std::shared_ptr<ChainRun>& run, std::size_t index) {
  RpcStep& step = run->chain->steps[index];
  run->chain->reached = std::max(run->chain->reached, step.instance + 1);
  step.call([run, index](Status s) { on_reply(run, index, std::move(s)); });
}

void run_step(const std::shared_ptr<ChainRun>& run, std::size_t index) {
  if (run->stopped()) return;
  if (index == run->chain->steps.size()) {
    run->done(ok_status(), index);
    return;
  }
  const RpcStep& step = run->chain->steps[index];
  const chaos::Decision fp = chaos::hit(step.site, step.caps, step.ctx);
  if (fp.drop()) {
    run->scheduler->schedule(0, [run, index, site = step.site] {
      on_reply(run, index,
               make_error("chaos.injected-drop", std::string("injected rpc drop at ") + site));
    });
  } else if (fp.delayed()) {
    run->scheduler->schedule(fp.delay, [run, index] {
      if (!run->stopped()) send(run, index);
    });
  } else {
    send(run, index);
  }
}

}  // namespace

void run_rpc_chain(EventScheduler& scheduler, std::shared_ptr<RpcChain> chain,
                   RpcChainHooks hooks, std::function<void(Status, std::size_t)> done) {
  run_step(std::make_shared<ChainRun>(
               ChainRun{&scheduler, std::move(chain), std::move(hooks), std::move(done)}),
           0);
}

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
  auto bring_up = std::make_shared<RpcChain>();
  for (std::size_t n = 0; n < record->vnfs.size(); ++n) {
    const VnfDeployment& d = record->vnfs[n];
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

    auto step = [&](std::function<void(netconf::VnfAgentClient::StatusCallback)> call) {
      bring_up->steps.push_back({"deploy.rpc",
                                 chaos::kCanCrash | chaos::kCanDrop | chaos::kCanDelay,
                                 chaos::SiteContext::of_container(d.container, chain_id), n,
                                 std::move(call)});
    };
    // Copied, not pointed-to: the caller's `rendered` vector may be a
    // temporary (the recovery path's is), and this step runs from a
    // scheduler callback long after deploy() returned.
    step([agent, v = *vnf, id = d.instance_id](auto cb) {
      agent->initiate_vnf(id, v.vnf_type, v.click_config, v.cpu_demand, std::move(cb));
    });
    step([agent, id = d.instance_id](auto cb) { agent->start_vnf(id, std::move(cb)); });
    step([agent, id = d.instance_id, port = d.container_in_port](auto cb) {
      agent->connect_vnf(id, "in0", port, std::move(cb));
    });
    step([agent, id = d.instance_id, port = d.container_out_port](auto cb) {
      agent->connect_vnf(id, "out0", port, std::move(cb));
    });
  }

  auto* engine = this;
  run_rpc_chain(
      network_->scheduler(), bring_up, {},
      [engine, bring_up, record, done](Status s, std::size_t failed) {
        if (!s.ok()) {
          // Partial-result reporting: annotate how far bring-up got, then
          // roll back the VNFs up to the failing step's (best effort --
          // some of them may live on an agent that just died).
          DeploymentRecord partial = *record;
          partial.vnfs.resize(bring_up->steps[failed].instance + 1);
          Error error = make_error(
              s.error().code,
              "chain " + std::to_string(record->chain_id) + " failed at bring-up step " +
                  std::to_string(failed + 1) + "/" + std::to_string(bring_up->steps.size()) +
                  ": " + s.error().message + " (partial bring-up rolled back)");
          engine->teardown_best_effort(partial, [done, error](Status) { done(error); });
          return;
        }
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
      });
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
  auto chain = std::make_shared<RpcChain>();
  for (std::size_t n = 0; n < record.vnfs.size(); ++n) {
    const VnfDeployment& d = record.vnfs[n];
    auto it = agents_.find(d.container);
    if (it == agents_.end()) {
      if (best_effort) continue;
      done(make_error("deploy.no-agent", "no management agent for " + d.container));
      return;
    }
    netconf::VnfAgentClient* agent = it->second;
    const unsigned caps = chaos::kCanCrash | chaos::kCanDrop | chaos::kCanDelay;
    chain->steps.push_back(
        {"teardown.rpc.stop", caps, chaos::SiteContext::of_container(d.container), n,
         [agent, id = d.instance_id](auto cb) { agent->stop_vnf(id, std::move(cb)); }});
    chain->steps.push_back(
        {"teardown.rpc.remove", caps, chaos::SiteContext::of_container(d.container), n,
         [agent, id = d.instance_id](auto cb) { agent->remove_vnf(id, std::move(cb)); }});
  }
  RpcChainHooks hooks;
  hooks.tolerate = [best_effort](const Error& error) {
    return best_effort || benign_teardown_error(error);
  };
  run_rpc_chain(network_->scheduler(), std::move(chain), std::move(hooks),
                [done = std::move(done)](Status s, std::size_t) { done(std::move(s)); });
}

}  // namespace escape::orchestrator
