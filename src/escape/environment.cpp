#include "escape/environment.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "chaos/fault_point.hpp"
#include "obs/trace.hpp"
#include "service/catalog.hpp"

namespace escape {

std::string_view chain_state_name(ChainState state) {
  switch (state) {
    case ChainState::kActive: return "ACTIVE";
    case ChainState::kDegraded: return "DEGRADED";
    case ChainState::kRecovering: return "RECOVERING";
    case ChainState::kFailed: return "FAILED";
    case ChainState::kScaling: return "SCALING";
  }
  return "?";
}

namespace {

/// The lifecycle table (DESIGN §8): may a chain move from `from` to `to`?
[[maybe_unused]] bool legal_move(ChainState from, ChainState to) {
  using S = ChainState;
  switch (from) {
    case S::kActive: return to == S::kDegraded || to == S::kScaling;
    case S::kDegraded: return to != S::kScaling;
    case S::kRecovering: return to == S::kActive || to == S::kDegraded || to == S::kFailed;
    case S::kFailed: return to == S::kDegraded;
    case S::kScaling: return to == S::kActive || to == S::kDegraded;
  }
  return false;
}

}  // namespace

void Environment::transition(ChainDeployment& dep, ChainState to, std::string_view why) {
  const LogLevel level = to == ChainState::kFailed ? LogLevel::kError
                         : to == ChainState::kDegraded || to == ChainState::kRecovering
                             ? LogLevel::kWarn
                             : LogLevel::kInfo;
  log_.log(level, "chain ", dep.id, " ", chain_state_name(dep.state), " -> ",
           chain_state_name(to), ": ", why);
  assert(legal_move(dep.state, to) && "illegal chain-state transition");
  dep.state = to;
}

Environment::Environment(EnvironmentOptions options)
    : options_(std::move(options)), network_(scheduler_.shard(0)) {
  controller_ = std::make_unique<pox::Controller>(scheduler_.shard(0), options_.control_delay);
  controller_->set_wire_serialization(options_.serialize_control_channel);
  controller_->set_liveness(options_.controller_liveness);
  steering_ = std::make_shared<pox::TrafficSteering>();
  controller_->add_app(steering_);
  obs::MetricsRegistry::global().collect(this, [this](obs::SampleSink& sink) {
    std::size_t degraded = 0;
    for (const auto& [id, dep] : deployments_) {
      // A migrating (kScaling) chain is healthy, not degraded.
      degraded += dep.state == ChainState::kDegraded || dep.state == ChainState::kRecovering ||
                  dep.state == ChainState::kFailed;
      if (!dep.return_path) {
        sink.gauge("escape_chain_instances", {{"chain", std::to_string(id)}},
                   static_cast<double>(dep.scale_instances));
      }
    }
    sink.gauge("escape_chains_degraded", {}, static_cast<double>(degraded));
  });
}

Environment::~Environment() { obs::MetricsRegistry::global().remove_owner(this); }

Status Environment::load_topology(const service::TopologySpec& spec) {
  return spec.build(network_);
}

Status Environment::start() {
  // Partition the topology into shards before anything is wired across
  // it: controller channels and management pipes then register their
  // delays as cross-shard lookahead edges. Done once -- a re-start after
  // adding nodes keeps the existing partition (new nodes stay on shard
  // 0, which is always correct, just not load-balanced).
  if (!partitioned_) {
    partitioned_ = true;
    netemu::ShardBy mode = options_.shard_by;
    if (mode == netemu::ShardBy::kNone && options_.threads > 1) mode = netemu::ShardBy::kSwitch;
    const std::size_t shards = network_.partition(scheduler_, mode, options_.threads);
    if (shards > 1) {
      log_.info("partitioned network into ", shards, " shards, ",
                scheduler_.thread_count(), " worker threads");
    }
  }
  // Attach any unattached switches (Controller::attach_switch is
  // idempotent per dpid map insert, but avoid duplicate channels).
  for (const auto& name : network_.node_names()) {
    if (auto* sw = network_.switch_node(name)) {
      if (!controller_->connection(sw->dpid())) {
        sw->datapath().set_liveness(options_.switch_liveness);
        controller_->attach_switch(sw->datapath());
      }
    }
  }
  // One NETCONF agent/client pair per container over the control network.
  for (const auto& name : network_.node_names()) {
    if (auto* c = network_.container(name)) {
      if (mgmt_.count(name)) continue;
      // Agent end on the container's shard, client end on the control
      // shard; the pipe registers its delay as the edge lookahead.
      auto [server_end, client_end] =
          netconf::make_pipe(c->scheduler(), scheduler_.shard(0), options_.netconf_delay);
      ContainerMgmt m;
      m.slot = std::make_shared<AgentSlot>();
      m.slot->agent = std::make_unique<netconf::VnfAgent>(server_end, *c);
      m.client = std::make_unique<netconf::VnfAgentClient>(client_end);
      m.server_end = server_end;
      m.client_end = client_end;
      if (health_) {
        m.client->set_rpc_options(recovery_.rpc);
        m.client->set_circuit_breaker(recovery_.breaker);
        health_->watch_agent(name, m.client.get());
      }
      mgmt_[name] = std::move(m);
    }
  }
  // Complete the handshakes in virtual time.
  scheduler_.run_for(10 * std::max(options_.control_delay, options_.netconf_delay));

  for (const auto& name : network_.node_names()) {
    if (auto* sw = network_.switch_node(name)) {
      pox::SwitchConnection* conn = controller_->connection(sw->dpid());
      if (!conn || !conn->up()) {
        return make_error("escape.start.switch-down",
                          name + ": OpenFlow handshake did not complete");
      }
    }
  }
  for (auto& [name, m] : mgmt_) {
    if (!m.client->session().established()) {
      return make_error("escape.start.agent-down",
                        name + ": NETCONF session did not establish");
    }
  }

  // (Re)build the deployment engine with the current agent set.
  std::map<std::string, netconf::VnfAgentClient*> agents;
  for (auto& [name, m] : mgmt_) agents[name] = m.client.get();
  engine_ = std::make_unique<orchestrator::DeploymentEngine>(network_, *steering_,
                                                             std::move(agents));
  // Snapshot the substrate into the persistent orchestration view. A
  // re-start after adding nodes rebuilds it: container CPU in use is
  // already reflected by the live containers; link bandwidth reserved by
  // existing chains is re-applied from their ledgers (network links are
  // append-only, so recorded link indices stay valid).
  view_ = orchestrator::resource_view_from(network_);
  for (const auto& [id, dep] : deployments_) {
    for (const auto& lm : dep.reservations.links) view_->reserve_path(lm.path, lm.bandwidth_bps);
  }
  for (const auto& name : unavailable_containers_) view_->set_node_available(name, false);
  started_ = true;
  log_.info("environment up: ", network_.switch_count(), " switches, ",
            network_.container_count(), " containers, ", network_.host_count(), " hosts");
  return ok_status();
}

Status Environment::pump_until(const bool& flag, std::string_view what) {
  std::size_t guard = 0;
  while (!flag && scheduler_.step()) {
    if (++guard > 50'000'000) break;
  }
  if (!flag) {
    return make_error("escape.stalled",
                      std::string(what) + ": virtual time quiesced without completion");
  }
  return ok_status();
}

Result<openflow::Match> Environment::default_match(const sg::ServiceGraph& graph) {
  auto order = graph.chain_order();
  if (!order.ok()) return order.error();
  netemu::Host* src = network_.host(order->front());
  netemu::Host* dst = network_.host(order->back());
  if (!src || !dst) {
    return make_error("escape.no-sap-host",
                      "chain SAPs must correspond to hosts in the network");
  }
  openflow::Match match;
  match.dl_type(net::ethertype::kIpv4).nw_dst(dst->ip());
  // Pin the source only when no VNF on the chain rewrites it: a
  // NAT-style chain's post-VNF hops see the rewritten header, so a
  // src-pinned match would blackhole everything past the rewriter.
  bool rewrites_source = false;
  for (const auto& vnf : graph.vnfs()) {
    const service::VnfTemplate* tmpl = service_layer_.catalog().get(vnf.vnf_type);
    if (tmpl != nullptr && tmpl->rewrites_source) rewrites_source = true;
  }
  if (!rewrites_source) match.nw_src(src->ip());
  return match;
}

Result<std::uint32_t> Environment::deploy(const sg::ServiceGraph& graph) {
  if (!started_) return make_error("escape.not-started", "call start() before deploy()");
  auto match = default_match(graph);
  if (!match.ok()) return match.error();
  return deploy(graph, *match);
}

Result<Environment::Embedding> Environment::embed(const sg::ServiceGraph& graph) {
  // Service layer: validate + render Click configs.
  auto rendered = service_layer_.prepare(graph);
  if (!rendered.ok()) return rendered.error();
  // Orchestration layer: map against the persistent view so the other
  // chains' CPU/slot/bandwidth reservations are respected. On success
  // the algorithm commits this chain's reservations into the view.
  auto algorithm = orchestrator::MappingRegistry::global().create(options_.mapping_algorithm);
  if (!algorithm) {
    return make_error("escape.unknown-algorithm",
                      "no mapping algorithm named '" + options_.mapping_algorithm + "'");
  }
  auto mapping = algorithm->map(graph, *view_);
  if (!mapping.ok()) return mapping.error();
  Embedding e{std::move(*rendered), std::move(*mapping), {}};
  e.ledger.links = e.mapping.link_mappings;
  for (const auto& [vnf, container] : e.mapping.placements) {
    if (const sg::VnfNode* node = graph.vnf(vnf)) {
      e.ledger.cpu.emplace_back(container, node->cpu_demand);
    }
  }
  return e;
}

void Environment::release(ReservationLedger& ledger) {
  if (view_) {
    for (const auto& lm : ledger.links) view_->release_path(lm.path, lm.bandwidth_bps);
    for (const auto& [container, cpu] : ledger.cpu) view_->release_vnf(container, cpu);
  }
  ledger = {};
}

Result<std::uint32_t> Environment::deploy(const sg::ServiceGraph& graph,
                                          openflow::Match match) {
  if (!started_) return make_error("escape.not-started", "call start() before deploy()");
  auto embedding = embed(graph);
  if (!embedding.ok()) return embedding.error();
  log_.info("mapping: ", embedding->mapping.to_string());

  // Deployment: NETCONF bring-up + steering, pumped to completion.
  const std::uint32_t chain_id = next_chain_id_++;
  bool done = false;
  Result<orchestrator::DeploymentRecord> outcome =
      make_error("escape.deploy.pending", "in flight");
  engine_->deploy(chain_id, embedding->mapping, *view_, embedding->rendered, match,
                  [&done, &outcome](Result<orchestrator::DeploymentRecord> r) {
                    outcome = std::move(r);
                    done = true;
                  });
  if (auto s = pump_until(done, "deploy"); !s.ok()) outcome = s.error();
  if (!outcome.ok()) {
    release(embedding->ledger);
    return outcome.error();
  }

  ChainDeployment& dep = deployments_[chain_id];
  dep.id = chain_id;
  dep.graph = graph;
  dep.record = std::move(*outcome);
  dep.reservations = std::move(embedding->ledger);
  log_.info("chain ", chain_id, " deployed in ",
            static_cast<double>(dep.record.setup_latency()) / timeunit::kMillisecond,
            " ms (virtual)");
  watch_chain_policy(chain_id);
  return chain_id;
}

Result<std::uint32_t> Environment::install_return_path(std::uint32_t chain_id) {
  const ChainDeployment* dep = deployment(chain_id);
  if (!dep) {
    return make_error("escape.unknown-chain",
                      "chain not deployed: " + std::to_string(chain_id));
  }
  auto order = dep->graph.chain_order();
  if (!order.ok()) return order.error();
  const std::string& entry = order->front();
  const std::string& exit = order->back();
  netemu::Host* entry_host = network_.host(entry);
  netemu::Host* exit_host = network_.host(exit);
  if (!entry_host || !exit_host) {
    return make_error("escape.no-sap-host", "chain SAPs must be hosts");
  }

  // Route the reverse direction on the current substrate (switches only;
  // the mapped VNFs are not traversed).
  sg::ResourceGraph view = orchestrator::resource_view_from(network_);
  auto path = view.shortest_path(exit, entry);
  if (!path || path->nodes.size() < 3) {
    return make_error("escape.no-return-route", "no switched route " + exit + " -> " + entry);
  }

  pox::ChainPath reverse;
  reverse.chain_id = next_chain_id_++;
  reverse.match = openflow::Match()
                      .dl_type(net::ethertype::kIpv4)
                      .nw_src(exit_host->ip())
                      .nw_dst(entry_host->ip());
  for (std::size_t j = 1; j + 1 < path->nodes.size(); ++j) {
    netemu::SwitchNode* sw = network_.switch_node(path->nodes[j]);
    if (!sw) {
      return make_error("escape.no-return-route",
                        "return path transits non-switch " + path->nodes[j]);
    }
    reverse.hops.push_back(
        {sw->dpid(), view.port_on(path->link_indices[j - 1], path->nodes[j]),
         view.port_on(path->link_indices[j], path->nodes[j])});
  }
  if (auto s = steering_->install_chain(reverse); !s.ok()) return s.error();
  // Let the flow-mods land before reporting the path usable.
  scheduler_.run_for(4 * options_.control_delay + timeunit::kMillisecond);

  ChainDeployment record;
  record.id = reverse.chain_id;
  record.graph = sg::ServiceGraph("return-of-" + std::to_string(chain_id));
  record.record.chain_id = reverse.chain_id;
  record.record.chain_path = reverse;
  record.return_path = true;
  deployments_[reverse.chain_id] = std::move(record);
  return reverse.chain_id;
}

const ChainDeployment* Environment::deployment(std::uint32_t chain_id) const {
  auto it = deployments_.find(chain_id);
  return it == deployments_.end() ? nullptr : &it->second;
}

std::vector<std::uint32_t> Environment::deployed_chains() const {
  std::vector<std::uint32_t> out;
  for (const auto& [id, _] : deployments_) out.push_back(id);
  return out;
}

Status Environment::undeploy(std::uint32_t chain_id) {
  auto it = deployments_.find(chain_id);
  if (it == deployments_.end()) {
    return make_error("escape.unknown-chain", "chain not deployed: " + std::to_string(chain_id));
  }
  bool done = false;
  Status outcome = ok_status();
  engine_->teardown(it->second.record, [&done, &outcome](Status s) {
    outcome = std::move(s);
    done = true;
  });
  if (auto s = pump_until(done, "undeploy"); !s.ok()) return s;
  if (!outcome.ok()) return outcome;
  release(it->second.reservations);
  if (autoscaler_) autoscaler_->unwatch_chain(chain_id);
  deployments_.erase(it);
  return ok_status();
}

netconf::VnfAgentClient* Environment::agent_client(const std::string& container_name) {
  auto it = mgmt_.find(container_name);
  return it == mgmt_.end() ? nullptr : it->second.client.get();
}

Result<pox::ChainStats> Environment::chain_stats(std::uint32_t chain_id) {
  bool done = false;
  Result<pox::ChainStats> outcome = make_error("escape.stats.pending", "in flight");
  steering_->query_chain_stats(chain_id, [&done, &outcome](Result<pox::ChainStats> r) {
    outcome = std::move(r);
    done = true;
  });
  if (auto s = pump_until(done, "chain_stats"); !s.ok()) return s.error();
  return outcome;
}

Status Environment::watch_vnf_events(
    std::function<void(const std::string&, const std::string&, netemu::VnfStatus)> cb) {
  auto shared = std::make_shared<decltype(cb)>(std::move(cb));
  for (auto& [name, m] : mgmt_) {
    bool done = false;
    Status outcome = ok_status();
    m.client->subscribe_events(
        [shared, container = name](const std::string& vnf_id, netemu::VnfStatus status) {
          (*shared)(container, vnf_id, status);
        },
        [&done, &outcome](Status s) {
          outcome = std::move(s);
          done = true;
        });
    if (auto s = pump_until(done, "watch_vnf_events"); !s.ok()) return s;
    if (!outcome.ok()) return outcome;
  }
  return ok_status();
}

// --- fault injection hooks -----------------------------------------------------

Status Environment::kill_container(const std::string& name) {
  netemu::VnfContainer* c = network_.container(name);
  auto it = mgmt_.find(name);
  if (!c || it == mgmt_.end()) {
    return make_error("escape.unknown-container", "no managed container named " + name);
  }
  log_.warn("fault: killing container ", name);
  // The agent dies with its container: close the transport first so the
  // client (and the health monitor) learn within one control delay. Both
  // operations belong to the container's shard.
  run_on_shard(c->scheduler(), [server = it->second.server_end, c] {
    server->close();
    c->crash();
  });
  dead_containers_.insert(name);
  unavailable_containers_.insert(name);
  if (view_) view_->set_node_available(name, false);
  return ok_status();
}

Status Environment::restore_container(const std::string& name) {
  netemu::VnfContainer* c = network_.container(name);
  if (!c || !mgmt_.count(name)) {
    return make_error("escape.unknown-container", "no managed container named " + name);
  }
  run_on_shard(c->scheduler(), [c] { c->restore(); });
  dead_containers_.erase(name);
  return respawn_agent(name);
}

Status Environment::crash_agent(const std::string& name) {
  auto it = mgmt_.find(name);
  if (it == mgmt_.end()) {
    return make_error("escape.unknown-container", "no managed container named " + name);
  }
  log_.warn("fault: crashing NETCONF agent of ", name);
  netemu::VnfContainer* c = network_.container(name);
  run_on_shard(c->scheduler(), [server = it->second.server_end] { server->close(); });
  // Unmanageable == unusable for new placements until the agent returns.
  unavailable_containers_.insert(name);
  if (view_) view_->set_node_available(name, false);
  return ok_status();
}

Status Environment::respawn_agent(const std::string& name) {
  netemu::VnfContainer* c = network_.container(name);
  auto it = mgmt_.find(name);
  if (!c || it == mgmt_.end()) {
    return make_error("escape.unknown-container", "no managed container named " + name);
  }
  ContainerMgmt& m = it->second;
  auto old_server = m.server_end;
  auto [server_end, client_end] =
      netconf::make_pipe(c->scheduler(), scheduler_.shard(0), options_.netconf_delay);
  m.server_end = server_end;
  m.client_end = client_end;
  // Old-agent teardown (unregisters its container state listener) and
  // the new agent's construction touch container-shard state; the slot
  // keeps the handover ordered on that shard. Posted before the client
  // rebind below so the fresh hello finds the new agent listening.
  run_on_shard(c->scheduler(), [slot = m.slot, old_server, server_end, c] {
    if (old_server && !old_server->closed()) old_server->close();
    slot->agent.reset();
    slot->agent = std::make_unique<netconf::VnfAgent>(server_end, *c);
  });
  m.client->session().rebind(client_end);
  if (!dead_containers_.count(name)) {
    unavailable_containers_.erase(name);
    if (view_) view_->set_node_available(name, true);
  }
  log_.info("fault: respawned agent for ", name, " (session re-establishing)");
  return ok_status();
}

Status Environment::set_link_state(const std::string& a, const std::string& b, bool up) {
  if (auto s = network_.set_link_state(a, b, up); !s.ok()) return s;
  // Keep the orchestration view in sync even without a health monitor.
  if (view_) view_->set_link_available(a, b, up);
  return ok_status();
}

Status Environment::set_netconf_faults(const std::string& name,
                                       const netconf::TransportFaults& faults) {
  auto it = mgmt_.find(name);
  if (it == mgmt_.end()) {
    return make_error("escape.unknown-container", "no managed container named " + name);
  }
  netconf::TransportFaults f = faults;
  it->second.client_end->set_faults(f);
  f.seed = faults.seed + 1;  // decorrelate the two directions
  run_on_shard(network_.container(name)->scheduler(), [server = it->second.server_end, f] {
    server->set_faults(f);
  });
  return ok_status();
}

Status Environment::clear_netconf_faults(const std::string& name) {
  auto it = mgmt_.find(name);
  if (it == mgmt_.end()) {
    return make_error("escape.unknown-container", "no managed container named " + name);
  }
  it->second.client_end->clear_faults();
  run_on_shard(network_.container(name)->scheduler(),
               [server = it->second.server_end] { server->clear_faults(); });
  return ok_status();
}

Status Environment::set_of_channel_state(const std::string& switch_name, bool up) {
  auto* sw = network_.switch_node(switch_name);
  if (!sw) return make_error("escape.unknown-switch", "no switch named " + switch_name);
  return controller_->set_channel_admin(sw->dpid(), up);
}

Status Environment::flap_of_channel(const std::string& switch_name, SimDuration down_for) {
  if (auto s = set_of_channel_state(switch_name, false); !s.ok()) return s;
  std::weak_ptr<bool> alive = alive_;
  scheduler_.schedule(down_for, [this, alive, name = switch_name] {
    if (alive.expired()) return;
    if (auto s = set_of_channel_state(name, true); !s.ok()) {
      log_.warn("of-channel flap restore failed for ", name, ": ", s.error().to_string());
    }
  });
  return ok_status();
}

Status Environment::set_of_channel_faults(const std::string& switch_name, double drop_prob,
                                          SimDuration extra_delay, std::uint64_t seed) {
  auto* sw = network_.switch_node(switch_name);
  if (!sw) return make_error("escape.unknown-switch", "no switch named " + switch_name);
  return controller_->set_channel_faults(sw->dpid(), drop_prob, extra_delay, seed);
}

Status Environment::clear_of_channel_faults(const std::string& switch_name) {
  auto* sw = network_.switch_node(switch_name);
  if (!sw) return make_error("escape.unknown-switch", "no switch named " + switch_name);
  return controller_->clear_channel_faults(sw->dpid());
}

Status Environment::restart_switch(const std::string& switch_name) {
  auto* sw = network_.switch_node(switch_name);
  if (!sw) return make_error("escape.unknown-switch", "no switch named " + switch_name);
  run_on_shard(sw->scheduler(), [sw] { sw->datapath().restart(); });
  return ok_status();
}

// --- self-healing ---------------------------------------------------------------

Status Environment::enable_self_healing(RecoveryOptions options) {
  if (!started_) {
    return make_error("escape.not-started", "call start() before enable_self_healing()");
  }
  recovery_ = options;
  health_ = std::make_unique<orchestrator::HealthMonitor>(scheduler_.shard(0), options.health);
  for (auto& [name, m] : mgmt_) {
    m.client->set_rpc_options(options.rpc);
    m.client->set_circuit_breaker(options.breaker);
    health_->watch_agent(name, m.client.get());
  }
  health_->watch_links(network_);

  std::weak_ptr<bool> alive = alive_;
  health_->on_agent_down([this, alive](const std::string& container) {
    if (alive.expired()) return;
    unavailable_containers_.insert(container);
    if (view_) view_->set_node_available(container, false);
    degrade_chains_on_container(container);
  });
  health_->on_agent_up([this, alive](const std::string& container) {
    if (alive.expired()) return;
    netemu::VnfContainer* node = network_.container(container);
    if (node && node->alive()) {
      unavailable_containers_.erase(container);
      if (view_) view_->set_node_available(container, true);
    }
    // Fresh capacity may unblock chains waiting for a re-embed. A chain
    // degraded on steering grounds only keeps its placement: the resync
    // repairs its rules in place (DESIGN §9).
    for (auto& [id, dep] : deployments_) {
      const bool waiting = dep.state == ChainState::kFailed ||
                           (dep.state == ChainState::kDegraded && dep.dirty_dpids.empty());
      if (!waiting) continue;
      dep.recovery_attempts = 0;
      schedule_reembed(dep, 0, "agent up, re-queued");
    }
  });
  health_->on_link_state([this, alive](const std::string& a, const std::string& b, bool up) {
    if (alive.expired()) return;
    if (view_) view_->set_link_available(a, b, up);
    if (!up) degrade_chains_on_link(a, b);
  });
  // Steering divergence feed: chains whose rules sit on a diverged dpid
  // degrade, and the resync (not a re-embed) brings them back.
  health_->watch_steering(*steering_);
  health_->on_dpid_diverged([this, alive](openflow::DatapathId dpid) {
    if (alive.expired()) return;
    degrade_chains_on_dpid(dpid);
  });
  health_->on_dpid_resynced([this, alive](openflow::DatapathId dpid, std::size_t) {
    if (alive.expired()) return;
    handle_dpid_resynced(dpid);
  });
  health_->start();
  log_.info("self-healing enabled: probing ", mgmt_.size(), " agents every ",
            static_cast<double>(options.health.probe_interval) / timeunit::kMillisecond,
            " ms");
  return ok_status();
}

Result<ChainState> Environment::chain_state(std::uint32_t chain_id) const {
  const ChainDeployment* dep = deployment(chain_id);
  if (!dep) {
    return make_error("escape.unknown-chain",
                      "chain not deployed: " + std::to_string(chain_id));
  }
  return dep->state;
}

void Environment::degrade_chains_on_container(const std::string& container) {
  for (auto& [id, dep] : deployments_) {
    bool uses = false;
    for (const auto& [vnf, placed_on] : dep.record.mapping.placements) {
      uses = uses || placed_on == container;
    }
    if (uses) queue_recovery(id);
  }
}

void Environment::degrade_chains_on_link(const std::string& a, const std::string& b) {
  for (auto& [id, dep] : deployments_) {
    bool uses = false;
    // Substrate segments of the mapping...
    for (const auto& lm : dep.record.mapping.link_mappings) {
      const auto& nodes = lm.path.nodes;
      for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
        uses = uses || (nodes[i] == a && nodes[i + 1] == b) ||
               (nodes[i] == b && nodes[i + 1] == a);
      }
    }
    // ...and the dynamically created veths.
    for (const auto& v : dep.record.vnfs) {
      const bool veth_a = v.container == a && (v.in_switch == b || v.out_switch == b);
      const bool veth_b = v.container == b && (v.in_switch == a || v.out_switch == a);
      uses = uses || veth_a || veth_b;
    }
    if (uses) queue_recovery(id);
  }
}

void Environment::degrade_chains_on_dpid(openflow::DatapathId dpid) {
  for (const std::uint32_t chain_id : steering_->chains_on(dpid)) {
    auto it = deployments_.find(chain_id);
    if (it == deployments_.end()) continue;
    ChainDeployment& dep = it->second;
    if (dep.state == ChainState::kActive) {
      // Steering-only degradation: the chain's VNFs are untouched, only
      // the switch rules are untrusted. The post-reconnect resync
      // repairs them in place, so no recovery (re-embed) is queued.
      dep.dirty_dpids.insert(dpid);
      transition(dep, ChainState::kDegraded, "steering diverged");
    } else if (dep.state == ChainState::kDegraded && !dep.dirty_dpids.empty()) {
      dep.dirty_dpids.insert(dpid);
    } else if (dep.state == ChainState::kScaling) {
      // The migration's barrier-confirmed installs can no longer be
      // trusted on this dpid: abort the migration and re-embed.
      queue_recovery(chain_id);
    }
  }
}

void Environment::handle_dpid_resynced(openflow::DatapathId dpid) {
  for (auto& [id, dep] : deployments_) {
    if (dep.dirty_dpids.erase(dpid) != 0 && dep.dirty_dpids.empty()) {
      transition(dep, ChainState::kActive, "steering rules resynced");
    }
  }
}

void Environment::queue_recovery(std::uint32_t chain_id) {
  auto it = deployments_.find(chain_id);
  if (it == deployments_.end() || it->second.state == ChainState::kRecovering) return;
  if (it->second.state == ChainState::kScaling) {
    // Fault mid-migration: abort the in-flight scale. Its async steps
    // observe the epoch bump, unwind their half-built generation and
    // release its reservations; the chain itself takes the normal
    // DEGRADED -> RECOVERING path below.
    ++it->second.scale_epoch;
    log_.warn("chain ", chain_id, " migration aborted by fault");
  }
  schedule_reembed(it->second, 0, "queued for re-embed");
}

void Environment::schedule_reembed(ChainDeployment& dep, SimDuration delay,
                                   std::string_view why) {
  // The re-embed reinstalls the chain's rules itself, so it supersedes
  // any steering-only degradation.
  dep.dirty_dpids.clear();
  transition(dep, ChainState::kDegraded, why);
  std::weak_ptr<bool> alive = alive_;
  scheduler_.schedule(delay, [this, alive, chain_id = dep.id] {
    if (!alive.expired()) recover_chain(chain_id);
  });
}

void Environment::recover_chain(std::uint32_t chain_id) {
  auto it = deployments_.find(chain_id);
  if (it == deployments_.end()) return;
  ChainDeployment& dep = it->second;
  if (dep.state != ChainState::kDegraded || !dep.dirty_dpids.empty() || !engine_ || !view_) {
    return;
  }
  if (dep.recovery_attempts >= recovery_.max_recovery_attempts) {
    transition(dep, ChainState::kFailed, "recovery attempts exhausted");
    return;
  }
  ++dep.recovery_attempts;
  transition(dep, ChainState::kRecovering, "re-embedding");
  const SimTime started = scheduler_.now();
  const std::uint64_t span = obs::tracer().begin_span(
      started, "recovery", "re-embed",
      "chain " + std::to_string(chain_id) + " attempt " +
          std::to_string(dep.recovery_attempts));

  std::weak_ptr<bool> alive = alive_;
  // Injectable: a crash right as recovery starts tearing down remnants
  // (the classic close-session-races-a-kill window).
  chaos::hit("recover.teardown", chaos::kCanCrash,
             chaos::SiteContext::of_container(
                 dep.record.vnfs.empty() ? std::string() : dep.record.vnfs.front().container,
                 chain_id));
  // Step 1: best-effort teardown of the stale remnants (dead agents and
  // already-gone VNFs are fine -- that is the point).
  engine_->teardown_best_effort(dep.record, [this, alive, chain_id, started, span](Status) {
    if (alive.expired()) return;
    auto it = deployments_.find(chain_id);
    if (it == deployments_.end()) return;
    ChainDeployment& dep = it->second;
    release(dep.reservations);

    // Step 2: re-map against the surviving resource view.
    auto embedding = embed(dep.graph);
    if (!embedding.ok()) {
      finish_recovery(chain_id, started, span, embedding.error());
      return;
    }
    const orchestrator::MappingResult& mapping = embedding->mapping;
    dep.reservations = std::move(embedding->ledger);
    // The record describes the new placement from here, so a fault on it
    // reaches the chain while it redeploys.
    dep.record.mapping = mapping;
    // The re-embed runs the ORIGINAL (unscaled) graph, so the scaling
    // state dies here: one instance, and a fresh anchor computed from
    // the recovered path if the chain scales again.
    dep.scale_instances = 1;
    dep.scale_generation = 0;
    dep.scale_anchor.reset();
    log_.info("chain ", chain_id, " re-mapped: ", mapping.to_string());

    // Injectable: a crash between the remap's reservation commit and the
    // redeploy -- the ledger-balance invariant watches this window.
    chaos::hit("recover.redeploy", chaos::kCanCrash,
               chaos::SiteContext::of_container(
                   mapping.placements.empty() ? std::string() : mapping.placements.begin()->second,
                   chain_id));

    // Step 3: redeploy under the same chain id (fresh veths + steering).
    const openflow::Match match = dep.record.chain_path.match;
    engine_->deploy(
        chain_id, mapping, *view_, embedding->rendered, match,
        [this, alive, chain_id, started, span](Result<orchestrator::DeploymentRecord> r) {
          if (alive.expired()) return;
          auto it = deployments_.find(chain_id);
          if (it == deployments_.end()) return;
          if (r.ok()) {
            it->second.record = std::move(*r);
            finish_recovery(chain_id, started, span, ok_status());
          } else {
            release(it->second.reservations);
            finish_recovery(chain_id, started, span, r.error());
          }
        });
  });
}

void Environment::finish_recovery(std::uint32_t chain_id, SimTime started,
                                  std::uint64_t span, Status outcome) {
  auto& registry = obs::MetricsRegistry::global();
  obs::tracer().end_span(span, scheduler_.now(),
                         outcome.ok() ? "ok" : outcome.error().code);
  auto it = deployments_.find(chain_id);
  if (it == deployments_.end()) return;
  ChainDeployment& dep = it->second;
  if (outcome.ok()) {
    transition(dep, ChainState::kActive, "re-embedded");
    dep.recovery_attempts = 0;
    const double latency_ms =
        static_cast<double>(scheduler_.now() - started) / timeunit::kMillisecond;
    registry.counter("escape_recovery_total", {{"result", "ok"}}).add();
    registry.histogram("escape_recovery_latency_ms").record(latency_ms);
    log_.info("chain ", chain_id, " recovered in ", latency_ms, " ms (virtual)");
  } else {
    registry.counter("escape_recovery_total", {{"result", "failed"}}).add();
    log_.warn("chain ", chain_id, " recovery attempt failed: ",
              outcome.error().to_string());
    if (dep.recovery_attempts >= recovery_.max_recovery_attempts) {
      transition(dep, ChainState::kFailed, "recovery attempts exhausted");
    } else {
      schedule_reembed(dep, recovery_.retry_delay, "retrying re-embed");
    }
  }
}

// --- elastic scaling -------------------------------------------------------------
//
// The make-before-break migration: a new generation of the chain's VNF
// (splitter + replicas, or one plain instance) is brought up and its
// steering barrier-confirmed at priority old+1 while the old generation
// keeps serving; only then is per-flow state handed off and the old
// generation retired. Every asynchronous step re-checks the chain's
// scale_epoch so a fault mid-migration unwinds the half-built
// generation instead of racing the recovery path (the Environment is
// the single owner of chain-state transitions).

/// In-flight migration state. Lives in shared_ptr captures across the
/// NETCONF/steering callback chain.
struct ScaleJob {
  std::uint32_t chain_id = 0;
  std::size_t target = 1;
  std::uint64_t epoch = 0;       // dep.scale_epoch at start; moves -> abort
  std::uint32_t generation = 0;  // the generation being built
  std::uint32_t steering_id = 0; // fresh steering id of the new rule set
  std::string vnf_id;            // the chain's single scaled VNF
  bool stateful = false;         // replica type embeds a FlowManager

  // New generation ([0] is the splitter when target > 1).
  std::vector<orchestrator::VnfDeployment> new_vnfs;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> splitter_outs;  // (cport, sport)
  ReservationLedger ledger;  // the new generation's CPU shares
  pox::ChainPath new_path;
  bool steering_installed = false;
  // The NETCONF bring-up. The unwind tears down the new instances it
  // reached.
  std::shared_ptr<orchestrator::RpcChain> bring_up;

  // Old generation snapshot (swapped out on commit).
  std::vector<orchestrator::VnfDeployment> old_vnfs;
  std::vector<orchestrator::VnfDeployment> old_sources;  // stateful instances to export
  pox::ChainPath old_path;

  // Migration payload: one blob per old source.
  std::vector<std::string> exports;

  SimTime started = 0;
  std::uint64_t span = 0;
  bool finished = false;
  bool unwound = false;
  std::function<void(Status)> done;
};

namespace {

/// The steering geometry every generation splices into: the hops before
/// the VNF hand-off and after the re-entry, from the pristine path.
Result<ScaleAnchor> compute_scale_anchor(netemu::Network& network,
                                         const orchestrator::DeploymentRecord& record) {
  if (record.vnfs.size() != 1) {
    return make_error("autoscale.unsupported-chain",
                      "scaling requires a single-VNF chain");
  }
  const orchestrator::VnfDeployment& v = record.vnfs.front();
  netemu::SwitchNode* in_sw = network.switch_node(v.in_switch);
  netemu::SwitchNode* out_sw = network.switch_node(v.out_switch);
  if (!in_sw || !out_sw) {
    return make_error("autoscale.unsupported-chain", "anchor switches missing");
  }
  ScaleAnchor anchor;
  anchor.in_switch = v.in_switch;
  anchor.out_switch = v.out_switch;
  anchor.in_dpid = in_sw->dpid();
  anchor.out_dpid = out_sw->dpid();
  const auto& hops = record.chain_path.hops;
  std::size_t k = hops.size(), m = hops.size();
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (k == hops.size() && hops[i].dpid == anchor.in_dpid &&
        hops[i].out_port == v.switch_in_port) {
      k = i;
    }
    if (m == hops.size() && hops[i].dpid == anchor.out_dpid &&
        hops[i].in_port == v.switch_out_port) {
      m = i;
    }
  }
  if (k >= hops.size() || m >= hops.size() || k >= m) {
    return make_error("autoscale.unsupported-chain",
                      "chain path has no recognizable VNF hand-off");
  }
  anchor.entry_in_port = hops[k].in_port;
  anchor.exit_out_port = hops[m].out_port;
  anchor.prefix.assign(hops.begin(), hops.begin() + static_cast<std::ptrdiff_t>(k));
  anchor.suffix.assign(hops.begin() + static_cast<std::ptrdiff_t>(m) + 1, hops.end());
  return anchor;
}

}  // namespace

Result<std::size_t> Environment::chain_instances(std::uint32_t chain_id) const {
  const ChainDeployment* dep = deployment(chain_id);
  if (!dep) {
    return make_error("escape.unknown-chain",
                      "chain not deployed: " + std::to_string(chain_id));
  }
  return dep->scale_instances;
}

Status Environment::scale_chain(std::uint32_t chain_id, std::size_t target) {
  bool done = false;
  Status outcome = ok_status();
  scale_chain_async(chain_id, target, [&done, &outcome](Status s) {
    outcome = std::move(s);
    done = true;
  });
  if (auto s = pump_until(done, "scale_chain"); !s.ok()) return s;
  return outcome;
}

void Environment::scale_chain_async(std::uint32_t chain_id, std::size_t target,
                                    std::function<void(Status)> done) {
  if (!started_ || !engine_ || !view_) {
    done(make_error("escape.not-started", "call start() before scale_chain()"));
    return;
  }
  auto it = deployments_.find(chain_id);
  if (it == deployments_.end()) {
    done(make_error("escape.unknown-chain",
                    "chain not deployed: " + std::to_string(chain_id)));
    return;
  }
  ChainDeployment& dep = it->second;
  if (dep.state != ChainState::kActive) {
    done(make_error("autoscale.chain-not-active",
                    "chain " + std::to_string(chain_id) + " is " +
                        std::string(chain_state_name(dep.state))));
    return;
  }
  if (target < 1 || target > 64) {
    done(make_error("autoscale.bad-target", "target must be in [1, 64]"));
    return;
  }
  if (target == dep.scale_instances) {
    done(ok_status());
    return;
  }
  if (dep.graph.vnfs().size() != 1) {
    done(make_error("autoscale.unsupported-chain",
                    "scaling requires a single-VNF chain"));
    return;
  }
  const sg::VnfNode& vnf = dep.graph.vnfs().front();
  const service::VnfTemplate* tmpl = service_layer_.catalog().get(vnf.vnf_type);
  if (!tmpl) {
    done(make_error("catalog.unknown-type", "no such VNF type: " + vnf.vnf_type));
    return;
  }
  if (!dep.scale_anchor) {
    auto anchor = compute_scale_anchor(network_, dep.record);
    if (!anchor.ok()) {
      done(anchor.error());
      return;
    }
    dep.scale_anchor = std::move(*anchor);
  }
  const ScaleAnchor& anchor = *dep.scale_anchor;

  auto job = std::make_shared<ScaleJob>();
  job->chain_id = chain_id;
  job->target = target;
  job->epoch = dep.scale_epoch;
  job->generation = dep.scale_generation + 1;
  job->steering_id = next_chain_id_++;
  job->vnf_id = vnf.id;
  job->stateful = tmpl->config_template.find("FlowManager") != std::string::npos;
  job->old_vnfs = dep.record.vnfs;
  job->old_path = dep.record.chain_path;
  for (const auto& v : job->old_vnfs) {
    if (v.vnf_id == job->vnf_id && job->stateful) job->old_sources.push_back(v);
  }
  const double replica_cpu = vnf.cpu_demand > 0 ? vnf.cpu_demand : tmpl->default_cpu;
  job->done = std::move(done);
  job->started = scheduler_.now();
  job->span = obs::tracer().begin_span(
      job->started, "autoscale", "migrate",
      "chain " + std::to_string(chain_id) + " " +
          std::to_string(dep.scale_instances) + " -> " + std::to_string(target));

  // --- render the new generation's Click configs (pure). -------------------
  const bool with_splitter = target > 1;
  // flow_nat replicas get disjoint external-port ranges so new flows
  // allocated after the migration can never collide across replicas
  // (imported mappings outside a replica's range stay valid: reverse
  // translation is map-driven, and freeing a foreign port is a no-op).
  const bool partition_ports =
      tmpl->param_defaults.count("port_base") && tmpl->param_defaults.count("port_count");
  std::uint32_t port_base = 0, port_count = 0;
  if (partition_ports) {
    auto param_of = [&](const char* key) -> std::uint32_t {
      auto pit = vnf.params.find(key);
      const std::string& raw =
          pit != vnf.params.end() ? pit->second : tmpl->param_defaults.at(key);
      return static_cast<std::uint32_t>(std::strtoul(raw.c_str(), nullptr, 10));
    };
    port_base = param_of("port_base");
    port_count = param_of("port_count");
  }
  std::vector<std::string> configs;   // per new instance, [0] = splitter
  std::vector<double> cpus;
  if (with_splitter) {
    configs.push_back(service::render_flow_splitter(target));
    cpus.push_back(0.1);
  }
  for (std::size_t i = 0; i < target; ++i) {
    auto params = vnf.params;
    if (partition_ports && port_count > 0) {
      params["port_base"] =
          std::to_string(port_base + static_cast<std::uint32_t>(i) * port_count);
    }
    auto rendered = service_layer_.catalog().render(vnf.vnf_type, params);
    if (!rendered.ok()) {
      obs::tracer().end_span(job->span, scheduler_.now(), rendered.error().code);
      job->done(rendered.error());
      return;
    }
    configs.push_back(std::move(*rendered));
    cpus.push_back(replica_cpu);
  }

  // --- reserve CPU + allocate veths (synchronous side effects). ------------
  transition(dep, ChainState::kScaling, "migration started");

  auto fail_sync = [this, job, &dep](Error error) {
    release(job->ledger);
    transition(dep, ChainState::kActive, "migration failed to start");
    obs::tracer().end_span(job->span, scheduler_.now(), error.code);
    obs::MetricsRegistry::global()
        .counter("escape_scale_total", {{"result", "failed"}})
        .add();
    job->finished = true;
    job->done(error);
  };

  // Injectable: a crash right before the new generation's CPU is
  // reserved -- the preferred container dying here forces the placement
  // loop onto the spare while the old generation keeps serving.
  chaos::hit("scale.reserve", chaos::kCanCrash,
             chaos::SiteContext::of_container(job->old_vnfs.front().container, chain_id));

  const std::string preferred = job->old_vnfs.front().container;
  auto place = [this, &preferred](double cpu) -> Result<std::string> {
    if (const sg::ResourceNode* p = view_->node(preferred);
        p != nullptr && p->available && view_->reserve_vnf(preferred, cpu).ok()) {
      return preferred;
    }
    for (const auto& node : view_->nodes()) {
      if (node.kind != sg::ResourceKind::kContainer || !node.available) continue;
      if (node.name == preferred) continue;
      if (view_->reserve_vnf(node.name, cpu).ok()) return node.name;
    }
    return make_error("autoscale.no-capacity",
                      "no container can host another replica");
  };

  for (std::size_t n = 0; n < configs.size(); ++n) {
    const bool is_splitter = with_splitter && n == 0;
    auto placed = place(cpus[n]);
    if (!placed.ok()) {
      fail_sync(placed.error());
      return;
    }
    job->ledger.cpu.emplace_back(*placed, cpus[n]);
    netemu::VnfContainer* container = network_.container(*placed);
    netemu::SwitchNode* in_sw = network_.switch_node(anchor.in_switch);
    netemu::SwitchNode* out_sw = network_.switch_node(anchor.out_switch);
    if (!container || !in_sw || !out_sw) {
      fail_sync(make_error("autoscale.unsupported-chain", "anchor nodes vanished"));
      return;
    }

    orchestrator::VnfDeployment d;
    d.vnf_id = is_splitter ? job->vnf_id + "#splitter" : job->vnf_id;
    d.container = *placed;
    d.in_switch = anchor.in_switch;
    d.out_switch = is_splitter ? anchor.in_switch : anchor.out_switch;
    const std::string base =
        "chain" + std::to_string(chain_id) + ".g" + std::to_string(job->generation) +
        "." + job->vnf_id;
    d.instance_id = is_splitter
                        ? base + ".s"
                        : base + ".r" + std::to_string(n - (with_splitter ? 1 : 0));

    using orchestrator::DeploymentEngine;
    auto in_veth = DeploymentEngine::add_veth(network_, *container, *in_sw);
    if (!in_veth.ok()) {
      fail_sync(in_veth.error());
      return;
    }
    std::tie(d.container_in_port, d.switch_in_port) = *in_veth;
    if (is_splitter) {
      for (std::size_t i = 0; i < target; ++i) {
        auto out_veth = DeploymentEngine::add_veth(network_, *container, *in_sw);
        if (!out_veth.ok()) {
          fail_sync(out_veth.error());
          return;
        }
        job->splitter_outs.push_back(*out_veth);
      }
      std::tie(d.container_out_port, d.switch_out_port) = job->splitter_outs.front();
    } else {
      auto out_veth = DeploymentEngine::add_veth(network_, *container, *out_sw);
      if (!out_veth.ok()) {
        fail_sync(out_veth.error());
        return;
      }
      std::tie(d.container_out_port, d.switch_out_port) = *out_veth;
    }
    job->new_vnfs.push_back(std::move(d));
  }

  // --- new-generation steering at priority old+1. --------------------------
  job->new_path.chain_id = job->steering_id;
  job->new_path.match = job->old_path.match;
  job->new_path.priority = static_cast<std::uint16_t>(job->old_path.priority + 1);
  job->new_path.hops = anchor.prefix;
  if (with_splitter) {
    const orchestrator::VnfDeployment& sp = job->new_vnfs.front();
    job->new_path.hops.push_back({anchor.in_dpid, anchor.entry_in_port, sp.switch_in_port});
    for (std::size_t i = 0; i < target; ++i) {
      const orchestrator::VnfDeployment& r = job->new_vnfs[1 + i];
      job->new_path.hops.push_back(
          {anchor.in_dpid, job->splitter_outs[i].second, r.switch_in_port});
      job->new_path.hops.push_back(
          {anchor.out_dpid, r.switch_out_port, anchor.exit_out_port});
    }
  } else {
    const orchestrator::VnfDeployment& r = job->new_vnfs.front();
    job->new_path.hops.push_back({anchor.in_dpid, anchor.entry_in_port, r.switch_in_port});
    job->new_path.hops.push_back({anchor.out_dpid, r.switch_out_port, anchor.exit_out_port});
  }
  job->new_path.hops.insert(job->new_path.hops.end(), anchor.suffix.begin(),
                            anchor.suffix.end());

  // --- the NETCONF bring-up, one new instance after another. ----------------
  job->bring_up = std::make_shared<orchestrator::RpcChain>();
  for (std::size_t n = 0; n < job->new_vnfs.size(); ++n) {
    const orchestrator::VnfDeployment& d = job->new_vnfs[n];
    const bool is_splitter = with_splitter && n == 0;
    netconf::VnfAgentClient* agent = agent_client(d.container);
    if (agent == nullptr) {
      fail_sync(make_error("deploy.no-agent", "no management agent for " + d.container));
      return;
    }
    auto step = [&](std::function<void(netconf::VnfAgentClient::StatusCallback)> call) {
      job->bring_up->steps.push_back({"scale.rpc",
                                      chaos::kCanCrash | chaos::kCanDrop | chaos::kCanDelay,
                                      chaos::SiteContext::of_container(d.container, chain_id),
                                      n, std::move(call)});
    };
    const std::string type = is_splitter ? "flow_splitter" : vnf.vnf_type;
    step([agent, id = d.instance_id, type, config = configs[n], cpu = cpus[n]](auto cb) {
      agent->initiate_vnf(id, type, config, cpu, std::move(cb));
    });
    step([agent, id = d.instance_id](auto cb) { agent->start_vnf(id, std::move(cb)); });
    step([agent, id = d.instance_id, port = d.container_in_port](auto cb) {
      agent->connect_vnf(id, "in0", port, std::move(cb));
    });
    if (is_splitter) {
      for (std::size_t i = 0; i < target; ++i) {
        step([agent, id = d.instance_id, dev = "out" + std::to_string(i),
              port = job->splitter_outs[i].first](auto cb) {
          agent->connect_vnf(id, dev, port, std::move(cb));
        });
      }
    } else {
      step([agent, id = d.instance_id, port = d.container_out_port](auto cb) {
        agent->connect_vnf(id, "out0", port, std::move(cb));
      });
    }
    if (!with_splitter && job->stateful) {
      // The single new instance is its own entry: its FlowManager must
      // buffer from the cut-over until the imported state arrives (the
      // splitter variant is rendered HOLD true from birth instead).
      step([agent, id = d.instance_id](auto cb) {
        agent->set_vnf_handler(id, "fm.hold", "1", std::move(cb));
      });
    }
  }

  scale_steps(job, job->bring_up, "generation bring-up", [this, job] { scale_cut_over(job); });
}

void Environment::scale_steps(const std::shared_ptr<ScaleJob>& job,
                              std::shared_ptr<orchestrator::RpcChain> chain, const char* phase,
                              std::function<void()> next) {
  std::weak_ptr<bool> alive = alive_;
  orchestrator::RpcChainHooks hooks;
  hooks.stop = [this, alive, job] { return alive.expired() || scale_aborted(job); };
  const std::size_t total = chain->steps.size();
  orchestrator::run_rpc_chain(
      network_.scheduler(), std::move(chain), std::move(hooks),
      [this, job, phase, total, next = std::move(next)](Status s, std::size_t failed) {
        if (s.ok()) {
          next();
          return;
        }
        scale_fail(job, make_error(s.error().code, std::string(phase) + " step " +
                                                       std::to_string(failed + 1) + "/" +
                                                       std::to_string(total) + ": " +
                                                       s.error().message));
      });
}

bool Environment::scale_aborted(const std::shared_ptr<ScaleJob>& job) {
  if (job->finished) return true;
  auto it = deployments_.find(job->chain_id);
  if (it != deployments_.end() && it->second.scale_epoch == job->epoch) return false;
  // The chain vanished (undeploy) or a fault bumped the epoch: unwind
  // the half-built generation. The chain's own lifecycle is already in
  // the hands of the recovery path -- do not touch its state here.
  job->finished = true;
  scale_unwind(job);
  obs::tracer().end_span(job->span, scheduler_.now(), "aborted");
  obs::MetricsRegistry::global()
      .counter("escape_scale_total", {{"result", "aborted"}})
      .add();
  log_.warn("chain ", job->chain_id, " migration unwound (generation ",
            job->generation, ")");
  job->done(make_error("autoscale.aborted", "migration aborted by fault or undeploy"));
  return true;
}

void Environment::scale_unwind(const std::shared_ptr<ScaleJob>& job) {
  if (job->unwound) return;
  job->unwound = true;
  release(job->ledger);
  std::weak_ptr<bool> alive = alive_;
  auto finish = [this, alive, job] {
    if (alive.expired()) return;
    if (job->steering_installed) steering_->remove_chain(job->steering_id);
    if (job->bring_up->reached == 0) return;
    // Packets already steered at the new generation are still in flight
    // (and the removal flow-mods have not landed yet): keep the
    // instances serving one settle window before tearing them down.
    scheduler_.schedule(4 * options_.control_delay + scale_drain_, [this, alive, job] {
      if (alive.expired()) return;
      orchestrator::DeploymentRecord remnants;
      remnants.chain_id = job->steering_id;
      remnants.chain_path.chain_id = job->steering_id;  // already removed; benign
      remnants.vnfs.assign(
          job->new_vnfs.begin(),
          job->new_vnfs.begin() + static_cast<std::ptrdiff_t>(job->bring_up->reached));
      engine_->teardown_best_effort(remnants, [](Status) {});
    });
  };
  // If the cut-over already happened, the new generation's entry is
  // holding flows it never got state for. Flush them through the live
  // replicas (fresh state, but delivered) before the rules come out --
  // an aborted migration must not strand buffered packets.
  const bool entry_holds =
      job->steering_installed && (job->target > 1 || job->stateful) && job->bring_up->reached > 0;
  netconf::VnfAgentClient* entry_agent =
      entry_holds ? agent_client(job->new_vnfs.front().container) : nullptr;
  if (entry_agent != nullptr) {
    entry_agent->set_vnf_handler(job->new_vnfs.front().instance_id, "fm.hold", "0",
                                 [finish](Status) { finish(); });
    return;
  }
  finish();
}

void Environment::scale_fail(std::shared_ptr<ScaleJob> job, Error error) {
  if (job->finished) return;
  job->finished = true;
  scale_unwind(job);
  auto it = deployments_.find(job->chain_id);
  if (it != deployments_.end() && it->second.scale_epoch == job->epoch &&
      it->second.state == ChainState::kScaling) {
    transition(it->second, ChainState::kActive, "migration failed; old generation serves");
  }
  obs::tracer().end_span(job->span, scheduler_.now(), error.code);
  obs::MetricsRegistry::global()
      .counter("escape_scale_total", {{"result", "failed"}})
      .add();
  log_.warn("chain ", job->chain_id, " scale failed: ", error.to_string());
  job->done(error);
}

void Environment::scale_cut_over(std::shared_ptr<ScaleJob> job) {
  // Injectable: the steering cut-over to the new generation.
  const chaos::Decision fp = chaos::hit(
      "scale.cutover", chaos::kCanCrash | chaos::kCanDrop,
      job->new_path.hops.empty()
          ? chaos::SiteContext::of_container(std::string(), job->chain_id)
          : chaos::SiteContext::of_switch(job->new_path.hops.front().dpid, job->chain_id));
  if (fp.drop()) {
    scale_fail(job, make_error("chaos.injected-drop", "steering cut-over dropped"));
    return;
  }
  // Make before break: the new rules must be confirmed on every dpid
  // before any packet is steered by them -- and the old rules are not
  // touched until the new generation has the traffic.
  steering_->install_chain_confirmed(job->new_path, [this, job](Status s) {
    job->steering_installed = s.ok();
    if (scale_aborted(job)) return;
    if (!s.ok()) {
      scale_fail(job, s.error());
      return;
    }
    // Drain window: packets already steered down the old path reach the
    // old instances before their state is exported.
    std::weak_ptr<bool> alive = alive_;
    scheduler_.schedule(scale_drain_, [this, alive, job] {
      if (alive.expired() || scale_aborted(job)) return;
      scale_hand_off(job);
    });
  });
}

void Environment::scale_hand_off(std::shared_ptr<ScaleJob> job) {
  // Every hand-off step acts on one instance through its container's
  // agent; a missing agent fails the migration before the list runs.
  using AgentCall =
      std::function<void(netconf::VnfAgentClient&, netconf::VnfAgentClient::StatusCallback)>;
  auto add_step = [this, job](orchestrator::RpcChain& chain, const char* site,
                              const orchestrator::VnfDeployment& d, std::size_t n,
                              AgentCall call) {
    netconf::VnfAgentClient* agent = agent_client(d.container);
    if (agent == nullptr) {
      scale_fail(job, make_error("deploy.no-agent", "no management agent for " + d.container));
      return false;
    }
    chain.steps.push_back(
        {site, chaos::kCanCrash | chaos::kCanDrop,
         chaos::SiteContext::of_container(d.container, job->chain_id), n,
         [agent, call = std::move(call)](auto cb) { call(*agent, std::move(cb)); }});
    return true;
  };

  // Injectable: the state hand-off starts with an export from each old
  // instance -- a crash here strands the flow table on a dying VNF.
  auto exports = std::make_shared<orchestrator::RpcChain>();
  for (std::size_t i = 0; i < job->old_sources.size(); ++i) {
    const orchestrator::VnfDeployment& src = job->old_sources[i];
    if (!add_step(*exports, "scale.export", src, i,
                  [job, id = src.instance_id](netconf::VnfAgentClient& agent, auto cb) {
                    agent.export_flow_state(id, [job, cb](Result<std::string> blob) {
                      if (!blob.ok()) {
                        cb(blob.error());
                        return;
                      }
                      job->exports.push_back(std::move(*blob));
                      cb(ok_status());
                    });
                  })) {
      return;
    }
  }
  scale_steps(job, std::move(exports), "flow-state export", [this, job, add_step] {
    // Injectable: the matching import into each new replica that has
    // state to receive, then the release of the entry's packet hold -- a
    // crash between import and release is the classic window for leaked
    // "fm.hold" state.
    const std::vector<std::string> parts = netemu::split_flow_state(job->exports, job->target);
    auto imports = std::make_shared<orchestrator::RpcChain>();
    for (std::size_t r = 0; r < job->target; ++r) {
      if (parts[r].empty()) continue;
      const std::size_t n = job->target > 1 ? 1 + r : 0;
      const orchestrator::VnfDeployment& dst = job->new_vnfs[n];
      if (!add_step(*imports, "scale.import", dst, n,
                    [id = dst.instance_id, blob = parts[r]](netconf::VnfAgentClient& agent,
                                                            auto cb) {
                      agent.import_flow_state(id, blob, std::move(cb));
                    })) {
        return;
      }
    }
    const orchestrator::VnfDeployment& entry = job->new_vnfs.front();
    if ((job->target > 1 || job->stateful) &&
        !add_step(*imports, "scale.release-hold", entry, 0,
                  [id = entry.instance_id](netconf::VnfAgentClient& agent, auto cb) {
                    agent.set_vnf_handler(id, "fm.hold", "0", std::move(cb));
                  })) {
      return;
    }
    scale_steps(job, std::move(imports), "flow-state import", [this, job] { scale_commit(job); });
  });
}

void Environment::scale_commit(std::shared_ptr<ScaleJob> job) {
  // Injectable: the ledger/record commit point itself.
  chaos::hit("scale.commit", chaos::kCanCrash,
             chaos::SiteContext::of_container(job->new_vnfs.front().container,
                                              job->chain_id));
  auto it = deployments_.find(job->chain_id);
  if (it == deployments_.end()) return;  // scale_aborted handled it
  ChainDeployment& dep = it->second;
  job->finished = true;

  // The new generation owns the record from here: teardown/undeploy and
  // any later recovery see the live instances and the live steering id.
  dep.record.chain_path = job->new_path;
  dep.record.vnfs = job->new_vnfs;
  dep.scale_generation = job->generation;
  dep.scale_instances = job->target;
  // The old generation's CPU shares leave the chain's ledger and go
  // back to the view.
  std::swap(dep.reservations.cpu, job->ledger.cpu);
  release(job->ledger);
  transition(dep, ChainState::kActive, "migration committed");

  auto& registry = obs::MetricsRegistry::global();
  registry.counter("escape_scale_total", {{"result", "ok"}}).add();
  const double latency_ms =
      static_cast<double>(scheduler_.now() - job->started) / timeunit::kMillisecond;
  registry.histogram("escape_scale_latency_ms").record(latency_ms);
  obs::tracer().end_span(job->span, scheduler_.now(), "ok");
  log_.info("chain ", job->chain_id, " scaled to ", job->target, " instance(s) in ",
            latency_ms, " ms (virtual), generation ", job->generation);

  // Retire the old generation through the engine's idempotent teardown
  // (removes its steering rules by the old path id, then stops its
  // VNFs; "already gone" outcomes are stepped over). Its reservations
  // were already released above -- exactly once, whatever happens here.
  orchestrator::DeploymentRecord old_generation;
  old_generation.chain_id = job->chain_id;
  old_generation.chain_path = job->old_path;
  old_generation.vnfs = job->old_vnfs;
  // The migration itself is committed -- the job succeeds whatever
  // happens to the retirement below, but a transiently failed teardown
  // must be RETRIED, not shrugged off: nothing else remembers the old
  // generation, and its stranded steering rules turn into stray
  // flow-table entries when a later install reuses the id (found by the
  // chaos explorer via a teardown.steering drop).
  engine_->teardown(old_generation, [this, job, old_generation](Status s) {
    if (!s.ok()) {
      log_.warn("chain ", job->chain_id, " old-generation teardown attempt 1 failed (",
                s.error().to_string(), "); retrying in background");
      std::weak_ptr<bool> alive = alive_;
      scheduler_.schedule(recovery_.retry_delay, [this, alive, old_generation] {
        if (!alive.expired()) retire_old_generation(old_generation, 2);
      });
    }
    job->done(ok_status());
  });
}

void Environment::retire_old_generation(orchestrator::DeploymentRecord record, int attempt) {
  constexpr int kMaxAttempts = 3;
  // Between attempts the world may have moved: a recovery re-embeds the
  // chain under its ORIGINAL steering id and original instance ids --
  // exactly what a generation-0 retirement record describes. Anything
  // the live record now owns is no longer ours to tear down.
  auto steering_id_of = [](const orchestrator::DeploymentRecord& r) {
    return r.chain_path.chain_id != 0 ? r.chain_path.chain_id : r.chain_id;
  };
  bool steering_reclaimed = false;
  if (auto it = deployments_.find(record.chain_id); it != deployments_.end()) {
    const orchestrator::DeploymentRecord& live = it->second.record;
    steering_reclaimed = steering_id_of(live) == steering_id_of(record);
    auto owned_by_live = [&live](const orchestrator::VnfDeployment& d) {
      for (const auto& l : live.vnfs) {
        if (l.container == d.container && l.instance_id == d.instance_id) return true;
      }
      return false;
    };
    std::erase_if(record.vnfs, owned_by_live);
  }
  if (steering_reclaimed) {
    // The live install owns the steering id but not necessarily the old
    // path's flow-table rules: the hop identities differ when the
    // re-embed allocated fresh veth ports, and nothing else purges them
    // (the reconnect audit only runs on dpids whose connection dropped).
    steering_->remove_stale_path(record.chain_path);
  }
  if (steering_reclaimed && record.vnfs.empty()) {
    log_.info("chain ", record.chain_id,
              " old generation fully reclaimed by a live install; nothing to retire");
    return;
  }
  auto finish = [this, record, attempt](Status s) {
    if (s.ok()) {
      log_.info("chain ", record.chain_id, " old generation retired on attempt ", attempt);
      return;
    }
    if (attempt >= kMaxAttempts) {
      log_.warn("chain ", record.chain_id, " old-generation teardown incomplete after ",
                attempt, " attempt(s): ", s.error().to_string());
      return;
    }
    std::weak_ptr<bool> alive = alive_;
    scheduler_.schedule(recovery_.retry_delay, [this, alive, record, attempt] {
      if (!alive.expired()) retire_old_generation(record, attempt + 1);
    });
  };
  if (steering_reclaimed) {
    engine_->teardown_instances(record, std::move(finish));
  } else {
    engine_->teardown(record, std::move(finish));
  }
}

// --- autoscaling policy loop -----------------------------------------------------

Status Environment::enable_autoscaling(orchestrator::AutoScalerOptions options) {
  if (!started_) {
    return make_error("escape.not-started", "call start() before enable_autoscaling()");
  }
  scale_drain_ = options.drain;
  orchestrator::AutoScaler::Hooks hooks;
  std::weak_ptr<bool> alive = alive_;
  hooks.instances = [this, alive](std::uint32_t chain) -> std::size_t {
    if (alive.expired()) return 0;
    const ChainDeployment* dep = deployment(chain);
    return dep != nullptr ? dep->scale_instances : 0;
  };
  hooks.eligible = [this, alive](std::uint32_t chain) {
    if (alive.expired()) return false;
    const ChainDeployment* dep = deployment(chain);
    return dep != nullptr && dep->state == ChainState::kActive;
  };
  hooks.sample = [this, alive](std::uint32_t chain, const orchestrator::ScalingPolicy& policy,
                               std::function<void(Result<double>)> cb) {
    if (alive.expired()) return;
    sample_chain_handler(chain, policy, std::move(cb));
  };
  hooks.scale_to = [this, alive](std::uint32_t chain, const orchestrator::ScalingPolicy&,
                                 std::size_t target, std::function<void(Status)> cb) {
    if (alive.expired()) return;
    scale_chain_async(chain, target, std::move(cb));
  };
  autoscaler_ = std::make_unique<orchestrator::AutoScaler>(scheduler_.shard(0),
                                                           std::move(options),
                                                           std::move(hooks));
  for (const auto& [id, dep] : deployments_) watch_chain_policy(id);
  autoscaler_->start();
  log_.info("autoscaling enabled: ", autoscaler_->options().policies.size(),
            " policies, tick ",
            static_cast<double>(autoscaler_->options().tick) / timeunit::kMillisecond,
            " ms");
  return ok_status();
}

void Environment::watch_chain_policy(std::uint32_t chain_id) {
  if (!autoscaler_) return;
  const ChainDeployment* dep = deployment(chain_id);
  if (!dep) return;
  for (const orchestrator::ScalingPolicy& policy : autoscaler_->options().policies) {
    if (dep->graph.vnf(policy.vnf) != nullptr) {
      autoscaler_->watch_chain(chain_id, policy);
      return;
    }
  }
}

void Environment::sample_chain_handler(std::uint32_t chain_id,
                                       const orchestrator::ScalingPolicy& policy,
                                       std::function<void(Result<double>)> cb) {
  const ChainDeployment* dep = deployment(chain_id);
  if (!dep) {
    cb(make_error("escape.unknown-chain", "chain gone: " + std::to_string(chain_id)));
    return;
  }
  std::vector<std::pair<std::string, std::string>> targets;  // (container, instance)
  for (const auto& v : dep->record.vnfs) {
    if (v.vnf_id == policy.vnf) targets.emplace_back(v.container, v.instance_id);
  }
  if (targets.empty()) {
    cb(make_error("autoscale.no-instances",
                  "chain " + std::to_string(chain_id) + " has no instance of " + policy.vnf));
    return;
  }
  struct Fan {
    double sum = 0;
    std::size_t pending = 0;
    bool failed = false;
    std::function<void(Result<double>)> cb;
  };
  auto fan = std::make_shared<Fan>();
  fan->pending = targets.size();
  fan->cb = std::move(cb);
  for (const auto& [container, instance] : targets) {
    netconf::VnfAgentClient* client = agent_client(container);
    if (client == nullptr) {
      if (!fan->failed) {
        fan->failed = true;
      }
      if (--fan->pending == 0) {
        fan->cb(make_error("deploy.no-agent", "agent gone during sample"));
      }
      continue;
    }
    client->get_vnf_info(instance,
                         [fan, handler = policy.handler](Result<netemu::VnfInfo> r) {
                           if (r.ok()) {
                             auto hit = r->handlers.find(handler);
                             if (hit != r->handlers.end()) {
                               fan->sum += std::strtod(hit->second.c_str(), nullptr);
                             } else {
                               fan->failed = true;
                             }
                           } else {
                             fan->failed = true;
                           }
                           if (--fan->pending == 0) {
                             if (fan->failed) {
                               fan->cb(make_error("autoscale.sample-failed",
                                                  "handler sample incomplete"));
                             } else {
                               fan->cb(fan->sum);
                             }
                           }
                         });
  }
}

Result<netemu::VnfInfo> Environment::monitor_vnf(const std::string& container_name,
                                                 const std::string& vnf_id) {
  netconf::VnfAgentClient* client = agent_client(container_name);
  if (!client) {
    return make_error("escape.unknown-container", "no agent for " + container_name);
  }
  bool done = false;
  Result<netemu::VnfInfo> outcome = make_error("escape.monitor.pending", "in flight");
  client->get_vnf_info(vnf_id, [&done, &outcome](Result<netemu::VnfInfo> r) {
    outcome = std::move(r);
    done = true;
  });
  if (auto s = pump_until(done, "monitor_vnf"); !s.ok()) return s.error();
  return outcome;
}

}  // namespace escape
