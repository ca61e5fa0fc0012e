// The deployment engine: turns a MappingResult into a running service
// chain. It performs, in order:
//
//   1. veth allocation -- for every placed VNF, two dynamic links
//      (in/out) are created between its container and the switch(es) the
//      mapped path uses, with fresh port numbers on both sides (Mininet's
//      dynamically added interfaces);
//   2. VNF bring-up over NETCONF -- initiateVNF / startVNF / connectVNF
//      RPCs against the container's management agent, strictly
//      sequential per the management protocol;
//   3. traffic steering -- converts the mapped substrate paths plus the
//      allocated switch ports into one pox::ChainPath and installs it.
//
// Every ordered NETCONF sequence of the orchestrator -- this bring-up,
// teardown's stopVNF / removeVNF pairs, and the elastic-scaling
// generation bring-up and state hand-off (escape/environment.cpp) -- is
// a list of RpcSteps run by run_rpc_chain(): one place that passes each
// step through its fault point, stops at the first untolerated error and
// records how far the chain got.
//
// Everything is asynchronous over the shared virtual-time scheduler;
// completion (or the first error) is reported through a callback. The
// elapsed virtual time between start and completion is the chain setup
// latency measured by bench_chain_setup.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "chaos/fault_point.hpp"
#include "netconf/vnf_agent.hpp"
#include "netemu/network.hpp"
#include "orchestrator/mapping.hpp"
#include "pox/steering.hpp"
#include "service/layer.hpp"

namespace escape::orchestrator {

/// One NETCONF call of an ordered management sequence: the fault point
/// it passes (site, caps, crash target), the VNF instance it acts on (an
/// index into the caller's instance list) and the call itself.
struct RpcStep {
  const char* site = "";
  unsigned caps = 0;
  chaos::SiteContext ctx;
  std::size_t instance = 0;
  std::function<void(netconf::VnfAgentClient::StatusCallback)> call;
};

/// A step list and how far it got. The running chain shares it with its
/// caller, who reads `reached` to size a rollback.
struct RpcChain {
  std::vector<RpcStep> steps;
  /// One past the highest `instance` of a step that was sent: how many
  /// of the caller's instances the chain has touched.
  std::size_t reached = 0;
};

struct RpcChainHooks {
  /// Checked before each step and after each reply. True ends the chain
  /// there without calling `done`: the predicate's owner has taken over.
  std::function<bool()> stop;
  /// Errors the chain steps over instead of ending on them.
  std::function<bool(const Error&)> tolerate;
};

/// Runs `chain`'s steps in order, each through its fault point: an
/// injected drop fails the step one event later, as a real reply would;
/// an injected delay defers the send, and the stop predicate is checked
/// again when it runs; an injected crash kills the target inside
/// chaos::hit and the call then fails on its own. Ends with
/// done(error, index of the failing step) at the first error `tolerate`
/// does not accept, or with done(ok, steps.size()) after the last step.
void run_rpc_chain(EventScheduler& scheduler, std::shared_ptr<RpcChain> chain,
                   RpcChainHooks hooks, std::function<void(Status, std::size_t)> done);

/// Everything the engine records about one deployed VNF instance.
struct VnfDeployment {
  std::string vnf_id;       // the SG node id ("fw1")
  std::string instance_id;  // container-unique id ("chain3.fw1") used in RPCs
  std::string container;
  std::string in_switch;         // switch the in-link attaches to
  std::string out_switch;        // switch the out-link attaches to
  std::uint16_t container_in_port = 0;
  std::uint16_t container_out_port = 0;
  std::uint16_t switch_in_port = 0;   // packets leave the network here
  std::uint16_t switch_out_port = 0;  // packets re-enter the network here
};

struct DeploymentRecord {
  std::uint32_t chain_id = 0;
  MappingResult mapping;
  std::vector<VnfDeployment> vnfs;
  pox::ChainPath chain_path;
  SimTime started_at = 0;
  SimTime completed_at = 0;

  SimDuration setup_latency() const { return completed_at - started_at; }
};

class DeploymentEngine {
 public:
  using CompletionCallback = std::function<void(Result<DeploymentRecord>)>;

  /// `agents` maps container name -> its management client. All
  /// references must outlive the engine.
  DeploymentEngine(netemu::Network& network, pox::TrafficSteering& steering,
                   std::map<std::string, netconf::VnfAgentClient*> agents);

  /// Deploys a mapped chain. `view` must be the resource graph the
  /// mapping was computed against (its link indices resolve the ports);
  /// `match` is the chain's traffic specification (without in_port);
  /// `rendered` supplies per-VNF Click configs.
  void deploy(std::uint32_t chain_id, const MappingResult& mapping,
              const sg::ResourceGraph& view,
              const std::vector<service::RenderedVnf>& rendered, openflow::Match match,
              CompletionCallback done);

  /// Tears a chain down: removes steering flows and stops its VNFs.
  /// Idempotent: benign "already gone" outcomes (flows already removed,
  /// VNF already stopped or unknown, container crashed, agent session
  /// dead) are skipped over instead of aborting, so tearing down a
  /// half-dead chain -- or the same chain twice -- succeeds.
  void teardown(const DeploymentRecord& record, std::function<void(Status)> done);

  /// Teardown that tolerates *every* per-step error and always reports
  /// ok. Used for rollback of failed deploys and for recovery-triggered
  /// cleanup of stale remnants, where only best effort is possible.
  void teardown_best_effort(const DeploymentRecord& record, std::function<void(Status)> done);

  /// Teardown that stops the record's VNF instances but leaves steering
  /// alone. For retiring an old scale generation whose steering id has
  /// since been reclaimed by a live install (recovery re-embeds under
  /// the original id): removing the rules would strip the live chain.
  void teardown_instances(const DeploymentRecord& record, std::function<void(Status)> done);

  /// Link configuration used for dynamically created container<->switch
  /// links (the veth pairs).
  static netemu::LinkConfig veth_config();

  /// Adds one veth between `container` and `sw` on the next free port
  /// of each (Network::next_free_port) and returns the (container,
  /// switch) port pair. Adds nothing when either side has no port left.
  static Result<std::pair<std::uint16_t, std::uint16_t>> add_veth(netemu::Network& network,
                                                                  netemu::Node& container,
                                                                  netemu::Node& sw);

 private:
  void teardown_impl(const DeploymentRecord& record, bool best_effort, bool remove_steering,
                     std::function<void(Status)> done);
  Result<std::vector<VnfDeployment>> allocate_veths(std::uint32_t chain_id,
                                                    const MappingResult& mapping);
  Result<pox::ChainPath> compute_chain_path(std::uint32_t chain_id,
                                            const MappingResult& mapping,
                                            const sg::ResourceGraph& view,
                                            const std::vector<VnfDeployment>& vnfs,
                                            openflow::Match match) const;

  netemu::Network* network_;
  pox::TrafficSteering* steering_;
  std::map<std::string, netconf::VnfAgentClient*> agents_;
  Logger log_{"orchestrator.deploy"};
};

}  // namespace escape::orchestrator
