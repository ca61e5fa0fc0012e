// The top-level ESCAPE environment: one object wiring all three UNIFY
// layers together (Fig. 1 of the paper).
//
//   Service layer        -- VNF catalog, service graphs, SLA checks
//   Orchestration layer  -- mapping algorithms + deployment engine,
//                           NETCONF client per container
//   Infrastructure layer -- emulated network (hosts/switches/containers),
//                           POX-style controller with traffic steering,
//                           NETCONF agent per container
//
// Typical use (the five demo steps):
//   escape::Environment env;
//   ... build env.network() or load a TopologySpec ...        // step 1
//   env.start();
//   sg::ServiceGraph graph = ...;                             // step 2
//   auto dep = env.deploy(graph, "sap1", "sap2");             // step 3
//   env.host("sap1")->start_udp_flow(...); env.run_for(...);  // step 4
//   env.monitor_vnf(...)                                      // step 5
#pragma once

#include <map>
#include <memory>
#include <set>

#include "netconf/vnf_agent.hpp"
#include "netemu/network.hpp"
#include "orchestrator/autoscaler.hpp"
#include "orchestrator/deployment.hpp"
#include "orchestrator/health_monitor.hpp"
#include "orchestrator/mapping.hpp"
#include "orchestrator/view.hpp"
#include "pox/steering.hpp"
#include "service/formats.hpp"
#include "service/layer.hpp"

namespace escape {

struct EnvironmentOptions {
  /// One-way delay of the OpenFlow control channel.
  SimDuration control_delay = 100 * timeunit::kMicrosecond;
  /// One-way delay of the NETCONF control network.
  SimDuration netconf_delay = 200 * timeunit::kMicrosecond;
  /// Mapping algorithm name (see orchestrator::MappingRegistry).
  std::string mapping_algorithm = "greedy";
  /// Run the OpenFlow control channel through the real ofp10 wire codec
  /// (encode -> bytes -> decode) instead of moving typed structs.
  bool serialize_control_channel = false;
  /// Echo keepalive policy of the controller toward each switch.
  pox::ControllerLiveness controller_liveness;
  /// Echo keepalive + fail-mode policy applied to every switch datapath.
  openflow::SwitchLiveness switch_liveness;
  /// Parallel execution: worker threads for the sharded event engine
  /// (1 = sequential). Results are bit-identical across thread counts
  /// for a fixed shard_by mode.
  std::size_t threads = 1;
  /// How start() partitions the topology into shards. kNone keeps
  /// everything on one queue; threads > 1 with kNone defaults to
  /// kSwitch. NOTE: the partition (not the thread count) fixes event
  /// ordering, so kNone/threads=1 runs are comparable with each other
  /// but not with kSwitch runs.
  netemu::ShardBy shard_by = netemu::ShardBy::kNone;
};

/// Self-healing policy: how aggressively the environment probes agents
/// and retries/recovers failed chains once enable_self_healing() is on.
struct RecoveryOptions {
  orchestrator::HealthMonitorOptions health;
  /// Reliability envelope applied to every management RPC (deployment
  /// and teardown traffic included): per-RPC timeout + bounded backoff.
  netconf::RpcOptions rpc{20 * timeunit::kMillisecond, 4, 2 * timeunit::kMillisecond,
                          50 * timeunit::kMillisecond, 0.2};
  netconf::CircuitBreakerOptions breaker;
  /// Re-embedding attempts per chain before it is declared failed.
  int max_recovery_attempts = 3;
  /// Pause between failed recovery attempts.
  SimDuration retry_delay = 100 * timeunit::kMillisecond;
};

/// Lifecycle of a deployed chain under the fault plane and the elastic
/// scaler. kScaling means a make-before-break migration is in flight.
/// Environment::transition is the one writer and checks every move
/// against the table in DESIGN §8, so a fault arriving mid-migration
/// aborts the migration (scale_epoch bump) and routes the chain through
/// the normal kDegraded -> kRecovering path.
enum class ChainState : std::uint8_t { kActive, kDegraded, kRecovering, kFailed, kScaling };

std::string_view chain_state_name(ChainState state);

/// Steering geometry a scaled chain keeps across migration generations:
/// the rule prefix between the entry SAP and the anchor switch, the
/// suffix from the re-entry switch to the exit SAP, and the two fixed
/// substrate ports the per-generation fan-out splices into. Computed
/// once from the pristine (unscaled) chain path.
struct ScaleAnchor {
  openflow::DatapathId in_dpid = 0;
  openflow::DatapathId out_dpid = 0;
  std::string in_switch;   // veths of new generations attach here...
  std::string out_switch;  // ...and re-enter the substrate here
  std::uint16_t entry_in_port = 0;  // anchor hop's substrate-facing in_port
  std::uint16_t exit_out_port = 0;  // re-entry hop's substrate-facing out_port
  std::vector<pox::SteeringHop> prefix;  // hops before the VNF hand-off
  std::vector<pox::SteeringHop> suffix;  // hops after the re-entry
};

/// What a chain holds in the orchestration view: the link paths it
/// reserved bandwidth on and one CPU share per live instance. Set from
/// the mapping at deploy and re-map, swapped at scale commit, emptied on
/// release; the view's books are the sum of the chains' ledgers.
struct ReservationLedger {
  std::vector<orchestrator::LinkMapping> links;
  std::vector<std::pair<std::string, double>> cpu;  // (container, share)
};

/// A deployed service chain with its measured bring-up record.
struct ChainDeployment {
  std::uint32_t id = 0;
  sg::ServiceGraph graph;
  orchestrator::DeploymentRecord record;
  /// Written only by Environment::transition.
  ChainState state = ChainState::kActive;
  ReservationLedger reservations;
  int recovery_attempts = 0;
  /// Steering-only degradation: while the chain is DEGRADED, the dpids
  /// whose flow tables diverged (OpenFlow channel drop / switch restart)
  /// under its rules. The resync repairs them in place and the chain is
  /// ACTIVE again once the last one is barrier-confirmed clean. Empty
  /// for a chain waiting for a re-embed.
  std::set<openflow::DatapathId> dirty_dpids;
  /// Elastic-scaling state. `scale_instances` replicas of the chain's
  /// (single) VNF currently serve traffic; `scale_generation` counts
  /// completed migrations (0 = pristine). Bumping `scale_epoch` aborts
  /// an in-flight migration: every async step re-checks it and unwinds
  /// its half-built generation when stale.
  std::size_t scale_instances = 1;
  std::uint32_t scale_generation = 0;
  std::uint64_t scale_epoch = 0;
  std::optional<ScaleAnchor> scale_anchor;
  /// Installed by install_return_path: steering only, no instances.
  bool return_path = false;
};

struct ScaleJob;  // internal migration state machine (environment.cpp)

class Environment {
 public:
  explicit Environment(EnvironmentOptions options = {});
  ~Environment();

  /// The sharded engine driving virtual time. Single-shard (the
  /// default) behaves exactly like the classic single EventScheduler;
  /// shard(0) is the control shard hosting the controller and the
  /// orchestration-side management endpoints.
  ShardedScheduler& scheduler() { return scheduler_; }
  netemu::Network& network() { return network_; }
  pox::Controller& controller() { return *controller_; }
  pox::TrafficSteering& steering() { return *steering_; }
  service::ServiceLayer& service_layer() { return service_layer_; }
  const EnvironmentOptions& options() const { return options_; }

  /// The orchestration view's live reservation accounting (nullptr
  /// before start()). Read-only: tests and tools assert CPU/slot
  /// bookkeeping against it.
  const sg::ResourceGraph* resource_view() const { return view_ ? &*view_ : nullptr; }

  /// Builds the topology from a declarative spec (alternative to
  /// populating network() by hand). Call before start().
  Status load_topology(const service::TopologySpec& spec);

  /// Brings the environment up: attaches the controller to every switch,
  /// creates a NETCONF agent + client pair per container, and runs the
  /// handshakes to completion. Idempotent for newly added containers.
  Status start();
  bool started() const { return started_; }

  /// Convenience accessors.
  netemu::Host* host(const std::string& name) { return network_.host(name); }
  netemu::VnfContainer* container(const std::string& name) {
    return network_.container(name);
  }

  // --- virtual time ------------------------------------------------------

  void run_for(SimDuration duration) { scheduler_.run_for(duration); }
  std::size_t run_until_idle(std::size_t max_events = 10'000'000) {
    return scheduler_.run(max_events);
  }

  // --- deployment (demo step 3) ------------------------------------------

  /// Maps and deploys `graph` between its entry and exit SAPs, steering
  /// IPv4 traffic from the entry SAP host's address to the exit SAP
  /// host's address through the chain. Synchronous: pumps virtual time
  /// until the deployment completes. Returns the chain id.
  Result<std::uint32_t> deploy(const sg::ServiceGraph& graph);

  /// Deploy with an explicit traffic match (e.g. only UDP port 53).
  Result<std::uint32_t> deploy(const sg::ServiceGraph& graph, openflow::Match match);

  /// Installs a VNF-free return path for a deployed chain: reverse
  /// traffic (exit SAP -> entry SAP) is switched along the shortest
  /// substrate route, bypassing the VNFs. This is what makes
  /// request/response traffic (ping, UDP echo) work through a
  /// unidirectional chain. Returns the id of the new (pure-steering)
  /// chain; undeploy it like any other.
  Result<std::uint32_t> install_return_path(std::uint32_t chain_id);

  const ChainDeployment* deployment(std::uint32_t chain_id) const;
  std::vector<std::uint32_t> deployed_chains() const;

  /// Removes a chain: steering flows deleted, VNFs stopped and removed.
  Status undeploy(std::uint32_t chain_id);

  // --- monitoring (demo step 5: Clicky over NETCONF) ----------------------

  /// Queries a VNF's live info (status + all Click handler values)
  /// through the container's management agent. Synchronous.
  Result<netemu::VnfInfo> monitor_vnf(const std::string& container_name,
                                      const std::string& vnf_id);

  /// Queries a chain's traffic counters at its first hop through the
  /// OpenFlow control channel (flow-stats correlated by cookie).
  /// Synchronous.
  Result<pox::ChainStats> chain_stats(std::uint32_t chain_id);

  /// The management client of a container (for advanced/async use).
  netconf::VnfAgentClient* agent_client(const std::string& container_name);

  /// Subscribes to VNF lifecycle events from every container agent
  /// (NETCONF notifications); `cb` fires with (container, vnf id, new
  /// status) for every transition after this call. Synchronous.
  Status watch_vnf_events(
      std::function<void(const std::string& container, const std::string& vnf_id,
                         netemu::VnfStatus status)>
          cb);

  /// Builds the default chain match for a graph: IPv4 from the entry
  /// SAP's address to the exit SAP's address.
  Result<openflow::Match> default_match(const sg::ServiceGraph& graph);

  // --- fault injection hooks (driven by escape::fault::FaultPlane) --------

  /// Power-fails a container: its VNF processes die, frames to it are
  /// dropped, and its NETCONF agent's transport closes (the client
  /// learns one control-network delay later).
  Status kill_container(const std::string& name);

  /// Powers a killed container back on (empty) and respawns its agent.
  Status restore_container(const std::string& name);

  /// Crashes only the NETCONF agent process; the container and its VNFs
  /// keep running, but become unmanageable until respawn_agent().
  Status crash_agent(const std::string& name);

  /// Starts a fresh agent for the container on a new transport and
  /// rebinds the management client to it (new hello exchange). Retrying
  /// RPCs re-send on the new session once it establishes.
  Status respawn_agent(const std::string& name);

  /// Administrative link up/down (frames on a downed link are dropped).
  Status set_link_state(const std::string& a, const std::string& b, bool up);

  /// Installs / clears a frame-fault profile (drop/corrupt/extra delay)
  /// on both directions of a container's NETCONF transport.
  Status set_netconf_faults(const std::string& name,
                            const netconf::TransportFaults& faults);
  Status clear_netconf_faults(const std::string& name);

  /// Administratively severs (up=false) / restores (up=true) the
  /// OpenFlow control channel of a switch, both directions. Detection
  /// is echo-driven: the controller and the switch each notice after
  /// their miss threshold, fire connection-down, and the switch drops
  /// into its configured fail-mode until the channel heals.
  Status set_of_channel_state(const std::string& switch_name, bool up);

  /// Severs the channel now and schedules its restoration `down_for`
  /// later (of-channel-flap fault event).
  Status flap_of_channel(const std::string& switch_name, SimDuration down_for);

  /// Installs / clears a degradation profile on the channel: each
  /// message in either direction is dropped with `drop_prob` and
  /// delayed by `extra_delay` on top of the base control delay.
  Status set_of_channel_faults(const std::string& switch_name, double drop_prob,
                               SimDuration extra_delay, std::uint64_t seed);
  Status clear_of_channel_faults(const std::string& switch_name);

  /// Reboots a switch losing all soft state (flow table, packet
  /// buffers); the fresh Hello it sends lets the controller detect the
  /// restart and resync the steering rules.
  Status restart_switch(const std::string& switch_name);

  // --- self-healing --------------------------------------------------------

  /// Turns the recovery loop on: every management client gets the retry
  /// envelope + circuit breaker from `options`, a HealthMonitor starts
  /// probing the agents and watching link state, and chains touched by a
  /// failure are torn down (best effort), re-mapped against the
  /// surviving resource view and re-embedded under the same chain id.
  /// Off by default -- without it the environment stays fail-stop.
  Status enable_self_healing(RecoveryOptions options = {});
  bool self_healing() const { return health_ != nullptr; }
  orchestrator::HealthMonitor* health_monitor() { return health_.get(); }

  /// State of a deployed chain (kActive unless the fault plane got it).
  Result<ChainState> chain_state(std::uint32_t chain_id) const;

  // --- elastic scaling -----------------------------------------------------

  /// Scales a deployed single-VNF chain to `target` replicas with a
  /// zero-loss, state-preserving make-before-break migration:
  ///
  ///   1. a new generation (flow-sticky splitter + `target` replicas,
  ///      or one plain instance for target == 1) is brought up over
  ///      NETCONF, its entry FlowManager holding (buffering) traffic;
  ///   2. its steering rules are barrier-confirmed on every dpid at
  ///      priority old+1 BEFORE any old rule is touched, so traffic cuts
  ///      over atomically into the buffering new generation;
  ///   3. after a drain window, per-flow state (NAT port maps, LB
  ///      stickiness, TCP reassembly buffers) is exported from the old
  ///      instances, partitioned by tuple-hash (the same rule the
  ///      splitter's FlowLB uses) and imported into the replicas;
  ///   4. the hold is released (buffered packets flush through), the old
  ///      generation's rules are removed and its VNFs torn down through
  ///      the idempotent teardown path.
  ///
  /// Synchronous (pumps virtual time). Scale-in is the same protocol
  /// with a smaller target; a fault mid-migration aborts it cleanly
  /// (the chain degrades and recovers unscaled).
  Status scale_chain(std::uint32_t chain_id, std::size_t target);
  /// Async variant for use inside scheduler events (the AutoScaler's
  /// decisions run through this).
  void scale_chain_async(std::uint32_t chain_id, std::size_t target,
                         std::function<void(Status)> done);
  /// Current replica count of a chain's scaled VNF (1 when unscaled).
  Result<std::size_t> chain_instances(std::uint32_t chain_id) const;

  /// Turns the elastic-scaling policy loop on: an AutoScaler samples
  /// the policies' Click handlers across every deployed chain with a
  /// matching VNF on a virtual-time tick and drives scale_chain_async.
  Status enable_autoscaling(orchestrator::AutoScalerOptions options);
  orchestrator::AutoScaler* autoscaler() { return autoscaler_.get(); }

 private:
  /// Runs the scheduler until `flag` is set; errors on quiescence.
  Status pump_until(const bool& flag, std::string_view what);

  /// A graph rendered by the service layer and mapped against the live
  /// view; map() has committed what `ledger` lists.
  struct Embedding {
    std::vector<service::RenderedVnf> rendered;
    orchestrator::MappingResult mapping;
    ReservationLedger ledger;
  };
  /// The render-and-map step deploy() and recover_chain() share.
  Result<Embedding> embed(const sg::ServiceGraph& graph);

  /// Gives every reservation in `ledger` back to the view and empties it.
  void release(ReservationLedger& ledger);

  /// The one writer of ChainDeployment::state: asserts (Debug builds)
  /// that the move is in the lifecycle table, then logs it.
  void transition(ChainDeployment& dep, ChainState to, std::string_view why);

  /// Marks every chain placed on `container` / crossing link `a<->b`
  /// degraded and queues its recovery.
  void degrade_chains_on_container(const std::string& container);
  void degrade_chains_on_link(const std::string& a, const std::string& b);

  /// Steering divergence: chains with rules on `dpid` go DEGRADED but
  /// are NOT re-embedded -- the steering resync repairs rules in place
  /// and handle_dpid_resynced() flips them back to ACTIVE.
  void degrade_chains_on_dpid(openflow::DatapathId dpid);
  void handle_dpid_resynced(openflow::DatapathId dpid);

  /// Marks a chain degraded (if not already recovering) and schedules
  /// its recovery as a zero-delay event.
  void queue_recovery(std::uint32_t chain_id);

  /// Every path toward a re-embed ends here: the chain is DEGRADED with
  /// no steering-only degradation left, and recover_chain runs `delay`
  /// later.
  void schedule_reembed(ChainDeployment& dep, SimDuration delay, std::string_view why);

  /// Async re-embedding of a chain waiting for one (DEGRADED, no dirty
  /// dpids): best-effort teardown of the stale remnants, re-map against
  /// the surviving view, redeploy under the same chain id. Runs entirely
  /// inside scheduler events.
  void recover_chain(std::uint32_t chain_id);
  void finish_recovery(std::uint32_t chain_id, SimTime started, std::uint64_t span,
                       Status outcome);

  // --- elastic-scaling internals (see environment.cpp) ---------------------
  /// Runs one of the migration's NETCONF step lists: the list stops
  /// once the job is aborted, its first error fails the migration, and
  /// `next` runs after its last step.
  void scale_steps(const std::shared_ptr<ScaleJob>& job,
                   std::shared_ptr<orchestrator::RpcChain> chain, const char* phase,
                   std::function<void()> next);
  void scale_cut_over(std::shared_ptr<ScaleJob> job);
  /// The state hand-off: exports from every stateful old instance, then
  /// one list of the imports into the new replicas and the release of
  /// the new entry's packet hold.
  void scale_hand_off(std::shared_ptr<ScaleJob> job);
  void scale_commit(std::shared_ptr<ScaleJob> job);
  /// True (and unwinds the half-built generation) when the job's chain
  /// vanished or its scale_epoch moved on (fault mid-migration).
  bool scale_aborted(const std::shared_ptr<ScaleJob>& job);
  void scale_fail(std::shared_ptr<ScaleJob> job, Error error);
  void scale_unwind(const std::shared_ptr<ScaleJob>& job);
  /// Retires a committed migration's old generation with bounded retry:
  /// a transiently failed teardown here must not strand steering rules
  /// or instances (nothing else remembers the old generation).
  void retire_old_generation(orchestrator::DeploymentRecord record, int attempt);
  /// Subscribes the chain to the first autoscale policy matching one of
  /// its VNFs (no-op without an AutoScaler or a match).
  void watch_chain_policy(std::uint32_t chain_id);
  void sample_chain_handler(std::uint32_t chain_id, const orchestrator::ScalingPolicy& policy,
                            std::function<void(Result<double>)> cb);

  EnvironmentOptions options_;
  ShardedScheduler scheduler_;
  netemu::Network network_;
  std::unique_ptr<pox::Controller> controller_;
  std::shared_ptr<pox::TrafficSteering> steering_;
  service::ServiceLayer service_layer_;

  /// The agent lives on its container's shard: its lifecycle (creation,
  /// teardown on respawn) must execute there, so it sits in a slot that
  /// shard-0 code never dereferences -- only passes to admin hops.
  struct AgentSlot {
    std::unique_ptr<netconf::VnfAgent> agent;
  };
  struct ContainerMgmt {
    std::shared_ptr<AgentSlot> slot;
    std::unique_ptr<netconf::VnfAgentClient> client;
    // Both pipe ends are kept so the fault plane can close or fault them.
    std::shared_ptr<netconf::TransportEndpoint> server_end;
    std::shared_ptr<netconf::TransportEndpoint> client_end;
  };
  std::map<std::string, ContainerMgmt> mgmt_;
  std::unique_ptr<orchestrator::DeploymentEngine> engine_;

  bool started_ = false;
  bool partitioned_ = false;
  std::uint32_t next_chain_id_ = 1;
  std::map<std::uint32_t, ChainDeployment> deployments_;
  // Persistent orchestration view: reservations (CPU, slots, link
  // bandwidth) accumulate across deployments and are released on
  // undeploy, so chains cannot double-book substrate resources.
  std::optional<sg::ResourceGraph> view_;
  // Containers currently excluded from placement (crashed container or
  // dead agent); re-applied when the view is rebuilt by start().
  std::set<std::string> unavailable_containers_;
  // Orchestrator-side mirror of kill_container/restore_container: the
  // container's own alive() flag lives on its shard, so shard-0 logic
  // (respawn bookkeeping) consults this instead of peeking across.
  std::set<std::string> dead_containers_;
  RecoveryOptions recovery_;
  // Declared after mgmt_ so the monitor (holding client pointers) is
  // destroyed first.
  std::unique_ptr<orchestrator::HealthMonitor> health_;
  std::unique_ptr<orchestrator::AutoScaler> autoscaler_;
  // Drain window between steering cut-over and flow-state export.
  SimDuration scale_drain_ = 5 * timeunit::kMillisecond;
  // Liveness guard for recovery events scheduled into virtual time.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  Logger log_{"escape.env"};
};

}  // namespace escape
