// Liveness monitoring for the management plane: periodic NETCONF probes
// against every watched agent plus administrative link up/down events
// from netemu, feeding the orchestrator's self-healing loop.
//
// Detection is two-pronged: a closed session marks the agent down
// immediately (the transport told us), while a hung-but-open agent is
// caught by probe timeouts -- `failure_threshold` consecutive probe
// failures flip the agent to down. A succeeding probe flips it back up
// (a respawned agent reports healthy on its first reply after rebind).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>

#include "netconf/vnf_agent.hpp"
#include "netemu/network.hpp"
#include "obs/metrics.hpp"
#include "pox/steering.hpp"
#include "util/event.hpp"
#include "util/logging.hpp"

namespace escape::orchestrator {

struct HealthMonitorOptions {
  SimDuration probe_interval = 50 * timeunit::kMillisecond;
  SimDuration probe_timeout = 20 * timeunit::kMillisecond;
  /// Consecutive failed probes before an agent is declared down.
  int failure_threshold = 2;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(EventScheduler& scheduler, HealthMonitorOptions options = {});
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Watches the agent managing `container`. The client must outlive the
  /// monitor (or be unwatched first); rebinds are transparent -- the
  /// monitor keeps probing the same client object.
  void watch_agent(const std::string& container, netconf::VnfAgentClient* client);

  /// Subscribes to administrative state changes of every current link in
  /// `network` (links added later are not covered).
  void watch_links(netemu::Network& network);

  /// Subscribes to the steering app's divergence signal: a dpid whose
  /// OpenFlow connection dropped counts as diverged (its flow table can
  /// no longer be trusted) until a post-reconnect audit barrier-confirms
  /// it clean again.
  void watch_steering(pox::TrafficSteering& steering);

  using AgentCallback = std::function<void(const std::string& container)>;
  using LinkCallback = std::function<void(const std::string& a, const std::string& b, bool up)>;
  using DpidCallback = std::function<void(openflow::DatapathId)>;
  using DpidResyncCallback = std::function<void(openflow::DatapathId, std::size_t repaired)>;
  void on_agent_down(AgentCallback fn) { agent_down_ = std::move(fn); }
  void on_agent_up(AgentCallback fn) { agent_up_ = std::move(fn); }
  void on_link_state(LinkCallback fn) { link_state_ = std::move(fn); }
  void on_dpid_diverged(DpidCallback fn) { dpid_diverged_ = std::move(fn); }
  void on_dpid_resynced(DpidResyncCallback fn) { dpid_resynced_ = std::move(fn); }

  std::size_t dpids_diverged() const { return diverged_.size(); }

  /// Starts / stops the periodic probe loop. Idle when no agents are
  /// watched. start() probes immediately, then every probe_interval.
  void start();
  void stop();
  bool running() const { return running_; }

  bool agent_healthy(const std::string& container) const;
  std::size_t agents_down() const;

 private:
  struct Watch {
    netconf::VnfAgentClient* client = nullptr;
    int consecutive_failures = 0;
    bool down = false;
    bool probe_outstanding = false;
  };

  void probe_all();
  void probe(const std::string& container, Watch& watch);
  void mark_down(const std::string& container, Watch& watch, const Error& error);
  void mark_up(const std::string& container, Watch& watch);

  EventScheduler* scheduler_;
  HealthMonitorOptions options_;
  bool running_ = false;
  EventHandle tick_;
  std::map<std::string, Watch> watches_;
  std::vector<std::pair<netemu::Link*, std::uint64_t>> link_listeners_;
  std::set<openflow::DatapathId> diverged_;
  AgentCallback agent_down_;
  AgentCallback agent_up_;
  LinkCallback link_state_;
  DpidCallback dpid_diverged_;
  DpidResyncCallback dpid_resynced_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  obs::Counter* m_probe_ok_;
  obs::Counter* m_probe_fail_;
  Logger log_{"orchestrator.health"};
};

}  // namespace escape::orchestrator
