#include "orchestrator/health_monitor.hpp"

namespace escape::orchestrator {

HealthMonitor::HealthMonitor(EventScheduler& scheduler, HealthMonitorOptions options)
    : scheduler_(&scheduler), options_(options) {
  auto& registry = obs::MetricsRegistry::global();
  m_probe_ok_ = &registry.counter("escape_health_probes_total", {{"result", "ok"}});
  m_probe_fail_ = &registry.counter("escape_health_probes_total", {{"result", "fail"}});
  registry.collect(this, [this](obs::SampleSink& sink) {
    sink.gauge("escape_health_agents_down", {}, static_cast<double>(agents_down()));
    sink.gauge("escape_health_dpids_diverged", {}, static_cast<double>(diverged_.size()));
  });
}

HealthMonitor::~HealthMonitor() {
  obs::MetricsRegistry::global().remove_owner(this);
  stop();
  for (auto& [link, id] : link_listeners_) link->remove_state_listener(id);
}

void HealthMonitor::watch_agent(const std::string& container,
                                netconf::VnfAgentClient* client) {
  Watch watch;
  watch.client = client;
  watches_[container] = watch;
  // A dying transport is authoritative: no need to wait for probes.
  std::weak_ptr<bool> alive = alive_;
  client->session().on_closed([this, alive, container](const Error& error) {
    if (alive.expired()) return;
    auto it = watches_.find(container);
    if (it != watches_.end()) mark_down(container, it->second, error);
  });
}

void HealthMonitor::watch_links(netemu::Network& network) {
  std::weak_ptr<bool> alive = alive_;
  for (const auto& link : network.links()) {
    const std::uint64_t id =
        link->add_state_listener([this, alive](netemu::Link& l, bool up) {
          if (alive.expired()) return;
          log_.info("link ", l.node(0)->name(), " <-> ", l.node(1)->name(), " is now ",
                    up ? "up" : "down");
          if (link_state_) link_state_(l.node(0)->name(), l.node(1)->name(), up);
        });
    link_listeners_.emplace_back(link.get(), id);
  }
}

void HealthMonitor::watch_steering(pox::TrafficSteering& steering) {
  std::weak_ptr<bool> alive = alive_;
  steering.set_divergence_callbacks(
      [this, alive](openflow::DatapathId dpid) {
        if (alive.expired()) return;
        if (!diverged_.insert(dpid).second) return;
        log_.warn("steering state diverged on dpid=", dpid);
        if (dpid_diverged_) dpid_diverged_(dpid);
      },
      [this, alive](openflow::DatapathId dpid, std::size_t repaired) {
        if (alive.expired()) return;
        diverged_.erase(dpid);
        if (repaired > 0) log_.info("steering resynced dpid=", dpid, ", repaired ", repaired, " rule(s)");
        if (dpid_resynced_) dpid_resynced_(dpid, repaired);
      });
}

void HealthMonitor::start() {
  if (running_) return;
  running_ = true;
  probe_all();
}

void HealthMonitor::stop() {
  running_ = false;
  tick_.cancel();
}

bool HealthMonitor::agent_healthy(const std::string& container) const {
  auto it = watches_.find(container);
  return it != watches_.end() && !it->second.down;
}

std::size_t HealthMonitor::agents_down() const {
  std::size_t n = 0;
  for (const auto& [_, watch] : watches_) n += watch.down;
  return n;
}

void HealthMonitor::probe_all() {
  if (!running_) return;
  for (auto& [container, watch] : watches_) probe(container, watch);
  std::weak_ptr<bool> alive = alive_;
  tick_ = scheduler_->schedule(options_.probe_interval, [this, alive] {
    if (alive.expired()) return;
    probe_all();
  });
}

void HealthMonitor::probe(const std::string& container, Watch& watch) {
  if (watch.probe_outstanding) return;  // previous probe still in flight
  watch.probe_outstanding = true;

  auto op = std::make_unique<xml::Element>("get-config");
  op->add_child("source").add_child("running");
  netconf::RpcOptions options;
  options.timeout = options_.probe_timeout;
  options.max_attempts = 1;  // the failure counter is the retry policy here

  std::weak_ptr<bool> alive = alive_;
  watch.client->session().rpc(
      std::move(op), options,
      [this, alive, container](Result<std::unique_ptr<xml::Element>> reply) {
        if (alive.expired()) return;
        auto it = watches_.find(container);
        if (it == watches_.end()) return;
        Watch& watch = it->second;
        watch.probe_outstanding = false;
        if (reply.ok()) {
          m_probe_ok_->add();
          mark_up(container, watch);
        } else {
          m_probe_fail_->add();
          ++watch.consecutive_failures;
          if (watch.consecutive_failures >= options_.failure_threshold) {
            mark_down(container, watch, reply.error());
          }
        }
      });
}

void HealthMonitor::mark_down(const std::string& container, Watch& watch,
                              const Error& error) {
  watch.consecutive_failures = std::max(watch.consecutive_failures,
                                        options_.failure_threshold);
  if (watch.down) return;
  watch.down = true;
  log_.warn("agent for ", container, " is DOWN (", error.code, ": ", error.message, ")");
  if (agent_down_) agent_down_(container);
}

void HealthMonitor::mark_up(const std::string& container, Watch& watch) {
  watch.consecutive_failures = 0;
  if (!watch.down) return;
  watch.down = false;
  log_.info("agent for ", container, " is UP again");
  if (agent_up_) agent_up_(container);
}

}  // namespace escape::orchestrator
