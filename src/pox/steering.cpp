#include "pox/steering.hpp"

#include <chrono>

#include "chaos/fault_point.hpp"
#include "net/flow.hpp"
#include "obs/trace.hpp"

namespace escape::pox {

namespace {

/// Wall-clock microseconds: flow-mod construction happens within one
/// scheduler event, so virtual time cannot resolve install latency.
double wall_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TrafficSteering::~TrafficSteering() { obs::MetricsRegistry::global().remove_owner(this); }

void TrafficSteering::on_startup(Controller& controller) {
  controller_ = &controller;
  auto& registry = obs::MetricsRegistry::global();
  m_flowmods_ = &registry.counter("escape_steering_flowmods_total");
  m_reactive_installs_ = &registry.counter("escape_steering_reactive_installs_total");
  registry.collect(this, [this](obs::SampleSink& sink) {
    sink.gauge("escape_steering_chains_installed", {}, static_cast<double>(installed_.size()));
  });
  m_install_latency_us_ = &registry.histogram("escape_steering_install_latency_us");
  m_resyncs_ = &registry.counter("escape_of_resync_total");
  m_rules_purged_ = &registry.counter("escape_of_rules_purged_total");
  m_rules_reinstalled_ = &registry.counter("escape_of_rules_reinstalled_total");
}

void TrafficSteering::set_divergence_callbacks(
    std::function<void(DatapathId)> diverged,
    std::function<void(DatapathId, std::size_t)> resynced) {
  on_diverged_ = std::move(diverged);
  on_resynced_ = std::move(resynced);
}

IntentRule* TrafficSteering::IntentStore::find(std::uint64_t cookie, std::uint16_t priority,
                                               const openflow::Match& match) {
  auto it = index.find(key_of(cookie, priority, match));
  if (it == index.end()) return nullptr;
  for (std::size_t slot : it->second) {
    IntentRule& r = rules[slot];
    if (r.chain_id == cookie && r.priority == priority && r.match == match) return &r;
  }
  return nullptr;
}

void TrafficSteering::IntentStore::upsert(IntentRule rule) {
  if (IntentRule* existing = find(rule.chain_id, rule.priority, rule.match)) {
    *existing = std::move(rule);
    return;
  }
  index[key_of(rule.chain_id, rule.priority, rule.match)].push_back(rules.size());
  rules.push_back(std::move(rule));
}

bool TrafficSteering::IntentStore::erase(std::uint64_t cookie, std::uint16_t priority,
                                         const openflow::Match& match) {
  auto it = index.find(key_of(cookie, priority, match));
  if (it == index.end()) return false;
  auto& slots = it->second;
  auto sit = std::find_if(slots.begin(), slots.end(), [&](std::size_t slot) {
    const IntentRule& r = rules[slot];
    return r.chain_id == cookie && r.priority == priority && r.match == match;
  });
  if (sit == slots.end()) return false;
  const std::size_t slot = *sit;
  slots.erase(sit);
  if (slots.empty()) index.erase(it);
  const std::size_t last = rules.size() - 1;
  if (slot != last) {
    // Swap-erase: the moved rule's index entry must follow it.
    const IntentRule& moved = rules[last];
    auto& moved_slots = index[key_of(moved.chain_id, moved.priority, moved.match)];
    *std::find(moved_slots.begin(), moved_slots.end(), last) = slot;
    rules[slot] = std::move(rules[last]);
  }
  rules.pop_back();
  return true;
}

void TrafficSteering::IntentStore::erase_chain(std::uint32_t chain_id) {
  std::erase_if(rules, [&](const IntentRule& r) { return r.chain_id == chain_id; });
  index.clear();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    index[key_of(rules[i].chain_id, rules[i].priority, rules[i].match)].push_back(i);
  }
}

const std::vector<IntentRule>* TrafficSteering::intent(DatapathId dpid) const {
  auto it = intent_.find(dpid);
  return it == intent_.end() ? nullptr : &it->second.rules;
}

std::vector<std::uint32_t> TrafficSteering::chains_on(DatapathId dpid) const {
  std::vector<std::uint32_t> out;
  auto it = intent_.find(dpid);
  if (it == intent_.end()) return out;
  for (const auto& rule : it->second.rules) {
    if (std::find(out.begin(), out.end(), rule.chain_id) == out.end()) {
      out.push_back(rule.chain_id);
    }
  }
  return out;
}

void TrafficSteering::record_intent(const ChainPath& path) {
  for (const auto& hop : path.hops) {
    IntentRule rule;
    rule.chain_id = path.chain_id;
    rule.match = path.match;
    rule.match.in_port(hop.in_port);
    rule.priority = path.priority;
    rule.idle_timeout = path.idle_timeout;
    rule.out_port = hop.out_port;
    intent_[hop.dpid].upsert(std::move(rule));
  }
}

void TrafficSteering::purge_superseded(const ChainPath& old_path, const ChainPath& new_path) {
  // Identities (dpid, priority, match digest) the new path will claim.
  std::set<std::tuple<DatapathId, std::uint16_t, std::uint64_t>> kept;
  for (const auto& hop : new_path.hops) {
    openflow::Match match = new_path.match;
    match.in_port(hop.in_port);
    kept.insert({hop.dpid, new_path.priority, match.digest()});
  }
  std::map<DatapathId, std::vector<openflow::FlowMod>> per_dpid;
  for (const auto& hop : old_path.hops) {
    openflow::Match match = old_path.match;
    match.in_port(hop.in_port);
    if (kept.count({hop.dpid, old_path.priority, match.digest()})) continue;
    if (auto iit = intent_.find(hop.dpid); iit != intent_.end()) {
      iit->second.erase(old_path.chain_id, old_path.priority, match);
      if (iit->second.rules.empty()) intent_.erase(iit);
    }
    // Disconnected dpids are repaired by the reconnect audit: with the
    // intent gone, the stale rule is purged as a stray.
    if (!controller_->connection(hop.dpid)) continue;
    openflow::FlowMod mod;
    mod.command = openflow::FlowModCommand::kDeleteStrict;
    mod.match = std::move(match);
    mod.priority = old_path.priority;
    per_dpid[hop.dpid].push_back(std::move(mod));
    if (m_flowmods_) m_flowmods_->add();
  }
  std::size_t purged = 0;
  for (auto& [dpid, mods] : per_dpid) {
    purged += mods.size();
    controller_->connection(dpid)->send_flow_mods(std::move(mods));
  }
  if (purged > 0) {
    log_.info("install of chain ", new_path.chain_id, " superseded a prior path; purged ",
              purged, " stale rule(s)");
  }
}

void TrafficSteering::erase_intent(std::uint32_t chain_id) {
  for (auto it = intent_.begin(); it != intent_.end();) {
    it->second.erase_chain(chain_id);
    it = it->second.rules.empty() ? intent_.erase(it) : std::next(it);
  }
}

Status TrafficSteering::push_flow_mods(const ChainPath& path,
                                       std::optional<std::uint32_t> buffer_id,
                                       DatapathId buffer_dpid) {
  if (!controller_) return make_error("pox.steering.no-controller", "app not started");
  // Validate every hop first so installation is all-or-nothing.
  for (const auto& hop : path.hops) {
    SwitchConnection* conn = controller_->connection(hop.dpid);
    if (!conn || !conn->up()) {
      return make_error("pox.steering.switch-down",
                        "switch not connected: dpid=" + std::to_string(hop.dpid));
    }
  }
  // A prior install may still hold this chain id (a recovery re-embed
  // reclaiming the original id while the old generation's teardown is
  // pending): purge the rules the new path does not reuse before adding,
  // or they linger in intent and table as strays no audit ever repairs.
  if (auto prev = installed_.find(path.chain_id); prev != installed_.end()) {
    purge_superseded(prev->second, path);
  }
  // One FlowModBatch per touched dpid (hop order preserved within each),
  // so a long chain costs one channel message and one table transaction
  // per switch instead of a message per hop.
  std::map<DatapathId, std::vector<openflow::FlowMod>> per_dpid;
  for (const auto& hop : path.hops) {
    openflow::FlowMod mod;
    mod.command = openflow::FlowModCommand::kAdd;
    mod.match = path.match;
    mod.match.in_port(hop.in_port);
    mod.priority = path.priority;
    mod.cookie = path.chain_id;
    mod.idle_timeout = path.idle_timeout;
    mod.send_flow_removed = path.idle_timeout != 0;
    mod.actions = openflow::output_to(hop.out_port);
    if (buffer_id && hop.dpid == buffer_dpid) {
      mod.buffer_id = buffer_id;
      buffer_id.reset();  // release the buffer at most once
    }
    per_dpid[hop.dpid].push_back(std::move(mod));
    if (m_flowmods_) m_flowmods_->add();
  }
  for (auto& [dpid, mods] : per_dpid) {
    controller_->connection(dpid)->send_flow_mods(std::move(mods));
  }
  record_intent(path);
  return ok_status();
}

void TrafficSteering::send_barrier_with(SwitchConnection& conn, std::function<void()> done) {
  barrier_waiters_[conn.dpid()].push_back(std::move(done));
  conn.send_barrier();
}

void TrafficSteering::on_barrier_reply(SwitchConnection& conn) {
  auto it = barrier_waiters_.find(conn.dpid());
  if (it == barrier_waiters_.end() || it->second.empty()) return;
  auto done = std::move(it->second.front());
  it->second.pop_front();
  done();
}

void TrafficSteering::install_chain_confirmed(const ChainPath& path,
                                              std::function<void(Status)> done) {
  if (path.hops.empty()) {
    done(make_error("pox.steering.empty-path", "chain has no hops"));
    return;
  }
  if (!controller_) {
    done(make_error("pox.steering.no-controller", "app not started"));
    return;
  }
  auto p = std::make_shared<PendingInstall>();
  p->path = path;
  p->done = std::move(done);
  p->span = obs::tracer().begin_span(controller_->scheduler().now(), "steering",
                                     "install_confirmed", "chain=" + std::to_string(path.chain_id));
  attempt_install(std::move(p));
}

void TrafficSteering::finish_install(PendingInstall& p, Status s) {
  if (p.finished) return;
  p.finished = true;
  p.timeout.cancel();
  obs::tracer().end_span(p.span, controller_->scheduler().now());
  if (s.ok()) {
    log_.info("chain ", p.path.chain_id, " install confirmed after ", p.attempt, " attempt(s)");
  } else {
    // Roll back: the chain was never confirmed anywhere. Dropping the
    // intent also means the next audit purges whatever rules did land
    // (their cookie is no longer anyone's intent).
    erase_intent(p.path.chain_id);
    installed_.erase(p.path.chain_id);
    log_.warn("chain ", p.path.chain_id, " install failed: ", s.error().to_string());
  }
  p.done(std::move(s));
}

void TrafficSteering::attempt_install(std::shared_ptr<PendingInstall> p) {
  ++p->attempt;
  // Doubling backoff: attempt N waits confirm_timeout * 2^(N-1).
  const SimDuration wait = options_.confirm_timeout * (SimDuration{1} << (p->attempt - 1));
  const double start_us = wall_us();
  // Injectable: the flow-mod push of a barriered install. A drop fails
  // this attempt (exercising the retry/backoff path); a crash restarts
  // the entry switch under the install.
  const chaos::Decision fp = chaos::hit(
      "steering.install", chaos::kCanDrop | chaos::kCanCrash,
      chaos::SiteContext::of_switch(p->path.hops.front().dpid, p->path.chain_id));
  Status push = fp.drop()
                    ? Status(make_error("chaos.injected-drop", "flow-mod push dropped"))
                    : push_flow_mods(p->path, std::nullopt, 0);
  if (auto s = std::move(push); !s.ok()) {
    if (p->attempt >= options_.max_attempts) {
      finish_install(*p, std::move(s));
      return;
    }
    p->timeout.cancel();
    p->timeout = controller_->scheduler().schedule(wait, [this, p] {
      if (!p->finished) attempt_install(p);
    });
    return;
  }
  if (m_install_latency_us_) m_install_latency_us_->record(wall_us() - start_us);
  installed_[p->path.chain_id] = p->path;
  p->awaiting.clear();
  for (const auto& hop : p->path.hops) p->awaiting.insert(hop.dpid);
  for (const DatapathId dpid : std::set<DatapathId>(p->awaiting)) {
    SwitchConnection* conn = controller_->connection(dpid);
    // Injectable: the install's confirmation barrier per dpid. A drop
    // swallows the barrier (the confirm timeout re-attempts); a crash
    // restarts the switch between the flow-mods and their barrier.
    const chaos::Decision fp =
        chaos::hit("steering.install.barrier", chaos::kCanDrop | chaos::kCanCrash,
                   chaos::SiteContext::of_switch(dpid, p->path.chain_id));
    if (fp.drop()) continue;
    send_barrier_with(*conn, [this, p, dpid] {
      if (p->finished) return;
      p->awaiting.erase(dpid);
      if (p->awaiting.empty()) finish_install(*p, ok_status());
    });
  }
  p->timeout.cancel();
  p->timeout = controller_->scheduler().schedule(wait, [this, p] {
    if (p->finished) return;
    if (p->attempt >= options_.max_attempts) {
      finish_install(*p, make_error("pox.steering.confirm-timeout",
                                    "chain " + std::to_string(p->path.chain_id) +
                                        " not barrier-confirmed after " +
                                        std::to_string(p->attempt) + " attempts"));
      return;
    }
    attempt_install(p);
  });
}

Status TrafficSteering::install_chain(const ChainPath& path) {
  if (path.hops.empty()) {
    return make_error("pox.steering.empty-path", "chain has no hops");
  }
  const SimTime ts = controller_ ? controller_->scheduler().now() : 0;
  const std::uint64_t span = obs::tracer().begin_span(
      ts, "steering", "install_chain", "chain=" + std::to_string(path.chain_id));
  const double start_us = wall_us();
  if (auto s = push_flow_mods(path, std::nullopt, 0); !s.ok()) {
    obs::tracer().end_span(span, ts);
    return s;
  }
  if (m_install_latency_us_) m_install_latency_us_->record(wall_us() - start_us);
  obs::tracer().end_span(span, ts);
  installed_[path.chain_id] = path;
  log_.info("installed chain ", path.chain_id, " over ", path.hops.size(), " hops");
  return ok_status();
}

void TrafficSteering::register_chain(ChainPath path) {
  pending_[path.chain_id] = std::move(path);
}

Status TrafficSteering::remove_chain(std::uint32_t chain_id) {
  auto it = installed_.find(chain_id);
  if (it == installed_.end()) {
    pending_.erase(chain_id);
    return make_error("pox.steering.unknown-chain",
                      "chain not installed: " + std::to_string(chain_id));
  }
  const ChainPath& path = it->second;
  std::map<DatapathId, std::vector<openflow::FlowMod>> per_dpid;
  for (const auto& hop : path.hops) {
    if (!controller_->connection(hop.dpid)) continue;
    openflow::FlowMod mod;
    mod.command = openflow::FlowModCommand::kDeleteStrict;
    mod.match = path.match;
    mod.match.in_port(hop.in_port);
    mod.priority = path.priority;
    per_dpid[hop.dpid].push_back(std::move(mod));
    if (m_flowmods_) m_flowmods_->add();
  }
  for (auto& [dpid, mods] : per_dpid) {
    controller_->connection(dpid)->send_flow_mods(std::move(mods));
  }
  installed_.erase(it);
  erase_intent(chain_id);
  return ok_status();
}

std::size_t TrafficSteering::remove_stale_path(const ChainPath& path) {
  if (!controller_) return 0;
  std::map<DatapathId, std::vector<openflow::FlowMod>> per_dpid;
  for (const auto& hop : path.hops) {
    // Disconnected dpids are covered by the reconnect audit, which
    // purges cookied entries absent from the intent store.
    if (!controller_->connection(hop.dpid)) continue;
    openflow::Match match = path.match;
    match.in_port(hop.in_port);
    // The live install may have reused the identical rule identity
    // (same veth ports after re-embedding); the intent store is the
    // source of truth for what must stay.
    if (auto iit = intent_.find(hop.dpid); iit != intent_.end()) {
      if (iit->second.find(path.chain_id, path.priority, match) != nullptr) continue;
    }
    openflow::FlowMod mod;
    mod.command = openflow::FlowModCommand::kDeleteStrict;
    mod.match = std::move(match);
    mod.priority = path.priority;
    per_dpid[hop.dpid].push_back(std::move(mod));
    if (m_flowmods_) m_flowmods_->add();
  }
  std::size_t sent = 0;
  for (auto& [dpid, mods] : per_dpid) {
    sent += mods.size();
    controller_->connection(dpid)->send_flow_mods(std::move(mods));
  }
  if (sent > 0) {
    log_.info("purged ", sent, " stale rule(s) of retired path for chain ", path.chain_id);
  }
  return sent;
}

bool TrafficSteering::on_packet_in(SwitchConnection& conn, const openflow::PacketIn& msg) {
  if (pending_.empty()) return false;
  auto key = net::extract_flow_key(msg.packet, msg.in_port);
  if (!key) return false;

  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    ChainPath& path = it->second;
    if (!path.match.matches(*key)) continue;
    // The packet must have entered at the first hop to trigger install.
    if (path.hops.empty() || path.hops.front().dpid != conn.dpid() ||
        path.hops.front().in_port != msg.in_port) {
      continue;
    }
    const double start_us = wall_us();
    if (auto s = push_flow_mods(path, msg.buffer_id, conn.dpid()); !s.ok()) {
      log_.warn("reactive install failed: ", s.error().to_string());
      return false;
    }
    if (m_install_latency_us_) m_install_latency_us_->record(wall_us() - start_us);
    ++reactive_installs_;
    if (m_reactive_installs_) m_reactive_installs_->add();
    installed_[it->first] = path;
    pending_.erase(it);
    return true;
  }
  return false;
}

void TrafficSteering::query_chain_stats(std::uint32_t chain_id,
                                        std::function<void(Result<ChainStats>)> cb) {
  auto it = installed_.find(chain_id);
  if (it == installed_.end() || it->second.hops.empty()) {
    cb(make_error("pox.steering.unknown-chain",
                  "chain not installed: " + std::to_string(chain_id)));
    return;
  }
  const DatapathId dpid = it->second.hops.front().dpid;
  SwitchConnection* conn = controller_ ? controller_->connection(dpid) : nullptr;
  if (!conn || !conn->up()) {
    cb(make_error("pox.steering.switch-down", "first-hop switch not connected"));
    return;
  }
  PendingStats query;
  query.kind = PendingStats::Kind::kChainStats;
  query.chain_id = chain_id;
  query.entry_in_port = it->second.hops.front().in_port;
  query.cb = std::move(cb);
  pending_stats_[dpid].push_back(std::move(query));
  conn->send(openflow::StatsRequest{openflow::StatsRequest::Kind::kFlow});
}

void TrafficSteering::on_stats_reply(SwitchConnection& conn,
                                     const openflow::StatsReply& msg) {
  auto qit = pending_stats_.find(conn.dpid());
  if (qit == pending_stats_.end() || qit->second.empty()) return;
  PendingStats query = std::move(qit->second.front());
  qit->second.pop_front();
  if (query.kind == PendingStats::Kind::kAudit) {
    handle_audit_reply(conn, msg, query.audit_gen);
    return;
  }

  ChainStats stats;
  stats.chain_id = query.chain_id;
  for (const auto& entry : msg.flows) {
    if (entry.cookie != query.chain_id) continue;
    ++stats.flows;
    // Only the entry-hop flow contributes traffic counters.
    if (!(entry.match.wildcards() & openflow::kWcInPort) &&
        entry.match.fields().in_port == query.entry_in_port) {
      stats.packets += entry.packet_count;
      stats.bytes += entry.byte_count;
    }
  }
  query.cb(stats);
}

void TrafficSteering::on_flow_removed(SwitchConnection& conn, const openflow::FlowRemoved& msg) {
  // The rule is gone from that switch, so it leaves the intent store
  // regardless of whether the chain as a whole falls back to pending
  // (later FlowRemoveds of the same chain arrive after installed_ was
  // already cleared and must still be dropped from the intent).
  auto iit = intent_.find(conn.dpid());
  if (iit != intent_.end()) {
    iit->second.erase(msg.cookie, msg.priority, msg.match);
    if (iit->second.rules.empty()) intent_.erase(iit);
  }
  // Idle-timeout chains fall back to pending so a later packet re-installs.
  auto it = installed_.find(static_cast<std::uint32_t>(msg.cookie));
  if (it == installed_.end()) return;
  if (msg.reason == openflow::FlowRemovedReason::kDelete) return;
  pending_[it->first] = it->second;
  installed_.erase(it);
}

void TrafficSteering::on_connection_down(SwitchConnection& conn) {
  const DatapathId dpid = conn.dpid();
  auto& audit = audits_[dpid];
  ++audit.gen;  // squash in-flight audit replies/timers from before the drop
  audit.in_flight = false;
  audit.timer.cancel();
  if (audit.span != 0) {
    obs::tracer().end_span(audit.span, controller_->scheduler().now());
    audit.span = 0;
  }
  dirty_.insert(dpid);
  // Flush the dpid's FIFO waiters: their replies will never arrive, or
  // would mispair with post-reconnect requests.
  auto pit = pending_stats_.find(dpid);
  if (pit != pending_stats_.end()) {
    auto queue = std::move(pit->second);
    pending_stats_.erase(pit);
    for (auto& q : queue) {
      if (q.kind == PendingStats::Kind::kChainStats && q.cb) {
        q.cb(make_error("pox.steering.connection-down",
                        "switch connection dropped: dpid=" + std::to_string(dpid)));
      }
    }
  }
  barrier_waiters_.erase(dpid);  // pending installs retry via their timeout
  if (on_diverged_) on_diverged_(dpid);
}

void TrafficSteering::on_connection_up(SwitchConnection& conn) {
  const DatapathId dpid = conn.dpid();
  // Untrusted until the audit barrier-confirms it: the switch may have
  // restarted (empty table) or carry rules installed before the drop.
  dirty_.insert(dpid);
  audits_[dpid].attempt = 0;
  start_audit(dpid);
}

void TrafficSteering::start_audit(DatapathId dpid) {
  if (!controller_) return;
  SwitchConnection* conn = controller_->connection(dpid);
  if (!conn || !conn->up()) return;
  auto& audit = audits_[dpid];
  audit.in_flight = true;
  ++audit.attempt;
  if (audit.span == 0) {
    audit.span = obs::tracer().begin_span(controller_->scheduler().now(), "steering", "resync",
                                          "dpid=" + std::to_string(dpid));
  }
  const std::uint64_t gen = audit.gen;
  // Injectable: the resync audit's stats request. A drop loses this
  // audit attempt (the audit timer retries); a crash restarts the
  // switch mid-audit, squashing the reply generation.
  const chaos::Decision fp = chaos::hit("steering.audit", chaos::kCanDrop | chaos::kCanCrash,
                                        chaos::SiteContext::of_switch(dpid));
  if (!fp.drop()) {
    PendingStats query;
    query.kind = PendingStats::Kind::kAudit;
    query.audit_gen = gen;
    pending_stats_[dpid].push_back(std::move(query));
    conn->send(openflow::StatsRequest{openflow::StatsRequest::Kind::kFlow});
  }
  audit.timer.cancel();
  audit.timer = controller_->scheduler().schedule(options_.audit_timeout, [this, dpid, gen] {
    auto& a = audits_[dpid];
    if (a.gen != gen || !a.in_flight) return;
    if (a.attempt >= options_.max_audit_attempts) {
      a.in_flight = false;
      log_.error("audit of dpid=", dpid, " gave up after ", a.attempt,
                 " attempts; table stays untrusted");
      return;
    }
    start_audit(dpid);
  });
}

void TrafficSteering::handle_audit_reply(SwitchConnection& conn, const openflow::StatsReply& msg,
                                         std::uint64_t gen) {
  const DatapathId dpid = conn.dpid();
  auto& audit = audits_[dpid];
  if (audit.gen != gen) return;  // connection flapped again since this audit started

  // Hash-join the intent store against the reported table: one pass to
  // index the reply by rule identity, one indexed probe per side. The
  // old nested scans made a 100k-rule resync O(n²).
  static IntentStore kNoRules;
  auto iit = intent_.find(dpid);
  IntentStore& store = iit == intent_.end() ? kNoRules : iit->second;
  std::unordered_map<IntentKey, std::vector<std::size_t>, IntentKeyHash> present;
  present.reserve(msg.flows.size());
  for (std::size_t i = 0; i < msg.flows.size(); ++i) {
    const auto& entry = msg.flows[i];
    present[IntentStore::key_of(entry.cookie, entry.priority, entry.match)].push_back(i);
  }
  const auto entry_wanted = [&](const openflow::FlowStatsEntry& entry) {
    const IntentRule* rule = store.find(entry.cookie, entry.priority, entry.match);
    return rule && entry.actions == openflow::output_to(rule->out_port);
  };
  const auto rule_present = [&](const IntentRule& rule) {
    auto pit = present.find(IntentStore::key_of(rule.chain_id, rule.priority, rule.match));
    if (pit == present.end()) return false;
    for (std::size_t i : pit->second) {
      const auto& entry = msg.flows[i];
      if (rule.chain_id == entry.cookie && rule.priority == entry.priority &&
          rule.match == entry.match && entry.actions == openflow::output_to(rule.out_port)) {
        return true;
      }
    }
    return false;
  };

  // One batch for the whole repair: purges of steering-owned
  // (cookie != 0) entries we no longer intend go first so a reinstall
  // of the same (match, priority) key is not wiped by a trailing
  // DeleteStrict, then the reinstalls of intended rules the switch
  // lost. apply_batch preserves this order on the switch.
  std::vector<openflow::FlowMod> mods;
  std::size_t purged = 0;
  for (const auto& entry : msg.flows) {
    if (entry.cookie == 0 || entry_wanted(entry)) continue;
    openflow::FlowMod mod;
    mod.command = openflow::FlowModCommand::kDeleteStrict;
    mod.match = entry.match;
    mod.priority = entry.priority;
    mods.push_back(std::move(mod));
    ++purged;
  }
  std::size_t reinstalled = 0;
  for (const auto& rule : store.rules) {
    if (rule_present(rule)) continue;
    openflow::FlowMod mod;
    mod.command = openflow::FlowModCommand::kAdd;
    mod.match = rule.match;
    mod.priority = rule.priority;
    mod.cookie = rule.chain_id;
    mod.idle_timeout = rule.idle_timeout;
    mod.send_flow_removed = rule.idle_timeout != 0;
    mod.actions = openflow::output_to(rule.out_port);
    mods.push_back(std::move(mod));
    ++reinstalled;
  }
  // Injectable: the repair application -- a crash here restarts the
  // switch between computing the diff and barrier-confirming it clean.
  chaos::hit("steering.audit.apply", chaos::kCanCrash, chaos::SiteContext::of_switch(dpid));
  if (m_flowmods_ && !mods.empty()) m_flowmods_->add(mods.size());
  conn.send_flow_mods(std::move(mods));
  rules_purged_ += purged;
  rules_reinstalled_ += reinstalled;
  if (m_rules_purged_ && purged > 0) m_rules_purged_->add(purged);
  if (m_rules_reinstalled_ && reinstalled > 0) m_rules_reinstalled_->add(reinstalled);

  // Barrier-confirm before declaring the dpid clean.
  send_barrier_with(conn, [this, dpid, gen, purged, reinstalled] {
    auto& a = audits_[dpid];
    if (a.gen != gen) return;
    a.in_flight = false;
    a.timer.cancel();
    dirty_.erase(dpid);
    ++resyncs_;
    if (m_resyncs_) m_resyncs_->add();
    if (a.span != 0) {
      obs::tracer().end_span(a.span, controller_->scheduler().now());
      a.span = 0;
    }
    log_.info("resync dpid=", dpid, ": purged ", purged, ", reinstalled ", reinstalled,
              " rule(s), table clean");
    if (on_resynced_) on_resynced_(dpid, purged + reinstalled);
  });
}

}  // namespace escape::pox
