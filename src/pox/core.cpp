#include "pox/core.hpp"

#include "net/packet_pool.hpp"
#include "openflow/wire.hpp"

namespace escape::pox {

std::optional<Message> Controller::through_wire(Message message) {
  if (!serialize_) return message;
  // A FlowModBatch has no OF 1.0 frame of its own: on the wire it is N
  // consecutive ofp_flow_mod messages, so round-trip each mod through
  // the codec and drop only the malformed ones.
  if (auto* batch = std::get_if<openflow::FlowModBatch>(&message)) {
    openflow::FlowModBatch wired;
    wired.mods.reserve(batch->mods.size());
    for (auto& mod : batch->mods) {
      auto bytes = openflow::wire::encode(mod);
      wire_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
      auto decoded = openflow::wire::decode(bytes);
      if (!decoded.ok()) {
        log_.warn("wire codec dropped a flow_mod of a batch: ", decoded.error().to_string());
        continue;
      }
      wired.mods.push_back(std::get<openflow::FlowMod>(std::move(decoded->message)));
    }
    return Message{std::move(wired)};
  }
  auto bytes = openflow::wire::encode(message);
  wire_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  auto decoded = openflow::wire::decode(bytes);
  if (!decoded.ok()) {
    log_.warn("wire codec dropped a ", openflow::message_type_name(message),
              ": ", decoded.error().to_string());
    return std::nullopt;
  }
  return std::move(decoded->message);
}

/// Switch-side channel endpoint: forwards switch->controller messages
/// through the scheduler with the configured delay. When the switch
/// lives on another shard, the hop is evaluated against this endpoint's
/// mirrored fault state (confined to the switch's shard) and crosses
/// through the mailbox -- the controller-side SwitchConnection state is
/// never touched from the switch's thread.
class Channel : public openflow::ControlChannel {
 public:
  Channel(Controller* controller, DatapathId dpid, openflow::OpenFlowSwitch* sw)
      : controller_(controller), dpid_(dpid), sw_(sw) {}

  void to_controller(Message message) override {
    auto* c = controller_;
    auto dpid = dpid_;
    EventScheduler& sw_sched = sw_->scheduler();
    if (&sw_sched == c->scheduler_) {
      // Same scheduler: the classic single-shard path, bit-identical to
      // the pre-sharding implementation (shared fault RNG and all).
      auto it = c->connections_.find(dpid);
      if (it == c->connections_.end()) return;
      auto delay = c->channel_hop_delay(*it->second);
      if (!delay) return;  // channel fault dropped the message
      auto wired = c->through_wire(std::move(message));
      if (!wired) return;
      c->scheduler_->schedule(*delay, [c, dpid, msg = std::move(*wired)]() mutable {
        c->deliver_from_switch(dpid, std::move(msg));
      });
      return;
    }
    // Cross-shard: switch-side fault mirror, then over the mailbox.
    if (!admin_up_) return;
    if (drop_prob_ > 0.0 && rng_.next_bool(drop_prob_)) return;
    auto wired = c->through_wire(std::move(message));
    if (!wired) return;
    cross_schedule(sw_sched, *c->scheduler_, c->channel_delay_ + extra_delay_,
                   [c, dpid, msg = std::move(*wired)]() mutable {
                     c->deliver_from_switch(dpid, std::move(msg));
                   });
  }

  bool connected() const override { return true; }

  /// Fault-plane mirror setters; must run on the switch's shard (the
  /// controller routes them through run_on_shard).
  void set_admin(bool up) { admin_up_ = up; }
  void set_faults(double drop_prob, SimDuration extra_delay, std::uint64_t seed) {
    drop_prob_ = drop_prob;
    extra_delay_ = extra_delay;
    // Decorrelated from the controller-side stream: the two hops of a
    // cross-shard channel draw independently.
    rng_ = Rng{seed ^ 0x5bd1e9955bd1e995ull};
  }

 private:
  Controller* controller_;
  DatapathId dpid_;
  openflow::OpenFlowSwitch* sw_;
  // Switch-shard-confined mirror of the connection fault model.
  bool admin_up_ = true;
  double drop_prob_ = 0.0;
  SimDuration extra_delay_ = 0;
  Rng rng_{0x5bd1e9955bd1e995ull};
};

Controller::Controller(EventScheduler& scheduler, SimDuration channel_delay)
    : scheduler_(&scheduler), channel_delay_(channel_delay) {}

void Controller::add_app(std::shared_ptr<App> app) {
  apps_.push_back(app);
  app->on_startup(*this);
}

App* Controller::app(std::string_view name) {
  for (auto& a : apps_) {
    if (a->name() == name) return a.get();
  }
  return nullptr;
}

void Controller::attach_switch(openflow::OpenFlowSwitch& sw) {
  const DatapathId dpid = sw.datapath_id();
  auto conn = std::make_unique<SwitchConnection>(this, dpid);
  conn->deliver_to_switch_ = [&sw](Message msg) { sw.handle_message(msg); };
  conn->sw_ = &sw;
  SwitchConnection* raw = conn.get();
  connections_[dpid] = std::move(conn);
  auto& registry = obs::MetricsRegistry::global();
  obs::Labels labels{{"dpid", std::to_string(dpid)}, {"side", "controller"}};
  raw->m_channel_down_ = &registry.counter("escape_of_channel_down_total", labels);
  raw->m_echo_rtt_ms_ = &registry.histogram("escape_of_echo_rtt_ms", labels);
  auto channel = std::make_shared<Channel>(this, dpid, &sw);
  raw->channel_ = channel.get();
  // A switch on another shard turns the control channel into a pair of
  // cross-shard edges with the base one-way delay as lookahead.
  add_cross_shard_edge(*scheduler_, sw.scheduler(), channel_delay_);
  add_cross_shard_edge(sw.scheduler(), *scheduler_, channel_delay_);
  sw.connect(std::move(channel));
  // Controller side of the handshake: Hello prompts the switch to
  // announce its features, which flips the connection up.
  raw->send(openflow::Hello{});
  if (liveness_.enabled) start_echo_loop(dpid);
}

SwitchConnection* Controller::connection(DatapathId dpid) {
  auto it = connections_.find(dpid);
  return it == connections_.end() ? nullptr : it->second.get();
}

std::vector<DatapathId> Controller::connected_switches() const {
  std::vector<DatapathId> out;
  for (const auto& [dpid, conn] : connections_) {
    if (conn->up()) out.push_back(dpid);
  }
  return out;
}

void SwitchConnection::send(Message message) {
  ++sent_;
  auto* c = controller_;
  auto delay = c->channel_hop_delay(*this);
  if (!delay) return;  // channel fault dropped the message
  auto wired = c->through_wire(std::move(message));
  if (!wired) return;
  // Deliver through the scheduler to model the channel delay; capture the
  // delivery function by value so a torn-down connection cannot dangle.
  // A switch on another shard gets the message through the mailbox, and
  // the delivery function runs on the switch's shard.
  auto deliver = deliver_to_switch_;
  EventScheduler& sw_sched = sw_ ? sw_->scheduler() : *c->scheduler_;
  cross_schedule(*c->scheduler_, sw_sched, *delay,
                 [deliver, msg = std::move(*wired)]() mutable {
                   if (deliver) deliver(std::move(msg));
                 });
}

std::optional<SimDuration> Controller::channel_hop_delay(SwitchConnection& conn) {
  if (!conn.admin_up_) return std::nullopt;
  if (conn.drop_prob_ > 0.0 && conn.fault_rng_.next_bool(conn.drop_prob_)) return std::nullopt;
  return channel_delay_ + conn.extra_delay_;
}

Status Controller::set_channel_admin(DatapathId dpid, bool up) {
  auto it = connections_.find(dpid);
  if (it == connections_.end()) {
    return make_error("pox.channel.unknown-dpid", "no connection to dpid " + std::to_string(dpid));
  }
  it->second->admin_up_ = up;
  if (Channel* ch = it->second->channel_) {
    run_on_shard(it->second->sw_->scheduler(), [ch, up] { ch->set_admin(up); });
  }
  log_.warn("control channel to dpid=", dpid, " administratively ", up ? "restored" : "severed");
  return ok_status();
}

Status Controller::set_channel_faults(DatapathId dpid, double drop_prob, SimDuration extra_delay,
                                      std::uint64_t seed) {
  auto it = connections_.find(dpid);
  if (it == connections_.end()) {
    return make_error("pox.channel.unknown-dpid", "no connection to dpid " + std::to_string(dpid));
  }
  it->second->drop_prob_ = drop_prob;
  it->second->extra_delay_ = extra_delay;
  it->second->fault_rng_ = Rng{seed};
  if (Channel* ch = it->second->channel_) {
    run_on_shard(it->second->sw_->scheduler(), [ch, drop_prob, extra_delay, seed] {
      ch->set_faults(drop_prob, extra_delay, seed);
    });
  }
  return ok_status();
}

Status Controller::clear_channel_faults(DatapathId dpid) {
  return set_channel_faults(dpid, 0.0, 0, 1);
}

bool Controller::channel_admin_up(DatapathId dpid) const {
  auto it = connections_.find(dpid);
  return it != connections_.end() && it->second->admin_up_;
}

void Controller::start_echo_loop(DatapathId dpid) {
  auto it = connections_.find(dpid);
  if (it == connections_.end()) return;
  struct Prober {
    Controller* c;
    DatapathId dpid;
    void operator()() {
      c->echo_tick(dpid);
      auto it = c->connections_.find(dpid);
      if (it != c->connections_.end()) {
        it->second->echo_timer_ =
            c->scheduler_->schedule(c->liveness_.echo_interval, Prober{c, dpid});
      }
    }
  };
  it->second->echo_timer_.cancel();
  it->second->echo_timer_ = scheduler_->schedule(liveness_.echo_interval, Prober{this, dpid});
}

void Controller::echo_tick(DatapathId dpid) {
  auto it = connections_.find(dpid);
  if (it == connections_.end()) return;
  SwitchConnection& conn = *it->second;
  if (conn.up_ &&
      conn.echo_outstanding_.size() >= static_cast<std::size_t>(liveness_.miss_threshold)) {
    mark_connection_down(conn, "echo timeout");
  }
  // Bound the probe backlog while the channel stays dead.
  while (conn.echo_outstanding_.size() > static_cast<std::size_t>(liveness_.miss_threshold)) {
    conn.echo_outstanding_.erase(conn.echo_outstanding_.begin());
  }
  const std::uint32_t payload = conn.next_echo_payload_++;
  conn.echo_outstanding_[payload] = scheduler_->now();
  conn.send(openflow::EchoRequest{payload});
}

void Controller::mark_connection_down(SwitchConnection& conn, std::string_view reason) {
  if (!conn.up_) return;
  conn.up_ = false;
  conn.echo_outstanding_.clear();
  if (conn.m_channel_down_) conn.m_channel_down_->add();
  log_.warn("connection down: dpid=", conn.dpid(), " (", reason, ")");
  for (auto& app : apps_) app->on_connection_down(conn);
}

void Controller::raise_packet_in(SwitchConnection& conn, const openflow::PacketIn& msg) {
  ++packet_ins_;
  for (auto& app : apps_) {
    if (app->on_packet_in(conn, msg)) return;
  }
}

void Controller::deliver_from_switch(DatapathId dpid, Message message) {
  auto it = connections_.find(dpid);
  if (it == connections_.end()) return;
  SwitchConnection& conn = *it->second;

  // Sample the echo RTT before the activity note clears the probe map.
  if (const auto* reply = std::get_if<openflow::EchoReply>(&message)) {
    auto oit = conn.echo_outstanding_.find(reply->payload);
    if (oit != conn.echo_outstanding_.end() && scheduler_->now() >= oit->second) {
      if (conn.m_echo_rtt_ms_) {
        conn.m_echo_rtt_ms_->record(static_cast<double>(scheduler_->now() - oit->second) /
                                    timeunit::kMillisecond);
      }
    }
  }
  // Any message from the switch proves the channel passes traffic.
  conn.echo_outstanding_.clear();

  std::visit(
      [this, &conn](auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, openflow::Hello>) {
          // The initial handshake Hello arrives while the connection is
          // still down and needs no reply (attach_switch sends ours).
          // An unsolicited Hello on an up connection means the switch
          // restarted and lost its soft state: tear the connection down
          // and re-handshake so apps resync on the ConnectionUp that
          // follows the fresh FeaturesReply.
          if (conn.up_) {
            mark_connection_down(conn, "switch restart (unsolicited hello)");
            conn.send(openflow::Hello{});
          }
        } else if constexpr (std::is_same_v<T, openflow::EchoReply>) {
          // A live channel while the connection is marked down: the
          // fault that killed it has cleared, so re-handshake.
          if (!conn.up_) conn.send(openflow::Hello{});
        } else if constexpr (std::is_same_v<T, openflow::FeaturesReply>) {
          conn.ports_ = msg.ports;
          const bool was_up = conn.up_;
          conn.up_ = true;
          if (!was_up) {
            log_.info("connection up: dpid=", conn.dpid());
            for (auto& app : apps_) app->on_connection_up(conn);
          }
        } else if constexpr (std::is_same_v<T, openflow::PacketIn>) {
          raise_packet_in(conn, msg);
          // The apps copied what they keep; the frame's buffer goes back
          // to this thread's pool for the next frame a source builds.
          net::default_packet_pool().recycle(std::move(msg.packet));
        } else if constexpr (std::is_same_v<T, openflow::FlowRemoved>) {
          for (auto& app : apps_) app->on_flow_removed(conn, msg);
        } else if constexpr (std::is_same_v<T, openflow::PortStatus>) {
          // Keep the cached port list fresh.
          if (msg.reason == openflow::PortStatus::Reason::kDelete) {
            std::erase_if(conn.ports_,
                          [&](const auto& p) { return p.port_no == msg.port.port_no; });
          } else {
            bool found = false;
            for (auto& p : conn.ports_) {
              if (p.port_no == msg.port.port_no) {
                p = msg.port;
                found = true;
              }
            }
            if (!found) conn.ports_.push_back(msg.port);
          }
          for (auto& app : apps_) app->on_port_status(conn, msg);
        } else if constexpr (std::is_same_v<T, openflow::StatsReply>) {
          for (auto& app : apps_) app->on_stats_reply(conn, msg);
        } else if constexpr (std::is_same_v<T, openflow::BarrierReply>) {
          for (auto& app : apps_) app->on_barrier_reply(conn);
        } else if constexpr (std::is_same_v<T, openflow::EchoRequest>) {
          conn.send(openflow::EchoReply{msg.payload});
        }
      },
      message);
}

}  // namespace escape::pox
