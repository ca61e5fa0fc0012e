#include "openflow/switch.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "net/flow.hpp"
#include "net/packet_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace escape::openflow {

namespace {
constexpr SimDuration kSweepInterval = timeunit::kSecond;

/// The packet-in span's label, "dpid=<dpid> buffer=<id>", formatted into
/// `out` without allocating.
std::string_view packet_in_label(char (&out)[48], DatapathId dpid, std::uint32_t buffer_id) {
  constexpr std::string_view kDpid = "dpid=";
  constexpr std::string_view kBuffer = " buffer=";
  char* end = std::copy(kDpid.begin(), kDpid.end(), out);
  end = std::to_chars(end, std::end(out), dpid).ptr;
  end = std::copy(kBuffer.begin(), kBuffer.end(), end);
  end = std::to_chars(end, std::end(out), buffer_id).ptr;
  return {out, static_cast<std::size_t>(end - out)};
}
}  // namespace

std::string_view message_type_name(const Message& m) {
  static constexpr std::string_view kNames[] = {
      "hello",        "echo_request", "echo_reply",  "features_request", "features_reply",
      "flow_mod",     "packet_out",   "stats_request", "barrier_request", "packet_in",
      "flow_removed", "port_status",  "stats_reply", "barrier_reply",    "error",
      "flow_mod_batch"};
  return kNames[m.index()];
}

std::string_view fail_mode_name(FailMode mode) {
  return mode == FailMode::kSecure ? "secure" : "standalone";
}

OpenFlowSwitch::OpenFlowSwitch(DatapathId dpid, EventScheduler& scheduler)
    : dpid_(dpid), scheduler_(&scheduler) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels labels{{"dpid", std::to_string(dpid)}};
  registry.collect(this, [this](obs::SampleSink& sink) {
    const obs::Labels labels{{"dpid", std::to_string(dpid_)}};
    sink.counter("escape_of_table_hits_total", labels, table_.matches());
    sink.counter("escape_of_table_misses_total", labels, table_.lookups() - table_.matches());
    sink.counter("escape_of_packet_ins_total", labels, packet_ins_);
  });
  m_packet_in_rtt_us_ = &registry.histogram("escape_of_packet_in_rtt_us", labels);
  obs::Labels side_labels = labels;
  side_labels.emplace_back("side", "switch");
  m_channel_down_ = &registry.counter("escape_of_channel_down_total", side_labels);
  m_echo_rtt_ms_ = &registry.histogram("escape_of_echo_rtt_ms", side_labels);
  table_.set_removed_callback([this](const FlowEntry& e, FlowRemovedReason reason) {
    if (!connected()) return;
    FlowRemoved msg;
    msg.match = e.match;
    msg.priority = e.priority;
    msg.cookie = e.cookie;
    msg.reason = reason;
    msg.packet_count = e.packet_count;
    msg.byte_count = e.byte_count;
    channel_->to_controller(msg);
  });
}

OpenFlowSwitch::~OpenFlowSwitch() { obs::MetricsRegistry::global().remove_owner(this); }

void OpenFlowSwitch::add_port(std::uint16_t port_no, std::string name, net::MacAddr hw_addr,
                              TxCallback tx) {
  Port port;
  port.info = PortInfo{port_no, hw_addr, std::move(name), true};
  port.tx = std::move(tx);
  port.stats.port_no = port_no;
  ports_[port_no] = std::move(port);
  if (connected()) {
    channel_->to_controller(PortStatus{PortStatus::Reason::kAdd, ports_[port_no].info});
  }
}

void OpenFlowSwitch::remove_port(std::uint16_t port_no) {
  auto it = ports_.find(port_no);
  if (it == ports_.end()) return;
  PortInfo info = it->second.info;
  ports_.erase(it);
  if (connected()) {
    channel_->to_controller(PortStatus{PortStatus::Reason::kDelete, std::move(info)});
  }
}

std::vector<PortInfo> OpenFlowSwitch::ports() const {
  std::vector<PortInfo> out;
  out.reserve(ports_.size());
  for (const auto& [_, p] : ports_) out.push_back(p.info);
  return out;
}

void OpenFlowSwitch::connect(std::shared_ptr<ControlChannel> channel) {
  channel_ = std::move(channel);
  channel_live_ = true;
  echo_outstanding_.clear();
  channel_->to_controller(Hello{});
  // Periodic self-rescheduling expiry sweep so timeouts fire even
  // without traffic.
  sweep_timer_.cancel();
  struct Sweeper {
    OpenFlowSwitch* sw;
    void operator()() {
      sw->sweep_expired();
      sw->sweep_timer_ = sw->scheduler_->schedule(kSweepInterval, Sweeper{sw});
    }
  };
  sweep_timer_ = scheduler_->schedule(kSweepInterval, Sweeper{this});
  // Keepalive loop (same self-rescheduling shape as the sweep).
  echo_timer_.cancel();
  if (liveness_.enabled) {
    struct Prober {
      OpenFlowSwitch* sw;
      void operator()() {
        sw->echo_tick();
        sw->echo_timer_ = sw->scheduler_->schedule(sw->liveness_.echo_interval, Prober{sw});
      }
    };
    echo_timer_ = scheduler_->schedule(liveness_.echo_interval, Prober{this});
  }
}

void OpenFlowSwitch::set_liveness(SwitchLiveness liveness) {
  liveness_ = liveness;
  if (!liveness_.enabled) echo_timer_.cancel();
}

void OpenFlowSwitch::echo_tick() {
  if (!channel_) return;
  if (channel_live_ &&
      echo_outstanding_.size() >= static_cast<std::size_t>(liveness_.miss_threshold)) {
    channel_live_ = false;
    standalone_macs_.clear();
    m_channel_down_->add();
    log_.warn("dpid=", dpid_, ": control channel dead (", echo_outstanding_.size(),
              " echo probes unanswered), entering fail-", fail_mode_name(liveness_.fail_mode));
  }
  // Bound the probe backlog while the channel stays dead.
  while (echo_outstanding_.size() > static_cast<std::size_t>(liveness_.miss_threshold)) {
    echo_outstanding_.erase(echo_outstanding_.begin());
  }
  const std::uint32_t payload = next_echo_payload_++;
  echo_outstanding_[payload] = scheduler_->now();
  channel_->to_controller(EchoRequest{payload});
}

void OpenFlowSwitch::note_controller_activity() {
  echo_outstanding_.clear();
  if (!channel_live_) {
    channel_live_ = true;
    standalone_macs_.clear();
    log_.info("dpid=", dpid_, ": control channel live again, leaving fail-",
              fail_mode_name(liveness_.fail_mode));
  }
}

void OpenFlowSwitch::restart() {
  table_.clear();
  // Every held buffer's id is among the last kNumBuffers issued; walking
  // them in id order ends each held span once, oldest first.
  if (!buffers_.empty()) {
    for (std::uint32_t id = next_buffer_id_ - kNumBuffers; id != next_buffer_id_; ++id) {
      BufferSlot& slot = buffers_[id % kNumBuffers];
      if (!slot.held) continue;
      slot.held = false;
      obs::tracer().end_span(slot.span, scheduler_->now());
    }
  }
  standalone_macs_.clear();
  echo_outstanding_.clear();
  channel_live_ = channel_ != nullptr;
  log_.warn("dpid=", dpid_, ": restarting (flow table lost)");
  if (channel_) channel_->to_controller(Hello{});
}

void OpenFlowSwitch::sweep_expired() { table_.expire(scheduler_->now()); }

std::optional<net::Packet> OpenFlowSwitch::release_buffer(std::uint32_t buffer_id) {
  if (buffers_.empty()) return std::nullopt;
  BufferSlot& slot = buffers_[buffer_id % kNumBuffers];
  // A stale id, or one never issued, finds its slot holding another id.
  if (!slot.held || slot.id != buffer_id) return std::nullopt;
  slot.held = false;
  const SimTime now = scheduler_->now();
  if (now >= slot.sent_at) {
    m_packet_in_rtt_us_->record(static_cast<double>(now - slot.sent_at) / timeunit::kMicrosecond);
  }
  obs::tracer().end_span(slot.span, now);
  // The packet leaves with its buffer; the slot takes a recycled one, so
  // its next frame is not copied into fresh heap memory.
  net::Packet packet = net::default_packet_pool().acquire(0);
  std::swap(packet, slot.packet);
  return packet;
}

void OpenFlowSwitch::receive(std::uint16_t port_no, net::Packet&& packet) {
  auto pit = ports_.find(port_no);
  if (pit == ports_.end()) return;
  pit->second.stats.rx_packets++;
  pit->second.stats.rx_bytes += packet.size();
  packet.set_in_port(port_no);  // remembered by buffered packets

  auto key = net::extract_flow_key(packet, port_no);
  if (!key) {
    pit->second.stats.rx_dropped++;
    return;
  }
  FlowEntry* entry = table_.lookup(*key, packet.size(), scheduler_->now());
  if (entry) {
    apply_actions(entry->actions, std::move(packet), port_no, /*allow_packet_in=*/true);
  } else {
    handle_table_miss(std::move(packet), port_no, *key);
  }
}

void OpenFlowSwitch::handle_table_miss(net::Packet&& packet, std::uint16_t in_port,
                                       const net::FlowKey& key) {
  if (connected()) {
    send_packet_in(std::move(packet), in_port, PacketInReason::kNoMatch);
    return;
  }
  if (liveness_.fail_mode == FailMode::kStandalone) {
    standalone_forward(std::move(packet), in_port, key);
  } else {
    ++failmode_drops_;  // fail-secure: installed flows keep working, misses drop
  }
}

void OpenFlowSwitch::standalone_forward(net::Packet&& packet, std::uint16_t in_port,
                                        const net::FlowKey& key) {
  ++standalone_forwards_;
  standalone_macs_[key.dl_src] = in_port;
  auto it = standalone_macs_.find(key.dl_dst);
  if (key.dl_dst.is_multicast() || it == standalone_macs_.end()) {
    flood(packet, in_port, /*include_in_port=*/false, /*consume=*/true);
  } else {
    transmit(it->second, std::move(packet));
  }
}

void OpenFlowSwitch::send_packet_in(net::Packet&& packet, std::uint16_t in_port,
                                    PacketInReason reason) {
  if (!connected()) return;  // no controller: table-miss drops
  if (buffers_.empty()) buffers_.resize(kNumBuffers);
  const SimTime now = scheduler_->now();
  const std::uint32_t id = next_buffer_id_++;
  BufferSlot& slot = buffers_[id % kNumBuffers];
  // Still held: the buffer 256 ids older is evicted, unanswered.
  if (slot.held) obs::tracer().end_span(slot.span, now, "evicted");
  slot.packet = packet;  // into the slot's existing capacity
  slot.id = id;
  slot.held = true;
  slot.sent_at = now;
  ++packet_ins_;
  char label[48];
  slot.span = obs::tracer().begin_span(now, "openflow", "packet_in",
                                       packet_in_label(label, dpid_, id));
  PacketIn msg;
  msg.buffer_id = id;
  msg.in_port = in_port;
  msg.reason = reason;
  msg.packet = std::move(packet);
  channel_->to_controller(std::move(msg));
}

void OpenFlowSwitch::transmit(std::uint16_t port_no, net::Packet&& packet) {
  auto it = ports_.find(port_no);
  if (it == ports_.end() || !it->second.tx || !it->second.info.link_up) return;
  it->second.stats.tx_packets++;
  it->second.stats.tx_bytes += packet.size();
  it->second.tx(std::move(packet));
}

void OpenFlowSwitch::flood(net::Packet& packet, std::uint16_t in_port, bool include_in_port,
                           bool consume) {
  // Clone for all but the last eligible port; when the caller is done
  // with the packet (`consume`) the last port gets the original moved in.
  std::uint16_t last_port = 0;
  bool any = false;
  for (const auto& [no, port] : ports_) {
    if (!include_in_port && no == in_port) continue;
    last_port = no;
    any = true;
  }
  if (!any) return;
  for (auto& [no, port] : ports_) {
    if (!include_in_port && no == in_port) continue;
    if (consume && no == last_port) break;
    net::Packet copy = packet;
    stats::packet_clones().add();
    transmit(no, std::move(copy));
  }
  if (consume) transmit(last_port, std::move(packet));
}

void OpenFlowSwitch::apply_actions(const ActionList& actions, net::Packet&& packet,
                                   std::uint16_t in_port, bool allow_packet_in) {
  // Rewrites apply in order; every output action emits the packet in its
  // current (possibly rewritten) state, as per OF 1.0 semantics. Only the
  // final action may consume the packet; earlier output actions clone it
  // (counted in stats::packet_clones()).
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const auto& action = actions[i];
    const bool last_action = i + 1 == actions.size();
    if (const auto* out = std::get_if<ActionOutput>(&action)) {
      switch (out->port) {
        case kPortController:
          if (allow_packet_in) {
            if (last_action) {
              send_packet_in(std::move(packet), in_port, PacketInReason::kAction);
            } else {
              net::Packet copy = packet;
              stats::packet_clones().add();
              send_packet_in(std::move(copy), in_port, PacketInReason::kAction);
            }
          }
          break;
        case kPortFlood:
          flood(packet, in_port, /*include_in_port=*/false, /*consume=*/last_action);
          break;
        case kPortAll:
          flood(packet, in_port, /*include_in_port=*/true, /*consume=*/last_action);
          break;
        case kPortInPort:
          if (last_action) {
            transmit(in_port, std::move(packet));
          } else {
            net::Packet copy = packet;
            stats::packet_clones().add();
            transmit(in_port, std::move(copy));
          }
          break;
        case kPortNone:
          break;
        default:
          if (last_action) {
            transmit(out->port, std::move(packet));
          } else {
            net::Packet copy = packet;
            stats::packet_clones().add();
            transmit(out->port, std::move(copy));
          }
      }
    } else {
      apply_rewrite(action, packet);
    }
  }
}

void OpenFlowSwitch::release_flow_mod_buffer(const FlowMod& mod) {
  if (!mod.buffer_id) return;
  std::optional<net::Packet> packet = release_buffer(*mod.buffer_id);
  if (!packet) return;
  const std::uint16_t in_port = static_cast<std::uint16_t>(packet->in_port());
  apply_actions(mod.actions, std::move(*packet), in_port, /*allow_packet_in=*/false);
}

void OpenFlowSwitch::handle_message(const Message& message) {
  // Echo RTT must be sampled before note_controller_activity() clears
  // the outstanding-probe map.
  if (const auto* reply = std::get_if<EchoReply>(&message)) {
    auto it = echo_outstanding_.find(reply->payload);
    if (it != echo_outstanding_.end() && scheduler_->now() >= it->second) {
      m_echo_rtt_ms_->record(static_cast<double>(scheduler_->now() - it->second) /
                             timeunit::kMillisecond);
    }
  }
  // Any message from the controller proves the channel passes traffic.
  note_controller_activity();
  std::visit(
      [this](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, Hello>) {
          // Handshake: reply with features unsolicited (the controller
          // platform treats Hello+FeaturesReply as connection-up).
          FeaturesReply reply;
          reply.datapath_id = dpid_;
          reply.n_buffers = kNumBuffers;
          reply.ports = ports();
          channel_->to_controller(std::move(reply));
        } else if constexpr (std::is_same_v<T, EchoRequest>) {
          channel_->to_controller(EchoReply{msg.payload});
        } else if constexpr (std::is_same_v<T, FeaturesRequest>) {
          FeaturesReply reply;
          reply.datapath_id = dpid_;
          reply.n_buffers = kNumBuffers;
          reply.ports = ports();
          channel_->to_controller(std::move(reply));
        } else if constexpr (std::is_same_v<T, FlowMod>) {
          table_.apply(msg, scheduler_->now());
          release_flow_mod_buffer(msg);
        } else if constexpr (std::is_same_v<T, FlowModBatch>) {
          table_.apply_batch(msg.mods, scheduler_->now());
          for (const auto& mod : msg.mods) release_flow_mod_buffer(mod);
        } else if constexpr (std::is_same_v<T, PacketOut>) {
          net::Packet packet;
          if (msg.buffer_id) {
            std::optional<net::Packet> held = release_buffer(*msg.buffer_id);
            if (!held) return;
            packet = std::move(*held);
          } else {
            packet = msg.packet;
          }
          apply_actions(msg.actions, std::move(packet), msg.in_port,
                        /*allow_packet_in=*/false);
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          StatsReply reply;
          if (msg.kind == StatsRequest::Kind::kFlow) {
            reply.flows = table_.stats(scheduler_->now());
          } else if (msg.kind == StatsRequest::Kind::kPort) {
            for (const auto& [no, p] : ports_) reply.ports.push_back(p.stats);
          } else {
            reply.table = TableStats{table_.size(), table_.lookups(), table_.matches()};
          }
          channel_->to_controller(std::move(reply));
        } else if constexpr (std::is_same_v<T, BarrierRequest>) {
          channel_->to_controller(BarrierReply{});
        }
        // Other message types are controller-bound; ignore.
      },
      message);
}

PortStatsEntry OpenFlowSwitch::port_stats(std::uint16_t port_no) const {
  auto it = ports_.find(port_no);
  return it == ports_.end() ? PortStatsEntry{} : it->second.stats;
}

}  // namespace escape::openflow
