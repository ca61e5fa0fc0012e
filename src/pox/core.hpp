// The controller platform (the POX stand-in): manages control channels
// to switches, raises events (ConnectionUp, PacketIn, FlowRemoved, ...)
// and hosts pluggable applications ("components" in POX terms).
//
// The control channel is in-memory but asynchronous: messages in both
// directions are delivered through the shared virtual-time scheduler
// with a configurable one-way delay, so controller reaction time is a
// measurable quantity (bench_steering exercises it).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "openflow/switch.hpp"
#include "util/event.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/result.hpp"
#include "util/sharded_event.hpp"

namespace escape::pox {

using openflow::DatapathId;
using openflow::Message;

class Controller;
class Channel;  // switch-side ControlChannel endpoint (core.cpp)

/// Controller-side control-channel liveness: mirror of the switch's
/// echo state machine. When `miss_threshold` probes to a dpid go
/// unanswered the connection is torn down (on_connection_down fires);
/// probing continues while down so a restored channel triggers a
/// re-handshake and a fresh ConnectionUp.
struct ControllerLiveness {
  bool enabled = true;
  SimDuration echo_interval = timeunit::kSecond;
  int miss_threshold = 3;
};

/// The controller's handle to one connected switch.
class SwitchConnection {
 public:
  SwitchConnection(Controller* controller, DatapathId dpid) : controller_(controller), dpid_(dpid) {}

  DatapathId dpid() const { return dpid_; }
  const std::vector<openflow::PortInfo>& ports() const { return ports_; }
  bool up() const { return up_; }

  /// Sends a control message to the switch (async, channel delay).
  void send(Message message);

  /// Convenience wrappers.
  void send_flow_mod(const openflow::FlowMod& mod) { send(mod); }
  /// Ships a rule burst as one FlowModBatch (single channel message,
  /// single table transaction on the switch). No-op when empty.
  void send_flow_mods(std::vector<openflow::FlowMod> mods) {
    if (mods.empty()) return;
    send(openflow::FlowModBatch{std::move(mods)});
  }
  void send_packet_out(openflow::PacketOut out) { send(std::move(out)); }
  void send_barrier() { send(openflow::BarrierRequest{}); }

  std::uint64_t messages_sent() const { return sent_; }

 private:
  friend class Controller;
  Controller* controller_;
  DatapathId dpid_;
  std::vector<openflow::PortInfo> ports_;
  bool up_ = false;
  std::uint64_t sent_ = 0;
  // Delivery function into the switch (set when attached).
  std::function<void(Message)> deliver_to_switch_;
  // The attached switch and its channel endpoint; the switch outlives
  // the controller session (attach_switch contract), and the switch
  // holds the Channel alive, so raw pointers suffice.
  openflow::OpenFlowSwitch* sw_ = nullptr;
  Channel* channel_ = nullptr;

  // Scripted channel-fault model, consulted on every hop in BOTH
  // directions (fault plane: of-channel-down / of-channel-faults).
  // When the switch lives on another shard the switch->controller hop
  // uses the Channel's mirrored copy instead (two shards cannot share
  // this RNG); fault-plane setters keep the mirror in sync.
  bool admin_up_ = true;
  double drop_prob_ = 0.0;
  SimDuration extra_delay_ = 0;
  Rng fault_rng_{1};

  // Controller-side echo state machine.
  std::uint32_t next_echo_payload_ = 1;
  std::map<std::uint32_t, SimTime> echo_outstanding_;  // payload -> sent at
  EventHandle echo_timer_;
  obs::Counter* m_channel_down_ = nullptr;
  obs::BoundedHistogram* m_echo_rtt_ms_ = nullptr;
};

/// Base class for controller applications. Register with
/// Controller::add_app(); handlers are invoked in registration order
/// until one returns true ("handled") for PacketIn.
class App {
 public:
  virtual ~App() = default;
  virtual std::string_view name() const = 0;

  virtual void on_startup(Controller&) {}
  virtual void on_connection_up(SwitchConnection&) {}
  virtual void on_connection_down(SwitchConnection&) {}
  /// Return true to stop further apps from seeing this packet-in. The
  /// frame's buffer is recycled once the apps have run, so an app must
  /// copy whatever it keeps of the packet.
  virtual bool on_packet_in(SwitchConnection&, const openflow::PacketIn&) { return false; }
  virtual void on_flow_removed(SwitchConnection&, const openflow::FlowRemoved&) {}
  virtual void on_port_status(SwitchConnection&, const openflow::PortStatus&) {}
  virtual void on_stats_reply(SwitchConnection&, const openflow::StatsReply&) {}
  virtual void on_barrier_reply(SwitchConnection&) {}
};

class Controller {
 public:
  explicit Controller(EventScheduler& scheduler, SimDuration channel_delay = 100 * timeunit::kMicrosecond);

  EventScheduler& scheduler() { return *scheduler_; }
  SimDuration channel_delay() const { return channel_delay_; }

  /// When enabled, every control message in both directions is encoded
  /// to OpenFlow 1.0 wire bytes and decoded on the far side (instead of
  /// moving the typed struct), so the channel carries real ofp10 frames.
  /// Must be set before attaching switches.
  void set_wire_serialization(bool on) { serialize_ = on; }
  bool wire_serialization() const { return serialize_; }

  /// Total OF wire bytes moved (both directions); 0 unless serialization
  /// is enabled.
  std::uint64_t wire_bytes() const { return wire_bytes_.load(std::memory_order_relaxed); }

  /// Registers an application; on_startup fires immediately.
  void add_app(std::shared_ptr<App> app);

  /// Finds an app by name (nullptr if absent).
  App* app(std::string_view name);

  /// Wires a switch to this controller: installs the channel pair and
  /// kicks off the OF handshake. The switch must outlive the controller
  /// session.
  void attach_switch(openflow::OpenFlowSwitch& sw);

  SwitchConnection* connection(DatapathId dpid);
  std::vector<DatapathId> connected_switches() const;

  /// Configures keepalive probing toward switches. Call before
  /// attach_switch for deterministic behaviour.
  void set_liveness(ControllerLiveness liveness) { liveness_ = liveness; }
  const ControllerLiveness& liveness() const { return liveness_; }

  /// Fault-plane hooks. `set_channel_admin(dpid, false)` severs the
  /// control channel in both directions (messages silently dropped, like
  /// a cut management link); liveness detection is still echo-driven, so
  /// both ends notice after miss_threshold * echo_interval.
  Status set_channel_admin(DatapathId dpid, bool up);
  /// Degrades (rather than severs) the channel: each hop in either
  /// direction is dropped with `drop_prob` and delayed by `extra_delay`
  /// on top of the base channel delay. Deterministic under `seed`.
  Status set_channel_faults(DatapathId dpid, double drop_prob, SimDuration extra_delay,
                            std::uint64_t seed);
  Status clear_channel_faults(DatapathId dpid);
  bool channel_admin_up(DatapathId dpid) const;

  /// Statistics for benches/tests.
  std::uint64_t packet_ins_handled() const { return packet_ins_; }

 private:
  friend class SwitchConnection;
  friend class Channel;

  void deliver_from_switch(DatapathId dpid, Message message);
  void raise_packet_in(SwitchConnection& conn, const openflow::PacketIn& msg);
  void start_echo_loop(DatapathId dpid);
  void echo_tick(DatapathId dpid);
  /// Flips the connection down and fires on_connection_down (idempotent).
  void mark_connection_down(SwitchConnection& conn, std::string_view reason);
  /// Applies the per-connection fault model to one channel hop: returns
  /// the delivery delay, or nullopt when the hop drops the message.
  std::optional<SimDuration> channel_hop_delay(SwitchConnection& conn);

  /// Runs `fn` against switch-shard state: synchronously when the
  /// caller may touch that shard, else through the owner's mailbox (the
  /// command lands one lookahead later, like a management-network hop).
  void on_switch_shard(SwitchConnection& conn, std::function<void()> fn);

  /// Round-trips a message through the OF 1.0 codec when serialization
  /// is on; returns it untouched otherwise. Codec failures are logged
  /// and the message dropped (returns nullopt), like a real parser
  /// discarding a malformed frame.
  std::optional<Message> through_wire(Message message);

  EventScheduler* scheduler_;
  SimDuration channel_delay_;
  ControllerLiveness liveness_;
  bool serialize_ = false;
  // Atomic: both channel directions count wire bytes, and the switch
  // side of a cross-shard channel encodes on its own shard's thread.
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::map<DatapathId, std::unique_ptr<SwitchConnection>> connections_;
  std::vector<std::shared_ptr<App>> apps_;
  std::uint64_t packet_ins_ = 0;
  Logger log_{"pox.core"};
};

}  // namespace escape::pox
