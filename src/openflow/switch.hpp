// The OpenFlow switch datapath (the Open vSwitch stand-in): ports, flow
// table, packet buffering, and the control-channel state machine.
//
// Transport-agnostic: packets leave through per-port transmit callbacks
// installed by the network emulator, and control messages travel through
// a ControlChannel whose implementation (in-memory, delayed, ...) is
// provided by the controller platform.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "openflow/flow_table.hpp"
#include "openflow/messages.hpp"
#include "util/event.hpp"
#include "util/logging.hpp"

namespace escape::openflow {

/// The switch's view of its control channel.
class ControlChannel {
 public:
  virtual ~ControlChannel() = default;
  /// Sends a message toward the controller.
  virtual void to_controller(Message message) = 0;
  virtual bool connected() const = 0;
};

/// Behaviour of the datapath while its control channel is dead.
enum class FailMode : std::uint8_t {
  kSecure,      // drop table-miss packets (installed flows keep forwarding)
  kStandalone,  // fall back to local L2 learning, like OVS fail-mode=standalone
};

std::string_view fail_mode_name(FailMode mode);

/// Switch-side control-channel liveness: periodic EchoRequest keepalives
/// with a miss threshold. When `miss_threshold` echo probes are
/// outstanding unanswered, the channel is declared dead and the switch
/// enters `fail_mode` until controller traffic is seen again.
struct SwitchLiveness {
  bool enabled = true;
  SimDuration echo_interval = timeunit::kSecond;
  int miss_threshold = 3;
  FailMode fail_mode = FailMode::kSecure;
};

class OpenFlowSwitch {
 public:
  using TxCallback = std::function<void(net::Packet&&)>;

  OpenFlowSwitch(DatapathId dpid, EventScheduler& scheduler);
  ~OpenFlowSwitch();

  DatapathId datapath_id() const { return dpid_; }

  /// The shard queue driving this datapath's timers and timeouts.
  EventScheduler& scheduler() { return *scheduler_; }

  /// Re-points the datapath at another shard's queue
  /// (Network::partition); must happen before connect() so no echo or
  /// sweep timer is pending on the old queue.
  void rebind_scheduler(EventScheduler& scheduler) { scheduler_ = &scheduler; }

  /// Adds a port; `tx` transmits a frame out of that port.
  void add_port(std::uint16_t port_no, std::string name, net::MacAddr hw_addr, TxCallback tx);
  void remove_port(std::uint16_t port_no);
  bool has_port(std::uint16_t port_no) const { return ports_.count(port_no) != 0; }
  std::vector<PortInfo> ports() const;

  /// Attaches the control channel and sends the OF handshake (Hello).
  void connect(std::shared_ptr<ControlChannel> channel);

  /// True while the channel exists AND the echo state machine considers
  /// it live. A half-open channel (object alive, peer gone) flips to
  /// disconnected once `miss_threshold` echo probes go unanswered.
  bool connected() const { return channel_ && channel_->connected() && channel_live_; }

  /// Configures the keepalive/fail-mode policy. Takes effect on the next
  /// echo tick; call before connect() for deterministic behaviour.
  void set_liveness(SwitchLiveness liveness);
  const SwitchLiveness& liveness() const { return liveness_; }

  /// The echo state machine's verdict alone (channel object ignored).
  bool channel_live() const { return channel_live_; }

  /// Simulates a switch reboot that loses all soft state: the flow
  /// table, packet buffers and standalone MAC table are wiped, and a
  /// fresh OF handshake (Hello) is initiated on the (surviving) channel
  /// so the controller can detect the restart and resync.
  void restart();

  /// Datapath entry: a frame arrives on `port_no`.
  void receive(std::uint16_t port_no, net::Packet&& packet);

  /// Control messages arriving from the controller.
  void handle_message(const Message& message);

  FlowTable& flow_table() { return table_; }
  const FlowTable& flow_table() const { return table_; }

  /// Port counters (for port-stats replies and tests).
  PortStatsEntry port_stats(std::uint16_t port_no) const;

  /// Runs one expiry sweep; scheduled periodically once connected.
  void sweep_expired();

  std::uint64_t packet_ins_sent() const { return packet_ins_; }
  /// Table-miss packets forwarded locally while in fail-standalone mode.
  std::uint64_t standalone_forwards() const { return standalone_forwards_; }
  /// Table-miss packets dropped while in fail-secure mode.
  std::uint64_t failmode_drops() const { return failmode_drops_; }

 private:
  struct Port {
    PortInfo info;
    TxCallback tx;
    PortStatsEntry stats;
  };

  void handle_table_miss(net::Packet&& packet, std::uint16_t in_port,
                         const net::FlowKey& key);
  /// Local L2-learning forwarding used in fail-standalone mode.
  void standalone_forward(net::Packet&& packet, std::uint16_t in_port,
                          const net::FlowKey& key);
  /// One keepalive round: declare the channel dead on miss-threshold,
  /// then send the next EchoRequest probe (probing continues while dead
  /// so a restored channel is detected within one interval).
  void echo_tick();
  /// Any controller->switch message proves the channel passes traffic:
  /// clears outstanding echo misses and leaves fail mode.
  void note_controller_activity();
  void apply_actions(const ActionList& actions, net::Packet&& packet, std::uint16_t in_port,
                     bool allow_packet_in);
  void transmit(std::uint16_t port_no, net::Packet&& packet);
  /// Emits a copy per eligible port; when `consume` is set the last
  /// eligible port receives the original instead of a clone.
  void flood(net::Packet& packet, std::uint16_t in_port, bool include_in_port, bool consume);
  void send_packet_in(net::Packet&& packet, std::uint16_t in_port, PacketInReason reason);
  /// Ends the packet-in round trip of buffer `buffer_id` (RTT sample and
  /// span) and hands back its packet; nullopt when the id is not held.
  std::optional<net::Packet> release_buffer(std::uint32_t buffer_id);
  /// Applies a flow-mod's actions to its referenced buffered packet.
  void release_flow_mod_buffer(const FlowMod& mod);

  DatapathId dpid_;
  EventScheduler* scheduler_;
  std::map<std::uint16_t, Port> ports_;
  FlowTable table_;
  std::shared_ptr<ControlChannel> channel_;

  // OF 1.0-style packet buffering for packet-in / packet-out: Open
  // vSwitch's pktbuf rule. Buffer id N lives in slot N % kNumBuffers, so
  // a packet-in replaces the buffer 256 ids older if it is still held.
  // A slot keeps its packet's capacity for the next frame, and its send
  // time and span measure the controller's round trip when the buffer
  // is released (flow-mod / packet-out). Sized on the first packet-in.
  static constexpr std::uint32_t kNumBuffers = 256;
  struct BufferSlot {
    std::uint32_t id = 0;
    bool held = false;
    SimTime sent_at = 0;
    std::uint64_t span = 0;
    net::Packet packet;
  };
  std::uint32_t next_buffer_id_ = 0;
  std::vector<BufferSlot> buffers_;

  // Control-channel liveness (switch side of the echo state machine).
  SwitchLiveness liveness_;
  bool channel_live_ = false;  // no channel attached yet
  std::uint32_t next_echo_payload_ = 1;
  std::map<std::uint32_t, SimTime> echo_outstanding_;  // payload -> sent at
  EventHandle echo_timer_;
  // Fail-standalone soft state: locally learned MAC -> port, cleared on
  // channel revival and on restart.
  std::map<net::MacAddr, std::uint16_t> standalone_macs_;

  std::uint64_t packet_ins_ = 0;
  std::uint64_t standalone_forwards_ = 0;
  std::uint64_t failmode_drops_ = 0;
  // Registry-owned: nothing else counts these. Table hits/misses and
  // packet-ins are exposed from table_ and packet_ins_.
  obs::Counter* m_channel_down_;
  obs::BoundedHistogram* m_packet_in_rtt_us_;
  obs::BoundedHistogram* m_echo_rtt_ms_;
  EventHandle sweep_timer_;
  Logger log_{"openflow.switch"};
};

}  // namespace escape::openflow
