// Point-to-point emulated link with bandwidth, propagation delay and a
// bounded transmit queue per direction -- the TCLink equivalent of
// Mininet.
//
// Model: each direction serializes frames at `bandwidth_bps`; a frame
// arriving while the "wire" is busy waits in the transmit queue (FIFO,
// at most `queue_frames`); excess frames are dropped. A transmitted
// frame is delivered `delay` after its serialization completes.
//
// Scheduling: each direction keeps a FIFO of pending frames and one
// armed event for the front frame, so a burst of N queued frames holds
// one pending event instead of N. A fire hands the front frame to
// Node::deliver and re-arms for the next. Every non-empty frame holds
// the wire for at least 1 ns (tx_time rounds up), so delivery times
// strictly increase along a direction and no fire ever finds a second
// frame due. The FIFO is a ring that grows on demand up to
// `queue_frames` and never shrinks, so a warm link queues and delivers
// frames without allocating.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netemu/node.hpp"
#include "obs/metrics.hpp"
#include "util/random.hpp"
#include "util/sharded_event.hpp"
#include "util/time.hpp"

namespace escape::netemu {

struct LinkConfig {
  std::uint64_t bandwidth_bps = 1'000'000'000;  // 1 Gbit/s
  SimDuration delay = 50 * timeunit::kMicrosecond;
  std::size_t queue_frames = 100;
  double loss = 0.0;  // random loss probability per frame
};

class Link {
 public:
  /// Wires node_a[port_a] <-> node_b[port_b]. Registration with the
  /// nodes is performed by Network::add_link.
  Link(Node* node_a, std::uint16_t port_a, Node* node_b, std::uint16_t port_b,
       LinkConfig config, EventScheduler& scheduler, std::uint64_t loss_seed = 1);
  ~Link();

  /// Called by a node: transmit `packet` from the endpoint `from_endpoint`
  /// (0 = a-side, 1 = b-side) toward the other side.
  void transmit(int from_endpoint, net::Packet&& packet);

  const LinkConfig& config() const { return config_; }
  Node* node(int endpoint) const { return endpoint == 0 ? node_a_ : node_b_; }
  std::uint16_t port(int endpoint) const { return endpoint == 0 ? port_a_ : port_b_; }

  std::uint64_t delivered(int direction) const { return dir_[direction].delivered; }
  std::uint64_t dropped(int direction) const { return dir_[direction].dropped; }

  /// Administrative state (the fault plane's `link-down`/`link-up`).
  /// Taking the link down drops every queued frame and every frame
  /// offered while down (counted as drops); bringing it back up starts
  /// from an idle wire. State listeners fire after each transition.
  void set_up(bool up);
  bool up() const { return up_; }

  using StateListener = std::function<void(Link& link, bool up)>;
  std::uint64_t add_state_listener(StateListener fn);
  void remove_state_listener(std::uint64_t id);

  /// Re-derives each direction's shard binding from its sender node's
  /// scheduler. A direction whose endpoints land on different shards
  /// switches to mailbox delivery: the serialization queue stays on the
  /// sender's shard, the delivery event is armed at serialization end,
  /// and the due frame crosses to the receiver's shard with the link's
  /// propagation delay -- per-frame delivery times are bit-identical to
  /// the same-shard model, and the delay is registered as the edge's
  /// conservative lookahead. Called by the Link constructor and again by
  /// Network::partition; only valid while no frame is in flight.
  void bind_shards();

  std::string to_string() const;

 private:
  struct PendingFrame {
    SimTime tx_done = 0;     // serialization completes (sender clock)
    SimTime deliver_at = 0;  // tx_done + propagation delay
    net::Packet packet;
  };
  /// FIFO of pending frames over a ring buffer. A frame that finds the
  /// ring full doubles its capacity, up to `limit` (the caller admits
  /// at most `limit` frames); popped slots are reused in place.
  struct FrameRing {
    std::vector<PendingFrame> slots;
    std::size_t head = 0;
    std::size_t size = 0;

    PendingFrame& front() { return slots[head]; }
    void push_back(PendingFrame frame, std::size_t limit);
    void pop_front();
    void clear();
  };
  struct Direction {
    // Sender-shard-confined state: only the shard executing the sender
    // node ever touches this struct (admin ops from other shards arrive
    // through the owner's mailbox, see set_up).
    EventScheduler* sched = nullptr;  // the sender endpoint's shard
    bool cross = false;               // endpoints on different shards
    bool up = true;                   // applied admin state
    Rng rng{1};                       // per-direction loss stream (cross only)
    SimTime busy_until = 0;
    FrameRing pending;                 // tx_done/deliver_at monotonic
    EventHandle event;                 // armed for pending.front()
    // The direction's escape_link_*{link=...,dir=...} series read these
    // counts and pending.size at exposition time.
    std::uint64_t delivered = 0;
    std::uint64_t delivered_bytes = 0;
    std::uint64_t dropped = 0;
  };

  SimDuration tx_time(std::size_t bytes) const;

  /// Applies an administrative up/down transition to one direction, on
  /// that direction's shard.
  void apply_set_up(int direction, bool up);

  /// Admission + serialization for one frame; returns false if dropped.
  bool enqueue_frame(Direction& dir, net::Packet&& packet);

  /// Arms the delivery event for the front frame if none is pending.
  void arm(int from_endpoint);

  /// Delivers the front frame (due now) and re-arms for the next.
  void fire(int from_endpoint);

  Node* node_a_;
  std::uint16_t port_a_;
  Node* node_b_;
  std::uint16_t port_b_;
  LinkConfig config_;
  EventScheduler* scheduler_;
  std::uint64_t loss_seed_;
  // Both same-shard directions draw from this shared stream in event
  // order, exactly as the single-scheduler model always did; cross-shard
  // directions use their own per-direction stream (Direction::rng), as
  // two shards cannot share an RNG.
  Rng loss_rng_;
  Direction dir_[2];
  bool up_ = true;  // control-plane admin state (see Direction::up)
  std::uint64_t next_listener_id_ = 1;
  std::vector<std::pair<std::uint64_t, StateListener>> listeners_;
};

}  // namespace escape::netemu
