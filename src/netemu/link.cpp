#include "netemu/link.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace escape::netemu {

Link::Link(Node* node_a, std::uint16_t port_a, Node* node_b, std::uint16_t port_b,
           LinkConfig config, EventScheduler& scheduler, std::uint64_t loss_seed)
    : node_a_(node_a),
      port_a_(port_a),
      node_b_(node_b),
      port_b_(port_b),
      config_(config),
      scheduler_(&scheduler),
      loss_seed_(loss_seed),
      loss_rng_(loss_seed) {
  dir_[0].sched = scheduler_;
  dir_[1].sched = scheduler_;
  bind_shards();
  obs::MetricsRegistry::global().collect(this, [this](obs::SampleSink& sink) {
    const std::string id = strings::format("%s:%u-%s:%u", node_a_->name().c_str(), port_a_,
                                           node_b_->name().c_str(), port_b_);
    const char* dir_name[2] = {"ab", "ba"};
    for (int d = 0; d < 2; ++d) {
      const Direction& dir = dir_[d];
      const obs::Labels labels{{"link", id}, {"dir", dir_name[d]}};
      sink.counter("escape_link_delivered_total", labels, dir.delivered);
      sink.counter("escape_link_delivered_bytes_total", labels, dir.delivered_bytes);
      sink.counter("escape_link_dropped_total", labels, dir.dropped);
      sink.gauge("escape_link_queue_depth", labels, static_cast<double>(dir.pending.size));
    }
  });
}

Link::~Link() {
  obs::MetricsRegistry::global().remove_owner(this);
  dir_[0].event.cancel();
  dir_[1].event.cancel();
}

void Link::FrameRing::push_back(PendingFrame frame, std::size_t limit) {
  if (size == slots.size()) {
    std::vector<PendingFrame> grown(std::min(std::max<std::size_t>(2 * size, 4), limit));
    for (std::size_t i = 0; i < size; ++i) {
      grown[i] = std::move(slots[(head + i) % size]);
    }
    slots = std::move(grown);
    head = 0;
  }
  std::size_t tail = head + size;
  if (tail >= slots.size()) tail -= slots.size();
  slots[tail] = std::move(frame);
  ++size;
}

void Link::FrameRing::pop_front() {
  head = (head + 1 == slots.size()) ? 0 : head + 1;
  --size;
}

void Link::FrameRing::clear() {
  for (auto& frame : slots) frame.packet = net::Packet{};
  head = size = 0;
}

SimDuration Link::tx_time(std::size_t bytes) const {
  // bits / (bits per second) in nanoseconds, rounded up.
  const std::uint64_t bits = static_cast<std::uint64_t>(bytes) * 8;
  return (bits * timeunit::kSecond + config_.bandwidth_bps - 1) / config_.bandwidth_bps;
}

void Link::bind_shards() {
  Node* sender[2] = {node_a_, node_b_};
  Node* receiver[2] = {node_b_, node_a_};
  for (int d = 0; d < 2; ++d) {
    Direction& dir = dir_[d];
    dir.sched = sender[d] ? &sender[d]->scheduler() : scheduler_;
    EventScheduler& peer = receiver[d] ? receiver[d]->scheduler() : *scheduler_;
    dir.cross = &peer != dir.sched && dir.sched->owner() != nullptr &&
                dir.sched->owner() == peer.owner();
    if (dir.cross) {
      // An independent deterministic loss stream per cross direction
      // (two shards cannot share the link-wide RNG).
      dir.rng = Rng(loss_seed_ ^ (0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(d)));
      dir.sched->owner()->add_lookahead_edge(dir.sched->shard_id(), peer.shard_id(),
                                             config_.delay);
    }
  }
}

bool Link::can_touch(const Direction& dir) const {
  EventScheduler* cur = ShardedScheduler::current_shard();
  return cur == nullptr || dir.sched->owner() == nullptr || cur == dir.sched;
}

void Link::apply_set_up(int direction, bool up) {
  Direction& dir = dir_[direction];
  dir.up = up;
  if (!up) {
    // The wire is cut: everything in flight is lost.
    const std::uint64_t lost = dir.pending.size;
    dir.dropped += lost;
    dir.pending.clear();
    dir.event.cancel();
    dir.busy_until = 0;
  }
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  for (int d = 0; d < 2; ++d) {
    if (can_touch(dir_[d])) {
      apply_set_up(d, up);
    } else {
      // Another shard owns this direction: the command propagates like a
      // management-network hop and lands one lookahead later.
      dir_[d].sched->owner()->post_admin(dir_[d].sched->shard_id(),
                                         [this, d, up] { apply_set_up(d, up); });
    }
  }
  for (auto& [_, fn] : listeners_) fn(*this, up_);
}

std::uint64_t Link::add_state_listener(StateListener fn) {
  const std::uint64_t id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(fn));
  return id;
}

void Link::remove_state_listener(std::uint64_t id) {
  std::erase_if(listeners_, [id](const auto& entry) { return entry.first == id; });
}

bool Link::enqueue_frame(Direction& dir, net::Packet&& packet) {
  if (!dir.up) {
    ++dir.dropped;
    return false;
  }
  Rng& rng = dir.cross ? dir.rng : loss_rng_;
  if (config_.loss > 0.0 && rng.next_bool(config_.loss)) {
    ++dir.dropped;
    return false;
  }

  // Queue admission: frames in flight beyond the queue bound are dropped
  // (tail drop), emulating the interface transmit ring.
  if (dir.pending.size >= config_.queue_frames) {
    ++dir.dropped;
    return false;
  }

  const SimTime now = dir.sched->now();
  const SimTime start = std::max(now, dir.busy_until);
  const SimTime tx_done = start + tx_time(packet.size());
  dir.busy_until = tx_done;
  dir.pending.push_back(PendingFrame{tx_done, tx_done + config_.delay, std::move(packet)},
                        config_.queue_frames);
  return true;
}

void Link::transmit(int from_endpoint, net::Packet&& packet) {
  enqueue_frame(dir_[from_endpoint], std::move(packet));
  arm(from_endpoint);
}

void Link::arm(int from_endpoint) {
  Direction& dir = dir_[from_endpoint];
  if (dir.pending.size == 0 || dir.event.pending()) return;
  // Same-shard: fire at delivery time, exactly the classic model.
  // Cross-shard: fire at serialization end on the sender's shard; the
  // frame then crosses to the receiver with the propagation delay, so
  // each frame still arrives at tx_done + delay.
  const SimTime at =
      dir.cross ? dir.pending.front().tx_done : dir.pending.front().deliver_at;
  dir.event = dir.sched->schedule_at(at, [this, from_endpoint] { fire(from_endpoint); });
}

void Link::fire(int from_endpoint) {
  Direction& dir = dir_[from_endpoint];
  // The event is armed for the front frame, which is due now.
  net::Packet packet = std::move(dir.pending.front().packet);
  dir.pending.pop_front();
  ++dir.delivered;
  dir.delivered_bytes += packet.size();

  // Re-arm for the next frame before delivering: delivery can re-enter
  // transmit() on this same direction (forwarding loops), and that path
  // only arms when no event is pending.
  arm(from_endpoint);

  Node* dst = from_endpoint == 0 ? node_b_ : node_a_;
  const std::uint16_t dst_port = from_endpoint == 0 ? port_b_ : port_a_;
  if (!dir.cross) {
    dst->deliver(dst_port, std::move(packet));
    return;
  }
  // The frame travels inside the event, through the mailbox to the
  // receiver's shard.
  auto crossing = [dst, dst_port, packet = std::move(packet)]() mutable {
    dst->deliver(dst_port, std::move(packet));
  };
  // A capture that outgrows the inline buffer would box every
  // cross-shard hop on the heap (see DESIGN.md §6).
  static_assert(EventCallback::kFitsInline<decltype(crossing)>,
                "the cross-shard frame capture must fit EventCallback's inline buffer");
  cross_schedule(*dir.sched, dst->scheduler(), config_.delay, std::move(crossing));
}

std::string Link::to_string() const {
  return strings::format("link[%s:%u <-> %s:%u %.1fMbps %.2fms q=%zu]",
                         node_a_->name().c_str(), port_a_, node_b_->name().c_str(), port_b_,
                         static_cast<double>(config_.bandwidth_bps) / 1e6,
                         static_cast<double>(config_.delay) / 1e6, config_.queue_frames);
}

}  // namespace escape::netemu
