// Queueing elements: the push-to-pull converters that decouple packet
// arrival from packet processing, and the tasks that drain them.
#include "click/elements.hpp"
#include "click/router.hpp"
#include "util/strings.hpp"

namespace escape::click {

// --- Queue ---------------------------------------------------------------------

Queue::Queue() {
  declare_ports({PortMode::kPush}, {PortMode::kPull});
  add_read_handler("length", [this] { return std::to_string(queue_.size()); });
  add_read_handler("capacity", [this] { return std::to_string(capacity_); });
  add_read_handler("drops", [this] { return std::to_string(drops_); });
  add_read_handler("highwater", [this] { return std::to_string(highwater_); });
  add_write_handler("reset", [this](std::string_view) {
    queue_.clear();
    drops_ = 0;
    highwater_ = 0;
    return ok_status();
  });
}

Status Queue::configure(const ConfigArgs& args) {
  return args.number_or_positional("CAPACITY", 0, capacity_, 1);
}

void Queue::push(int, Packet&& p) {
  if (queue_.size() >= capacity_) {
    ++drops_;  // tail drop
    return;
  }
  const bool was_empty = queue_.empty();
  queue_.push_back(std::move(p));
  highwater_ = std::max(highwater_, queue_.size());
  if (was_empty) {
    for (auto& fn : listeners_) fn();
  }
}

std::optional<Packet> Queue::pull(int) {
  if (queue_.empty()) return std::nullopt;
  Packet p = std::move(queue_.front());
  queue_.pop_front();
  return p;
}


namespace {

/// Walks upstream through pull elements collecting every Queue that can
/// feed this subtree (depth-limited). Drain tasks register wake-up
/// listeners on all of them, so they sleep correctly even when a
/// scheduler or shaper sits between the Queue and the drainer.
void collect_upstream_queues(Element* element, std::vector<Queue*>& out, int depth = 0) {
  if (!element || depth > 8) return;
  if (auto* q = dynamic_cast<Queue*>(element)) {
    out.push_back(q);
    return;
  }
  for (int port = 0; port < element->n_inputs(); ++port) {
    collect_upstream_queues(element->input_peer(port), out, depth + 1);
  }
}

}  // namespace

// --- Unqueue ----------------------------------------------------------------------

Unqueue::Unqueue() {
  declare_ports({PortMode::kPull}, {PortMode::kPush});
  add_read_handler("count", [this] { return std::to_string(moved_); });
}

Status Unqueue::configure(const ConfigArgs& args) {
  if (auto st = args.number_or_positional("BURST", 0, burst_, 1); !st) return st;
  return args.number("INTERVAL", interval_, 0, kMaxConfigTime);
}

Status Unqueue::initialize(Router& router) {
  task_ = std::make_unique<Task>(&router, [this] { return run_once(); });
  // Wake up when any upstream queue becomes non-empty instead of polling.
  std::vector<Queue*> queues;
  collect_upstream_queues(input_peer(0), queues);
  for (Queue* q : queues) {
    q->add_nonempty_listener([this] { task_->reschedule(0); });
  }
  task_->reschedule(0);
  return ok_status();
}

std::optional<SimDuration> Unqueue::run_once() {
  // Up to BURST packets per run, each pulled and pushed on its own.
  std::uint64_t moved = 0;
  for (; moved < burst_; ++moved) {
    auto p = input_pull(0);
    if (!p) break;
    output_push(0, std::move(*p));
  }
  if (moved == 0) return std::nullopt;  // idle until the queue wakes us
  moved_ += moved;
  return router()->scale_delay(interval_);
}

// --- RatedUnqueue -------------------------------------------------------------------

RatedUnqueue::RatedUnqueue() { declare_ports({PortMode::kPull}, {PortMode::kPush}); }

Status RatedUnqueue::configure(const ConfigArgs& args) {
  return args.number_or_positional("RATE", 0, rate_, 1);
}

Status RatedUnqueue::initialize(Router& router) {
  bucket_.emplace(rate_, std::max<std::uint64_t>(rate_ / 100, 1));
  task_ = std::make_unique<Task>(&router, [this] { return run_once(); });
  std::vector<Queue*> queues;
  collect_upstream_queues(input_peer(0), queues);
  for (Queue* q : queues) {
    q->add_nonempty_listener([this] { task_->reschedule(0); });
  }
  task_->reschedule(0);
  return ok_status();
}

std::optional<SimDuration> RatedUnqueue::run_once() {
  const SimTime now = router()->scheduler().now();
  if (!bucket_->try_consume(now, 1)) {
    return bucket_->next_available(now, 1) - now;
  }
  auto p = input_pull(0);
  if (!p) return std::nullopt;  // empty upstream; bucket token already burned
  output_push(0, std::move(*p));
  const SimTime next = bucket_->next_available(now, 1);
  return next > now ? next - now : timeunit::kMicrosecond;
}

}  // namespace escape::click

namespace escape::click {

// --- pull schedulers -------------------------------------------------------------

RoundRobinSched::RoundRobinSched() {
  declare_ports({PortMode::kPull, PortMode::kPull}, {PortMode::kPull});
}

Status RoundRobinSched::configure(const ConfigArgs& args) {
  std::size_t n = 2;
  if (auto st = args.number_or_positional("N", 0, n, 1, 64); !st) return st;
  declare_ports(std::vector<PortMode>(n, PortMode::kPull), {PortMode::kPull});
  return ok_status();
}

std::optional<Packet> RoundRobinSched::pull(int) {
  const auto n = static_cast<std::size_t>(n_inputs());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t port = (next_ + i) % n;
    if (auto p = input_pull(static_cast<int>(port))) {
      next_ = (port + 1) % n;  // resume after the input just served
      return p;
    }
  }
  return std::nullopt;
}

PrioSched::PrioSched() {
  declare_ports({PortMode::kPull, PortMode::kPull}, {PortMode::kPull});
  for (std::size_t i = 0; i < 2; ++i) {
    add_read_handler(strings::format("served_%zu", i),
                     [this, i] { return std::to_string(i < served_.size() ? served_[i] : 0); });
  }
  served_.assign(2, 0);
}

Status PrioSched::configure(const ConfigArgs& args) {
  std::size_t n = 2;
  if (auto st = args.number_or_positional("N", 0, n, 1, 64); !st) return st;
  declare_ports(std::vector<PortMode>(n, PortMode::kPull), {PortMode::kPull});
  served_.assign(n, 0);
  for (std::size_t i = 2; i < n; ++i) {
    add_read_handler(strings::format("served_%zu", i),
                     [this, i] { return std::to_string(served_[i]); });
  }
  return ok_status();
}

std::optional<Packet> PrioSched::pull(int) {
  for (int port = 0; port < n_inputs(); ++port) {
    if (auto p = input_pull(port)) {
      ++served_[static_cast<std::size_t>(port)];
      return p;
    }
  }
  return std::nullopt;
}

}  // namespace escape::click
