// Traffic shaping and policing elements.
#include "click/elements.hpp"
#include "click/router.hpp"

namespace escape::click {

// --- BandwidthShaper -----------------------------------------------------------

BandwidthShaper::BandwidthShaper() { declare_ports({PortMode::kPull}, {PortMode::kPull}); }

Status BandwidthShaper::configure(const ConfigArgs& args) {
  if (auto st = args.number_or_positional("RATE", 0, rate_, 1); !st) return st;
  if (auto st = args.number("BURST", burst_); !st) return st;
  bucket_.emplace(rate_, burst_);
  return ok_status();
}

std::optional<Packet> BandwidthShaper::pull(int) {
  if (!bucket_) bucket_.emplace(rate_, burst_);
  // Peek-free shaping: we must know the size before consuming tokens, so
  // pull the packet and, if over budget, hold it in a 1-slot staging area.
  if (staged_) {
    const SimTime now = router()->scheduler().now();
    if (!bucket_->try_consume(now, staged_->size())) return std::nullopt;
    auto p = std::move(*staged_);
    staged_.reset();
    return p;
  }
  auto p = input_pull(0);
  if (!p) return std::nullopt;
  const SimTime now = router()->scheduler().now();
  if (bucket_->try_consume(now, p->size())) return p;
  staged_ = std::move(*p);
  return std::nullopt;
}

// --- Delay ------------------------------------------------------------------------

Delay::Delay() { declare_ports({PortMode::kPush}, {PortMode::kPush}); }

Delay::~Delay() {
  for (auto& event : in_flight_) event.cancel();
}

Status Delay::configure(const ConfigArgs& args) {
  return args.number_or_positional("DELAY", 0, delay_, 0, kMaxConfigTime);
}

Status Delay::initialize(Router&) { return ok_status(); }

void Delay::push(int, Packet&& p) {
  // Every packet waits the same delay, so events fire in push order and
  // the firing one is always the front of in_flight_.
  in_flight_.push_back(router()->scheduler().schedule(delay_, [this, p = std::move(p)]() mutable {
    in_flight_.pop_front();
    output_push(0, std::move(p));
  }));
}

// --- RandomSample --------------------------------------------------------------------

RandomSample::RandomSample() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("sampled", [this] { return std::to_string(sampled_); });
  add_read_handler("dropped", [this] { return std::to_string(dropped_); });
}

Status RandomSample::configure(const ConfigArgs& args) {
  if (auto st = args.number_or_positional("P", 0, p_, 0.0, 1.0); !st) return st;
  if (!args.keyword("SEED")) return ok_status();
  std::uint64_t seed = 0;
  if (auto st = args.number("SEED", seed); !st) return st;
  rng_ = Rng(seed);
  return ok_status();
}

void RandomSample::push(int, Packet&& p) {
  if (rng_.next_bool(p_)) {
    ++sampled_;
    output_push(0, std::move(p));
  } else {
    ++dropped_;
    if (output_connected(1)) output_push(1, std::move(p));
  }
}

// --- Meter ------------------------------------------------------------------------------

Meter::Meter() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("conforming", [this] { return std::to_string(conforming_); });
  add_read_handler("exceeding", [this] { return std::to_string(exceeding_); });
}

Status Meter::configure(const ConfigArgs& args) {
  if (auto st = args.number_or_positional("RATE", 0, rate_, 1); !st) return st;
  bucket_.emplace(rate_, std::max<std::uint64_t>(rate_ / 10, 1));
  return ok_status();
}

void Meter::push(int, Packet&& p) {
  const SimTime now = router()->scheduler().now();
  if (bucket_->try_consume(now, 1)) {
    ++conforming_;
    output_push(0, std::move(p));
  } else {
    ++exceeding_;
    output_push(1, std::move(p));
  }
}

}  // namespace escape::click
