#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>

#include "util/event.hpp"

namespace escape::obs {

std::string_view trace_phase_name(TracePhase phase) {
  switch (phase) {
    case TracePhase::kInstant: return "instant";
    case TracePhase::kBegin: return "begin";
    case TracePhase::kEnd: return "end";
  }
  return "unknown";
}

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
  ring_.reserve(capacity_);
}

void TraceRing::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity ? capacity : 1;
  ring_.clear();
  ring_.reserve(capacity_);
  head_ = size_ = 0;
  total_ = 0;  // the old events are discarded, not "dropped"
}

std::size_t TraceRing::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void TraceRing::set_shard(std::uint32_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  shard_ = shard;
}

std::uint32_t TraceRing::shard() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shard_;
}

void TraceRing::record(SimTime ts, TracePhase phase, std::uint64_t span_id,
                       std::string_view category, std::string_view name, std::string_view arg) {
  TraceEvent* event;
  if (size_ < capacity_) {
    event = &ring_.emplace_back();
    ++size_;
  } else {
    // Overwrite the oldest event; assign() keeps its strings' capacity.
    event = &ring_[head_];
    head_ = (head_ + 1) % capacity_;
  }
  ++total_;
  event->ts = ts;
  event->phase = phase;
  event->span_id = span_id;
  event->shard = shard_;
  event->seq = next_seq_++;
  event->category.assign(category);
  event->name.assign(name);
  event->arg.assign(arg);
}

void TraceRing::instant(SimTime ts, std::string_view category, std::string_view name,
                        std::string_view arg) {
  std::lock_guard<std::mutex> lock(mu_);
  record(ts, TracePhase::kInstant, 0, category, name, arg);
}

std::uint64_t TraceRing::begin_span(SimTime ts, std::string_view category,
                                    std::string_view name, std::string_view arg) {
  std::lock_guard<std::mutex> lock(mu_);
  // Shard index in the low byte keeps ids unique across the per-shard
  // rings without any cross-ring coordination; never 0.
  const std::uint64_t id = (next_span_++ << 8) | (shard_ & 0xffu);
  record(ts, TracePhase::kBegin, id, category, name, arg);
  return id;
}

void TraceRing::end_span(std::uint64_t span_id, SimTime ts, std::string_view arg) {
  std::lock_guard<std::mutex> lock(mu_);
  record(ts, TracePhase::kEnd, span_id, {}, {}, arg);
}

std::vector<TraceEvent> TraceRing::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % size_]);
  }
  return out;
}

std::size_t TraceRing::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

std::uint64_t TraceRing::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::uint64_t TraceRing::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ - size_;
}

void TraceRing::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = size_ = 0;
  total_ = 0;
}

json::Value TraceRing::to_json() const {
  json::Array events;
  for (const auto& e : this->events()) {
    json::Object o;
    o["ts"] = e.ts;
    o["phase"] = std::string(trace_phase_name(e.phase));
    if (e.shard) o["shard"] = static_cast<std::uint64_t>(e.shard);
    if (e.span_id) o["span"] = e.span_id;
    if (!e.category.empty()) o["category"] = e.category;
    if (!e.name.empty()) o["name"] = e.name;
    if (!e.arg.empty()) o["arg"] = e.arg;
    events.push_back(std::move(o));
  }
  json::Object doc;
  doc["events"] = std::move(events);
  doc["dropped"] = dropped();
  return doc;
}

namespace {
// Per-shard rings, created on first use and intentionally leaked (the
// usual singleton pattern, immune to static destruction order). Lazy
// creation keeps the common single-shard case at one ring.
constexpr std::size_t kMaxShardRings = 256;
std::atomic<TraceRing*> g_rings[kMaxShardRings];
}  // namespace

TraceRing& shard_tracer(std::size_t shard) {
  shard %= kMaxShardRings;
  TraceRing* ring = g_rings[shard].load(std::memory_order_acquire);
  if (ring == nullptr) {
    auto* fresh = new TraceRing();
    fresh->set_shard(static_cast<std::uint32_t>(shard));
    TraceRing* expected = nullptr;
    if (g_rings[shard].compare_exchange_strong(expected, fresh, std::memory_order_acq_rel)) {
      ring = fresh;
    } else {
      delete fresh;  // another shard's worker won the race
      ring = expected;
    }
  }
  return *ring;
}

TraceRing& tracer() { return shard_tracer(current_shard_id()); }

std::vector<TraceEvent> merged_trace_events() {
  std::vector<TraceEvent> all;
  for (std::size_t i = 0; i < kMaxShardRings; ++i) {
    TraceRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    auto events = ring->events();
    all.insert(all.end(), std::make_move_iterator(events.begin()),
               std::make_move_iterator(events.end()));
  }
  std::sort(all.begin(), all.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.seq < b.seq;
  });
  return all;
}

json::Value merged_trace_json() {
  json::Array events;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < kMaxShardRings; ++i) {
    TraceRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring != nullptr) dropped += ring->dropped();
  }
  for (const auto& e : merged_trace_events()) {
    json::Object o;
    o["ts"] = e.ts;
    o["phase"] = std::string(trace_phase_name(e.phase));
    if (e.shard) o["shard"] = static_cast<std::uint64_t>(e.shard);
    if (e.span_id) o["span"] = e.span_id;
    if (!e.category.empty()) o["category"] = e.category;
    if (!e.name.empty()) o["name"] = e.name;
    if (!e.arg.empty()) o["arg"] = e.arg;
    events.push_back(std::move(o));
  }
  json::Object doc;
  doc["events"] = std::move(events);
  doc["dropped"] = dropped;
  return doc;
}

void clear_all_tracers() {
  for (std::size_t i = 0; i < kMaxShardRings; ++i) {
    TraceRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring != nullptr) ring->clear();
  }
}

}  // namespace escape::obs
