// The observability layer's event tracer: a fixed-capacity ring buffer
// of timestamped events with optional begin/end spans. Recording is
// O(1); when the ring is full the oldest event is overwritten in place
// (the dropped count keeps the loss visible) and its strings' capacity
// is reused, so a wrapped ring records without allocating. Timestamps
// are virtual nanoseconds supplied by the caller, so a span across two
// scheduler events measures real control-plane latency (e.g. packet-in
// -> flow-mod).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "util/time.hpp"

namespace escape::obs {

enum class TracePhase : std::uint8_t { kInstant, kBegin, kEnd };

std::string_view trace_phase_name(TracePhase phase);

struct TraceEvent {
  SimTime ts = 0;  // virtual ns
  TracePhase phase = TracePhase::kInstant;
  std::uint64_t span_id = 0;  // correlates kBegin/kEnd; 0 for instants
  std::uint32_t shard = 0;    // ring that recorded the event
  std::uint64_t seq = 0;      // per-ring record order (merge tie-break)
  std::string category;
  std::string name;
  std::string arg;
};

class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 4096);

  /// Tags every subsequent event with `shard` and folds it into issued
  /// span ids (low 8 bits) so spans stay unique across the per-shard
  /// rings without cross-ring coordination.
  void set_shard(std::uint32_t shard);
  std::uint32_t shard() const;

  /// Drops all recorded events and resizes the ring.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Records a point event.
  void instant(SimTime ts, std::string_view category, std::string_view name,
               std::string_view arg = {});

  /// Opens a span; returns its id (never 0) for end_span.
  std::uint64_t begin_span(SimTime ts, std::string_view category, std::string_view name,
                           std::string_view arg = {});

  /// Closes a span opened by begin_span. Unknown/already-closed ids
  /// still record the end event (the ring may have dropped the begin).
  void end_span(std::uint64_t span_id, SimTime ts, std::string_view arg = {});

  /// Events currently held, oldest first.
  std::vector<TraceEvent> events() const;

  std::size_t size() const;
  std::uint64_t total_recorded() const;
  std::uint64_t dropped() const;

  void clear();

  /// {"events": [{ts, phase, span, category, name, arg}], "dropped": N}.
  json::Value to_json() const;

 private:
  /// Writes one event into the next slot; the caller holds mu_.
  void record(SimTime ts, TracePhase phase, std::uint64_t span_id, std::string_view category,
              std::string_view name, std::string_view arg);

  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // next write slot once the ring has wrapped
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t next_span_ = 1;
  std::uint32_t shard_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// The calling shard's trace ring. Under the sharded scheduler each
/// worker thread records into the ring of the shard it is executing
/// (keyed by escape::current_shard_id()), so hot-path tracing never
/// contends across shards; outside a sharded run this is shard 0's
/// ring, i.e. the familiar process-wide tracer.
TraceRing& tracer();

/// The ring for an explicit shard index (created on first use).
TraceRing& shard_tracer(std::size_t shard);

/// Every event across all shard rings, merged into one timeline ordered
/// by (virtual time, shard, per-ring record order) -- a deterministic
/// order for a deterministic run, regardless of thread count.
std::vector<TraceEvent> merged_trace_events();

/// {"events": [...merged timeline...], "dropped": total across rings}.
json::Value merged_trace_json();

/// Clears every shard ring (test/bench isolation between runs).
void clear_all_tracers();

}  // namespace escape::obs
