// Measurement from outside the emulator: wall clock, spans around the
// benchmark's own calls, process resource usage, the counting
// allocator's totals and the host/build fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "util/result.hpp"

namespace escape::e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Spans (name, start, end, parent, lifecycle id) kept in memory and
/// written when the run ends. Disabled recorders cost one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open one; returns its id
  /// (-1 when disabled).
  int begin(std::string name, std::int64_t lifecycle = -1);
  void end(int id);

  /// Every span with its self time (duration minus the part of it its
  /// children cover), in start order.
  json::Value to_json() const;
  Status write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    std::int64_t lifecycle = -1;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::int64_t lifecycle = -1)
      : rec_(rec), id_(rec.begin(std::move(name), lifecycle)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Heap allocations (calls, bytes) made by every thread while counting
/// was on. Counting is off unless a traced run turns it on.
struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
void set_alloc_counting(bool on);
bool alloc_counting();
AllocCounts alloc_counts();

/// User + system CPU time of the process, in seconds.
double process_cpu_s();
/// Peak resident set of the process, in KiB.
std::uint64_t peak_rss_kb();

/// nproc, CPU model, compiler, build type and flags, load average.
json::Value fingerprint();

/// Nearest-rank percentile (0 <= p <= 100) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) { return percentile(std::move(samples), 50); }

}  // namespace escape::e2e
