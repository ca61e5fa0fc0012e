// The observability layer's metric model: a process-wide registry of
// named counters, gauges and bounded-memory histograms, with
// Prometheus-style text exposition and a JSON snapshot.
//
// Design rules:
//   * one instrument per fact: a series is registry-owned (allocated
//     once, never moving or dying, so callers cache the reference) or
//     collected (a component registers one collector that emits the
//     counts and histograms it keeps anyway, and removes it before it
//     dies). Both kinds merge into one sample list and render alike;
//   * a collector registration builds no key: keys are built, sorted
//     and merged only when something renders (render_text,
//     snapshot_json, size, has), each of which costs one collection;
//   * exposition reads collected values unsynchronised, so it runs
//     outside parallel scheduler windows, as Click handlers require;
//   * Counter::add is a relaxed atomic fetch-add, so registry-owned
//     process-wide totals stay exact under concurrent shard writers;
//   * histograms are fixed-size geometric-bucket summaries (HDR-style):
//     count/sum/min/max are exact, percentiles are bucket estimates with
//     a bounded relative error, and memory does not grow with samples --
//     unlike util/stats Histogram, which keeps every sample and is only
//     suitable for test/bench scale;
//   * identity is (name, labels). Registry-owned registration is
//     get-or-create, so two components asking for the same metric share
//     one instance. At render, collectors are asked newest registration
//     first, then the registry-owned series follow, and the first sample
//     of an identity wins.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "json/json.hpp"

namespace escape::obs {

/// Metric labels: key/value pairs, kept sorted by key so label order at
/// the call site never changes metric identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Renders labels Prometheus-style: {a="x",b="y"} ("" when empty).
/// Values are escaped (backslash, quote, newline); keys are sorted.
std::string format_labels(const Labels& labels);

/// A monotonically increasing counter. Relaxed atomics: safe to bump
/// from concurrent contexts without locks; reads may lag writes but can
/// never tear or corrupt the value.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A point-in-time value that can go up and down (queue depth, CPU
/// share). Same relaxed-atomic contract as Counter.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void sub(double d) { value_.fetch_sub(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramOptions {
  /// Upper bound of the first bucket; samples <= this land in bucket 0.
  double min_bound = 1.0;
  /// Geometric growth per bucket. 2^(1/4) keeps the percentile estimate
  /// within ~9% of the true value (half a bucket either way).
  double growth = 1.189207115002721;
  /// Bucket count. 192 buckets at 2^(1/4) growth span 48 octaves.
  std::size_t buckets = 192;
};

/// A bounded-memory histogram: geometric buckets plus exact
/// count/sum/min/max. The hot-path replacement for the keep-all-samples
/// util/stats Histogram; API-compatible for the accessors tests and
/// benches use (count/mean/min/max/p50/p95/p99/summary).
///
/// record() is safe under concurrent writers (per-shard scheduler
/// threads recording into one shared series): buckets and count are
/// relaxed fetch-adds, sum/min/max are CAS loops. Readers racing
/// writers may observe a sample in one field but not yet another
/// (count vs sum); once writers quiesce -- at a window barrier or run
/// end, which is when snapshots are taken -- every accessor is exact.
class BoundedHistogram {
 public:
  explicit BoundedHistogram(HistogramOptions options = {});

  void record(double sample);

  std::size_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return count() ? min_.load(std::memory_order_relaxed) : 0.0; }
  double max() const { return count() ? max_.load(std::memory_order_relaxed) : 0.0; }
  double mean() const {
    std::size_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
  }

  /// Nearest-rank percentile estimated from the bucket boundaries;
  /// clamped into [min(), max()] so degenerate distributions are exact.
  double percentile(double p) const;
  double p50() const { return percentile(50); }
  double p95() const { return percentile(95); }
  double p99() const { return percentile(99); }

  void clear();

  /// One-line summary matching util/stats Histogram::summary().
  std::string summary() const;

  std::size_t bucket_count() const { return counts_.size(); }

 private:
  std::size_t bucket_index(double sample) const;
  double bucket_upper(std::size_t i) const;

  HistogramOptions options_;
  double log_growth_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::size_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

std::string_view metric_kind_name(MetricKind kind);

/// One series as a render sees it: identity, and the value read at
/// render time.
struct Sample {
  /// The value by kind; the alternative's index is the MetricKind.
  using Value = std::variant<std::uint64_t, double, const BoundedHistogram*>;

  std::string key;  // name + format_labels(labels): identity and render order
  std::string name;
  Labels labels;  // sorted by key
  Value value;

  MetricKind kind() const { return static_cast<MetricKind>(value.index()); }
};

/// What a collector emits its owner's samples into. Leaving a value out
/// (a Click handler that does not parse as a number) leaves the series
/// out of that render.
class SampleSink {
 public:
  explicit SampleSink(std::vector<Sample>& out) : out_(&out) {}

  void counter(std::string_view name, Labels labels, std::uint64_t value) {
    add(name, std::move(labels), value);
  }
  void gauge(std::string_view name, Labels labels, double value) {
    add(name, std::move(labels), value);
  }
  /// `histogram` is read within the render that collects it.
  void histogram(std::string_view name, Labels labels, const BoundedHistogram& histogram) {
    add(name, std::move(labels), &histogram);
  }

 private:
  void add(std::string_view name, Labels&& labels, Sample::Value value);

  std::vector<Sample>* out_;
};

/// The process-wide metric registry. Registry-owned registration is
/// get-or-create on (name, labels); returned references stay valid for
/// the registry's lifetime. Registering an existing (name, labels) under
/// a *different* kind is a programming error: it is logged once and a
/// detached metric (never exported) is returned so the caller's
/// reference is still safe to use.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide instance every layer registers into.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  BoundedHistogram& histogram(std::string_view name, Labels labels = {},
                              HistogramOptions options = {});

  /// Registers `owner`'s one collector, called at every render to emit
  /// the counts it keeps; a second call replaces it. A collected sample
  /// renders exactly like a registry-owned series of the same kind and
  /// shadows a registry-owned series of its identity. The owner MUST
  /// call remove_owner(owner) before it (or anything the collector
  /// reads) is destroyed.
  using Collector = std::function<void(SampleSink&)>;
  void collect(const void* owner, Collector collector);

  /// Drops `owner`'s collector, if any.
  void remove_owner(const void* owner);

  /// The number of rendered series, and whether one renders. Each call
  /// costs one collection, O(series).
  std::size_t size() const;
  bool has(std::string_view name, const Labels& labels = {}) const;

  /// Prometheus text exposition: "# TYPE" comment per metric name, then
  /// 'name{labels} value' lines, sorted. Histograms expose _count, _sum
  /// and quantile series.
  std::string render_text() const;

  /// Same data as a JSON document: {"metrics": [{name, labels, kind,
  /// ...value fields}]}.
  json::Value snapshot_json() const;

  /// Zeroes registry-owned counters/gauges and clears their histograms;
  /// collected values and the metric set itself are untouched. For
  /// tests and bench isolation.
  void reset_values();

 private:
  /// A registry-owned instrument; the alternative's index is the
  /// MetricKind.
  using Instrument = std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                                  std::unique_ptr<BoundedHistogram>>;
  struct Entry {
    std::string name;
    Labels labels;
    Instrument instrument;
  };
  struct Collection {
    std::uint64_t seq;  // registration order: the newest wins an identity
    Collector collector;
  };

  /// Get-or-create of a registry-owned T; an identity that exists with
  /// another kind yields a detached T.
  template <typename T, typename... Args>
  T& get_or_create(std::string_view name, Labels&& labels, Args&&... args);
  /// Every rendered series, sorted by key, one per identity. mu_ held.
  std::vector<Sample> samples() const;

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
  std::unordered_map<const void*, Collection> collectors_;
  std::uint64_t next_seq_ = 0;
  // Mismatched registrations park here: alive forever, never exported.
  std::vector<Instrument> detached_;
};

}  // namespace escape::obs

namespace escape::stats {

/// Process-wide count of deep packet copies made by fan-out points (Tee,
/// OpenFlow flood/multi-output actions). Lives in the metrics registry
/// as escape_packet_clones_total; every clone is a full buffer copy, so
/// this counter is the first thing to look at when the data plane is
/// slower than expected.
obs::Counter& packet_clones();

}  // namespace escape::stats
