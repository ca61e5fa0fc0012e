#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace escape::obs {

namespace {

void append_escaped(std::string& out, std::string_view raw) {
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

void sort_labels(Labels& labels) {
  std::sort(labels.begin(), labels.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

Logger& obs_log() {
  static Logger log{"obs.metrics"};
  return log;
}

/// Formats a value the way Prometheus text exposition expects: integral
/// values without a fractional part, everything else with %g.
std::string format_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    return strings::format("%lld", static_cast<long long>(v));
  }
  return strings::format("%g", v);
}

}  // namespace

std::string format_labels(const Labels& labels) {
  if (labels.empty()) return "";
  Labels sorted = labels;
  sort_labels(sorted);
  std::string out = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i) out += ",";
    out += sorted[i].first;
    out += "=\"";
    append_escaped(out, sorted[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

// --- BoundedHistogram ---------------------------------------------------------

BoundedHistogram::BoundedHistogram(HistogramOptions options)
    : options_(options), log_growth_(std::log(options.growth)) {
  if (options_.buckets < 2) options_.buckets = 2;
  if (options_.growth <= 1.0) {
    options_.growth = 1.189207115002721;
    log_growth_ = std::log(options_.growth);
  }
  if (options_.min_bound <= 0) options_.min_bound = 1.0;
  counts_ = std::vector<std::atomic<std::uint64_t>>(options_.buckets);
}

std::size_t BoundedHistogram::bucket_index(double sample) const {
  if (!(sample > options_.min_bound)) return 0;
  const double i = std::ceil(std::log(sample / options_.min_bound) / log_growth_);
  if (i >= static_cast<double>(counts_.size() - 1)) return counts_.size() - 1;
  return static_cast<std::size_t>(i);
}

double BoundedHistogram::bucket_upper(std::size_t i) const {
  return options_.min_bound * std::pow(options_.growth, static_cast<double>(i));
}

void BoundedHistogram::record(double sample) {
  counts_[bucket_index(sample)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS loops instead of atomic<double>::fetch_add/min/max so the same
  // code works on toolchains without C++20 atomic-float RMW support.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + sample, std::memory_order_relaxed)) {
  }
  cur = min_.load(std::memory_order_relaxed);
  while (sample < cur &&
         !min_.compare_exchange_weak(cur, sample, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (sample > cur &&
         !max_.compare_exchange_weak(cur, sample, std::memory_order_relaxed)) {
  }
}

double BoundedHistogram::percentile(double p) const {
  const std::size_t n = count();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Geometric bucket midpoint, clamped to the observed range so
      // single-valued and extreme distributions stay exact.
      double estimate;
      if (i == 0) {
        estimate = options_.min_bound;
      } else {
        estimate = bucket_upper(i) / std::sqrt(options_.growth);
      }
      return std::clamp(estimate, min(), max());
    }
  }
  return max();
}

void BoundedHistogram::clear() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

std::string BoundedHistogram::summary() const {
  return strings::format("n=%zu mean=%.3f p50=%.3f p95=%.3f max=%.3f",
                         count(), mean(), p50(), p95(), max());
}

// --- MetricsRegistry ----------------------------------------------------------

std::string_view metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::string MetricsRegistry::key_of(std::string_view name, const Labels& labels) {
  return std::string(name) + format_labels(labels);
}

MetricsRegistry::Entry* MetricsRegistry::find_or_create(std::string_view name,
                                                        Labels&& labels, MetricKind kind,
                                                        const void* owner) {
  sort_labels(labels);
  const std::string key = key_of(name, labels);
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    Entry& live = it->second;
    // An identity keeps its kind and its holder: registry-owned series
    // are shared through get-or-create, owner-held ones are re-exposable
    // (a restarted VNF re-exports its handlers) and move on takeover.
    if (live.kind == kind && (live.owner == nullptr) == (owner == nullptr)) {
      if (live.owner != owner) {
        auto held = by_owner_.find(live.owner);
        auto& list = held->second;
        *std::find(list.begin(), list.end(), it) = list.back();
        list.pop_back();
        if (list.empty()) by_owner_.erase(held);
        by_owner_[owner].push_back(it);
        live.owner = owner;
      }
      return &live;
    }
    obs_log().warn("metric '", key, "' registered as ", owner ? "owner-held " : "",
                   metric_kind_name(kind), " but exists as ", live.owner ? "owner-held " : "",
                   metric_kind_name(live.kind), "; returning detached metric");
    detached_.push_back(std::make_unique<Entry>());
    Entry* orphan = detached_.back().get();
    orphan->name = std::string(name);
    orphan->labels = std::move(labels);
    orphan->kind = kind;
    return orphan;  // unindexed: remove_owner never sees it
  }
  Entry entry;
  entry.name = std::string(name);
  entry.labels = std::move(labels);
  entry.kind = kind;
  entry.owner = owner;
  it = metrics_.emplace(key, std::move(entry)).first;
  if (owner) by_owner_[owner].push_back(it);
  return &it->second;
}

namespace {

/// The registry-owned instrument of type T an entry holds, created on
/// first use.
template <typename T, typename Instrument, typename... Args>
T& owned(Instrument& instrument, Args&&... args) {
  if (!std::holds_alternative<std::unique_ptr<T>>(instrument)) {
    instrument = std::make_unique<T>(std::forward<Args>(args)...);
  }
  return *std::get<std::unique_ptr<T>>(instrument);
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return owned<Counter>(find_or_create(name, std::move(labels), MetricKind::kCounter)->instrument);
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return owned<Gauge>(find_or_create(name, std::move(labels), MetricKind::kGauge)->instrument);
}

BoundedHistogram& MetricsRegistry::histogram(std::string_view name, Labels labels,
                                             HistogramOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  return owned<BoundedHistogram>(
      find_or_create(name, std::move(labels), MetricKind::kHistogram)->instrument, options);
}

void MetricsRegistry::expose_counter(std::string_view name, Labels labels, const void* owner,
                                     CounterFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  find_or_create(name, std::move(labels), MetricKind::kCounter, owner)->instrument =
      std::move(fn);
}

void MetricsRegistry::expose_gauge(std::string_view name, Labels labels, const void* owner,
                                   GaugeFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  find_or_create(name, std::move(labels), MetricKind::kGauge, owner)->instrument = std::move(fn);
}

void MetricsRegistry::expose_histogram(std::string_view name, Labels labels, const void* owner,
                                       const BoundedHistogram& histogram) {
  std::lock_guard<std::mutex> lock(mu_);
  find_or_create(name, std::move(labels), MetricKind::kHistogram, owner)->instrument =
      &histogram;
}

void MetricsRegistry::remove_owner(const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  auto held = by_owner_.find(owner);
  if (held == by_owner_.end()) return;
  for (Map::iterator it : held->second) metrics_.erase(it);
  by_owner_.erase(held);
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

bool MetricsRegistry::has(std::string_view name, const Labels& labels) const {
  Labels sorted = labels;
  sort_labels(sorted);
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.count(key_of(name, sorted)) > 0;
}

std::string MetricsRegistry::render_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::set<std::string> typed;
  for (const auto& [key, e] : metrics_) {
    const std::string labels = format_labels(e.labels);
    if (typed.insert(e.name).second) {
      out += "# TYPE " + e.name + " " + std::string(metric_kind_name(e.kind)) + "\n";
    }
    switch (e.kind) {
      case MetricKind::kCounter:
        out += e.name + labels + " " + std::to_string(e.counter_value()) + "\n";
        break;
      case MetricKind::kGauge:
        if (auto v = e.gauge_value()) out += e.name + labels + " " + format_value(*v) + "\n";
        break;
      case MetricKind::kHistogram: {
        const BoundedHistogram& h = e.histogram_value();
        out += e.name + "_count" + labels + " " + std::to_string(h.count()) + "\n";
        out += e.name + "_sum" + labels + " " + format_value(h.sum()) + "\n";
        for (double q : {50.0, 95.0, 99.0}) {
          Labels ql = e.labels;
          ql.emplace_back("quantile", strings::format("%.2f", q / 100.0));
          out += e.name + format_labels(ql) + " " + format_value(h.percentile(q)) + "\n";
        }
        break;
      }
    }
  }
  return out;
}

json::Value MetricsRegistry::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Array metrics;
  for (const auto& [key, e] : metrics_) {
    json::Object m;
    m["name"] = e.name;
    m["kind"] = std::string(metric_kind_name(e.kind));
    json::Object labels;
    for (const auto& [k, v] : e.labels) labels[k] = v;
    m["labels"] = std::move(labels);
    switch (e.kind) {
      case MetricKind::kCounter:
        m["value"] = e.counter_value();
        break;
      case MetricKind::kGauge: {
        auto v = e.gauge_value();
        if (!v) continue;
        m["value"] = *v;
        break;
      }
      case MetricKind::kHistogram: {
        const BoundedHistogram& h = e.histogram_value();
        m["count"] = static_cast<std::uint64_t>(h.count());
        m["sum"] = h.sum();
        m["min"] = h.min();
        m["max"] = h.max();
        m["mean"] = h.mean();
        m["p50"] = h.p50();
        m["p95"] = h.p95();
        m["p99"] = h.p99();
        break;
      }
    }
    metrics.push_back(std::move(m));
  }
  json::Object doc;
  doc["metrics"] = std::move(metrics);
  return doc;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : metrics_) {
    if (auto* c = std::get_if<std::unique_ptr<Counter>>(&e.instrument)) (*c)->reset();
    if (auto* g = std::get_if<std::unique_ptr<Gauge>>(&e.instrument)) (*g)->set(0);
    if (auto* h = std::get_if<std::unique_ptr<BoundedHistogram>>(&e.instrument)) (*h)->clear();
  }
}

}  // namespace escape::obs

namespace escape::stats {

obs::Counter& packet_clones() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("escape_packet_clones_total");
  return counter;
}

}  // namespace escape::stats
