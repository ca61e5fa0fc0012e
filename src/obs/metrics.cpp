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

std::string format_sorted_labels(const Labels& sorted) {
  if (sorted.empty()) return "";
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
  Labels sorted = labels;
  sort_labels(sorted);
  return format_sorted_labels(sorted);
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

void SampleSink::add(std::string_view name, Labels&& labels, Sample::Value value) {
  sort_labels(labels);
  out_->push_back({std::string(name) + format_sorted_labels(labels), std::string(name),
                   std::move(labels), value});
}

template <typename T, typename... Args>
T& MetricsRegistry::get_or_create(std::string_view name, Labels&& labels, Args&&... args) {
  sort_labels(labels);
  std::string key = std::string(name) + format_sorted_labels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(key);
  if (it == metrics_.end()) {
    it = metrics_
             .emplace(std::move(key), Entry{std::string(name), std::move(labels),
                                            std::make_unique<T>(std::forward<Args>(args)...)})
             .first;
  }
  if (auto* live = std::get_if<std::unique_ptr<T>>(&it->second.instrument)) return **live;
  Instrument& orphan = detached_.emplace_back(std::make_unique<T>(std::forward<Args>(args)...));
  auto kind_name = [](const Instrument& i) {
    return metric_kind_name(static_cast<MetricKind>(i.index()));
  };
  obs_log().warn("metric '", it->first, "' registered as ", kind_name(orphan), " but exists as ",
                 kind_name(it->second.instrument), "; returning detached metric");
  return *std::get<std::unique_ptr<T>>(orphan);
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  return get_or_create<Counter>(name, std::move(labels));
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  return get_or_create<Gauge>(name, std::move(labels));
}

BoundedHistogram& MetricsRegistry::histogram(std::string_view name, Labels labels,
                                             HistogramOptions options) {
  return get_or_create<BoundedHistogram>(name, std::move(labels), options);
}

void MetricsRegistry::collect(const void* owner, Collector collector) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_[owner] = {next_seq_++, std::move(collector)};
}

void MetricsRegistry::remove_owner(const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.erase(owner);
}

// Collectors run under mu_, so remove_owner waits for a render in
// progress: an owner never dies while its collector reads it.
std::vector<Sample> MetricsRegistry::samples() const {
  std::vector<const Collection*> newest_first;
  newest_first.reserve(collectors_.size());
  for (const auto& [owner, c] : collectors_) newest_first.push_back(&c);
  std::sort(newest_first.begin(), newest_first.end(),
            [](const Collection* a, const Collection* b) { return a->seq > b->seq; });
  std::vector<Sample> out;
  SampleSink sink(out);
  for (const Collection* c : newest_first) c->collector(sink);
  for (const auto& [key, e] : metrics_) {
    Sample::Value value;
    if (auto* c = std::get_if<std::unique_ptr<Counter>>(&e.instrument)) value = (*c)->value();
    if (auto* g = std::get_if<std::unique_ptr<Gauge>>(&e.instrument)) value = (*g)->value();
    if (auto* h = std::get_if<std::unique_ptr<BoundedHistogram>>(&e.instrument)) value = h->get();
    out.push_back({key, e.name, e.labels, value});
  }
  // Stable, so the first sample of an identity -- the newest collector's,
  // else the registry-owned one -- is the one kept.
  auto by_key = [](const Sample& a, const Sample& b) { return a.key < b.key; };
  std::stable_sort(out.begin(), out.end(), by_key);
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Sample& a, const Sample& b) { return a.key == b.key; }),
            out.end());
  return out;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples().size();
}

bool MetricsRegistry::has(std::string_view name, const Labels& labels) const {
  const std::string key = std::string(name) + format_labels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Sample> all = samples();
  return std::any_of(all.begin(), all.end(), [&key](const Sample& s) { return s.key == key; });
}

std::string MetricsRegistry::render_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::set<std::string> typed;
  for (const Sample& s : samples()) {
    if (typed.insert(s.name).second) {
      out += "# TYPE " + s.name + " " + std::string(metric_kind_name(s.kind())) + "\n";
    }
    switch (s.kind()) {
      case MetricKind::kCounter:
        out += s.key + " " + std::to_string(std::get<std::uint64_t>(s.value)) + "\n";
        break;
      case MetricKind::kGauge:
        out += s.key + " " + format_value(std::get<double>(s.value)) + "\n";
        break;
      case MetricKind::kHistogram: {
        const BoundedHistogram& h = *std::get<const BoundedHistogram*>(s.value);
        const std::string labels = s.key.substr(s.name.size());
        out += s.name + "_count" + labels + " " + std::to_string(h.count()) + "\n";
        out += s.name + "_sum" + labels + " " + format_value(h.sum()) + "\n";
        for (double q : {50.0, 95.0, 99.0}) {
          Labels ql = s.labels;
          ql.emplace_back("quantile", strings::format("%.2f", q / 100.0));
          out += s.name + format_labels(ql) + " " + format_value(h.percentile(q)) + "\n";
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
  for (const Sample& s : samples()) {
    json::Object m;
    m["name"] = s.name;
    m["kind"] = std::string(metric_kind_name(s.kind()));
    json::Object labels;
    for (const auto& [k, v] : s.labels) labels[k] = v;
    m["labels"] = std::move(labels);
    switch (s.kind()) {
      case MetricKind::kCounter:
        m["value"] = std::get<std::uint64_t>(s.value);
        break;
      case MetricKind::kGauge:
        m["value"] = std::get<double>(s.value);
        break;
      case MetricKind::kHistogram: {
        const BoundedHistogram& h = *std::get<const BoundedHistogram*>(s.value);
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
