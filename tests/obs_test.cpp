// Unit tests for the observability layer: metric registry semantics
// (get-or-create identity, kind mismatch, label formatting, collectors,
// their identity rule and their removal), the bounded histogram's
// accuracy against the exact util/stats Histogram, the text/JSON
// exposition formats, and the trace ring.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <random>
#include <thread>

#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace escape::obs {
namespace {

// Each test uses its own registry instance; the process-wide global()
// accumulates across tests in this binary and is only probed where the
// test is insensitive to pre-existing entries.

TEST(Labels, FormatSortsEscapesAndBraces) {
  EXPECT_EQ(format_labels({}), "");
  EXPECT_EQ(format_labels({{"b", "2"}, {"a", "1"}}), "{a=\"1\",b=\"2\"}");
  EXPECT_EQ(format_labels({{"k", "a\"b"}}), "{k=\"a\\\"b\"}");
  EXPECT_EQ(format_labels({{"k", "a\\b"}}), "{k=\"a\\\\b\"}");
  EXPECT_EQ(format_labels({{"k", "a\nb"}}), "{k=\"a\\nb\"}");
}

TEST(Registry, GetOrCreateReturnsSameInstance) {
  MetricsRegistry registry;
  Counter& a = registry.counter("escape_test_total", {{"x", "1"}});
  Counter& b = registry.counter("escape_test_total", {{"x", "1"}});
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, LabelOrderDoesNotChangeIdentity) {
  MetricsRegistry registry;
  Counter& a = registry.counter("escape_test_total", {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.counter("escape_test_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, DifferentLabelsAreDifferentMetrics) {
  MetricsRegistry registry;
  Counter& a = registry.counter("escape_test_total", {{"x", "1"}});
  Counter& b = registry.counter("escape_test_total", {{"x", "2"}});
  EXPECT_NE(&a, &b);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Registry, KindMismatchReturnsDetachedMetric) {
  MetricsRegistry registry;
  Counter& c = registry.counter("escape_test_metric");
  c.add(7);
  // Same identity, wrong kind: the caller still gets a safe object...
  Gauge& g = registry.gauge("escape_test_metric");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  // ...but it is never exported and the original is untouched.
  EXPECT_EQ(c.value(), 7u);
  EXPECT_EQ(registry.size(), 1u);
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("escape_test_metric 7"), std::string::npos);
  EXPECT_EQ(text.find("1.5"), std::string::npos);
}

TEST(Registry, HasAndSize) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.has("escape_test_total"));
  registry.counter("escape_test_total");
  registry.gauge("escape_test_gauge", {{"x", "1"}});
  EXPECT_TRUE(registry.has("escape_test_total"));
  EXPECT_TRUE(registry.has("escape_test_gauge", {{"x", "1"}}));
  EXPECT_FALSE(registry.has("escape_test_gauge", {{"x", "2"}}));
  EXPECT_EQ(registry.size(), 2u);
}

// A collector's samples render as series; one it leaves out (a Click
// handler whose value is not a number) is no series at all.
TEST(Registry, CallbackGaugeExportsAndRemoves) {
  MetricsRegistry registry;
  int owner = 0;
  registry.collect(&owner, [](SampleSink& sink) {
    const std::pair<const char*, std::optional<double>> values[] = {{"a", 42.0},
                                                                    {"b", std::nullopt}};
    for (const auto& [id, value] : values) {
      if (value) sink.gauge("escape_test_cb", {{"id", id}}, *value);
    }
  });
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("escape_test_cb{id=\"a\"} 42"), std::string::npos);
  EXPECT_EQ(text.find("id=\"b\""), std::string::npos);
  EXPECT_TRUE(registry.has("escape_test_cb", {{"id", "a"}}));
  EXPECT_FALSE(registry.has("escape_test_cb", {{"id", "b"}}));
  EXPECT_EQ(registry.size(), 1u);

  registry.remove_owner(&owner);
  EXPECT_EQ(registry.render_text().find("escape_test_cb"), std::string::npos);
  EXPECT_EQ(registry.size(), 0u);
}

// 20k series of other owners and kinds around one owner's handful;
// removing that owner takes exactly its own.
TEST(Registry, RemoveCallbacksTakesOnlyTheOwnersSeries) {
  MetricsRegistry registry;
  std::vector<int> others(100);
  for (int i = 0; i < 10'000; ++i) {
    registry.counter("escape_test_total", {{"i", std::to_string(i)}});
  }
  for (int o = 0; o < 100; ++o) {
    registry.collect(&others[o], [o](SampleSink& sink) {
      for (int i = o; i < 10'000; i += 100) {
        sink.gauge("escape_test_cb", {{"i", std::to_string(i)}}, 1.0);
      }
    });
  }
  const std::size_t start = registry.size();
  ASSERT_EQ(start, 20'000u);
  const std::string before = registry.render_text();

  int owner = 0;
  registry.collect(&owner, [](SampleSink& sink) {
    for (int h = 0; h < 8; ++h) {
      sink.gauge("escape_test_cb", {{"owner", "a"}, {"h", std::to_string(h)}}, 2.0);
    }
  });
  EXPECT_EQ(registry.size(), start + 8);
  EXPECT_TRUE(registry.has("escape_test_cb", {{"owner", "a"}, {"h", "7"}}));
  registry.remove_owner(&owner);
  EXPECT_EQ(registry.size(), start);
  EXPECT_FALSE(registry.has("escape_test_cb", {{"owner", "a"}, {"h", "7"}}));
  EXPECT_EQ(registry.render_text(), before);
}

TEST(Registry, ReRegisteredCallbackMovesToNewOwner) {
  MetricsRegistry registry;
  registry.counter("escape_test_total");
  const std::size_t start = registry.size();
  int a = 0;
  int b = 0;
  registry.collect(&a, [](SampleSink& sink) {
    sink.gauge("escape_test_cb", {{"id", "shared"}}, 1.0);
    sink.gauge("escape_test_cb", {{"id", "a-only"}}, 1.0);
  });
  registry.collect(&b,
                   [](SampleSink& sink) { sink.gauge("escape_test_cb", {{"id", "shared"}}, 7.0); });
  EXPECT_EQ(registry.size(), start + 2);
  EXPECT_NE(registry.render_text().find("escape_test_cb{id=\"shared\"} 7"), std::string::npos);

  registry.remove_owner(&a);
  EXPECT_FALSE(registry.has("escape_test_cb", {{"id", "a-only"}}));
  ASSERT_TRUE(registry.has("escape_test_cb", {{"id", "shared"}}));
  EXPECT_NE(registry.render_text().find("escape_test_cb{id=\"shared\"} 7"), std::string::npos);

  registry.remove_owner(&b);
  EXPECT_FALSE(registry.has("escape_test_cb", {{"id", "shared"}}));
  EXPECT_EQ(registry.size(), start);
}

TEST(Registry, RemoveCallbacksOfUnknownOrRemovedOwnerIsNoOp) {
  MetricsRegistry registry;
  int a = 0;
  int b = 0;
  int stranger = 0;
  registry.collect(&a, [](SampleSink& sink) {
    sink.gauge("escape_test_cb", {{"id", "a"}}, 1.0);
    sink.gauge("escape_test_cb", {{"id", "a-first"}}, 1.0);
  });
  // A second collect by the same owner replaces its collector.
  registry.collect(&a, [](SampleSink& sink) { sink.gauge("escape_test_cb", {{"id", "a"}}, 2.0); });
  registry.collect(&b, [](SampleSink& sink) { sink.gauge("escape_test_cb", {{"id", "b"}}, 3.0); });
  const std::size_t start = registry.size();
  EXPECT_EQ(start, 2u);
  EXPECT_FALSE(registry.has("escape_test_cb", {{"id", "a-first"}}));
  EXPECT_NE(registry.render_text().find("escape_test_cb{id=\"a\"} 2\n"), std::string::npos);

  registry.remove_owner(&stranger);
  EXPECT_EQ(registry.size(), start);
  registry.remove_owner(&a);
  EXPECT_EQ(registry.size(), start - 1);
  registry.remove_owner(&a);
  EXPECT_EQ(registry.size(), start - 1);
  EXPECT_TRUE(registry.has("escape_test_cb", {{"id", "b"}}));
}

// A collected sample shadows the registry-owned series of its identity,
// whatever its kind, while its owner lives; the registry-owned entry
// stays intact and renders again once the owner is gone.
TEST(Registry, CallbackOnKindMismatchLeavesLiveEntryIntact) {
  MetricsRegistry registry;
  Counter& c = registry.counter("escape_test_metric");
  c.add(5);
  const std::size_t start = registry.size();
  int owner = 0;
  registry.collect(&owner, [](SampleSink& sink) { sink.gauge("escape_test_metric", {}, 99.0); });
  EXPECT_EQ(registry.size(), start);
  std::string text = registry.render_text();
  EXPECT_NE(text.find("# TYPE escape_test_metric gauge\nescape_test_metric 99\n"),
            std::string::npos);
  EXPECT_EQ(text.find("escape_test_metric 5"), std::string::npos);

  registry.remove_owner(&owner);
  EXPECT_EQ(registry.size(), start);
  EXPECT_EQ(&registry.counter("escape_test_metric"), &c);
  text = registry.render_text();
  EXPECT_NE(text.find("# TYPE escape_test_metric counter\nescape_test_metric 5\n"),
            std::string::npos);
  EXPECT_EQ(text.find("99"), std::string::npos);
}

// --- collected series -------------------------------------------------------------

TEST(OwnerHeld, RendersLikeRegistryOwned) {
  MetricsRegistry owned;
  owned.counter("escape_test_total", {{"id", "x"}}).add(9);
  owned.gauge("escape_test_level", {{"id", "x"}}).set(2.5);
  BoundedHistogram& recorded = owned.histogram("escape_test_us", {{"id", "x"}});

  // A component's own count, level and histogram, holding the same facts.
  BoundedHistogram histogram;
  for (int i = 1; i <= 100; ++i) {
    recorded.record(i * 1.5);
    histogram.record(i * 1.5);
  }
  MetricsRegistry held;
  int owner = 0;
  held.collect(&owner, [&histogram](SampleSink& sink) {
    sink.counter("escape_test_total", {{"id", "x"}}, 9);
    sink.gauge("escape_test_level", {{"id", "x"}}, 2.5);
    sink.histogram("escape_test_us", {{"id", "x"}}, histogram);
  });

  EXPECT_EQ(held.render_text(), owned.render_text());
  EXPECT_EQ(held.snapshot_json().dump(2), owned.snapshot_json().dump(2));
}

TEST(OwnerHeld, ValuesAreReadAtRenderTime) {
  MetricsRegistry registry;
  std::uint64_t count = 9;
  double level = 2.5;
  BoundedHistogram histogram;
  int owner = 0;
  registry.collect(&owner, [&](SampleSink& sink) {
    sink.counter("escape_test_total", {}, count);
    sink.gauge("escape_test_level", {}, level);
    sink.histogram("escape_test_us", {}, histogram);
  });
  EXPECT_NE(registry.render_text().find("escape_test_total 9\n"), std::string::npos);
  count = 10;
  level = 0.5;
  histogram.record(3);
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("escape_test_total 10\n"), std::string::npos);
  EXPECT_NE(text.find("escape_test_level 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("escape_test_us_count 1\n"), std::string::npos);
}

TEST(OwnerHeld, GetOrCreateOnCollectedIdentityIsOneInstrument) {
  MetricsRegistry registry;
  BoundedHistogram histogram;
  histogram.record(3);
  int owner = 0;
  registry.collect(&owner, [&histogram](SampleSink& sink) {
    sink.counter("escape_test_total", {}, 4);
    sink.gauge("escape_test_level", {}, 1.0);
    sink.histogram("escape_test_us", {}, histogram);
  });
  const std::string before = registry.render_text();

  // Every kind hands back one working registry-owned instrument, the
  // same on every call...
  Counter& c = registry.counter("escape_test_total");
  c.add(100);
  EXPECT_EQ(&registry.counter("escape_test_total"), &c);
  EXPECT_EQ(c.value(), 100u);
  Gauge& g = registry.gauge("escape_test_level");
  g.set(50);
  EXPECT_EQ(&registry.gauge("escape_test_level"), &g);
  BoundedHistogram& h = registry.histogram("escape_test_us");
  h.record(1000);
  EXPECT_EQ(&registry.histogram("escape_test_us"), &h);
  // ...that the owner's series shadow while it lives.
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.render_text(), before);
  EXPECT_EQ(histogram.count(), 1u);

  registry.remove_owner(&owner);
  const std::string after = registry.render_text();
  EXPECT_NE(after.find("escape_test_total 100\n"), std::string::npos);
  EXPECT_NE(after.find("escape_test_level 50\n"), std::string::npos);
  EXPECT_NE(after.find("escape_test_us_sum 1000\n"), std::string::npos);
}

TEST(OwnerHeld, ResetValuesLeavesCollectedValuesAlone) {
  MetricsRegistry registry;
  registry.counter("escape_test_owned_total").add(5);
  BoundedHistogram histogram;
  histogram.record(3);
  int owner = 0;
  registry.collect(&owner, [&histogram](SampleSink& sink) {
    sink.counter("escape_test_total", {}, 4);
    sink.histogram("escape_test_us", {}, histogram);
  });
  registry.reset_values();
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("escape_test_owned_total 0\n"), std::string::npos);
  EXPECT_NE(text.find("escape_test_total 4\n"), std::string::npos);
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_NE(text.find("escape_test_us_count 1\n"), std::string::npos);
}

TEST(OwnerHeld, RemovalAndTakeoverCoverEveryKind) {
  MetricsRegistry registry;
  registry.counter("escape_test_other_total").add(1);
  const std::size_t start = registry.size();
  BoundedHistogram hist_a;
  BoundedHistogram hist_b;
  hist_a.record(1);
  hist_b.record(7);
  hist_b.record(7);
  int a = 0;
  int b = 0;
  const Labels shared{{"id", "shared"}};
  registry.collect(&a, [&](SampleSink& sink) {
    sink.counter("escape_test_total", shared, 1);
    sink.gauge("escape_test_level", shared, 1.0);
    sink.histogram("escape_test_us", shared, hist_a);
    sink.counter("escape_test_total", {{"id", "a-only"}}, 1);
  });
  // b, the newer collector, wins every shared series.
  registry.collect(&b, [&](SampleSink& sink) {
    sink.counter("escape_test_total", shared, 7);
    sink.gauge("escape_test_level", shared, 7.0);
    sink.histogram("escape_test_us", shared, hist_b);
  });
  EXPECT_EQ(registry.size(), start + 4);
  auto expect_b = [&registry] {
    const std::string text = registry.render_text();
    EXPECT_NE(text.find("escape_test_total{id=\"shared\"} 7"), std::string::npos);
    EXPECT_NE(text.find("escape_test_level{id=\"shared\"} 7"), std::string::npos);
    EXPECT_NE(text.find("escape_test_us_count{id=\"shared\"} 2"), std::string::npos);
  };
  expect_b();

  registry.remove_owner(&a);
  EXPECT_EQ(registry.size(), start + 3);
  EXPECT_FALSE(registry.has("escape_test_total", {{"id", "a-only"}}));
  expect_b();
  registry.remove_owner(&b);
  EXPECT_EQ(registry.size(), start);
  EXPECT_FALSE(registry.has("escape_test_total", shared));
}

TEST(Registry, CounterIsThreadSafe) {
  MetricsRegistry registry;
  Counter& c = registry.counter("escape_test_total");
  constexpr int kThreads = 4;
  constexpr int kAdds = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Registry, ResetValuesKeepsMetricSet) {
  MetricsRegistry registry;
  registry.counter("escape_test_total").add(5);
  registry.gauge("escape_test_gauge").set(2.5);
  registry.histogram("escape_test_hist").record(10);
  registry.reset_values();
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.counter("escape_test_total").value(), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("escape_test_gauge").value(), 0.0);
  EXPECT_EQ(registry.histogram("escape_test_hist").count(), 0u);
}

TEST(RenderText, TypeLinesAndSortedSeries) {
  MetricsRegistry registry;
  registry.counter("escape_b_total", {{"x", "1"}}).add(1);
  registry.counter("escape_b_total", {{"x", "2"}}).add(2);
  registry.gauge("escape_a_gauge").set(3);
  const std::string text = registry.render_text();

  const auto type_a = text.find("# TYPE escape_a_gauge gauge");
  const auto type_b = text.find("# TYPE escape_b_total counter");
  ASSERT_NE(type_a, std::string::npos);
  ASSERT_NE(type_b, std::string::npos);
  EXPECT_LT(type_a, type_b);  // sorted by name
  // One TYPE line covers both label sets.
  EXPECT_EQ(text.find("# TYPE escape_b_total", type_b + 1), std::string::npos);
  EXPECT_NE(text.find("escape_b_total{x=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("escape_b_total{x=\"2\"} 2"), std::string::npos);
}

TEST(RenderText, HistogramSeries) {
  MetricsRegistry registry;
  auto& h = registry.histogram("escape_test_us", {{"k", "v"}});
  for (int i = 1; i <= 100; ++i) h.record(i);
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("# TYPE escape_test_us histogram"), std::string::npos);
  EXPECT_NE(text.find("escape_test_us_count{k=\"v\"} 100"), std::string::npos);
  EXPECT_NE(text.find("escape_test_us_sum{k=\"v\"} 5050"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.50\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.95\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
}

TEST(SnapshotJson, ParsesAndCarriesValues) {
  MetricsRegistry registry;
  registry.counter("escape_test_total", {{"x", "1"}}).add(9);
  registry.histogram("escape_test_us").record(5);
  auto doc = json::parse(registry.snapshot_json().dump(2));
  ASSERT_TRUE(doc.ok());
  const auto& metrics = (*doc)["metrics"];
  ASSERT_EQ(metrics.as_array().size(), 2u);
  bool saw_counter = false, saw_hist = false;
  for (std::size_t i = 0; i < metrics.as_array().size(); ++i) {
    const auto& m = metrics[i];
    if (m["kind"].as_string() == "counter") {
      saw_counter = true;
      EXPECT_EQ(m["name"].as_string(), "escape_test_total");
      EXPECT_DOUBLE_EQ(m["value"].as_double(), 9.0);
      EXPECT_EQ(m["labels"]["x"].as_string(), "1");
    } else if (m["kind"].as_string() == "histogram") {
      saw_hist = true;
      EXPECT_DOUBLE_EQ(m["count"].as_double(), 1.0);
      EXPECT_DOUBLE_EQ(m["sum"].as_double(), 5.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
}

// --- BoundedHistogram ---------------------------------------------------------

TEST(BoundedHistogram, ExactStatsMatchReference) {
  BoundedHistogram bounded;
  Histogram exact;
  std::mt19937 rng(42);
  std::lognormal_distribution<double> dist(3.0, 1.0);
  for (int i = 0; i < 10'000; ++i) {
    const double s = dist(rng);
    bounded.record(s);
    exact.record(s);
  }
  EXPECT_EQ(bounded.count(), exact.count());
  EXPECT_DOUBLE_EQ(bounded.min(), exact.min());
  EXPECT_DOUBLE_EQ(bounded.max(), exact.max());
  EXPECT_NEAR(bounded.mean(), exact.mean(), exact.mean() * 1e-9);
}

TEST(BoundedHistogram, PercentilesWithinBucketError) {
  BoundedHistogram bounded;
  Histogram exact;
  std::mt19937 rng(7);
  std::lognormal_distribution<double> dist(4.0, 1.5);
  for (int i = 0; i < 20'000; ++i) {
    const double s = dist(rng);
    bounded.record(s);
    exact.record(s);
  }
  // 2^(1/4) buckets bound the estimate to ~9% of the true value; allow
  // 15% for nearest-rank wobble near bucket edges.
  for (double p : {50.0, 90.0, 95.0, 99.0}) {
    const double truth = exact.percentile(p);
    const double estimate = bounded.percentile(p);
    EXPECT_NEAR(estimate, truth, truth * 0.15) << "p" << p;
  }
}

TEST(BoundedHistogram, DegenerateDistributionIsExact) {
  BoundedHistogram h;
  for (int i = 0; i < 100; ++i) h.record(720.8);
  EXPECT_DOUBLE_EQ(h.p50(), 720.8);
  EXPECT_DOUBLE_EQ(h.p99(), 720.8);
  EXPECT_DOUBLE_EQ(h.min(), 720.8);
  EXPECT_DOUBLE_EQ(h.max(), 720.8);
}

TEST(BoundedHistogram, EmptyAndClear) {
  BoundedHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  h.record(10);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(BoundedHistogram, MemoryIsBounded) {
  BoundedHistogram h;
  const std::size_t buckets = h.bucket_count();
  for (int i = 0; i < 100'000; ++i) h.record(static_cast<double>(i % 5000) + 1);
  EXPECT_EQ(h.bucket_count(), buckets);  // no growth with samples
  EXPECT_EQ(h.count(), 100'000u);
}

TEST(BoundedHistogram, OutOfRangeSamplesClampToEdgeBuckets) {
  BoundedHistogram h(HistogramOptions{.min_bound = 1.0, .growth = 2.0, .buckets = 4});
  h.record(0.001);  // below min_bound -> bucket 0
  h.record(1e12);   // beyond the last bucket -> clamped
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
  // Percentiles stay clamped into [min, max].
  EXPECT_GE(h.p50(), h.min());
  EXPECT_LE(h.p99(), h.max());
}

// --- stats::packet_clones bridge ---------------------------------------------

TEST(PacketClones, LivesInGlobalRegistry) {
  Counter& c = stats::packet_clones();
  EXPECT_EQ(&c, &stats::packet_clones());
  const std::uint64_t before = c.value();
  c.add(2);
  EXPECT_EQ(c.value(), before + 2);
  EXPECT_TRUE(MetricsRegistry::global().has("escape_packet_clones_total"));
}

// --- TraceRing ----------------------------------------------------------------

TEST(Trace, InstantAndSpanEvents) {
  TraceRing ring(16);
  ring.instant(100, "test", "tick", "n=1");
  const std::uint64_t span = ring.begin_span(200, "test", "work");
  EXPECT_NE(span, 0u);
  ring.end_span(span, 500);
  auto events = ring.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, TracePhase::kInstant);
  EXPECT_EQ(events[0].ts, 100u);
  EXPECT_EQ(events[0].arg, "n=1");
  EXPECT_EQ(events[1].phase, TracePhase::kBegin);
  EXPECT_EQ(events[2].phase, TracePhase::kEnd);
  EXPECT_EQ(events[1].span_id, events[2].span_id);
  EXPECT_EQ(events[2].ts - events[1].ts, 300u);
}

TEST(Trace, RingWrapsOldestFirstAndCountsDrops) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.instant(static_cast<SimTime>(i), "test", "e" + std::to_string(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first order of the surviving tail.
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
}

TEST(Trace, WrappedSlotsReadBackExactly) {
  // Args and names long enough to leave heap capacity in each slot.
  const std::string long_arg = "dpid=123456789 buffer=4294967295 and then some";
  TraceRing ring(2);
  ring.begin_span(1, "openflow-category", "packet_in-long-name", long_arg);
  ring.begin_span(2, "openflow-category", "packet_in-long-name", long_arg);
  // Both slots are overwritten with shorter strings: nothing of the
  // previous event's strings may show through.
  ring.instant(3, "obs", "tick", "n=1");
  ring.end_span(77, 4, "evicted");
  auto events = ring.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(events[0].phase, TracePhase::kInstant);
  EXPECT_EQ(events[0].ts, 3u);
  EXPECT_EQ(events[0].span_id, 0u);
  EXPECT_EQ(events[0].category, "obs");
  EXPECT_EQ(events[0].name, "tick");
  EXPECT_EQ(events[0].arg, "n=1");
  EXPECT_EQ(events[1].phase, TracePhase::kEnd);
  EXPECT_EQ(events[1].ts, 4u);
  EXPECT_EQ(events[1].span_id, 77u);
  EXPECT_EQ(events[1].category, "");
  EXPECT_EQ(events[1].name, "");
  EXPECT_EQ(events[1].arg, "evicted");
  EXPECT_EQ(events[1].seq, events[0].seq + 1);

  // A default (empty) arg clears a slot's previous arg.
  ring.begin_span(5, "c", "n");
  events = ring.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].arg, "");
  EXPECT_EQ(events[1].name, "n");
}

TEST(Trace, ToJsonRoundTrips) {
  TraceRing ring(8);
  ring.instant(42, "cat", "name", "arg");
  auto doc = json::parse(ring.to_json().dump());
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ((*doc)["dropped"].as_double(), 0.0);
  ASSERT_EQ((*doc)["events"].as_array().size(), 1u);
  EXPECT_EQ((*doc)["events"][std::size_t{0}]["category"].as_string(), "cat");
}

TEST(Trace, ClearAndSetCapacity) {
  TraceRing ring(4);
  for (int i = 0; i < 6; ++i) ring.instant(0, "t", "e");
  ring.set_capacity(8);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 8; ++i) ring.instant(0, "t", "e");
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 0u);
}

}  // namespace
}  // namespace escape::obs
