// Unit tests for the util substrate: strings, event scheduler, token
// bucket, RNG and histogram.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "util/event.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/token_bucket.hpp"

namespace escape {
namespace {

using strings::parse_i64;
using strings::parse_scaled_u64;
using strings::parse_u64;

// --- strings -----------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = strings::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitTrimmedDropsEmptiesAndTrims) {
  auto parts = strings::split_trimmed("  a ; ;b; ", ';');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, Trim) {
  EXPECT_EQ(strings::trim("  x  "), "x");
  EXPECT_EQ(strings::trim("\t\n"), "");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("no-ws"), "no-ws");
}

TEST(Strings, Join) {
  EXPECT_EQ(strings::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::join({}, ","), "");
  EXPECT_EQ(strings::join({"solo"}, ","), "solo");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(strings::starts_with("openflow", "open"));
  EXPECT_FALSE(strings::starts_with("open", "openflow"));
  EXPECT_TRUE(strings::ends_with("vnf_agent", "agent"));
  EXPECT_FALSE(strings::ends_with("agent", "vnf_agent"));
}

TEST(Strings, CaseHelpers) {
  EXPECT_TRUE(strings::iequals("NETCONF", "netconf"));
  EXPECT_FALSE(strings::iequals("click", "clack"));
  EXPECT_EQ(strings::to_lower("MiXeD"), "mixed");
  EXPECT_EQ(strings::to_upper("MiXeD"), "MIXED");
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64("12x"));
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_EQ(parse_u64("  42  "), 42u);  // trimmed
}

TEST(Strings, ParseI64) {
  EXPECT_EQ(parse_i64("-5"), -5);
  EXPECT_EQ(parse_i64("+5"), 5);
  EXPECT_EQ(parse_i64("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(parse_i64("9223372036854775807"), INT64_MAX);
  EXPECT_FALSE(parse_i64("9223372036854775808"));
  EXPECT_FALSE(parse_i64("--3"));
}

TEST(Strings, ParseScaled) {
  EXPECT_EQ(parse_scaled_u64("10"), 10u);
  EXPECT_EQ(parse_scaled_u64("10k"), 10'000u);
  EXPECT_EQ(parse_scaled_u64("5M"), 5'000'000u);
  EXPECT_EQ(parse_scaled_u64("2G"), 2'000'000'000u);
  EXPECT_FALSE(parse_scaled_u64("k"));
  EXPECT_FALSE(parse_scaled_u64("10T"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(strings::replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(strings::replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(strings::replace_all("x", "", "y"), "x");  // empty pattern = no-op
}

TEST(Strings, Format) {
  EXPECT_EQ(strings::format("%d/%s", 7, "up"), "7/up");
  EXPECT_EQ(strings::format("%05.1f", 2.25), "002.2");
}

// --- EventScheduler -------------------------------------------------------------

TEST(EventScheduler, RunsInTimestampOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule(30, [&] { order.push_back(3); });
  sched.schedule(10, [&] { order.push_back(1); });
  sched.schedule(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30u);
}

TEST(EventScheduler, FifoTieBreakAtEqualTime) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule(100, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventScheduler, FifoTieBreakSurvivesNestedSchedulingAndCancellation) {
  // The batched link model relies on insertion order being preserved at
  // equal timestamps even when handlers schedule more work *at the
  // current time* and other same-time events are cancelled in between.
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule(50, [&] {
    order.push_back(0);
    // Scheduled from inside a handler at the already-reached timestamp:
    // must run after everything previously queued for t=50.
    sched.schedule_at(50, [&] { order.push_back(3); });
  });
  auto cancelled = sched.schedule(50, [&] { order.push_back(99); });
  sched.schedule(50, [&] { order.push_back(1); });
  sched.schedule(50, [&] { order.push_back(2); });
  cancelled.cancel();
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sched.now(), 50u);
}

TEST(EventScheduler, CancelPreventsExecutionAndUpdatesCount) {
  EventScheduler sched;
  bool ran = false;
  auto handle = sched.schedule(10, [&] { ran = true; });
  EXPECT_EQ(sched.pending_events(), 1u);
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  EXPECT_EQ(sched.pending_events(), 0u);
  sched.run();
  EXPECT_FALSE(ran);
}

TEST(EventScheduler, CancelIsIdempotent) {
  EventScheduler sched;
  auto handle = sched.schedule(10, [] {});
  handle.cancel();
  handle.cancel();
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(EventScheduler, HandleReportsNotPendingAfterFire) {
  EventScheduler sched;
  auto handle = sched.schedule(5, [] {});
  sched.run();
  EXPECT_FALSE(handle.pending());
}

TEST(EventScheduler, RunUntilAdvancesClockToDeadline) {
  EventScheduler sched;
  int fired = 0;
  sched.schedule(50, [&] { ++fired; });
  sched.schedule(150, [&] { ++fired; });
  sched.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 100u);
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), 150u);
}

TEST(EventScheduler, EventsScheduledDuringRunExecute) {
  EventScheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.schedule(1, recurse);
  };
  sched.schedule(0, recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sched.now(), 4u);
}

TEST(EventScheduler, SchedulingIntoThePastThrows) {
  EventScheduler sched;
  sched.schedule(100, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(50, [] {}), std::logic_error);
}

TEST(EventScheduler, MaxEventsGuard) {
  EventScheduler sched;
  std::function<void()> forever = [&] { sched.schedule(1, forever); };
  sched.schedule(0, forever);
  std::size_t ran = sched.run(1000);
  EXPECT_EQ(ran, 1000u);
  EXPECT_EQ(sched.executed_events(), 1000u);
}

TEST(EventScheduler, StaleHandlesNeverTouchReusedSlots) {
  // Fired and reaped slots are recycled, so the fresh events below sit
  // in slots the stale handles still point at.
  EventScheduler sched;
  std::vector<EventHandle> stale;
  for (int i = 0; i < 100; ++i) {
    stale.push_back(sched.schedule(1, [] {}));
    sched.run();
    EventHandle cancelled = sched.schedule(1, [] {});
    cancelled.cancel();
    sched.run();  // reaps the cancelled key
    stale.push_back(cancelled);
  }
  int ran = 0;
  std::vector<EventHandle> fresh;
  for (int i = 0; i < 100; ++i) fresh.push_back(sched.schedule(1, [&ran] { ++ran; }));
  for (auto& h : stale) {
    EXPECT_FALSE(h.pending());
    h.cancel();
  }
  for (const auto& h : fresh) EXPECT_TRUE(h.pending());
  EXPECT_EQ(sched.pending_events(), 100u);
  EXPECT_EQ(sched.run(), 100u);
  EXPECT_EQ(ran, 100);
}

TEST(EventScheduler, CancelAfterSchedulerDestroyedIsNoOp) {
  EventHandle handle;
  EventHandle copy;
  {
    EventScheduler sched;
    handle = sched.schedule(10, [] {});
    copy = handle;
    EXPECT_TRUE(copy.pending());
  }
  EXPECT_FALSE(handle.pending());
  handle.cancel();
  copy.cancel();
  handle.cancel();
  EXPECT_FALSE(copy.pending());
}

TEST(EventScheduler, StaleHandlesNeverTouchTheNextSchedulersEvents) {
  // A destroyed scheduler's core goes to the next scheduler built, so
  // B's events sit in the slots A's handles still point at.
  std::vector<EventHandle> stale;
  {
    EventScheduler a;
    stale.push_back(a.schedule(1, [] {}));
    a.run();  // fired
    stale.push_back(a.schedule(1, [] {}));
    stale.back().cancel();
    stale.push_back(a.schedule(2, [] {}));  // still pending when A goes
    EXPECT_TRUE(stale.back().pending());
  }
  EventScheduler b;
  std::size_t ran = 0;
  std::vector<EventHandle> fresh;
  for (std::size_t i = 0; i < EventScheduler::kChunkSlots; ++i) {
    fresh.push_back(b.schedule(1, [&ran] { ++ran; }));
  }
  for (auto& h : stale) {
    EXPECT_FALSE(h.pending());
    h.cancel();
  }
  for (const auto& h : fresh) EXPECT_TRUE(h.pending());
  EXPECT_EQ(b.pending_events(), EventScheduler::kChunkSlots);
  EXPECT_EQ(b.run(), EventScheduler::kChunkSlots);
  EXPECT_EQ(ran, EventScheduler::kChunkSlots);
}

struct CountingDelete {
  int* deleted;
  void operator()(int* p) const {
    ++*deleted;
    delete p;
  }
};

TEST(EventScheduler, MoveOnlyCaptureIsDestroyedExactlyOnce) {
  int deleted = 0;
  auto owned = [&deleted] {
    return std::unique_ptr<int, CountingDelete>(new int(7), CountingDelete{&deleted});
  };
  {  // fired
    EventScheduler sched;
    int seen = 0;
    sched.schedule(1, [p = owned(), &seen] { seen = *p; });
    EXPECT_EQ(deleted, 0);
    sched.run();
    EXPECT_EQ(seen, 7);
    EXPECT_EQ(deleted, 1);
  }
  EXPECT_EQ(deleted, 1);
  {  // cancelled: the capture lives until the key is reaped
    EventScheduler sched;
    EventHandle h = sched.schedule(1, [p = owned()] {});
    h.cancel();
    EXPECT_EQ(deleted, 1);
    EXPECT_EQ(sched.run(), 0u);
    EXPECT_EQ(deleted, 2);
  }
  EXPECT_EQ(deleted, 2);
  {  // still pending when the scheduler goes
    EventScheduler sched;
    sched.schedule(1, [p = owned()] {});
    EXPECT_EQ(deleted, 2);
  }
  EXPECT_EQ(deleted, 3);
  {  // too large for the inline buffer: stored on the heap, same contract
    EventScheduler sched;
    std::array<char, 2 * EventCallback::kInlineBytes> pad{};
    int seen = 0;
    sched.schedule(1, [p = owned(), pad, &seen] { seen = *p + pad[0]; });
    sched.schedule(2, [p = owned(), pad] {});
    sched.run_until(1);
    EXPECT_EQ(seen, 7);
    EXPECT_EQ(deleted, 4);
  }
  EXPECT_EQ(deleted, 5);
}

// --- TokenBucket ------------------------------------------------------------------

TEST(TokenBucket, StartsFullAndRefills) {
  TokenBucket bucket(1000, 10);  // 1000/s, burst 10
  EXPECT_TRUE(bucket.try_consume(0, 10));
  EXPECT_FALSE(bucket.try_consume(0, 1));
  // After 1 ms, one token accrued.
  EXPECT_TRUE(bucket.try_consume(timeunit::kMillisecond, 1));
  EXPECT_FALSE(bucket.try_consume(timeunit::kMillisecond, 1));
}

TEST(TokenBucket, NextAvailableComputesExactWait) {
  TokenBucket bucket(1000, 1);
  EXPECT_TRUE(bucket.try_consume(0, 1));
  // 1 token needs 1/1000 s = 1 ms.
  EXPECT_EQ(bucket.next_available(0, 1), timeunit::kMillisecond);
}

TEST(TokenBucket, BurstCapsAccumulation) {
  TokenBucket bucket(1000, 5);
  // Wait far longer than needed; only burst tokens available.
  EXPECT_EQ(bucket.available(10 * timeunit::kSecond), 5u);
}

TEST(TokenBucket, ConsumeRecordsDeficit) {
  TokenBucket bucket(1000, 1);
  bucket.consume(0, 3);  // 2 token deficit at 1000/s -> 2 ms to recover
  EXPECT_FALSE(bucket.try_consume(timeunit::kMillisecond, 1));
  EXPECT_TRUE(bucket.try_consume(3 * timeunit::kMillisecond, 1));
}

// --- Rng ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.next_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / 20000.0, 5.0, 0.3);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// --- Histogram ----------------------------------------------------------------------

TEST(Histogram, BasicStatistics) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.p50(), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p95(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.record(10);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  h.record(1);
  EXPECT_DOUBLE_EQ(h.mean(), 1.0);
}

TEST(Histogram, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(4.0);
  EXPECT_NEAR(h.stddev(), 0.0, 1e-9);
}

/// Property sweep: nearest-rank percentile of 1..N.
class PercentileSweep : public ::testing::TestWithParam<int> {};

TEST_P(PercentileSweep, NearestRankMatchesFormula) {
  const int n = GetParam();
  Histogram h;
  for (int i = 1; i <= n; ++i) h.record(i);
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const double expected = static_cast<double>(rank == 0 ? 1 : rank);
    EXPECT_DOUBLE_EQ(h.percentile(p), expected) << "n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PercentileSweep, ::testing::Values(1, 2, 3, 10, 100, 1000));

}  // namespace
}  // namespace escape
