// The sharded parallel event engine: window execution, cross-shard
// mailbox, partition derivation, and the bit-identical-across-thread-
// counts determinism guarantee, exercised from the raw scheduler up to
// full chaos/steering scenarios through the Environment.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "escape/environment.hpp"
#include "fault/fault_plane.hpp"
#include "net/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/sharded_event.hpp"

namespace escape {
namespace {

constexpr SimDuration kHop = timeunit::kMillisecond;

// --- raw engine -----------------------------------------------------------------

TEST(ShardedScheduler, SingleShardBehavesLikePlainScheduler) {
  ShardedScheduler sched;  // shards=1: the sequential special case
  EXPECT_EQ(sched.shard_count(), 1u);
  EXPECT_EQ(sched.shard(0).owner(), nullptr);  // unowned: direct driving allowed

  std::vector<int> order;
  sched.schedule(2 * kHop, [&] { order.push_back(2); });
  sched.schedule(1 * kHop, [&] { order.push_back(1); });
  sched.shard(0).schedule(3 * kHop, [&] { order.push_back(3); });
  EXPECT_EQ(sched.pending_events(), 3u);
  EXPECT_EQ(sched.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 3 * kHop);
  EXPECT_EQ(sched.executed_events(), 3u);
  EXPECT_TRUE(sched.empty());
}

TEST(ShardedScheduler, ResizeGrowsPartition) {
  ShardedScheduler sched;
  sched.schedule(kHop, [] {});
  sched.resize(3, 2);
  EXPECT_EQ(sched.shard_count(), 3u);
  EXPECT_EQ(sched.thread_count(), 2u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sched.shard(i).shard_id(), i);
    EXPECT_EQ(sched.shard(i).owner(), &sched);
  }
  // Shard 0's pre-resize event survived.
  EXPECT_EQ(sched.pending_events(), 1u);
  // Shrinking only updates the worker cap.
  sched.resize(2, 1);
  EXPECT_EQ(sched.shard_count(), 3u);
  EXPECT_EQ(sched.thread_count(), 1u);
  sched.resize(3, 2);
  sched.add_lookahead_edge(0, 1, kHop);
  sched.shard(1).schedule(kHop, [] {});
  EXPECT_EQ(sched.run(), 2u);  // parallel round: workers spawn
  // Once workers exist the partition is frozen.
  EXPECT_THROW(sched.resize(4), std::logic_error);
}

TEST(ShardedScheduler, CrossSchedulePostsThroughMailbox) {
  ShardedScheduler sched{2, 1};
  sched.add_lookahead_edge(0, 1, kHop);
  sched.add_lookahead_edge(1, 0, kHop);

  SimTime delivered_at = 0;
  std::size_t delivered_on = SIZE_MAX;
  sched.shard(0).schedule_at(5 * kHop, [&] {
    cross_schedule(sched.shard(0), sched.shard(1), kHop, [&] {
      delivered_at = sched.shard(1).now();
      delivered_on = current_shard_id();
    });
  });
  sched.run();
  EXPECT_EQ(delivered_at, 6 * kHop);
  EXPECT_EQ(delivered_on, 1u);
}

TEST(ShardedScheduler, RunOnShardRunsHereOrAtTheWindowBound) {
  ShardedScheduler sched{2, 1};
  sched.add_lookahead_edge(0, 1, kHop);
  sched.add_lookahead_edge(1, 0, kHop);

  // On the main thread every shard may be touched: it runs at once.
  bool ran = false;
  EXPECT_TRUE(may_touch(sched.shard(1)));
  run_on_shard(sched.shard(1), [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.pending_events(), 0u);

  // Inside an event on shard 1: shard 1's own state runs at once, while
  // shard 0's is posted and runs there at the window bound, one
  // lookahead after the only pending event.
  SimTime own_at = 0;
  SimTime other_at = 0;
  std::size_t own_on = SIZE_MAX;
  std::size_t other_on = SIZE_MAX;
  sched.shard(1).schedule_at(5 * kHop, [&] {
    EXPECT_TRUE(may_touch(sched.shard(1)));
    EXPECT_FALSE(may_touch(sched.shard(0)));
    run_on_shard(sched.shard(1), [&] {
      own_at = sched.shard(1).now();
      own_on = current_shard_id();
    });
    EXPECT_EQ(own_on, 1u);  // ran before run_on_shard returned
    run_on_shard(sched.shard(0), [&] {
      other_at = sched.shard(0).now();
      other_on = current_shard_id();
    });
    EXPECT_EQ(other_on, SIZE_MAX);  // not yet
  });
  sched.run();
  EXPECT_EQ(own_at, 5 * kHop);
  EXPECT_EQ(other_on, 0u);
  EXPECT_EQ(other_at, 6 * kHop);
}

// The synthetic ring workload: shard i executes an event, counts it, and
// forwards to shard i+1 one lookahead later, until `stop`.
void ring_hop(ShardedScheduler& sched, std::vector<std::uint64_t>* counts, std::size_t shard,
              SimTime stop) {
  EventScheduler& self = sched.shard(shard);
  if (self.now() >= stop) return;
  ++(*counts)[shard];
  const std::size_t next = (shard + 1) % counts->size();
  cross_schedule(self, sched.shard(next), kHop,
                 [&sched, counts, next, stop] { ring_hop(sched, counts, next, stop); });
}

struct RingResult {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  SimTime final_now = 0;
  std::vector<std::uint64_t> counts;
};

RingResult run_ring(std::size_t shards, std::size_t threads) {
  ShardedScheduler sched{shards, threads};
  for (std::size_t i = 0; i < shards; ++i) {
    sched.add_lookahead_edge(i, (i + 1) % shards, kHop);
  }
  RingResult r;
  r.counts.assign(shards, 0);
  const SimTime stop = 200 * kHop;
  // Several interleaved rings starting on every shard keep all queues
  // busy inside each window.
  for (std::size_t i = 0; i < shards; ++i) {
    sched.shard(i).schedule_at(i * 10 * timeunit::kMicrosecond,
                               [&sched, c = &r.counts, i, stop] { ring_hop(sched, c, i, stop); });
  }
  sched.run();
  r.digest = sched.order_digest();
  r.executed = sched.executed_events();
  r.final_now = sched.now();
  return r;
}

TEST(ShardedScheduler, RingWorkloadBitIdenticalAcrossThreadCounts) {
  const RingResult seq = run_ring(4, 1);
  const RingResult par = run_ring(4, 4);
  EXPECT_GT(seq.executed, 100u);
  EXPECT_EQ(seq.digest, par.digest);
  EXPECT_EQ(seq.executed, par.executed);
  EXPECT_EQ(seq.final_now, par.final_now);
  EXPECT_EQ(seq.counts, par.counts);
}

TEST(ShardedScheduler, CrossShardPostInsideWindowThrows) {
  ShardedScheduler sched{2, 1};
  sched.add_lookahead_edge(0, 1, kHop);
  sched.add_lookahead_edge(1, 0, kHop);
  sched.shard(0).schedule_at(0, [&] {
    // 10us < the 1ms window bound: an unregistered cross-shard edge.
    sched.post_at(1, 10 * timeunit::kMicrosecond, [] {});
  });
  EXPECT_THROW(sched.run(), std::logic_error);
}

TEST(ShardedScheduler, ZeroLookaheadFallsBackToSequential) {
  ShardedScheduler sched{2, 2};
  sched.add_lookahead_edge(0, 1, 0);
  EXPECT_FALSE(sched.parallel_capable());
  // Cross posts at arbitrarily small delays are now legal; execution is
  // globally ordered so the relative order across shards is exact.
  std::vector<std::size_t> order;
  sched.shard(0).schedule_at(1, [&] {
    order.push_back(0);
    sched.post_at(1, sched.shard(0).now(), [&] { order.push_back(1); });
  });
  sched.shard(1).schedule_at(2, [&] { order.push_back(2); });
  sched.run();
  // The posted event lands at t=1 on shard 1, before shard 1's t=2 event.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ShardedScheduler, ZeroLookaheadEdgeAddedMidRunHandsOverToSequential) {
  // An agent respawned with a zero-delay NETCONF pipe registers its edge
  // from inside an event; the rest of the call must still run every
  // event, now in global order.
  for (const bool until : {false, true}) {
    SCOPED_TRACE(until ? "run_until" : "run");
    ShardedScheduler sched{2, 1};
    sched.add_lookahead_edge(0, 1, kHop);
    sched.add_lookahead_edge(1, 0, kHop);
    std::vector<SimTime> ran;
    sched.shard(0).schedule_at(kHop, [&] {
      sched.add_lookahead_edge(0, 1, 0);
      ran.push_back(sched.now());
    });
    sched.shard(1).schedule_at(5 * kHop, [&] { ran.push_back(sched.now()); });
    sched.shard(0).schedule_at(7 * kHop, [&] { ran.push_back(sched.now()); });
    EXPECT_EQ(until ? sched.run_until(10 * kHop) : sched.run(), 3u);
    EXPECT_FALSE(sched.parallel_capable());
    EXPECT_EQ(sched.pending_events(), 0u);
    EXPECT_EQ(ran, (std::vector<SimTime>{kHop, 5 * kHop, 7 * kHop}));
    EXPECT_EQ(sched.shard(0).now(), until ? 10 * kHop : 7 * kHop);
    EXPECT_EQ(sched.shard(1).now(), until ? 10 * kHop : 5 * kHop);
  }
  // The hand-over keeps what is left of each shard's budget: shard 0
  // spent one of its two events before the edge appeared.
  ShardedScheduler sched{2, 1};
  sched.add_lookahead_edge(0, 1, kHop);
  sched.shard(0).schedule_at(kHop, [&] { sched.add_lookahead_edge(0, 1, 0); });
  sched.shard(0).schedule_at(7 * kHop, [] {});
  sched.shard(0).schedule_at(9 * kHop, [] {});
  sched.shard(1).schedule_at(5 * kHop, [] {});
  EXPECT_EQ(sched.run(2), 3u);
  EXPECT_EQ(sched.pending_events(), 1u);
  EXPECT_EQ(sched.shard(0).now(), 7 * kHop);
}

TEST(ShardedScheduler, PendingEventsTracksCancellation) {
  ShardedScheduler sched{2, 1};
  sched.add_lookahead_edge(0, 1, kHop);
  sched.add_lookahead_edge(1, 0, kHop);
  EventHandle a = sched.shard(0).schedule(kHop, [] {});
  EventHandle b = sched.shard(1).schedule(2 * kHop, [] {});
  EventHandle c = sched.post_at(1, 3 * kHop, [] {});
  EXPECT_EQ(sched.pending_events(), 3u);
  b.cancel();
  EXPECT_EQ(sched.pending_events(), 2u);
  b.cancel();  // idempotent: no double decrement
  EXPECT_EQ(sched.pending_events(), 2u);
  EXPECT_EQ(sched.run(), 2u);
  EXPECT_EQ(sched.pending_events(), 0u);
  a.cancel();  // after the fact: no underflow
  c.cancel();
  EXPECT_EQ(sched.pending_events(), 0u);

  // A cross-shard post made during a run and cancelled while it still
  // sits in the sender's outbox, before the barrier drains it.
  bool posted_ran = false;
  std::size_t after_post = 0;
  std::size_t after_cancel = 0;
  sched.shard(0).schedule_at(4 * kHop, [&] {
    EventHandle d = sched.post_at(1, 6 * kHop, [&] { posted_ran = true; });
    after_post = sched.pending_events();
    d.cancel();
    after_cancel = sched.pending_events();
    d.cancel();
    EXPECT_FALSE(d.pending());
  });
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(after_post, 1u);
  EXPECT_EQ(after_cancel, 0u);
  EXPECT_FALSE(posted_ran);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(ShardedScheduler, CrossShardPostCancelledAfterDrain) {
  ShardedScheduler sched{2, 2};
  sched.add_lookahead_edge(0, 1, kHop);
  sched.add_lookahead_edge(1, 0, kHop);
  bool fired = false;
  EventHandle mail;
  // Posted at 1ms for 10ms, drained at the first barrier, then
  // cancelled from the sending shard at 5ms while queued on shard 1.
  sched.shard(0).schedule_at(kHop, [&] {
    mail = sched.post_at(1, 10 * kHop, [&] { fired = true; });
  });
  sched.shard(0).schedule_at(5 * kHop, [&] {
    EXPECT_TRUE(mail.pending());
    mail.cancel();
  });
  EXPECT_EQ(sched.run(), 2u);
  EXPECT_FALSE(fired);
  EXPECT_FALSE(mail.pending());
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(ShardedScheduler, CrossShardCancelPreventsExecution) {
  ShardedScheduler sched{2, 2};
  sched.add_lookahead_edge(0, 1, kHop);
  sched.add_lookahead_edge(1, 0, kHop);
  bool fired = false;
  // The windows guarantee shard 1 cannot reach t=5ms while shard 0
  // still executes at t=1ms, so this cancel always wins the race.
  EventHandle victim = sched.shard(1).schedule_at(5 * kHop, [&] { fired = true; });
  sched.shard(0).schedule_at(1 * kHop, [&] { victim.cancel(); });
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(ShardedScheduler, CrossThreadCancelRacingFireRunsEachEventAtMostOnce) {
  // Shard 0 cancels shard-1 events that fall inside the same window, so
  // on two threads each cancel races the fire of its victim: the slot
  // word's CAS must let exactly one of them win. Shard 0 cancels in
  // reverse order, so its early cancels mostly win and its late ones
  // mostly lose. Which events run may vary from run to run.
  constexpr std::size_t kWindows = 4;
  constexpr std::size_t kPerWindow = 500;
  constexpr SimDuration kStep = kHop / kPerWindow;
  ShardedScheduler sched{2, 2};
  sched.add_lookahead_edge(0, 1, kHop);
  sched.add_lookahead_edge(1, 0, kHop);
  std::vector<std::atomic<int>> runs(kWindows * kPerWindow);
  std::vector<EventHandle> victims;
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t i = 0; i < kPerWindow; ++i) {
      const std::size_t v = w * kPerWindow + i;
      victims.push_back(sched.shard(1).schedule_at(
          w * kHop + i * kStep, [&runs, v] { runs[v].fetch_add(1, std::memory_order_relaxed); }));
    }
  }
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t i = 0; i < kPerWindow; ++i) {
      const std::size_t v = w * kPerWindow + (kPerWindow - 1 - i);
      sched.shard(0).schedule_at(w * kHop + i * kStep, [&victims, v] { victims[v].cancel(); });
    }
  }
  sched.run();
  for (std::size_t v = 0; v < runs.size(); ++v) {
    EXPECT_LE(runs[v].load(), 1) << "event " << v;
    EXPECT_FALSE(victims[v].pending()) << "event " << v;
  }
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(ShardedScheduler, StepExecutesGloballyEarliest) {
  ShardedScheduler sched{2, 1};
  sched.add_lookahead_edge(0, 1, kHop);
  std::vector<int> order;
  sched.shard(0).schedule_at(2 * kHop, [&] { order.push_back(0); });
  sched.shard(1).schedule_at(1 * kHop, [&] { order.push_back(1); });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
  EXPECT_FALSE(sched.step());
}

// --- step-mode determinism ------------------------------------------------------
//
// Environment::pump_until waits for a control call by driving the
// sharded engine one step() at a time, so on a partitioned network most
// events run through step(). These tests pin what that path executes on
// 20 shards -- per-shard order digests (which cover the sequence number
// every mailbox injection hands out), executed counts and final clocks --
// plus the zero-lookahead run() path that steps the same way.

constexpr std::size_t kStepShards = 20;
constexpr SimDuration kGrid = 10 * timeunit::kMicrosecond;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Chains of hops across 20 shards. Each hop draws from its own shard's
/// generator and posts two or three mails to one other shard, each due
/// no later than the one posted before it (ties included), so a box's
/// post order is not its `when` order; one mail carries the chain on.
/// The hop also arms its shard's timer, or cancels it when still
/// pending -- the timer is often that shard's head. Every time sits on
/// a 10us grid and every shard starts a chain at t=0, so equal
/// timestamps across shards are common. With `min_delay` 0 the
/// non-carrier mails may land at the sender's own time (zero
/// lookahead); the carrier always hops 1ms on.
struct StepWorkload {
  ShardedScheduler sched;
  SimDuration min_delay;
  SimTime stop = 40 * kHop;
  std::vector<std::uint64_t> rng;
  std::vector<EventHandle> timer;
  bool keep_log = false;
  std::vector<std::pair<SimTime, std::size_t>> log;  // (when, shard) executed, in order

  StepWorkload(std::size_t threads, SimDuration delay)
      : sched(kStepShards, threads), min_delay(delay), rng(kStepShards), timer(kStepShards) {
    for (std::size_t i = 0; i < kStepShards; ++i) {
      rng[i] = 0x5eed0000u + i;
      for (std::size_t j = 0; j < kStepShards; ++j) sched.add_lookahead_edge(i, j, min_delay);
    }
    for (std::size_t i = 0; i < kStepShards; ++i) {
      // Even shards start with a cancelled head.
      EventHandle decoy = sched.shard(i).schedule_at(0, [this, i] { note(i); });
      if (i % 2 == 0) decoy.cancel();
      sched.shard(i).schedule_at(0, [this, i] { hop(i); });
      sched.shard(i).schedule_at((i % 3) * kGrid, [this, i] { hop(i); });
    }
  }

  void note(std::size_t s) {
    if (keep_log) log.emplace_back(sched.shard(s).now(), s);
  }

  void hop(std::size_t s) {
    note(s);
    EventScheduler& self = sched.shard(s);
    if (self.now() >= stop) return;
    const std::uint64_t x = splitmix64(rng[s]);
    const std::size_t dst = (s + 1 + x % (kStepShards - 1)) % kStepShards;
    const std::size_t mails = 2 + (x >> 8) % 2;
    const std::size_t carrier = (x >> 12) % mails;
    for (std::size_t m = 0; m < mails; ++m) {
      const SimDuration base = (m == carrier) ? kHop : min_delay;
      const SimTime when = self.now() + base + (mails - 1 - m + ((x >> (16 + m)) & 1)) * kGrid;
      if (m == carrier) {
        sched.post_at(dst, when, [this, dst] { hop(dst); });
      } else {
        sched.post_at(dst, when, [this, dst] { note(dst); });
      }
    }
    if (timer[s].pending()) {
      timer[s].cancel();
    } else {
      timer[s] = self.schedule(((x >> 24) % 50) * kGrid, [this, s] { note(s); });
    }
  }
};

struct StepPins {
  std::uint64_t digest;  // per-shard order digests folded in shard order
  std::vector<std::uint64_t> executed;
  std::vector<SimTime> clock_us;
};

void expect_pinned(const ShardedScheduler& sched, const StepPins& pin) {
  std::vector<std::uint64_t> executed;
  std::vector<SimTime> clock_us;
  for (std::size_t i = 0; i < sched.shard_count(); ++i) {
    executed.push_back(sched.shard(i).executed_events());
    clock_us.push_back(sched.shard(i).now() / timeunit::kMicrosecond);
  }
  EXPECT_EQ(sched.order_digest(), pin.digest);
  EXPECT_EQ(executed, pin.executed);
  EXPECT_EQ(clock_us, pin.clock_us);
}

// Every driver runs the same hops per shard; only times and sequence
// numbers differ.
const std::vector<std::uint64_t> kStepExecuted = {213, 243, 218, 215, 258, 239, 238,
                                                  205, 236, 221, 219, 212, 205, 253,
                                                  208, 209, 240, 222, 209, 202};

TEST(StepDeterminism, StepOnlyRunMatchesPinnedConstants) {
  StepWorkload w(1, kHop);
  w.keep_log = true;
  std::uint64_t steps = 0;
  while (w.sched.step()) ++steps;
  EXPECT_EQ(steps, w.sched.executed_events());
  EXPECT_EQ(w.sched.pending_events(), 0u);
  // Equal timestamps across shards run in shard-id order.
  for (std::size_t i = 1; i < w.log.size(); ++i) {
    if (w.log[i].first == w.log[i - 1].first) {
      EXPECT_GE(w.log[i].second, w.log[i - 1].second) << "at log entry " << i;
    }
  }
  expect_pinned(w.sched, {0x5382ab8564f2b54aull,
                          kStepExecuted,
                          {39810, 40560, 40600, 40510, 39950, 40610, 40610, 40560, 40570, 40530,
                           40400, 39560, 40530, 40510, 40560, 40510, 40530, 40590, 40620, 40490}});
}

TEST(StepDeterminism, StepsInterleavedWithRunUntilMatchPinnedConstants) {
  StepWorkload w(2, kHop);
  for (std::size_t r = 0; !w.sched.empty(); ++r) {
    for (std::size_t i = 0; i < 5 + r % 11 && w.sched.step(); ++i) {
    }
    w.sched.run_until(w.sched.now() + (r % 4) * 250 * timeunit::kMicrosecond);
  }
  // The last run_until pushed every clock to its deadline.
  expect_pinned(w.sched, {0xdd17eec028eca391ull, kStepExecuted,
                          std::vector<SimTime>(kStepShards, 41140)});
}

TEST(StepDeterminism, StepDrainsOnlyTheSteppedShardsOutboxRow) {
  // A step runs one shard's event, so only that shard's row of K boxes
  // can hold mail; the zero-lookahead fallback steps the same way.
  StepWorkload stepped(1, kHop);
  std::uint64_t steps = 0;
  while (stepped.sched.step()) ++steps;
  EXPECT_EQ(stepped.sched.outbox_visits(), kStepShards * steps);

  StepWorkload sequential(1, 0);
  const std::size_t ran = sequential.sched.run();
  EXPECT_EQ(sequential.sched.outbox_visits(), kStepShards * ran);

  // A window barrier still merges all K*K boxes: one window here.
  ShardedScheduler windowed{kStepShards, 1};
  windowed.add_lookahead_edge(0, 1, kHop);
  for (std::size_t i = 0; i < kStepShards; ++i) {
    windowed.shard(i).schedule_at(i * kGrid, [&windowed, i] {
      windowed.post_at((i + 1) % kStepShards, 2 * kHop, [] {});
    });
  }
  EXPECT_EQ(windowed.run_until(kHop - 1), kStepShards);
  EXPECT_EQ(windowed.outbox_visits(), kStepShards * kStepShards);
  EXPECT_EQ(windowed.pending_events(), kStepShards);
}

TEST(StepDeterminism, ZeroLookaheadRunMatchesPinnedConstants) {
  StepWorkload w(2, 0);
  EXPECT_FALSE(w.sched.parallel_capable());
  const std::size_t ran = w.sched.run();
  EXPECT_EQ(ran, w.sched.executed_events());
  EXPECT_EQ(w.sched.pending_events(), 0u);
  expect_pinned(w.sched, {0xd5cc038a2c0835daull,
                          kStepExecuted,
                          {39810, 40560, 40570, 40500, 39950, 40610, 40580, 40550, 40560, 40530,
                           40390, 39560, 40500, 40490, 40560, 40510, 40530, 40590, 40620, 40480}});
}

// --- partition derivation -------------------------------------------------------

netemu::LinkConfig test_link() {
  netemu::LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.delay = 50 * timeunit::kMicrosecond;
  return cfg;
}

TEST(NetworkPartition, SwitchModeGroupsNodesAroundNearestSwitch) {
  ShardedScheduler sched;
  netemu::Network net{sched.shard(0)};
  net.add_host("sap1");
  net.add_host("sap2");
  net.add_switch("s1");
  net.add_switch("s2");
  net.add_container("c1", 1.0, 8);
  net.add_container("c2", 1.0, 8);
  ASSERT_TRUE(net.add_link("sap1", 0, "s1", 1, test_link()).ok());
  ASSERT_TRUE(net.add_link("sap2", 0, "s2", 1, test_link()).ok());
  ASSERT_TRUE(net.add_link("s1", 2, "s2", 2, test_link()).ok());
  ASSERT_TRUE(net.add_link("c1", 0, "s1", 3, test_link()).ok());
  ASSERT_TRUE(net.add_link("c2", 0, "s2", 3, test_link()).ok());

  EXPECT_EQ(net.partition(sched, netemu::ShardBy::kSwitch, 2), 2u);
  EXPECT_EQ(sched.shard_count(), 2u);
  // Each island sits with its switch; the two shards differ.
  EXPECT_EQ(&net.node("s1")->scheduler(), &net.node("c1")->scheduler());
  EXPECT_EQ(&net.node("s1")->scheduler(), &net.node("sap1")->scheduler());
  EXPECT_EQ(&net.node("s2")->scheduler(), &net.node("c2")->scheduler());
  EXPECT_EQ(&net.node("s2")->scheduler(), &net.node("sap2")->scheduler());
  EXPECT_NE(&net.node("s1")->scheduler(), &net.node("s2")->scheduler());
}

TEST(NetworkPartition, RegionModeSplitsOnNamePrefix) {
  ShardedScheduler sched;
  netemu::Network net{sched.shard(0)};
  net.add_switch("west_s1");
  net.add_host("west_h1");
  net.add_switch("east_s1");
  net.add_host("east_h1");
  ASSERT_TRUE(net.add_link("west_h1", 0, "west_s1", 1, test_link()).ok());
  ASSERT_TRUE(net.add_link("east_h1", 0, "east_s1", 1, test_link()).ok());
  ASSERT_TRUE(net.add_link("west_s1", 2, "east_s1", 2, test_link()).ok());

  EXPECT_EQ(net.partition(sched, netemu::ShardBy::kRegion), 2u);
  EXPECT_EQ(&net.node("west_s1")->scheduler(), &net.node("west_h1")->scheduler());
  EXPECT_EQ(&net.node("east_s1")->scheduler(), &net.node("east_h1")->scheduler());
  EXPECT_NE(&net.node("west_s1")->scheduler(), &net.node("east_s1")->scheduler());
}

TEST(NetworkPartition, ZeroDelayLinkMergesClusters) {
  ShardedScheduler sched;
  netemu::Network net{sched.shard(0)};
  net.add_switch("s1");
  net.add_switch("s2");
  netemu::LinkConfig zero = test_link();
  zero.delay = 0;
  ASSERT_TRUE(net.add_link("s1", 1, "s2", 1, zero).ok());
  // One merged cluster: no parallelism to be had, the partition is a no-op.
  EXPECT_EQ(net.partition(sched, netemu::ShardBy::kSwitch), 1u);
  EXPECT_EQ(sched.shard_count(), 1u);
  EXPECT_TRUE(sched.parallel_capable());  // the zero edge was never registered
}

// --- end-to-end determinism -----------------------------------------------------

sg::ServiceGraph monitor_chain() {
  sg::ServiceGraph g("par");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("mon", "monitor", {}, 0.1);
  g.add_link("sap1", "mon").add_link("mon", "sap2");
  return g;
}

struct Fingerprint {
  std::size_t shards = 0;
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t max_seq = 0;
  std::uint64_t tx_packets = 0;
  std::size_t latency_count = 0;
  double latency_mean = 0;
  std::vector<std::uint64_t> link_counts;
  int chain_state = -1;
  std::uint64_t injections = 0;
  std::string metrics;

  bool operator==(const Fingerprint& o) const {
    return shards == o.shards && digest == o.digest && executed == o.executed &&
           rx_packets == o.rx_packets && rx_bytes == o.rx_bytes && max_seq == o.max_seq &&
           tx_packets == o.tx_packets && latency_count == o.latency_count &&
           latency_mean == o.latency_mean && link_counts == o.link_counts &&
           chain_state == o.chain_state && injections == o.injections && metrics == o.metrics;
  }
};

Fingerprint finish(Environment& env, fault::FaultPlane& plane, std::uint32_t chain) {
  Fingerprint f;
  f.shards = env.scheduler().shard_count();
  f.digest = env.scheduler().order_digest();
  f.executed = env.scheduler().executed_events();
  auto* sap2 = env.host("sap2");
  f.rx_packets = sap2->rx_packets();
  f.rx_bytes = sap2->rx_bytes();
  f.max_seq = sap2->max_seq_seen();
  f.tx_packets = env.host("sap1")->tx_packets();
  f.latency_count = sap2->latency_us().count();
  f.latency_mean = sap2->latency_us().mean();
  for (const auto& link : env.network().links()) {
    for (int d = 0; d < 2; ++d) {
      f.link_counts.push_back(link->delivered(d));
      f.link_counts.push_back(link->dropped(d));
    }
  }
  if (const ChainDeployment* dep = env.deployment(chain)) {
    f.chain_state = static_cast<int>(dep->state);
  }
  f.injections = plane.injections();
  // Everything in the registry is virtual-time-deterministic except the
  // steering install latency, which measures real (wall-clock) time and
  // differs even between two identical sequential runs.
  std::istringstream exposition(obs::MetricsRegistry::global().render_text());
  std::string line;
  while (std::getline(exposition, line)) {
    if (line.find("escape_steering_install_latency_us") != std::string::npos) continue;
    f.metrics += line;
    f.metrics += '\n';
  }
  return f;
}

/// Container kill + restore and a link flap against the self-healing
/// orchestrator while traffic runs: the chaos regression scenario.
Fingerprint run_chaos_scenario(std::size_t threads) {
  obs::MetricsRegistry::global().reset_values();
  obs::clear_all_tracers();
  EnvironmentOptions opts;
  opts.threads = threads;
  opts.shard_by = netemu::ShardBy::kSwitch;
  Environment env{opts};
  auto& net = env.network();
  net.add_host("sap1");
  net.add_host("sap2");
  net.add_switch("s1");
  net.add_switch("s2");
  net.add_container("c1", 1.0, 8);
  net.add_container("c2", 1.0, 8);
  EXPECT_TRUE(net.add_link("sap1", 0, "s1", 1, test_link()).ok());
  EXPECT_TRUE(net.add_link("sap2", 0, "s2", 1, test_link()).ok());
  EXPECT_TRUE(net.add_link("s1", 2, "s2", 2, test_link()).ok());
  EXPECT_TRUE(net.add_link("c1", 0, "s1", 3, test_link()).ok());
  EXPECT_TRUE(net.add_link("c2", 0, "s2", 3, test_link()).ok());
  EXPECT_TRUE(env.start().ok());
  EXPECT_EQ(env.scheduler().shard_count(), 2u);
  EXPECT_TRUE(env.enable_self_healing().ok());

  fault::FaultPlane plane{env};
  EXPECT_TRUE(plane
                  .load_json(R"({"events": [
                    {"at_ms": 30, "action": "kill-container", "target": "c1"},
                    {"at_ms": 60, "action": "link-down", "a": "s1", "b": "s2"},
                    {"at_ms": 75, "action": "link-up", "a": "s1", "b": "s2"},
                    {"at_ms": 120, "action": "restore-container", "target": "c1"}
                  ]})")
                  .ok());

  auto chain = env.deploy(monitor_chain());
  EXPECT_TRUE(chain.ok()) << (chain.ok() ? "" : chain.error().to_string());
  auto* sap1 = env.host("sap1");
  auto* sap2 = env.host("sap2");
  sap1->start_udp_flow(sap2->mac(), sap2->ip(), 5000, 7777, 600, 2000);
  env.run_for(500 * timeunit::kMillisecond);
  return finish(env, plane, chain.ok() ? *chain : 0);
}

TEST(ParallelDeterminism, ChaosScenarioBitIdenticalAcrossThreadCounts) {
  const Fingerprint seq = run_chaos_scenario(1);
  const Fingerprint par = run_chaos_scenario(4);
  EXPECT_EQ(seq.shards, 2u);
  EXPECT_GT(seq.injections, 0u);
  EXPECT_GT(seq.rx_packets, 0u);
  EXPECT_EQ(seq, par);
}

/// Bidirectional traffic over a deployed chain + return path while the
/// OpenFlow control channel of a mid-path switch flaps and degrades:
/// the steering-resync regression scenario, on a 4-shard line topology.
Fingerprint run_steering_scenario(std::size_t threads) {
  obs::MetricsRegistry::global().reset_values();
  obs::clear_all_tracers();
  EnvironmentOptions opts;
  opts.threads = threads;
  opts.shard_by = netemu::ShardBy::kSwitch;
  Environment env{opts};
  auto& net = env.network();
  net.add_host("sap1");
  net.add_host("sap2");
  net.add_switch("s1");
  net.add_switch("s2");
  net.add_switch("s3");
  net.add_switch("s4");
  net.add_container("c1", 1.0, 8);
  net.add_container("c2", 1.0, 8);
  EXPECT_TRUE(net.add_link("sap1", 0, "s1", 1, test_link()).ok());
  EXPECT_TRUE(net.add_link("s1", 2, "s2", 1, test_link()).ok());
  EXPECT_TRUE(net.add_link("s2", 2, "s3", 1, test_link()).ok());
  EXPECT_TRUE(net.add_link("s3", 2, "s4", 1, test_link()).ok());
  EXPECT_TRUE(net.add_link("s4", 2, "sap2", 0, test_link()).ok());
  EXPECT_TRUE(net.add_link("c1", 0, "s1", 3, test_link()).ok());
  EXPECT_TRUE(net.add_link("c2", 0, "s4", 3, test_link()).ok());
  EXPECT_TRUE(env.start().ok());
  EXPECT_EQ(env.scheduler().shard_count(), 4u);
  EXPECT_TRUE(env.enable_self_healing().ok());

  fault::FaultPlane plane{env};
  EXPECT_TRUE(plane
                  .load_json(R"({"events": [
                    {"at_ms": 40, "action": "of-channel-flap", "target": "s2",
                     "down_ms": 30},
                    {"at_ms": 90, "action": "of-channel-faults", "target": "s3",
                     "drop_prob": 0.3, "extra_delay_ms": 1, "fault_seed": 11},
                    {"at_ms": 150, "action": "of-channel-faults-clear", "target": "s3"}
                  ]})")
                  .ok());

  auto chain = env.deploy(monitor_chain());
  EXPECT_TRUE(chain.ok()) << (chain.ok() ? "" : chain.error().to_string());
  std::uint32_t chain_id = chain.ok() ? *chain : 0;
  if (chain.ok()) {
    auto back = env.install_return_path(chain_id);
    EXPECT_TRUE(back.ok()) << (back.ok() ? "" : back.error().to_string());
  }
  auto* sap1 = env.host("sap1");
  auto* sap2 = env.host("sap2");
  sap1->start_udp_flow(sap2->mac(), sap2->ip(), 5000, 7777, 400, 2000);
  sap2->start_udp_flow(sap1->mac(), sap1->ip(), 6000, 8888, 400, 2000);
  env.run_for(400 * timeunit::kMillisecond);
  return finish(env, plane, chain_id);
}

TEST(ParallelDeterminism, SteeringScenarioBitIdenticalAcrossThreadCounts) {
  const Fingerprint seq = run_steering_scenario(1);
  const Fingerprint par = run_steering_scenario(4);
  EXPECT_EQ(seq.shards, 4u);
  EXPECT_EQ(seq.injections, 3u);
  EXPECT_GT(seq.rx_packets, 0u);
  EXPECT_EQ(seq, par);
}

// --- golden digests -------------------------------------------------------------
//
// The tests above compare thread counts within one build; this one pins
// a chain-set run to constants, so a change that moves packet order,
// event count or delivery timing fails here even when it moves every
// thread count alike. Only a change that means to move the model's
// virtual-time behaviour may update the constants.

struct GoldenSink {
  std::uint64_t rx = 0;
  std::size_t latency_count = 0;
  std::int64_t latency_min_ns = 0;
  std::int64_t latency_max_ns = 0;
};

struct GoldenRun {
  std::size_t shards = 0;
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::vector<GoldenSink> sinks;  // sap2, sap4, sap6, sap8
};

std::int64_t latency_ns(double us) { return std::llround(us * 1000.0); }

/// Monitor, firewall, flow_nat and tcp_ids chains across a 4-switch
/// line, one SAP pair per chain (sources on s1, sinks on s4), a VNF
/// container on every switch. Each chain carries kGoldenPackets frames:
/// UDP from Host::start_udp_flow, TCP segments for tcp_ids. Per-chain
/// gaps and frame sizes differ, so the chains drift in and out of phase
/// on the shared inter-switch links and queueing varies packet to packet.
constexpr std::uint64_t kGoldenPackets = 400;

GoldenRun run_golden_chain_set(std::size_t threads) {
  EnvironmentOptions opts;
  opts.threads = threads;
  opts.shard_by = netemu::ShardBy::kSwitch;
  Environment env{opts};
  auto& net = env.network();
  netemu::LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.delay = 100 * timeunit::kMicrosecond;
  for (int i = 1; i <= 4; ++i) {
    const std::string sw = "s" + std::to_string(i);
    const std::string c = "c" + std::to_string(i);
    net.add_switch(sw);
    net.add_container(c, 4.0, 32);
    EXPECT_TRUE(net.add_link(c, 0, sw, 3, cfg).ok());
    if (i > 1) {
      EXPECT_TRUE(net.add_link("s" + std::to_string(i - 1), 2, sw, 1, cfg).ok());
    }
  }
  const std::vector<std::string> types = {"monitor", "firewall", "flow_nat", "tcp_ids"};
  for (std::size_t i = 0; i < types.size(); ++i) {
    const std::string a = "sap" + std::to_string(2 * i + 1);
    const std::string b = "sap" + std::to_string(2 * i + 2);
    net.add_host(a);
    net.add_host(b);
    const auto port = static_cast<std::uint16_t>(10 + i);
    EXPECT_TRUE(net.add_link(a, 0, "s1", port, cfg).ok());
    EXPECT_TRUE(net.add_link(b, 0, "s4", port, cfg).ok());
  }
  EXPECT_TRUE(env.start().ok());

  for (std::size_t i = 0; i < types.size(); ++i) {
    const std::string a = "sap" + std::to_string(2 * i + 1);
    const std::string b = "sap" + std::to_string(2 * i + 2);
    sg::ServiceGraph g("golden" + std::to_string(i));
    g.add_sap(a).add_sap(b);
    g.add_vnf("v0", types[i], {}, 0.25);
    g.add_link(a, "v0").add_link("v0", b);
    auto chain = env.deploy(g);
    EXPECT_TRUE(chain.ok()) << types[i] << ": "
                            << (chain.ok() ? "" : chain.error().to_string());
  }

  SimDuration last_gap = 0;
  for (std::size_t i = 0; i < types.size(); ++i) {
    netemu::Host* src = env.host("sap" + std::to_string(2 * i + 1));
    netemu::Host* dst = env.host("sap" + std::to_string(2 * i + 2));
    const auto sport = static_cast<std::uint16_t>(4000 + i);
    const SimDuration gap = (50 + 7 * i) * timeunit::kMicrosecond;
    last_gap = gap;
    if (types[i] != "tcp_ids") {
      src->start_udp_flow(dst->mac(), dst->ip(), sport, 7000, kGoldenPackets,
                          timeunit::kSecond / gap, 128 + 384 * i);
      continue;
    }
    const SimTime t0 = src->scheduler().now();
    for (std::uint64_t k = 0; k < kGoldenPackets; ++k) {
      src->scheduler().schedule_at(t0 + k * gap, [src, dst, sport, k] {
        net::TcpFields tcp;
        tcp.src_port = sport;
        tcp.dst_port = 80;
        tcp.seq = static_cast<std::uint32_t>(1000 + 256 * k);
        tcp.flags = 0x10;  // ACK: a stream adopted mid-flight
        net::Packet p = net::PacketBuilder()
                            .eth(src->mac(), dst->mac())
                            .ipv4(src->ip(), dst->ip(), net::ipproto::kTcp)
                            .tcp(tcp)
                            .payload(std::string(256, 'x'))
                            .build();
        p.set_seq(k);
        p.set_timestamp(src->scheduler().now());
        src->send(std::move(p));
      });
    }
  }
  env.run_for(kGoldenPackets * last_gap + 20 * timeunit::kMillisecond);

  GoldenRun run;
  run.shards = env.scheduler().shard_count();
  run.digest = env.scheduler().order_digest();
  run.executed = env.scheduler().executed_events();
  for (std::size_t i = 0; i < types.size(); ++i) {
    const netemu::Host* sink = env.host("sap" + std::to_string(2 * i + 2));
    const auto& lat = sink->latency_us();
    run.sinks.push_back({sink->rx_packets(), lat.count(), latency_ns(lat.min()),
                         latency_ns(lat.max())});
  }
  return run;
}

TEST(GoldenDeterminism, ChainSetMatchesPinnedConstants) {
  const GoldenSink kSinks[] = {
      {400, 400, 507326, 528634},  // sap2: monitor
      {400, 400, 523300, 536866},  // sap4: firewall
      {400, 400, 539274, 544224},  // sap6: flow_nat
      {400, 400, 514896, 531162},  // sap8: tcp_ids
  };
  for (std::size_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const GoldenRun run = run_golden_chain_set(threads);
    EXPECT_EQ(run.shards, 4u);
    EXPECT_EQ(run.digest, 0xf91f0c611da5adabull);
    EXPECT_EQ(run.executed, 17721u);
    ASSERT_EQ(run.sinks.size(), std::size(kSinks));
    for (std::size_t i = 0; i < run.sinks.size(); ++i) {
      SCOPED_TRACE("sink sap" + std::to_string(2 * i + 2));
      EXPECT_EQ(run.sinks[i].rx, kSinks[i].rx);
      EXPECT_EQ(run.sinks[i].latency_count, kSinks[i].latency_count);
      EXPECT_EQ(run.sinks[i].latency_min_ns, kSinks[i].latency_min_ns);
      EXPECT_EQ(run.sinks[i].latency_max_ns, kSinks[i].latency_max_ns);
    }
  }
}

// --- trace merge ----------------------------------------------------------------

TEST(TraceMerge, MergesShardRingsByVirtualTime) {
  obs::clear_all_tracers();
  obs::shard_tracer(1).instant(5, "t", "b");
  obs::shard_tracer(0).instant(9, "t", "d");
  obs::shard_tracer(2).instant(5, "t", "c");  // same ts as shard 1: shard breaks the tie
  obs::shard_tracer(0).instant(2, "t", "a");
  obs::shard_tracer(1).instant(9, "t", "e");

  auto merged = obs::merged_trace_events();
  ASSERT_EQ(merged.size(), 5u);
  std::vector<std::string> names;
  for (const auto& e : merged) names.push_back(e.name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  // Tags survive the merge.
  EXPECT_EQ(merged[1].shard, 1u);
  EXPECT_EQ(merged[2].shard, 2u);
  obs::clear_all_tracers();
}

// --- registry under concurrent writers ------------------------------------------

TEST(MetricsStress, ExactCountsUnderConcurrentMultiShardWriters) {
  auto& reg = obs::MetricsRegistry::global();
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kIters = 20'000;
  reg.counter("parallel_test_shared_total").reset();
  reg.gauge("parallel_test_gauge").set(0);

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      // Lazy get-or-create from every thread at once exercises the
      // registry lock, the way per-shard components register mid-run.
      auto& shared = reg.counter("parallel_test_shared_total");
      auto& mine = reg.counter("parallel_test_shard_total", {{"shard", std::to_string(t)}});
      auto& gauge = reg.gauge("parallel_test_gauge");
      auto& hist = reg.histogram("parallel_test_hist_us");
      for (std::uint64_t i = 0; i < kIters; ++i) {
        shared.add(1);
        mine.add(1);
        gauge.add(1.0);
        hist.record(static_cast<double>(i % 97) + 1.0);
        if ((i & 1023) == 0) {
          (void)reg.render_text();  // exposition racing the writers
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();

  EXPECT_EQ(reg.counter("parallel_test_shared_total").value(), kThreads * kIters);
  EXPECT_EQ(reg.gauge("parallel_test_gauge").value(),
            static_cast<double>(kThreads * kIters));
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("parallel_test_shard_total", {{"shard", std::to_string(t)}}).value(),
              kIters);
  }
  auto& hist = reg.histogram("parallel_test_hist_us");
  EXPECT_EQ(hist.count(), kThreads * kIters);
  EXPECT_GE(hist.min(), 1.0);
  EXPECT_LE(hist.max(), 97.0);
  // Leave the registry clean for any metrics-sensitive test that follows.
  reg.reset_values();
}

}  // namespace
}  // namespace escape
