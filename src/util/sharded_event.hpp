// ShardedScheduler: parallel discrete-event execution over a partition
// of the emulated network.
//
// The network is split into shards (netemu::Network::partition decides
// the mapping -- per switch-cluster by default, per region on request).
// Each shard owns one EventScheduler (its queue + virtual clock) and
// all the component state assigned to it; events scheduled by a
// component always land on that component's shard, so a shard's state
// is only ever touched by the thread currently executing the shard.
//
// Synchronization is conservative, window-based (YAWNS-style): links,
// OpenFlow control channels and NETCONF pipes are the only cross-shard
// edges, and each carries a known minimum latency registered via
// add_lookahead_edge(). With L = min over those latencies, every shard
// may safely execute all events with timestamp < min(next event time
// over all shards) + L in parallel: any event generated for another
// shard during the window carries timestamp >= sender_now + L >= the
// window bound, so it cannot land in the past. Cross-shard handoff goes
// through a mailbox: the sending shard appends to a per-(src,dst)
// outbox it exclusively owns (no locks on the hot path); at the window
// barrier the coordinator moves mail into the destination queues in a
// canonical order -- sorted by (timestamp, source shard, source post
// sequence) -- so insertion order (and therefore the FIFO tie-break)
// does not depend on thread interleaving.
//
// step() and the sequential fallback run one event at a time, so they
// cost O(1) in the shard count. They pick the shard from a flat array of
// cached fronts, each a lower bound on its shard's earliest live event:
// a push that becomes a heap root lowers its entry, a cancel can only
// raise a front, and the picked shard's next_event_time() is re-read
// before its event runs, so a stale entry is never run from. After the
// event, the drain visits only the boxes that event posted into. A
// window invalidates the cache; the next pick rebuilds it (K reads).
//
// Determinism: for a fixed partition, a run with N worker threads
// executes, per shard, exactly the same events in exactly the same
// order as a run with 1 thread -- the window bounds are derived from
// virtual time only, and mailbox drains are canonically ordered. The
// regression tests compare per-shard order digests, final clocks and
// metrics snapshots across thread counts. Equal-timestamp events in
// *different* shards have no defined relative order; they may only
// touch shard-confined state (plus commutative atomics such as
// obs::Counter), which is what the partition guarantees.
//
// shards=1 is the sequential special case: the single shard is left
// unowned and every call delegates to it directly, so existing
// single-threaded code (all pre-sharding tests) behaves bit-identically.
//
// A registered lookahead of zero (e.g. a zero-delay control pipe
// crossing shards) disables parallel windows: the scheduler falls back
// to globally-ordered sequential stepping, which is always safe. An
// edge registered mid-run hands the rest of that run to the fallback.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/event.hpp"

namespace escape {

class ShardedScheduler {
 public:
  using Callback = EventScheduler::Callback;

  /// `shards` fixes the partition width; `threads` caps the worker pool
  /// (0 = one thread per shard). threads is clamped to [1, shards];
  /// thread count never affects results, only wall-clock time.
  explicit ShardedScheduler(std::size_t shards = 1, std::size_t threads = 0);
  ~ShardedScheduler();
  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  /// Grows a 1-shard scheduler to `shards` shards with `threads`
  /// workers (Environment::start learns the partition width from the
  /// topology, after construction). Shard 0 and everything queued on it
  /// survive; the new shards start empty at time 0. Throws once a
  /// parallel run has begun. `shards` <= the current count only updates
  /// the worker cap.
  void resize(std::size_t shards, std::size_t threads = 0);

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t thread_count() const { return threads_; }
  EventScheduler& shard(std::size_t i) { return *shards_[i]; }
  const EventScheduler& shard(std::size_t i) const { return *shards_[i]; }

  /// Declares a cross-shard edge whose events always arrive at least
  /// `min_delay` after they are sent (a link's propagation delay, a
  /// control channel's one-way delay). The global window size is the
  /// minimum over all registered edges. A zero min_delay permanently
  /// switches execution to the sequential fallback.
  void add_lookahead_edge(std::size_t from, std::size_t to, SimDuration min_delay);

  /// Current conservative lookahead (kNoLookahead when no cross-shard
  /// edge was registered -- shards then run windows unbounded).
  static constexpr SimDuration kNoLookahead = ~SimDuration{0};
  SimDuration lookahead() const { return lookahead_; }

  /// True when parallel windows are enabled (no zero-lookahead edge).
  bool parallel_capable() const { return !sequential_only_; }

  // --- EventScheduler-compatible facade ------------------------------------

  /// Completed virtual time. Inside an executing event this is the
  /// executing shard's clock; outside a run it is the maximum over the
  /// shard clocks (== the sequential clock once the queues drained).
  SimTime now() const;

  /// Schedules onto the current shard when called from inside an
  /// executing event, else onto shard 0 (the control shard).
  EventHandle schedule(SimDuration delay, Callback cb);
  EventHandle schedule_at(SimTime when, Callback cb);

  /// Runs events until every queue and mailbox is empty. `max_events`
  /// bounds the events executed *per shard* (runaway-event guard).
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with timestamp <= deadline, then advances every shard
  /// clock to the deadline.
  std::size_t run_until(SimTime deadline, std::size_t max_events = SIZE_MAX);

  std::size_t run_for(SimDuration duration, std::size_t max_events = SIZE_MAX) {
    return run_until(now() + duration, max_events);
  }

  /// Executes the single globally-earliest pending event (ties broken
  /// by shard id). Always sequential; safe to interleave with run*().
  bool step();

  bool empty() const { return pending_events() == 0; }
  /// Events queued on any shard or waiting in an outbox, not yet fired
  /// or cancelled. O(queues + outboxes); call it between run*() calls or
  /// from inside an event of a one-thread run, never while another
  /// thread runs a window.
  std::size_t pending_events() const;
  std::uint64_t executed_events() const;

  /// Combined order digest: per-shard digests folded in shard order.
  /// Identical across thread counts for a fixed partition.
  std::uint64_t order_digest() const;

  /// Outbox boxes the mailbox drains have visited since construction:
  /// after an event run by step() or the sequential fallback, the boxes
  /// it posted into; K*K per window barrier (K = shard count).
  std::uint64_t outbox_visits() const { return outbox_visits_; }

  /// next_event_time() calls made to pick a shard since construction:
  /// K to rebuild the front cache after a window; then per pick, one
  /// re-read of the picked shard (none right after a rebuild) and one
  /// more each time a cancelled head sends the pick on; and one refresh
  /// of the stepped shard after each stepped event.
  std::uint64_t front_reads() const { return front_reads_; }

  // --- cross-shard mailbox -------------------------------------------------

  /// Schedules `cb` on shard `dst` at absolute virtual time `when`.
  /// From inside an executing event this goes through the mailbox and
  /// `when` must respect the lookahead (when >= current window bound);
  /// violating it throws, because it means a cross-shard edge failed to
  /// register its latency. Outside a run it inserts directly.
  EventHandle post_at(std::size_t dst, SimTime when, Callback cb);

  /// Schedules `cb` on shard `dst` at the earliest provably-safe time:
  /// the current window bound when running, the caller's now otherwise.
  /// This is how administrative operations (link up/down, channel
  /// faults) reach state owned by another shard -- the command takes
  /// one lookahead to propagate, like a management-network hop.
  EventHandle post_admin(std::size_t dst, Callback cb);

 private:
  friend class EventScheduler;

  /// A cross-shard event in transit. The callback waits in `slot`, a
  /// slot of the posting shard's core, armed, so pending_events() counts
  /// it here until the drain queues the slot itself on the destination;
  /// the callback (a link frame included) never moves.
  struct Mail {
    SimTime when = 0;
    std::uint32_t src = 0;
    std::uint64_t seq = 0;  // per-source post counter
    detail::EventSlot* slot = nullptr;
  };

  /// Shard `src`'s outboxes, one per destination, and the destinations
  /// whose box went from empty to non-empty since the last drain.
  struct OutboxRow {
    std::vector<std::vector<Mail>> box;
    std::vector<std::uint32_t> posted;
  };

  EventHandle inject_now(std::size_t dst, SimTime when, Callback cb);
  /// Window barrier: merges every outbox into its destination queue.
  void drain_mailboxes();
  /// Queues `mail` (all bound for `dst`) in canonical order; clears it.
  void deliver(std::size_t dst, std::vector<Mail>& mail);
  /// Runs shard `s`'s earliest event, drains the boxes it posted into
  /// (every drain leaves all outboxes empty, and only the running shard
  /// posts), then refreshes its cached front.
  bool run_next_on(std::size_t s);
  /// The shard holding the globally earliest live event, lowest id on
  /// ties, skipping shards whose budget is spent when `budgeted`; K when
  /// there is none. Rebuilds the front cache when a window invalidated
  /// it, else confirms the cached minimum by re-reading its shard.
  std::size_t pick(bool budgeted);
  /// Reads shard `s`'s next_event_time() into its cached front.
  SimTime read_front(std::size_t s);
  /// EventScheduler::push_key's hook: a key became shard `s`'s heap root.
  void lower_front(std::size_t s, SimTime when) {
    if (fronts_valid_ && when < front_[s]) front_[s] = when;
  }
  /// One synchronization window: every shard runs events < bound.
  void execute_round(SimTime bound);
  void run_shard_slice(std::size_t worker);
  void worker_loop(std::size_t worker);
  std::size_t run_loop(SimTime deadline_inclusive, std::size_t max_events);
  /// Zero-lookahead fallback; runs on what is left of `budget_`.
  std::size_t run_sequential(SimTime deadline_inclusive);
  SimTime global_next();

  std::vector<std::unique_ptr<EventScheduler>> shards_;
  std::size_t threads_ = 1;

  SimDuration lookahead_ = kNoLookahead;
  bool sequential_only_ = false;

  // Mailbox: row outbox_[src] is written only by the worker executing
  // shard src during a round, and drained only by the coordinator at
  // the barrier.
  std::vector<OutboxRow> outbox_;
  std::vector<std::uint64_t> post_seq_;
  std::vector<Mail> drain_scratch_;
  std::uint64_t outbox_visits_ = 0;

  // Front cache: front_[s] is a lower bound on shard s's earliest live
  // event while fronts_valid_. Only the thread driving step() or the
  // sequential fallback reads or writes it; a window clears
  // fronts_valid_ before its round starts, so workers only read that.
  std::vector<SimTime> front_;
  bool fronts_valid_ = false;
  std::uint64_t front_reads_ = 0;

  // Per-shard budget/executed slots for the current run call; slot i is
  // only touched by the worker running shard i during a round.
  std::vector<std::size_t> budget_;
  std::vector<std::size_t> round_ran_;

  // Round protocol (threads_ > 1 only): the coordinator starts a round,
  // every worker runs its shard slice, the last one releases the
  // coordinator. Workers are lazily spawned on the first parallel run.
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  std::uint64_t rounds_started_ = 0;
  std::size_t workers_done_ = 0;
  bool stop_ = false;

  // Bound of the window currently executing (coordinator-written before
  // the round, read by workers via the round protocol's ordering).
  SimTime window_bound_ = 0;
};

/// Schedules `cb` to run `delay` after src.now() on dst's shard. When
/// src and dst are the same scheduler, different standalone schedulers,
/// or shards of different owners, this is dst.schedule_at(src.now() +
/// delay, cb). When they are distinct shards of one ShardedScheduler the
/// event goes through the cross-shard mailbox. Every caller crossing
/// shards must have registered the edge with add_cross_shard_edge().
EventHandle cross_schedule(EventScheduler& src, EventScheduler& dst, SimDuration delay,
                           EventScheduler::Callback cb);

/// Declares the edge from `from` to `to` with its minimum delay (the
/// owner's add_lookahead_edge) when the two are distinct shards of one
/// ShardedScheduler. Returns whether they are, i.e. whether events
/// between them cross the mailbox.
bool add_cross_shard_edge(EventScheduler& from, EventScheduler& to, SimDuration min_delay);

/// Whether the calling context may touch state owned by `target` now:
/// no sharded run is executing on this thread, `target` is not a shard
/// of a multi-shard engine, or this thread is executing `target`.
bool may_touch(const EventScheduler& target);

/// Runs `fn` against `target`'s state: at once when may_touch(target),
/// else through the owner's post_admin, so it runs on `target`'s shard
/// at the current window bound, like a management-network hop.
void run_on_shard(EventScheduler& target, EventScheduler::Callback fn);

}  // namespace escape
