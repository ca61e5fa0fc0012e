// Discrete-event scheduler: the virtual clock driving the emulated
// environment (links, Click timers, OpenFlow timeouts, traffic sources,
// NETCONF transport).
//
// One EventScheduler is a single sequential, deterministic event queue:
// events at equal timestamps fire in scheduling order (FIFO tie-break
// via a monotonically increasing sequence number). Handles allow
// cancellation, which is how Click timers are unscheduled and
// flow-entry timeouts are refreshed.
//
// Storage: scheduling and firing allocate nothing in steady state. An
// event lives in a slot of its scheduler's core; slots come in chunks
// of kChunkSlots that are never relocated, and fired or reaped slots go
// back on a free list. The queue itself is a 4-ary heap of 24-byte
// (when, seq, slot) keys. Callbacks are move-only with inline storage
// (EventCallback), so they are moved into and out of slots, never
// copied.
//
// Handles: each slot carries an atomic state word that only grows. An
// odd value means "scheduled", the next even value "fired or
// cancelled", and the slot's next use arms the odd value after that.
// A handle is two words, the slot and the odd word its event was armed
// with, so it can never cancel, or report pending, a later event that
// reuses the slot. Firing and cancelling are both one CAS from that odd
// word, so exactly one of them wins even when a handle is cancelled
// from another shard's thread; that CAS is the one locked instruction
// an event costs. pending_events() is not a counter: it counts the
// queued keys whose word is odd when asked.
//
// Cores: a scheduler's slots live in its core, and a core is never
// freed. The destructor marks every event it still held as fired and
// hands the core to a process-wide pool; the next scheduler takes it
// and rebuilds its free list from all of its slots. Slot words keep
// growing across owners, so a handle stays safe to use after its
// scheduler was destroyed: pending() reads false and cancel() is a
// failed CAS, also when the slot carries a newer owner's event.
//
// For parallel execution the network is partitioned into shards, each
// with its own EventScheduler, driven together by a ShardedScheduler
// (util/sharded_event.hpp). A standalone EventScheduler (the shards=1
// special case) behaves exactly as before; when owned by a
// ShardedScheduler it becomes one shard's queue and must only be
// advanced through the owner. A cross-shard event posted during a run
// occupies a slot of the posting shard's core (only that shard's thread
// takes slots from its free list); the receiving shard fires it and
// hands the slot back through the home core's lock-free return stack.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace escape {

class EventScheduler;
class ShardedScheduler;

/// A move-only `void()` callable with inline storage. Callables of up
/// to kInlineBytes (and no stricter alignment than a pointer) that are
/// nothrow-movable live in the buffer; anything larger costs one heap
/// allocation. The buffer fits the packet path's captures, the largest
/// being a cross-shard link frame: `[dst, port, net::Packet]`.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 72;

  /// Whether a callable of type D is stored inline (no heap allocation).
  template <class D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(void*) &&
                                      std::is_nothrow_move_constructible_v<D>;

  EventCallback() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                     std::is_invocable_r_v<void, D&>>>
  EventCallback(F&& f) {  // NOLINT: implicit, so call sites pass lambdas
    if constexpr (kFitsInline<D>) {
      emplace<D>(std::forward<F>(f));
    } else {
      emplace<Boxed<D>>(Boxed<D>{std::make_unique<D>(std::forward<F>(f))});
    }
  }

  EventCallback(EventCallback&& other) noexcept { take(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  /// Destroys the stored callable, leaving this empty.
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs into `to` and destroys `from`; nullptr when a
    // byte copy of the buffer does the same.
    void (*relocate)(void* to, void* from) noexcept;
    // nullptr when the callable is trivially destructible.
    void (*destroy)(void* storage) noexcept;
  };

  /// A callable too large for the buffer, moved to the heap.
  template <class D>
  struct Boxed {
    std::unique_ptr<D> fn;
    void operator()() { (*fn)(); }
  };

  template <class T>
  static constexpr Ops kOps{
      [](void* s) { (*static_cast<T*>(s))(); },
      std::is_trivially_copyable_v<T>
          ? nullptr
          : +[](void* to, void* from) noexcept {
              ::new (to) T(std::move(*static_cast<T*>(from)));
              static_cast<T*>(from)->~T();
            },
      std::is_trivially_destructible_v<T>
          ? nullptr
          : +[](void* s) noexcept { static_cast<T*>(s)->~T(); }};

  template <class T, class A>
  void emplace(A&& arg) {
    ::new (static_cast<void*>(buf_)) T(std::forward<A>(arg));
    ops_ = &kOps<T>;
  }

  void take(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineBytes];
};

namespace detail {
struct EventCore;

/// One event's storage. `word` is the handle protocol's state (odd =
/// scheduled).
struct EventSlot {
  std::atomic<std::uint64_t> word{0};
  EventCore* home = nullptr;  // owns the memory and the free list
  EventSlot* next = nullptr;  // free-list / return-stack link
  EventCallback cb;
};

/// A scheduler's slot storage: the slot chunks and the stack other
/// shards return borrowed slots on. Never freed; between owners it
/// waits in a process-wide pool, linked through `next`.
struct EventCore {
  std::atomic<EventSlot*> returned{nullptr};
  std::vector<std::unique_ptr<EventSlot[]>> chunks;
  EventCore* next = nullptr;
};
}  // namespace detail

/// Cancellable handle to a scheduled event: a slot and the word its
/// event was armed with. Copies share the event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent; safe to call
  /// after the owning scheduler was destroyed, and safe to call from a
  /// different shard/thread than the one that scheduled the event.
  void cancel() {
    if (slot_ == nullptr) return;
    std::uint64_t expected = armed_;
    slot_->word.compare_exchange_strong(expected, armed_ + 1, std::memory_order_acq_rel,
                                        std::memory_order_relaxed);
  }

  /// True if the event is still scheduled to fire.
  bool pending() const {
    return slot_ != nullptr && slot_->word.load(std::memory_order_acquire) == armed_;
  }

 private:
  friend class EventScheduler;
  EventHandle(detail::EventSlot* slot, std::uint64_t armed) : slot_(slot), armed_(armed) {}

  detail::EventSlot* slot_ = nullptr;  // slots are never freed
  std::uint64_t armed_ = 0;            // slot_->word while this event is scheduled
};

// Copying or dropping a handle must stay free of locked instructions
// (Link::arm overwrites one per hop): no reference count.
static_assert(std::is_trivially_copyable_v<EventHandle> &&
                  sizeof(EventHandle) == sizeof(void*) + sizeof(std::uint64_t),
              "EventHandle is a plain {slot, armed} pair");

/// A virtual-time event queue.
class EventScheduler {
 public:
  using Callback = EventCallback;

  /// Returned by next_event_time() when the queue is empty.
  static constexpr SimTime kNoEvent = ~SimTime{0};

  /// Slots per storage chunk. Small on purpose: a partitioned run has
  /// one scheduler per shard (20 on a k=4 fat tree), and each pays for
  /// its chunks whether or not its shard is busy.
  static constexpr std::size_t kChunkSlots = 64;

  EventScheduler();
  ~EventScheduler();
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `cb` to run `delay` nanoseconds from now.
  EventHandle schedule(SimDuration delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` at an absolute virtual time (must be >= now()).
  EventHandle schedule_at(SimTime when, Callback cb);

  /// Runs events until the queue is empty. Returns the number of events
  /// executed. `max_events` guards against runaway periodic events.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with timestamp <= deadline, then advances the clock to
  /// the deadline even if the queue drained earlier. Returns events run.
  std::size_t run_until(SimTime deadline, std::size_t max_events = SIZE_MAX);

  /// Runs for `duration` of virtual time from the current clock.
  std::size_t run_for(SimDuration duration, std::size_t max_events = SIZE_MAX) {
    return run_until(now_ + duration, max_events);
  }

  /// Executes the single earliest pending event, if any. Returns whether
  /// an event ran.
  bool step();

  /// Number of pending (non-cancelled, not yet fired) events, counted
  /// over the queue on each call: O(queue). Must not be called while
  /// another thread runs a window of this queue's owner.
  std::size_t pending_events() const;

  bool empty() const { return pending_events() == 0; }

  /// Total number of events executed since construction.
  std::uint64_t executed_events() const { return executed_; }

  /// FNV-1a digest over every executed event's (timestamp, sequence)
  /// pair, in execution order. Two runs over the same shard executed
  /// the same events in the same order iff the digests match -- the
  /// determinism regression tests compare this across thread counts.
  std::uint64_t order_digest() const { return digest_; }

  // --- sharding support ----------------------------------------------------

  /// The ShardedScheduler driving this queue as one of its shards
  /// (nullptr for a standalone scheduler).
  ShardedScheduler* owner() const { return owner_; }

  /// This queue's shard index within its owner (0 when standalone).
  std::size_t shard_id() const { return shard_id_; }

  /// Timestamp of the earliest pending event (kNoEvent when empty).
  /// Lazily reaps cancelled heap entries.
  SimTime next_event_time();

 private:
  friend class ShardedScheduler;
  using Slot = detail::EventSlot;

  struct Key {
    SimTime when;
    std::uint64_t seq;
    Slot* slot;
    bool before(const Key& o) const { return when != o.when ? when < o.when : seq < o.seq; }
  };

  /// Runs the earliest live event if its timestamp is <= `last`;
  /// cancelled keys met on the way are reaped.
  bool pop_and_run(SimTime last = kNoEvent);

  /// Runs events with timestamp < `bound` (exclusive). The clock only
  /// advances as events fire -- it is NOT pushed to the bound, so a
  /// drained shard's clock equals its last executed event, exactly as
  /// in a sequential run. The ShardedScheduler window loop drives this.
  std::size_t run_window(SimTime bound, std::size_t max_events);

  /// Takes a free slot of this queue's core, moves `cb` into it and arms
  /// it. The caller queues the slot.
  EventHandle arm(Callback&& cb, Slot*& slot);

  /// Queues an armed slot (possibly borrowed from another shard's core)
  /// under the next local sequence number. Used by the owner to move
  /// mailbox events into this shard's queue at a synchronization
  /// barrier.
  void inject(SimTime when, Slot* slot) { push_key(Key{when, next_seq_++, slot}); }

  /// Destroys a fired or cancelled slot's callback and frees the slot.
  void retire(Slot* slot);

  /// Destroys a queued slot's callback and marks its event fired, so
  /// its handles read "not pending" and cancel() is a no-op. The slot
  /// is not freed: this is teardown.
  static void abandon(Slot* slot);

  /// Abandons every queued event. The destructor runs it; so does the
  /// owner, on every shard before destroying any, because shards queue
  /// slots borrowed from each other's cores.
  void discard_all();

  Slot* take_slot();
  /// Queues `key`. When it becomes the heap root, this queue's front
  /// moved earlier, and the owner is told, since it caches each shard's
  /// front as a lower bound.
  void push_key(Key key);
  void pop_key();

  /// Throws when this queue is owned by a multi-shard scheduler: shard
  /// queues may only be advanced through the owner's window protocol.
  void check_direct_run() const;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t digest_ = 1469598103934665603ull;  // FNV-1a offset basis
  std::vector<Key> heap_;  // 4-ary min-heap on (when, seq)
  Slot* free_ = nullptr;   // this core's free slots (owner thread only)
  detail::EventCore* core_ = nullptr;  // pooled, never freed
  ShardedScheduler* owner_ = nullptr;
  std::size_t shard_id_ = 0;
};

/// Index of the shard currently executing on this thread (0 when no
/// sharded run is in progress -- the main thread and standalone
/// schedulers count as shard 0). The observability layer keys its
/// per-shard trace rings off this.
std::size_t current_shard_id();

}  // namespace escape
