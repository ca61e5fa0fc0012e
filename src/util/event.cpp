#include "util/event.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "util/sharded_event.hpp"

namespace escape {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::size_t kArity = 4;

// Cores whose scheduler is gone, newest first. Never destroyed, so a
// scheduler with static storage duration may still return its core
// during static destruction.
struct CorePool {
  std::mutex mu;
  detail::EventCore* head = nullptr;
};

CorePool& core_pool() {
  static CorePool* const pool = new CorePool;
  return *pool;
}
}  // namespace

EventScheduler::EventScheduler() {
  CorePool& pool = core_pool();
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    core_ = pool.head;
    if (core_ != nullptr) pool.head = core_->next;
  }
  if (core_ == nullptr) {
    core_ = new detail::EventCore;
    return;
  }
  // A previous owner's core: every slot is idle (its callback gone, its
  // word even), whether it was free, returned or still queued when that
  // owner went, so all of them form the free list, in chunk order, and
  // the key heap is sized to hold them all.
  core_->returned.store(nullptr, std::memory_order_relaxed);
  Slot** tail = &free_;
  for (auto& chunk : core_->chunks) {
    for (std::size_t i = 0; i < kChunkSlots; ++i) {
      *tail = &chunk[i];
      tail = &chunk[i].next;
    }
  }
  *tail = nullptr;
  heap_.reserve(core_->chunks.size() * kChunkSlots);
}

EventScheduler::~EventScheduler() {
  discard_all();
  // Handles may outlive this scheduler, so the core is pooled, not
  // freed. No other queue can still hold one of its slots: a slot is
  // only borrowed by a shard of the same ShardedScheduler, and
  // ~ShardedScheduler discards every shard and outbox before it
  // destroys any shard. So no slot comes back to this core's return
  // stack after it was handed on.
  CorePool& pool = core_pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  core_->next = pool.head;
  pool.head = core_;
}

EventHandle EventScheduler::schedule_at(SimTime when, Callback cb) {
  if (when < now_) {
    throw std::logic_error("EventScheduler: cannot schedule into the past");
  }
  Slot* slot = nullptr;
  EventHandle handle = arm(std::move(cb), slot);
  push_key(Key{when, next_seq_++, slot});
  return handle;
}

EventHandle EventScheduler::arm(Callback&& cb, Slot*& slot) {
  slot = take_slot();
  slot->cb = std::move(cb);
  const std::uint64_t armed = slot->word.load(std::memory_order_relaxed) + 1;
  slot->word.store(armed, std::memory_order_release);
  return EventHandle{slot, armed};
}

EventScheduler::Slot* EventScheduler::take_slot() {
  if (free_ == nullptr) {
    // Slots other shards fired for us come back on the return stack;
    // taking the whole stack at once keeps the pop ABA-free.
    free_ = core_->returned.exchange(nullptr, std::memory_order_acquire);
  }
  if (free_ == nullptr) {
    auto chunk = std::make_unique<Slot[]>(kChunkSlots);
    for (std::size_t i = 0; i < kChunkSlots; ++i) {
      chunk[i].home = core_;
      chunk[i].next = (i + 1 < kChunkSlots) ? &chunk[i + 1] : nullptr;
    }
    free_ = &chunk[0];
    core_->chunks.push_back(std::move(chunk));
  }
  Slot* slot = free_;
  free_ = slot->next;
  return slot;
}

void EventScheduler::retire(Slot* slot) {
  slot->cb.reset();
  detail::EventCore* home = slot->home;
  if (home == core_) {
    slot->next = free_;
    free_ = slot;
    return;
  }
  // Borrowed from the shard that posted it: only that shard's thread
  // takes from its free list, so push onto its core's return stack.
  slot->next = home->returned.load(std::memory_order_relaxed);
  while (!home->returned.compare_exchange_weak(slot->next, slot, std::memory_order_release,
                                               std::memory_order_relaxed)) {
  }
}

void EventScheduler::abandon(Slot* slot) {
  std::uint64_t word = slot->word.load(std::memory_order_acquire);
  if (word & 1) slot->word.compare_exchange_strong(word, word + 1, std::memory_order_acq_rel);
  slot->cb.reset();
}

void EventScheduler::discard_all() {
  while (!heap_.empty()) {
    std::vector<Key> keys;
    keys.swap(heap_);  // a dying capture may still schedule
    for (const Key& key : keys) abandon(key.slot);
  }
}

void EventScheduler::push_key(Key key) {
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!key.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
  if (i == 0 && owner_ != nullptr) owner_->lower_front(shard_id_, key.when);
}

void EventScheduler::pop_key() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

bool EventScheduler::pop_and_run(SimTime last) {
  while (!heap_.empty()) {
    const Key top = heap_.front();
    if (top.when > last) return false;
    pop_key();
    Slot* slot = top.slot;
    // CAS so a concurrent cross-shard cancel either wins (we reap the
    // key) or loses (we run it; the cancel becomes a no-op).
    std::uint64_t armed = slot->word.load(std::memory_order_acquire);
    if ((armed & 1) == 0 ||
        !slot->word.compare_exchange_strong(armed, armed + 1, std::memory_order_acq_rel)) {
      retire(slot);
      continue;
    }
    now_ = top.when;
    ++executed_;
    digest_ = (digest_ ^ top.when) * kFnvPrime;
    digest_ = (digest_ ^ top.seq) * kFnvPrime;
    // The callback runs in place; the slot is freed however it exits.
    struct Retire {
      EventScheduler* self;
      Slot* slot;
      ~Retire() { self->retire(slot); }
    } retire_after{this, slot};
    slot->cb();
    return true;
  }
  return false;
}

void EventScheduler::check_direct_run() const {
  if (owner_ != nullptr) {
    throw std::logic_error(
        "EventScheduler: a shard queue owned by a ShardedScheduler must be run "
        "through its owner (use the ShardedScheduler's run methods)");
  }
}

bool EventScheduler::step() {
  check_direct_run();
  return pop_and_run();
}

std::size_t EventScheduler::run(std::size_t max_events) {
  check_direct_run();
  std::size_t ran = 0;
  while (ran < max_events && pop_and_run()) ++ran;
  return ran;
}

std::size_t EventScheduler::run_until(SimTime deadline, std::size_t max_events) {
  check_direct_run();
  std::size_t ran = 0;
  while (ran < max_events && pop_and_run(deadline)) ++ran;
  if (now_ < deadline) now_ = deadline;
  return ran;
}

std::size_t EventScheduler::run_window(SimTime bound, std::size_t max_events) {
  std::size_t ran = 0;
  while (bound > 0 && ran < max_events && pop_and_run(bound - 1)) ++ran;
  return ran;
}

std::size_t EventScheduler::pending_events() const {
  std::size_t n = 0;
  for (const Key& key : heap_) n += key.slot->word.load(std::memory_order_acquire) & 1;
  return n;
}

SimTime EventScheduler::next_event_time() {
  while (!heap_.empty() && (heap_.front().slot->word.load(std::memory_order_acquire) & 1) == 0) {
    Slot* slot = heap_.front().slot;
    pop_key();
    retire(slot);
  }
  return heap_.empty() ? kNoEvent : heap_.front().when;
}

}  // namespace escape
