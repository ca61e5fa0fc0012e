#include "util/sharded_event.hpp"

#include <algorithm>
#include <stdexcept>

namespace escape {

namespace {
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// The shard this thread is currently executing an event for. Set around
// run_window / pop_and_run so components (and the obs layer) can tell
// which shard's confined state they are allowed to touch.
thread_local EventScheduler* t_current_shard = nullptr;

SimTime saturating_add(SimTime a, SimDuration b) {
  SimTime r = a + b;
  return r < a ? ~SimTime{0} : r;
}

/// Whether `a` and `b` are distinct shards of one ShardedScheduler.
bool crosses_shards(const EventScheduler& a, const EventScheduler& b) {
  return &a != &b && a.owner() != nullptr && a.owner() == b.owner();
}
}  // namespace

std::size_t current_shard_id() {
  return t_current_shard ? t_current_shard->shard_id() : 0;
}

ShardedScheduler::ShardedScheduler(std::size_t shards, std::size_t threads) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto s = std::make_unique<EventScheduler>();
    s->shard_id_ = i;
    // shards=1 stays unowned: the single queue remains a plain sequential
    // EventScheduler that callers may also drive directly, bit-identical
    // to the pre-sharding behaviour.
    if (shards > 1) s->owner_ = this;
    shards_.push_back(std::move(s));
  }
  threads_ = (threads == 0) ? shards : std::min(threads, shards);
  if (threads_ == 0) threads_ = 1;
  outbox_.resize(shards);
  for (auto& row : outbox_) {
    row.box.resize(shards);
    row.posted.reserve(shards);
  }
  post_seq_.assign(shards, 0);
  front_.assign(shards, EventScheduler::kNoEvent);
  budget_.assign(shards, SIZE_MAX);
  round_ran_.assign(shards, 0);
}

ShardedScheduler::~ShardedScheduler() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }
  // A dying callback may still schedule, also while the shards are
  // destroyed after this body: detached, their push hook no longer
  // reaches this scheduler's members.
  for (auto& s : shards_) s->owner_ = nullptr;
  // Mail and drained cross-shard events sit in slots borrowed from the
  // posting shard's core: drop every callback before any shard goes, so
  // no slot is queued anywhere once its core returns to the pool.
  for (auto& row : outbox_) {
    for (auto& box : row.box) {
      for (auto& m : box) EventScheduler::abandon(m.slot);
    }
  }
  for (auto& s : shards_) s->discard_all();
}

void ShardedScheduler::resize(std::size_t shards, std::size_t threads) {
  if (!workers_.empty()) {
    throw std::logic_error("ShardedScheduler::resize: workers already running");
  }
  if (shards > shards_.size()) {
    shards_.reserve(shards);
    for (std::size_t i = shards_.size(); i < shards; ++i) {
      auto s = std::make_unique<EventScheduler>();
      s->shard_id_ = i;
      shards_.push_back(std::move(s));
    }
    for (auto& s : shards_) s->owner_ = (shards_.size() > 1) ? this : nullptr;
    const std::size_t k = shards_.size();
    outbox_.assign(k, OutboxRow{});
    for (auto& row : outbox_) {
      row.box.resize(k);
      row.posted.reserve(k);
    }
    post_seq_.assign(k, 0);
    front_.assign(k, EventScheduler::kNoEvent);
    fronts_valid_ = false;
    budget_.assign(k, SIZE_MAX);
    round_ran_.assign(k, 0);
  }
  threads_ = (threads == 0) ? shards_.size() : std::min(threads, shards_.size());
  if (threads_ == 0) threads_ = 1;
}

void ShardedScheduler::add_lookahead_edge(std::size_t from, std::size_t to,
                                          SimDuration min_delay) {
  if (from >= shards_.size() || to >= shards_.size()) {
    throw std::out_of_range("ShardedScheduler::add_lookahead_edge: bad shard index");
  }
  if (from == to) return;  // intra-shard edges do not constrain the window
  // Serialized: agent respawns create pipes from inside worker events, so
  // two shards may register edges in the same window. The coordinator
  // only reads lookahead_ and sequential_only_ between rounds, after the
  // barrier.
  std::lock_guard<std::mutex> lock(mu_);
  if (min_delay == 0) {
    sequential_only_ = true;
    lookahead_ = 0;
    return;
  }
  if (!sequential_only_ && min_delay < lookahead_) lookahead_ = min_delay;
}

SimTime ShardedScheduler::now() const {
  const EventScheduler* cur = t_current_shard;
  if (cur != nullptr && cur->owner() == this) return cur->now();
  SimTime t = 0;
  for (const auto& s : shards_) t = std::max(t, s->now());
  return t;
}

EventHandle ShardedScheduler::schedule(SimDuration delay, Callback cb) {
  EventScheduler* cur = t_current_shard;
  if (cur != nullptr && cur->owner() == this) return cur->schedule(delay, std::move(cb));
  return shards_[0]->schedule_at(shards_[0]->now() + delay, std::move(cb));
}

EventHandle ShardedScheduler::schedule_at(SimTime when, Callback cb) {
  EventScheduler* cur = t_current_shard;
  if (cur != nullptr && cur->owner() == this) return cur->schedule_at(when, std::move(cb));
  return shards_[0]->schedule_at(when, std::move(cb));
}

std::size_t ShardedScheduler::pending_events() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->pending_events();
  for (const auto& row : outbox_) {
    for (const auto& box : row.box) {
      for (const Mail& m : box) n += m.slot->word.load(std::memory_order_acquire) & 1;
    }
  }
  return n;
}

std::uint64_t ShardedScheduler::executed_events() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->executed_events();
  return n;
}

std::uint64_t ShardedScheduler::order_digest() const {
  std::uint64_t d = kFnvOffset;
  for (const auto& s : shards_) d = (d ^ s->order_digest()) * kFnvPrime;
  return d;
}

SimTime ShardedScheduler::global_next() {
  const std::size_t s = pick(false);
  return s < shards_.size() ? front_[s] : EventScheduler::kNoEvent;
}

SimTime ShardedScheduler::read_front(std::size_t s) {
  ++front_reads_;
  return front_[s] = shards_[s]->next_event_time();
}

std::size_t ShardedScheduler::pick(bool budgeted) {
  const std::size_t k = shards_.size();
  const bool rebuilt = !fronts_valid_;
  if (rebuilt) {
    for (std::size_t i = 0; i < k; ++i) read_front(i);
    fronts_valid_ = true;
  }
  for (;;) {
    std::size_t best = k;
    SimTime best_t = EventScheduler::kNoEvent;
    for (std::size_t i = 0; i < k; ++i) {
      if (front_[i] < best_t && !(budgeted && budget_[i] == 0)) {
        best_t = front_[i];
        best = i;
      }
    }
    // Every other entry is a lower bound at least best_t, so the pick
    // stands once its shard confirms its front; a cancelled head raised
    // it otherwise, and the next scan sees the raised value.
    if (best == k || rebuilt || read_front(best) == best_t) return best;
  }
}

std::size_t ShardedScheduler::run(std::size_t max_events) {
  if (shards_.size() == 1) return shards_[0]->run(max_events);
  return run_loop(EventScheduler::kNoEvent, max_events);
}

std::size_t ShardedScheduler::run_until(SimTime deadline, std::size_t max_events) {
  if (shards_.size() == 1) return shards_[0]->run_until(deadline, max_events);
  return run_loop(deadline, max_events);
}


std::size_t ShardedScheduler::run_loop(SimTime deadline, std::size_t max_events) {
  budget_.assign(shards_.size(), max_events);
  std::size_t total = 0;
  for (;;) {
    // Checked every round: an event may have registered a zero-lookahead
    // edge (an agent respawned with a zero-delay pipe), and a window of
    // width zero would run nothing.
    if (sequential_only_) {
      total += run_sequential(deadline);
      break;
    }
    SimTime next = global_next();
    if (next == EventScheduler::kNoEvent || next > deadline) break;
    SimTime bound = (lookahead_ == kNoLookahead) ? EventScheduler::kNoEvent
                                                 : saturating_add(next, lookahead_);
    if (deadline != EventScheduler::kNoEvent) {
      // run_until is inclusive of the deadline; the window bound is
      // exclusive, so clamp to deadline + 1.
      bound = std::min(bound, saturating_add(deadline, 1));
    }
    execute_round(bound);
    drain_mailboxes();
    std::size_t ran_this_round = 0;
    for (std::size_t n : round_ran_) ran_this_round += n;
    total += ran_this_round;
    // Only an exhausted per-shard budget can make a round run nothing
    // while events remain; bail instead of spinning.
    if (ran_this_round == 0) break;
  }
  if (deadline != EventScheduler::kNoEvent) {
    for (auto& s : shards_) {
      if (s->now_ < deadline) s->now_ = deadline;
    }
  }
  return total;
}

std::size_t ShardedScheduler::run_sequential(SimTime deadline) {
  // Zero-lookahead fallback: globally ordered single-stepping. Ties
  // across shards break by shard id, matching the canonical mailbox
  // drain order of the windowed path.
  window_bound_ = 0;
  std::size_t total = 0;
  for (;;) {
    const std::size_t best = pick(true);
    if (best == shards_.size() || front_[best] > deadline) break;
    if (run_next_on(best)) {
      --budget_[best];
      ++total;
    }
  }
  return total;
}

bool ShardedScheduler::step() {
  if (shards_.size() == 1) return shards_[0]->step();
  window_bound_ = 0;
  const std::size_t best = pick(false);
  return best < shards_.size() && run_next_on(best);
}

bool ShardedScheduler::run_next_on(std::size_t s) {
  t_current_shard = shards_[s].get();
  const bool ran = shards_[s]->pop_and_run();
  t_current_shard = nullptr;
  OutboxRow& row = outbox_[s];
  for (std::uint32_t dst : row.posted) deliver(dst, row.box[dst]);
  outbox_visits_ += row.posted.size();
  row.posted.clear();
  if (fronts_valid_) read_front(s);
  return ran;
}

void ShardedScheduler::execute_round(SimTime bound) {
  fronts_valid_ = false;
  window_bound_ = bound;
  for (auto& n : round_ran_) n = 0;
  if (threads_ == 1) {
    run_shard_slice(0);
    return;
  }
  if (workers_.empty()) {
    workers_.reserve(threads_ - 1);
    for (std::size_t w = 1; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    workers_done_ = 0;
    ++rounds_started_;
  }
  cv_.notify_all();
  run_shard_slice(0);
  std::unique_lock<std::mutex> lk(mu_);
  ++workers_done_;
  if (workers_done_ == threads_) {
    cv_.notify_all();
  } else {
    cv_.wait(lk, [this] { return workers_done_ == threads_; });
  }
}

void ShardedScheduler::run_shard_slice(std::size_t worker) {
  for (std::size_t i = worker; i < shards_.size(); i += threads_) {
    t_current_shard = shards_[i].get();
    std::size_t ran = shards_[i]->run_window(window_bound_, budget_[i]);
    budget_[i] -= ran;
    round_ran_[i] = ran;
    t_current_shard = nullptr;
  }
}

void ShardedScheduler::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this, seen] { return stop_ || rounds_started_ != seen; });
      if (stop_) return;
      seen = rounds_started_;
    }
    run_shard_slice(worker);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++workers_done_;
      if (workers_done_ == threads_) cv_.notify_all();
    }
  }
}

void ShardedScheduler::drain_mailboxes() {
  for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
    for (std::size_t src = 0; src < shards_.size(); ++src) {
      auto& box = outbox_[src].box[dst];
      drain_scratch_.insert(drain_scratch_.end(), box.begin(), box.end());
      box.clear();
    }
    if (!drain_scratch_.empty()) deliver(dst, drain_scratch_);
  }
  for (auto& row : outbox_) row.posted.clear();
  outbox_visits_ += shards_.size() * shards_.size();
}

void ShardedScheduler::deliver(std::size_t dst, std::vector<Mail>& mail) {
  std::sort(mail.begin(), mail.end(), [](const Mail& a, const Mail& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  for (auto& m : mail) {
    // Cancelled while still in the outbox: just free the slot.
    if ((m.slot->word.load(std::memory_order_acquire) & 1) == 0) {
      shards_[dst]->retire(m.slot);
      continue;
    }
    shards_[dst]->inject(m.when, m.slot);
  }
  mail.clear();
}

EventHandle ShardedScheduler::inject_now(std::size_t dst, SimTime when, Callback cb) {
  EventScheduler& sh = *shards_[dst];
  if (when < sh.now_) {
    // Only main-thread inserts land here, and between runs the shard
    // clocks legitimately drift (step()/run() leave each shard at its
    // last-executed event). A timestamp computed off a lagging shard's
    // clock means "as soon as possible on dst": clamp instead of
    // throwing. In-run cross-shard sends never pass through here, so
    // the lookahead-violation check in post_at still bites.
    when = sh.now_;
  }
  return sh.schedule_at(when, std::move(cb));
}

EventHandle ShardedScheduler::post_at(std::size_t dst, SimTime when, Callback cb) {
  if (dst >= shards_.size()) {
    throw std::out_of_range("ShardedScheduler::post_at: bad shard index");
  }
  EventScheduler* cur = t_current_shard;
  if (cur == nullptr || cur->owner() != this) {
    // Outside a sharded run (main thread between runs): insert directly.
    return inject_now(dst, when, std::move(cb));
  }
  std::size_t src = cur->shard_id();
  if (dst == src) return cur->schedule_at(when, std::move(cb));
  if (when < window_bound_) {
    throw std::logic_error(
        "ShardedScheduler::post_at: cross-shard event inside the current window -- "
        "the sending edge did not register its minimum delay (add_lookahead_edge)");
  }
  // The slot comes from the sending shard's core: this thread owns its
  // free list, while the destination's is busy running its own window.
  detail::EventSlot* slot = nullptr;
  EventHandle handle = cur->arm(std::move(cb), slot);
  OutboxRow& row = outbox_[src];
  std::vector<Mail>& box = row.box[dst];
  if (box.empty()) row.posted.push_back(static_cast<std::uint32_t>(dst));
  box.push_back(Mail{when, static_cast<std::uint32_t>(src), post_seq_[src]++, slot});
  return handle;
}

EventHandle ShardedScheduler::post_admin(std::size_t dst, Callback cb) {
  EventScheduler* cur = t_current_shard;
  if (cur == nullptr || cur->owner() != this) {
    return inject_now(dst, shards_[dst]->now(), std::move(cb));
  }
  if (dst == cur->shard_id()) return cur->schedule_at(cur->now(), std::move(cb));
  SimTime when = std::max(cur->now(), window_bound_);
  if (when == EventScheduler::kNoEvent) {
    throw std::logic_error(
        "ShardedScheduler::post_admin: cross-shard admin requires a registered "
        "lookahead edge");
  }
  return post_at(dst, when, std::move(cb));
}

EventHandle cross_schedule(EventScheduler& src, EventScheduler& dst, SimDuration delay,
                           EventScheduler::Callback cb) {
  SimTime when = src.now() + delay;
  if (crosses_shards(src, dst)) return dst.owner()->post_at(dst.shard_id(), when, std::move(cb));
  return dst.schedule_at(when, std::move(cb));
}

bool add_cross_shard_edge(EventScheduler& from, EventScheduler& to, SimDuration min_delay) {
  if (!crosses_shards(from, to)) return false;
  from.owner()->add_lookahead_edge(from.shard_id(), to.shard_id(), min_delay);
  return true;
}

bool may_touch(const EventScheduler& target) {
  return t_current_shard == nullptr || target.owner() == nullptr || t_current_shard == &target;
}

void run_on_shard(EventScheduler& target, EventScheduler::Callback fn) {
  if (may_touch(target)) {
    fn();
  } else {
    target.owner()->post_admin(target.shard_id(), std::move(fn));
  }
}

}  // namespace escape
