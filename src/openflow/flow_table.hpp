// The flow table: priority-ordered wildcard entries behind a
// tuple-space-search index (one hash table per distinct wildcard mask,
// probed in descending max-priority order with priority early exit),
// per-entry counters and idle/hard timeout expiry.
//
// Lookup semantics (shared with tests/support/linear_flow_oracle.hpp,
// the linear reference implementation the property tests diff against):
//   * the winner is the matching entry with the highest priority;
//     priority ties prefer the exact (fully-specified) entry, then the
//     earlier install (stable OF 1.0 tie behaviour);
//   * expired entries are invisible to lookup -- they are skipped, not
//     lazily evicted. Eviction happens in expire() sweeps (and delete
//     flow-mods), always in install order, so the flow-removed stream
//     is canonical and independent of the lookup access pattern.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "openflow/actions.hpp"
#include "openflow/flow_key_index.hpp"
#include "openflow/match.hpp"
#include "openflow/messages.hpp"
#include "util/time.hpp"

namespace escape::openflow {

struct FlowEntry {
  Match match;
  std::uint16_t priority = 0x8000;
  std::uint64_t cookie = 0;
  SimDuration idle_timeout = 0;
  SimDuration hard_timeout = 0;
  ActionList actions;
  bool send_flow_removed = false;

  // Counters / bookkeeping.
  SimTime installed_at = 0;
  SimTime last_hit = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  /// Monotonic install sequence; breaks priority ties (earlier wins)
  /// and fixes the canonical eviction / stats order.
  std::uint64_t seq = 0;
};

class FlowTable {
 public:
  /// Callback fired when an entry expires or is deleted with
  /// send_flow_removed set.
  using RemovedCallback = std::function<void(const FlowEntry&, FlowRemovedReason)>;

  void set_removed_callback(RemovedCallback cb) { removed_cb_ = std::move(cb); }

  /// Applies a flow-mod at virtual time `now`.
  void apply(const FlowMod& mod, SimTime now);

  /// Applies a burst of flow-mods as one table transaction: identical
  /// end state to N sequential apply() calls, but a single version bump
  /// and one miss-memo invalidation for the whole batch. This is the
  /// resync / chain-install fast path past ~100k rules per switch.
  void apply_batch(const std::vector<FlowMod>& mods, SimTime now);

  /// Looks up the highest-priority matching entry, updating its
  /// counters. Expired entries are skipped (see header comment).
  FlowEntry* lookup(const net::FlowKey& key, std::size_t packet_bytes, SimTime now);

  /// Evicts every entry whose idle/hard timeout has passed at `now`, in
  /// install order. Returns the number evicted. The switch sweeps
  /// periodically.
  std::size_t expire(SimTime now);

  std::size_t size() const { return entries_.size(); }
  std::uint64_t lookups() const { return lookups_; }
  std::uint64_t matches() const { return matched_; }

  /// Misses answered from the miss memo without re-probing the mask
  /// groups (see the memo comment in the private section).
  std::uint64_t miss_short_circuits() const { return miss_short_circuits_; }

  /// Distinct missed keys the memo holds before it starts over.
  static constexpr std::size_t kMissMemoCap = 4096;

  /// Number of distinct wildcard masks currently indexed (tuple-space
  /// hash tables; the per-lookup probe bound).
  std::size_t mask_group_count() const { return groups_.size(); }

  /// Entries examined by the most recent delete_matching() call
  /// (regression guard: a mask-indexed purge must not rescan the table).
  std::size_t last_delete_examined() const { return last_delete_examined_; }

  /// Snapshot for flow-stats replies, in install order.
  std::vector<FlowStatsEntry> stats(SimTime now) const;

  /// The cookie-owned (cookie != 0) live entries only: the slice a
  /// controller app's intent store can be diffed against, with cookie-0
  /// (l2_learning) entries and already-expired rows excluded.
  std::vector<FlowStatsEntry> cookied_stats(SimTime now) const;

  void clear();

 private:
  using EntryList = std::list<FlowEntry>;
  using EntryIt = EntryList::iterator;

  /// One tuple space: all entries sharing a wildcard mask, hashed by
  /// their masked fields. A bucket holds the entries whose masks AND
  /// masked fields coincide, sorted by (priority desc, seq asc).
  struct MaskGroup {
    Match mask;  // any representative match of this mask (fields unused)
    bool exact = false;
    // Live priorities with their entry counts; the max (first key) gives
    // the probe order and the early-exit bound.
    std::map<std::uint16_t, std::size_t, std::greater<std::uint16_t>> prio_counts;
    FlowKeyIndex<std::vector<EntryIt>> buckets;
    std::size_t size = 0;

    std::uint16_t max_priority() const {
      return prio_counts.empty() ? 0 : prio_counts.begin()->first;
    }
  };

  bool expired(const FlowEntry& e, SimTime now) const;
  FlowRemovedReason expiry_reason(const FlowEntry& e, SimTime now) const;
  void fire_removed(const FlowEntry& e, FlowRemovedReason reason);
  MaskGroup& group_for(const Match& match);
  void link_entry(EntryIt it);
  /// Unlinks + erases one entry, firing `reason` first when set.
  void erase_entry(EntryIt it, std::optional<FlowRemovedReason> reason);
  void apply_one(const FlowMod& mod, SimTime now);
  void delete_matching(const Match& match, bool strict, std::optional<std::uint16_t> priority);
  /// The wildcard groups in probe order; also refreshes exact_group_.
  const std::vector<MaskGroup*>& probe_order() const;
  /// True when `a` outranks `b`: higher priority, then exact-over-
  /// wildcard, then earlier install.
  static bool outranks(const FlowEntry& a, bool a_exact, const FlowEntry& b, bool b_exact);

  // All entries in install order (stable addresses: lookup() hands out
  // FlowEntry* that stay valid until the entry is erased).
  EntryList entries_;
  // Tuple spaces keyed by Match::mask_signature().
  std::unordered_map<std::uint64_t, MaskGroup> groups_;
  // Wildcard groups sorted by descending max priority, rebuilt lazily
  // when a group appears/vanishes or a group's max priority moves; the
  // exact group (or nullptr) is looked up at the same time, so lookup()
  // never searches groups_.
  mutable std::vector<MaskGroup*> probe_order_;
  mutable MaskGroup* exact_group_ = nullptr;
  mutable bool probe_order_dirty_ = true;

  std::uint64_t next_seq_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t version_ = 0;
  std::size_t last_delete_examined_ = 0;

  // Miss memo: keys that probed every eligible mask group and matched
  // nothing. Sound because a miss can only become a hit through a
  // flow-mod, and every table mutation (add/modify/delete/expiry sweep)
  // bumps version_, which invalidates the memo; timeout expiry only
  // creates new misses. Without it, every packet of an unmatched flow
  // re-probes all mask groups before taking the packet-in path.
  // Bounded: the memo resets when it reaches kMissMemoCap (and on every
  // version bump). It grows on demand, so a switch that never misses
  // holds no memo slots.
  FlowKeyIndex<bool> miss_memo_;
  std::uint64_t miss_memo_version_ = 0;
  std::uint64_t miss_short_circuits_ = 0;

  RemovedCallback removed_cb_;
};

}  // namespace escape::openflow
