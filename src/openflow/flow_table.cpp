#include "openflow/flow_table.hpp"

#include <algorithm>

namespace escape::openflow {

namespace {

/// mask_signature() of a fully-exact match (wildcards 0, /32 prefixes).
constexpr std::uint64_t kExactSig = (32ULL << 32) | (32ULL << 40);

}  // namespace

bool FlowTable::expired(const FlowEntry& e, SimTime now) const {
  if (e.hard_timeout && now >= e.installed_at + e.hard_timeout) return true;
  if (e.idle_timeout && now >= e.last_hit + e.idle_timeout) return true;
  return false;
}

FlowRemovedReason FlowTable::expiry_reason(const FlowEntry& e, SimTime now) const {
  return e.hard_timeout && now >= e.installed_at + e.hard_timeout
             ? FlowRemovedReason::kHardTimeout
             : FlowRemovedReason::kIdleTimeout;
}

void FlowTable::fire_removed(const FlowEntry& e, FlowRemovedReason reason) {
  if (e.send_flow_removed && removed_cb_) removed_cb_(e, reason);
}

bool FlowTable::outranks(const FlowEntry& a, bool a_exact, const FlowEntry& b, bool b_exact) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a_exact != b_exact) return a_exact;
  return a.seq < b.seq;
}

FlowTable::MaskGroup& FlowTable::group_for(const Match& match) {
  auto [it, inserted] = groups_.try_emplace(match.mask_signature());
  if (inserted) {
    it->second.mask = match;
    it->second.exact = match.is_exact();
    probe_order_dirty_ = true;
  }
  return it->second;
}

void FlowTable::link_entry(EntryIt it) {
  MaskGroup& g = group_for(it->match);
  const std::uint16_t old_max = g.max_priority();
  const bool was_empty = g.prio_counts.empty();
  auto& bucket = g.buckets[it->match.masked(it->match.fields())];
  // Keep buckets sorted by (priority desc, seq asc) so the first
  // non-expired entry is the bucket's best candidate.
  auto pos = std::lower_bound(bucket.begin(), bucket.end(), it,
                              [](const EntryIt& a, const EntryIt& b) {
                                if (a->priority != b->priority) return a->priority > b->priority;
                                return a->seq < b->seq;
                              });
  bucket.insert(pos, it);
  ++g.prio_counts[it->priority];
  ++g.size;
  if (was_empty || g.max_priority() != old_max) probe_order_dirty_ = true;
}

void FlowTable::erase_entry(EntryIt it, std::optional<FlowRemovedReason> reason) {
  if (reason) fire_removed(*it, *reason);
  auto git = groups_.find(it->match.mask_signature());
  MaskGroup& g = git->second;
  const std::uint16_t old_max = g.max_priority();
  const net::FlowKey key = it->match.masked(it->match.fields());
  auto& bucket = *g.buckets.find(key);
  bucket.erase(std::find(bucket.begin(), bucket.end(), it));
  if (bucket.empty()) g.buckets.erase(key);
  auto pit = g.prio_counts.find(it->priority);
  if (--pit->second == 0) g.prio_counts.erase(pit);
  if (--g.size == 0) {
    groups_.erase(git);
    probe_order_dirty_ = true;
  } else if (g.max_priority() != old_max) {
    probe_order_dirty_ = true;
  }
  entries_.erase(it);
}

const std::vector<FlowTable::MaskGroup*>& FlowTable::probe_order() const {
  if (probe_order_dirty_) {
    probe_order_.clear();
    probe_order_.reserve(groups_.size());
    exact_group_ = nullptr;
    for (auto& [sig, g] : groups_) {
      auto* group = const_cast<MaskGroup*>(&g);
      if (sig == kExactSig) {
        exact_group_ = group;
      } else {
        probe_order_.push_back(group);
      }
    }
    std::sort(probe_order_.begin(), probe_order_.end(), [](const MaskGroup* a, const MaskGroup* b) {
      if (a->max_priority() != b->max_priority()) return a->max_priority() > b->max_priority();
      return a->mask.mask_signature() < b->mask.mask_signature();
    });
    probe_order_dirty_ = false;
  }
  return probe_order_;
}

void FlowTable::apply_batch(const std::vector<FlowMod>& mods, SimTime now) {
  for (const auto& mod : mods) apply(mod, now);
}

void FlowTable::apply(const FlowMod& mod, SimTime now) {
  switch (mod.command) {
    case FlowModCommand::kAdd: {
      // OF 1.0: identical match+priority overwrites (counters reset).
      // Exact adds overwrite the occupant of their bucket regardless of
      // priority; wildcard adds only displace equal-priority equal-match
      // entries. Either way only the template's own bucket is examined.
      MaskGroup& g = group_for(mod.match);
      if (const auto* bucket = g.buckets.find(mod.match.masked(mod.match.fields()))) {
        std::vector<EntryIt> victims;
        for (EntryIt it : *bucket) {
          if (g.exact || (it->priority == mod.priority && it->match == mod.match)) {
            victims.push_back(it);
          }
        }
        for (EntryIt it : victims) erase_entry(it, FlowRemovedReason::kDelete);
      }
      FlowEntry e;
      e.match = mod.match;
      e.priority = mod.priority;
      e.cookie = mod.cookie;
      e.idle_timeout = mod.idle_timeout;
      e.hard_timeout = mod.hard_timeout;
      e.actions = mod.actions;
      e.send_flow_removed = mod.send_flow_removed;
      e.installed_at = now;
      e.last_hit = now;
      e.seq = next_seq_++;
      entries_.push_back(std::move(e));
      link_entry(std::prev(entries_.end()));
      break;
    }
    case FlowModCommand::kModify: {
      // Rewrites actions+cookie of every entry with the same match (any
      // priority), keeping counters; adds when nothing matched.
      bool any = false;
      if (auto git = groups_.find(mod.match.mask_signature()); git != groups_.end()) {
        if (const auto* bucket = git->second.buckets.find(mod.match.masked(mod.match.fields()))) {
          for (EntryIt it : *bucket) {
            if (it->match == mod.match) {
              it->actions = mod.actions;
              it->cookie = mod.cookie;
              any = true;
            }
          }
        }
      }
      if (!any) {
        FlowMod add = mod;
        add.command = FlowModCommand::kAdd;
        apply(add, now);
      }
      break;
    }
    case FlowModCommand::kDelete:
      delete_matching(mod.match, /*strict=*/false, std::nullopt);
      break;
    case FlowModCommand::kDeleteStrict:
      delete_matching(mod.match, /*strict=*/true, mod.priority);
      break;
  }
}

void FlowTable::delete_matching(const Match& match, bool strict,
                                std::optional<std::uint16_t> priority) {
  last_delete_examined_ = 0;
  std::vector<EntryIt> victims;

  auto scan_bucket = [&](MaskGroup& g, const net::FlowKey& key, auto&& pred) {
    const auto* bucket = g.buckets.find(key);
    if (bucket == nullptr) return;
    for (EntryIt it : *bucket) {
      ++last_delete_examined_;
      if (pred(*it)) victims.push_back(it);
    }
  };

  if (!strict && match.is_table_miss()) {
    // Wildcard-all template: everything goes, already in install order.
    last_delete_examined_ = entries_.size();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) victims.push_back(it);
  } else if (strict) {
    // Strict: exact template identity (match equality + priority), which
    // can only live in the template's own bucket.
    if (auto git = groups_.find(match.mask_signature()); git != groups_.end()) {
      scan_bucket(git->second, match.masked(match.fields()), [&](const FlowEntry& e) {
        return e.match == match && (!priority || e.priority == *priority);
      });
    }
  } else {
    // Non-strict: delete entries "covered" by the template — exact
    // entries whose concrete fields the template matches, plus
    // wildcard entries equal to the template. The equality half is one
    // bucket probe; the covered-exact half only scans the exact group,
    // and only when the template itself is not exact (an exact template
    // covers exactly its own bucket occupant).
    if (auto git = groups_.find(match.mask_signature()); git != groups_.end()) {
      scan_bucket(git->second, match.masked(match.fields()),
                  [&](const FlowEntry& e) { return e.match == match; });
    }
    if (!match.is_exact()) {
      if (auto git = groups_.find(kExactSig); git != groups_.end()) {
        for (const auto& node : git->second.buckets.nodes()) {
          last_delete_examined_ += node.value.size();
          if (!match.matches(node.key)) continue;
          for (EntryIt it : node.value) victims.push_back(it);
        }
      }
    }
  }

  // Fire flow-removed in canonical install order regardless of which
  // index the victims came from.
  std::sort(victims.begin(), victims.end(),
            [](const EntryIt& a, const EntryIt& b) { return a->seq < b->seq; });
  for (EntryIt it : victims) erase_entry(it, FlowRemovedReason::kDelete);
}

FlowEntry* FlowTable::lookup(const net::FlowKey& key, std::size_t packet_bytes, SimTime now) {
  ++lookups_;
  const std::vector<MaskGroup*>& order = probe_order();

  FlowEntry* best = nullptr;
  bool best_exact = false;

  // Exact-match fast path: one hash probe against the exact tuple space.
  if (exact_group_) {
    if (const auto* bucket = exact_group_->buckets.find(key)) {
      for (EntryIt it : *bucket) {
        if (expired(*it, now)) continue;
        best = &*it;
        best_exact = true;
        break;
      }
    }
  }

  // Wildcard tuple spaces in descending max-priority order. Early exit:
  // once a group's max priority falls below the best candidate (or ties
  // it while the best is exact — exact wins priority ties), no later
  // group can win.
  for (MaskGroup* g : order) {
    if (best) {
      const std::uint16_t gmax = g->max_priority();
      if (gmax < best->priority) break;
      if (gmax == best->priority && best_exact) break;
    }
    const auto* bucket = g->buckets.find(g->mask.masked(key));
    if (bucket == nullptr) continue;
    for (EntryIt it : *bucket) {
      if (expired(*it, now)) continue;
      // Buckets are (priority desc, seq asc) sorted, so the first live
      // entry is this group's best; compare it against the running best.
      if (!best || outranks(*it, false, *best, best_exact)) {
        best = &*it;
        best_exact = false;
      }
      break;
    }
  }

  if (best) {
    best->packet_count++;
    best->byte_count += packet_bytes;
    best->last_hit = now;
    ++matched_;
  }
  return best;
}

std::size_t FlowTable::expire(SimTime now) {
  std::size_t evicted = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (expired(*it, now)) {
      auto next = std::next(it);
      erase_entry(it, expiry_reason(*it, now));
      ++evicted;
      it = next;
    } else {
      ++it;
    }
  }
  return evicted;
}

std::vector<FlowStatsEntry> FlowTable::stats(SimTime now) const {
  std::vector<FlowStatsEntry> out;
  out.reserve(size());
  for (const auto& e : entries_) {
    FlowStatsEntry s;
    s.match = e.match;
    s.priority = e.priority;
    s.cookie = e.cookie;
    s.packet_count = e.packet_count;
    s.byte_count = e.byte_count;
    s.age = now - e.installed_at;
    s.actions = e.actions;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<FlowStatsEntry> FlowTable::cookied_stats(SimTime now) const {
  std::vector<FlowStatsEntry> out;
  for (const auto& e : entries_) {
    if (e.cookie == 0 || expired(e, now)) continue;
    FlowStatsEntry s;
    s.match = e.match;
    s.priority = e.priority;
    s.cookie = e.cookie;
    s.packet_count = e.packet_count;
    s.byte_count = e.byte_count;
    s.age = now - e.installed_at;
    s.actions = e.actions;
    out.push_back(std::move(s));
  }
  return out;
}

void FlowTable::clear() {
  entries_.clear();
  groups_.clear();
  probe_order_.clear();
  exact_group_ = nullptr;
  probe_order_dirty_ = true;
}

}  // namespace escape::openflow
