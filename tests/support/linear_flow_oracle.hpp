// LinearFlowTableOracle: the reference implementation the tuple-space
// FlowTable is differentially tested against (tests/classify_test.cpp).
//
// It implements the exact semantics documented in
// src/openflow/flow_table.hpp -- OF 1.0 overwrite/modify/delete rules,
// priority/exact/seq winner selection, skip-expired lookups, install-
// order expiry sweeps and flow-removed callbacks -- with the dumbest
// possible data structure: one install-ordered list scanned end to end.
// No mask index, no probe order, no early exit. Anything
// the real table gets wrong shows up as a divergence from this file;
// anything this file gets wrong is a plain linear scan that a reviewer
// can check against the OpenFlow 1.0 spec in one sitting.
#pragma once

#include <algorithm>
#include <list>
#include <optional>
#include <vector>

#include "openflow/flow_table.hpp"

namespace escape::openflow::testing {

class LinearFlowTableOracle {
 public:
  using RemovedCallback = FlowTable::RemovedCallback;

  void set_removed_callback(RemovedCallback cb) { removed_cb_ = std::move(cb); }

  void apply(const FlowMod& mod, SimTime now) { apply_one(mod, now); }

  void apply_batch(const std::vector<FlowMod>& mods, SimTime now) {
    for (const auto& mod : mods) apply_one(mod, now);
  }

  FlowEntry* lookup(const net::FlowKey& key, std::size_t packet_bytes, SimTime now) {
    ++lookups_;
    FlowEntry* best = nullptr;
    for (auto& e : entries_) {
      if (expired(e, now)) continue;  // invisible, never evicted here
      if (!e.match.matches(key)) continue;
      if (!best || outranks(e, *best)) best = &e;
    }
    if (!best) return nullptr;
    best->packet_count++;
    best->byte_count += packet_bytes;
    best->last_hit = now;
    ++matched_;
    return best;
  }

  std::size_t expire(SimTime now) {
    std::size_t evicted = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (expired(*it, now)) {
        fire_removed(*it, expiry_reason(*it, now));
        it = entries_.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
    return evicted;
  }

  std::size_t size() const { return entries_.size(); }
  std::uint64_t lookups() const { return lookups_; }
  std::uint64_t matches() const { return matched_; }

  std::vector<FlowStatsEntry> stats(SimTime now) const {
    std::vector<FlowStatsEntry> out;
    out.reserve(entries_.size());
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

  void clear() { entries_.clear(); }

 private:
  using EntryIt = std::list<FlowEntry>::iterator;

  bool expired(const FlowEntry& e, SimTime now) const {
    if (e.hard_timeout && now >= e.installed_at + e.hard_timeout) return true;
    if (e.idle_timeout && now >= e.last_hit + e.idle_timeout) return true;
    return false;
  }

  FlowRemovedReason expiry_reason(const FlowEntry& e, SimTime now) const {
    return e.hard_timeout && now >= e.installed_at + e.hard_timeout
               ? FlowRemovedReason::kHardTimeout
               : FlowRemovedReason::kIdleTimeout;
  }

  void fire_removed(const FlowEntry& e, FlowRemovedReason reason) {
    if (e.send_flow_removed && removed_cb_) removed_cb_(e, reason);
  }

  /// Winner rule: priority desc, exact beats wildcard at a tie, then
  /// earlier install. Mirrors FlowTable::outranks.
  static bool outranks(const FlowEntry& a, const FlowEntry& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    const bool a_exact = a.match.is_exact();
    const bool b_exact = b.match.is_exact();
    if (a_exact != b_exact) return a_exact;
    return a.seq < b.seq;
  }

  void erase_victims(std::vector<EntryIt>& victims) {
    // entries_ is install-ordered, so victims collected by a front-to-
    // back scan already fire flow-removed in canonical order.
    for (EntryIt it : victims) {
      fire_removed(*it, FlowRemovedReason::kDelete);
      entries_.erase(it);
    }
  }

  void apply_one(const FlowMod& mod, SimTime now) {
    switch (mod.command) {
      case FlowModCommand::kAdd: {
        // OF 1.0 overwrite: an exact add displaces any entry with the
        // identical match (any priority); a wildcard add displaces only
        // equal-priority identical-match entries.
        std::vector<EntryIt> victims;
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          if (it->match == mod.match &&
              (mod.match.is_exact() || it->priority == mod.priority)) {
            victims.push_back(it);
          }
        }
        erase_victims(victims);
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
        break;
      }
      case FlowModCommand::kModify: {
        bool any = false;
        for (auto& e : entries_) {
          if (e.match == mod.match) {
            e.actions = mod.actions;
            e.cookie = mod.cookie;
            any = true;
          }
        }
        if (!any) {
          FlowMod add = mod;
          add.command = FlowModCommand::kAdd;
          apply_one(add, now);
        }
        break;
      }
      case FlowModCommand::kDelete: {
        std::vector<EntryIt> victims;
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          const bool covered =
              mod.match.is_table_miss() || it->match == mod.match ||
              (it->match.is_exact() && mod.match.matches(it->match.fields()));
          if (covered) victims.push_back(it);
        }
        erase_victims(victims);
        break;
      }
      case FlowModCommand::kDeleteStrict: {
        std::vector<EntryIt> victims;
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          if (it->match == mod.match && it->priority == mod.priority) victims.push_back(it);
        }
        erase_victims(victims);
        break;
      }
    }
  }

  std::list<FlowEntry> entries_;  // install order
  std::uint64_t next_seq_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t matched_ = 0;
  RemovedCallback removed_cb_;
};

}  // namespace escape::openflow::testing
