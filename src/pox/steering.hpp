// The ESCAPE traffic-steering component: programs the OpenFlow network so
// that flows matching a chain's traffic specification traverse the
// chain's VNFs in order. This is the "dedicated easy-to-configure
// controller application responsible for steering traffic between VNFs"
// of the paper.
//
// Two modes:
//   * proactive (default): install_chain() pushes all flow-mods at once;
//   * reactive: register_chain() stores the path and the rules are only
//     installed when the first matching packet-in arrives (ablation for
//     bench_steering).
//
// Resilience: the app keeps a per-dpid *intent store* of every rule it
// believes installed (cookie == chain id, never 0 -- cookie 0 is the
// l2_learning namespace and is left alone). On every ConnectionUp the
// switch's actual table is audited via a flow-stats request; entries
// with a steering cookie that are not in the intent are purged
// (DeleteStrict), intended rules that are missing are reinstalled, and
// a barrier confirms the dpid before it is declared clean again.
// install_chain_confirmed() extends the same barrier discipline to
// deployment: the completion only fires after every touched switch has
// answered a barrier behind the flow-mods, with bounded-backoff retries.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "pox/core.hpp"
#include "util/result.hpp"

namespace escape::pox {

/// One steering hop: at switch `dpid`, traffic of the chain entering on
/// `in_port` leaves on `out_port`.
struct SteeringHop {
  DatapathId dpid = 0;
  std::uint16_t in_port = 0;
  std::uint16_t out_port = 0;
};

/// A fully resolved chain path as produced by the orchestrator.
struct ChainPath {
  std::uint32_t chain_id = 0;
  openflow::Match match;  // traffic specification (without in_port)
  std::vector<SteeringHop> hops;
  std::uint16_t priority = 0x9000;
  SimDuration idle_timeout = 0;  // 0 = permanent
};

/// Per-chain traffic counters from the flow entries the steering app
/// installed (correlated by cookie == chain id). `packets`/`bytes` come
/// from the chain's *entry* flow (the first hop's in_port), so they
/// count each packet once even when several hops share a switch.
struct ChainStats {
  std::uint32_t chain_id = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::size_t flows = 0;  // all matching entries on the first-hop switch
};

/// One rule the steering app intends to have installed on a switch.
/// The audit/resync machinery diffs these against the switch's actual
/// table (keyed by cookie + priority + match).
struct IntentRule {
  std::uint32_t chain_id = 0;
  openflow::Match match;  // includes the hop's in_port
  std::uint16_t priority = 0;
  SimDuration idle_timeout = 0;
  std::uint16_t out_port = 0;
};

/// Tuning for barriered install confirmation and table audits.
struct InstallOptions {
  SimDuration confirm_timeout = 5 * timeunit::kMillisecond;  // doubles per retry
  int max_attempts = 4;
  SimDuration audit_timeout = 5 * timeunit::kMillisecond;
  int max_audit_attempts = 6;
};

class TrafficSteering : public App {
 public:
  ~TrafficSteering() override;

  std::string_view name() const override { return "traffic_steering"; }

  void on_startup(Controller& controller) override;
  bool on_packet_in(SwitchConnection& conn, const openflow::PacketIn& msg) override;
  void on_flow_removed(SwitchConnection& conn, const openflow::FlowRemoved& msg) override;
  void on_stats_reply(SwitchConnection& conn, const openflow::StatsReply& msg) override;
  void on_barrier_reply(SwitchConnection& conn) override;
  void on_connection_up(SwitchConnection& conn) override;
  void on_connection_down(SwitchConnection& conn) override;

  /// Proactively installs every hop of the chain. Fails if a hop's switch
  /// is not connected. Fire-and-forget: rules are in flight, not
  /// confirmed, when this returns.
  Status install_chain(const ChainPath& path);

  /// Like install_chain, but `done` only fires after every touched
  /// switch has confirmed the rules behind a barrier. Unconfirmed
  /// installs are retried with doubling backoff up to
  /// InstallOptions::max_attempts before reporting failure.
  void install_chain_confirmed(const ChainPath& path, std::function<void(Status)> done);

  /// Registers a chain for reactive installation on first packet.
  void register_chain(ChainPath path);

  /// Removes a chain's flows everywhere.
  Status remove_chain(std::uint32_t chain_id);

  /// Deletes the path's per-hop rules from their switches, skipping any
  /// rule an identical live intent still claims. For retiring an old
  /// path whose steering id was since reclaimed by a fresh install
  /// (recovery re-embeds under the original chain id): remove_chain
  /// would strip the live chain's rules, this purges only the stale
  /// ones. Returns the number of delete mods sent.
  std::size_t remove_stale_path(const ChainPath& path);

  bool installed(std::uint32_t chain_id) const { return installed_.count(chain_id) > 0; }
  std::size_t installed_count() const { return installed_.size(); }
  std::uint64_t reactive_installs() const { return reactive_installs_; }

  /// Asynchronously queries the chain's traffic counters: sends a
  /// flow-stats request to the chain's first-hop switch and aggregates
  /// the entries whose cookie matches. `cb` fires when the reply
  /// arrives through the control channel.
  void query_chain_stats(std::uint32_t chain_id,
                         std::function<void(Result<ChainStats>)> cb);

  /// Divergence feed for the health monitor: `diverged` fires when a
  /// dpid's connection drops (its table can no longer be trusted),
  /// `resynced` once a post-reconnect audit has barrier-confirmed the
  /// dpid clean, with the number of rules it purged + reinstalled.
  void set_divergence_callbacks(std::function<void(DatapathId)> diverged,
                                std::function<void(DatapathId, std::size_t)> resynced);

  /// The rules the app believes installed on one switch (nullptr if
  /// none); chain ids present on one switch for divergence mapping.
  const std::vector<IntentRule>* intent(DatapathId dpid) const;
  std::vector<std::uint32_t> chains_on(DatapathId dpid) const;

  InstallOptions& install_options() { return options_; }

  /// True while `dpid`'s table is untrusted (connection dropped and the
  /// post-reconnect audit has not yet confirmed it clean).
  bool dirty(DatapathId dpid) const { return dirty_.count(dpid) > 0; }
  std::size_t dirty_count() const { return dirty_.size(); }

  std::uint64_t resyncs() const { return resyncs_; }
  std::uint64_t rules_purged() const { return rules_purged_; }
  std::uint64_t rules_reinstalled() const { return rules_reinstalled_; }

 private:
  Status push_flow_mods(const ChainPath& path, std::optional<std::uint32_t> buffer_id,
                        DatapathId buffer_dpid);

  /// In-flight barriered install (shared with its timeout + barrier
  /// callbacks; `finished` makes completion idempotent).
  struct PendingInstall {
    ChainPath path;
    std::set<DatapathId> awaiting;
    int attempt = 0;
    bool finished = false;
    std::function<void(Status)> done;
    EventHandle timeout;
    std::uint64_t span = 0;
  };
  void attempt_install(std::shared_ptr<PendingInstall> p);
  void finish_install(PendingInstall& p, Status s);

  void record_intent(const ChainPath& path);
  void erase_intent(std::uint32_t chain_id);
  /// When an install overwrites installed_[id] with a different path
  /// (a recovery re-embed reclaiming the id), the superseded path's
  /// rules that the new one does not reuse must be deleted from intent
  /// and table, or they linger as strays no audit ever purges.
  void purge_superseded(const ChainPath& old_path, const ChainPath& new_path);
  /// Queues `done` behind a BarrierRequest on the dpid's FIFO.
  void send_barrier_with(SwitchConnection& conn, std::function<void()> done);
  void start_audit(DatapathId dpid);
  void handle_audit_reply(SwitchConnection& conn, const openflow::StatsReply& msg,
                          std::uint64_t gen);

  Controller* controller_ = nullptr;
  InstallOptions options_;
  std::map<std::uint32_t, ChainPath> installed_;
  std::map<std::uint32_t, ChainPath> pending_;  // reactive, not yet installed
  std::uint64_t reactive_installs_ = 0;
  obs::Counter* m_flowmods_ = nullptr;
  obs::Counter* m_reactive_installs_ = nullptr;
  obs::BoundedHistogram* m_install_latency_us_ = nullptr;
  obs::Counter* m_resyncs_ = nullptr;
  obs::Counter* m_rules_purged_ = nullptr;
  obs::Counter* m_rules_reinstalled_ = nullptr;

  // Intent store + audit state.
  /// Identity of one intent rule: cookie (chain id) + priority + match
  /// digest. Digest collisions are resolved by the per-key slot list.
  struct IntentKey {
    std::uint64_t cookie = 0;
    std::uint16_t priority = 0;
    std::uint64_t match_digest = 0;
    bool operator==(const IntentKey&) const = default;
  };
  struct IntentKeyHash {
    std::size_t operator()(const IntentKey& k) const {
      std::uint64_t h = k.match_digest;
      h ^= k.cookie + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h ^= k.priority + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  /// A dpid's intent rules plus a hash index over rule identity, so
  /// per-hop upserts, flow-removed erases and resync audits cost O(1)
  /// per rule instead of a vector scan (O(n²) across a chain install).
  struct IntentStore {
    std::vector<IntentRule> rules;
    std::unordered_map<IntentKey, std::vector<std::size_t>, IntentKeyHash> index;

    static IntentKey key_of(std::uint64_t cookie, std::uint16_t priority,
                            const openflow::Match& match) {
      return IntentKey{cookie, priority, match.digest()};
    }
    IntentRule* find(std::uint64_t cookie, std::uint16_t priority,
                     const openflow::Match& match);
    void upsert(IntentRule rule);
    /// Swap-erase by identity; returns whether a rule was removed.
    bool erase(std::uint64_t cookie, std::uint16_t priority, const openflow::Match& match);
    void erase_chain(std::uint32_t chain_id);
  };
  std::map<DatapathId, IntentStore> intent_;
  std::set<DatapathId> dirty_;
  struct AuditState {
    std::uint64_t gen = 0;  // bumped on connection_down to squash stale audits
    bool in_flight = false;
    int attempt = 0;
    EventHandle timer;
    std::uint64_t span = 0;  // steering/resync trace span
  };
  std::map<DatapathId, AuditState> audits_;
  std::uint64_t resyncs_ = 0;
  std::uint64_t rules_purged_ = 0;
  std::uint64_t rules_reinstalled_ = 0;
  std::function<void(DatapathId)> on_diverged_;
  std::function<void(DatapathId, std::size_t)> on_resynced_;

  // Outstanding flow-stats requests, FIFO per switch (OF 1.0 stats
  // replies carry no correlation id): chain-stats queries and table
  // audits share one queue so replies pair with the right requester.
  struct PendingStats {
    enum class Kind { kChainStats, kAudit } kind = Kind::kChainStats;
    // kChainStats:
    std::uint32_t chain_id = 0;
    std::uint16_t entry_in_port = 0;
    std::function<void(Result<ChainStats>)> cb;
    // kAudit:
    std::uint64_t audit_gen = 0;
  };
  std::map<DatapathId, std::deque<PendingStats>> pending_stats_;
  // Barrier completions, FIFO per switch (no xid either); flushed when
  // the connection drops (the install path's timeout handles retries).
  std::map<DatapathId, std::deque<std::function<void()>>> barrier_waiters_;

  Logger log_{"pox.steering"};
};

}  // namespace escape::pox
