// Differential-oracle tests for million-flow classification: the
// tuple-space-search FlowTable against the linear reference oracle
// (tests/support/linear_flow_oracle.hpp), and the compiled
// ClassifierTree against first-match linear rule evaluation.
//
// The generators draw fields from deliberately tiny domains so rule
// overlap, priority ties, shadowing and bucket collisions -- the cases
// where an index can silently disagree with the spec -- happen all the
// time instead of almost never.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "click/classifier_tree.hpp"
#include "click/filter_expr.hpp"
#include "escape/environment.hpp"
#include "net/headers.hpp"
#include "obs/metrics.hpp"
#include "openflow/flow_table.hpp"
#include "service/formats.hpp"
#include "support/linear_flow_oracle.hpp"
#include "util/random.hpp"
#include "util/workload.hpp"

namespace escape::openflow {
namespace {

using testing_oracle = testing::LinearFlowTableOracle;

// --- seeded generators -----------------------------------------------------

/// Flow keys from a tiny universe: 4 ports, 6 hosts, 3 protocols.
net::FlowKey random_key(Rng& rng) {
  net::FlowKey k;
  k.in_port = static_cast<std::uint16_t>(rng.next_range(1, 4));
  k.dl_src = net::MacAddr::from_u64(rng.next_range(1, 6));
  k.dl_dst = net::MacAddr::from_u64(rng.next_range(1, 6));
  k.dl_type = rng.next_bool(0.85) ? net::ethertype::kIpv4 : net::ethertype::kArp;
  if (k.dl_type == net::ethertype::kIpv4) {
    const std::uint8_t protos[] = {net::ipproto::kTcp, net::ipproto::kUdp,
                                   net::ipproto::kIcmp};
    k.nw_proto = protos[rng.pick_index(3)];
    k.nw_src = net::Ipv4Addr(0x0a000000u | (rng.next_range(0, 3) << 8) | rng.next_range(1, 6));
    k.nw_dst = net::Ipv4Addr(0x0a000000u | (rng.next_range(0, 3) << 8) | rng.next_range(1, 6));
    k.nw_tos = static_cast<std::uint8_t>(rng.next_range(0, 3) << 2);
    if (k.nw_proto != net::ipproto::kIcmp) {
      const std::uint16_t ports[] = {53, 80, 443, 8080};
      k.tp_src = ports[rng.pick_index(4)];
      k.tp_dst = ports[rng.pick_index(4)];
    }
  }
  return k;
}

/// Matches across the mask spectrum: exact, 5-tuple, CIDR nets, single
/// fields, and the all-wildcard table-miss template.
Match random_match(Rng& rng) {
  const net::FlowKey k = random_key(rng);
  switch (rng.next_below(7)) {
    case 0:
      return Match::exact(k);
    case 1:  // 5-tuple
      return Match()
          .dl_type(k.dl_type)
          .nw_proto(k.nw_proto)
          .nw_src(k.nw_src)
          .nw_dst(k.nw_dst)
          .tp_dst(k.tp_dst);
    case 2:  // destination CIDR
      return Match().dl_type(net::ethertype::kIpv4).nw_dst(
          k.nw_dst, static_cast<int>(rng.next_range(8, 24)));
    case 3:  // source CIDR + protocol
      return Match()
          .dl_type(net::ethertype::kIpv4)
          .nw_proto(k.nw_proto)
          .nw_src(k.nw_src, static_cast<int>(rng.next_range(16, 32)));
    case 4:  // service port
      return Match().dl_type(net::ethertype::kIpv4).tp_dst(k.tp_dst);
    case 5:  // ingress port
      return Match().in_port(k.in_port);
    default:  // table-miss (all wildcard)
      return Match();
  }
}

FlowMod random_mod(Rng& rng, std::uint64_t& next_cookie) {
  FlowMod mod;
  const std::uint64_t r = rng.next_below(100);
  if (r < 72) {
    mod.command = FlowModCommand::kAdd;
  } else if (r < 82) {
    mod.command = FlowModCommand::kModify;
  } else if (r < 92) {
    mod.command = FlowModCommand::kDelete;
  } else {
    mod.command = FlowModCommand::kDeleteStrict;
  }
  mod.match = random_match(rng);
  // Few distinct priorities => constant tie-breaking pressure.
  mod.priority = static_cast<std::uint16_t>(100 * rng.next_range(1, 4));
  mod.cookie = next_cookie++;
  mod.send_flow_removed = true;
  if (rng.next_bool(0.3)) mod.idle_timeout = milliseconds(rng.next_range(1, 40));
  if (rng.next_bool(0.2)) mod.hard_timeout = milliseconds(rng.next_range(10, 80));
  return mod;
}

struct RemovedLog {
  std::vector<std::uint64_t> seqs;
  std::vector<int> reasons;

  FlowTable::RemovedCallback recorder() {
    return [this](const FlowEntry& e, FlowRemovedReason reason) {
      seqs.push_back(e.seq);
      reasons.push_back(static_cast<int>(reason));
    };
  }
};

/// Full observable-state comparison: size, install order, identity and
/// counters of every entry, and the global hit counters.
template <typename Oracle>
void expect_same_state(FlowTable& table, Oracle& oracle, SimTime now,
                       const std::string& where) {
  ASSERT_EQ(table.size(), oracle.size()) << where;
  EXPECT_EQ(table.lookups(), oracle.lookups()) << where;
  EXPECT_EQ(table.matches(), oracle.matches()) << where;
  const auto got = table.stats(now);
  const auto want = oracle.stats(now);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].cookie, want[i].cookie) << where << " entry " << i;
    EXPECT_EQ(got[i].priority, want[i].priority) << where << " entry " << i;
    EXPECT_TRUE(got[i].match == want[i].match)
        << where << " entry " << i << ": " << got[i].match.to_string() << " vs "
        << want[i].match.to_string();
    EXPECT_EQ(got[i].packet_count, want[i].packet_count) << where << " entry " << i;
    EXPECT_EQ(got[i].byte_count, want[i].byte_count) << where << " entry " << i;
  }
}

// --- property tests: TSS vs linear oracle ----------------------------------

/// Seeded rule sets x packet streams: every lookup returns the same
/// winner (by cookie and install seq), counters march in lockstep, and
/// the flow-removed stream is identical event for event.
TEST(ClassifyDifferential, LookupMatchesOracleAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng{seed * 7919 + 1};
    FlowTable table;
    testing_oracle oracle;
    RemovedLog table_log, oracle_log;
    table.set_removed_callback(table_log.recorder());
    oracle.set_removed_callback(oracle_log.recorder());

    std::uint64_t next_cookie = 1;
    SimTime now = 0;
    for (int round = 0; round < 2500; ++round) {
      now += microseconds(rng.next_range(1, 2000));
      const std::uint64_t op = rng.next_below(100);
      if (op < 30) {
        const FlowMod mod = random_mod(rng, next_cookie);
        table.apply(mod, now);
        oracle.apply(mod, now);
      } else if (op < 95) {
        const net::FlowKey key = random_key(rng);
        const std::size_t bytes = 64 + rng.next_below(1400);
        FlowEntry* got = table.lookup(key, bytes, now);
        FlowEntry* want = oracle.lookup(key, bytes, now);
        ASSERT_EQ(got != nullptr, want != nullptr)
            << "round " << round << " key " << key.to_string();
        if (got) {
          EXPECT_EQ(got->cookie, want->cookie) << "round " << round;
          EXPECT_EQ(got->seq, want->seq) << "round " << round;
          EXPECT_EQ(got->priority, want->priority) << "round " << round;
        }
      } else {
        EXPECT_EQ(table.expire(now), oracle.expire(now)) << "round " << round;
      }
    }
    expect_same_state(table, oracle, now, "final");
    // Eviction order is part of the contract: the flow-removed streams
    // must be identical, not merely equal as sets.
    EXPECT_EQ(table_log.seqs, oracle_log.seqs);
    EXPECT_EQ(table_log.reasons, oracle_log.reasons);
  }
}

/// apply_batch must leave exactly the state of N sequential apply()
/// calls -- the oracle applies one-by-one, the table in batches.
TEST(ClassifyDifferential, BatchApplyEquivalentToSequential) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng{seed + 42};
    FlowTable table;
    testing_oracle oracle;
    RemovedLog table_log, oracle_log;
    table.set_removed_callback(table_log.recorder());
    oracle.set_removed_callback(oracle_log.recorder());

    std::uint64_t next_cookie = 1;
    SimTime now = 0;
    for (int batch = 0; batch < 60; ++batch) {
      now += milliseconds(1);
      std::vector<FlowMod> mods;
      const std::size_t n = 1 + rng.next_below(40);
      for (std::size_t i = 0; i < n; ++i) mods.push_back(random_mod(rng, next_cookie));
      table.apply_batch(mods, now);
      oracle.apply_batch(mods, now);
      for (int probe = 0; probe < 50; ++probe) {
        const net::FlowKey key = random_key(rng);
        FlowEntry* got = table.lookup(key, 100, now);
        FlowEntry* want = oracle.lookup(key, 100, now);
        ASSERT_EQ(got != nullptr, want != nullptr);
        if (got) EXPECT_EQ(got->seq, want->seq);
      }
    }
    expect_same_state(table, oracle, now, "final");
    EXPECT_EQ(table_log.seqs, oracle_log.seqs);
    EXPECT_EQ(table_log.reasons, oracle_log.reasons);
  }
}

// --- churn fuzz ------------------------------------------------------------

/// 50k seeded random operations; the full observable table state is
/// diffed against the oracle every 1k ops, and every removing step
/// (delete, delete-strict, expire) re-probes each live exact rule. Runs
/// under the ASan/TSan CI jobs like every other test binary.
TEST(ClassifyChurnFuzz, FiftyThousandOpsOracleIdentical) {
  Rng rng{0xC0FFEE};
  FlowTable table;
  testing_oracle oracle;
  RemovedLog table_log, oracle_log;
  table.set_removed_callback(table_log.recorder());
  oracle.set_removed_callback(oracle_log.recorder());

  std::uint64_t next_cookie = 1;
  SimTime now = 0;
  for (int op = 1; op <= 50000; ++op) {
    now += microseconds(rng.next_range(1, 500));
    const std::uint64_t r = rng.next_below(100);
    bool removes = true;
    if (r < 25) {
      const FlowMod mod = random_mod(rng, next_cookie);
      table.apply(mod, now);
      oracle.apply(mod, now);
      removes = mod.command == FlowModCommand::kDelete ||
                mod.command == FlowModCommand::kDeleteStrict;
    } else if (r < 97) {
      const net::FlowKey key = random_key(rng);
      FlowEntry* got = table.lookup(key, 64, now);
      FlowEntry* want = oracle.lookup(key, 64, now);
      ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
      if (got) ASSERT_EQ(got->seq, want->seq) << "op " << op;
      removes = false;
    } else {
      ASSERT_EQ(table.expire(now), oracle.expire(now)) << "op " << op;
    }
    if (removes) {
      // Random keys seldom hit an exact rule again, so probe each live
      // exact rule's own key: an erase that loses the index slot of the
      // node it relocates leaves that node's key unfindable.
      for (const FlowStatsEntry& rule : oracle.stats(now)) {
        if (!rule.match.is_exact()) continue;
        FlowEntry* got = table.lookup(rule.match.fields(), 64, now);
        FlowEntry* want = oracle.lookup(rule.match.fields(), 64, now);
        ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op << " exact re-probe";
        if (got) ASSERT_EQ(got->seq, want->seq) << "op " << op << " exact re-probe";
      }
    }
    if (op % 1000 == 0) {
      expect_same_state(table, oracle, now, "op " + std::to_string(op));
      ASSERT_EQ(table_log.seqs, oracle_log.seqs) << "op " << op;
    }
  }
}

// --- delete_matching cost regression ---------------------------------------

/// The purge paths must route through the mask index: cost proportional
/// to the entries actually touched, not to the table size. (The seed
/// implementation rescanned all N entries for every delete.)
TEST(ClassifyPurgeCost, DeleteExaminesOnlyMatchingEntries) {
  FlowTable table;
  // 20k exact entries...
  std::vector<FlowMod> mods;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    net::FlowKey k;
    k.dl_type = net::ethertype::kIpv4;
    k.nw_proto = net::ipproto::kUdp;
    k.nw_src = net::Ipv4Addr(0x0a000000u + i);
    k.nw_dst = net::Ipv4Addr(0x0b000000u + i);
    k.tp_src = 1000;
    k.tp_dst = 2000;
    FlowMod mod;
    mod.match = Match::exact(k);
    mod.cookie = i;
    mods.push_back(mod);
  }
  // ...plus 100 wildcard entries in one mask group, distinct buckets.
  for (std::uint32_t i = 0; i < 100; ++i) {
    FlowMod mod;
    mod.match = Match().dl_type(net::ethertype::kIpv4).nw_dst(net::Ipv4Addr(0x0c000000u + i));
    mod.cookie = 100000 + i;
    mods.push_back(mod);
  }
  table.apply_batch(mods, 0);
  ASSERT_EQ(table.size(), 20100u);

  // Strict delete: only the template's own bucket is examined.
  FlowMod del;
  del.command = FlowModCommand::kDeleteStrict;
  del.match = Match().dl_type(net::ethertype::kIpv4).nw_dst(net::Ipv4Addr(0x0c000000u + 7));
  del.priority = 0x8000;
  table.apply(del, 0);
  EXPECT_EQ(table.size(), 20099u);
  EXPECT_LE(table.last_delete_examined(), 2u)
      << "strict purge rescanned the table (examined "
      << table.last_delete_examined() << " of 20100 entries)";

  // Non-strict delete with an exact template: one bucket probe, not a
  // scan of the 20k-entry exact space.
  net::FlowKey victim;
  victim.dl_type = net::ethertype::kIpv4;
  victim.nw_proto = net::ipproto::kUdp;
  victim.nw_src = net::Ipv4Addr(0x0a000000u + 5);
  victim.nw_dst = net::Ipv4Addr(0x0b000000u + 5);
  victim.tp_src = 1000;
  victim.tp_dst = 2000;
  FlowMod del2;
  del2.command = FlowModCommand::kDelete;
  del2.match = Match::exact(victim);
  table.apply(del2, 0);
  EXPECT_EQ(table.size(), 20098u);
  EXPECT_LE(table.last_delete_examined(), 2u);
}

// --- ClassifierTree vs linear first-match ----------------------------------

/// Random rule lists over the full filter grammar x random packets: the
/// compiled decision tree and plain first-match evaluation agree on
/// every verdict.
TEST(ClassifierTreeDifferential, TreeMatchesLinearAcrossSeeds) {
  using click::ClassifierTree;
  using click::ClassifyCtx;
  using click::FilterExpr;

  auto random_atom = [](Rng& rng) -> std::string {
    switch (rng.next_below(10)) {
      case 0: return "ip";
      case 1: return "arp";
      case 2: return "tcp";
      case 3: return "udp";
      case 4: return "icmp";
      case 5: {
        const char* dir[] = {"src ", "dst ", ""};
        return std::string(dir[rng.pick_index(3)]) + "host 10.0." +
               std::to_string(rng.next_range(0, 3)) + "." + std::to_string(rng.next_range(1, 5));
      }
      case 6: {
        const char* dir[] = {"src ", "dst ", ""};
        return std::string(dir[rng.pick_index(3)]) + "net 10.0." +
               std::to_string(rng.next_range(0, 3)) + ".0/" + std::to_string(8 * rng.next_range(2, 3));
      }
      case 7: {
        const char* dir[] = {"src ", "dst ", ""};
        const std::uint16_t ports[] = {53, 80, 443, 8080};
        return std::string(dir[rng.pick_index(3)]) + "port " +
               std::to_string(ports[rng.pick_index(4)]);
      }
      case 8:
        return "dscp " + std::to_string(rng.next_range(0, 3) << 2);
      default: {
        const char* flags[] = {"syn", "ack", "fin", "rst"};
        return flags[rng.pick_index(4)];
      }
    }
  };
  auto random_expr_text = [&](Rng& rng) {
    std::string text = rng.next_bool(0.2) ? "not " + random_atom(rng) : random_atom(rng);
    const std::size_t terms = rng.next_below(3);
    for (std::size_t i = 0; i < terms; ++i) {
      text += rng.next_bool() ? " && " : " || ";
      if (rng.next_bool(0.15)) text += "not ";
      text += random_atom(rng);
    }
    return text;
  };
  // Contexts mirror ClassifyCtx::from_packet: tcp_flags only on ip/tcp.
  auto random_ctx = [](Rng& rng) {
    ClassifyCtx ctx;
    ctx.key = random_key(rng);
    if (ctx.key.dl_type == net::ethertype::kIpv4 && ctx.key.nw_proto == net::ipproto::kTcp) {
      ctx.tcp_flags = static_cast<std::uint8_t>(rng.next_below(32));
    }
    return ctx;
  };

  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng{seed * 131 + 7};
    std::vector<FilterExpr> rules;
    const std::size_t n_rules = 1 + rng.next_below(12);
    for (std::size_t i = 0; i < n_rules; ++i) {
      auto expr = FilterExpr::compile(random_expr_text(rng));
      ASSERT_TRUE(expr.ok()) << expr.error().to_string();
      rules.push_back(std::move(*expr));
    }
    std::vector<ClassifierTree::RuleSpec> specs;
    for (std::size_t i = 0; i < rules.size(); ++i) {
      specs.push_back({static_cast<int>(i), &rules[i]});
    }
    const int miss = -1;
    ClassifierTree tree;
    tree.compile(specs, miss);

    for (int packet = 0; packet < 3000; ++packet) {
      const ClassifyCtx ctx = random_ctx(rng);
      int linear = miss;
      for (std::size_t i = 0; i < rules.size(); ++i) {
        if (rules[i].matches(ctx)) {
          linear = static_cast<int>(i);
          break;
        }
      }
      ASSERT_EQ(tree.classify(ctx), linear)
          << "packet " << packet << " key " << ctx.key.to_string() << " flags "
          << int(ctx.tcp_flags);
    }
  }
}

// --- scale smoke -----------------------------------------------------------

/// One million exact rules installed in a single batch, looked up, and
/// purged. Sized to finish well inside the ctest --timeout headroom
/// even under sanitizers.
TEST(ClassifyScale, MillionRuleSmoke) {
  FlowTable table;
  constexpr std::uint32_t kRules = 1'000'000;
  std::vector<FlowMod> mods;
  mods.reserve(kRules);
  for (std::uint32_t i = 0; i < kRules; ++i) {
    net::FlowKey k;
    k.dl_type = net::ethertype::kIpv4;
    k.nw_proto = net::ipproto::kTcp;
    k.nw_src = net::Ipv4Addr(0x0a000000u + i);
    k.nw_dst = net::Ipv4Addr(0x14000000u + (i >> 8));
    k.tp_src = static_cast<std::uint16_t>(i & 0xffff);
    k.tp_dst = 443;
    FlowMod mod;
    mod.match = Match::exact(k);
    mod.cookie = i;
    mods.push_back(mod);
  }
  table.apply_batch(mods, 0);
  ASSERT_EQ(table.size(), kRules);
  // The exact space is one mask group regardless of rule count.
  EXPECT_EQ(table.mask_group_count(), 1u);

  Rng rng{3};
  for (int i = 0; i < 10000; ++i) {
    const std::uint32_t pick = static_cast<std::uint32_t>(rng.next_below(kRules));
    FlowEntry* hit = table.lookup(mods[pick].match.fields(), 64, 1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->cookie, pick);
  }
  EXPECT_EQ(table.matches(), 10000u);

  // Table-miss purge drops everything in one flow-mod.
  FlowMod del;
  del.command = FlowModCommand::kDelete;
  table.apply(del, 1);
  EXPECT_EQ(table.size(), 0u);
}

// --- workload generator ----------------------------------------------------

TEST(WorkloadPlan, DeterministicAndWellFormed) {
  workload::Options opts;
  opts.seed = 1234;
  opts.fattree_k = 4;
  opts.flows = 500;
  opts.chains = 3;
  const workload::Plan a = workload::generate(opts);
  const workload::Plan b = workload::generate(opts);

  // fat-tree(4): 16 hosts, 4 cores + 8 edge + 8 agg, 4 containers.
  EXPECT_EQ(a.hosts.size(), 16u);
  EXPECT_EQ(a.switches.size(), 20u);
  EXPECT_EQ(a.containers.size(), 4u);
  // Links: 48 fabric (16 edge-agg + 16 agg-core + 16 host-edge) + 4
  // container attachments.
  EXPECT_EQ(a.links.size(), 52u);
  EXPECT_EQ(a.arrivals.size(), 500u);

  // Same seed => identical plan, event for event.
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].at, b.arrivals[i].at);
    EXPECT_EQ(a.arrivals[i].src_host, b.arrivals[i].src_host);
    EXPECT_EQ(a.arrivals[i].dst_host, b.arrivals[i].dst_host);
    EXPECT_EQ(a.arrivals[i].packets, b.arrivals[i].packets);
  }
  ASSERT_EQ(a.churn.size(), b.churn.size());
  for (std::size_t i = 0; i < a.churn.size(); ++i) {
    EXPECT_EQ(a.churn[i].at, b.churn[i].at);
    EXPECT_EQ(a.churn[i].deploy, b.churn[i].deploy);
    EXPECT_EQ(a.churn[i].slot, b.churn[i].slot);
  }

  // Arrivals are time-sorted; no flow talks to itself; churn per slot
  // alternates starting with a deploy.
  for (std::size_t i = 1; i < a.arrivals.size(); ++i) {
    EXPECT_LE(a.arrivals[i - 1].at, a.arrivals[i].at);
  }
  for (const auto& fa : a.arrivals) {
    EXPECT_NE(fa.src_host, fa.dst_host);
    EXPECT_LT(fa.src_host, a.hosts.size());
    EXPECT_LT(fa.dst_host, a.hosts.size());
  }
  std::vector<bool> up(opts.chains, false);
  for (const auto& ev : a.churn) {
    EXPECT_EQ(ev.deploy, !up[ev.slot]);
    up[ev.slot] = ev.deploy;
  }

  // A different seed actually changes the schedule.
  opts.seed = 4321;
  const workload::Plan c = workload::generate(opts);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.arrivals.size() && !any_diff; ++i) {
    any_diff = c.arrivals[i].at != a.arrivals[i].at ||
               c.arrivals[i].dst_host != a.arrivals[i].dst_host;
  }
  EXPECT_TRUE(any_diff);
}

/// The workload replayed through the full emulation is deterministic
/// across event-engine thread counts: 1-thread and 4-thread sharded
/// runs produce bit-identical scheduler order digests and delivery
/// counters.
TEST(WorkloadPlan, ShardedReplayDigestsIdentical) {
  workload::Options wopts;
  wopts.seed = 5;
  wopts.fattree_k = 2;
  wopts.flows = 60;
  wopts.arrival_rate = 400.0;
  wopts.chains = 0;  // traffic only; chains exercise their own tests
  const workload::Plan plan = workload::generate(wopts);

  auto replay = [&plan](std::size_t threads) {
    obs::MetricsRegistry::global().reset_values();
    service::TopologySpec spec;
    spec.name = "wl";
    for (const auto& h : plan.hosts) spec.nodes.push_back({h, "host", 1.0, 8});
    for (const auto& s : plan.switches) spec.nodes.push_back({s, "switch", 1.0, 8});
    for (const auto& c : plan.containers) spec.nodes.push_back({c, "container", 4.0, 16});
    std::map<std::string, std::uint16_t> next_port;
    for (const auto& s : plan.switches) next_port[s] = 1;
    auto port_of = [&next_port](const std::string& node) -> std::uint16_t {
      auto it = next_port.find(node);
      return it == next_port.end() ? 0 : it->second++;
    };
    for (const auto& l : plan.links) {
      service::TopologyLinkSpec link;
      link.a = l.a;
      link.port_a = port_of(l.a);
      link.b = l.b;
      link.port_b = port_of(l.b);
      spec.links.push_back(link);
    }
    EnvironmentOptions opts;
    opts.threads = threads;
    opts.shard_by = netemu::ShardBy::kSwitch;
    Environment env{opts};
    EXPECT_TRUE(env.load_topology(spec).ok());
    EXPECT_TRUE(env.start().ok());
    const SimTime base = env.scheduler().now();
    for (const auto& fa : plan.arrivals) {
      // Arrival events go straight onto the source host's shard so the
      // flow starts as a shard-local event (cross-shard hops then ride
      // the links' registered lookahead).
      netemu::Host* src = env.host(plan.hosts[fa.src_host]);
      netemu::Host* dst = env.host(plan.hosts[fa.dst_host]);
      src->scheduler().schedule_at(base + fa.at, [src, dst, fa] {
        src->start_udp_flow(dst->mac(), dst->ip(), fa.src_port, fa.dst_port, fa.packets, 2000);
      });
    }
    env.run_for(plan.horizon + seconds(1));
    std::uint64_t tx = 0;
    for (const auto& h : plan.hosts) tx += env.host(h)->tx_packets();
    return std::pair<std::uint64_t, std::uint64_t>(env.scheduler().order_digest(), tx);
  };

  const auto single = replay(1);
  const auto sharded = replay(4);
  EXPECT_EQ(single.first, sharded.first) << "order digest diverged across thread counts";
  EXPECT_EQ(single.second, sharded.second);
}

}  // namespace
}  // namespace escape::openflow
