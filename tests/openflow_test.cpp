// Unit tests for the OpenFlow dataplane: match semantics, flow table
// priority/timeout behaviour, and the switch message handling.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/builder.hpp"
#include "obs/trace.hpp"
#include "openflow/flow_key_index.hpp"
#include "openflow/switch.hpp"
#include "util/random.hpp"

namespace escape::openflow {
namespace {

using net::FlowKey;
using net::Ipv4Addr;
using net::MacAddr;

FlowKey udp_key(std::uint16_t in_port = 1, Ipv4Addr src = Ipv4Addr(10, 0, 0, 1),
                Ipv4Addr dst = Ipv4Addr(10, 0, 0, 2), std::uint16_t tp_dst = 80) {
  net::Packet p = net::make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2), src, dst,
                                       1000, tp_dst);
  return *net::extract_flow_key(p, in_port);
}

// --- Match -----------------------------------------------------------------------

TEST(Match, WildcardAllMatchesEverything) {
  Match m;
  EXPECT_TRUE(m.is_table_miss());
  EXPECT_TRUE(m.matches(udp_key()));
  EXPECT_TRUE(m.matches(udp_key(5, Ipv4Addr(1, 2, 3, 4))));
}

TEST(Match, SingleFieldConstraints) {
  EXPECT_TRUE(Match().in_port(1).matches(udp_key(1)));
  EXPECT_FALSE(Match().in_port(2).matches(udp_key(1)));
  EXPECT_TRUE(Match().dl_type(net::ethertype::kIpv4).matches(udp_key()));
  EXPECT_FALSE(Match().dl_type(net::ethertype::kArp).matches(udp_key()));
  EXPECT_TRUE(Match().nw_proto(net::ipproto::kUdp).matches(udp_key()));
  EXPECT_TRUE(Match().tp_dst(80).matches(udp_key()));
  EXPECT_FALSE(Match().tp_dst(81).matches(udp_key()));
}

TEST(Match, CidrPrefixes) {
  Match m;
  m.nw_src(Ipv4Addr(10, 0, 0, 0), 8);
  EXPECT_TRUE(m.matches(udp_key(1, Ipv4Addr(10, 9, 9, 9))));
  EXPECT_FALSE(m.matches(udp_key(1, Ipv4Addr(11, 0, 0, 1))));
}

TEST(Match, ExactFromKeyIsExact) {
  Match m = Match::exact(udp_key());
  EXPECT_TRUE(m.is_exact());
  EXPECT_TRUE(m.matches(udp_key()));
  EXPECT_FALSE(m.matches(udp_key(2)));  // different in_port
  EXPECT_FALSE(m.is_table_miss());
}

TEST(Match, CidrSettersCanonicalizeHostBits) {
  // 10.1.2.3/16 and 10.1.9.9/16 constrain the same bits; the setters
  // store the masked base so the two templates are one identity (and
  // land in the same tuple-space bucket instead of piling distinct
  // "matches" into a shared masked-key bucket).
  Match a = Match().nw_src(Ipv4Addr(10, 1, 2, 3), 16);
  Match b = Match().nw_src(Ipv4Addr(10, 1, 9, 9), 16);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fields().nw_src, Ipv4Addr(10, 1, 0, 0));
  EXPECT_NE(a, Match().nw_src(Ipv4Addr(10, 2, 0, 0), 16));
  // Matching behavior is unchanged by canonicalization.
  EXPECT_TRUE(a.matches(udp_key(1, Ipv4Addr(10, 1, 200, 200))));
  EXPECT_FALSE(a.matches(udp_key(1, Ipv4Addr(10, 2, 0, 1))));
}

TEST(Match, EqualityIgnoresWildcardedFields) {
  Match a = Match().in_port(1);
  Match b = Match().in_port(1);
  EXPECT_EQ(a, b);
  Match c = Match().in_port(2);
  EXPECT_FALSE(a == c);
  Match d = Match().tp_dst(80);
  EXPECT_FALSE(a == d);  // different wildcard sets
}

TEST(Match, ToStringListsConstrainedFields) {
  Match m = Match().in_port(3).tp_dst(80);
  std::string s = m.to_string();
  EXPECT_NE(s.find("in_port=3"), std::string::npos);
  EXPECT_NE(s.find("tp_dst=80"), std::string::npos);
  EXPECT_EQ(Match().to_string(), "match[*]");
}

// --- FlowKeyIndex -------------------------------------------------------------------

FlowKey numbered_key(std::uint32_t n) {
  FlowKey k;
  k.dl_type = net::ethertype::kIpv4;
  k.nw_src = Ipv4Addr(n);
  k.tp_src = static_cast<std::uint16_t>(n);
  return k;
}

/// Every key gets one hash, hence one tag and one home slot.
struct OneHomeHash {
  std::size_t operator()(const FlowKey&) const { return 42; }
};

/// A handful of hashes, so probe runs mix keys with different homes and
/// wrap around the end of the slot array.
struct FewHomesHash {
  std::size_t operator()(const FlowKey& k) const { return k.tp_src % 5; }
};

template <typename Index>
void expect_same_contents(Index& index, const std::map<std::uint32_t, int>& want,
                          std::uint32_t universe, const std::string& where) {
  ASSERT_EQ(index.size(), want.size()) << where;
  EXPECT_GE(index.capacity(), 2 * index.size()) << where;
  for (std::uint32_t n = 0; n < universe; ++n) {
    const int* got = index.find(numbered_key(n));
    auto it = want.find(n);
    if (it == want.end()) {
      EXPECT_EQ(got, nullptr) << where << " key " << n;
    } else {
      ASSERT_NE(got, nullptr) << where << " key " << n;
      EXPECT_EQ(*got, it->second) << where << " key " << n;
    }
  }
}

TEST(FlowKeyIndex, EraseFromTheMiddleOfOneProbeRun) {
  FlowKeyIndex<int, OneHomeHash> index;
  std::map<std::uint32_t, int> want;
  for (std::uint32_t n = 0; n < 12; ++n) {
    index[numbered_key(n)] = static_cast<int>(n) * 10;
    want[n] = static_cast<int>(n) * 10;
  }
  expect_same_contents(index, want, 16, "filled");
  // Middle, then the run's head, then its tail: each erase shifts the
  // rest of the run back and refills the freed node index from the end.
  for (std::uint32_t n : {5u, 6u, 0u, 11u, 3u}) {
    ASSERT_TRUE(index.erase(numbered_key(n)));
    EXPECT_FALSE(index.erase(numbered_key(n)));
    want.erase(n);
    expect_same_contents(index, want, 16, "after erasing " + std::to_string(n));
  }
  index[numbered_key(5)] = 55;
  want[5] = 55;
  expect_same_contents(index, want, 16, "after re-inserting 5");
}

TEST(FlowKeyIndex, ChurnWithGrowthMatchesAStdMap) {
  auto churn = [](auto index, const std::string& name) {
    Rng rng{17};
    std::map<std::uint32_t, int> want;
    std::size_t grown = index.capacity();
    int grows = 0;
    for (int op = 1; op <= 20000; ++op) {
      const auto n = static_cast<std::uint32_t>(rng.next_below(op < 10000 ? 3000 : 300));
      if (rng.next_bool(op < 10000 ? 0.7 : 0.3)) {
        index[numbered_key(n)] = op;
        want[n] = op;
      } else {
        EXPECT_EQ(index.erase(numbered_key(n)), want.erase(n) == 1) << name << " op " << op;
      }
      if (index.capacity() != grown) {
        ++grows;
        grown = index.capacity();
      }
      if (op % 2500 == 0) {
        expect_same_contents(index, want, 3000, name + " op " + std::to_string(op));
      }
    }
    EXPECT_GE(grows, 8) << name;
  };
  churn(FlowKeyIndex<int>{}, "std::hash");
  churn(FlowKeyIndex<int, FewHomesHash>{}, "few homes");
}

TEST(FlowKeyIndex, EraseToEmptyThenRefill) {
  FlowKeyIndex<int> index;
  EXPECT_EQ(index.find(numbered_key(1)), nullptr);
  EXPECT_FALSE(index.erase(numbered_key(1)));
  EXPECT_EQ(index.capacity(), 0u);
  std::map<std::uint32_t, int> want;
  for (std::uint32_t n = 0; n < 100; ++n) index[numbered_key(n)] = 1;
  const std::size_t capacity = index.capacity();
  for (std::uint32_t n = 0; n < 100; ++n) ASSERT_TRUE(index.erase(numbered_key(n)));
  EXPECT_TRUE(index.empty());
  expect_same_contents(index, want, 200, "emptied");
  for (std::uint32_t n = 100; n < 200; ++n) {
    index[numbered_key(n)] = 2;
    want[n] = 2;
  }
  expect_same_contents(index, want, 200, "refilled");
  EXPECT_EQ(index.capacity(), capacity);
  index.clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.capacity(), capacity);
  expect_same_contents(index, {}, 200, "cleared");
}

// --- FlowTable ----------------------------------------------------------------------

FlowMod add_mod(Match match, std::uint16_t priority, ActionList actions,
                SimDuration idle = 0, SimDuration hard = 0) {
  FlowMod mod;
  mod.command = FlowModCommand::kAdd;
  mod.match = match;
  mod.priority = priority;
  mod.actions = std::move(actions);
  mod.idle_timeout = idle;
  mod.hard_timeout = hard;
  return mod;
}

TEST(FlowTable, HighestPriorityWins) {
  FlowTable table;
  table.apply(add_mod(Match().dl_type(net::ethertype::kIpv4), 100, output_to(1)), 0);
  table.apply(add_mod(Match().tp_dst(80), 200, output_to(2)), 0);
  FlowEntry* hit = table.lookup(udp_key(), 100, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(std::get<ActionOutput>(hit->actions[0]).port, 2);
}

TEST(FlowTable, ExactEntryBeatsLowerPriorityWildcard) {
  FlowTable table;
  table.apply(add_mod(Match::exact(udp_key()), 300, output_to(7)), 0);
  table.apply(add_mod(Match(), 100, output_to(1)), 0);
  FlowEntry* hit = table.lookup(udp_key(), 100, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(std::get<ActionOutput>(hit->actions[0]).port, 7);
}

TEST(FlowTable, HigherPriorityWildcardBeatsExact) {
  FlowTable table;
  table.apply(add_mod(Match::exact(udp_key()), 100, output_to(7)), 0);
  table.apply(add_mod(Match().tp_dst(80), 500, output_to(9)), 0);
  FlowEntry* hit = table.lookup(udp_key(), 100, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(std::get<ActionOutput>(hit->actions[0]).port, 9);
}

TEST(FlowTable, MissReturnsNull) {
  FlowTable table;
  table.apply(add_mod(Match().tp_dst(81), 100, output_to(1)), 0);
  EXPECT_EQ(table.lookup(udp_key(), 100, 0), nullptr);
  EXPECT_EQ(table.lookups(), 1u);
  EXPECT_EQ(table.matches(), 0u);
}

TEST(FlowTable, CountersAccumulate) {
  FlowTable table;
  table.apply(add_mod(Match(), 100, output_to(1)), 0);
  table.lookup(udp_key(), 100, 0);
  table.lookup(udp_key(), 150, 0);
  auto stats = table.stats(0);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].packet_count, 2u);
  EXPECT_EQ(stats[0].byte_count, 250u);
}

TEST(FlowTable, IdleTimeoutEvicts) {
  FlowTable table;
  int removed = 0;
  FlowRemovedReason reason{};
  table.set_removed_callback([&](const FlowEntry&, FlowRemovedReason r) {
    ++removed;
    reason = r;
  });
  FlowMod mod = add_mod(Match().tp_dst(80), 100, output_to(1), /*idle=*/seconds(1));
  mod.send_flow_removed = true;
  table.apply(mod, 0);

  // Hits inside the idle window keep it alive.
  EXPECT_NE(table.lookup(udp_key(), 100, milliseconds(500)), nullptr);
  EXPECT_NE(table.lookup(udp_key(), 100, milliseconds(1400)), nullptr);
  // 1 s of silence expires it: lookups skip it, the sweep evicts it.
  EXPECT_EQ(table.lookup(udp_key(), 100, milliseconds(2500)), nullptr);
  EXPECT_EQ(removed, 0);
  EXPECT_EQ(table.expire(milliseconds(2500)), 1u);
  EXPECT_EQ(removed, 1);
  EXPECT_EQ(reason, FlowRemovedReason::kIdleTimeout);
}

TEST(FlowTable, HardTimeoutEvictsDespiteTraffic) {
  FlowTable table;
  table.apply(add_mod(Match().tp_dst(80), 100, output_to(1), 0, /*hard=*/seconds(1)), 0);
  EXPECT_NE(table.lookup(udp_key(), 100, milliseconds(900)), nullptr);
  EXPECT_EQ(table.lookup(udp_key(), 100, milliseconds(1100)), nullptr);
}

TEST(FlowTable, ExpireSweepCountsEvictions) {
  FlowTable table;
  table.apply(add_mod(Match().tp_dst(80), 100, output_to(1), 0, seconds(1)), 0);
  table.apply(add_mod(Match::exact(udp_key()), 100, output_to(2), 0, seconds(1)), 0);
  table.apply(add_mod(Match().tp_dst(99), 100, output_to(3)), 0);  // permanent
  EXPECT_EQ(table.expire(milliseconds(500)), 0u);
  EXPECT_EQ(table.expire(milliseconds(1500)), 2u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, AddOverwritesSameMatchAndPriority) {
  FlowTable table;
  table.apply(add_mod(Match().tp_dst(80), 100, output_to(1)), 0);
  table.lookup(udp_key(), 100, 0);
  table.apply(add_mod(Match().tp_dst(80), 100, output_to(2)), 0);
  EXPECT_EQ(table.size(), 1u);
  FlowEntry* hit = table.lookup(udp_key(), 100, 0);
  EXPECT_EQ(std::get<ActionOutput>(hit->actions[0]).port, 2);
  EXPECT_EQ(hit->packet_count, 1u);  // counters reset by overwrite
}

TEST(FlowTable, ModifyChangesActionsKeepingCounters) {
  FlowTable table;
  table.apply(add_mod(Match().tp_dst(80), 100, output_to(1)), 0);
  table.lookup(udp_key(), 100, 0);
  FlowMod mod;
  mod.command = FlowModCommand::kModify;
  mod.match = Match().tp_dst(80);
  mod.actions = output_to(5);
  table.apply(mod, 0);
  FlowEntry* hit = table.lookup(udp_key(), 100, 0);
  EXPECT_EQ(std::get<ActionOutput>(hit->actions[0]).port, 5);
  EXPECT_EQ(hit->packet_count, 2u);
}

TEST(FlowTable, DeleteStrictRemovesOnlyExact) {
  FlowTable table;
  table.apply(add_mod(Match().tp_dst(80), 100, output_to(1)), 0);
  table.apply(add_mod(Match().tp_dst(80), 200, output_to(2)), 0);
  FlowMod del;
  del.command = FlowModCommand::kDeleteStrict;
  del.match = Match().tp_dst(80);
  del.priority = 100;
  table.apply(del, 0);
  EXPECT_EQ(table.size(), 1u);
  FlowEntry* hit = table.lookup(udp_key(), 100, 0);
  EXPECT_EQ(std::get<ActionOutput>(hit->actions[0]).port, 2);
}

TEST(FlowTable, DeleteAllWithWildcardMatch) {
  FlowTable table;
  table.apply(add_mod(Match().tp_dst(80), 100, output_to(1)), 0);
  table.apply(add_mod(Match::exact(udp_key()), 200, output_to(2)), 0);
  FlowMod del;
  del.command = FlowModCommand::kDelete;
  table.apply(del, 0);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, StablePriorityTieBreak) {
  FlowTable table;
  table.apply(add_mod(Match().dl_type(net::ethertype::kIpv4), 100, output_to(1)), 0);
  table.apply(add_mod(Match().nw_proto(net::ipproto::kUdp), 100, output_to(2)), 0);
  FlowEntry* hit = table.lookup(udp_key(), 100, 0);
  EXPECT_EQ(std::get<ActionOutput>(hit->actions[0]).port, 1);  // first installed wins
}

// --- actions ----------------------------------------------------------------------

TEST(Actions, RewritesApply) {
  net::Packet p = net::make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2),
                                       Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1, 2);
  apply_rewrite(ActionSetNwSrc{Ipv4Addr(9, 9, 9, 9)}, p);
  apply_rewrite(ActionSetTpDst{443}, p);
  apply_rewrite(ActionSetDlDst{MacAddr::from_u64(0xff)}, p);
  auto key = net::extract_flow_key(p, 0);
  EXPECT_EQ(key->nw_src, Ipv4Addr(9, 9, 9, 9));
  EXPECT_EQ(key->tp_dst, 443);
  EXPECT_EQ(key->dl_dst.to_u64(), 0xffu);
}

TEST(Actions, Stringification) {
  EXPECT_EQ(action_to_string(ActionOutput{3, 0xffff}), "output:3");
  EXPECT_EQ(action_to_string(ActionOutput{kPortFlood, 0xffff}), "output:flood");
  EXPECT_EQ(action_to_string(ActionSetTpDst{80}), "set_tp_dst:80");
  EXPECT_EQ(actions_to_string(output_to(2)), "[output:2]");
}

// --- switch datapath -----------------------------------------------------------------

struct CapturingChannel : ControlChannel {
  std::vector<Message> messages;
  void to_controller(Message m) override { messages.push_back(std::move(m)); }
  bool connected() const override { return true; }

  template <typename T>
  std::vector<const T*> of_type() const {
    std::vector<const T*> out;
    for (const auto& m : messages) {
      if (const auto* v = std::get_if<T>(&m)) out.push_back(v);
    }
    return out;
  }
};

struct SwitchFixture : ::testing::Test {
  EventScheduler sched;
  OpenFlowSwitch sw{42, sched};
  std::shared_ptr<CapturingChannel> channel = std::make_shared<CapturingChannel>();
  std::map<std::uint16_t, std::vector<net::Packet>> tx;

  void SetUp() override {
    for (std::uint16_t p : {1, 2, 3}) {
      sw.add_port(p, "eth" + std::to_string(p), MacAddr::from_u64(p),
                  [this, p](net::Packet&& pkt) { tx[p].push_back(std::move(pkt)); });
    }
    sw.connect(channel);
    sw.handle_message(Hello{});  // controller hello -> features reply
  }

  net::Packet packet(std::uint16_t dport = 80) {
    return net::make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2),
                                Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1000, dport);
  }
};

/// A controller fake that answers the first PacketIn by installing a flow
/// synchronously, from inside the switch's receive().
struct ReactiveChannel : ControlChannel {
  OpenFlowSwitch* sw = nullptr;
  FlowMod mod;
  bool installed = false;

  void to_controller(Message m) override {
    if (installed || !sw) return;
    if (std::holds_alternative<PacketIn>(m)) {
      installed = true;
      sw->handle_message(mod);
    }
  }
  bool connected() const override { return true; }
};

TEST(OpenFlowSwitch, SyncFlowModFromPacketInAppliesToNextFrame) {
  EventScheduler sched;
  OpenFlowSwitch sw{7, sched};
  std::map<std::uint16_t, std::vector<net::Packet>> tx;
  for (std::uint16_t p : {1, 2}) {
    sw.add_port(p, "eth" + std::to_string(p), MacAddr::from_u64(p),
                [&tx, p](net::Packet&& pkt) { tx[p].push_back(std::move(pkt)); });
  }
  auto channel = std::make_shared<ReactiveChannel>();
  channel->sw = &sw;
  channel->mod.match = Match().in_port(1);
  channel->mod.actions = output_to(2);
  sw.connect(channel);

  for (int i = 0; i < 6; ++i) {
    sw.receive(1, net::make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2),
                                       Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1000, 80));
  }

  // Frame 0 misses and its packet-in installs the flow before receive()
  // returns; frames 1..5 hit the new entry.
  EXPECT_EQ(sw.packet_ins_sent(), 1u);
  EXPECT_EQ(tx[2].size(), 5u);
  const FlowTable& table = sw.flow_table();
  EXPECT_EQ(table.lookups(), 6u);
  EXPECT_EQ(table.matches(), 5u);
  EXPECT_EQ(sw.port_stats(1).rx_packets, 6u);
}

TEST_F(SwitchFixture, HandshakeProducesHelloAndFeatures) {
  ASSERT_FALSE(channel->of_type<Hello>().empty());
  auto features = channel->of_type<FeaturesReply>();
  ASSERT_EQ(features.size(), 1u);
  EXPECT_EQ(features[0]->datapath_id, 42u);
  EXPECT_EQ(features[0]->ports.size(), 3u);
}

TEST_F(SwitchFixture, TableMissSendsPacketInWithBuffer) {
  sw.receive(1, packet());
  auto ins = channel->of_type<PacketIn>();
  ASSERT_EQ(ins.size(), 1u);
  EXPECT_EQ(ins[0]->in_port, 1);
  EXPECT_EQ(ins[0]->reason, PacketInReason::kNoMatch);
  ASSERT_TRUE(ins[0]->buffer_id.has_value());
  EXPECT_EQ(sw.packet_ins_sent(), 1u);
}

TEST_F(SwitchFixture, FlowModThenForwarding) {
  FlowMod mod;
  mod.match = Match().in_port(1);
  mod.actions = output_to(2);
  sw.handle_message(mod);
  sw.receive(1, packet());
  ASSERT_EQ(tx[2].size(), 1u);
  EXPECT_TRUE(channel->of_type<PacketIn>().empty());
  EXPECT_EQ(sw.port_stats(2).tx_packets, 1u);
  EXPECT_EQ(sw.port_stats(1).rx_packets, 1u);
}

TEST_F(SwitchFixture, FlowModWithBufferReleasesBufferedPacket) {
  sw.receive(1, packet());
  auto ins = channel->of_type<PacketIn>();
  ASSERT_EQ(ins.size(), 1u);
  FlowMod mod;
  mod.match = Match().in_port(1);
  mod.actions = output_to(3);
  mod.buffer_id = ins[0]->buffer_id;
  sw.handle_message(mod);
  ASSERT_EQ(tx[3].size(), 1u);  // buffered packet forwarded
}

TEST_F(SwitchFixture, PacketOutWithRawData) {
  PacketOut out;
  out.packet = packet();
  out.actions = output_to(2);
  sw.handle_message(out);
  EXPECT_EQ(tx[2].size(), 1u);
}

TEST_F(SwitchFixture, FloodExcludesIngress) {
  FlowMod mod;
  mod.match = Match();
  mod.actions = output_to(kPortFlood);
  sw.handle_message(mod);
  sw.receive(1, packet());
  EXPECT_EQ(tx[1].size(), 0u);
  EXPECT_EQ(tx[2].size(), 1u);
  EXPECT_EQ(tx[3].size(), 1u);
}

TEST_F(SwitchFixture, RewriteThenOutputActionOrder) {
  FlowMod mod;
  mod.match = Match();
  mod.actions = {ActionSetNwDst{Ipv4Addr(99, 0, 0, 1)}, ActionOutput{2, 0xffff}};
  sw.handle_message(mod);
  sw.receive(1, packet());
  ASSERT_EQ(tx[2].size(), 1u);
  auto key = net::extract_flow_key(tx[2][0], 0);
  EXPECT_EQ(key->nw_dst, Ipv4Addr(99, 0, 0, 1));
}

TEST_F(SwitchFixture, EchoAndBarrierAndStats) {
  sw.handle_message(EchoRequest{77});
  auto echoes = channel->of_type<EchoReply>();
  ASSERT_EQ(echoes.size(), 1u);
  EXPECT_EQ(echoes[0]->payload, 77u);

  sw.handle_message(BarrierRequest{});
  EXPECT_EQ(channel->of_type<BarrierReply>().size(), 1u);

  FlowMod mod;
  mod.match = Match().in_port(1);
  mod.actions = output_to(2);
  sw.handle_message(mod);
  sw.receive(1, packet());
  sw.handle_message(StatsRequest{StatsRequest::Kind::kFlow});
  auto stats = channel->of_type<StatsReply>();
  ASSERT_EQ(stats.size(), 1u);
  ASSERT_EQ(stats[0]->flows.size(), 1u);
  EXPECT_EQ(stats[0]->flows[0].packet_count, 1u);

  sw.handle_message(StatsRequest{StatsRequest::Kind::kPort});
  sw.handle_message(StatsRequest{StatsRequest::Kind::kTable});
  auto all = channel->of_type<StatsReply>();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_FALSE(all[1]->ports.empty());
  ASSERT_TRUE(all[2]->table.has_value());
  EXPECT_EQ(all[2]->table->active_count, 1u);
}

TEST_F(SwitchFixture, FlowRemovedSentOnTimeout) {
  FlowMod mod;
  mod.match = Match().in_port(1);
  mod.actions = output_to(2);
  mod.idle_timeout = seconds(1);
  mod.send_flow_removed = true;
  sw.handle_message(mod);
  sw.receive(1, packet());
  sched.run_until(seconds(5));  // periodic sweep fires
  auto removed = channel->of_type<FlowRemoved>();
  ASSERT_GE(removed.size(), 1u);
  EXPECT_EQ(removed[0]->packet_count, 1u);
}

TEST_F(SwitchFixture, UnknownPortDrops) {
  sw.receive(99, packet());
  EXPECT_TRUE(channel->of_type<PacketIn>().empty());
}

TEST_F(SwitchFixture, EvictedPacketInBufferClosesItsSpan) {
  obs::tracer().clear();
  // The controller never answers: the 257th miss evicts buffer 0.
  for (std::uint16_t i = 0; i <= 256; ++i) {
    sw.receive(1, packet(static_cast<std::uint16_t>(1000 + i)));
  }
  auto ins = channel->of_type<PacketIn>();
  ASSERT_EQ(ins.size(), 257u);
  const std::string first_arg = "dpid=42 buffer=" + std::to_string(*ins.front()->buffer_id);

  std::uint64_t first_span = 0;
  std::map<std::uint64_t, std::string> ends;
  std::size_t begins = 0;
  for (const auto& event : obs::tracer().events()) {
    if (event.phase == obs::TracePhase::kBegin && event.name == "packet_in") {
      ++begins;
      if (event.arg == first_arg) first_span = event.span_id;
    } else if (event.phase == obs::TracePhase::kEnd) {
      ends[event.span_id] = event.arg;
    }
  }
  EXPECT_EQ(begins, 257u);
  ASSERT_NE(first_span, 0u);
  ASSERT_EQ(ends.count(first_span), 1u) << "the evicted buffer's packet_in span never ends";
  EXPECT_EQ(ends[first_span], "evicted");
  EXPECT_EQ(ends.size(), 1u);  // the 256 buffered packet-ins are still open
}

/// The packet-in spans in the trace: span id -> buffer id from the
/// begin label, and span id -> end arg for the ends seen from `from`.
struct PacketInSpans {
  std::map<std::uint64_t, std::uint32_t> buffer_of;
  std::vector<std::pair<std::uint64_t, std::string>> ends;

  explicit PacketInSpans(std::size_t from = 0) {
    const auto events = obs::tracer().events();
    const std::string prefix = "dpid=42 buffer=";
    for (std::size_t i = 0; i < events.size(); ++i) {
      const auto& e = events[i];
      if (e.phase == obs::TracePhase::kBegin && e.name == "packet_in") {
        EXPECT_EQ(e.arg.rfind(prefix, 0), 0u) << e.arg;
        buffer_of[e.span_id] =
            static_cast<std::uint32_t>(std::stoul(e.arg.substr(prefix.size())));
      } else if (e.phase == obs::TracePhase::kEnd && i >= from) {
        ends.emplace_back(e.span_id, e.arg);
      }
    }
  }
  /// The end arg of buffer `id`'s span; nullopt while it is open.
  std::optional<std::string> end_of(std::uint32_t id) const {
    for (const auto& [span, arg] : ends) {
      if (buffer_of.at(span) == id) return arg;
    }
    return std::nullopt;
  }
};

TEST_F(SwitchFixture, PacketInReplacesTheBufferInItsSlot) {
  obs::tracer().clear();
  for (std::uint16_t i = 0; i < 256; ++i) {
    sw.receive(1, packet(static_cast<std::uint16_t>(1000 + i)));
  }
  auto ins = channel->of_type<PacketIn>();
  ASSERT_EQ(ins.size(), 256u);
  EXPECT_EQ(ins.front()->buffer_id, 0u);
  EXPECT_EQ(ins.back()->buffer_id, 255u);

  // Release buffer 10: 255 buffers stay held.
  PacketOut out;
  out.buffer_id = 10;
  out.actions = output_to(2);
  sw.handle_message(out);
  ASSERT_EQ(tx[2].size(), 1u);
  EXPECT_EQ(net::extract_flow_key(tx[2][0], 0)->tp_dst, 1010);

  // Buffer 256 lives in slot 0, so it evicts buffer 0 even though a
  // slot is free.
  sw.receive(1, packet(2000));
  ins = channel->of_type<PacketIn>();
  ASSERT_EQ(ins.size(), 257u);
  EXPECT_EQ(ins.back()->buffer_id, 256u);
  PacketInSpans spans;
  EXPECT_EQ(spans.end_of(0), "evicted");
  EXPECT_EQ(spans.end_of(10), "");
  EXPECT_EQ(spans.ends.size(), 2u);

  // Buffer 0 is gone: naming it releases nothing, and buffer 256 stays
  // held in its slot.
  out.buffer_id = 0;
  sw.handle_message(out);
  EXPECT_EQ(tx[2].size(), 1u);
  out.buffer_id = 256;
  sw.handle_message(out);
  ASSERT_EQ(tx[2].size(), 2u);
  EXPECT_EQ(net::extract_flow_key(tx[2][1], 0)->tp_dst, 2000);
  EXPECT_EQ(PacketInSpans().end_of(256), "");
}

TEST_F(SwitchFixture, PacketOutNamingAnUnissuedBufferReleasesNothing) {
  PacketOut out;
  out.actions = output_to(2);
  out.buffer_id = 0;  // no packet-in yet
  sw.handle_message(out);
  for (std::uint16_t i = 0; i < 3; ++i) sw.receive(1, packet(static_cast<std::uint16_t>(1000 + i)));
  // Ids 256 and 258 map to the held slots 0 and 2; 5000 to an empty one.
  for (std::uint32_t id : {3u, 256u, 258u, 5000u, 0xffffffffu}) {
    out.buffer_id = id;
    sw.handle_message(out);
  }
  EXPECT_TRUE(tx[2].empty());
  // The three issued buffers are all still held.
  for (std::uint32_t id : {0u, 1u, 2u}) {
    out.buffer_id = id;
    sw.handle_message(out);
  }
  ASSERT_EQ(tx[2].size(), 3u);
  EXPECT_EQ(net::extract_flow_key(tx[2][2], 0)->tp_dst, 1002);
}

TEST_F(SwitchFixture, RestartEndsEachHeldSpanOnceOldestFirst) {
  obs::tracer().clear();
  // Ids 0..299: buffers 44..299 are held, 0..43 were evicted.
  for (std::uint16_t i = 0; i < 300; ++i) {
    sw.receive(1, packet(static_cast<std::uint16_t>(1000 + i)));
  }
  PacketOut out;
  out.actions = output_to(2);
  out.buffer_id = 100;
  sw.handle_message(out);
  ASSERT_EQ(tx[2].size(), 1u);

  const std::size_t before = obs::tracer().events().size();
  sw.restart();
  const PacketInSpans spans(before);
  std::vector<std::uint32_t> ended;
  for (const auto& [span, arg] : spans.ends) {
    EXPECT_EQ(arg, "");
    ended.push_back(spans.buffer_of.at(span));
  }
  std::vector<std::uint32_t> held;
  for (std::uint32_t id = 44; id < 300; ++id) {
    if (id != 100) held.push_back(id);
  }
  EXPECT_EQ(ended, held);

  // Nothing is held after the restart; ids keep counting.
  out.buffer_id = 299;
  sw.handle_message(out);
  EXPECT_EQ(tx[2].size(), 1u);
  sw.receive(1, packet());
  EXPECT_EQ(channel->of_type<PacketIn>().back()->buffer_id, 300u);
}

TEST_F(SwitchFixture, OutputToControllerFromFlow) {
  FlowMod mod;
  mod.match = Match();
  mod.actions = output_to(kPortController);
  sw.handle_message(mod);
  sw.receive(1, packet());
  auto ins = channel->of_type<PacketIn>();
  ASSERT_EQ(ins.size(), 1u);
  EXPECT_EQ(ins[0]->reason, PacketInReason::kAction);
}

}  // namespace
}  // namespace escape::openflow
