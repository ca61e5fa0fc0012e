// Experiment E4: OpenFlow flow-table performance.
//
// Lookup cost: exact-match entries are one probe of the exact tuple
// space; wildcard entries are one probe per wildcard mask group
// (tuple-space search), so both stay flat in table size.
// Install rate: flow-mods per second into a growing table.
#include "bench_common.hpp"
#include <benchmark/benchmark.h>

#include "net/builder.hpp"
#include "openflow/flow_table.hpp"

using namespace escape;
using namespace escape::openflow;

namespace {

net::FlowKey key_for_port(std::uint16_t dport) {
  net::Packet p = net::make_udp_packet(net::MacAddr::from_u64(1), net::MacAddr::from_u64(2),
                                       net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                                       1000, dport);
  return *net::extract_flow_key(p, 1);
}

FlowMod exact_mod(const net::FlowKey& key, std::uint16_t out) {
  FlowMod mod;
  mod.match = Match::exact(key);
  mod.actions = output_to(out);
  return mod;
}

FlowMod wildcard_mod(std::uint16_t dport, std::uint16_t out) {
  FlowMod mod;
  mod.match = Match().dl_type(net::ethertype::kIpv4).tp_dst(dport);
  mod.priority = 0x8000;
  mod.actions = output_to(out);
  return mod;
}

}  // namespace

static void BM_FlowTable_ExactLookup(benchmark::State& state) {
  const int table_size = static_cast<int>(state.range(0));
  FlowTable table;
  for (int i = 0; i < table_size; ++i) {
    table.apply(exact_mod(key_for_port(static_cast<std::uint16_t>(i + 1)), 2), 0);
  }
  const net::FlowKey key = key_for_port(static_cast<std::uint16_t>(table_size / 2 + 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(key, 100, 0));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["table_size"] = table_size;
}
BENCHMARK(BM_FlowTable_ExactLookup)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

static void BM_FlowTable_WildcardLookup(benchmark::State& state) {
  const int table_size = static_cast<int>(state.range(0));
  FlowTable table;
  for (int i = 0; i < table_size; ++i) {
    table.apply(wildcard_mod(static_cast<std::uint16_t>(10000 + i), 2), 0);
  }
  // The matching entry is installed last, at the same priority; every
  // entry shares one mask group, so the lookup is one probe.
  table.apply(wildcard_mod(2000, 3), 0);
  const net::FlowKey key = key_for_port(2000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(key, 100, 0));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["table_size"] = table_size;
}
BENCHMARK(BM_FlowTable_WildcardLookup)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

static void BM_FlowTable_MissWithWildcards(benchmark::State& state) {
  const int table_size = static_cast<int>(state.range(0));
  FlowTable table;
  for (int i = 0; i < table_size; ++i) {
    table.apply(wildcard_mod(static_cast<std::uint16_t>(10000 + i), 2), 0);
  }
  const net::FlowKey key = key_for_port(1);  // matches nothing
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(key, 100, 0));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["table_size"] = table_size;
}
BENCHMARK(BM_FlowTable_MissWithWildcards)->Arg(10)->Arg(100)->Arg(1000);

static void BM_FlowTable_InstallRate(benchmark::State& state) {
  const bool exact = state.range(0) == 1;
  FlowTable table;
  std::uint16_t port = 1;
  for (auto _ : state) {
    if (exact) {
      table.apply(exact_mod(key_for_port(port), 2), 0);
    } else {
      table.apply(wildcard_mod(port, 2), 0);
    }
    ++port;
    if (port == 0) port = 1;
    if (table.size() > 50000) {  // keep memory bounded
      state.PauseTiming();
      table.clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(exact ? "exact" : "wildcard");
}
BENCHMARK(BM_FlowTable_InstallRate)->Arg(1)->Arg(0);

static void BM_FlowTable_ExpirySweep(benchmark::State& state) {
  const int table_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    FlowTable table;
    for (int i = 0; i < table_size; ++i) {
      FlowMod mod = wildcard_mod(static_cast<std::uint16_t>(i + 1), 2);
      mod.hard_timeout = timeunit::kMillisecond;
      table.apply(mod, 0);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(table.expire(seconds(1)));
  }
  state.counters["table_size"] = table_size;
}
BENCHMARK(BM_FlowTable_ExpirySweep)->Arg(100)->Arg(1000)->Arg(10000)->Iterations(20);


// --- wire codec (ofp10 binary serialization) -----------------------------------

#include "openflow/wire.hpp"

static void BM_Wire_EncodeFlowMod(benchmark::State& state) {
  FlowMod mod;
  mod.match = Match().in_port(1).dl_type(net::ethertype::kIpv4).tp_dst(80);
  mod.priority = 0x9000;
  mod.idle_timeout = seconds(10);
  mod.actions = {ActionSetNwDst{net::Ipv4Addr(192, 0, 2, 1)}, ActionOutput{7, 0xffff}};
  const Message msg{mod};
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::encode(msg, 42));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Wire_EncodeFlowMod);

static void BM_Wire_DecodeFlowMod(benchmark::State& state) {
  FlowMod mod;
  mod.match = Match().in_port(1).dl_type(net::ethertype::kIpv4).tp_dst(80);
  mod.actions = {ActionSetNwDst{net::Ipv4Addr(192, 0, 2, 1)}, ActionOutput{7, 0xffff}};
  const auto bytes = wire::encode(Message{mod}, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode(bytes));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Wire_DecodeFlowMod);

static void BM_Wire_RoundTripPacketIn(benchmark::State& state) {
  PacketIn in;
  in.buffer_id = 9;
  in.in_port = 4;
  in.packet = net::make_udp_packet(net::MacAddr::from_u64(1), net::MacAddr::from_u64(2),
                                   net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 5, 6,
                                   static_cast<std::size_t>(state.range(0)));
  const Message msg{in};
  for (auto _ : state) {
    auto bytes = wire::encode(msg, 1);
    benchmark::DoNotOptimize(wire::decode(bytes));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["frame_bytes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Wire_RoundTripPacketIn)->Arg(64)->Arg(1500);

ESCAPE_BENCH_MAIN("openflow");
