#include "inputs.hpp"

#include <algorithm>

#include "util/random.hpp"

namespace escape::e2e {

namespace {

// Work per repetition. Each is a fixed amount for a seed -- never a
// wall-clock duration: per-lifecycle cost grows with history, so a
// fixed-duration run would give a faster build more history to pay for.
constexpr std::uint64_t kFwdPacketsPerChain = 30'000;
constexpr std::uint64_t kFwdRatePps = 20'000;
constexpr std::uint64_t kMixFlows = 8'000;
constexpr std::uint64_t kMixMaxFlowPackets = 200;
constexpr std::uint64_t kChurnLifecycles = 500;
constexpr std::size_t kChurnScaleEvery = 5;

const char* const kChurnCatalog[] = {"monitor", "firewall", "dpi", "flow_nat", "tcp_ids"};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace

bool known_workload(std::string_view name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) != std::end(kWorkloads);
}

FwdInputs fwd_inputs(std::uint64_t seed) {
  Rng rng{seed ^ 0xf00dULL};
  FwdInputs in;
  in.packets_per_chain = kFwdPacketsPerChain;
  in.rate_pps = kFwdRatePps;
  in.frame_size = 64;  // the smallest Ethernet frame: per-packet cost dominates
  in.tcp_isn = static_cast<std::uint32_t>(rng.next_u64());
  const SimDuration gap = timeunit::kSecond / kFwdRatePps;
  auto add = [&](std::vector<std::string> types, bool tcp) {
    FwdChain c;
    c.vnf_types = std::move(types);
    c.tcp = tcp;
    c.sport = static_cast<std::uint16_t>(rng.next_range(10000, 60000));
    c.dport = tcp ? 80 : static_cast<std::uint16_t>(rng.next_range(1, 1023));
    c.start_offset = rng.next_below(gap);
    in.chains.push_back(std::move(c));
  };
  for (int k : {1, 2, 4, 6}) add(std::vector<std::string>(static_cast<std::size_t>(k), "monitor"), false);
  add({"firewall"}, false);
  add({"flow_nat"}, false);
  add({"tcp_ids"}, true);
  return in;
}

std::string slot_vnf_type(std::uint32_t slot) { return slot % 2 == 0 ? "firewall" : "flow_nat"; }

MixInputs mix_inputs(std::uint64_t seed) {
  MixInputs in;
  in.options.seed = seed;
  in.options.fattree_k = 4;
  in.options.flows = kMixFlows;
  in.options.arrival_rate = 50'000.0;
  in.options.chains = 4;
  in.options.churn_rate = 750.0;
  in.plan = workload::generate(in.options);
  // Bound the Pareto tail so one elephant flow cannot make a seed's run
  // several times longer than another's; the shape below the cap stays.
  in.max_flow_packets = kMixMaxFlowPackets;
  for (auto& fa : in.plan.arrivals) fa.packets = std::min(fa.packets, in.max_flow_packets);
  in.rate_pps = 100'000;
  in.frame_size = 1400;
  in.threads = 2;
  return in;
}

ChurnInputs churn_inputs(std::uint64_t seed) {
  Rng rng{seed ^ 0xc4a1ULL};
  ChurnInputs in;
  in.probe_packets = 64;
  in.probe_rate_pps = 50'000;
  in.frame_size = 64;
  in.lifecycles.reserve(kChurnLifecycles);
  for (std::size_t i = 0; i < kChurnLifecycles; ++i) {
    Lifecycle lc;
    lc.sport = static_cast<std::uint16_t>(rng.next_range(10000, 60000));
    if ((i + 1) % kChurnScaleEvery == 0) {
      lc.vnf_types = {"flow_nat"};
      lc.scale = true;
    } else {
      const std::size_t n = 1 + rng.next_below(3);
      for (std::size_t v = 0; v < n; ++v) {
        lc.vnf_types.emplace_back(kChurnCatalog[rng.next_below(std::size(kChurnCatalog))]);
      }
    }
    in.lifecycles.push_back(std::move(lc));
  }
  return in;
}

std::uint64_t inputs_digest(std::string_view workload, std::uint64_t seed) {
  Fnv h;
  if (workload == "chain_fwd") {
    const FwdInputs in = fwd_inputs(seed);
    h.add(in.packets_per_chain);
    h.add(in.rate_pps);
    h.add(in.frame_size);
    h.add(in.tcp_isn);
    for (const auto& c : in.chains) {
      for (const auto& t : c.vnf_types) h.add(t);
      h.add(c.tcp);
      h.add(c.sport);
      h.add(c.dport);
      h.add(c.start_offset);
    }
  } else if (workload == "fattree_mix") {
    const MixInputs in = mix_inputs(seed);
    h.add(in.rate_pps);
    h.add(in.max_flow_packets);
    h.add(in.frame_size);
    h.add(in.threads);
    for (const auto& s : in.plan.hosts) h.add(s);
    for (const auto& s : in.plan.switches) h.add(s);
    for (const auto& s : in.plan.containers) h.add(s);
    for (const auto& l : in.plan.links) {
      h.add(l.a);
      h.add(l.b);
    }
    for (const auto& fa : in.plan.arrivals) {
      h.add(fa.at);
      h.add(fa.src_host);
      h.add(fa.dst_host);
      h.add(fa.src_port);
      h.add(fa.dst_port);
      h.add(fa.packets);
    }
    for (const auto& ev : in.plan.churn) {
      h.add(ev.at);
      h.add(ev.deploy);
      h.add(ev.slot);
    }
    h.add(in.plan.horizon);
  } else if (workload == "chain_churn") {
    const ChurnInputs in = churn_inputs(seed);
    h.add(in.probe_packets);
    h.add(in.probe_rate_pps);
    h.add(in.frame_size);
    for (const auto& lc : in.lifecycles) {
      for (const auto& t : lc.vnf_types) h.add(t);
      h.add(lc.scale);
      h.add(lc.sport);
    }
  }
  return h.value();
}

}  // namespace escape::e2e
