// Seeded inputs of the three end-to-end workloads. Everything a run
// sends or deploys is derived here from the seed and nothing else, so
// the same seed always yields the same packets, flows and lifecycles;
// the emulator only ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"
#include "util/workload.hpp"

namespace escape::e2e {

inline constexpr std::string_view kWorkloads[] = {"chain_fwd", "fattree_mix", "chain_churn"};

bool known_workload(std::string_view name);

/// chain_fwd: the ledger chain set (monitor x1/2/4/6, firewall,
/// flow_nat, tcp_ids), each between its own SAP pair, one long
/// constant-rate flow per chain at the smallest frame size.
struct FwdChain {
  std::vector<std::string> vnf_types;
  bool tcp = false;  // TCP segments (tcp_ids) instead of a UDP flow
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  SimDuration start_offset = 0;  // staggers the sources within one frame gap

  bool operator==(const FwdChain&) const = default;
};

struct FwdInputs {
  std::vector<FwdChain> chains;
  std::uint64_t packets_per_chain = 0;
  std::uint64_t rate_pps = 0;
  std::size_t frame_size = 0;
  std::uint32_t tcp_isn = 0;

  bool operator==(const FwdInputs&) const = default;
};

FwdInputs fwd_inputs(std::uint64_t seed);

/// fattree_mix: the repository's heavy-tailed generator on a fat-tree
/// with background chain churn; slot s deploys a firewall chain when s
/// is even and a flow_nat chain when it is odd.
struct MixInputs {
  workload::Options options;
  workload::Plan plan;
  std::uint64_t rate_pps = 0;  // per-flow source rate
  std::uint64_t max_flow_packets = 0;
  std::size_t frame_size = 0;
  std::size_t threads = 0;
};

MixInputs mix_inputs(std::uint64_t seed);
std::string slot_vnf_type(std::uint32_t slot);

/// chain_churn: one closed-loop client cycling chain lifecycles.
struct Lifecycle {
  std::vector<std::string> vnf_types;
  bool scale = false;  // a single flow_nat chain scaled 1 -> 2 -> 1
  std::uint16_t sport = 0;

  bool operator==(const Lifecycle&) const = default;
};

struct ChurnInputs {
  std::vector<Lifecycle> lifecycles;
  std::uint64_t probe_packets = 0;
  std::uint64_t probe_rate_pps = 0;
  std::size_t frame_size = 0;

  bool operator==(const ChurnInputs&) const = default;
};

ChurnInputs churn_inputs(std::uint64_t seed);

/// FNV-1a digest over every generated field of `workload`'s inputs for
/// `seed`; equal digests mean identical inputs.
std::uint64_t inputs_digest(std::string_view workload, std::uint64_t seed);

}  // namespace escape::e2e
