// Output checks. Each takes counts read from the emulator's public
// counters and returns one line per violation; a run with any violation
// exits non-zero before it reports a metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace escape::e2e {

using Failures = std::vector<std::string>;

/// One chain_fwd chain: packets its source sent and its sink received,
/// plus the entry/exit Click device counters of every VNF on it.
struct ChainCount {
  std::string chain;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::vector<std::pair<std::string, std::uint64_t>> click;  // "vnf.elem.count" -> value
};

/// Every packet sent is delivered, and every Click device counter on
/// the chain equals the chain's packet count.
Failures check_chain_fwd(const std::vector<ChainCount>& chains);

/// Where fattree_mix's sent packets ended up. Every packet is either
/// delivered to a host or counted at a public drop/miss counter: link
/// drops, switch packet-ins (table misses) or Click drop handlers.
struct Accounting {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t packet_ins = 0;
  std::uint64_t click_drops = 0;

  /// sent minus every attributed packet; negative means double counting.
  std::int64_t unattributed() const;
};

/// `unattributed_limit`: packets the public counters may miss (frames
/// caught in a VNF or on a veth at the instant its chain is torn down).
Failures check_fattree_mix(const Accounting& acc, std::uint64_t unattributed_limit);

/// The traced fattree_mix rerun at one thread on the same partition
/// must execute the identical event order.
Failures check_digest(std::uint64_t two_threads, std::uint64_t one_thread);

/// End state after a workload tore its chains down.
struct TeardownState {
  std::size_t chains_installed = 0;  // steering chains still installed
  std::size_t chains_deployed = 0;   // chains the environment still lists
  std::vector<std::string> view_diffs;  // resource-view entries not back at start
};

Failures check_teardown(const TeardownState& end);

/// chain_churn: every probe delivered, and the environment back at its
/// start state.
Failures check_chain_churn(std::uint64_t probes_sent, std::uint64_t probes_delivered,
                           const TeardownState& end);

}  // namespace escape::e2e
