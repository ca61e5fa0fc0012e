// Global safety invariants checked after every chaos episode: whatever
// fault schedule ran, once the environment quiesces the books must
// balance. Each check reads only public Environment state (resource
// view, deployment records, steering intent, switch flow tables,
// container handler snapshots) from the main thread.
#pragma once

#include <string>
#include <vector>

#include "escape/environment.hpp"

namespace escape::chaos {

/// One broken invariant, with enough context to debug the episode.
struct Violation {
  std::string invariant;  // stable id ("chain.non-terminal", "nat.port-leak", ...)
  std::string subject;    // the chain / container / dpid concerned
  std::string detail;     // human-readable discrepancy
};

std::string to_string(const Violation& v);

/// Runs the full catalog against a quiesced environment:
///
///   * every deployed chain is in a terminal state (ACTIVE or FAILED);
///   * per-container CPU and slot usage and per-link bandwidth usage in
///     the resource view equal the sum of the chains' reservation ledgers;
///   * every ACTIVE chain's ledger matches its record: one CPU share per
///     instance, on that instance's container, and the mapping's link
///     paths;
///   * no dpid is left dirty, and on every clean connected switch the
///     steering intent store matches the actual flow table (cookied
///     entries only -- l2_learning's cookie-0 namespace is ignored);
///   * no running VNF is left holding traffic ("fm.hold" stuck at 1) or
///     with packets buried in its hold buffer;
///   * NAT port-range conservation: ports_free + mappings == ports_total
///     for every flow_nat element;
///   * no orphan instances: every VNF running in a container is owned by
///     some chain's live deployment record.
///
/// Every violation also bumps escape_chaos_violations_total{invariant=...}.
std::vector<Violation> check_invariants(Environment& env);

}  // namespace escape::chaos
