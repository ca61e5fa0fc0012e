// The three end-to-end workloads. One call runs one repetition -- a
// fixed amount of work for the seed in a fresh Environment -- and
// returns everything it measured as one JSON document.
#pragma once

#include <cstdint>
#include <string>

#include "json/json.hpp"

namespace escape::e2e {

struct RepOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Traced repetition: spans, costly counts (allocations, queue depth)
  /// and the per-layer replays. End-to-end metrics never come from it.
  bool trace = false;
  std::string spans_path;  // traced only; empty = keep the spans in memory
};

/// Result document: setup and timed-phase wall time, per-call latency
/// samples, the virtual-time fidelity outputs, output-check failures
/// and, when traced, the per-layer metrics.
json::Value run_rep(const RepOptions& options);

}  // namespace escape::e2e
