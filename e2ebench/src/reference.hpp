// The host-speed reference: a fixed task written in the benchmark's own
// code, timed next to the workload so a run can tell a slow host from a
// slow program.
//
// The task has two parts, shaped like the emulator's two kinds of work.
// The packet-path part is a small discrete-event loop: a binary heap of
// pending events with std::function handlers, a copy of a 64-byte frame
// per event, a byte-wise hash over the frame and a lookup in a flow
// table of a few thousand entries. The control-plane part formats flow
// records as text, parses them back and keeps them in an ordered map of
// string keys. On a shared host, contention slows the two parts by
// different amounts, and the emulator by amounts in between; the task's
// time is the geometric mean of the two.
//
// The task calls nothing in src/ and allocates nothing from the process
// heap while timed, so no change to the emulator changes its cost; only
// the host does.
#pragma once

#include <cstdint>

namespace escape::e2e {

struct ReferenceResult {
  double seconds = 0;       // geometric mean of the two parts' wall times
  std::uint64_t digest = 0; // the same on every run of one build
};

/// Runs the reference task once.
ReferenceResult run_reference();

}  // namespace escape::e2e
