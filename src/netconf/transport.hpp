// Byte-stream transport for NETCONF sessions: an in-memory full-duplex
// pipe routed through the virtual-time scheduler (this is the "dedicated
// control network" of the paper -- the management agents are reachable
// with a configurable control-plane delay, independent of the data
// plane).
//
// The pipe supports two robustness features the fault plane builds on:
//   * explicit close: either end may close the pipe (a crashed agent);
//     the peer learns about it one propagation delay later through its
//     on_close callback, and frames to/from a closed end are dropped;
//   * frame faults: a per-endpoint fault profile (drop / corrupt /
//     extra delay, deterministic RNG) applied to outgoing frames, which
//     is how `escape-run --faults` emulates a flaky management network.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/event.hpp"
#include "util/random.hpp"

namespace escape::netconf {

/// Fault profile for one endpoint's outgoing frames.
struct TransportFaults {
  double drop_prob = 0.0;          // silently drop the frame
  double corrupt_prob = 0.0;       // flip bytes inside the frame payload
  SimDuration extra_delay_max = 0; // uniform extra delay in [0, max] per frame
  std::uint64_t seed = 0x700dULL;  // deterministic per-endpoint RNG seed
};

class TransportEndpoint {
 public:
  using OnBytes = std::function<void(std::string)>;
  using OnClose = std::function<void()>;

  /// Sends bytes to the peer; they arrive after the pipe delay (plus any
  /// injected extra delay). Dropped when either end is closed.
  void send(std::string bytes);

  /// Installs the receive callback (replaces any previous one).
  void set_on_bytes(OnBytes cb) { on_bytes_ = std::move(cb); }

  /// Fires once when the pipe is closed (locally or by the peer).
  void set_on_close(OnClose cb) { on_close_ = std::move(cb); }

  /// Closes this end: the local on_close fires immediately, callbacks
  /// are released (no delivery into freed owners), and the peer's close
  /// is scheduled one propagation delay from now. Idempotent.
  void close();

  bool closed() const { return closed_; }
  bool connected() const { return !closed_ && !peer_.expired(); }

  /// Installs / clears the outgoing-frame fault profile.
  void set_faults(const TransportFaults& faults);
  void clear_faults() { faults_active_ = false; }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t frames_corrupted() const { return frames_corrupted_; }

  /// Current virtual time of the scheduler driving this pipe (0 for an
  /// unwired endpoint). Lets sessions timestamp RPCs for RTT metrics.
  SimTime now() const { return scheduler_ ? scheduler_->now() : 0; }

  /// The scheduler driving this pipe (nullptr for an unwired endpoint);
  /// sessions use it for RPC timeout and retry timers.
  EventScheduler* scheduler() const { return scheduler_; }

 private:
  friend std::pair<std::shared_ptr<TransportEndpoint>, std::shared_ptr<TransportEndpoint>>
  make_pipe(EventScheduler& a_scheduler, EventScheduler& b_scheduler, SimDuration delay);

  void deliver(std::string bytes);

  EventScheduler* scheduler_ = nullptr;
  SimDuration delay_ = 0;
  std::weak_ptr<TransportEndpoint> peer_;
  OnBytes on_bytes_;
  OnClose on_close_;
  bool closed_ = false;
  bool faults_active_ = false;
  TransportFaults faults_;
  Rng fault_rng_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_corrupted_ = 0;
};

/// Creates a connected endpoint pair with symmetric one-way delay.
std::pair<std::shared_ptr<TransportEndpoint>, std::shared_ptr<TransportEndpoint>> make_pipe(
    EventScheduler& scheduler, SimDuration delay);

/// As above, but the two ends live on (possibly) different shards: `a`
/// is driven by a_scheduler, `b` by b_scheduler. When the schedulers
/// are distinct shards of one ShardedScheduler, frames and close
/// notifications cross through the mailbox and `delay` is registered as
/// the edge's conservative lookahead in both directions (a zero delay
/// across shards therefore forces the sequential fallback).
std::pair<std::shared_ptr<TransportEndpoint>, std::shared_ptr<TransportEndpoint>> make_pipe(
    EventScheduler& a_scheduler, EventScheduler& b_scheduler, SimDuration delay);

/// NETCONF 1.0 end-of-message framing (]]>]]>): splits a byte stream
/// back into messages.
class FrameReader {
 public:
  /// Feeds bytes; returns every complete message extracted. A chunk that
  /// is exactly one frame, with nothing buffered before it, becomes the
  /// message without being copied.
  std::vector<std::string> feed(std::string bytes);

  /// Drops any buffered partial frame (session re-establishment).
  void reset() { buffer_.clear(); }

  /// Frames one message for transmission: appends the delimiter to it.
  static std::string frame(std::string message);

  static constexpr std::string_view kDelimiter = "]]>]]>";

 private:
  std::string buffer_;
};

}  // namespace escape::netconf
