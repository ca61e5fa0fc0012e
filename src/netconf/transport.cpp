#include "netconf/transport.hpp"

#include <vector>

#include "util/sharded_event.hpp"

namespace escape::netconf {

namespace {

obs::Counter& fault_counter(const char* kind) {
  return obs::MetricsRegistry::global().counter("escape_netconf_transport_faults_total",
                                                {{"kind", kind}});
}

}  // namespace

void TransportEndpoint::set_faults(const TransportFaults& faults) {
  faults_ = faults;
  faults_active_ = true;
  fault_rng_ = Rng(faults.seed);
}

void TransportEndpoint::send(std::string bytes) {
  if (closed_) return;
  bytes_sent_ += bytes.size();
  auto peer = peer_.lock();
  if (!peer) return;

  SimDuration delay = delay_;
  if (faults_active_) {
    if (faults_.drop_prob > 0.0 && fault_rng_.next_bool(faults_.drop_prob)) {
      ++frames_dropped_;
      fault_counter("drop").add();
      return;
    }
    if (faults_.corrupt_prob > 0.0 && fault_rng_.next_bool(faults_.corrupt_prob) &&
        bytes.size() > FrameReader::kDelimiter.size() + 2) {
      // Mangle the message's opening byte: framing survives, but the XML
      // no longer parses (a mid-payload flip could land in an attribute
      // value and slip through).
      bytes[0] = '\x01';
      ++frames_corrupted_;
      fault_counter("corrupt").add();
    }
    if (faults_.extra_delay_max > 0) {
      delay += static_cast<SimDuration>(
          fault_rng_.next_below(static_cast<std::uint64_t>(faults_.extra_delay_max) + 1));
      fault_counter("delay").add();
    }
  }

  // Same scheduler object on both ends -> identical to the classic
  // single-queue behaviour; distinct shards -> mailbox crossing.
  cross_schedule(*scheduler_, *peer->scheduler_, delay,
                 [peer, data = std::move(bytes)]() mutable { peer->deliver(std::move(data)); });
}

void TransportEndpoint::close() {
  if (closed_) return;
  closed_ = true;
  on_bytes_ = nullptr;
  if (on_close_) {
    OnClose cb = std::move(on_close_);
    on_close_ = nullptr;
    cb();
  }
  // The peer learns about the close one propagation delay later, like a
  // TCP RST travelling the control network. The capture keeps the peer
  // endpoint alive until the event fires.
  auto peer = peer_.lock();
  if (peer && !peer->closed_ && scheduler_) {
    cross_schedule(*scheduler_, *peer->scheduler_, delay_, [peer] { peer->close(); });
  }
}

void TransportEndpoint::deliver(std::string bytes) {
  if (closed_) return;
  bytes_received_ += bytes.size();
  if (on_bytes_) on_bytes_(std::move(bytes));
}

std::pair<std::shared_ptr<TransportEndpoint>, std::shared_ptr<TransportEndpoint>> make_pipe(
    EventScheduler& scheduler, SimDuration delay) {
  return make_pipe(scheduler, scheduler, delay);
}

std::pair<std::shared_ptr<TransportEndpoint>, std::shared_ptr<TransportEndpoint>> make_pipe(
    EventScheduler& a_scheduler, EventScheduler& b_scheduler, SimDuration delay) {
  auto a = std::make_shared<TransportEndpoint>();
  auto b = std::make_shared<TransportEndpoint>();
  a->scheduler_ = &a_scheduler;
  b->scheduler_ = &b_scheduler;
  a->delay_ = delay;
  b->delay_ = delay;
  a->peer_ = b;
  b->peer_ = a;
  add_cross_shard_edge(a_scheduler, b_scheduler, delay);
  add_cross_shard_edge(b_scheduler, a_scheduler, delay);
  return {a, b};
}

std::vector<std::string> FrameReader::feed(std::string bytes) {
  std::vector<std::string> messages;
  if (buffer_.empty() && bytes.size() >= kDelimiter.size() &&
      bytes.find(kDelimiter) == bytes.size() - kDelimiter.size()) {
    bytes.resize(bytes.size() - kDelimiter.size());
    messages.push_back(std::move(bytes));
    return messages;
  }
  buffer_.append(bytes);
  std::size_t start = 0;
  std::size_t pos;
  while ((pos = buffer_.find(kDelimiter, start)) != std::string::npos) {
    messages.push_back(buffer_.substr(start, pos - start));
    start = pos + kDelimiter.size();
  }
  buffer_.erase(0, start);
  return messages;
}

std::string FrameReader::frame(std::string message) {
  message.append(kDelimiter);
  return message;
}

}  // namespace escape::netconf
