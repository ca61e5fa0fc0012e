// Emulated end host: the Service Access Point (SAP) of a service chain.
// Hosts answer ARP, source measurable UDP traffic flows and sink
// everything addressed to them, recording loss and latency.
#pragma once

#include <functional>
#include <vector>

#include "net/builder.hpp"
#include "netemu/node.hpp"
#include "obs/metrics.hpp"

namespace escape::netemu {

class Host : public Node {
 public:
  Host(std::string name, EventScheduler& scheduler, net::MacAddr mac, net::Ipv4Addr ip);
  ~Host() override;

  NodeKind kind() const override { return NodeKind::kHost; }
  net::MacAddr mac() const { return mac_; }
  net::Ipv4Addr ip() const { return ip_; }

  void deliver(std::uint16_t port, net::Packet&& packet) override;

  /// Sends a raw frame out of port 0 (hosts are single-homed).
  void send(net::Packet&& packet);

  /// Starts a UDP flow toward `dst`: `count` frames of `frame_size`
  /// bytes at `rate_pps`. Frames carry sequence numbers and timestamps.
  void start_udp_flow(net::MacAddr dst_mac, net::Ipv4Addr dst_ip, std::uint16_t sport,
                      std::uint16_t dport, std::uint64_t count, std::uint64_t rate_pps,
                      std::size_t frame_size = 98);

  /// Sends one ICMP echo request ("ping"). The peer's reply carries the
  /// request timestamp back, so latency_us() of the replies measures
  /// round-trip time.
  void send_ping(net::MacAddr dst_mac, net::Ipv4Addr dst_ip, std::uint16_t sequence);

  /// Echo requests this host answered.
  std::uint64_t echo_requests_served() const { return echo_requests_; }

  /// Registers an observer for every delivered frame (after internal
  /// accounting). Multiple observers allowed.
  void on_receive(std::function<void(const net::Packet&)> fn) {
    observers_.push_back(std::move(fn));
  }

  // --- measurement (the "standard tools to send and inspect live
  // traffic" of demo step 4) ------------------------------------------------

  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }
  std::uint64_t tx_packets() const { return tx_packets_; }

  /// One-way latency of received timestamped frames, in microseconds.
  /// Bounded-memory histogram: count/mean/min/max exact, percentiles
  /// bucket estimates (see obs/metrics.hpp).
  const obs::BoundedHistogram& latency_us() const { return latency_us_; }

  /// Highest sequence number seen + 1 (0 when none), for loss estimation.
  std::uint64_t max_seq_seen() const { return max_seq_seen_; }

  /// Zeroes the counts and the latency histogram, and with them the
  /// host's escape_host_* series.
  void reset_counters();

 private:
  void send_next_flow_packet();

  net::MacAddr mac_;
  net::Ipv4Addr ip_;

  // Active generator state (one flow at a time; enough for the demo).
  struct FlowState {
    net::MacAddr dst_mac;
    net::Ipv4Addr dst_ip;
    std::uint16_t sport = 0, dport = 0;
    std::uint64_t remaining = 0;
    std::uint64_t seq = 0;
    SimDuration gap = 0;
    std::size_t frame_size = 98;
    // Prototype frame: headers encoded once, copied into pooled buffers.
    std::optional<net::Packet> proto;
  };
  std::optional<FlowState> flow_;

  // The escape_host_*{host=...} series read the rx/tx counts and
  // latency_us_ at exposition time.
  std::uint64_t rx_packets_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t max_seq_seen_ = 0;
  std::uint64_t echo_requests_ = 0;
  obs::BoundedHistogram latency_us_;
  std::vector<std::function<void(const net::Packet&)>> observers_;
};

}  // namespace escape::netemu
