#include "netemu/host.hpp"

#include "net/headers.hpp"
#include "net/packet_pool.hpp"

namespace escape::netemu {

Host::Host(std::string name, EventScheduler& scheduler, net::MacAddr mac, net::Ipv4Addr ip)
    : Node(std::move(name), scheduler), mac_(mac), ip_(ip) {
  obs::MetricsRegistry::global().collect(this, [this](obs::SampleSink& sink) {
    const obs::Labels labels{{"host", this->name()}};
    sink.counter("escape_host_rx_packets_total", labels, rx_packets_);
    sink.counter("escape_host_rx_bytes_total", labels, rx_bytes_);
    sink.counter("escape_host_tx_packets_total", labels, tx_packets_);
    sink.histogram("escape_host_latency_us", labels, latency_us_);
  });
}

Host::~Host() { obs::MetricsRegistry::global().remove_owner(this); }

void Host::deliver(std::uint16_t, net::Packet&& packet) {
  // Protocol reflexes of a "standard tools" host: answer ARP requests
  // for our IP and reply to ICMP echo requests (so ping works through a
  // chain once a return path exists).
  if (auto eth = net::EthernetView::parse(packet.bytes())) {
    if (eth->ethertype == net::ethertype::kArp) {
      if (auto arp = net::ArpView::parse(eth->payload)) {
        if (arp->opcode == net::ArpView::kRequest && arp->target_ip == ip_) {
          net::Packet reply = net::PacketBuilder()
                                  .eth(mac_, arp->sender_mac, net::ethertype::kArp)
                                  .arp(net::ArpView::kReply, mac_, ip_, arp->sender_mac,
                                       arp->sender_ip)
                                  .build();
          send(std::move(reply));
          return;
        }
      }
    } else if (eth->ethertype == net::ethertype::kIpv4) {
      if (auto ip = net::Ipv4View::parse(eth->payload)) {
        if (ip->protocol == net::ipproto::kIcmp && ip->dst == ip_) {
          if (auto icmp = net::IcmpView::parse(ip->payload)) {
            if (icmp->type == net::IcmpView::kEchoRequest) {
              ++rx_packets_;
              rx_bytes_ += packet.size();
              ++echo_requests_;
              const std::vector<std::uint8_t> echo_payload(icmp->payload.begin(),
                                                           icmp->payload.end());
              net::Packet reply =
                  net::PacketBuilder()
                      .eth(mac_, eth->src)
                      .ipv4(ip_, ip->src, net::ipproto::kIcmp)
                      .icmp_echo(net::IcmpView::kEchoReply, icmp->identifier,
                                 icmp->sequence)
                      .payload(std::span<const std::uint8_t>(echo_payload))
                      .build();
              reply.set_seq(packet.seq());
              reply.set_timestamp(packet.timestamp());  // carries the ping's t0
              send(std::move(reply));
              return;
            }
          }
        }
      }
    }
  }

  ++rx_packets_;
  rx_bytes_ += packet.size();
  if (packet.seq() + 1 > max_seq_seen_) max_seq_seen_ = packet.seq() + 1;
  if (packet.has_timestamp()) {
    const SimTime now = scheduler().now();
    if (now >= packet.timestamp()) {
      latency_us_.record(static_cast<double>(now - packet.timestamp()) / timeunit::kMicrosecond);
    }
  }
  for (auto& fn : observers_) fn(packet);
  // The host is this packet's terminal: give the buffer back for reuse.
  net::default_packet_pool().recycle(std::move(packet));
}

void Host::send(net::Packet&& packet) {
  ++tx_packets_;
  send_out(0, std::move(packet));
}

void Host::start_udp_flow(net::MacAddr dst_mac, net::Ipv4Addr dst_ip, std::uint16_t sport,
                          std::uint16_t dport, std::uint64_t count, std::uint64_t rate_pps,
                          std::size_t frame_size) {
  FlowState flow;
  flow.dst_mac = dst_mac;
  flow.dst_ip = dst_ip;
  flow.sport = sport;
  flow.dport = dport;
  flow.remaining = count;
  flow.gap = rate_pps ? timeunit::kSecond / rate_pps : 0;
  flow.frame_size = frame_size;
  flow_ = flow;
  send_next_flow_packet();
}

void Host::send_next_flow_packet() {
  if (!flow_ || flow_->remaining == 0) {
    flow_.reset();
    return;
  }
  if (!flow_->proto) {
    flow_->proto = net::make_udp_packet(mac_, flow_->dst_mac, ip_, flow_->dst_ip, flow_->sport,
                                        flow_->dport, flow_->frame_size);
  }
  net::Packet p = net::default_packet_pool().acquire_copy(*flow_->proto);
  p.set_seq(flow_->seq++);
  p.set_timestamp(scheduler().now());
  --flow_->remaining;
  send(std::move(p));
  if (flow_->remaining > 0) {
    scheduler().schedule(flow_->gap, [this] { send_next_flow_packet(); });
  } else {
    flow_.reset();
  }
}

void Host::send_ping(net::MacAddr dst_mac, net::Ipv4Addr dst_ip, std::uint16_t sequence) {
  net::Packet p = net::PacketBuilder()
                      .eth(mac_, dst_mac)
                      .ipv4(ip_, dst_ip, net::ipproto::kIcmp)
                      .icmp_echo(net::IcmpView::kEchoRequest, /*identifier=*/0x1234, sequence)
                      .payload(std::string_view("escape-ping"))
                      .build();
  p.set_seq(sequence);
  p.set_timestamp(scheduler().now());
  send(std::move(p));
}

void Host::reset_counters() {
  rx_packets_ = rx_bytes_ = tx_packets_ = max_seq_seen_ = 0;
  latency_us_.clear();
}

}  // namespace escape::netemu
