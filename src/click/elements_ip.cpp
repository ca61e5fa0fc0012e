// IPv4 processing elements.
#include "click/elements.hpp"
#include "click/router.hpp"
#include "net/headers.hpp"

namespace escape::click {

// --- CheckIPHeader ------------------------------------------------------------

CheckIPHeader::CheckIPHeader() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("drops", [this] { return std::to_string(drops_); });
}

void CheckIPHeader::push(int, Packet&& p) {
  auto eth = net::EthernetView::parse(p.bytes());
  bool ok = false;
  if (eth && eth->ethertype == net::ethertype::kIpv4) {
    if (auto ip = net::Ipv4View::parse(eth->payload)) {
      ok = net::Ipv4View::verify_checksum(eth->payload) &&
           ip->total_length >= ip->header_len() && ip->total_length <= eth->payload.size();
    }
  }
  if (ok) {
    output_push(0, std::move(p));
  } else {
    ++drops_;
    if (output_connected(1)) output_push(1, std::move(p));
  }
}

// --- DecIPTTL ------------------------------------------------------------------

DecIPTTL::DecIPTTL() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("expired", [this] { return std::to_string(expired_); });
}

void DecIPTTL::push(int, Packet&& p) {
  if (net::dec_ipv4_ttl(p)) {
    output_push(0, std::move(p));
  } else {
    ++expired_;
    if (output_connected(1)) output_push(1, std::move(p));
  }
}

// --- SetIPDSCP -------------------------------------------------------------------

Status SetIPDSCP::configure(const ConfigArgs& args) {
  return args.number_or_positional("DSCP", 0, dscp_, 0, 63);
}

SetIPDSCP::Verdict SetIPDSCP::process(Packet& p) {
  net::set_ipv4_dscp(p, dscp_);
  return {true, 0};
}

// --- IPRewriter ------------------------------------------------------------------

Status IPRewriter::configure(const ConfigArgs& args) {
  if (auto v = args.keyword("SRC_IP")) {
    auto a = net::Ipv4Addr::parse(*v);
    if (!a) return make_error("click.config.bad-arg", "invalid SRC_IP: " + *v);
    src_ip_ = *a;
  }
  if (auto v = args.keyword("DST_IP")) {
    auto a = net::Ipv4Addr::parse(*v);
    if (!a) return make_error("click.config.bad-arg", "invalid DST_IP: " + *v);
    dst_ip_ = *a;
  }
  for (auto [key, port] : {std::pair{"SRC_PORT", &src_port_}, std::pair{"DST_PORT", &dst_port_}}) {
    if (!args.keyword(key)) continue;
    std::uint16_t value = 0;
    if (auto st = args.number(key, value); !st) return st;
    *port = value;
  }
  if (auto v = args.keyword("SRC_ETH")) {
    auto m = net::MacAddr::parse(*v);
    if (!m) return make_error("click.config.bad-arg", "invalid SRC_ETH: " + *v);
    src_eth_ = *m;
  }
  if (auto v = args.keyword("DST_ETH")) {
    auto m = net::MacAddr::parse(*v);
    if (!m) return make_error("click.config.bad-arg", "invalid DST_ETH: " + *v);
    dst_eth_ = *m;
  }
  return ok_status();
}

IPRewriter::Verdict IPRewriter::process(Packet& p) {
  if (src_ip_) net::set_ipv4_src(p, *src_ip_);
  if (dst_ip_) net::set_ipv4_dst(p, *dst_ip_);
  if (src_port_) net::set_l4_src_port(p, *src_port_);
  if (dst_port_) net::set_l4_dst_port(p, *dst_port_);
  if (src_eth_) net::set_eth_src(p, *src_eth_);
  if (dst_eth_) net::set_eth_dst(p, *dst_eth_);
  return {true, 0};
}

}  // namespace escape::click
