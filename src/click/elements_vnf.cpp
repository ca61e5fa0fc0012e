// VNF-level elements: the building blocks of the ESCAPE VNF catalog
// (firewall, NAPT, load balancer, DPI).
#include "click/elements.hpp"
#include "click/router.hpp"
#include "net/headers.hpp"
#include "util/strings.hpp"

namespace escape::click {

// --- Firewall -------------------------------------------------------------------

Firewall::Firewall() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("accepted", [this] { return std::to_string(accepted_); });
  add_read_handler("denied", [this] { return std::to_string(denied_); });
  add_read_handler("rules", [this] {
    std::string out;
    for (const auto& r : rules_) {
      out += r.allow ? "allow " : "deny ";
      out += r.expr.source();
      out += '\n';
    }
    return out;
  });
  add_write_handler("add_rule", [this](std::string_view line) { return add_rule_line(line); });
}

Status Firewall::add_rule_line(std::string_view line) {
  line = strings::trim(line);
  bool allow;
  if (strings::starts_with(line, "allow ")) {
    allow = true;
    line.remove_prefix(6);
  } else if (strings::starts_with(line, "deny ")) {
    allow = false;
    line.remove_prefix(5);
  } else {
    return make_error("click.config.bad-arg",
                      "firewall rule must start with 'allow' or 'deny'");
  }
  auto expr = FilterExpr::compile(line);
  if (!expr.ok()) return expr.error();
  rules_.push_back({allow, std::move(*expr)});
  // Runtime rule additions (the add_rule handler) must reach the
  // compiled dispatch too; before initialize() the tree is rebuilt there.
  if (tree_.compiled()) recompile_tree();
  return ok_status();
}

void Firewall::recompile_tree() {
  std::vector<ClassifierTree::RuleSpec> specs;
  specs.reserve(rules_.size());
  for (const Rule& r : rules_) specs.push_back({r.allow ? 1 : 0, &r.expr});
  tree_.compile(specs, /*miss_verdict=*/default_allow_ ? 1 : 0);
}

Status Firewall::configure(const ConfigArgs& args) {
  rules_.clear();
  if (auto v = args.keyword("RULES")) {
    std::string_view rules = strings::trim(*v);
    // Rules may be quoted as one string; strip the quotes.
    if (rules.size() >= 2 && rules.front() == '"' && rules.back() == '"') {
      rules = rules.substr(1, rules.size() - 2);
    }
    for (const auto& line : strings::split_trimmed(rules, ';')) {
      if (auto s = add_rule_line(line); !s.ok()) return s;
    }
  }
  if (auto v = args.keyword("DEFAULT")) {
    if (strings::iequals(*v, "allow")) default_allow_ = true;
    else if (strings::iequals(*v, "deny")) default_allow_ = false;
    else return make_error("click.config.bad-arg", "DEFAULT must be allow or deny");
  }
  return ok_status();
}

Status Firewall::initialize(Router&) {
  recompile_tree();
  add_read_handler("tree_residual_rules",
                   [this] { return std::to_string(tree_.residual_rules()); });
  return ok_status();
}

bool Firewall::allows(const Packet& p) const {
  const ClassifyCtx ctx = ClassifyCtx::from_packet(p);
  if (tree_.compiled()) return tree_.classify(ctx) != 0;
  for (const auto& rule : rules_) {
    if (rule.expr.matches(ctx)) return rule.allow;  // first match wins
  }
  return default_allow_;
}

void Firewall::push(int, Packet&& p) {
  if (allows(p)) {
    ++accepted_;
    output_push(0, std::move(p));
  } else {
    ++denied_;
    if (output_connected(1)) output_push(1, std::move(p));
  }
}

// --- NAPT ------------------------------------------------------------------------

NAPT::NAPT() {
  declare_ports({PortMode::kPush, PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("mappings", [this] { return std::to_string(by_internal_.size()); });
  add_read_handler("translated", [this] { return std::to_string(translated_); });
  add_read_handler("dropped", [this] { return std::to_string(dropped_); });
}

Status NAPT::configure(const ConfigArgs& args) {
  if (auto v = args.keyword("EXTERNAL_IP")) {
    auto a = net::Ipv4Addr::parse(*v);
    if (!a) return make_error("click.config.bad-arg", "invalid EXTERNAL_IP: " + *v);
    external_ip_ = *a;
  }
  if (auto v = args.keyword_u64("PORT_BASE")) {
    if (*v == 0 || *v > 65535) {
      return make_error("click.config.bad-arg", "PORT_BASE must be 1..65535");
    }
    next_port_ = static_cast<std::uint16_t>(*v);
  }
  return ok_status();
}

void NAPT::push(int port, Packet&& p) {
  auto key = net::extract_flow_key(p, 0);
  const bool is_l4 = key && key->dl_type == net::ethertype::kIpv4 &&
                     (key->nw_proto == net::ipproto::kTcp ||
                      key->nw_proto == net::ipproto::kUdp);
  if (!is_l4) {
    ++dropped_;
    return;
  }

  if (port == 0) {
    // Internal -> external: allocate (or reuse) a mapping, rewrite source.
    InternalKey ik{key->nw_src.value(), key->tp_src, key->nw_proto};
    auto it = by_internal_.find(ik);
    std::uint16_t ext_port;
    if (it != by_internal_.end()) {
      ext_port = it->second;
    } else {
      ext_port = next_port_++;
      by_internal_[ik] = ext_port;
      by_external_[ext_port] = ik;
    }
    net::set_ipv4_src(p, external_ip_);
    net::set_l4_src_port(p, ext_port);
    ++translated_;
    output_push(0, std::move(p));
  } else {
    // External -> internal: translate destination back, or drop.
    auto it = by_external_.find(key->tp_dst);
    if (it == by_external_.end() || key->nw_dst != external_ip_) {
      ++dropped_;
      return;
    }
    net::set_ipv4_dst(p, net::Ipv4Addr(it->second.ip));
    net::set_l4_dst_port(p, it->second.port);
    ++translated_;
    output_push(1, std::move(p));
  }
}

// --- LoadBalancer ---------------------------------------------------------------

LoadBalancer::LoadBalancer() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
}

Status LoadBalancer::configure(const ConfigArgs& args) {
  std::uint64_t n = 2;
  if (auto v = args.keyword_or_positional("N", 0)) {
    auto parsed = strings::parse_u64(*v);
    if (!parsed || *parsed == 0 || *parsed > 64) {
      return make_error("click.config.bad-arg", "LoadBalancer N must be 1..64");
    }
    n = *parsed;
  }
  if (auto v = args.keyword("MODE")) {
    if (strings::iequals(*v, "flow")) per_flow_ = true;
    else if (strings::iequals(*v, "packet")) per_flow_ = false;
    else return make_error("click.config.bad-arg", "MODE must be flow or packet");
  }
  declare_ports({PortMode::kPush}, std::vector<PortMode>(n, PortMode::kPush));
  out_counts_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    add_read_handler(strings::format("out%zu_count", i),
                     [this, i] { return std::to_string(out_counts_[i]); });
  }
  return ok_status();
}

void LoadBalancer::push(int, Packet&& p) {
  std::size_t port;
  const auto n = static_cast<std::size_t>(n_outputs());
  if (per_flow_) {
    auto key = net::extract_flow_key(p, 0);
    port = key ? std::hash<net::FlowKey>{}(*key) % n : 0;
  } else {
    port = rr_next_++ % n;
  }
  ++out_counts_[port];
  output_push(static_cast<int>(port), std::move(p));
}

// --- DpiCounter -------------------------------------------------------------------

DpiCounter::DpiCounter() {
  add_read_handler("total", [this] { return std::to_string(total_); });
}

Status DpiCounter::configure(const ConfigArgs& args) {
  patterns_.clear();
  if (auto v = args.keyword_or_positional("PATTERNS", 0)) {
    std::string_view raw = strings::trim(*v);
    if (raw.size() >= 2 && raw.front() == '"' && raw.back() == '"') {
      raw = raw.substr(1, raw.size() - 2);
    }
    for (const auto& pat : strings::split_trimmed(raw, ';')) patterns_.push_back(pat);
  }
  hits_.assign(patterns_.size(), 0);
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    add_read_handler(strings::format("matches_%zu", i),
                     [this, i] { return std::to_string(hits_[i]); });
  }
  return ok_status();
}

DpiCounter::Verdict DpiCounter::process(Packet& p) {
  ++total_;
  if (!patterns_.empty()) {
    // Inspect the payload bytes after the Ethernet header.
    std::string_view haystack(reinterpret_cast<const char*>(p.data().data()), p.size());
    for (std::size_t i = 0; i < patterns_.size(); ++i) {
      if (haystack.find(patterns_[i]) != std::string_view::npos) ++hits_[i];
    }
  }
  return {true, 0};
}

// --- FromDevice / ToDevice -----------------------------------------------------------

FromDevice::FromDevice() {
  declare_ports({}, {PortMode::kPush});
  add_read_handler("count", [this] { return std::to_string(received_); });
  add_read_handler("devname", [this] { return devname_; });
}

Status FromDevice::configure(const ConfigArgs& args) {
  if (auto v = args.keyword_or_positional("DEVNAME", 0)) devname_ = *v;
  return ok_status();
}

void FromDevice::inject(Packet&& p) {
  ++received_;
  output_push(0, std::move(p));
}

ToDevice::ToDevice() {
  declare_ports({PortMode::kPush}, {});
  add_read_handler("count", [this] { return std::to_string(sent_); });
  add_read_handler("devname", [this] { return devname_; });
  add_read_handler("no_sink_drops", [this] { return std::to_string(no_sink_drops_); });
}

Status ToDevice::configure(const ConfigArgs& args) {
  if (auto v = args.keyword_or_positional("DEVNAME", 0)) devname_ = *v;
  return ok_status();
}

void ToDevice::push(int, Packet&& p) {
  if (!sink_) {
    ++no_sink_drops_;
    return;
  }
  ++sent_;
  sink_(std::move(p));
}

}  // namespace escape::click
