// VNF-level elements: the building blocks of the ESCAPE VNF catalog
// (firewall, DPI) and the device bridges.
#include "click/elements.hpp"
#include "click/router.hpp"
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

void Firewall::push(int, Packet&& p) {
  // build_router() hands out a router only after initialize() compiled
  // the tree, so every packet meets the compiled dispatch.
  if (tree_.classify(ClassifyCtx::from_packet(p)) != 0) {
    ++accepted_;
    output_push(0, std::move(p));
  } else {
    ++denied_;
    if (output_connected(1)) output_push(1, std::move(p));
  }
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
