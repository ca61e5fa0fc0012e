// Sources, sinks, counters and classification elements.
#include <cctype>

#include "click/elements.hpp"
#include "click/router.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace escape::click {

namespace {

Logger g_log{"click.elements"};

}  // namespace

Status PacketTemplate::load(const ConfigArgs& args) {
  proto_.reset();  // header fields may change below; rebuild on next make()
  if (auto v = args.keyword("SRC_IP")) {
    auto a = net::Ipv4Addr::parse(*v);
    if (!a) return make_error("click.config.bad-arg", "invalid SRC_IP: " + *v);
    ip_src = *a;
  }
  if (auto v = args.keyword("DST_IP")) {
    auto a = net::Ipv4Addr::parse(*v);
    if (!a) return make_error("click.config.bad-arg", "invalid DST_IP: " + *v);
    ip_dst = *a;
  }
  if (auto st = args.number("SPORT", sport); !st) return st;
  if (auto st = args.number("DPORT", dport); !st) return st;
  if (auto v = args.keyword("SRC_ETH")) {
    auto m = net::MacAddr::parse(*v);
    if (!m) return make_error("click.config.bad-arg", "invalid SRC_ETH: " + *v);
    eth_src = *m;
  }
  if (auto v = args.keyword("DST_ETH")) {
    auto m = net::MacAddr::parse(*v);
    if (!m) return make_error("click.config.bad-arg", "invalid DST_ETH: " + *v);
    eth_dst = *m;
  }
  return ok_status();
}

Packet PacketTemplate::make(std::size_t length, std::uint64_t seq, SimTime now) const {
  if (!proto_ || proto_length_ != length) {
    proto_ = net::make_udp_packet(eth_src, eth_dst, ip_src, ip_dst, sport, dport, length);
    proto_length_ = length;
  }
  // Copy the prototype bytes into a recycled buffer instead of encoding
  // headers (and allocating) per packet.
  Packet p = net::default_packet_pool().acquire_copy(*proto_);
  p.set_seq(seq);
  p.set_timestamp(now);
  return p;
}

// --- Discard -------------------------------------------------------------------

Discard::Discard() {
  declare_ports({PortMode::kPush}, {});
  add_read_handler("count", [this] { return std::to_string(count_); });
}

void Discard::push(int, Packet&& p) {
  ++count_;
  net::default_packet_pool().recycle(std::move(p));
}

// --- InfiniteSource -------------------------------------------------------------

InfiniteSource::InfiniteSource() {
  declare_ports({}, {PortMode::kPush});
  add_read_handler("count", [this] { return std::to_string(emitted_); });
}

Status InfiniteSource::configure(const ConfigArgs& args) {
  if (auto st = args.number("LENGTH", length_); !st) return st;
  if (auto st = args.number("LIMIT", limit_); !st) return st;
  if (auto st = args.number("BURST", burst_); !st) return st;
  if (auto st = args.number("INTERVAL", interval_, 0, kMaxConfigTime); !st) return st;
  return tmpl_.load(args);
}

Status InfiniteSource::initialize(Router& router) {
  task_ = std::make_unique<Task>(&router, [this] { return run_once(); });
  task_->reschedule(0);
  return ok_status();
}

Packet InfiniteSource::make_packet() {
  return tmpl_.make(length_, emitted_, router()->scheduler().now());
}

std::optional<SimDuration> InfiniteSource::run_once() {
  for (std::uint64_t i = 0; i < burst_; ++i) {
    if (limit_ && emitted_ >= limit_) return std::nullopt;
    Packet p = make_packet();
    ++emitted_;
    output_push(0, std::move(p));
  }
  return router()->scale_delay(interval_);
}

// --- RatedSource -----------------------------------------------------------------

RatedSource::RatedSource() {
  declare_ports({}, {PortMode::kPush});
  add_read_handler("count", [this] { return std::to_string(emitted_); });
  add_read_handler("rate", [this] { return std::to_string(rate_); });
}

Status RatedSource::configure(const ConfigArgs& args) {
  if (auto st = args.number_or_positional("RATE", 0, rate_, 1); !st) return st;
  if (auto st = args.number("LENGTH", length_); !st) return st;
  if (auto st = args.number("LIMIT", limit_); !st) return st;
  return tmpl_.load(args);
}

Status RatedSource::initialize(Router& router) {
  task_ = std::make_unique<Task>(&router, [this] { return run_once(); });
  task_->reschedule(0);
  return ok_status();
}

std::optional<SimDuration> RatedSource::run_once() {
  if (limit_ && emitted_ >= limit_) return std::nullopt;
  Packet p = tmpl_.make(length_, emitted_, router()->scheduler().now());
  ++emitted_;
  output_push(0, std::move(p));
  // One packet per 1/rate seconds.
  return timeunit::kSecond / rate_;
}

// --- TimedSource -----------------------------------------------------------------

TimedSource::TimedSource() {
  declare_ports({}, {PortMode::kPush});
  add_read_handler("count", [this] { return std::to_string(emitted_); });
}

Status TimedSource::configure(const ConfigArgs& args) {
  if (auto st = args.number("INTERVAL", interval_, 0, kMaxConfigTime); !st) return st;
  if (auto st = args.number("LENGTH", length_); !st) return st;
  if (auto st = args.number("LIMIT", limit_); !st) return st;
  return tmpl_.load(args);
}

Status TimedSource::initialize(Router& router) {
  task_ = std::make_unique<Task>(&router, [this]() -> std::optional<SimDuration> {
    if (limit_ && emitted_ >= limit_) return std::nullopt;
    Packet p = tmpl_.make(length_, emitted_, this->router()->scheduler().now());
    ++emitted_;
    output_push(0, std::move(p));
    return interval_;
  });
  task_->reschedule(interval_);
  return ok_status();
}

// --- Counter ---------------------------------------------------------------------

Counter::Counter() {
  add_read_handler("count", [this] { return std::to_string(count_); });
  add_read_handler("byte_count", [this] { return std::to_string(bytes_); });
  add_read_handler("rate", [this] { return strings::format("%.1f", last_rate_); });
  add_write_handler("reset", [this](std::string_view) {
    count_ = bytes_ = window_count_ = 0;
    last_rate_ = 0;
    return ok_status();
  });
}

Counter::Verdict Counter::process(Packet& p) {
  ++count_;
  bytes_ += p.size();
  const SimTime now = router() ? router()->scheduler().now() : 0;
  if (now - window_start_ >= timeunit::kSecond) {
    last_rate_ = static_cast<double>(window_count_) /
                 (static_cast<double>(now - window_start_) / timeunit::kSecond);
    window_start_ = now;
    window_count_ = 0;
  }
  ++window_count_;
  return {true, 0};
}

// --- Print -----------------------------------------------------------------------

Status Print::configure(const ConfigArgs& args) {
  if (auto v = args.keyword_or_positional("LABEL", 0)) label_ = *v;
  return ok_status();
}

Print::Verdict Print::process(Packet& p) {
  g_log.info(label_, ": ", p.to_string());
  return {true, 0};
}

// --- Tee -------------------------------------------------------------------------

Tee::Tee() { declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush}); }

Status Tee::configure(const ConfigArgs& args) {
  std::size_t n = 2;
  if (auto st = args.number_or_positional("N", 0, n, 1, 64); !st) return st;
  declare_ports({PortMode::kPush}, std::vector<PortMode>(n, PortMode::kPush));
  return ok_status();
}

void Tee::push(int, Packet&& p) { output_push_all(std::move(p)); }

// --- Switch ----------------------------------------------------------------------

Switch::Switch() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("switch", [this] { return std::to_string(current_); });
  add_write_handler("switch", [this](std::string_view v) -> Status {
    auto n = strings::parse_i64(v);
    if (!n || *n < -1 || *n >= n_outputs()) {
      return make_error("click.handler.bad-value", "switch port out of range");
    }
    current_ = static_cast<int>(*n);
    return ok_status();
  });
}

Status Switch::configure(const ConfigArgs& args) {
  std::size_t n = 2;
  if (auto st = args.number("N", n, 1, 64); !st) return st;
  declare_ports({PortMode::kPush}, std::vector<PortMode>(n, PortMode::kPush));
  return args.number_or_positional("PORT", 0, current_, -1, static_cast<int>(n) - 1);
}

void Switch::push(int, Packet&& p) {
  if (current_ >= 0) output_push(current_, std::move(p));
}

// --- RoundRobinSwitch --------------------------------------------------------------

RoundRobinSwitch::RoundRobinSwitch() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
}

Status RoundRobinSwitch::configure(const ConfigArgs& args) {
  std::size_t n = 2;
  if (auto st = args.number_or_positional("N", 0, n, 1, 64); !st) return st;
  declare_ports({PortMode::kPush}, std::vector<PortMode>(n, PortMode::kPush));
  return ok_status();
}

void RoundRobinSwitch::push(int, Packet&& p) {
  const int port = static_cast<int>(next_ % static_cast<std::size_t>(n_outputs()));
  ++next_;
  output_push(port, std::move(p));
}

// --- Paint / PaintSwitch / CheckPaint -----------------------------------------------

Status Paint::configure(const ConfigArgs& args) {
  return args.number_or_positional("COLOR", 0, color_);
}

Paint::Verdict Paint::process(Packet& p) {
  p.set_paint(color_);
  return {true, 0};
}

PaintSwitch::PaintSwitch() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
}

Status PaintSwitch::configure(const ConfigArgs& args) {
  std::size_t n = 2;
  if (auto st = args.number_or_positional("N", 0, n, 1, 256); !st) return st;
  declare_ports({PortMode::kPush}, std::vector<PortMode>(n, PortMode::kPush));
  return ok_status();
}

void PaintSwitch::push(int, Packet&& p) {
  int port = p.paint();
  if (port >= n_outputs()) port = n_outputs() - 1;
  output_push(port, std::move(p));
}

CheckPaint::CheckPaint() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
}

Status CheckPaint::configure(const ConfigArgs& args) {
  return args.number_or_positional("COLOR", 0, color_);
}

void CheckPaint::push(int, Packet&& p) {
  output_push(p.paint() == color_ ? 0 : 1, std::move(p));
}

// --- Classifier ---------------------------------------------------------------------

Classifier::Classifier() { declare_ports({PortMode::kPush}, {PortMode::kPush}); }

Status Classifier::configure(const ConfigArgs& args) {
  patterns_.clear();
  for (const auto& [key, value] : args.all()) {
    if (!key.empty()) return make_error("click.config.bad-arg", "Classifier takes patterns only");
    std::string_view v = strings::trim(value);
    Pattern pat;
    if (v == "-") {
      pat.catch_all = true;
    } else {
      auto slash = v.find('/');
      if (slash == std::string_view::npos) {
        return make_error("click.config.bad-arg", "Classifier pattern must be off/hex or '-'");
      }
      auto off = strings::parse_u64(v.substr(0, slash));
      if (!off) return make_error("click.config.bad-arg", "bad Classifier offset");
      pat.offset = static_cast<std::size_t>(*off);
      std::string_view hex = v.substr(slash + 1);
      if (hex.empty() || hex.size() % 2 != 0) {
        return make_error("click.config.bad-arg", "Classifier hex value must be even length");
      }
      for (std::size_t i = 0; i < hex.size(); i += 2) {
        unsigned byte = 0;
        for (int j = 0; j < 2; ++j) {
          char c = hex[i + static_cast<std::size_t>(j)];
          byte <<= 4;
          if (c >= '0' && c <= '9') byte |= static_cast<unsigned>(c - '0');
          else if (c >= 'a' && c <= 'f') byte |= static_cast<unsigned>(c - 'a' + 10);
          else if (c >= 'A' && c <= 'F') byte |= static_cast<unsigned>(c - 'A' + 10);
          else return make_error("click.config.bad-arg", "bad hex digit in Classifier");
        }
        pat.value.push_back(static_cast<std::uint8_t>(byte));
      }
    }
    patterns_.push_back(std::move(pat));
  }
  if (patterns_.empty()) {
    return make_error("click.config.bad-arg", "Classifier needs at least one pattern");
  }
  declare_ports({PortMode::kPush}, std::vector<PortMode>(patterns_.size(), PortMode::kPush));
  return ok_status();
}

int Classifier::classify(const Packet& p) const {
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    const Pattern& pat = patterns_[i];
    if (pat.catch_all) return static_cast<int>(i);
    if (pat.offset + pat.value.size() > p.size()) continue;
    if (std::equal(pat.value.begin(), pat.value.end(),
                   p.bytes().begin() + static_cast<long>(pat.offset))) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Classifier::push(int, Packet&& p) {
  const int port = classify(p);
  if (port >= 0) output_push(port, std::move(p));
  // No match: drop (Click semantics).
}

// --- IPClassifier -------------------------------------------------------------------

IPClassifier::IPClassifier() {
  declare_ports({PortMode::kPush}, {PortMode::kPush});
  add_read_handler("no_match_drops", [this] { return std::to_string(no_match_drops_); });
}

Status IPClassifier::configure(const ConfigArgs& args) {
  rules_.clear();
  for (const auto& [key, value] : args.all()) {
    std::string expr_text = key.empty() ? value : key + " " + value;
    std::string_view t = strings::trim(expr_text);
    Rule rule;
    if (t == "-") {
      rule.catch_all = true;
      rules_.push_back(std::move(rule));
      continue;
    }
    auto compiled = FilterExpr::compile(t);
    if (!compiled.ok()) return compiled.error();
    rule.expr = std::move(*compiled);
    rules_.push_back(std::move(rule));
  }
  if (rules_.empty()) {
    return make_error("click.config.bad-arg", "IPClassifier needs at least one expression");
  }
  declare_ports({PortMode::kPush}, std::vector<PortMode>(rules_.size(), PortMode::kPush));
  return ok_status();
}

Status IPClassifier::initialize(Router&) {
  // Compile the rule list into the per-protocol-leaf dispatch, the only
  // path packets take: build_router() hands out a router only after
  // every element initialized.
  std::vector<ClassifierTree::RuleSpec> specs;
  specs.reserve(rules_.size());
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    specs.push_back({static_cast<int>(i), rules_[i].catch_all ? nullptr : &rules_[i].expr});
  }
  tree_.compile(specs, /*miss_verdict=*/-1);
  add_read_handler("tree_residual_rules",
                   [this] { return std::to_string(tree_.residual_rules()); });
  return ok_status();
}

void IPClassifier::push(int, Packet&& p) {
  const int port = tree_.classify(ClassifyCtx::from_packet(p));
  if (port >= 0) {
    output_push(port, std::move(p));
    return;
  }
  ++no_match_drops_;
}

// --- IPFilter ------------------------------------------------------------------------

IPFilter::IPFilter() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("matched", [this] { return std::to_string(matched_); });
  add_read_handler("rejected", [this] { return std::to_string(rejected_); });
}

Status IPFilter::configure(const ConfigArgs& args) {
  std::string text;
  for (const auto& [key, value] : args.all()) {
    if (!text.empty()) text += ", ";
    text += key.empty() ? value : key + " " + value;
  }
  auto compiled = FilterExpr::compile(text);
  if (!compiled.ok()) return compiled.error();
  expr_ = std::move(*compiled);
  return ok_status();
}

void IPFilter::push(int, Packet&& p) {
  if (expr_ && expr_->matches(p)) {
    ++matched_;
    output_push(0, std::move(p));
  } else {
    ++rejected_;
    output_push(1, std::move(p));  // dropped if unconnected
  }
}

}  // namespace escape::click
