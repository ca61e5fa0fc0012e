#include "click/element.hpp"

#include "click/router.hpp"
#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace escape::click {

std::string_view port_mode_name(PortMode m) {
  switch (m) {
    case PortMode::kPush: return "push";
    case PortMode::kPull: return "pull";
    case PortMode::kAgnostic: return "agnostic";
  }
  return "?";
}

// --- ConfigArgs --------------------------------------------------------------

ConfigArgs ConfigArgs::parse(std::string_view raw) {
  std::vector<std::pair<std::string, std::string>> args;
  // Split on commas at depth 0 (parentheses / quotes nest).
  std::vector<std::string> items;
  std::string current;
  int depth = 0;
  bool in_quote = false;
  for (char c : raw) {
    if (in_quote) {
      current += c;
      if (c == '"') in_quote = false;
      continue;
    }
    switch (c) {
      case '"': in_quote = true; current += c; break;
      case '(': ++depth; current += c; break;
      case ')': --depth; current += c; break;
      case ',':
        if (depth == 0) {
          items.push_back(current);
          current.clear();
        } else {
          current += c;
        }
        break;
      default: current += c;
    }
  }
  if (!strings::trim(current).empty() || !items.empty()) items.push_back(current);

  for (auto& item : items) {
    std::string_view t = strings::trim(item);
    if (t.empty()) {
      args.emplace_back("", "");
      continue;
    }
    // Keyword form: first token all-caps identifier followed by a space.
    std::size_t sp = t.find(' ');
    if (sp != std::string_view::npos) {
      std::string_view head = t.substr(0, sp);
      bool is_keyword = !head.empty();
      for (char c : head) {
        if (!(std::isupper(static_cast<unsigned char>(c)) || c == '_' ||
              std::isdigit(static_cast<unsigned char>(c)))) {
          is_keyword = false;
          break;
        }
      }
      if (is_keyword && std::isupper(static_cast<unsigned char>(head[0]))) {
        args.emplace_back(std::string(head), std::string(strings::trim(t.substr(sp + 1))));
        continue;
      }
    }
    args.emplace_back("", std::string(t));
  }
  return ConfigArgs(std::move(args));
}

std::optional<std::string> ConfigArgs::positional(std::size_t index) const {
  std::size_t seen = 0;
  for (const auto& [k, v] : args_) {
    if (!k.empty()) continue;
    if (seen == index) return v;
    ++seen;
  }
  return std::nullopt;
}

std::optional<std::string> ConfigArgs::keyword(std::string_view key) const {
  for (const auto& [k, v] : args_) {
    if (strings::iequals(k, key)) return v;
  }
  return std::nullopt;
}

std::optional<std::string> ConfigArgs::keyword_or_positional(std::string_view key,
                                                             std::size_t index) const {
  if (auto v = keyword(key)) return v;
  return positional(index);
}

namespace {
std::string bound(std::uint64_t v) { return std::to_string(v); }
std::string bound(std::int64_t v) { return std::to_string(v); }
std::string bound(double v) { return strings::format("%g", v); }

template <class W, class Parse>
Status checked(std::string_view key, const std::optional<std::string>& raw, Parse parse, W lo,
               W hi, W& value) {
  if (!raw) return ok_status();
  const std::optional<W> parsed = parse(*raw);
  // Written so that a NaN fails too.
  if (!(parsed && lo <= *parsed && *parsed <= hi)) {
    return make_error("click.config.bad-arg", std::string(key) + " must be " + bound(lo) + ".." +
                                                  bound(hi) + ", not '" + *raw + "'");
  }
  value = *parsed;
  return ok_status();
}
}  // namespace

// No positional argument has index kKeywordOnly, so the fallback finds
// nothing and only the keyword is read.
Status ConfigArgs::parse_number(std::string_view key, std::size_t index, std::uint64_t lo,
                                std::uint64_t hi, std::uint64_t& value) const {
  return checked(key, keyword_or_positional(key, index), strings::parse_scaled_u64, lo, hi, value);
}

Status ConfigArgs::parse_number(std::string_view key, std::size_t index, std::int64_t lo,
                                std::int64_t hi, std::int64_t& value) const {
  return checked(key, keyword_or_positional(key, index), strings::parse_i64, lo, hi, value);
}

Status ConfigArgs::parse_number(std::string_view key, std::size_t index, double lo, double hi,
                                double& value) const {
  return checked(key, keyword_or_positional(key, index), strings::parse_double, lo, hi, value);
}

// --- Task --------------------------------------------------------------------

Task::Task(Router* router, Work work) : router_(router), work_(std::move(work)) {}

void Task::reschedule(SimDuration delay) {
  if (handle_.pending()) return;
  handle_ = router_->scheduler().schedule(delay, [this] { fire(); });
}

void Task::fire() {
  auto next = work_();
  if (next) {
    handle_ = router_->scheduler().schedule(*next, [this] { fire(); });
  }
}

// --- Element -----------------------------------------------------------------

void Element::declare_ports(std::vector<PortMode> inputs, std::vector<PortMode> outputs) {
  inputs_.clear();
  outputs_.clear();
  for (auto m : inputs) inputs_.push_back(InPort{m, m, nullptr, -1});
  for (auto m : outputs) outputs_.push_back(OutPort{m, m, nullptr, -1});
}

Status Element::configure(const ConfigArgs&) { return ok_status(); }

Status Element::initialize(Router&) { return ok_status(); }

void Element::push(int, Packet&&) {
  // Default: packets pushed into an element with no push implementation
  // are dropped (mirrors Click's Element::push complaint).
  ++unconnected_drops_;
}

std::optional<Packet> Element::pull(int) {
  if (!inputs_.empty() && inputs_[0].peer) return input_pull(0);
  return std::nullopt;
}

void Element::output_push(int port, Packet&& p) {
  auto& out = outputs_[static_cast<std::size_t>(port)];
  if (!out.peer) {
    ++unconnected_drops_;
    return;
  }
  out.peer->push(out.peer_port, std::move(p));
}

void Element::output_push_all(Packet&& p) {
  // Clone only for the first N-1 connected outputs; the original moves
  // into the last. Every clone is a full buffer copy and is counted.
  int last = -1;
  for (int i = n_outputs() - 1; i >= 0; --i) {
    if (output_connected(i)) {
      last = i;
      break;
    }
  }
  if (last < 0) {
    unconnected_drops_ += static_cast<std::uint64_t>(n_outputs());
    return;
  }
  for (int i = 0; i < last; ++i) {
    if (!output_connected(i)) {
      ++unconnected_drops_;
      continue;
    }
    Packet copy = p;
    stats::packet_clones().add();
    output_push(i, std::move(copy));
  }
  output_push(last, std::move(p));
}

std::optional<Packet> Element::input_pull(int port) {
  auto& in = inputs_[static_cast<std::size_t>(port)];
  if (!in.peer) return std::nullopt;
  return in.peer->pull(in.peer_port);
}

bool Element::output_connected(int port) const {
  return outputs_[static_cast<std::size_t>(port)].peer != nullptr;
}

void Element::add_read_handler(std::string name, ReadHandler fn) {
  read_handlers_.emplace_back(std::move(name), std::move(fn));
}

void Element::add_write_handler(std::string name, WriteHandler fn) {
  write_handlers_.emplace_back(std::move(name), std::move(fn));
}

std::vector<std::string> Element::read_handler_names() const {
  std::vector<std::string> names;
  names.reserve(read_handlers_.size());
  for (const auto& [n, _] : read_handlers_) names.push_back(n);
  return names;
}

std::vector<std::string> Element::write_handler_names() const {
  std::vector<std::string> names;
  names.reserve(write_handlers_.size());
  for (const auto& [n, _] : write_handlers_) names.push_back(n);
  return names;
}

Result<std::string> Element::call_read(std::string_view handler) const {
  for (const auto& [n, fn] : read_handlers_) {
    if (n == handler) return fn();
  }
  return make_error("click.handler.unknown",
                    strings::format("%s has no read handler '%.*s'", name_.c_str(),
                                    static_cast<int>(handler.size()), handler.data()));
}

Status Element::call_write(std::string_view handler, std::string_view value) {
  for (auto& [n, fn] : write_handlers_) {
    if (n == handler) return fn(value);
  }
  return make_error("click.handler.unknown",
                    strings::format("%s has no write handler '%.*s'", name_.c_str(),
                                    static_cast<int>(handler.size()), handler.data()));
}

// --- SimpleElement -----------------------------------------------------------

void SimpleElement::push(int, Packet&& p) {
  Verdict v = process(p);
  if (v.keep) output_push(v.out_port, std::move(p));
}

std::optional<Packet> SimpleElement::pull(int) {
  while (true) {
    auto p = input_pull(0);
    if (!p) return std::nullopt;
    Verdict v = process(*p);
    if (v.keep) return p;
    // Dropped in pull context: try the next upstream packet.
  }
}

}  // namespace escape::click
