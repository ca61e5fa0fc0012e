#include "click/router.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/strings.hpp"

namespace escape::click {

Router::~Router() {
  if (metrics_registry_) metrics_registry_->remove_owner(this);
}

void Router::export_metrics(obs::MetricsRegistry& registry, obs::Labels base_labels) {
  metrics_registry_ = &registry;
  registry.collect(this, [this, base_labels = std::move(base_labels)](obs::SampleSink& sink) {
    for (const Element* e : order_) {
      for (const auto& handler : e->read_handler_names()) {
        auto value = e->call_read(handler);
        if (!value.ok()) continue;
        char* end = nullptr;
        const double parsed = std::strtod(value->c_str(), &end);
        if (end == value->c_str() || (end && *end != '\0')) continue;
        obs::Labels labels = base_labels;
        labels.emplace_back("element", e->name());
        labels.emplace_back("handler", handler);
        sink.gauge("escape_click_handler_value", std::move(labels), parsed);
      }
    }
  });
}

void Router::set_cpu_share(double share) {
  cpu_share_ = std::clamp(share, 0.001, 1.0);
}

SimDuration Router::scale_delay(SimDuration nominal) const {
  if (cpu_share_ >= 1.0) return nominal;
  return static_cast<SimDuration>(std::llround(static_cast<double>(nominal) / cpu_share_));
}

Result<Element*> Router::add_element(std::string name, std::unique_ptr<Element> element) {
  if (initialized_) {
    return make_error("click.router.frozen", "cannot add elements after initialize()");
  }
  if (elements_.count(name)) {
    return make_error("click.router.duplicate", "duplicate element name: " + name);
  }
  element->name_ = name;
  element->router_ = this;
  Element* raw = element.get();
  order_.push_back(raw);
  elements_.emplace(std::move(name), std::move(element));
  return raw;
}

Status Router::connect(const Connection& conn) {
  if (initialized_) {
    return make_error("click.router.frozen", "cannot connect after initialize()");
  }
  Element* from = element(conn.from);
  Element* to = element(conn.to);
  if (!from) return make_error("click.router.unknown-element", "unknown element: " + conn.from);
  if (!to) return make_error("click.router.unknown-element", "unknown element: " + conn.to);
  if (conn.from_port < 0 || conn.from_port >= from->n_outputs()) {
    return make_error("click.router.bad-port",
                      strings::format("%s has no output port %d", conn.from.c_str(),
                                      conn.from_port));
  }
  if (conn.to_port < 0 || conn.to_port >= to->n_inputs()) {
    return make_error("click.router.bad-port",
                      strings::format("%s has no input port %d", conn.to.c_str(), conn.to_port));
  }
  auto& out = from->outputs_[static_cast<std::size_t>(conn.from_port)];
  if (out.peer) {
    return make_error("click.router.fanout",
                      strings::format("%s[%d] already connected (use Tee for fan-out)",
                                      conn.from.c_str(), conn.from_port));
  }
  auto& in = to->inputs_[static_cast<std::size_t>(conn.to_port)];
  out.peer = to;
  out.peer_port = conn.to_port;
  // Pull inputs remember a single upstream; push inputs may have many
  // upstreams (the last one recorded is irrelevant for push dispatch).
  if (!in.peer) {
    in.peer = from;
    in.peer_port = conn.from_port;
  } else if (in.declared == PortMode::kPull || in.resolved == PortMode::kPull) {
    return make_error("click.router.fanin",
                      strings::format("pull input %s[%d] has multiple upstreams",
                                      conn.to.c_str(), conn.to_port));
  }
  connections_.push_back(conn);
  return ok_status();
}

Status Router::resolve_processing() {
  // Fixpoint propagation of concrete modes across connections; an element
  // derived from SimpleElement additionally keeps all its ports in one
  // mode (input and output resolve together).
  bool changed = true;
  int iterations = 0;
  while (changed && ++iterations < 1000) {
    changed = false;
    for (const auto& c : connections_) {
      Element* from = element(c.from);
      Element* to = element(c.to);
      auto& out = from->outputs_[static_cast<std::size_t>(c.from_port)];
      auto& in = to->inputs_[static_cast<std::size_t>(c.to_port)];
      if (out.resolved != PortMode::kAgnostic && in.resolved == PortMode::kAgnostic) {
        in.resolved = out.resolved;
        changed = true;
      } else if (in.resolved != PortMode::kAgnostic && out.resolved == PortMode::kAgnostic) {
        out.resolved = in.resolved;
        changed = true;
      }
    }
    // Propagate through agnostic pass-through elements (SimpleElement
    // semantics): if any port of an all-agnostic-declared element
    // resolved, resolve its remaining agnostic ports identically.
    for (Element* e : order_) {
      bool all_agnostic_declared = true;
      for (const auto& p : e->inputs_) {
        if (p.declared != PortMode::kAgnostic) all_agnostic_declared = false;
      }
      for (const auto& p : e->outputs_) {
        if (p.declared != PortMode::kAgnostic) all_agnostic_declared = false;
      }
      if (!all_agnostic_declared) continue;
      PortMode found = PortMode::kAgnostic;
      for (const auto& p : e->inputs_) {
        if (p.resolved != PortMode::kAgnostic) found = p.resolved;
      }
      for (const auto& p : e->outputs_) {
        if (p.resolved != PortMode::kAgnostic) found = p.resolved;
      }
      if (found == PortMode::kAgnostic) continue;
      for (auto& p : e->inputs_) {
        if (p.resolved == PortMode::kAgnostic) {
          p.resolved = found;
          changed = true;
        }
      }
      for (auto& p : e->outputs_) {
        if (p.resolved == PortMode::kAgnostic) {
          p.resolved = found;
          changed = true;
        }
      }
    }
  }
  // Anything still agnostic defaults to push (Click's default for
  // dangling agnostic ports).
  for (Element* e : order_) {
    for (auto& p : e->inputs_) {
      if (p.resolved == PortMode::kAgnostic) p.resolved = PortMode::kPush;
    }
    for (auto& p : e->outputs_) {
      if (p.resolved == PortMode::kAgnostic) p.resolved = PortMode::kPush;
    }
  }
  return ok_status();
}

Status Router::validate_connections() {
  for (const auto& c : connections_) {
    Element* from = element(c.from);
    Element* to = element(c.to);
    PortMode out_mode = from->output_mode(c.from_port);
    PortMode in_mode = to->input_mode(c.to_port);
    if (out_mode != in_mode) {
      return make_error(
          "click.router.processing",
          strings::format("%s[%d] (%s) -> [%d]%s (%s): processing conflict; insert a Queue",
                          c.from.c_str(), c.from_port,
                          std::string(port_mode_name(out_mode)).c_str(), c.to_port,
                          c.to.c_str(), std::string(port_mode_name(in_mode)).c_str()));
    }
  }
  return ok_status();
}

Status Router::initialize() {
  if (initialized_) return make_error("click.router.frozen", "already initialized");
  if (auto s = resolve_processing(); !s.ok()) return s;
  if (auto s = validate_connections(); !s.ok()) return s;
  for (Element* e : order_) {
    if (auto s = e->initialize(*this); !s.ok()) {
      return make_error(s.error().code,
                        e->name() + " (" + std::string(e->class_name()) + "): " +
                            s.error().message);
    }
  }
  initialized_ = true;
  return ok_status();
}

Element* Router::element(std::string_view name) {
  auto it = elements_.find(name);
  return it == elements_.end() ? nullptr : it->second.get();
}

const Element* Router::element(std::string_view name) const {
  auto it = elements_.find(name);
  return it == elements_.end() ? nullptr : it->second.get();
}

Result<std::string> Router::call_read(std::string_view spec) const {
  auto dot = spec.rfind('.');
  if (dot == std::string_view::npos) {
    return make_error("click.handler.bad-spec", "expected 'element.handler'");
  }
  const Element* e = element(spec.substr(0, dot));
  if (!e) {
    return make_error("click.handler.unknown-element",
                      "unknown element: " + std::string(spec.substr(0, dot)));
  }
  return e->call_read(spec.substr(dot + 1));
}

Status Router::call_write(std::string_view spec, std::string_view value) {
  auto dot = spec.rfind('.');
  if (dot == std::string_view::npos) {
    return make_error("click.handler.bad-spec", "expected 'element.handler'");
  }
  Element* e = element(spec.substr(0, dot));
  if (!e) {
    return make_error("click.handler.unknown-element",
                      "unknown element: " + std::string(spec.substr(0, dot)));
  }
  return e->call_write(spec.substr(dot + 1), value);
}

std::vector<std::string> Router::list_read_handlers() const {
  std::vector<std::string> out;
  for (const Element* e : order_) {
    for (const auto& h : e->read_handler_names()) out.push_back(e->name() + "." + h);
  }
  return out;
}

}  // namespace escape::click
