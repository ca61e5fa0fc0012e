// Router: an initialized Click configuration -- the element graph of one
// VNF instance. Owns the elements, validates and resolves port
// processing, and exposes the "element.handler" management namespace.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "click/element.hpp"
#include "obs/metrics.hpp"
#include "util/event.hpp"
#include "util/logging.hpp"
#include "util/result.hpp"

namespace escape::click {

/// One parsed connection: from[from_port] -> [to_port]to.
struct Connection {
  std::string from;
  int from_port = 0;
  std::string to;
  int to_port = 0;
};

class Router {
 public:
  /// `scheduler` drives tasks and timers; it outlives the router.
  explicit Router(EventScheduler& scheduler) : scheduler_(&scheduler) {}

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Unregisters any metrics exported via export_metrics().
  ~Router();

  EventScheduler& scheduler() { return *scheduler_; }

  /// CPU share in (0, 1]: the fraction of a CPU this router (VNF) gets
  /// from its container -- the cgroup-substitute. Task delays are scaled
  /// by 1/share, slowing packet processing proportionally.
  void set_cpu_share(double share);
  double cpu_share() const { return cpu_share_; }

  /// Scales a nominal processing delay by the CPU share.
  SimDuration scale_delay(SimDuration nominal) const;

  /// Adds an element under `name` (must be unique). Returns it.
  Result<Element*> add_element(std::string name, std::unique_ptr<Element> element);

  /// Connects from[from_port] -> [to_port]to. Elements must exist and the
  /// ports be in range.
  Status connect(const Connection& conn);

  /// Resolves agnostic ports, validates processing and fan-out rules,
  /// then calls initialize() on every element in declaration order.
  Status initialize();

  bool initialized() const { return initialized_; }

  Element* element(std::string_view name);
  const Element* element(std::string_view name) const;
  const std::vector<Element*>& elements_in_order() const { return order_; }

  /// Dispatches "element.handler" reads/writes (the Clicky surface).
  Result<std::string> call_read(std::string_view spec) const;
  Status call_write(std::string_view spec, std::string_view value);

  /// All "element.handler" read handler names, for discovery.
  std::vector<std::string> list_read_handlers() const;

  /// Registers one collector in `registry` that emits every numeric
  /// read handler as a gauge escape_click_handler_value{<base_labels>,
  /// element=...,handler=...} -- the Clicky monitoring surface made
  /// scrapeable. Handlers are read at render time; one whose value does
  /// not parse as a number is skipped and is no series. The collector
  /// is removed on destruction (a stopped VNF disappears from the
  /// registry). Call after initialize().
  void export_metrics(obs::MetricsRegistry& registry, obs::Labels base_labels);

 private:
  Status resolve_processing();
  Status validate_connections();

  EventScheduler* scheduler_;
  obs::MetricsRegistry* metrics_registry_ = nullptr;
  double cpu_share_ = 1.0;
  bool initialized_ = false;
  std::map<std::string, std::unique_ptr<Element>, std::less<>> elements_;
  std::vector<Element*> order_;
  std::vector<Connection> connections_;
  Logger log_{"click.router"};
};

}  // namespace escape::click
