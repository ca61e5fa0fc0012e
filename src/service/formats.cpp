#include "service/formats.hpp"

namespace escape::service {

namespace {

/// A link endpoint's port: absent reads as 0, and a number outside
/// [0, 65535] is rejected rather than wrapped into a 16-bit port.
Result<std::uint16_t> link_port(const json::Value& link, const char* key) {
  const double port = link[key].as_double(0);
  if (!(port >= 0 && port <= 0xffff)) {
    return make_error("format.topology", link["a"].as_string() + "-" +
                                             link["b"].as_string() + ": " + key +
                                             " must lie in [0, 65535]");
  }
  return static_cast<std::uint16_t>(port);
}

}  // namespace

// --- TopologySpec --------------------------------------------------------------

Result<TopologySpec> TopologySpec::from_json(std::string_view text) {
  auto doc = json::parse(text);
  if (!doc.ok()) return doc.error();
  const json::Value& root = *doc;
  if (!root.is_object()) return make_error("format.topology", "document must be an object");

  TopologySpec spec;
  if (root.has("name")) spec.name = root["name"].as_string();

  for (const auto& n : root["nodes"].as_array()) {
    TopologyNodeSpec node;
    node.name = n["name"].as_string();
    node.kind = n["kind"].as_string();
    if (node.name.empty()) return make_error("format.topology", "node without name");
    if (node.kind != "host" && node.kind != "switch" && node.kind != "container") {
      return make_error("format.topology",
                        node.name + ": kind must be host/switch/container");
    }
    if (n.has("cpu")) node.cpu = n["cpu"].as_double(1.0);
    if (n.has("slots")) node.vnf_slots = static_cast<std::size_t>(n["slots"].as_int(8));
    spec.nodes.push_back(std::move(node));
  }

  for (const auto& l : root["links"].as_array()) {
    TopologyLinkSpec link;
    link.a = l["a"].as_string();
    link.b = l["b"].as_string();
    auto port_a = link_port(l, "a_port");
    if (!port_a.ok()) return port_a.error();
    auto port_b = link_port(l, "b_port");
    if (!port_b.ok()) return port_b.error();
    link.port_a = *port_a;
    link.port_b = *port_b;
    if (l.has("bw_mbps")) {
      link.bandwidth_bps = static_cast<std::uint64_t>(l["bw_mbps"].as_double() * 1e6);
    }
    if (l.has("delay_us")) {
      link.delay = static_cast<SimDuration>(l["delay_us"].as_double() *
                                            timeunit::kMicrosecond);
    }
    if (l.has("queue")) link.queue_frames = static_cast<std::size_t>(l["queue"].as_int(100));
    if (link.a.empty() || link.b.empty()) {
      return make_error("format.topology", "link endpoints must be named");
    }
    spec.links.push_back(std::move(link));
  }
  return spec;
}

json::Value TopologySpec::to_json() const {
  json::Object root;
  root["name"] = name;
  json::Array nodes_json;
  for (const auto& n : nodes) {
    json::Object o;
    o["name"] = n.name;
    o["kind"] = n.kind;
    if (n.kind == "container") {
      o["cpu"] = n.cpu;
      o["slots"] = static_cast<std::int64_t>(n.vnf_slots);
    }
    nodes_json.push_back(std::move(o));
  }
  root["nodes"] = std::move(nodes_json);
  json::Array links_json;
  for (const auto& l : links) {
    json::Object o;
    o["a"] = l.a;
    o["a_port"] = static_cast<std::int64_t>(l.port_a);
    o["b"] = l.b;
    o["b_port"] = static_cast<std::int64_t>(l.port_b);
    o["bw_mbps"] = static_cast<double>(l.bandwidth_bps) / 1e6;
    o["delay_us"] = static_cast<double>(l.delay) / timeunit::kMicrosecond;
    o["queue"] = static_cast<std::int64_t>(l.queue_frames);
    links_json.push_back(std::move(o));
  }
  root["links"] = std::move(links_json);
  return json::Value(std::move(root));
}

Status TopologySpec::build(netemu::Network& network) const {
  for (const auto& n : nodes) {
    if (n.kind == "host") {
      network.add_host(n.name);
    } else if (n.kind == "switch") {
      network.add_switch(n.name);
    } else {
      network.add_container(n.name, n.cpu, n.vnf_slots);
    }
  }
  for (const auto& l : links) {
    netemu::LinkConfig cfg;
    cfg.bandwidth_bps = l.bandwidth_bps;
    cfg.delay = l.delay;
    cfg.queue_frames = l.queue_frames;
    if (auto s = network.add_link(l.a, l.port_a, l.b, l.port_b, cfg); !s.ok()) return s;
  }
  return ok_status();
}

sg::ResourceGraph TopologySpec::to_resource_graph() const {
  sg::ResourceGraph graph;
  for (const auto& n : nodes) {
    if (n.kind == "host") {
      graph.add_sap(n.name);
    } else if (n.kind == "switch") {
      graph.add_switch(n.name);
    } else {
      graph.add_container(n.name, n.cpu, n.vnf_slots);
    }
  }
  for (const auto& l : links) {
    graph.add_link(l.a, l.port_a, l.b, l.port_b, l.bandwidth_bps, l.delay);
  }
  return graph;
}

// --- ServiceGraph JSON ----------------------------------------------------------

Result<sg::ServiceGraph> service_graph_from_json(std::string_view text) {
  auto doc = json::parse(text);
  if (!doc.ok()) return doc.error();
  const json::Value& root = *doc;
  if (!root.is_object()) return make_error("format.sg", "document must be an object");

  sg::ServiceGraph graph(root.has("name") ? root["name"].as_string() : "sg");

  for (const auto& s : root["saps"].as_array()) {
    graph.add_sap(s.as_string());
  }
  for (const auto& v : root["vnfs"].as_array()) {
    sg::VnfNode vnf;
    vnf.id = v["id"].as_string();
    vnf.vnf_type = v["type"].as_string();
    if (v.has("cpu")) vnf.cpu_demand = v["cpu"].as_double(0.1);
    for (const auto& [key, value] : v["params"].as_object()) {
      vnf.params[key] = value.as_string();
    }
    if (vnf.id.empty() || vnf.vnf_type.empty()) {
      return make_error("format.sg", "VNF entries need id and type");
    }
    graph.add_vnf(std::move(vnf));
  }
  for (const auto& l : root["links"].as_array()) {
    sg::SgLink link;
    link.src = l["src"].as_string();
    link.dst = l["dst"].as_string();
    if (l.has("bw_mbps")) {
      link.bandwidth_bps = static_cast<std::uint64_t>(l["bw_mbps"].as_double() * 1e6);
    }
    if (l.has("max_delay_ms")) {
      link.max_delay = static_cast<SimDuration>(l["max_delay_ms"].as_double() *
                                                timeunit::kMillisecond);
    }
    graph.add_link(std::move(link));
  }
  for (const auto& r : root["requirements"].as_array()) {
    sg::E2eRequirement req;
    req.sap_a = r["a"].as_string();
    req.sap_b = r["b"].as_string();
    if (r.has("bw_mbps")) {
      req.bandwidth_bps = static_cast<std::uint64_t>(r["bw_mbps"].as_double() * 1e6);
    }
    if (r.has("max_delay_ms")) {
      req.max_delay = static_cast<SimDuration>(r["max_delay_ms"].as_double() *
                                               timeunit::kMillisecond);
    }
    graph.add_requirement(std::move(req));
  }
  if (auto s = graph.validate(); !s.ok()) return s.error();
  return graph;
}

json::Value service_graph_to_json(const sg::ServiceGraph& graph) {
  json::Object root;
  root["name"] = graph.name();
  json::Array saps;
  for (const auto& s : graph.saps()) saps.push_back(s.id);
  root["saps"] = std::move(saps);
  json::Array vnfs;
  for (const auto& v : graph.vnfs()) {
    json::Object o;
    o["id"] = v.id;
    o["type"] = v.vnf_type;
    o["cpu"] = v.cpu_demand;
    json::Object params;
    for (const auto& [k, val] : v.params) params[k] = val;
    o["params"] = std::move(params);
    vnfs.push_back(std::move(o));
  }
  root["vnfs"] = std::move(vnfs);
  json::Array links;
  for (const auto& l : graph.links()) {
    json::Object o;
    o["src"] = l.src;
    o["dst"] = l.dst;
    if (l.bandwidth_bps) o["bw_mbps"] = static_cast<double>(l.bandwidth_bps) / 1e6;
    if (l.max_delay) {
      o["max_delay_ms"] = static_cast<double>(l.max_delay) / timeunit::kMillisecond;
    }
    links.push_back(std::move(o));
  }
  root["links"] = std::move(links);
  json::Array reqs;
  for (const auto& r : graph.requirements()) {
    json::Object o;
    o["a"] = r.sap_a;
    o["b"] = r.sap_b;
    if (r.bandwidth_bps) o["bw_mbps"] = static_cast<double>(r.bandwidth_bps) / 1e6;
    if (r.max_delay) {
      o["max_delay_ms"] = static_cast<double>(r.max_delay) / timeunit::kMillisecond;
    }
    reqs.push_back(std::move(o));
  }
  root["requirements"] = std::move(reqs);
  return json::Value(std::move(root));
}

}  // namespace escape::service
