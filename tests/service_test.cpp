// Tests for the service layer: catalog template rendering, declarative
// topology / SG formats, and request preparation.
#include <gtest/gtest.h>

#include "click/config.hpp"
#include "service/formats.hpp"
#include "service/topologies.hpp"
#include "service/layer.hpp"

namespace escape::service {
namespace {

// --- catalog --------------------------------------------------------------------

TEST(Catalog, BuiltinsPresent) {
  auto catalog = VnfCatalog::with_builtins();
  for (const char* type :
       {"monitor", "firewall", "ratelimiter", "dpi", "delay", "headerrewriter", "napt",
        "loadbalancer"}) {
    EXPECT_TRUE(catalog.has(type)) << type;
  }
  EXPECT_FALSE(catalog.has("quantum-router"));
  EXPECT_GE(catalog.types().size(), 8u);
}

TEST(Catalog, EveryBuiltinRendersToValidClick) {
  auto catalog = VnfCatalog::with_builtins();
  EventScheduler sched;
  for (const auto& type : catalog.types()) {
    auto config = catalog.render(type, {});
    ASSERT_TRUE(config.ok()) << type << ": " << config.error().to_string();
    auto router = click::build_router(*config, sched);
    EXPECT_TRUE(router.ok()) << type << ": "
                             << (router.ok() ? "" : router.error().to_string());
  }
}

TEST(Catalog, ParameterSubstitution) {
  auto catalog = VnfCatalog::with_builtins();
  auto config = catalog.render("ratelimiter", {{"rate", "5000"}, {"queue", "64"}});
  ASSERT_TRUE(config.ok());
  EXPECT_NE(config->find("RATE 5000"), std::string::npos);
  EXPECT_NE(config->find("Queue(64)"), std::string::npos);
}

TEST(Catalog, DefaultsUsedWhenParamOmitted) {
  auto catalog = VnfCatalog::with_builtins();
  auto config = catalog.render("ratelimiter", {});
  ASSERT_TRUE(config.ok());
  EXPECT_NE(config->find("RATE 1000"), std::string::npos);
}

TEST(Catalog, UnknownParamRejected) {
  auto catalog = VnfCatalog::with_builtins();
  auto config = catalog.render("monitor", {{"bogus", "1"}});
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.error().code, "catalog.unknown-param");
}

TEST(Catalog, UnknownTypeRejected) {
  auto catalog = VnfCatalog::with_builtins();
  EXPECT_EQ(catalog.render("nope", {}).error().code, "catalog.unknown-type");
}

TEST(Catalog, CustomTemplateRegistration) {
  auto catalog = VnfCatalog::with_builtins();
  catalog.add(VnfTemplate{"mybox",
                          "custom",
                          "from :: FromDevice(DEVNAME in0);\n"
                          "p :: Paint(COLOR ${color});\n"
                          "to :: ToDevice(DEVNAME out0);\n"
                          "from -> p -> to;\n",
                          0.1,
                          1,
                          {{"color", "1"}}});
  auto config = catalog.render("mybox", {{"color", "7"}});
  ASSERT_TRUE(config.ok());
  EXPECT_NE(config->find("COLOR 7"), std::string::npos);
  // Braced and unbraced forms both substitute; missing closing brace errors.
  catalog.add(VnfTemplate{"broken", "", "x :: Paint(COLOR ${color);", 0.1, 1, {{"color", "1"}}});
  EXPECT_EQ(catalog.render("broken", {}).error().code, "catalog.bad-template");
}

// --- topology format ----------------------------------------------------------------

constexpr const char* kTopologyJson = R"({
  "name": "demo",
  "nodes": [
    {"name": "sap1", "kind": "host"},
    {"name": "s1", "kind": "switch"},
    {"name": "c1", "kind": "container", "cpu": 2.0, "slots": 4}
  ],
  "links": [
    {"a": "sap1", "a_port": 0, "b": "s1", "b_port": 1,
     "bw_mbps": 100, "delay_us": 500, "queue": 64},
    {"a": "c1", "a_port": 0, "b": "s1", "b_port": 2, "bw_mbps": 1000}
  ]
})";

TEST(TopologyFormat, ParseFields) {
  auto spec = TopologySpec::from_json(kTopologyJson);
  ASSERT_TRUE(spec.ok()) << spec.error().to_string();
  EXPECT_EQ(spec->name, "demo");
  ASSERT_EQ(spec->nodes.size(), 3u);
  EXPECT_EQ(spec->nodes[2].kind, "container");
  EXPECT_DOUBLE_EQ(spec->nodes[2].cpu, 2.0);
  EXPECT_EQ(spec->nodes[2].vnf_slots, 4u);
  ASSERT_EQ(spec->links.size(), 2u);
  EXPECT_EQ(spec->links[0].bandwidth_bps, 100'000'000u);
  EXPECT_EQ(spec->links[0].delay, 500 * timeunit::kMicrosecond);
  EXPECT_EQ(spec->links[0].queue_frames, 64u);
}

TEST(TopologyFormat, RoundTripThroughJson) {
  auto spec = TopologySpec::from_json(kTopologyJson);
  ASSERT_TRUE(spec.ok());
  auto again = TopologySpec::from_json(spec->to_json().dump());
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(again->nodes.size(), spec->nodes.size());
  EXPECT_EQ(again->links.size(), spec->links.size());
  EXPECT_EQ(again->links[0].bandwidth_bps, spec->links[0].bandwidth_bps);
}

TEST(TopologyFormat, BuildsLiveNetwork) {
  auto spec = TopologySpec::from_json(kTopologyJson);
  ASSERT_TRUE(spec.ok());
  EventScheduler sched;
  netemu::Network net(sched);
  ASSERT_TRUE(spec->build(net).ok());
  EXPECT_NE(net.host("sap1"), nullptr);
  EXPECT_NE(net.switch_node("s1"), nullptr);
  EXPECT_NE(net.container("c1"), nullptr);
  EXPECT_EQ(net.links().size(), 2u);
}

TEST(TopologyFormat, ToResourceGraph) {
  auto spec = TopologySpec::from_json(kTopologyJson);
  ASSERT_TRUE(spec.ok());
  auto view = spec->to_resource_graph();
  EXPECT_EQ(view.node("sap1")->kind, sg::ResourceKind::kSap);
  EXPECT_EQ(view.node("c1")->kind, sg::ResourceKind::kContainer);
  EXPECT_DOUBLE_EQ(view.node("c1")->cpu_capacity, 2.0);
  EXPECT_EQ(view.links().size(), 2u);
}

TEST(TopologyFormat, Errors) {
  EXPECT_FALSE(TopologySpec::from_json("[1,2]").ok());
  EXPECT_FALSE(TopologySpec::from_json(R"({"nodes":[{"name":"x","kind":"blimp"}]})").ok());
  EXPECT_FALSE(TopologySpec::from_json(R"({"nodes":[{"kind":"host"}]})").ok());
  EXPECT_FALSE(TopologySpec::from_json(R"({"links":[{"a":"x"}]})").ok());
}

TEST(TopologyFormat, LinkPortsOutsideSixteenBitsRejected) {
  for (const char* port : {"70000", "65536", "-1", "1e30"}) {
    for (const char* key : {"a_port", "b_port"}) {
      const std::string doc = std::string(R"({"links":[{"a":"h1","b":"s1",")") + key +
                              "\":" + port + "}]}";
      auto spec = TopologySpec::from_json(doc);
      ASSERT_FALSE(spec.ok()) << doc;
      EXPECT_EQ(spec.error().code, "format.topology");
    }
  }
  auto spec = TopologySpec::from_json(R"({"links":[{"a":"h1","a_port":65535,"b":"s1"}]})");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->links[0].port_a, 65535);
}

TEST(TopologyFormat, ReservedSwitchPortFailsBuild) {
  // 0xfffd (65533) is a valid 16-bit number but OFPP_CONTROLLER on a switch.
  auto spec = TopologySpec::from_json(R"({
    "nodes": [{"name": "sap1", "kind": "host"}, {"name": "s1", "kind": "switch"}],
    "links": [{"a": "sap1", "a_port": 0, "b": "s1", "b_port": 65533}]
  })");
  ASSERT_TRUE(spec.ok());
  EventScheduler sched;
  netemu::Network net(sched);
  auto s = spec->build(net);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "netemu.reserved-port");
  EXPECT_TRUE(net.links().empty());
}

// --- service graph format --------------------------------------------------------------

constexpr const char* kSgJson = R"({
  "name": "web-chain",
  "saps": ["sap1", "sap2"],
  "vnfs": [
    {"id": "fw", "type": "firewall", "cpu": 0.2,
     "params": {"rules": "allow ip", "default": "deny"}},
    {"id": "mon", "type": "monitor"}
  ],
  "links": [
    {"src": "sap1", "dst": "fw", "bw_mbps": 10},
    {"src": "fw", "dst": "mon", "bw_mbps": 10},
    {"src": "mon", "dst": "sap2", "bw_mbps": 10, "max_delay_ms": 5}
  ],
  "requirements": [
    {"a": "sap1", "b": "sap2", "bw_mbps": 10, "max_delay_ms": 40}
  ]
})";

TEST(SgFormat, ParseAndValidate) {
  auto graph = service_graph_from_json(kSgJson);
  ASSERT_TRUE(graph.ok()) << graph.error().to_string();
  EXPECT_EQ(graph->name(), "web-chain");
  EXPECT_EQ(graph->saps().size(), 2u);
  ASSERT_EQ(graph->vnfs().size(), 2u);
  EXPECT_EQ(graph->vnfs()[0].params.at("default"), "deny");
  EXPECT_DOUBLE_EQ(graph->vnfs()[0].cpu_demand, 0.2);
  ASSERT_EQ(graph->requirements().size(), 1u);
  EXPECT_EQ(graph->requirements()[0].max_delay, 40 * timeunit::kMillisecond);
  auto order = graph->chain_order();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(*order, (std::vector<std::string>{"sap1", "fw", "mon", "sap2"}));
}

TEST(SgFormat, RoundTrip) {
  auto graph = service_graph_from_json(kSgJson);
  ASSERT_TRUE(graph.ok());
  auto again = service_graph_from_json(service_graph_to_json(*graph).dump());
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(again->vnfs().size(), 2u);
  EXPECT_EQ(again->links().size(), 3u);
  EXPECT_EQ(again->requirements().size(), 1u);
}

TEST(SgFormat, InvalidGraphRejected) {
  // VNF without links fails SG validation inside the parser.
  EXPECT_FALSE(service_graph_from_json(
                   R"({"saps":["a"],"vnfs":[{"id":"v","type":"monitor"}],"links":[]})")
                   .ok());
  EXPECT_FALSE(service_graph_from_json(R"({"vnfs":[{"id":"v"}]})").ok());
}

// --- service layer -----------------------------------------------------------------------

TEST(ServiceLayer, PrepareRendersEveryVnf) {
  ServiceLayer layer;
  auto graph = service_graph_from_json(kSgJson);
  ASSERT_TRUE(graph.ok());
  auto rendered = layer.prepare(*graph);
  ASSERT_TRUE(rendered.ok()) << rendered.error().to_string();
  ASSERT_EQ(rendered->size(), 2u);
  EXPECT_EQ((*rendered)[0].id, "fw");
  EXPECT_NE((*rendered)[0].click_config.find("DEFAULT deny"), std::string::npos);
  EXPECT_EQ((*rendered)[1].vnf_type, "monitor");
  // Monitor had no explicit cpu: graph default (0.1) applies.
  EXPECT_DOUBLE_EQ((*rendered)[1].cpu_demand, 0.1);
}

TEST(ServiceLayer, UnknownVnfTypeRejected) {
  ServiceLayer layer;
  sg::ServiceGraph g;
  g.add_sap("a").add_sap("b").add_vnf("v", "hologram").add_link("a", "v").add_link("v", "b");
  auto rendered = layer.prepare(g);
  ASSERT_FALSE(rendered.ok());
  EXPECT_EQ(rendered.error().code, "service.unknown-vnf-type");
}

TEST(ServiceLayer, SlaDelayCheck) {
  sg::E2eRequirement req{"a", "b", 0, 10 * timeunit::kMillisecond};
  auto ok = ServiceLayer::check_delay(req, 8.0);
  EXPECT_TRUE(ok.delay_met);
  auto bad = ServiceLayer::check_delay(req, 12.0);
  EXPECT_FALSE(bad.delay_met);
  sg::E2eRequirement unconstrained{"a", "b", 0, 0};
  EXPECT_TRUE(ServiceLayer::check_delay(unconstrained, 1e9).delay_met);
}


// --- topology generators + dot export -----------------------------------------

TEST(Topologies, LinearGeneratesDeployableTopology) {
  auto spec = topologies::linear(4);
  EventScheduler sched;
  netemu::Network net(sched);
  ASSERT_TRUE(spec.build(net).ok());
  EXPECT_EQ(net.switch_count(), 4u);
  EXPECT_EQ(net.container_count(), 4u);
  EXPECT_EQ(net.host_count(), 2u);
  // Every generated topology routes sap1 -> sap2.
  auto view = spec.to_resource_graph();
  EXPECT_TRUE(view.shortest_path("sap1", "sap2"));
}

TEST(Topologies, StarAndRingAreWellFormed) {
  for (auto spec : {topologies::star(3), topologies::ring(6)}) {
    EventScheduler sched;
    netemu::Network net(sched);
    ASSERT_TRUE(spec.build(net).ok()) << spec.name;
    auto view = spec.to_resource_graph();
    EXPECT_FALSE(view.containers().empty()) << spec.name;
  }
  // Ring: both directions around the ring exist.
  auto ring = topologies::ring(6).to_resource_graph();
  auto path = ring.shortest_path("s1", "s4");
  ASSERT_TRUE(path);
  EXPECT_LE(path->link_indices.size(), 3u);
}

TEST(Topologies, DotExports) {
  auto spec = topologies::linear(2);
  std::string dot = topologies::to_dot(spec);
  EXPECT_NE(dot.find("graph \"linear-2\""), std::string::npos);
  EXPECT_NE(dot.find("\"sap1\" [shape=ellipse]"), std::string::npos);
  EXPECT_NE(dot.find("shape=box3d"), std::string::npos);  // containers
  EXPECT_NE(dot.find("--"), std::string::npos);

  sg::ServiceGraph g("sgdot");
  g.add_sap("a").add_sap("b").add_vnf("fw", "firewall", {}, 0.25);
  g.add_link("a", "fw", 10'000'000).add_link("fw", "b");
  std::string sgdot = topologies::to_dot(g);
  EXPECT_NE(sgdot.find("digraph \"sgdot\""), std::string::npos);
  EXPECT_NE(sgdot.find("(firewall, cpu 0.25)"), std::string::npos);
  EXPECT_NE(sgdot.find("\"a\" -> \"fw\" [label=\"10M\"]"), std::string::npos);
}

}  // namespace
}  // namespace escape::service
