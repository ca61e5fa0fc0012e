// A scripted NETCONF agent session, recorded on the wire.
//
// The agent and the manager talk through two pipes joined by a relay
// that lives here, in the test: it forwards every chunk either end sends
// and records it, so nothing in the library under test is hooked. The
// script walks every VNF agent operation over the five catalog VNF types
// (monitor, firewall, dpi, flow_nat, tcp_ids): lifecycle, getVNFInfo
// with live handler values, handler writes, flow-state export and
// import, <get> and <get-config>, two rpc-errors and pushed
// notifications. The frames are the wire oracle's input (netconf_test
// pins their count, size and digest) and the seed corpus of the parser
// and framing differential tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/builder.hpp"
#include "netconf/vnf_agent.hpp"
#include "service/catalog.hpp"

namespace escape::testsupport {

/// One frame as the relay saw it: who sent it, and its bytes with the
/// end-of-message delimiter.
struct WireFrame {
  char from;  // 'm' manager (client) -> agent, 'a' agent -> manager
  std::string bytes;
};

/// What the script's calls answered, in order: "ok", or the error code.
/// The oracle checks them so a pinned digest cannot hide a script whose
/// calls silently started failing.
struct WireScript {
  std::vector<WireFrame> frames;
  std::vector<std::string> outcomes;
  std::vector<std::size_t> handler_counts;  // getVNFInfo, per catalog type
};

inline const std::vector<std::string>& wire_script_types() {
  static const std::vector<std::string> types{"monitor", "firewall", "dpi", "flow_nat",
                                              "tcp_ids"};
  return types;
}

/// 64-bit FNV-1a over (sender, frame) pairs.
inline std::uint64_t wire_digest(const std::vector<WireFrame>& frames) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ULL;
  };
  for (const WireFrame& f : frames) {
    mix(static_cast<unsigned char>(f.from));
    for (char c : f.bytes) mix(static_cast<unsigned char>(c));
  }
  return h;
}

inline WireScript record_wire_script() {
  using netconf::TransportEndpoint;
  WireScript out;
  EventScheduler sched;
  netemu::VnfContainer container("c1", sched, 1.0, 16);

  auto agent_pipe = netconf::make_pipe(sched, microseconds(100));
  auto manager_pipe = netconf::make_pipe(sched, microseconds(100));
  TransportEndpoint* to_manager = manager_pipe.first.get();
  TransportEndpoint* to_agent = agent_pipe.second.get();
  agent_pipe.second->set_on_bytes([&out, to_manager](std::string bytes) {
    out.frames.push_back({'a', bytes});
    to_manager->send(std::move(bytes));
  });
  manager_pipe.first->set_on_bytes([&out, to_agent](std::string bytes) {
    out.frames.push_back({'m', bytes});
    to_agent->send(std::move(bytes));
  });
  netconf::VnfAgent agent(agent_pipe.first, container);
  netconf::VnfAgentClient client(manager_pipe.second);

  // Flow managers sweep on a timer, so the clock never runs dry: each
  // step runs long enough for one relayed round trip and more.
  auto settle = [&sched] { sched.run_for(milliseconds(2)); };
  auto record = [&out](const Status& s) {
    out.outcomes.push_back(s.ok() ? "ok" : s.error().code);
  };
  auto call = [&](auto&& issue) {
    issue([&record](Status s) { record(s); });
    settle();
  };
  auto raw = [&](const char* operation) {
    client.session().rpc(std::make_unique<xml::Element>(operation),
                         [&out](Result<std::unique_ptr<xml::Element>> r) {
                           out.outcomes.push_back(r.ok() ? "ok" : r.error().code);
                         });
    settle();
  };
  settle();  // hello both ways

  const service::VnfCatalog catalog = service::VnfCatalog::with_builtins();
  const auto& types = wire_script_types();
  auto id_of = [](const std::string& type) { return "v-" + type; };
  for (std::size_t i = 0; i < types.size(); ++i) {
    const std::string& type = types[i];
    const std::string id = id_of(type);
    const std::string config = *catalog.render(type, {});
    const double share = catalog.get(type)->default_cpu;
    call([&](auto cb) { client.initiate_vnf(id, type, config, share, cb); });
    call([&](auto cb) { client.start_vnf(id, cb); });
  }
  // <get> before the VNFs are connected; the <get-config> below lists
  // their connections with the ports.
  raw("get");
  for (std::size_t i = 0; i < types.size(); ++i) {
    const std::string id = id_of(types[i]);
    const auto port = static_cast<std::uint16_t>(2 * i);
    call([&](auto cb) { client.connect_vnf(id, "in0", port, cb); });
    call([&](auto cb) {
      client.connect_vnf(id, "out0", static_cast<std::uint16_t>(port + 1), cb);
    });
  }

  // Traffic, so counters, flow tables and rates hold more than zeros.
  for (std::size_t i = 0; i < types.size(); ++i) {
    for (std::uint16_t flow = 0; flow < 3; ++flow) {
      for (int n = 0; n < 2; ++n) {
        container.deliver(static_cast<std::uint16_t>(2 * i),
                          net::make_udp_packet(net::MacAddr::from_u64(1),
                                               net::MacAddr::from_u64(2),
                                               net::Ipv4Addr(10, 0, 0, 1),
                                               net::Ipv4Addr(10, 0, 1, 1),
                                               static_cast<std::uint16_t>(4000 + flow), 80));
      }
    }
  }
  settle();

  for (const std::string& type : types) {
    client.get_vnf_info(id_of(type), [&](Result<netemu::VnfInfo> r) {
      out.outcomes.push_back(r.ok() ? "ok" : r.error().code);
      out.handler_counts.push_back(r.ok() ? r->handlers.size() : 0);
    });
    settle();
  }

  call([&](auto cb) {
    client.set_vnf_handler("v-firewall", "fw.add_rule", "deny tcp && dst port 23", cb);
  });
  call([&](auto cb) { client.set_vnf_handler("v-flow_nat", "fm.hold", "0", cb); });
  std::string blob;
  client.export_flow_state("v-flow_nat", [&](Result<std::string> r) {
    out.outcomes.push_back(r.ok() ? "ok" : r.error().code);
    if (r.ok()) blob = *r;
  });
  settle();
  call([&](auto cb) { client.import_flow_state("v-flow_nat", blob, cb); });

  raw("get-config");
  raw("frobnicateVNF");  // unknown operation
  client.get_vnf_info("v-ghost", [&](Result<netemu::VnfInfo> r) {
    out.outcomes.push_back(r.ok() ? "ok" : r.error().code);
  });
  settle();

  client.subscribe_events([](const std::string&, netemu::VnfStatus) {},
                          [&record](Status s) { record(s); });
  settle();
  for (const std::string& type : types) {
    const std::string id = id_of(type);
    call([&](auto cb) { client.disconnect_vnf(id, "in0", cb); });
    call([&](auto cb) { client.stop_vnf(id, cb); });  // pushes a vnf-state-change
    call([&](auto cb) { client.remove_vnf(id, cb); });
  }
  return out;
}

}  // namespace escape::testsupport
