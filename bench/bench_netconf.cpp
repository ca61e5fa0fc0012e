// Experiment E5: NETCONF management-plane cost.
//
// Measures the host-side processing cost of the management path: XML
// encode -> frame -> parse -> dispatch -> instrument -> reply, for each
// RPC type, plus the ablations called out in DESIGN.md (schema
// validation on the <get> path; raw XML parse/serialize baselines).
// BENCH_netconf.json carries the wire size of a catalog flow_nat VNF's
// getVNFInfo reply, which CI gates exactly: it pins the reply encoding.
#include "bench_common.hpp"
#include <benchmark/benchmark.h>

#include "netconf/vnf_agent.hpp"
#include "service/catalog.hpp"

using namespace escape;
using namespace escape::netconf;

namespace {

constexpr const char* kMonitorConfig =
    "from :: FromDevice(DEVNAME in0);\n"
    "cnt :: Counter;\n"
    "to :: ToDevice(DEVNAME out0);\n"
    "from -> cnt -> to;\n";

struct Rig {
  EventScheduler sched;
  netemu::VnfContainer container{"c1", sched, 64.0, 256};
  std::shared_ptr<TransportEndpoint> client_end;
  std::unique_ptr<VnfAgent> agent;
  std::unique_ptr<VnfAgentClient> client;

  explicit Rig(int preloaded_vnfs = 0) {
    auto [s, c] = make_pipe(sched, 0);  // zero delay: measure processing only
    client_end = c;
    agent = std::make_unique<VnfAgent>(s, container);
    client = std::make_unique<VnfAgentClient>(c);
    sched.run();
    for (int i = 0; i < preloaded_vnfs; ++i) {
      (void)container.init_vnf("pre" + std::to_string(i), "monitor", kMonitorConfig, 0.05);
      (void)container.start_vnf("pre" + std::to_string(i));
    }
  }
};

}  // namespace

/// Full lifecycle RPC sequence per iteration (initiate/start/stop/remove).
static void BM_Netconf_VnfLifecycle(benchmark::State& state) {
  Rig rig;
  std::uint64_t n = 0;
  for (auto _ : state) {
    const std::string id = "v" + std::to_string(n++);
    bool done = false;
    rig.client->initiate_vnf(id, "monitor", kMonitorConfig, 0.01, [&](Status) {
      rig.client->start_vnf(id, [&](Status) {
        rig.client->stop_vnf(id, [&](Status) {
          rig.client->remove_vnf(id, [&](Status) { done = true; });
        });
      });
    });
    rig.sched.run();
    if (!done) state.SkipWithError("lifecycle did not complete");
  }
  state.SetItemsProcessed(state.iterations() * 4);  // RPCs
}
BENCHMARK(BM_Netconf_VnfLifecycle);

/// getVNFInfo against a container with N running VNFs (reply size grows).
static void BM_Netconf_GetVnfInfo(benchmark::State& state) {
  Rig rig(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    bool done = false;
    rig.client->get_vnf_info("pre0", [&](Result<netemu::VnfInfo> r) {
      benchmark::DoNotOptimize(r);
      done = true;
    });
    rig.sched.run();
    if (!done) state.SkipWithError("no reply");
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["vnfs_in_container"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Netconf_GetVnfInfo)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

/// getVNFInfo of one VNF rendered from the catalog; flow_nat reads 33
/// Click handlers. Its flow manager sweeps on a timer, so each round
/// trip runs the zero-delay pipe to the current instant only.
static void BM_Netconf_GetVnfInfoCatalog(benchmark::State& state, const char* type) {
  Rig rig;
  const auto catalog = service::VnfCatalog::with_builtins();
  if (!rig.container.init_vnf("v1", type, *catalog.render(type, {}), 0.5).ok() ||
      !rig.container.start_vnf("v1").ok()) {
    state.SkipWithError("VNF did not start");
    return;
  }
  std::size_t handlers = 0;
  auto round_trip = [&] {
    rig.client->get_vnf_info("v1", [&](Result<netemu::VnfInfo> r) {
      handlers = r.ok() ? r->handlers.size() : 0;
    });
    rig.sched.run_for(0);
  };
  // The first reply (message-id 1) on the wire, before the timed loop
  // moves the id's width.
  const std::uint64_t before = rig.client_end->bytes_received();
  round_trip();
  obs::MetricsRegistry::global()
      .gauge("bench_netconf_getvnfinfo_reply_bytes", {{"vnf", type}})
      .set(static_cast<double>(rig.client_end->bytes_received() - before));
  for (auto _ : state) {
    handlers = 0;
    round_trip();
    if (handlers == 0) state.SkipWithError("no reply");
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["handlers"] = static_cast<double>(handlers);
}
BENCHMARK_CAPTURE(BM_Netconf_GetVnfInfoCatalog, flow_nat, "flow_nat");

/// <get>: full state tree including schema validation (the ablation pair
/// with get-config below, which skips handlers; and with the raw XML
/// baselines at the bottom).
static void BM_Netconf_GetWithValidation(benchmark::State& state) {
  Rig rig(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    bool done = false;
    rig.client->session().rpc(std::make_unique<xml::Element>("get"),
                              [&](Result<std::unique_ptr<xml::Element>> r) {
                                benchmark::DoNotOptimize(r);
                                done = true;
                              });
    rig.sched.run();
    if (!done) state.SkipWithError("no reply");
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["vnfs_in_container"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Netconf_GetWithValidation)->Arg(1)->Arg(16)->Arg(64);

static void BM_Netconf_GetConfigNoHandlers(benchmark::State& state) {
  Rig rig(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    bool done = false;
    rig.client->session().rpc(std::make_unique<xml::Element>("get-config"),
                              [&](Result<std::unique_ptr<xml::Element>> r) {
                                benchmark::DoNotOptimize(r);
                                done = true;
                              });
    rig.sched.run();
    if (!done) state.SkipWithError("no reply");
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["vnfs_in_container"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Netconf_GetConfigNoHandlers)->Arg(1)->Arg(16)->Arg(64);

// --- micro baselines: where does the time go? -------------------------------

static void BM_Xml_ParseRpc(benchmark::State& state) {
  const std::string text =
      "<rpc message-id=\"42\" xmlns=\"urn:ietf:params:xml:ns:netconf:base:1.0\">"
      "<initiateVNF xmlns=\"urn:escape:vnf\"><id>v1</id><type>monitor</type>"
      "<click-config>from :: FromDevice(DEVNAME in0); from -> Discard;</click-config>"
      "<cpu-share>0.100</cpu-share></initiateVNF></rpc>";
  for (auto _ : state) {
    auto doc = xml::parse(text);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_Xml_ParseRpc);

static void BM_Xml_SerializeStateTree(benchmark::State& state) {
  const int vnfs = static_cast<int>(state.range(0));
  xml::Element root("vnfs");
  for (int i = 0; i < vnfs; ++i) {
    auto& vnf = root.add_child("vnf");
    vnf.add_leaf("id", "v" + std::to_string(i));
    vnf.add_leaf("status", "RUNNING");
    for (int h = 0; h < 6; ++h) {
      auto& handler = vnf.add_child("handler");
      handler.add_leaf("name", "cnt.count");
      handler.add_leaf("value", "123456");
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(root.to_string());
  }
  state.counters["vnfs"] = vnfs;
}
BENCHMARK(BM_Xml_SerializeStateTree)->Arg(1)->Arg(16)->Arg(64);

static void BM_Yang_ValidateStateTree(benchmark::State& state) {
  const int vnfs = static_cast<int>(state.range(0));
  xml::Element root("vnfs");
  for (int i = 0; i < vnfs; ++i) {
    auto& vnf = root.add_child("vnf");
    vnf.add_leaf("id", "v" + std::to_string(i));
    vnf.add_leaf("status", "RUNNING");
    vnf.add_leaf("cpu-share", "0.050");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate(root, vnf_module_schema()));
  }
  state.counters["vnfs"] = vnfs;
}
BENCHMARK(BM_Yang_ValidateStateTree)->Arg(1)->Arg(16)->Arg(64);

ESCAPE_BENCH_MAIN("netconf");
