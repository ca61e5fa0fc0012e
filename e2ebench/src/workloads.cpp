#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "bench_common.hpp"
#include "checks.hpp"
#include "click/config.hpp"
#include "click/elements.hpp"
#include "escape/environment.hpp"
#include "inputs.hpp"
#include "net/builder.hpp"
#include "net/flow.hpp"
#include "net/packet_pool.hpp"
#include "obs/metrics.hpp"
#include "orchestrator/mapping.hpp"
#include "probe.hpp"
#include "reference.hpp"
#include "util/strings.hpp"

namespace escape::e2e {

namespace {

using benchutil::build_linear;

constexpr int kTrafficSegments = 64;
constexpr std::uint64_t kSgLinkBps = 1'000'000;

double ms_between(std::uint64_t t0, std::uint64_t t1) { return static_cast<double>(t1 - t0) / 1e6; }

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// A frame as it enters the substrate: what the replays feed to the
/// parser and the flow tables.
struct IngressFrame {
  net::Packet frame;
  openflow::FlowTable* table = nullptr;  // the ingress switch's table
  std::uint16_t in_port = 0;
};

/// Last getVNFInfo snapshot of one VNF instance, with its catalog type.
struct VnfSnapshot {
  std::string type;
  std::map<std::string, std::string> handlers;

  std::uint64_t value(const std::string& key) const {
    auto it = handlers.find(key);
    return it == handlers.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  /// The FromDevice/ToDevice element bound to device `dev` ("in0").
  std::string device(const std::string& dev) const {
    for (const auto& [k, v] : handlers) {
      if (v == dev && k.size() > 8 && k.ends_with(".devname")) return k.substr(0, k.size() - 8);
    }
    return {};
  }
  std::uint64_t entry_packets() const { return value(device("in0") + ".count"); }
  std::uint64_t exit_packets() const { return value(device("out0") + ".count"); }
  /// Packets a Click element counted as dropped.
  std::uint64_t drops() const {
    static const std::set<std::string> kDropHandlers = {
        "denied", "dropped", "full_drops", "hold_drops", "cut_packets", "no_sink_drops", "drops"};
    std::uint64_t n = 0;
    for (const auto& [k, v] : handlers) {
      const auto dot = k.rfind('.');
      if (dot != std::string::npos && kDropHandlers.count(k.substr(dot + 1))) {
        n += std::strtoull(v.c_str(), nullptr, 10);
      }
    }
    return n;
  }
};

/// Public counters of every layer, read at phase boundaries.
struct Counters {
  std::uint64_t wall_ns = 0;
  std::uint64_t reference_ns = 0;  // wall time spent in reference samples so far
  double cpu_s = 0;
  std::uint64_t events = 0;
  std::uint64_t host_tx = 0, host_rx = 0, latency_records = 0;
  std::uint64_t link_delivered = 0, link_dropped = 0;
  std::uint64_t port_rx = 0, lookups = 0, matches = 0, memo = 0, switch_packet_ins = 0;
  std::uint64_t controller_packet_ins = 0;
  std::uint64_t clones = 0, pool_fresh = 0;
  AllocCounts allocs;
};

/// The benchmark's handle on one Environment: every public call it makes
/// goes through here, timed and (when traced) spanned and counted.
class Rep {
 public:
  explicit Rep(const RepOptions& options) : opts(options), spans(options.trace) {}

  const RepOptions opts;
  SpanRecorder spans;
  Failures failures;

  double setup_s = 0;
  double timed_s = 0;         // wall seconds of the timed phase
  double packet_wall_s = 0;   // wall seconds pkt_per_s divides by
  std::uint64_t sent = 0, delivered = 0;
  std::uint64_t ops_attempted = 0, ops_failed = 0;
  std::vector<double> deploy_ms, undeploy_ms, monitor_ms, scale_ms;
  std::vector<double> virt_setup_ms, virt_scale_ms;
  std::vector<std::vector<float>> virt_latency_us;  // per sink host
  std::map<std::string, VnfSnapshot> vnfs;          // by instance id
  std::vector<sg::ServiceGraph> graphs;             // every deployed graph
  std::vector<IngressFrame> frames;                 // the run's frames
  std::vector<double> pending;                      // traced: queue depth samples
  std::size_t entries_max = 0;                      // traced: largest flow table
  std::uint64_t deploy_msgs = 0, deploy_flowmods = 0, deploy_rpcs = 0;
  double parses_per_pkt = 0;                        // traced: switch frames per packet
  std::vector<double> reference_s;                  // host-speed reference samples
  std::uint64_t reference_digest = 0;
  std::uint64_t reference_ns = 0;                   // wall time of all samples
  json::Object layers;
  json::Object report;  // workload-specific outputs

  void attach(Environment& e) {
    env = &e;
    switches.clear();
    hosts.clear();
    containers.clear();
    for (const auto& name : env->network().node_names()) {
      if (auto* sw = env->network().switch_node(name)) switches.push_back(sw);
      if (auto* h = env->network().host(name)) hosts.push_back(h);
      if (env->network().container(name)) containers.push_back(name);
    }
  }

  bool fail(std::string what) {
    failures.push_back(std::move(what));
    return false;
  }

  /// Times the host-speed reference task once. Samples taken inside a
  /// timed phase are subtracted from its wall time (Counters); a digest
  /// that differs between samples fails the run.
  void reference() {
    ScopedSpan span(spans, "reference");
    const bool counting = alloc_counting();
    set_alloc_counting(false);  // the task's set-up is not the emulator's
    const std::uint64_t t0 = now_ns();
    const ReferenceResult r = run_reference();
    reference_ns += now_ns() - t0;
    set_alloc_counting(counting);
    if (!reference_s.empty() && r.digest != reference_digest) fail("reference task digest changed");
    reference_s.push_back(r.seconds);
    reference_digest = r.digest;
  }

  Result<std::uint32_t> deploy(const sg::ServiceGraph& graph, std::int64_t lc = -1) {
    ++ops_attempted;
    graphs.push_back(graph);
    const auto before = control_counts();
    std::uint64_t t0 = 0, t1 = 0;
    Result<std::uint32_t> id = make_error("e2e", "not run");
    {
      ScopedSpan span(spans, "deploy", lc);
      t0 = now_ns();
      id = env->deploy(graph);
      t1 = now_ns();
    }
    deploy_ms.push_back(ms_between(t0, t1));
    if (!id.ok()) {
      ++ops_failed;
      fail("deploy " + graph.name() + ": " + id.error().to_string());
      return id;
    }
    if (opts.trace) {
      const auto after = control_counts();
      deploy_msgs += after[0] - before[0];
      deploy_flowmods += after[1] - before[1];
      deploy_rpcs += after[2] - before[2];
      sample_tables();
    }
    const auto* dep = env->deployment(*id);
    virt_setup_ms.push_back(static_cast<double>(dep->record.setup_latency()) /
                            timeunit::kMillisecond);
    return id;
  }

  bool undeploy(std::uint32_t id, std::int64_t lc = -1) {
    ++ops_attempted;
    std::uint64_t t0 = 0, t1 = 0;
    Status s;
    {
      ScopedSpan span(spans, "undeploy", lc);
      t0 = now_ns();
      s = env->undeploy(id);
      t1 = now_ns();
    }
    undeploy_ms.push_back(ms_between(t0, t1));
    if (!s.ok()) {
      ++ops_failed;
      return fail(strings::format("undeploy %u: ", id) + s.error().to_string());
    }
    return true;
  }

  /// getVNFInfo on every VNF of a chain; keeps the handler snapshots.
  bool monitor(std::uint32_t id, std::int64_t lc = -1) {
    const ChainDeployment* dep = env->deployment(id);
    if (dep == nullptr) return fail(strings::format("monitor: chain %u unknown", id));
    std::map<std::string, std::string> types;
    for (const auto& v : dep->graph.vnfs()) types[v.id] = v.vnf_type;
    bool ok = true;
    for (const auto& v : dep->record.vnfs) {
      ++ops_attempted;
      std::uint64_t t0 = 0, t1 = 0;
      Result<netemu::VnfInfo> info = make_error("e2e", "not run");
      {
        ScopedSpan span(spans, "monitor_vnf", lc);
        t0 = now_ns();
        info = env->monitor_vnf(v.container, v.instance_id);
        t1 = now_ns();
      }
      monitor_ms.push_back(ms_between(t0, t1));
      if (!info.ok()) {
        ++ops_failed;
        ok = fail("monitor_vnf " + v.instance_id + ": " + info.error().to_string());
        continue;
      }
      vnfs[v.instance_id] = VnfSnapshot{types[v.vnf_id], info->handlers};
    }
    return ok;
  }

  bool scale(std::uint32_t id, std::size_t target, std::int64_t lc) {
    ++ops_attempted;
    const SimTime v0 = env->scheduler().now();
    std::uint64_t t0 = 0, t1 = 0;
    Status s;
    {
      ScopedSpan span(spans, "scale_chain", lc);
      t0 = now_ns();
      s = env->scale_chain(id, target);
      t1 = now_ns();
    }
    scale_ms.push_back(ms_between(t0, t1));
    virt_scale_ms.push_back(static_cast<double>(env->scheduler().now() - v0) /
                            timeunit::kMillisecond);
    if (!s.ok()) {
      ++ops_failed;
      return fail(strings::format("scale_chain %u -> %zu: ", id, target) + s.error().to_string());
    }
    return true;
  }

  void run_until(SimTime t, std::int64_t lc = -1) {
    {
      ScopedSpan span(spans, "run_until", lc);
      env->scheduler().run_until(t);
    }
    if (opts.trace) {
      pending.push_back(static_cast<double>(env->scheduler().pending_events()));
      sample_tables();
    }
  }

  /// Runs [from, to] of virtual time in kTrafficSegments equal slices,
  /// with a reference sample after each quarter but the last.
  void run_segments(SimTime from, SimTime to) {
    for (int i = 1; i <= kTrafficSegments; ++i) {
      if (i > 1 && (i - 1) % (kTrafficSegments / 4) == 0) reference();
      run_until(from + (to - from) * static_cast<SimTime>(i) / kTrafficSegments);
    }
  }

  Counters counters() const {
    Counters c;
    auto& registry = obs::MetricsRegistry::global();
    c.events = env->scheduler().executed_events();
    for (auto* h : hosts) {
      c.host_tx += h->tx_packets();
      c.host_rx += h->rx_packets();
      c.latency_records += h->latency_us().count() +
                           registry.histogram("escape_host_latency_us", {{"host", h->name()}}).count();
    }
    for (const auto& link : env->network().links()) {
      for (int d = 0; d < 2; ++d) {
        c.link_delivered += link->delivered(d);
        c.link_dropped += link->dropped(d);
      }
    }
    for (auto* sw : switches) {
      auto& dp = sw->datapath();
      for (const auto& port : dp.ports()) c.port_rx += dp.port_stats(port.port_no).rx_packets;
      c.lookups += dp.flow_table().lookups();
      c.matches += dp.flow_table().matches();
      c.memo += dp.flow_table().miss_short_circuits();
      c.switch_packet_ins += dp.packet_ins_sent();
    }
    c.controller_packet_ins = env->controller().packet_ins_handled();
    c.clones = stats::packet_clones().value();
    c.pool_fresh = net::default_packet_pool().fresh_allocs();
    c.allocs = alloc_counts();
    c.cpu_s = process_cpu_s();
    c.wall_ns = now_ns();
    c.reference_ns = reference_ns;
    return c;
  }

  /// Per-layer metrics of a phase that sent `sent` packets.
  void dataplane_layers(const Counters& a, const Counters& b) {
    const auto s = static_cast<double>(sent);
    const auto d = static_cast<double>(delivered);
    const double lookups = static_cast<double>(b.lookups - a.lookups);
    const double misses = lookups - static_cast<double>(b.matches - a.matches);
    layers["util.event.per_pkt"] = ratio(static_cast<double>(b.events - a.events), s);
    // The reference samples run on one thread: take them out of both.
    const double sampled_s = static_cast<double>(b.reference_ns - a.reference_ns) / 1e9;
    layers["util.shard.cpu_per_wall"] = ratio(b.cpu_s - a.cpu_s - sampled_s, phase_s(a, b));
    layers["net.alloc_per_pkt"] = ratio(static_cast<double>(b.allocs.calls - a.allocs.calls), s);
    layers["net.alloc_bytes_per_pkt"] =
        ratio(static_cast<double>(b.allocs.bytes - a.allocs.bytes), s);
    layers["net.pool_fresh_per_pkt"] = ratio(static_cast<double>(b.pool_fresh - a.pool_fresh), s);
    layers["net.clones_per_pkt"] = ratio(static_cast<double>(b.clones - a.clones), s);
    layers["netemu.link_hops_per_pkt"] =
        ratio(static_cast<double>(b.link_delivered - a.link_delivered), d);
    layers["netemu.link_drops"] = b.link_dropped - a.link_dropped;
    layers["netemu.latency_records_per_pkt"] =
        ratio(static_cast<double>(b.latency_records - a.latency_records), d);
    layers["openflow.lookups_per_hop"] = ratio(lookups, static_cast<double>(b.port_rx - a.port_rx));
    layers["openflow.miss_ratio"] = ratio(misses, lookups);
    layers["openflow.memo_hit_ratio"] = ratio(static_cast<double>(b.memo - a.memo), misses);
    layers["pox.packet_ins_per_pkt"] =
        ratio(static_cast<double>(b.controller_packet_ins - a.controller_packet_ins), s);
    // One header parse and one table lookup per frame a switch receives.
    parses_per_pkt = ratio(static_cast<double>(b.port_rx - a.port_rx), s);
  }

  /// Wall seconds between two snapshots, less the reference samples.
  static double phase_s(const Counters& a, const Counters& b) {
    return static_cast<double>((b.wall_ns - a.wall_ns) - (b.reference_ns - a.reference_ns)) / 1e9;
  }

  /// Packets sent/delivered and the wall time of the timed phase.
  void close_phase(const Counters& a, const Counters& b) {
    sent = b.host_tx - a.host_tx;
    delivered = b.host_rx - a.host_rx;
    timed_s = phase_s(a, b);
    if (packet_wall_s == 0) packet_wall_s = timed_s;
  }

  /// Records every delivered timestamped frame's one-way virtual latency.
  void observe_latency() {
    virt_latency_us.assign(hosts.size(), {});
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      auto* samples = &virt_latency_us[i];
      auto* sched = &hosts[i]->scheduler();
      hosts[i]->on_receive([samples, sched](const net::Packet& p) {
        if (p.has_timestamp() && sched->now() >= p.timestamp()) {
          samples->push_back(static_cast<float>(static_cast<double>(sched->now() - p.timestamp()) /
                                                timeunit::kMicrosecond));
        }
      });
    }
  }

  TeardownState teardown_state(const sg::ResourceGraph& view0) const {
    TeardownState t;
    t.chains_installed = env->steering().installed_count();
    t.chains_deployed = env->deployed_chains().size();
    const sg::ResourceGraph* view = env->resource_view();
    if (view == nullptr) {
      t.view_diffs.push_back("no resource view");
      return t;
    }
    for (const auto& n0 : view0.nodes()) {
      const auto* n = view->node(n0.name);
      if (n == nullptr) {
        t.view_diffs.push_back(n0.name + " vanished");
      } else if (std::abs(n->cpu_used - n0.cpu_used) > 1e-9 ||
                 n->vnf_slots_used != n0.vnf_slots_used) {
        t.view_diffs.push_back(strings::format("%s cpu %.3f slots %zu (start %.3f, %zu)",
                                               n0.name.c_str(), n->cpu_used, n->vnf_slots_used,
                                               n0.cpu_used, n0.vnf_slots_used));
      }
    }
    for (std::size_t i = 0; i < view0.links().size() && i < view->links().size(); ++i) {
      if (view->links()[i].bandwidth_used != view0.links()[i].bandwidth_used) {
        t.view_diffs.push_back(strings::format("link %s-%s bandwidth", view0.links()[i].a.c_str(),
                                               view0.links()[i].b.c_str()));
      }
    }
    return t;
  }

  /// Keeps `frame`, sent by `src`, for the replays, with the switch
  /// table and port it enters the substrate through.
  void add_frame(net::Packet frame, const netemu::Host* src) {
    auto [it, fresh] = ingress_.try_emplace(src, nullptr, 0);
    if (fresh) {
      for (const auto& link : env->network().links()) {
        for (int e = 0; e < 2; ++e) {
          auto* sw = dynamic_cast<netemu::SwitchNode*>(link->node(1 - e));
          if (link->node(e) == src && sw != nullptr) {
            it->second = {&sw->datapath().flow_table(), link->port(1 - e)};
          }
        }
      }
    }
    frames.push_back(IngressFrame{std::move(frame), it->second.first, it->second.second});
  }

  Environment* env = nullptr;
  std::vector<netemu::SwitchNode*> switches;
  std::vector<netemu::Host*> hosts;
  std::vector<std::string> containers;

 private:
  /// {controller messages sent, steering flow-mods, NETCONF RPCs sent}.
  std::array<std::uint64_t, 3> control_counts() const {
    std::array<std::uint64_t, 3> c{};
    if (!opts.trace) return c;
    for (auto dpid : env->controller().connected_switches()) {
      if (auto* conn = env->controller().connection(dpid)) c[0] += conn->messages_sent();
    }
    c[1] = obs::MetricsRegistry::global().counter("escape_steering_flowmods_total").value();
    for (const auto& name : containers) {
      if (auto* client = env->agent_client(name)) c[2] += client->session().rpcs_sent();
    }
    return c;
  }

  void sample_tables() {
    for (auto* sw : switches) entries_max = std::max(entries_max, sw->datapath().flow_table().size());
  }

  std::map<const netemu::Host*, std::pair<openflow::FlowTable*, std::uint16_t>> ingress_;
};

/// A linear service graph sap_a -> types... -> sap_b with the catalog's
/// CPU demands.
sg::ServiceGraph chain_graph(const std::string& name, const std::string& sap_a,
                             const std::string& sap_b, const std::vector<std::string>& types,
                             const service::VnfCatalog& catalog) {
  sg::ServiceGraph g(name);
  g.add_sap(sap_a).add_sap(sap_b);
  std::string prev = sap_a;
  for (std::size_t i = 0; i < types.size(); ++i) {
    const std::string id = strings::format("v%zu", i);
    const auto* tmpl = catalog.get(types[i]);
    g.add_vnf(id, types[i], {}, tmpl ? tmpl->default_cpu : 0.1);
    g.add_link(prev, id, kSgLinkBps);
    prev = id;
  }
  g.add_link(prev, sap_b, kSgLinkBps);
  return g;
}

netemu::LinkConfig sap_link() {
  netemu::LinkConfig cfg;  // the same links build_linear lays
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.delay = 100 * timeunit::kMicrosecond;
  return cfg;
}

/// One TCP stream of back-to-back segments built with
/// PacketBuilder::tcp and sent through Host::send at a constant rate.
class TcpSource {
 public:
  TcpSource(netemu::Host* src, netemu::Host* dst, std::uint16_t sport, std::uint16_t dport,
            std::uint32_t isn, std::size_t frame_size)
      : src_(src), dst_(dst), payload_(frame_size > 54 ? frame_size - 54 : 1, 'x') {
    fields_.src_port = sport;
    fields_.dst_port = dport;
    fields_.seq = isn;
    fields_.flags = 0x10;  // ACK: a stream adopted mid-flight
  }

  net::Packet segment() {
    net::Packet p = net::PacketBuilder()
                        .eth(src_->mac(), dst_->mac())
                        .ipv4(src_->ip(), dst_->ip(), net::ipproto::kTcp)
                        .tcp(fields_)
                        .payload(std::string_view(payload_))
                        .build();
    fields_.seq += static_cast<std::uint32_t>(payload_.size());
    return p;
  }

  void start(std::uint64_t count, SimDuration gap) {
    remaining_ = count;
    gap_ = gap;
    next();
  }

 private:
  void next() {
    if (remaining_ == 0) return;
    net::Packet p = segment();
    p.set_seq(seq_++);
    p.set_timestamp(src_->scheduler().now());
    src_->send(std::move(p));
    if (--remaining_ > 0) src_->scheduler().schedule(gap_, [this] { next(); });
  }

  netemu::Host* src_;
  netemu::Host* dst_;
  std::string payload_;
  net::TcpFields fields_;
  std::uint64_t remaining_ = 0;
  std::uint64_t seq_ = 0;
  SimDuration gap_ = 0;
};

// --- replays: each packet-path layer's public entry point in isolation ---------

double event_replay_ns(std::size_t depth) {
  EventScheduler sched;
  const SimTime far = SimTime{1} << 60;
  for (std::size_t i = 0; i < depth; ++i) sched.schedule_at(far + i, [] {});
  constexpr int kN = 200'000;
  std::uint64_t fired = 0;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kN; ++i) {
    sched.schedule(1, [&fired] { ++fired; });
    sched.step();
  }
  const std::uint64_t t1 = now_ns();
  benchmark::DoNotOptimize(fired);
  return static_cast<double>(t1 - t0) / kN;
}

double parse_replay_ns(const std::vector<IngressFrame>& frames) {
  if (frames.empty()) return 0;
  constexpr std::size_t kN = 400'000;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kN; ++i) {
    const auto& f = frames[i % frames.size()];
    auto key = net::extract_flow_key(f.frame, f.in_port);
    benchmark::DoNotOptimize(key);
  }
  const std::uint64_t t1 = now_ns();
  return static_cast<double>(t1 - t0) / kN;
}

double lookup_replay_ns(const std::vector<IngressFrame>& frames, SimTime now) {
  std::vector<std::pair<openflow::FlowTable*, net::FlowKey>> keys;
  for (const auto& f : frames) {
    if (f.table == nullptr) continue;
    if (auto key = net::extract_flow_key(f.frame, f.in_port)) keys.emplace_back(f.table, *key);
  }
  if (keys.empty()) return 0;
  constexpr std::size_t kN = 400'000;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kN; ++i) {
    auto& [table, key] = keys[i % keys.size()];
    auto* entry = table->lookup(key, 64, now);
    benchmark::DoNotOptimize(entry);
  }
  const std::uint64_t t1 = now_ns();
  return static_cast<double>(t1 - t0) / kN;
}

/// ns per frame injected at FromDevice(in0) of a standalone router built
/// from `config`. Frames are copied in untimed chunks before injection.
Result<double> click_replay_ns(const std::string& config, const std::vector<net::Packet>& frames) {
  EventScheduler sched;
  auto router = click::build_router(config, sched);
  if (!router.ok()) return router.error();
  auto& pool = net::default_packet_pool();
  click::FromDevice* in = nullptr;
  for (auto* e : (*router)->elements_in_order()) {
    if (auto* fd = dynamic_cast<click::FromDevice*>(e); fd != nullptr && fd->devname() == "in0") in = fd;
    if (auto* td = dynamic_cast<click::ToDevice*>(e)) {
      td->set_sink([&pool](net::Packet&& p) { pool.recycle(std::move(p)); });
    }
  }
  if (in == nullptr || frames.empty()) return make_error("e2e.replay", "no in0 device or frames");
  constexpr std::size_t kChunk = 1'000;
  const std::size_t n = std::max<std::size_t>(frames.size(), 100'000);
  std::vector<net::Packet> chunk;
  chunk.reserve(kChunk);
  std::uint64_t ns = 0;
  for (std::size_t i = 0; i < n;) {
    chunk.clear();
    for (; chunk.size() < kChunk && i < n; ++i) chunk.push_back(pool.acquire_copy(frames[i % frames.size()]));
    const std::uint64_t t0 = now_ns();
    for (auto& p : chunk) in->inject(std::move(p));
    ns += now_ns() - t0;
  }
  return static_cast<double>(ns) / static_cast<double>(n);
}

/// The traced run's replays and the layer metrics derived from them;
/// lookup_layer() must have run first.
void replay_layers(Rep& rep, Environment& env, const sg::ResourceGraph& view0) {
  ScopedSpan all(rep.spans, "replay");
  auto& L = rep.layers;
  const double depth = median(rep.pending);
  L["util.event.pending_p50"] = depth;
  {
    ScopedSpan s(rep.spans, "replay.event");
    L["util.event.replay_ns"] = event_replay_ns(static_cast<std::size_t>(std::max(1.0, depth)));
  }
  {
    ScopedSpan s(rep.spans, "replay.parse");
    L["net.parse_replay_ns"] = parse_replay_ns(rep.frames);
  }
  L["openflow.entries_max"] = static_cast<std::uint64_t>(rep.entries_max);

  // Click: one standalone router per catalog type, fed the run's frames
  // (a fresh TCP stream for tcp_ids, so reassembly runs).
  const auto& catalog = env.service_layer().catalog();
  std::vector<net::Packet> udp;
  for (const auto& f : rep.frames) udp.push_back(f.frame);
  std::vector<net::Packet> tcp;
  if (!rep.hosts.empty()) {
    TcpSource stream(rep.hosts.front(), rep.hosts.back(), 40000, 80, 1, 64);
    for (int i = 0; i < 100'000; ++i) tcp.push_back(stream.segment());
  }
  for (const char* type : {"monitor", "firewall", "flow_nat", "tcp_ids"}) {
    ScopedSpan s(rep.spans, std::string("replay.click.") + type);
    auto config = catalog.render(type, {});
    auto ns = config.ok() ? click_replay_ns(*config, std::string_view(type) == "tcp_ids" ? tcp : udp)
                          : Result<double>(config.error());
    if (!ns.ok()) {
      rep.fail(std::string("click replay ") + type + ": " + ns.error().to_string());
      continue;
    }
    L[std::string("click.replay_ns_per_pkt.") + type] = *ns;
  }

  // Click build and mapping alone, on the run's own graphs.
  std::vector<double> build_ms, map_us;
  auto algorithm = orchestrator::MappingRegistry::global().create(env.options().mapping_algorithm);
  std::set<std::string> seen;
  for (const auto& g : rep.graphs) {
    std::string sig = g.saps().front().id;
    for (const auto& v : g.vnfs()) sig += "/" + v.vnf_type;
    if (!seen.insert(sig).second) continue;
    if (auto rendered = env.service_layer().prepare(g); rendered.ok()) {
      ScopedSpan s(rep.spans, "replay.click_build");
      for (const auto& vnf : *rendered) {
        EventScheduler sched;
        const std::uint64_t t0 = now_ns();
        auto router = click::build_router(vnf.click_config, sched);
        build_ms.push_back(ms_between(t0, now_ns()));
        if (!router.ok()) rep.fail("click build " + vnf.vnf_type + ": " + router.error().to_string());
      }
    }
    if (algorithm) {
      ScopedSpan s(rep.spans, "replay.map");
      sg::ResourceGraph view = view0;
      const std::uint64_t t0 = now_ns();
      auto mapped = algorithm->map(g, view);
      map_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (!mapped.ok()) rep.fail("map " + g.name() + ": " + mapped.error().to_string());
    }
  }
  L["click.build_ms_p50"] = median(build_ms);
  L["orchestrator.map_us"] = median(map_us);

  // Explained share of the measured per-packet wall time: count per
  // packet x isolated cost, summed over the replayed layers. The runner
  // divides by the untraced wall time per packet.
  const double s = static_cast<double>(std::max<std::uint64_t>(rep.sent, 1));
  double click_ns = 0;
  for (const auto& [id, vnf] : rep.vnfs) {
    const auto key = "click.replay_ns_per_pkt." + vnf.type;
    if (L.count(key)) click_ns += static_cast<double>(vnf.entry_packets()) / s * L[key].as_double();
  }
  L["split.explained_ns_per_pkt"] =
      L["util.event.per_pkt"].as_double() * L["util.event.replay_ns"].as_double() +
      rep.parses_per_pkt *
          (L["net.parse_replay_ns"].as_double() + L["openflow.lookup_replay_ns"].as_double()) +
      click_ns;
}

/// Lookups of the run's frames against the switch tables as they are
/// now; call while the workload's chains are still installed.
void lookup_layer(Rep& rep) {
  ScopedSpan s(rep.spans, "replay.lookup");
  rep.layers["openflow.lookup_replay_ns"] = lookup_replay_ns(rep.frames, rep.env->scheduler().now());
}

/// Click-side layer metrics from the run's getVNFInfo snapshots.
void click_layers(Rep& rep) {
  std::uint64_t fw_hits = 0, fw_pkts = 0, fm_hits = 0, fm_lookups = 0, fm_flows_max = 0;
  for (const auto& [id, vnf] : rep.vnfs) {
    if (vnf.type == "firewall") {
      fw_hits += vnf.value("fw.flow_cache_hits");
      fw_pkts += vnf.entry_packets();
    }
    if (vnf.handlers.count("fm.lookups")) {
      fm_hits += vnf.value("fm.hits");
      fm_lookups += vnf.value("fm.lookups");
      fm_flows_max = std::max(fm_flows_max, vnf.value("fm.flows"));
    }
  }
  rep.layers["click.fw_cache_hit_ratio"] = ratio(static_cast<double>(fw_hits), static_cast<double>(fw_pkts));
  rep.layers["click.flow_hit_rate"] = ratio(static_cast<double>(fm_hits), static_cast<double>(fm_lookups));
  rep.layers["click.flows_max"] = fm_flows_max;
}

void control_layers(Rep& rep, std::size_t deploys) {
  const auto n = static_cast<double>(deploys);
  rep.layers["pox.msgs_per_deploy"] = ratio(static_cast<double>(rep.deploy_msgs), n);
  rep.layers["pox.flowmods_per_deploy"] = ratio(static_cast<double>(rep.deploy_flowmods), n);
  rep.layers["netconf.rpcs_per_deploy"] = ratio(static_cast<double>(rep.deploy_rpcs), n);
}

/// Per-layer metrics whose subject a workload lacks (a second engine
/// thread, a lifecycle series) print 0.
void not_applicable(Rep& rep, std::initializer_list<const char*> names) {
  for (const char* name : names) rep.layers[name] = 0.0;
}

/// Links and metric series the run left behind, and the management
/// plane's failures over the whole (fresh-process) run.
void history_layers(Rep& rep) {
  auto& registry = obs::MetricsRegistry::global();
  rep.layers["netemu.links_total"] = static_cast<std::uint64_t>(rep.env->network().links().size());
  rep.layers["obs.series_total"] = static_cast<std::uint64_t>(registry.size());
  std::uint64_t failures = registry.counter("escape_netconf_rpc_errors_total", {{"side", "server"}}).value();
  for (const auto& name : rep.containers) {
    if (auto* client = rep.env->agent_client(name)) {
      failures += client->session().rpc_timeouts() + client->session().rpc_retries();
    }
  }
  rep.layers["netconf.failures"] = failures;
}

// --- workloads --------------------------------------------------------------------

/// Set-up every workload shares: lays the topology with `build` (span
/// `build_span`), starts the environment and attaches `rep` to it.
bool set_up(Rep& rep, Environment& env, const char* build_span, const std::function<Status()>& build) {
  ScopedSpan setup(rep.spans, "setup");
  {
    ScopedSpan s(rep.spans, build_span);
    const std::uint64_t t0 = now_ns();
    if (auto st = build(); !st.ok()) return rep.fail(std::string(build_span) + ": " + st.error().to_string());
    rep.layers["escape.load_topology_ms"] = ms_between(t0, now_ns());
  }
  {
    ScopedSpan s(rep.spans, "start");
    const std::uint64_t t0 = now_ns();
    if (auto st = env.start(); !st.ok()) return rep.fail("start: " + st.error().to_string());
    rep.layers["escape.start_ms"] = ms_between(t0, now_ns());
  }
  rep.attach(env);
  return true;
}

/// Deploys and removes one chain outside the timed phase, untimed, so
/// first-use costs (catalog rendering, the first Click build, session
/// warm-up) land in set-up rather than in the first timed call.
bool warm_up(Rep& rep, Environment& env, const std::string& a, const std::string& b,
             const std::vector<std::string>& types) {
  auto id = env.deploy(chain_graph("warmup", a, b, types, env.service_layer().catalog()));
  if (!id.ok()) return rep.fail("warm-up deploy: " + id.error().to_string());
  if (auto s = env.undeploy(*id); !s.ok()) return rep.fail("warm-up undeploy: " + s.error().to_string());
  return true;
}

/// chain_fwd: per-packet cost on warm state. The seven chains are
/// deployed during set-up; the timed phase is pure forwarding.
void chain_fwd(Rep& rep) {
  const FwdInputs in = fwd_inputs(rep.opts.seed);
  const std::uint64_t s0 = now_ns();
  Environment env;
  const bool up = set_up(rep, env, "build_linear", [&env, n = in.chains.size()]() -> Status {
    build_linear(env, 4);
    // One SAP pair per chain: a Host runs one generator at a time.
    for (std::size_t i = 1; i < n; ++i) {
      const auto a = "sap" + std::to_string(2 * i + 1), b = "sap" + std::to_string(2 * i + 2);
      env.network().add_host(a);
      env.network().add_host(b);
      if (auto s = env.network().add_link(a, 0, "s1", static_cast<std::uint16_t>(10 + i), sap_link()); !s.ok()) return s;
      if (auto s = env.network().add_link(b, 0, "s4", static_cast<std::uint16_t>(10 + i), sap_link()); !s.ok()) return s;
    }
    return ok_status();
  });
  if (!up) return;
  const sg::ResourceGraph view0 = *env.resource_view();
  std::vector<std::uint32_t> ids;
  {
    ScopedSpan s(rep.spans, "initial_deploys");
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < in.chains.size(); ++i) {
      const auto a = "sap" + std::to_string(2 * i + 1), b = "sap" + std::to_string(2 * i + 2);
      auto id = rep.deploy(chain_graph("fwd" + std::to_string(i), a, b, in.chains[i].vnf_types,
                                       env.service_layer().catalog()));
      if (!id.ok()) return;
      ids.push_back(*id);
    }
    rep.layers["escape.initial_deploy_ms"] = ms_between(t0, now_ns());
  }
  rep.setup_s = static_cast<double>(now_ns() - s0) / 1e9;
  rep.reference();

  const SimTime t0 = env.scheduler().now();
  const SimDuration gap = timeunit::kSecond / in.rate_pps;
  std::vector<std::unique_ptr<TcpSource>> tcp;
  for (std::size_t i = 0; i < in.chains.size(); ++i) {
    const auto& c = in.chains[i];
    auto* src = env.host("sap" + std::to_string(2 * i + 1));
    auto* dst = env.host("sap" + std::to_string(2 * i + 2));
    if (c.tcp) {
      rep.add_frame(TcpSource(src, dst, c.sport, c.dport, in.tcp_isn, in.frame_size).segment(), src);
      tcp.push_back(std::make_unique<TcpSource>(src, dst, c.sport, c.dport, in.tcp_isn, in.frame_size));
      TcpSource* source = tcp.back().get();
      src->scheduler().schedule_at(t0 + c.start_offset, [source, n = in.packets_per_chain, gap] {
        source->start(n, gap);
      });
    } else {
      rep.add_frame(net::make_udp_packet(src->mac(), dst->mac(), src->ip(), dst->ip(), c.sport,
                                         c.dport, in.frame_size),
                    src);
      src->scheduler().schedule_at(t0 + c.start_offset, [src, dst, c, &in] {
        src->start_udp_flow(dst->mac(), dst->ip(), c.sport, c.dport, in.packets_per_chain,
                            in.rate_pps, in.frame_size);
      });
    }
  }
  rep.observe_latency();
  const SimTime end = t0 + gap * in.packets_per_chain + 20 * timeunit::kMillisecond;

  if (rep.opts.trace) set_alloc_counting(true);
  const Counters before = rep.counters();
  {
    ScopedSpan s(rep.spans, "traffic");
    rep.run_segments(t0, end);
  }
  const Counters after = rep.counters();
  set_alloc_counting(false);
  rep.close_phase(before, after);

  std::vector<ChainCount> counts;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    rep.monitor(ids[i]);
    ChainCount c;
    c.chain = strings::format("chain %zu (%zu x %s)", i, in.chains[i].vnf_types.size(),
                              in.chains[i].vnf_types.front().c_str());
    c.sent = env.host("sap" + std::to_string(2 * i + 1))->tx_packets();
    c.delivered = env.host("sap" + std::to_string(2 * i + 2))->rx_packets();
    for (const auto& v : env.deployment(ids[i])->record.vnfs) {
      const auto& snap = rep.vnfs[v.instance_id];
      c.click.emplace_back(v.vnf_id + " in0", snap.entry_packets());
      c.click.emplace_back(v.vnf_id + " out0", snap.exit_packets());
    }
    counts.push_back(std::move(c));
  }
  for (auto& f : check_chain_fwd(counts)) rep.fail(std::move(f));

  if (rep.opts.trace) {
    rep.dataplane_layers(before, after);
    click_layers(rep);
    lookup_layer(rep);
    replay_layers(rep, env, view0);
  }
  for (auto id : ids) rep.undeploy(id);
  for (auto& f : check_teardown(rep.teardown_state(view0))) rep.fail(std::move(f));
  if (rep.opts.trace) {
    control_layers(rep, ids.size());
    history_layers(rep);
    not_applicable(rep, {"util.shard.speedup_2v1", "churn.deploy_drift", "churn.rss_kb_per_lifecycle"});
  }
}

/// Materializes a generated fat-tree plan as a TopologySpec (auto port
/// numbering, as escape-run --workload does).
service::TopologySpec fattree_spec(const workload::Plan& plan) {
  service::TopologySpec spec;
  spec.name = "fat-tree";
  for (const auto& h : plan.hosts) spec.nodes.push_back({h, "host", 1.0, 8});
  for (const auto& s : plan.switches) spec.nodes.push_back({s, "switch", 1.0, 8});
  for (const auto& c : plan.containers) spec.nodes.push_back({c, "container", 4.0, 16});
  std::map<std::string, std::uint16_t> next_port;
  for (const auto& s : plan.switches) next_port[s] = 1;
  auto port_of = [&next_port](const std::string& node) -> std::uint16_t {
    auto it = next_port.find(node);
    return it == next_port.end() ? 0 : it->second++;
  };
  for (const auto& l : plan.links) {
    service::TopologyLinkSpec link;
    link.a = l.a;
    link.port_a = port_of(l.a);
    link.b = l.b;
    link.port_b = port_of(l.b);
    link.bandwidth_bps = 10'000'000'000;
    link.delay = 100 * timeunit::kMicrosecond;  // as build_linear lays its links
    spec.links.push_back(link);
  }
  return spec;
}

struct MixOutcome {
  std::uint64_t digest = 0;
  double traffic_wall_s = 0;
  bool ok = false;
};

/// One fattree_mix execution in a fresh Environment with `threads`
/// engine threads. The traced run adds a `rerun`, which stops after the
/// traffic phase: it only needs its event order and wall time.
MixOutcome run_mix(Rep& rep, const MixInputs& in, std::size_t threads, bool rerun) {
  MixOutcome out;
  const std::uint64_t s0 = now_ns();
  EnvironmentOptions options;
  options.threads = threads;
  options.shard_by = netemu::ShardBy::kSwitch;
  Environment env{options};
  if (!set_up(rep, env, "load_topology", [&] { return env.load_topology(fattree_spec(in.plan)); })) {
    return out;
  }
  const sg::ResourceGraph view0 = *env.resource_view();
  {
    // The churn deploys run inside the traffic phase; one warm-up chain,
    // deployed and removed here, moves lazy first-use costs into set-up.
    ScopedSpan s(rep.spans, "warmup_deploy");
    const std::uint64_t t0 = now_ns();
    if (!warm_up(rep, env, in.plan.hosts[0], in.plan.hosts[1], {slot_vnf_type(0)})) return out;
    rep.layers["escape.initial_deploy_ms"] = ms_between(t0, now_ns());
  }
  rep.setup_s = static_cast<double>(now_ns() - s0) / 1e9;
  rep.reference();

  const SimTime base = env.scheduler().now();
  for (const auto& fa : in.plan.arrivals) {
    netemu::Host* src = env.host(in.plan.hosts[fa.src_host]);
    netemu::Host* dst = env.host(in.plan.hosts[fa.dst_host]);
    rep.add_frame(net::make_udp_packet(src->mac(), dst->mac(), src->ip(), dst->ip(), fa.src_port,
                                       fa.dst_port, in.frame_size),
                  src);
    src->scheduler().schedule_at(base + fa.at, [src, dst, fa, &in] {
      src->start_udp_flow(dst->mac(), dst->ip(), fa.src_port, fa.dst_port, fa.packets, in.rate_pps,
                          in.frame_size);
    });
  }
  rep.observe_latency();

  std::map<std::uint32_t, std::uint32_t> live;  // slot -> chain id
  const std::size_t n_hosts = in.plan.hosts.size();
  if (rep.opts.trace) set_alloc_counting(true);
  const Counters before = rep.counters();
  {
    ScopedSpan traffic(rep.spans, "traffic");
    for (std::size_t e = 0; e < in.plan.churn.size(); ++e) {
      const auto& ev = in.plan.churn[e];
      if (e > 0 && e % 32 == 0) rep.reference();
      rep.run_until(base + ev.at);
      if (ev.deploy) {
        auto g = chain_graph(strings::format("slot%u", ev.slot), in.plan.hosts[(2 * ev.slot) % n_hosts],
                             in.plan.hosts[(2 * ev.slot + 1) % n_hosts], {slot_vnf_type(ev.slot)},
                             env.service_layer().catalog());
        auto id = rep.deploy(g);
        if (!id.ok()) return out;
        live[ev.slot] = *id;
      } else if (auto it = live.find(ev.slot); it != live.end()) {
        rep.monitor(it->second);
        rep.undeploy(it->second);
        live.erase(it);
      }
    }
    // Every flow runs out within its size at its rate; then drain.
    const SimDuration longest = timeunit::kSecond / in.rate_pps * in.max_flow_packets +
                                50 * timeunit::kMillisecond;
    // Every deploy and undeploy pumps virtual time. A plan with many churn
    // events can leave its clock past the planned end; then every flow
    // has long ended, and only the remainder of the drain is left to run.
    const SimTime end = std::max(base + in.plan.horizon + longest, env.scheduler().now());
    rep.run_segments(env.scheduler().now(), end);
  }
  const Counters after = rep.counters();
  set_alloc_counting(false);
  out.digest = env.scheduler().order_digest();
  out.traffic_wall_s = Rep::phase_s(before, after);
  if (rerun) {
    out.ok = rep.failures.empty();
    return out;
  }
  rep.close_phase(before, after);

  if (rep.opts.trace) {
    rep.dataplane_layers(before, after);
    lookup_layer(rep);  // the tables still hold the live chains
  }
  for (const auto& [slot, id] : live) {
    rep.monitor(id);
    rep.undeploy(id);
  }

  Accounting acc;
  acc.sent = rep.sent;
  acc.delivered = rep.delivered;
  acc.link_drops = after.link_dropped - before.link_dropped;
  acc.packet_ins = after.switch_packet_ins - before.switch_packet_ins;
  for (const auto& [id, vnf] : rep.vnfs) acc.click_drops += vnf.drops();
  rep.report["loss_ratio"] =
      1.0 - ratio(static_cast<double>(acc.delivered), static_cast<double>(acc.sent));
  rep.report["acct.link_drops"] = acc.link_drops;
  rep.report["acct.packet_ins"] = acc.packet_ins;
  rep.report["acct.click_drops"] = acc.click_drops;
  rep.report["acct.unattributed"] = acc.unattributed();
  for (auto& f : check_fattree_mix(acc, acc.sent / 1000)) rep.fail(std::move(f));
  for (auto& f : check_teardown(rep.teardown_state(view0))) rep.fail(std::move(f));

  if (rep.opts.trace) {
    click_layers(rep);
    replay_layers(rep, env, view0);
    control_layers(rep, rep.deploy_ms.size());
    history_layers(rep);
    not_applicable(rep, {"churn.deploy_drift", "churn.rss_kb_per_lifecycle"});
  }
  out.ok = true;
  return out;
}

/// fattree_mix: sharded engine, packet-in/miss-memo path, short flows.
void fattree_mix(Rep& rep) {
  const MixInputs in = mix_inputs(rep.opts.seed);
  const MixOutcome two = run_mix(rep, in, in.threads, /*rerun=*/false);
  if (!two.ok) return;
  if (!rep.opts.trace) return;
  // Same partition at one thread, instrumented like the traced run:
  // identical event order, and the wall-time ratio is the engine's
  // parallel speedup.
  ScopedSpan s(rep.spans, "rerun_1_thread");
  Rep shadow(RepOptions{rep.opts.workload, rep.opts.seed, /*trace=*/true, {}});
  const MixOutcome one = run_mix(shadow, in, 1, /*rerun=*/true);
  for (auto& f : shadow.failures) rep.fail("1-thread rerun: " + f);
  for (auto& f : check_digest(two.digest, one.digest)) rep.fail(std::move(f));
  rep.layers["util.shard.speedup_2v1"] = ratio(one.traffic_wall_s, two.traffic_wall_s);
}

/// chain_churn: one closed-loop client cycling chain lifecycles.
void chain_churn(Rep& rep) {
  const ChurnInputs in = churn_inputs(rep.opts.seed);
  const std::uint64_t s0 = now_ns();
  Environment env;
  if (!set_up(rep, env, "build_linear", [&env] {
        build_linear(env, 3);
        return ok_status();
      })) {
    return;
  }
  const sg::ResourceGraph view0 = *env.resource_view();
  {
    ScopedSpan s(rep.spans, "warmup_deploy");
    const std::uint64_t t0 = now_ns();
    if (!warm_up(rep, env, "sap1", "sap2", {"monitor"})) return;
    rep.layers["escape.initial_deploy_ms"] = ms_between(t0, now_ns());
  }
  rep.setup_s = static_cast<double>(now_ns() - s0) / 1e9;
  rep.reference();
  auto* sap1 = env.host("sap1");
  auto* sap2 = env.host("sap2");
  rep.observe_latency();

  const std::size_t n = in.lifecycles.size();
  const std::size_t tenth = std::max<std::size_t>(1, n / 10);
  std::uint64_t probes_sent = 0, probes_delivered = 0, probe_wall_ns = 0, rss_after_first = 0;
  std::vector<double> lifecycle_deploy_ms;
  const SimDuration probe_window =
      timeunit::kSecond / in.probe_rate_pps * static_cast<SimDuration>(in.probe_packets) +
      3 * timeunit::kMillisecond;

  for (const auto& lc : in.lifecycles) {
    rep.add_frame(net::make_udp_packet(sap1->mac(), sap2->mac(), sap1->ip(), sap2->ip(), lc.sport, 7,
                                       in.frame_size),
                  sap1);
  }

  if (rep.opts.trace) set_alloc_counting(true);
  const Counters before = rep.counters();
  {
    ScopedSpan all(rep.spans, "lifecycles");
    for (std::size_t i = 0; i < n && rep.failures.empty(); ++i) {
      const auto& lc = in.lifecycles[i];
      const auto lcid = static_cast<std::int64_t>(i);
      ScopedSpan life(rep.spans, "lifecycle", lcid);
      auto id = rep.deploy(chain_graph(strings::format("lc%zu", i), "sap1", "sap2", lc.vnf_types,
                                       env.service_layer().catalog()),
                           lcid);
      lifecycle_deploy_ms.push_back(rep.deploy_ms.back());
      if (!id.ok()) break;

      const std::uint64_t rx0 = sap2->rx_packets();
      const std::uint64_t p0 = now_ns();
      sap1->start_udp_flow(sap2->mac(), sap2->ip(), lc.sport, 7, in.probe_packets,
                           in.probe_rate_pps, in.frame_size);
      rep.run_until(env.scheduler().now() + probe_window, lcid);
      probe_wall_ns += now_ns() - p0;
      probes_sent += in.probe_packets;
      probes_delivered += sap2->rx_packets() - rx0;

      rep.monitor(*id, lcid);
      if (lc.scale) {
        rep.scale(*id, 2, lcid);
        rep.scale(*id, 1, lcid);
      }
      rep.undeploy(*id, lcid);
      if (i + 1 == tenth) rss_after_first = peak_rss_kb();
      if ((i + 1) % 100 == 0 && i + 1 < n) rep.reference();
    }
  }
  const Counters after = rep.counters();
  set_alloc_counting(false);
  rep.close_phase(before, after);
  rep.packet_wall_s = static_cast<double>(probe_wall_ns) / 1e9;

  for (auto& f : check_chain_churn(probes_sent, probes_delivered, rep.teardown_state(view0))) {
    rep.fail(std::move(f));
  }
  const std::size_t done = lifecycle_deploy_ms.size();
  if (done >= 2 * tenth) {
    const std::vector<double> first(lifecycle_deploy_ms.begin(), lifecycle_deploy_ms.begin() + tenth);
    const std::vector<double> last(lifecycle_deploy_ms.end() - tenth, lifecycle_deploy_ms.end());
    rep.layers["churn.deploy_drift"] = ratio(median(last), median(first));
    rep.layers["churn.rss_kb_per_lifecycle"] =
        ratio(static_cast<double>(peak_rss_kb() - rss_after_first), static_cast<double>(done - tenth));
  }
  if (rep.opts.trace) {
    rep.dataplane_layers(before, after);
    click_layers(rep);
    lookup_layer(rep);
    replay_layers(rep, env, view0);
    control_layers(rep, rep.deploy_ms.size());
    history_layers(rep);
    not_applicable(rep, {"util.shard.speedup_2v1"});
  }
}

json::Value samples(const std::vector<double>& v) {
  json::Array a;
  a.reserve(v.size());
  for (double x : v) a.emplace_back(x);
  return json::Value(std::move(a));
}

}  // namespace

json::Value run_rep(const RepOptions& options) {
  Rep rep(options);
  rep.reference();
  const std::uint64_t t0 = now_ns();
  if (options.workload == "chain_fwd") {
    chain_fwd(rep);
  } else if (options.workload == "fattree_mix") {
    fattree_mix(rep);
  } else if (options.workload == "chain_churn") {
    chain_churn(rep);
  } else {
    rep.fail("unknown workload " + options.workload);
  }
  const double rep_s = static_cast<double>(now_ns() - t0) / 1e9;
  rep.reference();

  std::vector<double> lat;
  for (const auto& host : rep.virt_latency_us) lat.insert(lat.end(), host.begin(), host.end());

  json::Object doc;
  doc["workload"] = options.workload;
  doc["seed"] = options.seed;
  doc["trace"] = options.trace;
  doc["inputs_digest"] = strings::format("%016llx", static_cast<unsigned long long>(
                                                        inputs_digest(options.workload, options.seed)));
  doc["fingerprint"] = fingerprint();
  doc["failures"] = [&] {
    json::Array a;
    for (const auto& f : rep.failures) a.emplace_back(f);
    return json::Value(std::move(a));
  }();
  doc["rep_s"] = rep_s;
  doc["setup_s"] = rep.setup_s;
  doc["timed_s"] = rep.timed_s;
  doc["packet_wall_s"] = rep.packet_wall_s;
  doc["reference_s"] = samples(rep.reference_s);
  doc["reference_digest"] = strings::format("%016llx", static_cast<unsigned long long>(rep.reference_digest));
  doc["sent"] = rep.sent;
  doc["delivered"] = rep.delivered;
  doc["ops_attempted"] = rep.ops_attempted;
  doc["ops_failed"] = rep.ops_failed;
  doc["peak_rss_kb"] = peak_rss_kb();
  doc["deploy_ms"] = samples(rep.deploy_ms);
  doc["undeploy_ms"] = samples(rep.undeploy_ms);
  doc["monitor_ms"] = samples(rep.monitor_ms);
  doc["scale_ms"] = samples(rep.scale_ms);
  json::Object virt;
  virt["delivered"] = rep.delivered;
  virt["latency_us_p50"] = percentile(lat, 50);
  virt["latency_us_p99"] = percentile(lat, 99);
  virt["latency_samples"] = static_cast<std::uint64_t>(lat.size());
  virt["setup_ms_p50"] = median(rep.virt_setup_ms);
  virt["scale_ms_p50"] = median(rep.virt_scale_ms);
  doc["virt"] = json::Value(std::move(virt));
  doc["report"] = json::Value(std::move(rep.report));
  if (options.trace) {
    doc["layers"] = json::Value(std::move(rep.layers));
    if (!options.spans_path.empty()) {
      if (auto s = rep.spans.write(options.spans_path); !s.ok()) {
        doc["spans_error"] = s.error().to_string();
      }
    }
  }
  return json::Value(std::move(doc));
}

}  // namespace escape::e2e
