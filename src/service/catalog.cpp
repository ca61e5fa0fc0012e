#include "service/catalog.hpp"

#include <algorithm>
#include <cctype>

#include "util/strings.hpp"

namespace escape::service {

void VnfCatalog::add(VnfTemplate tmpl) { templates_[tmpl.type] = std::move(tmpl); }

const VnfTemplate* VnfCatalog::get(const std::string& type) const {
  auto it = templates_.find(type);
  return it == templates_.end() ? nullptr : &it->second;
}

std::vector<std::string> VnfCatalog::types() const {
  std::vector<std::string> out;
  out.reserve(templates_.size());
  for (const auto& [k, _] : templates_) out.push_back(k);
  return out;
}

Result<std::string> VnfCatalog::render(const std::string& type,
                                       const std::map<std::string, std::string>& params) const {
  const VnfTemplate* tmpl = get(type);
  if (!tmpl) return make_error("catalog.unknown-type", "no such VNF type: " + type);

  // Reject parameters the template does not know.
  for (const auto& [key, _] : params) {
    if (!tmpl->param_defaults.count(key)) {
      return make_error("catalog.unknown-param", type + " has no parameter '" + key + "'");
    }
  }

  const std::string& in = tmpl->config_template;
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size();) {
    if (in[i] != '$') {
      out += in[i++];
      continue;
    }
    ++i;  // skip '$'
    bool braced = i < in.size() && in[i] == '{';
    if (braced) ++i;
    std::string name;
    while (i < in.size() &&
           (std::isalnum(static_cast<unsigned char>(in[i])) || in[i] == '_')) {
      name += in[i++];
    }
    if (braced) {
      if (i >= in.size() || in[i] != '}') {
        return make_error("catalog.bad-template", type + ": unterminated ${...}");
      }
      ++i;
    }
    if (name.empty()) return make_error("catalog.bad-template", type + ": dangling '$'");
    auto pit = params.find(name);
    if (pit != params.end()) {
      out += pit->second;
    } else {
      auto dit = tmpl->param_defaults.find(name);
      if (dit == tmpl->param_defaults.end()) {
        return make_error("catalog.missing-param",
                          type + ": no value for parameter '" + name + "'");
      }
      out += dit->second;
    }
  }
  return out;
}

VnfCatalog VnfCatalog::with_builtins() {
  VnfCatalog catalog;

  catalog.add(VnfTemplate{
      "monitor",
      "transparent packet/byte counter (Clicky's favourite demo VNF)",
      "from :: FromDevice(DEVNAME in0);\n"
      "cnt :: Counter;\n"
      "to :: ToDevice(DEVNAME out0);\n"
      "from -> cnt -> to;\n",
      0.05,
      1,
      {}});

  catalog.add(VnfTemplate{
      "firewall",
      "rule-based stateless firewall; denied traffic is counted and dropped",
      "from :: FromDevice(DEVNAME in0);\n"
      "fw :: Firewall(RULES \"$rules\", DEFAULT $default);\n"
      "denied :: Counter;\n"
      "to :: ToDevice(DEVNAME out0);\n"
      "from -> fw;\n"
      "fw[0] -> to;\n"
      "fw[1] -> denied -> Discard;\n",
      0.1,
      1,
      {{"rules", "allow ip"}, {"default", "allow"}}});

  catalog.add(VnfTemplate{
      "ratelimiter",
      "packet-rate policer: queue + rated drain at $rate packets/second",
      "from :: FromDevice(DEVNAME in0);\n"
      "q :: Queue($queue);\n"
      "pull :: RatedUnqueue(RATE $rate);\n"
      "to :: ToDevice(DEVNAME out0);\n"
      "from -> q;\n"
      "q -> pull -> to;\n",
      0.1,
      1,
      {{"rate", "1000"}, {"queue", "1000"}}});

  catalog.add(VnfTemplate{
      "worker",
      "CPU-bound store-and-forward VNF: each packet costs $ns_per_packet "
      "nanoseconds of processing, scaled by 1/cpu-share (the cgroup model)",
      "from :: FromDevice(DEVNAME in0);\n"
      "q :: Queue($queue);\n"
      "u :: Unqueue(BURST 1, INTERVAL $ns_per_packet);\n"
      "to :: ToDevice(DEVNAME out0);\n"
      "from -> q;\n"
      "q -> u -> to;\n",
      0.2,
      1,
      {{"ns_per_packet", "10000"}, {"queue", "1000"}}});

  catalog.add(VnfTemplate{
      "dpi",
      "payload pattern inspector; counts matches per pattern",
      "from :: FromDevice(DEVNAME in0);\n"
      "dpi :: DpiCounter(PATTERNS \"$patterns\");\n"
      "to :: ToDevice(DEVNAME out0);\n"
      "from -> dpi -> to;\n",
      0.2,
      1,
      {{"patterns", "attack"}}});

  catalog.add(VnfTemplate{
      "delay",
      "fixed processing-delay VNF ($ns nanoseconds)",
      "from :: FromDevice(DEVNAME in0);\n"
      "d :: Delay(DELAY $ns);\n"
      "to :: ToDevice(DEVNAME out0);\n"
      "from -> d -> to;\n",
      0.05,
      1,
      {{"ns", "1000000"}}});

  catalog.add(VnfTemplate{
      "headerrewriter",
      "static header rewriter (any subset of addresses/ports)",
      "from :: FromDevice(DEVNAME in0);\n"
      "rw :: IPRewriter($spec);\n"
      "to :: ToDevice(DEVNAME out0);\n"
      "from -> rw -> to;\n",
      0.1,
      1,
      {{"spec", "SRC_IP 10.0.0.1"}},
      /*rewrites_source=*/true});

  // --- flow-aware stateful middleboxes (the FlowManager substrate) ---------
  // capacity/timeout_ms default to the literal "default", which the
  // FlowManager resolves against the process-wide settings so the
  // escape-run --flow-capacity / --flow-timeout-ms flags apply to every
  // rendered chain at once.

  catalog.add(VnfTemplate{
      "flow_nat",
      "flow-table NAT: per-flow port allocation, bidirectional rewrite, "
      "idle-timeout port reclaim",
      "fin :: FromDevice(DEVNAME in0);\n"
      "fext :: FromDevice(DEVNAME in1);\n"
      "fm :: FlowManager(CAPACITY $capacity, TIMEOUT_MS $timeout_ms);\n"
      "nat :: FlowNAT(EXTERNAL_IP $external_ip, PORT_BASE $port_base, "
      "PORT_COUNT $port_count);\n"
      "tout :: ToDevice(DEVNAME out0);\n"
      "tin :: ToDevice(DEVNAME out1);\n"
      "fin -> fm -> [0]nat;\n"
      "fext -> [1]nat;\n"
      "nat[0] -> tout;\n"
      "nat[1] -> tin;\n",
      0.15,
      2,
      {{"external_ip", "192.0.2.1"},
       {"port_base", "20000"},
       {"port_count", "1024"},
       {"capacity", "default"},
       {"timeout_ms", "default"}},
      /*rewrites_source=*/true});

  catalog.add(VnfTemplate{
      "flow_lb",
      "flow-sticky 2-way L4 load balancer: the first packet of a flow "
      "picks the backend, the flow stays on it until evicted",
      "from :: FromDevice(DEVNAME in0);\n"
      "fm :: FlowManager(CAPACITY $capacity, TIMEOUT_MS $timeout_ms);\n"
      "lb :: FlowLB(N 2, MODE $mode);\n"
      "a :: ToDevice(DEVNAME out0);\n"
      "b :: ToDevice(DEVNAME out1);\n"
      "from -> fm -> lb;\n"
      "lb[0] -> a;\n"
      "lb[1] -> b;\n",
      0.1,
      2,
      {{"mode", "rr"}, {"capacity", "default"}, {"timeout_ms", "default"}}});

  catalog.add(VnfTemplate{
      "tcp_ids",
      "TCP stream IDS: per-flow reassembly feeding substring/regex "
      "scanning across packet boundaries; MODE drop cuts flagged flows",
      "from :: FromDevice(DEVNAME in0);\n"
      "fm :: FlowManager(CAPACITY $capacity, TIMEOUT_MS $timeout_ms);\n"
      "ra :: TcpReassembler;\n"
      "ids :: StreamIDS(PATTERNS \"$patterns\", MODE $mode);\n"
      "to :: ToDevice(DEVNAME out0);\n"
      "from -> fm -> ra -> ids -> to;\n"
      "ids[1] -> Discard;\n",
      0.25,
      1,
      {{"patterns", "attack"},
       {"mode", "alert"},
       {"capacity", "default"},
       {"timeout_ms", "default"}}});

  return catalog;
}

std::string render_flow_splitter(std::size_t fanout) {
  fanout = std::min<std::size_t>(std::max<std::size_t>(fanout, 2), 64);
  // MODE hash so the backend choice is a pure function of the 5-tuple:
  // the orchestrator partitions exported flow state with the same
  // tuple-hash % fanout rule, so every migrated flow lands exactly on
  // the replica that imported its state.
  std::string config =
      "from :: FromDevice(DEVNAME in0);\n"
      "fm :: FlowManager(CAPACITY default, TIMEOUT_MS default, HOLD true);\n"
      "lb :: FlowLB(N " +
      std::to_string(fanout) +
      ", MODE hash);\n"
      "from -> fm -> lb;\n";
  for (std::size_t i = 0; i < fanout; ++i) {
    config += "lb[" + std::to_string(i) + "] -> ToDevice(DEVNAME out" + std::to_string(i) +
              ");\n";
  }
  return config;
}

}  // namespace escape::service
