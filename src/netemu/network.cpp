#include "netemu/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "openflow/actions.hpp"
#include "util/logging.hpp"

namespace escape::netemu {

namespace {

// Plain union-find over cluster ids, used to merge clusters that a
// zero-delay link would otherwise connect with zero lookahead.
std::size_t uf_find(std::vector<std::size_t>& parent, std::size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

void uf_union(std::vector<std::size_t>& parent, std::size_t a, std::size_t b) {
  a = uf_find(parent, a);
  b = uf_find(parent, b);
  if (a == b) return;
  // Smaller root wins so merged clusters keep deterministic ids.
  if (b < a) std::swap(a, b);
  parent[b] = a;
}

// Whether the calling context may mutate state on `target`'s shard
// synchronously (main thread, unsharded, or already executing there).
bool may_touch(EventScheduler& target) {
  EventScheduler* cur = ShardedScheduler::current_shard();
  return cur == nullptr || target.owner() == nullptr || cur == &target;
}

}  // namespace

Host& Network::add_host(const std::string& name, net::MacAddr mac, net::Ipv4Addr ip) {
  if (nodes_.count(name)) throw std::invalid_argument("duplicate node name: " + name);
  auto host = std::make_unique<Host>(name, *scheduler_, mac, ip);
  Host& ref = *host;
  nodes_[name] = std::move(host);
  return ref;
}

Host& Network::add_host(const std::string& name) {
  const std::uint64_t n = next_auto_addr_++;
  return add_host(name, net::MacAddr::from_u64(n),
                  net::Ipv4Addr(static_cast<std::uint32_t>((10u << 24) | n)));
}

SwitchNode& Network::add_switch(const std::string& name, openflow::DatapathId dpid) {
  if (nodes_.count(name)) throw std::invalid_argument("duplicate node name: " + name);
  if (dpid == 0) dpid = next_dpid_++;
  else next_dpid_ = std::max(next_dpid_, dpid + 1);
  auto sw = std::make_unique<SwitchNode>(name, *scheduler_, dpid);
  SwitchNode& ref = *sw;
  nodes_[name] = std::move(sw);
  return ref;
}

VnfContainer& Network::add_container(const std::string& name, double cpu_capacity,
                                     std::size_t max_vnfs) {
  if (nodes_.count(name)) throw std::invalid_argument("duplicate node name: " + name);
  auto c = std::make_unique<VnfContainer>(name, *scheduler_, cpu_capacity, max_vnfs);
  VnfContainer& ref = *c;
  nodes_[name] = std::move(c);
  return ref;
}

Status Network::add_link(const std::string& a, std::uint16_t port_a, const std::string& b,
                         std::uint16_t port_b, LinkConfig config) {
  Node* node_a = node(a);
  Node* node_b = node(b);
  if (!node_a) return make_error("netemu.unknown-node", "unknown node: " + a);
  if (!node_b) return make_error("netemu.unknown-node", "unknown node: " + b);
  for (auto [n, port] : {std::pair{node_a, port_a}, std::pair{node_b, port_b}}) {
    if (n->kind() == NodeKind::kSwitch && port >= openflow::kPortMax) {
      return make_error("netemu.reserved-port",
                        n->name() + ":" + std::to_string(port) +
                            " is an OpenFlow reserved port (>= 0xff00)");
    }
  }

  auto link = std::make_unique<Link>(node_a, port_a, node_b, port_b, config, *scheduler_,
                                     links_.size() + 1);
  if (may_touch(node_a->scheduler()) && may_touch(node_b->scheduler())) {
    if (auto s = node_a->attach_link(port_a, link.get(), 0); !s.ok()) return s;
    if (auto s = node_b->attach_link(port_b, link.get(), 1); !s.ok()) {
      node_a->detach_link(port_a);
      return s;
    }
    if (auto* sw = dynamic_cast<SwitchNode*>(node_a)) sw->ensure_port(port_a);
    if (auto* sw = dynamic_cast<SwitchNode*>(node_b)) sw->ensure_port(port_b);
  } else {
    // A link wired mid-run from another shard (the deployment engine's
    // dynamic veths): each endpoint attaches on its own shard through
    // the admin mailbox. The caller picked fresh ports, so attach
    // failures are logged rather than returned -- the link is not
    // usable before the next synchronization window anyway (traffic
    // reaches it only after a management RPC round-trip).
    Link* raw = link.get();
    Node* ends[2] = {node_a, node_b};
    std::uint16_t ports[2] = {port_a, port_b};
    for (int e = 0; e < 2; ++e) {
      Node* n = ends[e];
      const std::uint16_t port = ports[e];
      auto attach = [n, port, raw, e] {
        if (auto s = n->attach_link(port, raw, e); !s.ok()) {
          Logger("netemu.network")
              .error("deferred attach failed: ", n->name(), ":", port, ": ",
                     s.error().to_string());
          return;
        }
        if (auto* sw = dynamic_cast<SwitchNode*>(n)) sw->ensure_port(port);
      };
      if (may_touch(n->scheduler())) {
        attach();
      } else {
        n->scheduler().owner()->post_admin(n->scheduler().shard_id(), std::move(attach));
      }
    }
  }
  for (auto [n, port] : {std::pair{node_a, port_a}, std::pair{node_b, port_b}}) {
    std::uint32_t& next = next_port_[n];
    next = std::max<std::uint32_t>(next, port + 1u);
  }
  links_.push_back(std::move(link));
  return ok_status();
}

Result<std::uint16_t> Network::next_free_port(const Node* node) const {
  auto it = next_port_.find(node);
  const std::uint32_t next = it == next_port_.end() ? 0 : it->second;
  if (next >= openflow::kPortMax) {
    return make_error("netemu.ports-exhausted",
                      node->name() + ": no port left below OFPP_MAX (0xff00)");
  }
  return static_cast<std::uint16_t>(next);
}

Link* Network::find_link(const std::string& a, const std::string& b) {
  for (auto& link : links_) {
    const std::string& na = link->node(0)->name();
    const std::string& nb = link->node(1)->name();
    if ((na == a && nb == b) || (na == b && nb == a)) return link.get();
  }
  return nullptr;
}

Status Network::set_link_state(const std::string& a, const std::string& b, bool up) {
  Link* link = find_link(a, b);
  if (!link) {
    return make_error("netemu.unknown-link", "no link between " + a + " and " + b);
  }
  link->set_up(up);
  return ok_status();
}

Node* Network::node(const std::string& name) {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : it->second.get();
}

template <typename T>
T* Network::typed_node(const std::string& name) {
  return dynamic_cast<T*>(node(name));
}

Host* Network::host(const std::string& name) { return typed_node<Host>(name); }
SwitchNode* Network::switch_node(const std::string& name) {
  return typed_node<SwitchNode>(name);
}
VnfContainer* Network::container(const std::string& name) {
  return typed_node<VnfContainer>(name);
}

std::vector<std::string> Network::node_names() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [name, _] : nodes_) out.push_back(name);
  return out;
}

void Network::attach_controller(pox::Controller& controller) {
  for (auto& [_, node] : nodes_) {
    if (auto* sw = dynamic_cast<SwitchNode*>(node.get())) {
      controller.attach_switch(sw->datapath());
    }
  }
}

std::size_t Network::partition(ShardedScheduler& sched, ShardBy mode, std::size_t threads) {
  if (mode == ShardBy::kNone || nodes_.empty()) return sched.shard_count();

  // Index nodes in map (name) order so every derived id is
  // deterministic for a given topology.
  std::vector<Node*> nodes;
  nodes.reserve(nodes_.size());
  for (auto& [_, node] : nodes_) nodes.push_back(node.get());
  std::map<Node*, std::size_t> index;
  for (std::size_t i = 0; i < nodes.size(); ++i) index[nodes[i]] = i;

  constexpr std::size_t kUnassigned = SIZE_MAX;
  std::vector<std::size_t> cluster(nodes.size(), kUnassigned);

  if (mode == ShardBy::kRegion) {
    std::map<std::string, std::size_t> region_id;  // prefix -> cluster
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::string& name = nodes[i]->name();
      const std::string region = name.substr(0, name.find('_'));
      cluster[i] = region_id.emplace(region, region_id.size()).first->second;
    }
  } else {  // ShardBy::kSwitch
    // Seed one cluster per switch, then multi-source BFS over the links
    // so every host/container joins its nearest switch; equidistant
    // nodes join the smaller cluster id.
    std::vector<std::vector<std::size_t>> adj(nodes.size());
    for (auto& link : links_) {
      adj[index[link->node(0)]].push_back(index[link->node(1)]);
      adj[index[link->node(1)]].push_back(index[link->node(0)]);
    }
    std::vector<std::size_t> frontier;
    std::size_t next_cluster = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i]->kind() == NodeKind::kSwitch) {
        cluster[i] = next_cluster++;
        frontier.push_back(i);
      }
    }
    while (!frontier.empty()) {
      std::map<std::size_t, std::size_t> claim;  // node -> min cluster this level
      for (std::size_t u : frontier) {
        for (std::size_t v : adj[u]) {
          if (cluster[v] != kUnassigned) continue;
          auto [it, fresh] = claim.emplace(v, cluster[u]);
          if (!fresh) it->second = std::min(it->second, cluster[u]);
        }
      }
      frontier.clear();
      for (auto [v, c] : claim) {
        cluster[v] = c;
        frontier.push_back(v);
      }
    }
    // No switch at all, or islands with none reachable: shard 0.
    std::size_t fallback = next_cluster == 0 ? next_cluster++ : 0;
    for (auto& c : cluster) {
      if (c == kUnassigned) c = fallback;
    }
  }

  // A zero-delay link between clusters would register zero lookahead and
  // force sequential execution; merge such clusters instead.
  std::size_t num_clusters = *std::max_element(cluster.begin(), cluster.end()) + 1;
  std::vector<std::size_t> parent(num_clusters);
  for (std::size_t i = 0; i < num_clusters; ++i) parent[i] = i;
  for (auto& link : links_) {
    if (link->config().delay == 0) {
      uf_union(parent, cluster[index[link->node(0)]], cluster[index[link->node(1)]]);
    }
  }

  // Compact cluster roots to 0..K-1 (first-appearance order over nodes),
  // folding round-robin above the shard cap.
  constexpr std::size_t kMaxShards = 64;
  std::map<std::size_t, std::size_t> compact;
  std::vector<std::size_t> shard_of(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::size_t root = uf_find(parent, cluster[i]);
    auto [it, _] = compact.emplace(root, compact.size());
    shard_of[i] = it->second % kMaxShards;
  }
  const std::size_t shards = std::min(compact.size(), kMaxShards);
  if (shards <= 1) return sched.shard_count();

  sched.resize(shards, threads);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i]->rebind_scheduler(sched.shard(shard_of[i]));
  }
  for (auto& link : links_) link->bind_shards();
  return shards;
}

std::size_t Network::switch_count() const {
  std::size_t n = 0;
  for (const auto& [_, node] : nodes_) n += node->kind() == NodeKind::kSwitch;
  return n;
}
std::size_t Network::host_count() const {
  std::size_t n = 0;
  for (const auto& [_, node] : nodes_) n += node->kind() == NodeKind::kHost;
  return n;
}
std::size_t Network::container_count() const {
  std::size_t n = 0;
  for (const auto& [_, node] : nodes_) n += node->kind() == NodeKind::kVnfContainer;
  return n;
}

}  // namespace escape::netemu
