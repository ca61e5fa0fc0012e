// The VNF container node: Mininet extended "with the notion of VNFs that
// can be started as processes with configurable isolation models".
//
// A container is a managed execution environment hosting Click-based VNF
// instances. The cgroup-style isolation is modeled as CPU shares: the
// sum of the shares of running VNFs may not exceed the container's CPU
// capacity, and each VNF's Click router scales its per-packet processing
// cost by 1/share. The NETCONF agent (netconf/vnf_agent.hpp) drives this
// class through the exact operations the paper lists: start/stop VNFs
// and connect/disconnect VNFs to/from switches.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "click/config.hpp"
#include "click/elements.hpp"
#include "netemu/node.hpp"
#include "util/logging.hpp"

namespace escape::netemu {

enum class VnfStatus { kInitialized, kRunning, kStopped };

std::string_view vnf_status_name(VnfStatus status);

/// Snapshot of one VNF for management queries (getVNFInfo).
struct VnfInfo {
  std::string id;
  std::string vnf_type;
  VnfStatus status = VnfStatus::kInitialized;
  double cpu_share = 0;
  std::map<std::string, std::string> handlers;  // "element.handler" -> value
  // Connected (device name, container port). The getVNFInfo reply names
  // the devices only, so an info read over NETCONF has ports 0.
  std::vector<std::pair<std::string, std::uint16_t>> devices;
};

class VnfContainer : public Node {
 public:
  VnfContainer(std::string name, EventScheduler& scheduler, double cpu_capacity = 1.0,
               std::size_t max_vnfs = 16);

  NodeKind kind() const override { return NodeKind::kVnfContainer; }
  double cpu_capacity() const { return cpu_capacity_; }
  double cpu_in_use() const;
  std::size_t max_vnfs() const { return max_vnfs_; }

  void deliver(std::uint16_t port, net::Packet&& packet) override;

  // --- the management operations exposed through NETCONF -----------------

  /// Defines a VNF instance: records its Click configuration and CPU
  /// share. The Click graph is built on start.
  Status init_vnf(const std::string& vnf_id, const std::string& vnf_type,
                  const std::string& click_config, double cpu_share);

  /// Builds and starts the VNF's Click router. Fails if the CPU budget
  /// would be exceeded or the configuration does not parse.
  Status start_vnf(const std::string& vnf_id);

  /// Stops a running VNF: tears the Click graph down, keeping a final
  /// snapshot of its handlers for post-mortem queries.
  Status stop_vnf(const std::string& vnf_id);

  /// Removes a stopped/initialized VNF entirely.
  Status remove_vnf(const std::string& vnf_id);

  /// Connects the VNF device `devname` to container port `port`: frames
  /// arriving on that port are injected into the VNF's FromDevice, and
  /// the VNF's ToDevice transmits out of the port.
  Status connect_vnf(const std::string& vnf_id, const std::string& devname,
                     std::uint16_t port);

  Status disconnect_vnf(const std::string& vnf_id, const std::string& devname);

  /// Runtime status + handler values (the Clicky monitoring surface).
  Result<VnfInfo> vnf_info(const std::string& vnf_id) const;

  /// Reads one handler of a running VNF ("counter0.count").
  Result<std::string> read_handler(const std::string& vnf_id, std::string_view spec) const;

  /// Writes one handler of a running VNF.
  Status write_handler(const std::string& vnf_id, std::string_view spec,
                       std::string_view value);

  /// Serializes the flow state of every FlowManager in the VNF's router
  /// (per-flow headers + stateful-element scratch) to the handoff wire
  /// format. Deliberately NOT a Click read handler: getVNFInfo snapshots
  /// every handler on each monitoring poll, and serializing the whole
  /// flow table per poll would be absurd.
  Result<std::string> export_flow_state(const std::string& vnf_id) const;

  /// Restores flow state exported from another instance of the same
  /// catalog template (FlowManager sections matched by element name).
  Status import_flow_state(const std::string& vnf_id, const std::string& blob);

  std::vector<std::string> vnf_ids() const;

  /// Observer for VNF lifecycle transitions (the NETCONF agent hooks in
  /// here to push notifications). Fires after the transition commits.
  /// Returns an id for remove_state_listener -- agents unregister on
  /// destruction so a respawned agent never leaves a dangling callback.
  using StateListener =
      std::function<void(const std::string& vnf_id, VnfStatus new_status)>;
  std::uint64_t add_state_listener(StateListener fn) {
    const std::uint64_t id = next_listener_id_++;
    listeners_.emplace_back(id, std::move(fn));
    return id;
  }
  void remove_state_listener(std::uint64_t id);

  // --- fault-plane hooks ---------------------------------------------------

  /// Power-fails the container: every VNF process dies instantly (no
  /// handler snapshots, no lifecycle notifications -- nobody is left to
  /// send them), the instance table is wiped and frames are dropped
  /// until restore(). Management operations fail with container.dead.
  void crash();

  /// Powers a crashed container back on, empty; VNFs must be re-initiated.
  void restore();

  bool alive() const { return alive_; }

 private:
  void notify(const std::string& vnf_id, VnfStatus status) {
    for (auto& [_, fn] : listeners_) fn(vnf_id, status);
  }
  struct Instance {
    std::string id;
    std::string vnf_type;
    std::string click_config;
    double cpu_share = 0.1;
    VnfStatus status = VnfStatus::kInitialized;
    std::unique_ptr<click::Router> router;
    std::map<std::string, std::uint16_t> device_to_port;
    std::map<std::string, std::string> final_handlers;  // snapshot at stop
  };

  Instance* find(const std::string& vnf_id);
  const Instance* find(const std::string& vnf_id) const;
  void wire_devices(Instance& inst);
  std::map<std::string, std::string> snapshot_handlers(const Instance& inst) const;

  double cpu_capacity_;
  std::size_t max_vnfs_;
  bool alive_ = true;
  std::uint64_t next_listener_id_ = 1;
  std::vector<std::pair<std::uint64_t, StateListener>> listeners_;
  std::map<std::string, Instance> vnfs_;
  // port -> (vnf, FromDevice element) for fast delivery.
  std::map<std::uint16_t, std::pair<Instance*, click::FromDevice*>> port_rx_;
  Logger log_{"netemu.container"};
};

/// Splits export_flow_state() blobs into `parts` import blobs by the
/// rule a MODE hash FlowLB with `parts` outputs routes by, so each flow's
/// state lands on the replica its packets reach. A part repeats the
/// `manager` header of the flows it receives and closes it with
/// `endmanager`; a part that receives no flow stays empty. A flow record
/// import_flow_state would reject is dropped with its state lines.
std::vector<std::string> split_flow_state(const std::vector<std::string>& blobs,
                                          std::size_t parts);

}  // namespace escape::netemu
