#include "netemu/vnf_container.hpp"

#include <algorithm>
#include <sstream>

#include "click/flow.hpp"

namespace escape::netemu {

std::string_view vnf_status_name(VnfStatus status) {
  switch (status) {
    case VnfStatus::kInitialized: return "INITIALIZED";
    case VnfStatus::kRunning: return "RUNNING";
    case VnfStatus::kStopped: return "STOPPED";
  }
  return "?";
}

VnfContainer::VnfContainer(std::string name, EventScheduler& scheduler, double cpu_capacity,
                           std::size_t max_vnfs)
    : Node(std::move(name), scheduler), cpu_capacity_(cpu_capacity), max_vnfs_(max_vnfs) {}

double VnfContainer::cpu_in_use() const {
  double used = 0;
  for (const auto& [_, inst] : vnfs_) {
    if (inst.status == VnfStatus::kRunning) used += inst.cpu_share;
  }
  return used;
}

void VnfContainer::remove_state_listener(std::uint64_t id) {
  std::erase_if(listeners_, [id](const auto& entry) { return entry.first == id; });
}

void VnfContainer::crash() {
  if (!alive_) return;
  alive_ = false;
  log_.warn(name(), ": container crashed (", vnfs_.size(), " VNFs lost)");
  port_rx_.clear();
  vnfs_.clear();
}

void VnfContainer::restore() {
  if (alive_) return;
  alive_ = true;
  log_.info(name(), ": container restored (empty)");
}

VnfContainer::Instance* VnfContainer::find(const std::string& vnf_id) {
  auto it = vnfs_.find(vnf_id);
  return it == vnfs_.end() ? nullptr : &it->second;
}

const VnfContainer::Instance* VnfContainer::find(const std::string& vnf_id) const {
  auto it = vnfs_.find(vnf_id);
  return it == vnfs_.end() ? nullptr : &it->second;
}

Status VnfContainer::init_vnf(const std::string& vnf_id, const std::string& vnf_type,
                              const std::string& click_config, double cpu_share) {
  if (!alive_) return make_error("container.dead", name() + " is crashed");
  if (vnfs_.count(vnf_id)) {
    return make_error("container.vnf-exists", name() + ": VNF already defined: " + vnf_id);
  }
  if (vnfs_.size() >= max_vnfs_) {
    return make_error("container.full", name() + ": VNF slots exhausted");
  }
  if (cpu_share <= 0 || cpu_share > cpu_capacity_) {
    return make_error("container.bad-share",
                      name() + ": cpu share must be in (0, capacity]");
  }
  Instance inst;
  inst.id = vnf_id;
  inst.vnf_type = vnf_type;
  inst.click_config = click_config;
  inst.cpu_share = cpu_share;
  vnfs_.emplace(vnf_id, std::move(inst));
  log_.info(name(), ": initiated VNF ", vnf_id, " (", vnf_type, ")");
  notify(vnf_id, VnfStatus::kInitialized);
  return ok_status();
}

void VnfContainer::wire_devices(Instance& inst) {
  if (!inst.router) return;
  for (click::Element* e : inst.router->elements_in_order()) {
    if (auto* from = dynamic_cast<click::FromDevice*>(e)) {
      auto it = inst.device_to_port.find(from->devname());
      if (it != inst.device_to_port.end()) {
        port_rx_[it->second] = {&inst, from};
      }
    } else if (auto* to = dynamic_cast<click::ToDevice*>(e)) {
      auto it = inst.device_to_port.find(to->devname());
      if (it != inst.device_to_port.end()) {
        const std::uint16_t port = it->second;
        to->set_sink([this, port](net::Packet&& p) { send_out(port, std::move(p)); });
      } else {
        to->set_sink(nullptr);
      }
    }
  }
}

Status VnfContainer::start_vnf(const std::string& vnf_id) {
  if (!alive_) return make_error("container.dead", name() + " is crashed");
  Instance* inst = find(vnf_id);
  if (!inst) return make_error("container.unknown-vnf", name() + ": no such VNF: " + vnf_id);
  if (inst->status == VnfStatus::kRunning) {
    return make_error("container.already-running", vnf_id + " is already running");
  }
  if (cpu_in_use() + inst->cpu_share > cpu_capacity_ + 1e-9) {
    return make_error("container.cpu-exhausted",
                      name() + ": starting " + vnf_id + " would exceed CPU capacity");
  }
  auto router = click::build_router(inst->click_config, scheduler());
  if (!router.ok()) {
    return make_error(router.error().code,
                      vnf_id + ": click configuration rejected: " + router.error().message);
  }
  inst->router = std::move(*router);
  inst->router->set_cpu_share(inst->cpu_share);
  inst->status = VnfStatus::kRunning;
  wire_devices(*inst);
  // Clicky surface -> registry: every read handler of the running VNF
  // becomes a scrapeable gauge, labelled by container and VNF id. The
  // export dies with the router (stop_vnf resets it).
  inst->router->export_metrics(obs::MetricsRegistry::global(),
                               {{"container", name()}, {"vnf", vnf_id}});
  log_.info(name(), ": started VNF ", vnf_id);
  notify(vnf_id, VnfStatus::kRunning);
  return ok_status();
}

std::map<std::string, std::string> VnfContainer::snapshot_handlers(const Instance& inst) const {
  std::map<std::string, std::string> out;
  if (!inst.router) return out;
  // Walks the handlers in place, as Router::list_read_handlers names
  // them; a repeated name keeps its first handler, as call_read does.
  for (const click::Element* e : inst.router->elements_in_order()) {
    for (const auto& [handler, read] : e->read_handlers()) {
      std::string spec;
      spec.reserve(e->name().size() + 1 + handler.size());
      spec.append(e->name()).append(1, '.').append(handler);
      out.try_emplace(std::move(spec), read());
    }
  }
  return out;
}

Status VnfContainer::stop_vnf(const std::string& vnf_id) {
  Instance* inst = find(vnf_id);
  if (!inst) return make_error("container.unknown-vnf", name() + ": no such VNF: " + vnf_id);
  if (inst->status != VnfStatus::kRunning) {
    return make_error("container.not-running", vnf_id + " is not running");
  }
  inst->final_handlers = snapshot_handlers(*inst);
  // Unwire delivery paths that point into this router.
  for (auto it = port_rx_.begin(); it != port_rx_.end();) {
    if (it->second.first == inst) {
      it = port_rx_.erase(it);
    } else {
      ++it;
    }
  }
  inst->router.reset();
  inst->status = VnfStatus::kStopped;
  log_.info(name(), ": stopped VNF ", vnf_id);
  notify(vnf_id, VnfStatus::kStopped);
  return ok_status();
}

Status VnfContainer::remove_vnf(const std::string& vnf_id) {
  Instance* inst = find(vnf_id);
  if (!inst) return make_error("container.unknown-vnf", name() + ": no such VNF: " + vnf_id);
  if (inst->status == VnfStatus::kRunning) {
    return make_error("container.still-running", vnf_id + " must be stopped first");
  }
  vnfs_.erase(vnf_id);
  return ok_status();
}

Status VnfContainer::connect_vnf(const std::string& vnf_id, const std::string& devname,
                                 std::uint16_t port) {
  if (!alive_) return make_error("container.dead", name() + " is crashed");
  Instance* inst = find(vnf_id);
  if (!inst) return make_error("container.unknown-vnf", name() + ": no such VNF: " + vnf_id);
  // The port must not be claimed by a different VNF device already.
  for (const auto& [id, other] : vnfs_) {
    for (const auto& [dev, p] : other.device_to_port) {
      if (p == port && !(id == vnf_id && dev == devname)) {
        return make_error("container.port-in-use",
                          name() + ": port " + std::to_string(port) + " already connected");
      }
    }
  }
  inst->device_to_port[devname] = port;
  if (inst->status == VnfStatus::kRunning) wire_devices(*inst);
  log_.info(name(), ": connected ", vnf_id, "/", devname, " to port ", port);
  return ok_status();
}

Status VnfContainer::disconnect_vnf(const std::string& vnf_id, const std::string& devname) {
  Instance* inst = find(vnf_id);
  if (!inst) return make_error("container.unknown-vnf", name() + ": no such VNF: " + vnf_id);
  auto it = inst->device_to_port.find(devname);
  if (it == inst->device_to_port.end()) {
    return make_error("container.unknown-device", vnf_id + " has no device " + devname);
  }
  port_rx_.erase(it->second);
  inst->device_to_port.erase(it);
  if (inst->status == VnfStatus::kRunning) wire_devices(*inst);
  return ok_status();
}

void VnfContainer::deliver(std::uint16_t port, net::Packet&& packet) {
  if (!alive_) return;  // crashed containers eat frames
  auto it = port_rx_.find(port);
  if (it == port_rx_.end()) return;  // no running VNF on this port
  packet.set_in_port(port);
  it->second.second->inject(std::move(packet));
}

Result<VnfInfo> VnfContainer::vnf_info(const std::string& vnf_id) const {
  const Instance* inst = find(vnf_id);
  if (!inst) return make_error("container.unknown-vnf", name() + ": no such VNF: " + vnf_id);
  VnfInfo info;
  info.id = inst->id;
  info.vnf_type = inst->vnf_type;
  info.status = inst->status;
  info.cpu_share = inst->cpu_share;
  info.handlers =
      inst->status == VnfStatus::kRunning ? snapshot_handlers(*inst) : inst->final_handlers;
  info.devices.assign(inst->device_to_port.begin(), inst->device_to_port.end());
  return info;
}

Result<std::string> VnfContainer::read_handler(const std::string& vnf_id,
                                               std::string_view spec) const {
  const Instance* inst = find(vnf_id);
  if (!inst) return make_error("container.unknown-vnf", name() + ": no such VNF: " + vnf_id);
  if (inst->status != VnfStatus::kRunning || !inst->router) {
    return make_error("container.not-running", vnf_id + " is not running");
  }
  return inst->router->call_read(spec);
}

Status VnfContainer::write_handler(const std::string& vnf_id, std::string_view spec,
                                   std::string_view value) {
  Instance* inst = find(vnf_id);
  if (!inst) return make_error("container.unknown-vnf", name() + ": no such VNF: " + vnf_id);
  if (inst->status != VnfStatus::kRunning || !inst->router) {
    return make_error("container.not-running", vnf_id + " is not running");
  }
  return inst->router->call_write(spec, value);
}

Result<std::string> VnfContainer::export_flow_state(const std::string& vnf_id) const {
  const Instance* inst = find(vnf_id);
  if (!inst) return make_error("container.unknown-vnf", name() + ": no such VNF: " + vnf_id);
  if (inst->status != VnfStatus::kRunning || !inst->router) {
    return make_error("container.not-running", vnf_id + " is not running");
  }
  // Sections in element declaration order; one per FlowManager so a VNF
  // with several managers round-trips each table to its counterpart.
  std::ostringstream os;
  for (click::Element* e : inst->router->elements_in_order()) {
    if (std::string_view(e->class_name()) != "FlowManager") continue;
    auto* fm = static_cast<click::FlowManager*>(e);
    os << "manager " << fm->name() << '\n' << fm->export_state() << "endmanager\n";
  }
  return os.str();
}

Status VnfContainer::import_flow_state(const std::string& vnf_id, const std::string& blob) {
  Instance* inst = find(vnf_id);
  if (!inst) return make_error("container.unknown-vnf", name() + ": no such VNF: " + vnf_id);
  if (inst->status != VnfStatus::kRunning || !inst->router) {
    return make_error("container.not-running", vnf_id + " is not running");
  }
  std::istringstream lines(blob);
  std::string line;
  click::FlowManager* fm = nullptr;
  std::string section;
  auto flush = [&]() -> Status {
    if (fm == nullptr) return ok_status();
    auto imported = fm->import_state(section);
    section.clear();
    fm = nullptr;
    return imported.ok() ? ok_status() : imported.error();
  };
  while (std::getline(lines, line)) {
    if (line.rfind("manager ", 0) == 0) {
      if (auto s = flush(); !s.ok()) return s;
      const std::string elem_name = line.substr(8);
      click::Element* e = inst->router->element(elem_name);
      if (e == nullptr || std::string_view(e->class_name()) != "FlowManager") {
        return make_error("container.flow-import",
                          vnf_id + " has no FlowManager named '" + elem_name + "'");
      }
      fm = static_cast<click::FlowManager*>(e);
    } else if (line == "endmanager") {
      if (auto s = flush(); !s.ok()) return s;
    } else if (!line.empty()) {
      if (fm == nullptr) {
        return make_error("container.flow-import", "flow state outside a manager section");
      }
      section += line;
      section += '\n';
    }
  }
  return flush();
}

std::vector<std::string> split_flow_state(const std::vector<std::string>& blobs,
                                          std::size_t parts) {
  std::vector<std::string> out(parts);
  std::vector<bool> open(parts, false);
  std::string manager;
  auto close_all = [&] {
    for (std::size_t p = 0; p < parts; ++p) {
      if (open[p]) out[p] += "endmanager\n";
      open[p] = false;
    }
  };
  for (const std::string& blob : blobs) {
    std::istringstream lines(blob);
    std::string line;
    std::size_t current = parts;  // no flow routed yet
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      if (line.rfind("manager ", 0) == 0) {
        close_all();
        manager = line;
        current = parts;
      } else if (line == "endmanager") {
        close_all();
        current = parts;
      } else if (line.rfind("flow ", 0) == 0) {
        const std::optional<click::FlowBlockHeader> record = click::parse_flow_record(line);
        if (!record) {
          current = parts;  // dropped, and its state lines with it
          continue;
        }
        current = record->tuple.hash_backend(parts);
        if (!open[current]) out[current] += manager + '\n';
        open[current] = true;
        out[current] += line + '\n';
      } else if (current < parts) {
        out[current] += line + '\n';  // "state ..." lines follow their flow
      }
    }
    close_all();
  }
  return out;
}

std::vector<std::string> VnfContainer::vnf_ids() const {
  std::vector<std::string> out;
  out.reserve(vnfs_.size());
  for (const auto& [id, _] : vnfs_) out.push_back(id);
  return out;
}

}  // namespace escape::netemu
