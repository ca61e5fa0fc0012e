#include "netconf/vnf_agent.hpp"

#include "util/strings.hpp"

namespace escape::netconf {

using netemu::VnfInfo;
using netemu::VnfStatus;

VnfAgent::VnfAgent(std::shared_ptr<TransportEndpoint> transport,
                   netemu::VnfContainer& container)
    : container_(&container) {
  server_ = std::make_unique<NetconfServer>(
      std::move(transport),
      std::vector<std::string>{std::string(kBaseCapability), std::string(kVnfCapability),
                               "urn:ietf:params:netconf:capability:notification:1.0"});
  register_operations();
  // Push lifecycle transitions to subscribed managers.
  listener_id_ = container_->add_state_listener(
      [this](const std::string& vnf_id, netemu::VnfStatus status) {
        if (!subscribed_) return;
        auto event = std::make_unique<xml::Element>("vnf-state-change");
        event->set_attr("xmlns", "urn:escape:vnf");
        event->add_leaf("id", vnf_id);
        event->add_leaf("status", std::string(netemu::vnf_status_name(status)));
        server_->send_notification(std::move(event),
                                   std::to_string(container_->scheduler().now()));
      });
}

VnfAgent::~VnfAgent() { container_->remove_state_listener(listener_id_); }

std::unique_ptr<xml::Element> VnfAgent::state_tree(bool include_handlers) const {
  auto vnfs = std::make_unique<xml::Element>("vnfs");
  for (const auto& id : container_->vnf_ids()) {
    auto info = container_->vnf_info(id);
    if (!info.ok()) continue;
    auto& vnf = vnfs->add_child("vnf");
    vnf.add_leaf("id", info->id);
    vnf.add_leaf("type", info->vnf_type);
    vnf.add_leaf("cpu-share", strings::format("%.3f", info->cpu_share));
    vnf.add_leaf("status", std::string(netemu::vnf_status_name(info->status)));
    for (const auto& [dev, port] : info->devices) {
      auto& conn = vnf.add_child("connection");
      conn.add_leaf("device", dev);
      conn.add_leaf("port", std::to_string(port));
    }
    if (include_handlers) {
      for (const auto& [name, value] : info->handlers) {
        auto& h = vnf.add_child("handler");
        h.add_leaf("name", name);
        h.add_leaf("value", value);
      }
    }
  }
  return vnfs;
}

namespace {

/// Extracts a mandatory leaf from an RPC input.
Result<std::string> need_leaf(const xml::Element& op, std::string_view name) {
  const xml::Element* leaf = op.child(name);
  if (!leaf) {
    return make_error("missing-element",
                      "<" + std::string(name) + "> is required by " +
                          std::string(op.local_name()));
  }
  return leaf->text();
}

}  // namespace

void VnfAgent::register_operations() {
  auto* container = container_;

  server_->register_rpc("get", [this](const xml::Element&)
                                   -> Result<std::unique_ptr<xml::Element>> {
    auto data = std::make_unique<xml::Element>("data");
    auto tree = state_tree(/*include_handlers=*/true);
    // Dogfood the data model: what we emit must validate against it.
    if (auto s = validate(*tree, vnf_module_schema()); !s.ok()) return s.error();
    data->add_child(std::move(tree));
    return data;
  });

  server_->register_rpc("get-config", [this](const xml::Element&)
                                          -> Result<std::unique_ptr<xml::Element>> {
    auto data = std::make_unique<xml::Element>("data");
    data->add_child(state_tree(/*include_handlers=*/false));
    return data;
  });

  server_->register_rpc("get-schema", [](const xml::Element&)
                                          -> Result<std::unique_ptr<xml::Element>> {
    auto data = std::make_unique<xml::Element>("data");
    data->set_text(std::string(vnf_yang_source()));
    return data;
  });

  // Declarative provisioning: <edit-config><target><running/></target>
  // <config><vnfs><vnf>...</vnf></vnfs></config></edit-config>.
  // New <vnf> entries are initiated (use startVNF to run them); entries
  // carrying operation="delete" are removed. The payload must validate
  // against the escape-vnf module.
  server_->register_rpc(
      "edit-config",
      [container](const xml::Element& op) -> Result<std::unique_ptr<xml::Element>> {
        const xml::Element* config = op.child("config");
        if (!config) return make_error("missing-element", "<config> is required");
        const xml::Element* vnfs = config->child("vnfs");
        if (!vnfs) return make_error("missing-element", "<vnfs> is required in <config>");
        if (auto s = validate(*vnfs, vnf_module_schema()); !s.ok()) return s.error();

        for (const auto* vnf : vnfs->children_named("vnf")) {
          const std::string& id = vnf->child_text("id");
          const std::string operation = vnf->attr("operation");
          if (operation == "delete") {
            if (auto s = container->remove_vnf(id); !s.ok()) return s.error();
            continue;
          }
          if (!operation.empty() && operation != "merge" && operation != "create") {
            return make_error("bad-attribute", "unsupported operation '" + operation + "'");
          }
          double share = 0.1;
          if (const auto* s = vnf->child("cpu-share")) {
            share = strings::parse_double(s->text()).value_or(0.1);
          }
          if (auto s = container->init_vnf(id, vnf->child_text("type"),
                                           vnf->child_text("click-config"), share);
              !s.ok()) {
            return s.error();
          }
        }
        return std::unique_ptr<xml::Element>{};  // <ok/>
      });

  server_->register_rpc("create-subscription",
                        [this](const xml::Element&) -> Result<std::unique_ptr<xml::Element>> {
                          subscribed_ = true;
                          return std::unique_ptr<xml::Element>{};
                        });

  server_->register_rpc(
      "initiateVNF",
      [container](const xml::Element& op) -> Result<std::unique_ptr<xml::Element>> {
        auto id = need_leaf(op, "id");
        if (!id.ok()) return id.error();
        auto config = need_leaf(op, "click-config");
        if (!config.ok()) return config.error();
        const std::string type = op.child_text("type");
        double share = 0.1;
        if (const auto* s = op.child("cpu-share")) {
          auto parsed = strings::parse_double(s->text());
          if (!parsed || *parsed <= 0) {
            return make_error("invalid-value", "cpu-share must be a positive decimal");
          }
          share = *parsed;
        }
        if (auto s = container->init_vnf(*id, type, *config, share); !s.ok()) {
          return s.error();
        }
        return std::unique_ptr<xml::Element>{};  // <ok/>
      });

  auto id_only = [container](Status (netemu::VnfContainer::*method)(const std::string&)) {
    return [container, method](const xml::Element& op) -> Result<std::unique_ptr<xml::Element>> {
      auto id = need_leaf(op, "id");
      if (!id.ok()) return id.error();
      if (auto s = (container->*method)(*id); !s.ok()) return s.error();
      return std::unique_ptr<xml::Element>{};
    };
  };
  server_->register_rpc("startVNF", id_only(&netemu::VnfContainer::start_vnf));
  server_->register_rpc("stopVNF", id_only(&netemu::VnfContainer::stop_vnf));
  server_->register_rpc("removeVNF", id_only(&netemu::VnfContainer::remove_vnf));

  server_->register_rpc(
      "connectVNF",
      [container](const xml::Element& op) -> Result<std::unique_ptr<xml::Element>> {
        auto id = need_leaf(op, "id");
        if (!id.ok()) return id.error();
        auto device = need_leaf(op, "device");
        if (!device.ok()) return device.error();
        auto port_text = need_leaf(op, "port");
        if (!port_text.ok()) return port_text.error();
        auto port = strings::parse_u64(*port_text);
        if (!port || *port > 0xffff) {
          return make_error("invalid-value", "port must be a uint16");
        }
        if (auto s = container->connect_vnf(*id, *device,
                                            static_cast<std::uint16_t>(*port));
            !s.ok()) {
          return s.error();
        }
        return std::unique_ptr<xml::Element>{};
      });

  server_->register_rpc(
      "disconnectVNF",
      [container](const xml::Element& op) -> Result<std::unique_ptr<xml::Element>> {
        auto id = need_leaf(op, "id");
        if (!id.ok()) return id.error();
        auto device = need_leaf(op, "device");
        if (!device.ok()) return device.error();
        if (auto s = container->disconnect_vnf(*id, *device); !s.ok()) return s.error();
        return std::unique_ptr<xml::Element>{};
      });

  server_->register_rpc(
      "getVNFInfo",
      [container](const xml::Element& op) -> Result<std::unique_ptr<xml::Element>> {
        auto id = need_leaf(op, "id");
        if (!id.ok()) return id.error();
        auto info = container->vnf_info(*id);
        if (!info.ok()) return info.error();
        auto out = std::make_unique<xml::Element>("vnf-info");
        out->add_leaf("id", info->id);
        out->add_leaf("type", info->vnf_type);
        out->add_leaf("status", std::string(netemu::vnf_status_name(info->status)));
        out->add_leaf("cpu-share", strings::format("%.3f", info->cpu_share));
        for (const auto& [name, value] : info->handlers) {
          auto& h = out->add_child("handler");
          h.add_leaf("name", name);
          h.add_leaf("value", value);
        }
        for (const auto& [dev, _] : info->devices) out->add_leaf("device", dev);
        return out;
      });

  // --- flow-state migration (scale-out/in handoff) ------------------------
  // Not part of the YANG-validated config surface: only get/edit-config
  // validate, so these RPCs ride the same session with no schema change.

  server_->register_rpc(
      "exportFlowState",
      [container](const xml::Element& op) -> Result<std::unique_ptr<xml::Element>> {
        auto id = need_leaf(op, "id");
        if (!id.ok()) return id.error();
        auto blob = container->export_flow_state(*id);
        if (!blob.ok()) return blob.error();
        auto out = std::make_unique<xml::Element>("flow-state");
        out->set_text(*blob);
        return out;
      });

  server_->register_rpc(
      "importFlowState",
      [container](const xml::Element& op) -> Result<std::unique_ptr<xml::Element>> {
        auto id = need_leaf(op, "id");
        if (!id.ok()) return id.error();
        const xml::Element* state = op.child("flow-state");
        if (!state) return make_error("missing-element", "<flow-state> is required");
        if (auto s = container->import_flow_state(*id, state->text()); !s.ok()) {
          return s.error();
        }
        return std::unique_ptr<xml::Element>{};  // <ok/>
      });

  // Generic handler write (e.g. "fm.hold" -> 0 to release a migration
  // hold buffer); the read side already rides getVNFInfo.
  server_->register_rpc(
      "setVNFHandler",
      [container](const xml::Element& op) -> Result<std::unique_ptr<xml::Element>> {
        auto id = need_leaf(op, "id");
        if (!id.ok()) return id.error();
        auto handler = need_leaf(op, "handler");
        if (!handler.ok()) return handler.error();
        const std::string value = op.child_text("value");
        if (auto s = container->write_handler(*id, *handler, value); !s.ok()) {
          return s.error();
        }
        return std::unique_ptr<xml::Element>{};  // <ok/>
      });
}

// --- VnfAgentClient -------------------------------------------------------------

VnfAgentClient::VnfAgentClient(std::shared_ptr<TransportEndpoint> transport)
    : client_(std::make_unique<NetconfClient>(std::move(transport))) {}

void VnfAgentClient::simple_rpc(std::unique_ptr<xml::Element> op, StatusCallback cb) {
  client_->rpc(std::move(op), [cb = std::move(cb)](Result<std::unique_ptr<xml::Element>> r) {
    if (!r.ok()) {
      cb(r.error());
    } else {
      cb(ok_status());
    }
  });
}

void VnfAgentClient::initiate_vnf(const std::string& id, const std::string& type,
                                  const std::string& click_config, double cpu_share,
                                  StatusCallback cb) {
  auto op = std::make_unique<xml::Element>("initiateVNF");
  op->set_attr("xmlns", "urn:escape:vnf");
  op->add_leaf("id", id);
  op->add_leaf("type", type);
  op->add_leaf("click-config", click_config);
  op->add_leaf("cpu-share", strings::format("%.3f", cpu_share));
  simple_rpc(std::move(op), std::move(cb));
}

void VnfAgentClient::start_vnf(const std::string& id, StatusCallback cb) {
  auto op = std::make_unique<xml::Element>("startVNF");
  op->set_attr("xmlns", "urn:escape:vnf");
  op->add_leaf("id", id);
  simple_rpc(std::move(op), std::move(cb));
}

void VnfAgentClient::stop_vnf(const std::string& id, StatusCallback cb) {
  auto op = std::make_unique<xml::Element>("stopVNF");
  op->set_attr("xmlns", "urn:escape:vnf");
  op->add_leaf("id", id);
  simple_rpc(std::move(op), std::move(cb));
}

void VnfAgentClient::remove_vnf(const std::string& id, StatusCallback cb) {
  auto op = std::make_unique<xml::Element>("removeVNF");
  op->set_attr("xmlns", "urn:escape:vnf");
  op->add_leaf("id", id);
  simple_rpc(std::move(op), std::move(cb));
}

void VnfAgentClient::connect_vnf(const std::string& id, const std::string& device,
                                 std::uint16_t port, StatusCallback cb) {
  auto op = std::make_unique<xml::Element>("connectVNF");
  op->set_attr("xmlns", "urn:escape:vnf");
  op->add_leaf("id", id);
  op->add_leaf("device", device);
  op->add_leaf("port", std::to_string(port));
  simple_rpc(std::move(op), std::move(cb));
}

void VnfAgentClient::disconnect_vnf(const std::string& id, const std::string& device,
                                    StatusCallback cb) {
  auto op = std::make_unique<xml::Element>("disconnectVNF");
  op->set_attr("xmlns", "urn:escape:vnf");
  op->add_leaf("id", id);
  op->add_leaf("device", device);
  simple_rpc(std::move(op), std::move(cb));
}

void VnfAgentClient::subscribe_events(EventCallback on_event, StatusCallback done) {
  client_->on_notification([on_event = std::move(on_event)](const xml::Element& event) {
    if (event.local_name() != "vnf-state-change") return;
    const std::string& status_text = event.child_text("status");
    const VnfStatus status = status_text == "RUNNING"   ? VnfStatus::kRunning
                             : status_text == "STOPPED" ? VnfStatus::kStopped
                                                        : VnfStatus::kInitialized;
    on_event(event.child_text("id"), status);
  });
  auto op = std::make_unique<xml::Element>("create-subscription");
  op->set_attr("xmlns", "urn:ietf:params:xml:ns:netconf:notification:1.0");
  simple_rpc(std::move(op), std::move(done));
}

void VnfAgentClient::export_flow_state(const std::string& id, BlobCallback cb) {
  auto op = std::make_unique<xml::Element>("exportFlowState");
  op->set_attr("xmlns", "urn:escape:vnf");
  op->add_leaf("id", id);
  client_->rpc(std::move(op), [cb = std::move(cb)](Result<std::unique_ptr<xml::Element>> r) {
    if (!r.ok()) {
      cb(r.error());
      return;
    }
    const xml::Element* state = (*r)->child("flow-state");
    if (!state) {
      cb(make_error("netconf.client.bad-reply", "missing <flow-state> in reply"));
      return;
    }
    cb(state->text());
  });
}

void VnfAgentClient::import_flow_state(const std::string& id, const std::string& blob,
                                       StatusCallback cb) {
  auto op = std::make_unique<xml::Element>("importFlowState");
  op->set_attr("xmlns", "urn:escape:vnf");
  op->add_leaf("id", id);
  op->add_leaf("flow-state", blob);
  simple_rpc(std::move(op), std::move(cb));
}

void VnfAgentClient::set_vnf_handler(const std::string& id, const std::string& handler,
                                     const std::string& value, StatusCallback cb) {
  auto op = std::make_unique<xml::Element>("setVNFHandler");
  op->set_attr("xmlns", "urn:escape:vnf");
  op->add_leaf("id", id);
  op->add_leaf("handler", handler);
  op->add_leaf("value", value);
  simple_rpc(std::move(op), std::move(cb));
}

void VnfAgentClient::get_vnf_info(const std::string& id, InfoCallback cb) {
  auto op = std::make_unique<xml::Element>("getVNFInfo");
  op->set_attr("xmlns", "urn:escape:vnf");
  op->add_leaf("id", id);
  client_->rpc(std::move(op), [cb = std::move(cb)](Result<std::unique_ptr<xml::Element>> r) {
    if (!r.ok()) {
      cb(r.error());
      return;
    }
    const xml::Element* info_el = (*r)->child("vnf-info");
    if (!info_el) {
      cb(make_error("netconf.client.bad-reply", "missing <vnf-info> in reply"));
      return;
    }
    VnfInfo info;
    info.id = info_el->child_text("id");
    info.vnf_type = info_el->child_text("type");
    info.cpu_share = strings::parse_double(info_el->child_text("cpu-share")).value_or(0);
    const std::string& status = info_el->child_text("status");
    info.status = status == "RUNNING"   ? VnfStatus::kRunning
                  : status == "STOPPED" ? VnfStatus::kStopped
                                        : VnfStatus::kInitialized;
    for (const auto* h : info_el->children_named("handler")) {
      info.handlers[h->child_text("name")] = h->child_text("value");
    }
    for (const auto* d : info_el->children_named("device")) {
      info.devices.emplace_back(d->text(), 0);
    }
    cb(std::move(info));
  });
}

}  // namespace escape::netconf
