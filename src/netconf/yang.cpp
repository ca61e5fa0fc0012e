#include "netconf/yang.hpp"

#include <set>

#include "util/strings.hpp"

namespace escape::netconf {

SchemaNode SchemaNode::container(std::string name, std::vector<SchemaNode> children) {
  SchemaNode n;
  n.name = std::move(name);
  n.kind = Kind::kContainer;
  n.children = std::move(children);
  return n;
}

SchemaNode SchemaNode::list(std::string name, std::string key,
                            std::vector<SchemaNode> children) {
  SchemaNode n;
  n.name = std::move(name);
  n.kind = Kind::kList;
  n.list_key = std::move(key);
  n.children = std::move(children);
  return n;
}

SchemaNode SchemaNode::leaf(std::string name, LeafType type, bool mandatory) {
  SchemaNode n;
  n.name = std::move(name);
  n.kind = Kind::kLeaf;
  n.leaf_type = type;
  n.mandatory = mandatory;
  return n;
}

SchemaNode SchemaNode::enumeration(std::string name, std::vector<std::string> values,
                                   bool mandatory) {
  SchemaNode n;
  n.name = std::move(name);
  n.kind = Kind::kLeaf;
  n.leaf_type = LeafType::kEnum;
  n.enum_values = std::move(values);
  n.mandatory = mandatory;
  return n;
}

const SchemaNode* SchemaNode::child(std::string_view child_name) const {
  for (const auto& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

namespace {

Status validate_leaf_value(const std::string& value, const SchemaNode& schema,
                           const std::string& path) {
  switch (schema.leaf_type) {
    case LeafType::kString:
      return ok_status();
    case LeafType::kUint:
      if (!strings::parse_u64(value)) {
        return make_error("yang.bad-value", path + ": expected unsigned integer, got '" +
                                                value + "'");
      }
      return ok_status();
    case LeafType::kDecimal:
      if (!strings::parse_double(value)) {
        return make_error("yang.bad-value", path + ": expected decimal, got '" + value + "'");
      }
      return ok_status();
    case LeafType::kBoolean:
      if (value != "true" && value != "false") {
        return make_error("yang.bad-value", path + ": expected true/false, got '" + value + "'");
      }
      return ok_status();
    case LeafType::kEnum:
      for (const auto& e : schema.enum_values) {
        if (e == value) return ok_status();
      }
      return make_error("yang.bad-value",
                        path + ": '" + value + "' not in enumeration");
  }
  return ok_status();
}

Status validate_node(const xml::Element& element, const SchemaNode& schema,
                     const std::string& path) {
  if (schema.kind == SchemaNode::Kind::kLeaf) {
    if (!element.children().empty()) {
      return make_error("yang.structure", path + ": leaf must not have child elements");
    }
    return validate_leaf_value(element.text(), schema, path);
  }

  // Container or list entry: check children against the schema.
  std::set<std::string> seen;
  for (const xml::Element& child : element.children()) {
    const std::string child_name(child.local_name());
    const std::string child_path = path + "/" + child_name;
    const SchemaNode* child_schema = schema.child(child_name);
    if (!child_schema) {
      return make_error("yang.unknown-element", child_path + ": not in the data model");
    }
    if (child_schema->kind != SchemaNode::Kind::kList && seen.count(child_name)) {
      return make_error("yang.duplicate", child_path + ": may appear at most once");
    }
    seen.insert(child_name);
    if (auto s = validate_node(child, *child_schema, child_path); !s.ok()) return s;
  }
  // Mandatory children present?
  for (const auto& child_schema : schema.children) {
    if (child_schema.mandatory && !seen.count(child_schema.name)) {
      return make_error("yang.missing-element",
                        path + "/" + child_schema.name + ": mandatory element missing");
    }
  }
  // List entries must carry their key.
  if (schema.kind == SchemaNode::Kind::kList && !schema.list_key.empty()) {
    if (!element.child(schema.list_key)) {
      return make_error("yang.missing-key",
                        path + ": list entry missing key '" + schema.list_key + "'");
    }
  }
  return ok_status();
}

}  // namespace

Status validate(const xml::Element& element, const SchemaNode& schema) {
  if (element.local_name() != schema.name) {
    return make_error("yang.wrong-root", "expected <" + schema.name + ">, got <" +
                                             std::string(element.local_name()) + ">");
  }
  return validate_node(element, schema, "/" + schema.name);
}

const SchemaNode& vnf_module_schema() {
  static const SchemaNode* schema = [] {
    using S = SchemaNode;
    auto* root = new SchemaNode(S::container(
        "vnfs",
        {S::list("vnf", "id",
                 {
                     S::leaf("id", LeafType::kString, /*mandatory=*/true),
                     S::leaf("type", LeafType::kString),
                     S::leaf("click-config", LeafType::kString),
                     S::leaf("cpu-share", LeafType::kDecimal),
                     S::enumeration("status", {"INITIALIZED", "RUNNING", "STOPPED"}),
                     S::list("connection", "device",
                             {
                                 S::leaf("device", LeafType::kString, /*mandatory=*/true),
                                 S::leaf("port", LeafType::kUint, /*mandatory=*/true),
                             }),
                     S::list("handler", "name",
                             {
                                 S::leaf("name", LeafType::kString, /*mandatory=*/true),
                                 S::leaf("value", LeafType::kString),
                             }),
                 })}));
    return root;
  }();
  return *schema;
}

std::string_view vnf_yang_source() {
  return R"(module escape-vnf {
  namespace "urn:escape:vnf";
  prefix ev;

  container vnfs {
    list vnf {
      key "id";
      leaf id           { type string; mandatory true; }
      leaf type         { type string; }
      leaf click-config { type string; }
      leaf cpu-share    { type decimal64 { fraction-digits 3; } }
      leaf status       { type enumeration {
                            enum INITIALIZED; enum RUNNING; enum STOPPED; } }
      list connection {
        key "device";
        leaf device { type string; mandatory true; }
        leaf port   { type uint16; mandatory true; }
      }
      list handler {
        key "name";
        leaf name  { type string; mandatory true; }
        leaf value { type string; }
      }
    }
  }

  rpc initiateVNF {
    input {
      leaf id           { type string; mandatory true; }
      leaf type         { type string; }
      leaf click-config { type string; mandatory true; }
      leaf cpu-share    { type decimal64 { fraction-digits 3; } }
    }
  }
  rpc startVNF     { input { leaf id { type string; mandatory true; } } }
  rpc stopVNF      { input { leaf id { type string; mandatory true; } } }
  rpc removeVNF    { input { leaf id { type string; mandatory true; } } }
  rpc connectVNF {
    input {
      leaf id     { type string; mandatory true; }
      leaf device { type string; mandatory true; }
      leaf port   { type uint16; mandatory true; }
    }
  }
  rpc disconnectVNF {
    input {
      leaf id     { type string; mandatory true; }
      leaf device { type string; mandatory true; }
    }
  }
  rpc getVNFInfo   { input { leaf id { type string; } } }
})";
}

}  // namespace escape::netconf
