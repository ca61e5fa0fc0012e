// Minimal XML document model + parser + serializer.
//
// This is the encoding layer of the NETCONF management plane (RFC 6241
// messages are XML). The subset implemented covers what NETCONF needs:
// elements, attributes (including xmlns), character data, entity escapes,
// comments and XML declarations (both skipped). Not supported: DTDs,
// processing instructions other than <?xml ...?>, CDATA sections.
//
// A message costs about one pass over its bytes. The parser scans names,
// attribute values and text as runs of the input and unescapes a run
// only when it holds '&'; an element holds its children by value, so a
// tree costs one allocation per child list; serialization appends
// escaped runs into one buffer.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.hpp"

namespace escape::xml {

/// An XML element node. Children are held by value; text content is
/// modeled as the concatenated character data directly under this
/// element (mixed content keeps element children and text separately,
/// which is enough for NETCONF payloads where leaves hold text and
/// containers hold elements).
class Element {
 public:
  /// Attributes in key order, one entry per key.
  using Attributes = std::vector<std::pair<std::string, std::string>>;

  Element() = default;
  explicit Element(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Local name with any namespace prefix stripped ("nc:rpc" -> "rpc").
  /// Views this element's name.
  std::string_view local_name() const;

  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  const Attributes& attributes() const { return attrs_; }
  /// Sets (or replaces) an attribute.
  void set_attr(std::string_view key, std::string value);
  /// Returns the attribute value or "" if absent.
  const std::string& attr(std::string_view key) const;
  bool has_attr(std::string_view key) const;

  const std::vector<Element>& children() const { return children_; }

  /// Appends a child and returns a reference to it. The reference is
  /// valid until the next add_child on this element: children live in
  /// one vector, which may move them when it grows.
  Element& add_child(std::string name);
  /// Moves `child` in (the pointer's element is left empty).
  Element& add_child(std::unique_ptr<Element> child);

  /// Convenience: adds <name>text</name>.
  Element& add_leaf(std::string name, std::string text);

  /// First direct child whose local name matches, or nullptr.
  const Element* child(std::string_view local) const;
  Element* child(std::string_view local);

  /// All direct children whose local name matches.
  std::vector<const Element*> children_named(std::string_view local) const;

  /// Descendant lookup by path of local names, e.g. find("data/vnfs/vnf").
  const Element* find(std::string_view path) const;

  /// Text of the named direct child, or "" if absent.
  const std::string& child_text(std::string_view local) const;

  /// Serializes the subtree. `indent` < 0 -> compact single line.
  std::string to_string(int indent = -1) const;

  /// Appends the compact serialization to `out`.
  void append_to(std::string& out) const { serialize(out, -1, 0); }

  /// Length of the compact serialization, so a writer can size its
  /// buffer once.
  std::size_t serialized_size() const;

  /// Deep copy.
  std::unique_ptr<Element> clone() const;

 private:
  friend class Parser;

  void serialize(std::string& out, int indent, int depth) const;

  std::string name_;
  std::string text_;
  Attributes attrs_;
  std::vector<Element> children_;
};

/// Appends `raw` to `out` with &, <, >, ", ' escaped, for use in text or
/// attribute values.
void append_escaped(std::string& out, std::string_view raw);

/// Parses a document; returns the root element.
Result<std::unique_ptr<Element>> parse(std::string_view input);

}  // namespace escape::xml
