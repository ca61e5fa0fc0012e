// The XML parser as it was before the one-pass rewrite, kept verbatim
// as the oracle of the parser differential test (xml_test): on every
// input both parsers must agree on accept or reject, on the error text
// and on the tree. It builds xml::Element trees through the public API
// and is not linked into the library.
#pragma once

#include <cctype>
#include <memory>
#include <string>
#include <string_view>

#include "util/result.hpp"
#include "util/strings.hpp"
#include "xml/xml.hpp"

namespace escape::testsupport {

namespace reference_xml_detail {

using xml::Element;

/// Recursive-descent XML parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view input) : in_(input) {}

  Result<std::unique_ptr<Element>> parse_document() {
    skip_prolog();
    auto root = parse_element();
    if (!root.ok()) return root;
    skip_misc();
    if (pos_ != in_.size()) {
      return fail("trailing content after root element");
    }
    return root;
  }

 private:
  Error fail(std::string msg) const {
    return make_error("xml.parse", msg + strings::format(" (at offset %zu)", pos_));
  }

  bool eof() const { return pos_ >= in_.size(); }
  char peek() const { return in_[pos_]; }
  bool match(std::string_view s) {
    if (in_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  void skip_prolog() {
    skip_ws();
    while (!eof()) {
      if (match("<?")) {
        auto end = in_.find("?>", pos_);
        pos_ = end == std::string_view::npos ? in_.size() : end + 2;
      } else if (match("<!--")) {
        auto end = in_.find("-->", pos_);
        pos_ = end == std::string_view::npos ? in_.size() : end + 3;
      } else {
        break;
      }
      skip_ws();
    }
  }

  void skip_misc() {
    skip_ws();
    while (!eof() && match("<!--")) {
      auto end = in_.find("-->", pos_);
      pos_ = end == std::string_view::npos ? in_.size() : end + 3;
      skip_ws();
    }
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == ':' || c == '_' || c == '-' ||
           c == '.';
  }

  std::string parse_name() {
    std::string name;
    while (!eof() && is_name_char(peek())) name += in_[pos_++];
    return name;
  }

  Result<std::string> parse_attr_value() {
    if (eof() || (peek() != '"' && peek() != '\'')) return fail("expected quoted attribute value");
    const char quote = in_[pos_++];
    std::string raw;
    while (!eof() && peek() != quote) raw += in_[pos_++];
    if (eof()) return fail("unterminated attribute value");
    ++pos_;  // closing quote
    return unescape(raw);
  }

  static std::string unescape(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size();) {
      if (raw[i] == '&') {
        auto semi = raw.find(';', i);
        if (semi != std::string_view::npos && semi - i <= 6) {
          std::string_view ent = raw.substr(i + 1, semi - i - 1);
          if (ent == "amp") { out += '&'; i = semi + 1; continue; }
          if (ent == "lt") { out += '<'; i = semi + 1; continue; }
          if (ent == "gt") { out += '>'; i = semi + 1; continue; }
          if (ent == "quot") { out += '"'; i = semi + 1; continue; }
          if (ent == "apos") { out += '\''; i = semi + 1; continue; }
        }
      }
      out += raw[i++];
    }
    return out;
  }

  Result<std::unique_ptr<Element>> parse_element() {
    skip_ws();
    if (eof() || peek() != '<') return fail("expected element start");
    ++pos_;
    std::string name = parse_name();
    if (name.empty()) return fail("empty element name");
    auto element = std::make_unique<Element>(name);

    // Attributes.
    while (true) {
      skip_ws();
      if (eof()) return fail("unterminated start tag");
      if (match("/>")) return element;  // empty element
      if (match(">")) break;
      std::string attr_name = parse_name();
      if (attr_name.empty()) return fail("expected attribute name");
      skip_ws();
      if (!match("=")) return fail("expected '=' after attribute name");
      skip_ws();
      auto value = parse_attr_value();
      if (!value.ok()) return value.error();
      element->set_attr(attr_name, *value);
    }

    // Content: text, children, comments until matching end tag.
    std::string text;
    while (true) {
      if (eof()) return fail("unterminated element <" + name + ">");
      if (peek() == '<') {
        if (match("<!--")) {
          auto end = in_.find("-->", pos_);
          if (end == std::string_view::npos) return fail("unterminated comment");
          pos_ = end + 3;
          continue;
        }
        if (in_.substr(pos_, 2) == "</") {
          pos_ += 2;
          std::string end_name = parse_name();
          skip_ws();
          if (!match(">")) return fail("malformed end tag");
          if (end_name != name) {
            return fail("mismatched end tag </" + end_name + "> for <" + name + ">");
          }
          element->set_text(std::string(strings::trim(unescape(text))));
          return element;
        }
        auto child = parse_element();
        if (!child.ok()) return child;
        element->add_child(std::move(*child));
      } else {
        text += in_[pos_++];
      }
    }
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

}  // namespace reference_xml_detail

inline Result<std::unique_ptr<xml::Element>> reference_parse(std::string_view input) {
  return reference_xml_detail::Parser(input).parse_document();
}

}  // namespace escape::testsupport
