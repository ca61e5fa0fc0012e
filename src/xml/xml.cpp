#include "xml/xml.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>

#include "util/strings.hpp"

namespace escape::xml {

namespace {
const std::string kEmpty;
}

std::string_view Element::local_name() const {
  const std::string_view name = name_;
  const auto pos = name.rfind(':');
  return pos == std::string_view::npos ? name : name.substr(pos + 1);
}

void Element::set_attr(std::string_view key, std::string value) {
  auto it = std::lower_bound(attrs_.begin(), attrs_.end(), key,
                             [](const auto& attr, std::string_view k) { return attr.first < k; });
  if (it != attrs_.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    attrs_.emplace(it, std::string(key), std::move(value));
  }
}

const std::string& Element::attr(std::string_view key) const {
  for (const auto& [k, v] : attrs_) {
    if (k == key) return v;
  }
  return kEmpty;
}

bool Element::has_attr(std::string_view key) const {
  return std::any_of(attrs_.begin(), attrs_.end(),
                     [key](const auto& attr) { return attr.first == key; });
}

Element& Element::add_child(std::string name) { return children_.emplace_back(std::move(name)); }

Element& Element::add_child(std::unique_ptr<Element> child) {
  return children_.emplace_back(std::move(*child));
}

Element& Element::add_leaf(std::string name, std::string text) {
  Element& e = add_child(std::move(name));
  e.text_ = std::move(text);
  return e;
}

const Element* Element::child(std::string_view local) const {
  for (const Element& c : children_) {
    if (c.local_name() == local) return &c;
  }
  return nullptr;
}

Element* Element::child(std::string_view local) {
  return const_cast<Element*>(static_cast<const Element*>(this)->child(local));
}

std::vector<const Element*> Element::children_named(std::string_view local) const {
  std::vector<const Element*> out;
  for (const Element& c : children_) {
    if (c.local_name() == local) out.push_back(&c);
  }
  return out;
}

const Element* Element::find(std::string_view path) const {
  const Element* cur = this;
  while (!path.empty()) {
    const auto slash = path.find('/');
    const std::string_view step = path.substr(0, slash);
    path = slash == std::string_view::npos ? std::string_view{} : path.substr(slash + 1);
    if (step.empty()) continue;
    cur = cur->child(step);
    if (!cur) return nullptr;
  }
  return cur;
}

const std::string& Element::child_text(std::string_view local) const {
  const Element* c = child(local);
  return c ? c->text() : kEmpty;
}

std::unique_ptr<Element> Element::clone() const { return std::make_unique<Element>(*this); }

namespace {
/// The escape of a character, or "" for one that stands for itself.
std::string_view entity_of(char c) {
  switch (c) {
    case '&': return "&amp;";
    case '<': return "&lt;";
    case '>': return "&gt;";
    case '"': return "&quot;";
    case '\'': return "&apos;";
    default: return {};
  }
}

std::size_t escaped_size(std::string_view raw) {
  std::size_t size = raw.size();
  for (char c : raw) {
    const std::size_t entity = entity_of(c).size();
    if (entity != 0) size += entity - 1;
  }
  return size;
}
}  // namespace

void append_escaped(std::string& out, std::string_view raw) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string_view entity = entity_of(raw[i]);
    if (entity.empty()) continue;
    out.append(raw.data() + run, i - run);
    out.append(entity);
    run = i + 1;
  }
  out.append(raw.data() + run, raw.size() - run);
}

std::size_t Element::serialized_size() const {
  // <name k="v"...> text children </name>, or <name k="v".../>.
  std::size_t size = 1 + name_.size();
  for (const auto& [k, v] : attrs_) size += k.size() + 4 + escaped_size(v);
  if (children_.empty() && text_.empty()) return size + 2;
  size += 1 + escaped_size(text_) + 3 + name_.size();
  for (const Element& c : children_) size += c.serialized_size();
  return size;
}

void Element::serialize(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::size_t pad = pretty ? static_cast<std::size_t>(indent * depth) : 0;
  out.append(pad, ' ');
  out += '<';
  out += name_;
  for (const auto& [k, v] : attrs_) {
    out += ' ';
    out += k;
    out += "=\"";
    append_escaped(out, v);
    out += '"';
  }
  if (children_.empty() && text_.empty()) {
    out += "/>";
    if (pretty) out += '\n';
    return;
  }
  out += '>';
  append_escaped(out, text_);
  if (!children_.empty()) {
    if (pretty) out += '\n';
    for (const Element& c : children_) c.serialize(out, indent, depth + 1);
    out.append(pad, ' ');
  }
  out += "</";
  out += name_;
  out += '>';
  if (pretty) out += '\n';
}

std::string Element::to_string(int indent) const {
  std::string out;
  if (indent < 0) out.reserve(serialized_size());
  serialize(out, indent, 0);
  return out;
}

/// Recursive-descent XML parser over a string_view cursor. Names,
/// attribute values and character data are scanned as runs of the
/// input; a run is copied once, and unescaped only when it holds '&'.
/// Children are parsed onto one stack shared by the whole document and
/// moved into their parent's vector, sized once, at its end tag.
class Parser {
 public:
  explicit Parser(std::string_view input) : in_(input) {}

  Result<std::unique_ptr<Element>> parse_document() {
    skip_prolog();
    auto root = std::make_unique<Element>();
    const std::size_t base = stack_.size();
    Status parsed = parse_element(*root);
    stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(base), stack_.end());
    if (!parsed.ok()) return parsed.error();
    skip_misc();
    if (pos_ != in_.size()) {
      return fail("trailing content after root element");
    }
    return root;
  }

 private:
  Error fail(std::string_view msg) const {
    return make_error("xml.parse",
                      std::string(msg) + strings::format(" (at offset %zu)", pos_));
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
  /// Moves past the next `terminator`, or to the end; false at the end.
  bool skip_past(std::string_view terminator) {
    const auto end = in_.find(terminator, pos_);
    pos_ = end == std::string_view::npos ? in_.size() : end + terminator.size();
    return end != std::string_view::npos;
  }

  void skip_prolog() {
    skip_ws();
    while (!eof()) {
      if (match("<?")) {
        skip_past("?>");
      } else if (match("<!--")) {
        skip_past("-->");
      } else {
        break;
      }
      skip_ws();
    }
  }

  void skip_misc() {
    skip_ws();
    while (!eof() && match("<!--")) {
      skip_past("-->");
      skip_ws();
    }
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == ':' || c == '_' || c == '-' ||
           c == '.';
  }

  std::string_view scan_name() {
    const std::size_t start = pos_;
    while (!eof() && is_name_char(peek())) ++pos_;
    return in_.substr(start, pos_ - start);
  }

  /// The entity escapes the serializer writes; any other '&' is literal.
  static std::string unescape(std::string_view raw) {
    if (raw.find('&') == std::string_view::npos) return std::string(raw);
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size();) {
      if (raw[i] == '&') {
        auto semi = raw.find(';', i);
        if (semi != std::string_view::npos && semi - i <= 6) {
          std::string_view ent = raw.substr(i + 1, semi - i - 1);
          char c = 0;
          if (ent == "amp") c = '&';
          else if (ent == "lt") c = '<';
          else if (ent == "gt") c = '>';
          else if (ent == "quot") c = '"';
          else if (ent == "apos") c = '\'';
          if (c != 0) {
            out += c;
            i = semi + 1;
            continue;
          }
        }
      }
      out += raw[i++];
    }
    return out;
  }

  Status parse_element(Element& element) {
    skip_ws();
    if (eof() || peek() != '<') return fail("expected element start");
    ++pos_;
    const std::string_view name = scan_name();
    if (name.empty()) return fail("empty element name");
    element.name_.assign(name);

    // Attributes.
    while (true) {
      skip_ws();
      if (eof()) return fail("unterminated start tag");
      if (match("/>")) return ok_status();  // empty element
      if (match(">")) break;
      const std::string_view attr_name = scan_name();
      if (attr_name.empty()) return fail("expected attribute name");
      skip_ws();
      if (!match("=")) return fail("expected '=' after attribute name");
      skip_ws();
      if (eof() || (peek() != '"' && peek() != '\'')) {
        return fail("expected quoted attribute value");
      }
      const char quote = in_[pos_++];
      const std::size_t start = pos_;
      if (!skip_past(std::string_view(&quote, 1))) return fail("unterminated attribute value");
      element.set_attr(attr_name, unescape(in_.substr(start, pos_ - 1 - start)));
    }

    // Content: text, children, comments until the matching end tag. The
    // text is every character-data run joined; most elements have one.
    const std::size_t first_child = stack_.size();
    std::string_view text;  // the first run
    std::string joined;     // all runs, once there is a second
    while (true) {
      if (eof()) return fail("unterminated element <" + std::string(name) + ">");
      if (peek() != '<') {
        const std::size_t start = pos_;
        pos_ = std::min(in_.find('<', pos_), in_.size());
        const std::string_view run = in_.substr(start, pos_ - start);
        if (text.empty()) {
          text = run;
        } else {
          if (joined.empty()) joined.assign(text);
          joined.append(run);
        }
        continue;
      }
      if (match("<!--")) {
        const auto end = in_.find("-->", pos_);
        if (end == std::string_view::npos) return fail("unterminated comment");
        pos_ = end + 3;
        continue;
      }
      if (in_.substr(pos_, 2) == "</") {
        pos_ += 2;
        const std::string_view end_name = scan_name();
        skip_ws();
        if (!match(">")) return fail("malformed end tag");
        if (end_name != name) {
          return fail("mismatched end tag </" + std::string(end_name) + "> for <" +
                      std::string(name) + ">");
        }
        // Trimming first is the same as trimming the unescaped text: an
        // escape neither makes nor holds whitespace.
        element.text_ = unescape(strings::trim(joined.empty() ? text : joined));
        element.children_.assign(std::make_move_iterator(stack_.begin() + first_child),
                                 std::make_move_iterator(stack_.end()));
        stack_.erase(stack_.begin() + first_child, stack_.end());
        return ok_status();
      }
      Element child;
      if (Status s = parse_element(child); !s.ok()) return s;
      stack_.push_back(std::move(child));
    }
  }

  /// One stack per thread, kept across documents: a parse allocates no
  /// scratch space of its own once the stack has grown.
  static std::vector<Element>& scratch_stack() {
    thread_local std::vector<Element> stack;
    return stack;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  std::vector<Element>& stack_ = scratch_stack();  // children of the open elements
};

Result<std::unique_ptr<Element>> parse(std::string_view input) {
  return Parser(input).parse_document();
}

}  // namespace escape::xml
