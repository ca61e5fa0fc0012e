#include "click/config.hpp"

#include <cctype>
#include <limits>
#include <set>

#include "util/strings.hpp"

namespace escape::click {

// --- ElementRegistry ----------------------------------------------------------

void register_standard_elements(ElementRegistry& registry);  // elements.cpp

ElementRegistry& ElementRegistry::global() {
  static ElementRegistry* instance = [] {
    auto* r = new ElementRegistry();
    register_standard_elements(*r);
    return r;
  }();
  return *instance;
}

void ElementRegistry::register_class(std::string class_name, Factory factory) {
  factories_[std::move(class_name)] = std::move(factory);
}

bool ElementRegistry::has(std::string_view class_name) const {
  return factories_.find(class_name) != factories_.end();
}

std::unique_ptr<Element> ElementRegistry::create(std::string_view class_name) const {
  auto it = factories_.find(class_name);
  return it == factories_.end() ? nullptr : it->second();
}

std::vector<std::string> ElementRegistry::class_names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [k, _] : factories_) names.push_back(k);
  return names;
}

// --- Lexer ---------------------------------------------------------------------

namespace {

struct Token {
  enum Kind {
    kIdent, kArrow, kColonColon, kLBracket, kRBracket, kSemicolon, kConfig, kNumber,
    kBody,  // raw "{ ... }" compound body (braces stripped)
    kEnd
  };
  Kind kind = kEnd;
  std::string text;
  std::size_t offset = 0;
};

/// Tokenizes Click configuration text. Parenthesized argument strings are
/// captured verbatim as kConfig tokens (nested parens and quotes respected).
class Lexer {
 public:
  explicit Lexer(std::string_view in) : in_(in) {}

  Result<std::vector<Token>> run() {
    std::vector<Token> tokens;
    while (true) {
      skip_ws_and_comments();
      if (pos_ >= in_.size()) break;
      const std::size_t start = pos_;
      char c = in_[pos_];
      if (c == '-' && pos_ + 1 < in_.size() && in_[pos_ + 1] == '>') {
        pos_ += 2;
        tokens.push_back({Token::kArrow, "->", start});
      } else if (c == ':' && pos_ + 1 < in_.size() && in_[pos_ + 1] == ':') {
        pos_ += 2;
        tokens.push_back({Token::kColonColon, "::", start});
      } else if (c == '[') {
        ++pos_;
        tokens.push_back({Token::kLBracket, "[", start});
      } else if (c == ']') {
        ++pos_;
        tokens.push_back({Token::kRBracket, "]", start});
      } else if (c == ';') {
        ++pos_;
        tokens.push_back({Token::kSemicolon, ";", start});
      } else if (c == '(') {
        auto cfg = read_config();
        if (!cfg.ok()) return cfg.error();
        tokens.push_back({Token::kConfig, *cfg, start});
      } else if (c == '{') {
        auto body = read_body();
        if (!body.ok()) return body.error();
        tokens.push_back({Token::kBody, *body, start});
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        std::string num;
        while (pos_ < in_.size() && std::isdigit(static_cast<unsigned char>(in_[pos_]))) {
          num += in_[pos_++];
        }
        tokens.push_back({Token::kNumber, num, start});
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '@') {
        std::string ident;
        while (pos_ < in_.size() &&
               (std::isalnum(static_cast<unsigned char>(in_[pos_])) || in_[pos_] == '_' ||
                in_[pos_] == '@' || in_[pos_] == '/')) {
          ident += in_[pos_++];
        }
        tokens.push_back({Token::kIdent, ident, start});
      } else {
        return make_error("click.config.lex",
                          strings::format("unexpected character '%c' at offset %zu", c, start));
      }
    }
    tokens.push_back({Token::kEnd, "", pos_});
    return tokens;
  }

 private:
  void skip_ws_and_comments() {
    while (pos_ < in_.size()) {
      char c = in_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < in_.size() && in_[pos_ + 1] == '/') {
        while (pos_ < in_.size() && in_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < in_.size() && in_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < in_.size() && !(in_[pos_] == '*' && in_[pos_ + 1] == '/')) ++pos_;
        pos_ = pos_ + 2 <= in_.size() ? pos_ + 2 : in_.size();
      } else {
        break;
      }
    }
  }

  Result<std::string> read_config() {
    // pos_ is at '('; capture until the matching ')'.
    const std::size_t open = pos_;
    ++pos_;
    std::string out;
    int depth = 1;
    bool in_quote = false;
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (in_quote) {
        if (c == '"') in_quote = false;
        out += c;
        continue;
      }
      if (c == '"') {
        in_quote = true;
        out += c;
      } else if (c == '(') {
        ++depth;
        out += c;
      } else if (c == ')') {
        if (--depth == 0) return out;
        out += c;
      } else {
        out += c;
      }
    }
    return make_error("click.config.lex",
                      strings::format("unbalanced '(' at offset %zu", open));
  }

  Result<std::string> read_body() {
    // pos_ is at '{'; capture until the matching '}' (nesting and quotes
    // respected; parens may contain braces-free config strings).
    const std::size_t open = pos_;
    ++pos_;
    std::string out;
    int depth = 1;
    bool in_quote = false;
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (in_quote) {
        if (c == '"') in_quote = false;
        out += c;
        continue;
      }
      if (c == '"') {
        in_quote = true;
        out += c;
      } else if (c == '{') {
        ++depth;
        out += c;
      } else if (c == '}') {
        if (--depth == 0) return out;
        out += c;
      } else {
        out += c;
      }
    }
    return make_error("click.config.lex",
                      strings::format("unbalanced '{' at offset %zu", open));
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

// --- Parser ---------------------------------------------------------------------

class ConfigParser {
 public:
  /// `compounds` collects/provides elementclass definitions (name ->
  /// body text). `allow_io_pseudo` permits references to the reserved
  /// `input` / `output` endpoints (inside compound bodies).
  ConfigParser(std::vector<Token> tokens, std::map<std::string, std::string>* compounds,
               bool allow_io_pseudo)
      : tokens_(std::move(tokens)), compounds_(compounds), allow_io_(allow_io_pseudo) {}

  Result<ParsedConfig> run() {
    while (peek().kind != Token::kEnd) {
      if (peek().kind == Token::kSemicolon) {
        advance();
        continue;
      }
      if (peek().kind == Token::kIdent && peek().text == "elementclass") {
        if (auto s = parse_elementclass(); !s.ok()) return s.error();
        continue;
      }
      if (auto s = parse_statement(); !s.ok()) return s.error();
    }
    return std::move(config_);
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() { return tokens_[pos_++]; }
  bool match(Token::Kind kind) {
    if (peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  Error fail(const std::string& msg) const {
    return make_error("click.config.parse",
                      msg + strings::format(" (near offset %zu)", peek().offset));
  }

  bool is_declared(const std::string& name) const {
    if (allow_io_ && (name == "input" || name == "output")) return true;
    return declared_.count(name) > 0;
  }

  Status parse_elementclass() {
    advance();  // "elementclass"
    if (peek().kind != Token::kIdent) return fail("expected compound class name");
    std::string name = advance().text;
    if (peek().kind != Token::kBody) return fail("expected '{' body after elementclass");
    std::string body = advance().text;
    if (!compounds_) return fail("elementclass not allowed here");
    auto it = compounds_->find(name);
    if (it != compounds_->end()) {
      // Compound bodies are re-parsed per instantiation, so an identical
      // nested definition is fine; a conflicting one is an error.
      if (it->second != body) return fail("duplicate elementclass '" + name + "'");
      return ok_status();
    }
    (*compounds_)[name] = std::move(body);
    return ok_status();
  }

  std::string fresh_anonymous_name(const std::string& class_name) {
    return strings::format("%s@%zu", class_name.c_str(), ++anon_counter_);
  }

  /// Parses `name :: Class(config)` or references/anonymous elements.
  /// Returns the instance name the endpoint refers to.
  Result<std::string> parse_endpoint_element() {
    if (peek().kind != Token::kIdent) return fail("expected element name or class");
    std::string first = advance().text;

    if (peek().kind == Token::kColonColon) {
      // Declaration: first :: Class(config)
      advance();
      if (peek().kind != Token::kIdent) return fail("expected class name after '::'");
      std::string class_name = advance().text;
      std::string config;
      if (peek().kind == Token::kConfig) config = advance().text;
      if (is_declared(first)) return fail("duplicate declaration of '" + first + "'");
      declared_.insert(first);
      config_.declarations.push_back({first, class_name, config});
      return first;
    }

    if (peek().kind == Token::kConfig) {
      // Anonymous: Class(config)
      std::string config = advance().text;
      std::string name = fresh_anonymous_name(first);
      declared_.insert(name);
      config_.declarations.push_back({name, first, config});
      return name;
    }

    if (is_declared(first)) return first;  // reference

    // Bare identifier that was never declared: treat an uppercase-leading
    // name as an anonymous class with empty config ("-> Discard;").
    if (std::isupper(static_cast<unsigned char>(first[0]))) {
      std::string name = fresh_anonymous_name(first);
      declared_.insert(name);
      config_.declarations.push_back({name, first, ""});
      return name;
    }
    return fail("reference to undeclared element '" + first + "'");
  }

  Result<int> parse_port() {
    if (!match(Token::kLBracket)) return fail("expected '['");
    if (peek().kind != Token::kNumber) return fail("expected port number");
    // Checked before it narrows: 2^32 + 1 would read as port 1, and a
    // number past 2^64 does not parse at all.
    const auto port = strings::parse_u64(advance().text);
    if (!port || *port > std::numeric_limits<int>::max()) return fail("port number out of range");
    if (!match(Token::kRBracket)) return fail("expected ']'");
    return static_cast<int>(*port);
  }

  Status parse_statement() {
    // endpoint (-> endpoint)* ;
    // where endpoint = [inport]? element [outport]?
    int pending_in_port = 0;
    bool have_pending_in = false;
    if (peek().kind == Token::kLBracket) {
      auto p = parse_port();
      if (!p.ok()) return p.error();
      pending_in_port = *p;
      have_pending_in = true;
    }

    auto first = parse_endpoint_element();
    if (!first.ok()) return first.error();
    if (have_pending_in && config_.connections.empty()) {
      return fail("input port specifier without a source");
    }

    std::string prev = *first;
    int prev_out_port = 0;
    if (peek().kind == Token::kLBracket) {
      auto p = parse_port();
      if (!p.ok()) return p.error();
      prev_out_port = *p;
    }

    while (match(Token::kArrow)) {
      int in_port = 0;
      if (peek().kind == Token::kLBracket) {
        auto p = parse_port();
        if (!p.ok()) return p.error();
        in_port = *p;
      }
      auto next = parse_endpoint_element();
      if (!next.ok()) return next.error();
      config_.connections.push_back({prev, prev_out_port, *next, in_port});
      prev = *next;
      prev_out_port = 0;
      if (peek().kind == Token::kLBracket) {
        auto p = parse_port();
        if (!p.ok()) return p.error();
        prev_out_port = *p;
      }
    }

    if (!match(Token::kSemicolon) && peek().kind != Token::kEnd) {
      return fail("expected ';' or '->'");
    }
    return ok_status();
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  ParsedConfig config_;
  std::set<std::string> declared_;
  std::size_t anon_counter_ = 0;
  std::map<std::string, std::string>* compounds_ = nullptr;
  bool allow_io_ = false;
};

Result<ParsedConfig> parse_internal(std::string_view text,
                                    std::map<std::string, std::string>* compounds,
                                    bool allow_io) {
  auto tokens = Lexer(text).run();
  if (!tokens.ok()) return tokens.error();
  return ConfigParser(std::move(*tokens), compounds, allow_io).run();
}

/// Expands compound-class instances until only primitive classes remain.
Result<ParsedConfig> expand_compounds(ParsedConfig config,
                                      std::map<std::string, std::string>& compounds) {
  for (int round = 0; round < 32; ++round) {
    bool any_compound = false;
    for (const auto& d : config.declarations) {
      if (compounds.count(d.class_name)) any_compound = true;
    }
    if (!any_compound) return config;

    ParsedConfig next;
    // Per expanded instance: where its input/output pseudo ports lead.
    struct IoMap {
      std::map<int, std::vector<std::pair<std::string, int>>> inputs;
      std::map<int, std::pair<std::string, int>> outputs;
    };
    std::map<std::string, IoMap> expanded;

    for (const auto& decl : config.declarations) {
      auto cit = compounds.find(decl.class_name);
      if (cit == compounds.end()) {
        next.declarations.push_back(decl);
        continue;
      }
      if (!decl.config.empty()) {
        return make_error("click.config.compound-args",
                          decl.name + ": compound classes take no configuration");
      }
      auto inner = parse_internal(cit->second, &compounds, /*allow_io=*/true);
      if (!inner.ok()) {
        return make_error(inner.error().code,
                          "in elementclass " + decl.class_name + ": " +
                              inner.error().message);
      }
      const std::string prefix = decl.name + "/";
      for (const auto& d : inner->declarations) {
        next.declarations.push_back({prefix + d.name, d.class_name, d.config});
      }
      IoMap io;
      for (const auto& c : inner->connections) {
        const bool from_input = c.from == "input";
        const bool to_output = c.to == "output";
        if (from_input && to_output) {
          return make_error("click.config.compound-passthrough",
                            decl.class_name + ": direct input -> output is not supported");
        }
        if (from_input) {
          io.inputs[c.from_port].emplace_back(prefix + c.to, c.to_port);
        } else if (to_output) {
          if (io.outputs.count(c.to_port)) {
            return make_error("click.config.compound-fanin",
                              decl.class_name + ": output[" + std::to_string(c.to_port) +
                                  "] has multiple sources");
          }
          io.outputs[c.to_port] = {prefix + c.from, c.from_port};
        } else {
          next.connections.push_back({prefix + c.from, c.from_port, prefix + c.to, c.to_port});
        }
      }
      expanded[decl.name] = std::move(io);
    }

    // Splice the surrounding connections through the pseudo ports.
    for (const auto& c : config.connections) {
      // Resolve the source side first.
      std::vector<std::pair<std::string, int>> sources;
      auto from_it = expanded.find(c.from);
      if (from_it != expanded.end()) {
        auto out = from_it->second.outputs.find(c.from_port);
        if (out == from_it->second.outputs.end()) {
          return make_error("click.config.compound-port",
                            c.from + " has no output[" + std::to_string(c.from_port) + "]");
        }
        sources.push_back(out->second);
      } else {
        sources.emplace_back(c.from, c.from_port);
      }
      // Then the destination side (possibly a fan-out into the compound).
      std::vector<std::pair<std::string, int>> destinations;
      auto to_it = expanded.find(c.to);
      if (to_it != expanded.end()) {
        auto in = to_it->second.inputs.find(c.to_port);
        if (in == to_it->second.inputs.end()) {
          return make_error("click.config.compound-port",
                            c.to + " has no input[" + std::to_string(c.to_port) + "]");
        }
        destinations = in->second;
      } else {
        destinations.emplace_back(c.to, c.to_port);
      }
      for (const auto& [src, src_port] : sources) {
        for (const auto& [dst, dst_port] : destinations) {
          next.connections.push_back({src, src_port, dst, dst_port});
        }
      }
    }
    config = std::move(next);
  }
  return make_error("click.config.compound-depth",
                    "elementclass expansion did not terminate (cyclic definition?)");
}

}  // namespace

Result<ParsedConfig> parse_config(std::string_view text) {
  std::map<std::string, std::string> compounds;
  auto parsed = parse_internal(text, &compounds, /*allow_io=*/false);
  if (!parsed.ok()) return parsed;
  if (compounds.empty()) return parsed;
  return expand_compounds(std::move(*parsed), compounds);
}

Result<std::unique_ptr<Router>> build_router(std::string_view text, EventScheduler& scheduler,
                                             const ElementRegistry& registry) {
  auto parsed = parse_config(text);
  if (!parsed.ok()) return parsed.error();

  auto router = std::make_unique<Router>(scheduler);
  for (const auto& decl : parsed->declarations) {
    auto element = registry.create(decl.class_name);
    if (!element) {
      return make_error("click.config.unknown-class",
                        "unknown element class: " + decl.class_name);
    }
    if (auto s = element->configure(ConfigArgs::parse(decl.config)); !s.ok()) {
      return make_error(s.error().code,
                        decl.name + " (" + decl.class_name + "): " + s.error().message);
    }
    if (auto added = router->add_element(decl.name, std::move(element)); !added.ok()) {
      return added.error();
    }
  }
  for (const auto& conn : parsed->connections) {
    if (auto s = router->connect(conn); !s.ok()) return s.error();
  }
  if (auto s = router->initialize(); !s.ok()) return s.error();
  return router;
}

}  // namespace escape::click
