#include "click/filter_expr.hpp"

#include <cctype>

#include "net/headers.hpp"
#include "util/strings.hpp"

namespace escape::click {

using net::ethertype::kArp;
using net::ethertype::kIpv4;

ClassifyCtx ClassifyCtx::from_packet(const net::Packet& p) {
  ClassifyCtx ctx;
  if (auto key = net::extract_flow_key(p, 0, ctx.tcp_flags)) ctx.key = *key;
  return ctx;
}

namespace {

struct FToken {
  enum Kind { kWord, kNumber, kIp, kLParen, kRParen, kBang, kAndAnd, kOrOr, kSlash, kEnd };
  Kind kind = kEnd;
  std::string text;
};

Result<std::vector<FToken>> lex_filter(std::string_view in) {
  std::vector<FToken> out;
  std::size_t i = 0;
  while (i < in.size()) {
    char c = in[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == '(') {
      out.push_back({FToken::kLParen, "("});
      ++i;
    } else if (c == ')') {
      out.push_back({FToken::kRParen, ")"});
      ++i;
    } else if (c == '!') {
      out.push_back({FToken::kBang, "!"});
      ++i;
    } else if (c == '/') {
      out.push_back({FToken::kSlash, "/"});
      ++i;
    } else if (c == '&' && i + 1 < in.size() && in[i + 1] == '&') {
      out.push_back({FToken::kAndAnd, "&&"});
      i += 2;
    } else if (c == '|' && i + 1 < in.size() && in[i + 1] == '|') {
      out.push_back({FToken::kOrOr, "||"});
      i += 2;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string tok;
      bool has_dot = false;
      while (i < in.size() &&
             (std::isdigit(static_cast<unsigned char>(in[i])) || in[i] == '.')) {
        if (in[i] == '.') has_dot = true;
        tok += in[i++];
      }
      out.push_back({has_dot ? FToken::kIp : FToken::kNumber, tok});
    } else if (std::isalpha(static_cast<unsigned char>(c))) {
      std::string tok;
      while (i < in.size() &&
             (std::isalnum(static_cast<unsigned char>(in[i])) || in[i] == '_')) {
        tok += in[i++];
      }
      out.push_back({FToken::kWord, strings::to_lower(tok)});
    } else {
      return make_error("click.filter.lex",
                        strings::format("unexpected character '%c' at offset %zu", c, i));
    }
  }
  out.push_back({FToken::kEnd, ""});
  return out;
}

}  // namespace

class FilterParser {
 public:
  FilterParser(std::vector<FToken> tokens, FilterExpr* expr)
      : tokens_(std::move(tokens)), expr_(expr) {}

  Status run() {
    auto root = parse_or();
    if (!root.ok()) return root.error();
    if (peek().kind != FToken::kEnd) return fail("trailing tokens in filter expression");
    expr_->root_ = *root;
    return ok_status();
  }

 private:
  using Op = FilterExpr::Op;

  const FToken& peek() const { return tokens_[pos_]; }
  const FToken& advance() { return tokens_[pos_++]; }
  bool match_word(std::string_view w) {
    if (peek().kind == FToken::kWord && peek().text == w) {
      ++pos_;
      return true;
    }
    return false;
  }

  Error fail(const std::string& msg) const { return make_error("click.filter.parse", msg); }

  int add_node(Op op, int lhs = -1, int rhs = -1, std::uint32_t value = 0, int prefix = 32) {
    expr_->nodes_.push_back({op, lhs, rhs, value, prefix});
    return static_cast<int>(expr_->nodes_.size()) - 1;
  }

  Result<int> parse_or() {
    auto lhs = parse_and();
    if (!lhs.ok()) return lhs;
    int node = *lhs;
    while (peek().kind == FToken::kOrOr || (peek().kind == FToken::kWord && peek().text == "or")) {
      advance();
      auto rhs = parse_and();
      if (!rhs.ok()) return rhs;
      node = add_node(Op::kOr, node, *rhs);
    }
    return node;
  }

  Result<int> parse_and() {
    auto lhs = parse_unary();
    if (!lhs.ok()) return lhs;
    int node = *lhs;
    while (peek().kind == FToken::kAndAnd ||
           (peek().kind == FToken::kWord && peek().text == "and")) {
      advance();
      auto rhs = parse_unary();
      if (!rhs.ok()) return rhs;
      node = add_node(Op::kAnd, node, *rhs);
    }
    return node;
  }

  Result<int> parse_unary() {
    if (peek().kind == FToken::kBang || (peek().kind == FToken::kWord && peek().text == "not")) {
      advance();
      auto child = parse_unary();
      if (!child.ok()) return child;
      return add_node(Op::kNot, *child);
    }
    if (peek().kind == FToken::kLParen) {
      advance();
      auto inner = parse_or();
      if (!inner.ok()) return inner;
      if (peek().kind != FToken::kRParen) return fail("expected ')'");
      advance();
      return inner;
    }
    return parse_primitive();
  }

  Result<std::uint32_t> expect_ip() {
    if (peek().kind != FToken::kIp && peek().kind != FToken::kNumber) {
      return fail("expected IPv4 address");
    }
    auto addr = net::Ipv4Addr::parse(advance().text);
    if (!addr) return fail("invalid IPv4 address");
    return addr->value();
  }

  Result<std::uint32_t> expect_number(std::uint32_t max) {
    if (peek().kind != FToken::kNumber) return fail("expected number");
    auto n = strings::parse_u64(advance().text);
    if (!n || *n > max) return fail("number out of range");
    return static_cast<std::uint32_t>(*n);
  }

  Result<int> parse_primitive() {
    if (peek().kind != FToken::kWord) return fail("expected filter primitive");
    std::string word = advance().text;

    if (word == "true") return add_node(Op::kTrue);
    if (word == "false") return add_node(Op::kFalse);
    if (word == "ip") return add_node(Op::kIsIp);
    if (word == "arp") return add_node(Op::kIsArp);
    if (word == "tcp") return add_node(Op::kIsTcp);
    if (word == "udp") return add_node(Op::kIsUdp);
    if (word == "icmp") return add_node(Op::kIsIcmp);
    if (word == "syn") return add_node(Op::kTcpSyn);
    if (word == "ack") return add_node(Op::kTcpAck);
    if (word == "fin") return add_node(Op::kTcpFin);
    if (word == "rst") return add_node(Op::kTcpRst);

    if (word == "dscp" || word == "tos") {
      auto n = expect_number(63);
      if (!n.ok()) return n.error();
      return add_node(Op::kDscp, -1, -1, *n);
    }

    int direction = 0;  // 0 = any, 1 = src, 2 = dst
    if (word == "src" || word == "dst") {
      direction = word == "src" ? 1 : 2;
      if (peek().kind != FToken::kWord) return fail("expected host/net/port after src/dst");
      word = advance().text;
    }

    if (word == "host") {
      auto addr = expect_ip();
      if (!addr.ok()) return addr.error();
      Op op = direction == 1 ? Op::kSrcHost : direction == 2 ? Op::kDstHost : Op::kAnyHost;
      return add_node(op, -1, -1, *addr);
    }
    if (word == "net") {
      auto addr = expect_ip();
      if (!addr.ok()) return addr.error();
      if (peek().kind != FToken::kSlash) return fail("expected '/len' after net address");
      advance();
      auto len = expect_number(32);
      if (!len.ok()) return len.error();
      Op op = direction == 1 ? Op::kSrcNet : direction == 2 ? Op::kDstNet : Op::kAnyNet;
      return add_node(op, -1, -1, *addr, static_cast<int>(*len));
    }
    if (word == "port") {
      auto n = expect_number(65535);
      if (!n.ok()) return n.error();
      Op op = direction == 1 ? Op::kSrcPort : direction == 2 ? Op::kDstPort : Op::kAnyPort;
      return add_node(op, -1, -1, *n);
    }
    return fail("unknown filter primitive '" + word + "'");
  }

  std::vector<FToken> tokens_;
  std::size_t pos_ = 0;
  FilterExpr* expr_;
};

Result<FilterExpr> FilterExpr::compile(std::string_view text) {
  auto tokens = lex_filter(text);
  if (!tokens.ok()) return tokens.error();
  FilterExpr expr;
  expr.source_ = std::string(text);
  FilterParser parser(std::move(*tokens), &expr);
  if (auto s = parser.run(); !s.ok()) return s.error();
  return expr;
}

bool FilterExpr::eval(int index, const ClassifyCtx& ctx) const {
  const Node& n = nodes_[static_cast<std::size_t>(index)];
  const net::FlowKey& k = ctx.key;
  const bool is_ip = k.dl_type == kIpv4;
  const bool has_ports =
      is_ip && (k.nw_proto == net::ipproto::kTcp || k.nw_proto == net::ipproto::kUdp);
  auto in_net = [&](std::uint32_t addr) {
    return net::Ipv4Addr(addr).in_subnet(net::Ipv4Addr(n.value), n.prefix_len);
  };

  switch (n.op) {
    case Op::kTrue: return true;
    case Op::kFalse: return false;
    case Op::kAnd: return eval(n.lhs, ctx) && eval(n.rhs, ctx);
    case Op::kOr: return eval(n.lhs, ctx) || eval(n.rhs, ctx);
    case Op::kNot: return !eval(n.lhs, ctx);
    case Op::kIsIp: return is_ip;
    case Op::kIsArp: return k.dl_type == kArp;
    case Op::kIsTcp: return is_ip && k.nw_proto == net::ipproto::kTcp;
    case Op::kIsUdp: return is_ip && k.nw_proto == net::ipproto::kUdp;
    case Op::kIsIcmp: return is_ip && k.nw_proto == net::ipproto::kIcmp;
    case Op::kSrcHost: return is_ip && k.nw_src.value() == n.value;
    case Op::kDstHost: return is_ip && k.nw_dst.value() == n.value;
    case Op::kAnyHost:
      return is_ip && (k.nw_src.value() == n.value || k.nw_dst.value() == n.value);
    case Op::kSrcNet: return is_ip && in_net(k.nw_src.value());
    case Op::kDstNet: return is_ip && in_net(k.nw_dst.value());
    case Op::kAnyNet: return is_ip && (in_net(k.nw_src.value()) || in_net(k.nw_dst.value()));
    case Op::kSrcPort: return has_ports && k.tp_src == n.value;
    case Op::kDstPort: return has_ports && k.tp_dst == n.value;
    case Op::kAnyPort: return has_ports && (k.tp_src == n.value || k.tp_dst == n.value);
    case Op::kDscp: return is_ip && k.nw_tos == n.value;
    case Op::kTcpSyn: return (ctx.tcp_flags & 0x02) != 0;
    case Op::kTcpAck: return (ctx.tcp_flags & 0x10) != 0;
    case Op::kTcpFin: return (ctx.tcp_flags & 0x01) != 0;
    case Op::kTcpRst: return (ctx.tcp_flags & 0x04) != 0;
  }
  return false;
}

bool FilterExpr::matches(const ClassifyCtx& ctx) const {
  if (root_ < 0) return false;
  return eval(root_, ctx);
}

}  // namespace escape::click
