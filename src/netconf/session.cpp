#include "netconf/session.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace escape::netconf {

std::string build_hello(const std::vector<std::string>& capabilities) {
  xml::Element hello("hello");
  hello.set_attr("xmlns", std::string(kNetconfNs));
  auto& caps = hello.add_child("capabilities");
  for (const auto& c : capabilities) caps.add_leaf("capability", c);
  return hello.to_string();
}

std::string_view session_state_name(SessionState state) {
  switch (state) {
    case SessionState::kConnecting: return "CONNECTING";
    case SessionState::kEstablished: return "ESTABLISHED";
    case SessionState::kClosed: return "CLOSED";
  }
  return "?";
}

namespace {

std::vector<std::string> parse_capabilities(const xml::Element& hello) {
  std::vector<std::string> out;
  if (const auto* caps = hello.child("capabilities")) {
    for (const auto* cap : caps->children_named("capability")) out.push_back(cap->text());
  }
  return out;
}

/// One framed <rpc> or <rpc-reply>, written straight into the outgoing
/// frame around `body` (nullptr writes <ok/>). The bytes are those of an
/// envelope element with its two attributes in key order, message-id
/// before xmlns, and `body` as its only child.
std::string write_envelope(std::string_view name, std::string_view message_id,
                           const xml::Element* body) {
  constexpr std::string_view kOk = "<ok/>";
  constexpr std::size_t kMarkup = 28;  // <, message-id=", " xmlns=", ">, </ and >
  std::string out;
  out.reserve(kMarkup + 2 * name.size() + message_id.size() + kNetconfNs.size() +
              (body != nullptr ? body->serialized_size() : kOk.size()) +
              FrameReader::kDelimiter.size());
  out += '<';
  out += name;
  out += " message-id=\"";
  xml::append_escaped(out, message_id);
  out += "\" xmlns=\"";
  xml::append_escaped(out, kNetconfNs);
  out += "\">";
  if (body != nullptr) {
    body->append_to(out);
  } else {
    out += kOk;
  }
  out += "</";
  out += name;
  out += '>';
  return FrameReader::frame(std::move(out));
}

}  // namespace

// --- NetconfServer -------------------------------------------------------------

NetconfServer::NetconfServer(std::shared_ptr<TransportEndpoint> transport,
                             std::vector<std::string> capabilities)
    : transport_(std::move(transport)) {
  auto& registry = obs::MetricsRegistry::global();
  m_rpcs_ = &registry.counter("escape_netconf_rpcs_total", {{"side", "server"}});
  m_errors_ = &registry.counter("escape_netconf_rpc_errors_total", {{"side", "server"}});
  transport_->set_on_bytes([this](std::string bytes) { on_bytes(std::move(bytes)); });
  transport_->send(FrameReader::frame(build_hello(capabilities)));
}

void NetconfServer::register_rpc(const std::string& operation, RpcHandler handler) {
  handlers_[operation] = std::move(handler);
}

void NetconfServer::on_bytes(std::string bytes) {
  for (auto& message : reader_.feed(std::move(bytes))) handle_message(message);
}

void NetconfServer::send_notification(std::unique_ptr<xml::Element> event,
                                      const std::string& event_time) {
  xml::Element notif("notification");
  notif.set_attr("xmlns", "urn:ietf:params:xml:ns:netconf:notification:1.0");
  notif.add_leaf("eventTime", event_time);
  notif.add_child(std::move(event));
  transport_->send(FrameReader::frame(notif.to_string()));
}

void NetconfServer::send_reply(const std::string& message_id,
                               Result<std::unique_ptr<xml::Element>> result) {
  if (result.ok()) {
    transport_->send(write_envelope("rpc-reply", message_id, result->get()));
    return;
  }
  ++rpc_errors_;
  m_errors_->add();
  xml::Element err("rpc-error");
  err.add_leaf("error-type", "application");
  err.add_leaf("error-tag", result.error().code);
  err.add_leaf("error-severity", "error");
  err.add_leaf("error-message", result.error().message);
  transport_->send(write_envelope("rpc-reply", message_id, &err));
}

void NetconfServer::handle_message(const std::string& message) {
  auto doc = xml::parse(message);
  if (!doc.ok()) {
    log_.warn("dropping malformed message: ", doc.error().to_string());
    return;
  }
  const xml::Element& root = **doc;

  if (root.local_name() == "hello") {
    hello_received_ = true;
    peer_capabilities_ = parse_capabilities(root);
    return;
  }
  if (root.local_name() != "rpc") {
    log_.warn("unexpected message <", root.local_name(), ">");
    return;
  }
  const std::string& message_id = root.attr("message-id");
  if (root.children().empty()) {
    send_reply(message_id, make_error("netconf.rpc.malformed", "empty <rpc>"));
    return;
  }
  const xml::Element& operation = root.children().front();
  auto it = handlers_.find(operation.local_name());
  if (it == handlers_.end()) {
    send_reply(message_id,
               make_error("operation-not-supported",
                          "unknown operation: " + std::string(operation.local_name())));
    return;
  }
  ++rpcs_handled_;
  m_rpcs_->add();
  send_reply(message_id, it->second(operation));
}

// --- NetconfClient -------------------------------------------------------------

NetconfClient::NetconfClient(std::shared_ptr<TransportEndpoint> transport)
    : transport_(std::move(transport)) {
  auto& registry = obs::MetricsRegistry::global();
  m_rpcs_ = &registry.counter("escape_netconf_rpcs_total", {{"side", "client"}});
  m_timeouts_ = &registry.counter("escape_netconf_rpc_timeouts_total");
  m_retries_ = &registry.counter("escape_netconf_rpc_retries_total");
  m_closed_ = &registry.counter("escape_netconf_sessions_closed_total");
  m_breaker_open_ = &registry.counter("escape_netconf_circuit_open_total");
  m_rtt_us_ = &registry.histogram("escape_netconf_rpc_rtt_us");
  wire_transport();
  transport_->send(FrameReader::frame(
      build_hello({std::string(kBaseCapability), std::string(kVnfCapability)})));
}

NetconfClient::~NetconfClient() {
  for (auto& [_, pending] : pending_) pending.timeout.cancel();
}

void NetconfClient::wire_transport() {
  std::weak_ptr<bool> alive = alive_;
  transport_->set_on_bytes([this, alive](std::string bytes) {
    if (alive.expired()) return;
    on_bytes(std::move(bytes));
  });
  transport_->set_on_close([this, alive] {
    if (alive.expired()) return;
    handle_transport_closed();
  });
}

void NetconfClient::on_established(std::function<void()> fn) {
  if (established()) {
    fn();
  } else {
    established_callbacks_.push_back(std::move(fn));
  }
}

void NetconfClient::on_closed(std::function<void(const Error&)> fn) {
  closed_callbacks_.push_back(std::move(fn));
}

void NetconfClient::rebind(std::shared_ptr<TransportEndpoint> transport) {
  if (transport_) {
    // Detach from the old pipe: its peer-close may still be in flight and
    // must not mark the rebound session closed.
    transport_->set_on_bytes(nullptr);
    transport_->set_on_close(nullptr);
  }
  transport_ = std::move(transport);
  reader_.reset();
  state_ = SessionState::kConnecting;
  server_capabilities_.clear();
  consecutive_failures_ = 0;
  breaker_open_until_ = 0;
  breaker_half_open_probe_ = false;
  wire_transport();
  log_.info("rebinding session: new hello exchange");
  transport_->send(FrameReader::frame(
      build_hello({std::string(kBaseCapability), std::string(kVnfCapability)})));
}

void NetconfClient::set_circuit_breaker(const CircuitBreakerOptions& options) {
  breaker_ = options;
  consecutive_failures_ = 0;
  breaker_open_until_ = 0;
  breaker_half_open_probe_ = false;
}

bool NetconfClient::circuit_open() const {
  return breaker_.failure_threshold > 0 &&
         consecutive_failures_ >= breaker_.failure_threshold &&
         transport_->now() < breaker_open_until_;
}

void NetconfClient::breaker_success() {
  consecutive_failures_ = 0;
  breaker_half_open_probe_ = false;
}

void NetconfClient::breaker_failure() {
  breaker_half_open_probe_ = false;
  if (breaker_.failure_threshold <= 0) return;
  ++consecutive_failures_;
  if (consecutive_failures_ >= breaker_.failure_threshold) {
    breaker_open_until_ = transport_->now() + breaker_.open_for;
    m_breaker_open_->add();
    log_.warn("circuit breaker open for ",
              static_cast<double>(breaker_.open_for) / timeunit::kMillisecond, " ms (",
              consecutive_failures_, " consecutive transport failures)");
  }
}

void NetconfClient::rpc(std::unique_ptr<xml::Element> operation, ReplyCallback cb) {
  rpc(std::move(operation), default_options_, std::move(cb));
}

void NetconfClient::rpc(std::unique_ptr<xml::Element> operation, const RpcOptions& options,
                        ReplyCallback cb) {
  if (breaker_.failure_threshold > 0 &&
      consecutive_failures_ >= breaker_.failure_threshold) {
    if (breaker_half_open_probe_ && transport_->now() >= breaker_probe_expires_) {
      // The previous probe never resolved (no reply, no timeout configured,
      // frame silently dropped). A wedged probe must not hold the breaker
      // open forever: after a full cooldown window, allow a fresh probe.
      breaker_half_open_probe_ = false;
    }
    if (transport_->now() < breaker_open_until_ || breaker_half_open_probe_) {
      cb(make_error("netconf.circuit-open",
                    "circuit breaker open after " + std::to_string(consecutive_failures_) +
                        " consecutive failures"));
      return;
    }
    // Cooldown elapsed: let exactly one probe through (half-open).
    breaker_half_open_probe_ = true;
    breaker_probe_expires_ = transport_->now() + breaker_.open_for;
  }
  auto retry = std::make_shared<RetryState>();
  retry->operation = std::move(operation);
  retry->options = options;
  retry->cb = std::move(cb);
  send_attempt(std::move(retry));
}

void NetconfClient::send_attempt(std::shared_ptr<RetryState> retry) {
  ++retry->attempts_made;
  if (state_ == SessionState::kClosed || !transport_->connected()) {
    retry_or_fail(std::move(retry),
                  make_error("netconf.session.closed", "session is closed"));
    return;
  }
  const std::string id = std::to_string(next_message_id_++);
  const SimTime now = transport_->now();
  const std::uint64_t span = obs::tracer().begin_span(
      now, "netconf", "rpc",
      std::string(retry->operation->local_name()) + " id=" + id +
          " attempt=" + std::to_string(retry->attempts_made));

  PendingRpc pending;
  pending.retry = retry;
  pending.sent_at = now;
  pending.span_id = span;
  if (retry->options.timeout > 0) {
    if (EventScheduler* sched = scheduler()) {
      std::weak_ptr<bool> alive = alive_;
      pending.timeout = sched->schedule(retry->options.timeout, [this, alive, id] {
        if (alive.expired()) return;
        auto it = pending_.find(id);
        if (it == pending_.end()) return;
        PendingRpc timed_out = std::move(it->second);
        pending_.erase(it);
        ++timeouts_;
        m_timeouts_->add();
        obs::tracer().end_span(timed_out.span_id, transport_->now(), "timeout");
        retry_or_fail(std::move(timed_out.retry),
                      make_error("netconf.rpc.timeout", "no reply within timeout"));
      });
    }
  }
  pending_[id] = std::move(pending);
  m_rpcs_->add();
  transport_->send(write_envelope("rpc", id, retry->operation.get()));
}

SimDuration NetconfClient::backoff_for(const RetryState& retry) {
  // attempts_made is >= 1 here; the first retry waits backoff_base.
  const int exponent = std::max(0, retry.attempts_made - 1);
  SimDuration backoff = retry.options.backoff_base;
  for (int i = 0; i < exponent && backoff < retry.options.backoff_max; ++i) backoff *= 2;
  backoff = std::min(backoff, retry.options.backoff_max);
  if (retry.options.jitter > 0 && backoff > 0) {
    const double spread = retry.options.jitter * static_cast<double>(backoff);
    const double offset = (jitter_rng_.next_double() * 2.0 - 1.0) * spread;
    backoff = static_cast<SimDuration>(
        std::max(1.0, static_cast<double>(backoff) + offset));
  }
  return backoff;
}

void NetconfClient::retry_or_fail(std::shared_ptr<RetryState> retry, Error error) {
  if (retry->attempts_made >= retry->options.max_attempts) {
    breaker_failure();
    if (retry->cb) retry->cb(std::move(error));
    return;
  }
  EventScheduler* sched = scheduler();
  if (!sched) {
    breaker_failure();
    if (retry->cb) retry->cb(std::move(error));
    return;
  }
  ++retries_;
  m_retries_->add();
  const SimDuration backoff = backoff_for(*retry);
  log_.info("rpc attempt ", retry->attempts_made, " failed (", error.code, "), retrying in ",
            static_cast<double>(backoff) / timeunit::kMillisecond, " ms");
  std::weak_ptr<bool> alive = alive_;
  sched->schedule(backoff, [this, alive, retry = std::move(retry)]() mutable {
    if (alive.expired()) return;
    send_attempt(std::move(retry));
  });
}

void NetconfClient::handle_transport_closed() {
  if (state_ == SessionState::kClosed) return;
  state_ = SessionState::kClosed;
  m_closed_->add();
  const Error error =
      make_error("netconf.session.closed", "transport closed by peer or fault plane");
  log_.warn("session closed with ", pending_.size(), " RPC(s) outstanding");
  // Flush outstanding attempts first so no caller is left dangling; a
  // retryable RPC backs off and re-sends (it will succeed once rebind()
  // re-establishes the session, or exhaust its attempts).
  std::map<std::string, PendingRpc> outstanding;
  outstanding.swap(pending_);
  const SimTime now = transport_->now();
  for (auto& [_, pending] : outstanding) {
    pending.timeout.cancel();
    obs::tracer().end_span(pending.span_id, now, "session-closed");
    retry_or_fail(std::move(pending.retry), error);
  }
  for (auto& fn : closed_callbacks_) fn(error);
}

void NetconfClient::on_bytes(std::string bytes) {
  for (auto& message : reader_.feed(std::move(bytes))) handle_message(message);
}

void NetconfClient::handle_message(const std::string& message) {
  auto doc = xml::parse(message);
  if (!doc.ok()) {
    log_.warn("dropping malformed message: ", doc.error().to_string());
    return;
  }
  xml::Element& root = **doc;

  if (root.local_name() == "hello") {
    state_ = SessionState::kEstablished;
    server_capabilities_ = parse_capabilities(root);
    auto callbacks = std::move(established_callbacks_);
    established_callbacks_.clear();
    for (auto& fn : callbacks) fn();
    return;
  }
  if (root.local_name() == "notification") {
    ++notifications_;
    if (notification_cb_) {
      for (const xml::Element& child : root.children()) {
        if (child.local_name() != "eventTime") {
          notification_cb_(child);
          break;
        }
      }
    }
    return;
  }
  if (root.local_name() != "rpc-reply") {
    log_.warn("unexpected message <", root.local_name(), ">");
    return;
  }
  auto it = pending_.find(root.attr("message-id"));
  if (it == pending_.end()) {
    // Replies to timed-out (and possibly re-sent) attempts land here.
    log_.info("rpc-reply with unknown message-id ", root.attr("message-id"),
              " (late reply after timeout?)");
    return;
  }
  PendingRpc pending = std::move(it->second);
  pending_.erase(it);
  pending.timeout.cancel();
  const SimTime now = transport_->now();
  if (now >= pending.sent_at) {
    m_rtt_us_->record(static_cast<double>(now - pending.sent_at) / timeunit::kMicrosecond);
  }
  obs::tracer().end_span(pending.span_id, now);
  // Any reply -- even an <rpc-error> -- proves the transport and agent
  // are alive, so the breaker resets; application errors are not
  // retried, the agent deliberately rejected the operation.
  breaker_success();
  ReplyCallback cb = std::move(pending.retry->cb);

  if (const xml::Element* error = root.child("rpc-error")) {
    cb(make_error(error->child_text("error-tag"), error->child_text("error-message")));
    return;
  }
  cb(std::move(*doc));  // hand the whole <rpc-reply> element to the caller
}

}  // namespace escape::netconf
