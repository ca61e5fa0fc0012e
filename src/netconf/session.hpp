// NETCONF sessions (RFC 6241 shape): hello/capability exchange, framed
// XML rpc / rpc-reply with message-id correlation, rpc-error reporting.
//
// The server is operation-agnostic: agents register handlers per RPC
// local name (get, edit-config, startVNF, ...). The client issues RPCs
// asynchronously; replies arrive through callbacks once the scheduler
// delivers them (management-plane latency is real and measurable).
//
// Robustness model (the fault plane depends on every piece of this):
//   * the client tracks an explicit session state -- kConnecting until
//     the server hello arrives, kEstablished after, kClosed once the
//     transport dies -- and fires on_closed callbacks, so a crashed
//     agent can never leave callers waiting forever;
//   * every RPC may carry RpcOptions: a per-RPC timeout plus bounded
//     exponential backoff with jitter; transport-level failures
//     (timeout, closed session) are retried with a fresh message id,
//     application-level <rpc-error>s are not (the agent is alive);
//   * rebind() re-establishes the session on a new transport (new hello
//     exchange); retries scheduled across the rebind re-send their
//     operation on the new session -- the idempotent re-send path;
//   * a circuit breaker guards each client: after N consecutive
//     transport-level failures the breaker opens and RPCs fail fast
//     until a cooldown elapses, at which point one probe is let through.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netconf/transport.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/result.hpp"
#include "xml/xml.hpp"

namespace escape::netconf {

inline constexpr std::string_view kBaseCapability = "urn:ietf:params:netconf:base:1.0";
inline constexpr std::string_view kVnfCapability = "urn:escape:vnf:1.0";
inline constexpr std::string_view kNetconfNs = "urn:ietf:params:xml:ns:netconf:base:1.0";

/// Server side of one session (the agent end).
class NetconfServer {
 public:
  /// Handler: receives the operation element (e.g. <startVNF>...), returns
  /// reply content to embed in <rpc-reply> (nullptr -> <ok/>), or an Error
  /// that becomes an <rpc-error>.
  using RpcHandler =
      std::function<Result<std::unique_ptr<xml::Element>>(const xml::Element& operation)>;

  NetconfServer(std::shared_ptr<TransportEndpoint> transport,
                std::vector<std::string> capabilities = {std::string(kBaseCapability)});

  void register_rpc(const std::string& operation, RpcHandler handler);

  /// Pushes an asynchronous <notification> (RFC 5277 framing) carrying
  /// `event`; `event_time` is a free-form timestamp (virtual ns here).
  void send_notification(std::unique_ptr<xml::Element> event, const std::string& event_time);

  bool hello_received() const { return hello_received_; }
  const std::vector<std::string>& peer_capabilities() const { return peer_capabilities_; }
  std::uint64_t rpcs_handled() const { return rpcs_handled_; }
  std::uint64_t rpc_errors() const { return rpc_errors_; }

 private:
  void on_bytes(std::string bytes);
  void handle_message(const std::string& message);
  void send_reply(const std::string& message_id, Result<std::unique_ptr<xml::Element>> result);

  std::shared_ptr<TransportEndpoint> transport_;
  FrameReader reader_;
  std::map<std::string, RpcHandler, std::less<>> handlers_;
  bool hello_received_ = false;
  std::vector<std::string> peer_capabilities_;
  std::uint64_t rpcs_handled_ = 0;
  std::uint64_t rpc_errors_ = 0;
  obs::Counter* m_rpcs_;
  obs::Counter* m_errors_;
  Logger log_{"netconf.server"};
};

/// Reliability envelope for one RPC. The defaults preserve the seed
/// behaviour: a single attempt that waits forever (but still fails
/// immediately if the session closes underneath it).
struct RpcOptions {
  /// Per-attempt timeout; 0 waits forever (session close still aborts).
  SimDuration timeout = 0;
  /// Total send attempts (1 = no retry).
  int max_attempts = 1;
  /// First retry delay; doubled per attempt up to backoff_max.
  SimDuration backoff_base = 2 * timeunit::kMillisecond;
  SimDuration backoff_max = 100 * timeunit::kMillisecond;
  /// Fraction of the backoff randomized (+/-), decorrelating retries.
  double jitter = 0.2;
};

/// Circuit-breaker policy: after `failure_threshold` consecutive
/// transport-level RPC failures the breaker opens for `open_for`;
/// while open, RPCs fail fast with netconf.circuit-open. The first RPC
/// after the cooldown is the half-open probe. `failure_threshold` <= 0
/// disables the breaker.
struct CircuitBreakerOptions {
  int failure_threshold = 5;
  SimDuration open_for = 500 * timeunit::kMillisecond;
};

enum class SessionState : std::uint8_t { kConnecting, kEstablished, kClosed };

std::string_view session_state_name(SessionState state);

/// Client side of one session (the orchestrator end).
class NetconfClient {
 public:
  using ReplyCallback = std::function<void(Result<std::unique_ptr<xml::Element>>)>;

  explicit NetconfClient(std::shared_ptr<TransportEndpoint> transport);
  ~NetconfClient();

  SessionState state() const { return state_; }
  /// True once the server's hello arrived (and the session is not closed).
  bool established() const { return state_ == SessionState::kEstablished; }
  bool session_closed() const { return state_ == SessionState::kClosed; }
  const std::vector<std::string>& server_capabilities() const { return server_capabilities_; }

  /// Fires (immediately if already established) when the session is up.
  void on_established(std::function<void()> fn);

  /// Fires when the session dies (transport closed). Callbacks persist
  /// across rebind() and fire again on every subsequent death.
  void on_closed(std::function<void(const Error&)> fn);

  /// Re-establishes the session on a fresh transport (a respawned
  /// agent): resets framing and hello state and starts a new capability
  /// exchange. Pending retryable RPCs re-send on the new session.
  void rebind(std::shared_ptr<TransportEndpoint> transport);

  /// Sends <rpc><operation.../></rpc>; `cb` receives the rpc-reply body
  /// (the <rpc-reply> element) or an Error decoded from <rpc-error>.
  void rpc(std::unique_ptr<xml::Element> operation, ReplyCallback cb);

  /// Same, with an explicit reliability envelope.
  void rpc(std::unique_ptr<xml::Element> operation, const RpcOptions& options,
           ReplyCallback cb);

  /// Default options applied by the two-argument rpc() overload.
  void set_default_rpc_options(const RpcOptions& options) { default_options_ = options; }
  const RpcOptions& default_rpc_options() const { return default_options_; }

  /// Reconfigures the circuit breaker (threshold <= 0 disables).
  void set_circuit_breaker(const CircuitBreakerOptions& options);
  bool circuit_open() const;

  /// Receives asynchronous <notification> events (the element passed is
  /// the event payload, i.e. the first non-eventTime child).
  using NotificationCallback = std::function<void(const xml::Element& event)>;
  void on_notification(NotificationCallback cb) { notification_cb_ = std::move(cb); }

  std::uint64_t notifications_received() const { return notifications_; }

  std::uint64_t rpcs_sent() const { return next_message_id_ - 1; }
  std::size_t pending_rpcs() const { return pending_.size(); }
  std::uint64_t rpc_timeouts() const { return timeouts_; }
  std::uint64_t rpc_retries() const { return retries_; }

 private:
  /// One logical RPC, shared across its send attempts.
  struct RetryState {
    std::unique_ptr<xml::Element> operation;  // serialized per attempt
    RpcOptions options;
    int attempts_made = 0;
    ReplyCallback cb;
  };

  /// Outstanding attempt: retry state + send time/span for RTT metrics.
  struct PendingRpc {
    std::shared_ptr<RetryState> retry;
    SimTime sent_at = 0;
    std::uint64_t span_id = 0;
    EventHandle timeout;
  };

  void wire_transport();
  void on_bytes(std::string bytes);
  void handle_message(const std::string& message);
  void handle_transport_closed();
  void send_attempt(std::shared_ptr<RetryState> retry);
  void retry_or_fail(std::shared_ptr<RetryState> retry, Error error);
  SimDuration backoff_for(const RetryState& retry);
  void breaker_success();
  void breaker_failure();
  EventScheduler* scheduler() const { return transport_ ? transport_->scheduler() : nullptr; }

  std::shared_ptr<TransportEndpoint> transport_;
  FrameReader reader_;
  SessionState state_ = SessionState::kConnecting;
  std::vector<std::string> server_capabilities_;
  std::vector<std::function<void()>> established_callbacks_;
  std::vector<std::function<void(const Error&)>> closed_callbacks_;
  std::uint64_t next_message_id_ = 1;
  std::map<std::string, PendingRpc> pending_;
  NotificationCallback notification_cb_;
  std::uint64_t notifications_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  RpcOptions default_options_;
  CircuitBreakerOptions breaker_;
  int consecutive_failures_ = 0;
  SimTime breaker_open_until_ = 0;
  bool breaker_half_open_probe_ = false;
  /// When the in-flight half-open probe is considered lost (one cooldown
  /// window after it was sent); a wedged probe past this no longer blocks.
  SimTime breaker_probe_expires_ = 0;
  Rng jitter_rng_{0x5eedULL};
  // Liveness guard for timer callbacks: scheduled lambdas hold a weak_ptr
  // and become no-ops once the client is destroyed.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  obs::Counter* m_rpcs_;
  obs::Counter* m_timeouts_;
  obs::Counter* m_retries_;
  obs::Counter* m_closed_;
  obs::Counter* m_breaker_open_;
  obs::BoundedHistogram* m_rtt_us_;
  Logger log_{"netconf.client"};
};

/// Builds the <hello> message with the given capabilities.
std::string build_hello(const std::vector<std::string>& capabilities);

}  // namespace escape::netconf
