// The Click element model (Kohler et al., TOCS 2000): packet processing
// modules with push/pull ports, composed into a Router graph by the
// Click-language configuration parser.
//
// Faithful points of the model kept here:
//   * per-port push/pull/agnostic processing, resolved at initialization
//     and validated (push output may not feed a pull input and vice
//     versa; a Queue is the only push-to-pull converter);
//   * configuration strings parsed per element ("RATE 1000, BURST 20" or
//     positional arguments);
//   * read/write handlers as the management surface (what Clicky and the
//     NETCONF agent expose);
//   * tasks and timers for elements with their own activity (Unqueue,
//     RatedSource), driven by the shared virtual-time scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "net/packet.hpp"
#include "util/event.hpp"
#include "util/result.hpp"

namespace escape::click {

class Element;
class Router;

using net::Packet;

enum class PortMode : std::uint8_t { kPush, kPull, kAgnostic };

std::string_view port_mode_name(PortMode m);

/// The largest DELAY, INTERVAL or SWEEP_MS an element accepts, in
/// nanoseconds: one virtual hour, far above any catalog value. Configs
/// arrive over NETCONF; a larger time fails configure instead of
/// scheduling past the end of the clock.
inline constexpr SimDuration kMaxConfigTime = 3600 * timeunit::kSecond;

/// Key/value (or positional) configuration arguments for one element.
/// "RATE 1000, BURST 20" -> {("RATE","1000"), ("BURST","20")};
/// "100" (positional)   -> {("", "100")}.
class ConfigArgs {
 public:
  ConfigArgs() = default;
  explicit ConfigArgs(std::vector<std::pair<std::string, std::string>> args)
      : args_(std::move(args)) {}

  /// Parses a raw Click argument string (comma-separated, keyword-first).
  static ConfigArgs parse(std::string_view raw);

  std::size_t size() const { return args_.size(); }
  bool empty() const { return args_.empty(); }

  /// Positional argument by index ("" keys), or nullopt.
  std::optional<std::string> positional(std::size_t index) const;

  /// Keyword lookup (case-insensitive), or nullopt.
  std::optional<std::string> keyword(std::string_view key) const;

  /// Keyword or positional fallback: many Click elements accept
  /// "Queue(100)" as well as "Queue(CAPACITY 100)".
  std::optional<std::string> keyword_or_positional(std::string_view key,
                                                   std::size_t index) const;

  /// The one reader of numeric arguments. When `key` is given, parses
  /// its value into `out`; when it is absent, `out` keeps its value.
  /// Unsigned types take digits with an optional k/M/G suffix ("10k" is
  /// 10000), signed types an optional sign, floating point a decimal. A
  /// value that does not parse, or that lies outside [lo, hi], fails
  /// with an error naming the key, the range and the value, so a 16-bit
  /// port is range-checked before it is narrowed.
  template <class T>
  Status number(std::string_view key, T& out,
                std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                std::type_identity_t<T> hi = std::numeric_limits<T>::max()) const {
    return read_number(key, kKeywordOnly, out, lo, hi);
  }

  /// number(), falling back to the positional argument `index`.
  template <class T>
  Status number_or_positional(std::string_view key, std::size_t index, T& out,
                              std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                              std::type_identity_t<T> hi = std::numeric_limits<T>::max()) const {
    return read_number(key, index, out, lo, hi);
  }

  const std::vector<std::pair<std::string, std::string>>& all() const { return args_; }

 private:
  static constexpr std::size_t kKeywordOnly = ~std::size_t{0};

  // Reads through the widest type of T's kind, out of line: an absent
  // argument leaves `value`, and so `out`, as it was.
  template <class T>
  Status read_number(std::string_view key, std::size_t index, T& out, T lo, T hi) const {
    using Wide = std::conditional_t<std::is_floating_point_v<T>, double,
                                    std::conditional_t<std::is_signed_v<T>, std::int64_t,
                                                       std::uint64_t>>;
    Wide value = static_cast<Wide>(out);
    Status st = parse_number(key, index, static_cast<Wide>(lo), static_cast<Wide>(hi), value);
    if (st) out = static_cast<T>(value);
    return st;
  }
  Status parse_number(std::string_view key, std::size_t index, std::uint64_t lo,
                      std::uint64_t hi, std::uint64_t& value) const;
  Status parse_number(std::string_view key, std::size_t index, std::int64_t lo,
                      std::int64_t hi, std::int64_t& value) const;
  Status parse_number(std::string_view key, std::size_t index, double lo, double hi,
                      double& value) const;

  std::vector<std::pair<std::string, std::string>> args_;
};

/// A scheduled task: element activity independent of packet arrival
/// (pulling from queues, generating traffic). The callback returns the
/// delay until the next invocation, or nullopt to go idle; idle tasks are
/// rewoken with Task::reschedule() (e.g. when a queue becomes non-empty).
class Task {
 public:
  using Work = std::function<std::optional<SimDuration>()>;

  Task(Router* router, Work work);
  ~Task() { handle_.cancel(); }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  /// Ensures the task will run `delay` from now (no-op if already armed).
  void reschedule(SimDuration delay = 0);

  bool scheduled() const { return handle_.pending(); }

 private:
  void fire();

  Router* router_;
  Work work_;
  EventHandle handle_;
};

/// Base class of all packet processing elements.
class Element {
 public:
  virtual ~Element() = default;

  /// Element class name as written in configurations ("Queue").
  virtual std::string_view class_name() const = 0;

  /// Instance name ("q0" in "q0 :: Queue"); assigned by the Router.
  const std::string& name() const { return name_; }

  int n_inputs() const { return static_cast<int>(inputs_.size()); }
  int n_outputs() const { return static_cast<int>(outputs_.size()); }

  /// Declared processing of a port (before agnostic resolution).
  PortMode declared_input_mode(int port) const { return inputs_[static_cast<std::size_t>(port)].declared; }
  PortMode declared_output_mode(int port) const { return outputs_[static_cast<std::size_t>(port)].declared; }

  /// Resolved processing (valid after Router::initialize()).
  PortMode input_mode(int port) const { return inputs_[static_cast<std::size_t>(port)].resolved; }
  PortMode output_mode(int port) const { return outputs_[static_cast<std::size_t>(port)].resolved; }

  // --- lifecycle ---------------------------------------------------------

  /// Parses configuration arguments. Called before initialize().
  virtual Status configure(const ConfigArgs& args);

  /// Post-connection setup (task/timer registration). `router` gives
  /// access to the scheduler and other elements.
  virtual Status initialize(Router& router);

  // --- packet movement ----------------------------------------------------

  /// Receives a packet pushed into `port`. Default: drop.
  virtual void push(int port, Packet&& p);

  /// Produces a packet when downstream pulls from output `port`.
  /// Default: pull from input 0 and pass through.
  virtual std::optional<Packet> pull(int port);

  // --- handlers (the Clicky / NETCONF management surface) -----------------

  using ReadHandler = std::function<std::string()>;
  using WriteHandler = std::function<Status(std::string_view)>;

  std::vector<std::string> read_handler_names() const;
  /// The read handlers themselves, in declaration order.
  const std::vector<std::pair<std::string, ReadHandler>>& read_handlers() const {
    return read_handlers_;
  }
  std::vector<std::string> write_handler_names() const;

  /// Calls a read handler; error if unknown.
  Result<std::string> call_read(std::string_view handler) const;
  /// Calls a write handler; error if unknown.
  Status call_write(std::string_view handler, std::string_view value);

 protected:
  /// Declares port counts and modes; must be called in the constructor.
  void declare_ports(std::vector<PortMode> inputs, std::vector<PortMode> outputs);

  void add_read_handler(std::string name, ReadHandler fn);
  void add_write_handler(std::string name, WriteHandler fn);

  /// Pushes a packet out of `port`. Packets pushed out of unconnected
  /// ports are counted and dropped (Click wires such ports to Discard).
  void output_push(int port, Packet&& p);

  /// Fan-out emission (the Tee primitive): pushes `p` to every output in
  /// [0, n_outputs()), cloning only for the first N-1 connected outputs
  /// and moving the original into the last. Clones are counted in
  /// stats::packet_clones().
  void output_push_all(Packet&& p);

  /// Pulls a packet from upstream of input `port` (nullopt if none or
  /// unconnected).
  std::optional<Packet> input_pull(int port);

  /// True if output `port` has a downstream element.
  bool output_connected(int port) const;

 public:
  /// Upstream element wired to input `port` (nullptr if unconnected).
  /// For push inputs with fan-in this is the first upstream connected.
  /// Public so graph walks (queue wake-up registration, tooling) work.
  Element* input_peer(int port) const { return inputs_[static_cast<std::size_t>(port)].peer; }

  /// Downstream element wired to output `port` (nullptr if unconnected).
  Element* output_peer(int port) const { return outputs_[static_cast<std::size_t>(port)].peer; }

 protected:

  Router* router() const { return router_; }

 private:
  friend class Router;

  struct InPort {
    PortMode declared = PortMode::kAgnostic;
    PortMode resolved = PortMode::kAgnostic;
    Element* peer = nullptr;  // upstream element (for pull)
    int peer_port = -1;
  };
  struct OutPort {
    PortMode declared = PortMode::kAgnostic;
    PortMode resolved = PortMode::kAgnostic;
    Element* peer = nullptr;  // downstream element (for push)
    int peer_port = -1;
  };

  std::string name_;
  Router* router_ = nullptr;
  std::vector<InPort> inputs_;
  std::vector<OutPort> outputs_;
  std::uint64_t unconnected_drops_ = 0;
  std::vector<std::pair<std::string, ReadHandler>> read_handlers_;
  std::vector<std::pair<std::string, WriteHandler>> write_handlers_;
};

/// Convenience base for elements that process one packet at a time and
/// work in either push or pull context (Click's "agnostic" elements).
/// Subclasses implement process(); returning nullopt drops the packet,
/// otherwise the result is emitted on the returned port.
class SimpleElement : public Element {
 public:
  SimpleElement() { declare_ports({PortMode::kAgnostic}, {PortMode::kAgnostic}); }

  void push(int port, Packet&& p) final;
  std::optional<Packet> pull(int port) final;

 protected:
  /// Output port selection result.
  struct Verdict {
    bool keep = true;
    int out_port = 0;
  };

  /// Processes a packet in place. Return {false, _} to drop.
  virtual Verdict process(Packet& p) = 0;
};

}  // namespace escape::click
