// The standard element library: the building blocks the VNF catalog
// composes into VNFs. Names and semantics follow the Click distribution
// where an equivalent exists (Queue, Unqueue, Counter, Classifier, Tee,
// Paint, CheckIPHeader, DecIPTTL, BandwidthShaper, ...); the VNF-level
// elements (Firewall, DpiCounter) are ESCAPE catalog additions expressed
// in the same model. The stateful VNFs (FlowNAT, FlowLB, StreamIDS) sit
// on the FlowManager substrate in click/flow.hpp.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "click/classifier_tree.hpp"
#include "click/config.hpp"
#include "click/element.hpp"
#include "click/filter_expr.hpp"
#include "net/builder.hpp"
#include "net/packet_pool.hpp"
#include "util/random.hpp"
#include "util/token_bucket.hpp"

namespace escape::click {

/// Registers every element class below into `registry`.
void register_standard_elements(ElementRegistry& registry);

/// Packet template shared by the source elements; configurable through
/// SRC_IP / DST_IP / SPORT / DPORT / SRC_ETH / DST_ETH keywords.
struct PacketTemplate {
  net::MacAddr eth_src = net::MacAddr::from_u64(0x0a0000000001);
  net::MacAddr eth_dst = net::MacAddr::from_u64(0x0a0000000002);
  net::Ipv4Addr ip_src{10, 0, 0, 1};
  net::Ipv4Addr ip_dst{10, 0, 0, 2};
  std::uint16_t sport = 1000;
  std::uint16_t dport = 2000;

  Status load(const ConfigArgs& args);
  Packet make(std::size_t length, std::uint64_t seq, SimTime now) const;

 private:
  // Prototype frame cache: building the headers once and copying from a
  // pooled buffer is much cheaper than re-encoding per packet. Keyed by
  // length; invalidated by load().
  mutable std::optional<Packet> proto_;
  mutable std::size_t proto_length_ = 0;
};

// --- sources & sinks ---------------------------------------------------------

/// Drops everything; counts what it dropped. Push input.
class Discard : public Element {
 public:
  Discard();
  std::string_view class_name() const override { return "Discard"; }
  void push(int port, Packet&& p) override;

 private:
  std::uint64_t count_ = 0;
};

/// Emits `LIMIT` packets as fast as the scheduler allows (BURST packets
/// per task run, INTERVAL between runs). Push output.
///   InfiniteSource(LENGTH 64, LIMIT 1000, BURST 32, INTERVAL 1000)
class InfiniteSource : public Element {
 public:
  InfiniteSource();
  std::string_view class_name() const override { return "InfiniteSource"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;

 private:
  std::optional<SimDuration> run_once();
  Packet make_packet();

  std::size_t length_ = 64;
  std::uint64_t limit_ = 0;  // 0 = unlimited
  std::uint64_t burst_ = 32;
  SimDuration interval_ = 1000;  // ns between bursts
  std::uint64_t emitted_ = 0;
  std::unique_ptr<Task> task_;
  PacketTemplate tmpl_;
};

/// Emits packets at RATE packets/second. Push output.
///   RatedSource(RATE 10000, LENGTH 64, LIMIT 0)
class RatedSource : public Element {
 public:
  RatedSource();
  std::string_view class_name() const override { return "RatedSource"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;

  std::uint64_t emitted() const { return emitted_; }

 private:
  std::optional<SimDuration> run_once();

  std::uint64_t rate_ = 10;
  std::size_t length_ = 64;
  std::uint64_t limit_ = 0;
  std::uint64_t emitted_ = 0;
  std::unique_ptr<Task> task_;
  PacketTemplate tmpl_;
};

/// Emits one packet every INTERVAL nanoseconds. Push output.
class TimedSource : public Element {
 public:
  TimedSource();
  std::string_view class_name() const override { return "TimedSource"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;

 private:
  SimDuration interval_ = timeunit::kMillisecond;
  std::size_t length_ = 64;
  std::uint64_t limit_ = 0;
  std::uint64_t emitted_ = 0;
  std::unique_ptr<Task> task_;
  PacketTemplate tmpl_;
};

// --- counting & debugging ------------------------------------------------------

/// Passes packets through, counting packets and bytes. Agnostic.
/// Handlers: count, byte_count, rate (pps over the last second), reset.
class Counter : public SimpleElement {
 public:
  Counter();
  std::string_view class_name() const override { return "Counter"; }

  std::uint64_t count() const { return count_; }
  std::uint64_t byte_count() const { return bytes_; }

 protected:
  Verdict process(Packet& p) override;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t bytes_ = 0;
  // Sliding-window rate estimation.
  SimTime window_start_ = 0;
  std::uint64_t window_count_ = 0;
  double last_rate_ = 0;
};

/// Logs a line per packet through the framework logger. Agnostic.
///   Print(LABEL fw_in)
class Print : public SimpleElement {
 public:
  std::string_view class_name() const override { return "Print"; }
  Status configure(const ConfigArgs& args) override;

 protected:
  Verdict process(Packet& p) override;

 private:
  std::string label_ = "print";
};

// --- fan-out & switching --------------------------------------------------------

/// Clones each input packet to every output. Push. Tee(3) has 3 outputs.
class Tee : public Element {
 public:
  Tee();
  std::string_view class_name() const override { return "Tee"; }
  Status configure(const ConfigArgs& args) override;
  void push(int port, Packet&& p) override;
};

/// Statically routes every packet to output K; K settable at runtime via
/// the "switch" write handler (-1 drops). Push.
class Switch : public Element {
 public:
  Switch();
  std::string_view class_name() const override { return "Switch"; }
  Status configure(const ConfigArgs& args) override;
  void push(int port, Packet&& p) override;

 private:
  int current_ = 0;
};

/// Distributes packets round-robin over its outputs. Push.
class RoundRobinSwitch : public Element {
 public:
  RoundRobinSwitch();
  std::string_view class_name() const override { return "RoundRobinSwitch"; }
  Status configure(const ConfigArgs& args) override;
  void push(int port, Packet&& p) override;

 private:
  std::size_t next_ = 0;
};

/// Sets the paint annotation. Agnostic. Paint(COLOR 2).
class Paint : public SimpleElement {
 public:
  std::string_view class_name() const override { return "Paint"; }
  Status configure(const ConfigArgs& args) override;

 protected:
  Verdict process(Packet& p) override;

 private:
  std::uint8_t color_ = 0;
};

/// Routes by paint annotation: paint p goes to output p (last output is
/// the overflow). Push.
class PaintSwitch : public Element {
 public:
  PaintSwitch();
  std::string_view class_name() const override { return "PaintSwitch"; }
  Status configure(const ConfigArgs& args) override;
  void push(int port, Packet&& p) override;
};

/// CheckPaint(COLOR c): packets painted c -> output 0, others -> output 1.
class CheckPaint : public Element {
 public:
  CheckPaint();
  std::string_view class_name() const override { return "CheckPaint"; }
  Status configure(const ConfigArgs& args) override;
  void push(int port, Packet&& p) override;

 private:
  std::uint8_t color_ = 0;
};

/// Byte-pattern classifier: Classifier(12/0800, 12/0806, -). Push.
/// Pattern "off/hex" matches frame bytes at `off`; "-" matches anything.
class Classifier : public Element {
 public:
  Classifier();
  std::string_view class_name() const override { return "Classifier"; }
  Status configure(const ConfigArgs& args) override;
  void push(int port, Packet&& p) override;

 private:
  int classify(const Packet& p) const;

  struct Pattern {
    bool catch_all = false;
    std::size_t offset = 0;
    std::vector<std::uint8_t> value;
  };
  std::vector<Pattern> patterns_;
};

/// Filter-expression classifier: IPClassifier(udp && dst port 53, tcp, -).
/// First matching expression wins; packets matching nothing are dropped.
class IPClassifier : public Element {
 public:
  IPClassifier();
  std::string_view class_name() const override { return "IPClassifier"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;
  void push(int port, Packet&& p) override;

 private:
  struct Rule {
    bool catch_all = false;
    FilterExpr expr;
  };
  std::vector<Rule> rules_;
  ClassifierTree tree_;  // compiled in initialize(); rules_ keeps sources
  std::uint64_t no_match_drops_ = 0;
};

/// Two-output filter: IPFilter(<expr>): match -> 0, else -> 1 (or drop).
class IPFilter : public Element {
 public:
  IPFilter();
  std::string_view class_name() const override { return "IPFilter"; }
  Status configure(const ConfigArgs& args) override;
  void push(int port, Packet&& p) override;

 private:
  std::optional<FilterExpr> expr_;
  std::uint64_t matched_ = 0;
  std::uint64_t rejected_ = 0;
};

// --- queueing -------------------------------------------------------------------

/// FIFO packet queue: push input, pull output. Queue(CAPACITY) or
/// Queue(CAPACITY 1000). Handlers: length, capacity, drops, highwater.
class Queue : public Element {
 public:
  Queue();
  std::string_view class_name() const override { return "Queue"; }
  Status configure(const ConfigArgs& args) override;
  void push(int port, Packet&& p) override;
  std::optional<Packet> pull(int port) override;

  std::size_t length() const { return queue_.size(); }
  std::uint64_t drops() const { return drops_; }

  /// Downstream pullers (Unqueue, ToDevice) register to be woken when the
  /// queue transitions empty -> non-empty (Click's notifier mechanism).
  void add_nonempty_listener(std::function<void()> fn) {
    listeners_.push_back(std::move(fn));
  }

 private:
  std::size_t capacity_ = 1000;
  std::deque<Packet> queue_;
  std::uint64_t drops_ = 0;
  std::size_t highwater_ = 0;
  std::vector<std::function<void()>> listeners_;
};

/// Pull scheduler: cycles over its pull inputs round-robin, skipping
/// empty ones. RoundRobinSched(N). Classic Click QoS element.
class RoundRobinSched : public Element {
 public:
  RoundRobinSched();
  std::string_view class_name() const override { return "RoundRobinSched"; }
  Status configure(const ConfigArgs& args) override;
  std::optional<Packet> pull(int port) override;

 private:
  std::size_t next_ = 0;
};

/// Strict-priority pull scheduler: input 0 first, then 1, ... PrioSched(N).
class PrioSched : public Element {
 public:
  PrioSched();
  std::string_view class_name() const override { return "PrioSched"; }
  Status configure(const ConfigArgs& args) override;
  std::optional<Packet> pull(int port) override;

 private:
  std::vector<std::uint64_t> served_;
};

/// Pulls packets from upstream and pushes them downstream, BURST packets
/// per task run, one run per INTERVAL ns (scaled by the router CPU share:
/// the per-packet processing cost model of a software VNF).
class Unqueue : public Element {
 public:
  Unqueue();
  std::string_view class_name() const override { return "Unqueue"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;

 private:
  std::optional<SimDuration> run_once();

  std::uint64_t burst_ = 1;
  SimDuration interval_ = 1000;  // ns per run; ~1 Mpps per unit burst
  std::unique_ptr<Task> task_;
  std::uint64_t moved_ = 0;
};

/// Pulls at most RATE packets per second from upstream. Pull-to-push.
class RatedUnqueue : public Element {
 public:
  RatedUnqueue();
  std::string_view class_name() const override { return "RatedUnqueue"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;

 private:
  std::optional<SimDuration> run_once();

  std::uint64_t rate_ = 1000;
  std::optional<TokenBucket> bucket_;
  std::unique_ptr<Task> task_;
};

// --- IP processing -----------------------------------------------------------------

/// Validates the IPv4 header (version, length, checksum). Valid -> out 0;
/// invalid -> out 1 if connected, else dropped. Handler: drops.
class CheckIPHeader : public Element {
 public:
  CheckIPHeader();
  std::string_view class_name() const override { return "CheckIPHeader"; }
  void push(int port, Packet&& p) override;

 private:
  std::uint64_t drops_ = 0;
};

/// Decrements IPv4 TTL (fixing the checksum). Expired/non-IP -> out 1 if
/// connected, else dropped.
class DecIPTTL : public Element {
 public:
  DecIPTTL();
  std::string_view class_name() const override { return "DecIPTTL"; }
  void push(int port, Packet&& p) override;

 private:
  std::uint64_t expired_ = 0;
};

/// Sets the IPv4 DSCP field. Agnostic. SetIPDSCP(DSCP 46).
class SetIPDSCP : public SimpleElement {
 public:
  std::string_view class_name() const override { return "SetIPDSCP"; }
  Status configure(const ConfigArgs& args) override;

 protected:
  Verdict process(Packet& p) override;

 private:
  std::uint8_t dscp_ = 0;
};

/// Static header rewriter: any subset of SRC_IP, DST_IP, SRC_PORT,
/// DST_PORT, SRC_ETH, DST_ETH. Agnostic.
class IPRewriter : public SimpleElement {
 public:
  std::string_view class_name() const override { return "IPRewriter"; }
  Status configure(const ConfigArgs& args) override;

 protected:
  Verdict process(Packet& p) override;

 private:
  std::optional<net::Ipv4Addr> src_ip_, dst_ip_;
  std::optional<std::uint16_t> src_port_, dst_port_;
  std::optional<net::MacAddr> src_eth_, dst_eth_;
};

// --- traffic shaping -----------------------------------------------------------------

/// Pull-path shaper limiting bytes/second: BandwidthShaper(RATE 1M, BURST 15000).
class BandwidthShaper : public Element {
 public:
  BandwidthShaper();
  std::string_view class_name() const override { return "BandwidthShaper"; }
  Status configure(const ConfigArgs& args) override;
  std::optional<Packet> pull(int port) override;

 private:
  std::uint64_t rate_ = 1'000'000;  // bytes/s
  std::uint64_t burst_ = 15000;
  std::optional<TokenBucket> bucket_;
  std::optional<Packet> staged_;  // pulled but not yet affordable
};

/// Push-path packet delayer: Delay(DELAY 5ms as nanoseconds: DELAY 5000000).
/// Each packet waits in its own event; destroying the element cancels
/// the events of packets still inside.
class Delay : public Element {
 public:
  Delay();
  ~Delay() override;
  std::string_view class_name() const override { return "Delay"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;
  void push(int port, Packet&& p) override;

 private:
  SimDuration delay_ = timeunit::kMillisecond;
  std::deque<EventHandle> in_flight_;  // one per packet inside, in push (= fire) order
};

/// Keeps packets with probability P -> out 0; the rest are dropped (or
/// out 1 if connected). RandomSample(P 0.5, SEED 42).
class RandomSample : public Element {
 public:
  RandomSample();
  std::string_view class_name() const override { return "RandomSample"; }
  Status configure(const ConfigArgs& args) override;
  void push(int port, Packet&& p) override;

 private:
  double p_ = 1.0;
  Rng rng_{42};
  std::uint64_t sampled_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Rate meter: packets within RATE pps -> out 0, excess -> out 1.
class Meter : public Element {
 public:
  Meter();
  std::string_view class_name() const override { return "Meter"; }
  Status configure(const ConfigArgs& args) override;
  void push(int port, Packet&& p) override;

 private:
  std::uint64_t rate_ = 1000;
  std::optional<TokenBucket> bucket_;
  std::uint64_t conforming_ = 0;
  std::uint64_t exceeding_ = 0;
};

// --- VNF-level elements (ESCAPE catalog building blocks) ------------------------------

/// Rule-based firewall: Firewall(RULES "deny udp && dst port 53; allow ip",
/// DEFAULT allow). Accepted -> out 0, denied -> out 1 (or drop).
/// Handlers: accepted, denied, rules, add_rule (write, "allow <expr>").
class Firewall : public Element {
 public:
  Firewall();
  std::string_view class_name() const override { return "Firewall"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;
  void push(int port, Packet&& p) override;

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t denied() const { return denied_; }

 private:
  struct Rule {
    bool allow = true;
    FilterExpr expr;
  };
  Status add_rule_line(std::string_view line);
  void recompile_tree();

  std::vector<Rule> rules_;
  ClassifierTree tree_;  // compiled in initialize(); add_rule recompiles
  bool default_allow_ = true;
  std::uint64_t accepted_ = 0;
  std::uint64_t denied_ = 0;
};

/// Payload substring inspector: counts packets whose payload contains
/// each pattern. DpiCounter(PATTERNS "attack;beacon"). Handlers:
/// matches_<i>, total.
class DpiCounter : public SimpleElement {
 public:
  DpiCounter();
  std::string_view class_name() const override { return "DpiCounter"; }
  Status configure(const ConfigArgs& args) override;

 protected:
  Verdict process(Packet& p) override;

 private:
  std::vector<std::string> patterns_;
  std::vector<std::uint64_t> hits_;
  std::uint64_t total_ = 0;
};

// --- device bridges (the VNF <-> container boundary) -----------------------------------

/// Entry point of a VNF graph: the container injects packets arriving on
/// a virtual device into the graph. FromDevice(DEVNAME vnf0-eth0).
class FromDevice : public Element {
 public:
  FromDevice();
  std::string_view class_name() const override { return "FromDevice"; }
  Status configure(const ConfigArgs& args) override;

  const std::string& devname() const { return devname_; }

  /// Called by the VNF container when a packet arrives on the device.
  void inject(Packet&& p);

 private:
  std::string devname_;
  std::uint64_t received_ = 0;
};

/// Exit point of a VNF graph: packets pushed here leave on a virtual
/// device. The container installs the sink callback. Push input.
class ToDevice : public Element {
 public:
  ToDevice();
  std::string_view class_name() const override { return "ToDevice"; }
  Status configure(const ConfigArgs& args) override;
  void push(int port, Packet&& p) override;

  const std::string& devname() const { return devname_; }
  void set_sink(std::function<void(Packet&&)> sink) { sink_ = std::move(sink); }

 private:
  std::string devname_;
  std::function<void(Packet&&)> sink_;
  std::uint64_t sent_ = 0;
  std::uint64_t no_sink_drops_ = 0;
};

}  // namespace escape::click
