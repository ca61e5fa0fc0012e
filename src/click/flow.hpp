// Flow-aware middlebox substrate (the MiddleClick idea): a FlowManager
// element classifies packets into flows by 5-tuple and hands a per-flow
// state block down the chain, so stateful VNFs (NAT, sticky load
// balancer, TCP reassembly, stream IDS) share one classification pass
// and one table instead of each keeping its own hash map.
//
// Model:
//   * FlowManager owns a robin-hood open-addressing table mapping the
//     5-tuple to a state block. Each block starts with a FlowBlockHeader
//     (tuple, timestamps, packet/byte counters) followed by scratch
//     space that downstream elements reserve at initialize() time --
//     the per-element FCB offsets of fastclick's ctx subsystem.
//   * While FlowManager pushes a packet downstream, the flow context
//     (nullptr for a packet it has no flow for) is published through a
//     thread-local (current_flow()). The push path is synchronous
//     within one shard, and every router is owned by exactly one shard
//     of the sharded engine, so the context never crosses threads and
//     flow tables never need locks: thread confinement comes from shard
//     ownership.
//   * Idle flows are evicted by a periodic sweep task driven by the
//     virtual-time scheduler, so eviction order and timing are
//     deterministic and bit-identical across worker thread counts.
//   * Elements register eviction listeners to release per-flow
//     resources they own (NAT ports, reassembly buffers). Listeners
//     fire on idle/pressure eviction and explicit clear, never during
//     destruction (each element frees its own memory in its destructor,
//     so teardown order between elements does not matter).
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "click/element.hpp"
#include "net/addr.hpp"
#include "net/packet.hpp"
#include "util/time.hpp"

namespace escape::click {

class Router;

// --- flow identity ----------------------------------------------------------

/// The classification key: IPv4 5-tuple. ICMP uses (type, identifier)
/// as the port pair so echo streams form flows too; other IP protocols
/// use 0.
struct FlowTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;

  bool operator==(const FlowTuple&) const = default;

  /// 64-bit mix of the tuple; never returns 0 (0 marks an empty slot).
  std::uint64_t hash() const;

  /// The output among `n` a MODE hash FlowLB sends this flow to.
  std::size_t hash_backend(std::size_t n) const { return static_cast<std::size_t>(hash() % n); }

  std::string to_string() const;

  /// Extracts the tuple from an Ethernet frame; nullopt for non-IPv4.
  static std::optional<FlowTuple> from_packet(const Packet& p);
};

/// Fixed header at offset 0 of every flow state block.
struct FlowBlockHeader {
  FlowTuple tuple;
  SimTime created = 0;
  SimTime last_seen = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

/// Reads one `flow` record of the hand-off format (FlowManager::
/// export_state) into a header; nullopt for a line import_state rejects.
std::optional<FlowBlockHeader> parse_flow_record(const std::string& line);

// --- the state table --------------------------------------------------------

/// Open-addressing robin-hood hash table from FlowTuple to a heap state
/// block. Insertion steals slots from richer entries (bounded probe
/// variance), deletion backward-shifts, growth doubles the slot array
/// up to the configured flow capacity.
class FlowStateTable {
 public:
  /// (header, block base) -- listeners index into the block with the
  /// scratch offset they reserved.
  using EvictListener = std::function<void(const FlowBlockHeader&, std::uint8_t*)>;

  FlowStateTable(std::size_t initial_buckets, std::size_t max_flows);
  /// A table with no slots, to be assigned a sized one before its first
  /// lookup (FlowManager builds its table once, in configure()).
  FlowStateTable() = default;

  /// Reserves `bytes` of per-flow scratch (zero-initialized) aligned to
  /// `align`; returns the offset into the block. Must be called before
  /// the first block is allocated (i.e. during element initialize()).
  std::size_t reserve_scratch(std::size_t bytes, std::size_t align = 8);

  void add_evict_listener(EvictListener fn) { listeners_.push_back(std::move(fn)); }

  /// Block for `t`, or nullptr. Does not touch header counters.
  std::uint8_t* find(const FlowTuple& t);

  struct Lookup {
    std::uint8_t* block = nullptr;  // nullptr: table at capacity
    bool created = false;
  };
  /// Finds or allocates the block for `t`. A fresh block has its header
  /// initialized (tuple, created = last_seen = now) and scratch zeroed.
  Lookup find_or_create(const FlowTuple& t, SimTime now);

  /// Evicts one flow (fires listeners). Returns whether it existed.
  bool erase(const FlowTuple& t);

  /// Evicts every flow idle for at least `idle_timeout` at `now` (fires
  /// listeners); returns the count. Scan order is slot order, so sweeps
  /// are deterministic.
  std::size_t sweep(SimTime now, SimDuration idle_timeout);

  /// Evicts everything (fires listeners).
  void clear();

  /// Visits every live flow in slot order. Slot order is a pure function
  /// of the insertion history, so exports taken at the same virtual time
  /// are bit-identical across runs and worker-thread counts.
  void for_each(
      const std::function<void(const FlowBlockHeader&, const std::uint8_t*)>& fn) const;

  std::size_t size() const { return size_; }
  std::size_t bucket_count() const { return slots_.size(); }
  std::size_t max_flows() const { return max_flows_; }
  std::size_t block_size() const { return block_size_; }
  std::uint64_t created_total() const { return created_; }
  std::uint64_t evicted_idle() const { return evicted_idle_; }
  std::uint64_t evicted_total() const { return evicted_idle_ + evicted_explicit_; }
  /// Resident bytes: slot array plus live state blocks.
  std::size_t memory_bytes() const;
  /// Largest probe sequence length seen on insert (collision telemetry).
  std::size_t max_probe() const { return max_probe_; }

  FlowBlockHeader* header_of(std::uint8_t* block) const {
    return reinterpret_cast<FlowBlockHeader*>(block);
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;  // 0 = empty
    std::unique_ptr<std::uint8_t[]> block;
  };

  std::size_t find_index(const FlowTuple& t, std::uint64_t h) const;
  void insert_slot(std::uint64_t h, std::unique_ptr<std::uint8_t[]> block);
  void erase_index(std::size_t index);
  void evict_index(std::size_t index, bool idle);
  void grow();

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t max_flows_ = 1;
  std::size_t block_size_ = 0;   // frozen on first allocation
  std::size_t scratch_end_ = 0;  // running reservation cursor
  bool layout_frozen_ = false;
  std::uint64_t created_ = 0;
  std::uint64_t evicted_idle_ = 0;
  std::uint64_t evicted_explicit_ = 0;
  std::size_t max_probe_ = 0;
  std::vector<EvictListener> listeners_;
};

// --- the flow context -------------------------------------------------------

class FlowManager;

/// Published by FlowManager for the duration of a downstream push: the
/// flow the current packet (or same-flow run) belongs to.
struct FlowCtx {
  FlowManager* manager = nullptr;
  std::uint8_t* block = nullptr;
  FlowBlockHeader* header() const { return reinterpret_cast<FlowBlockHeader*>(block); }
};

/// The flow context of the packet currently being pushed, or nullptr
/// outside a FlowManager push path. Thread-local: each shard thread
/// sees only its own context.
FlowCtx* current_flow();

/// RAII publication of a flow context (nesting restores the outer one,
/// so chained FlowManagers keep their contexts separate).
class FlowScope {
 public:
  explicit FlowScope(FlowCtx* ctx);
  ~FlowScope();
  FlowScope(const FlowScope&) = delete;
  FlowScope& operator=(const FlowScope&) = delete;

 private:
  FlowCtx* prev_;
};

// --- FlowManager element ----------------------------------------------------

/// FlowManager(CAPACITY 1048576, BUCKETS 1024, TIMEOUT_MS 30000,
///             SWEEP_MS 1000, HOLD false)
/// Push element: classifies each packet into a flow, updates the block
/// header, and pushes downstream with the flow context set. Non-IPv4
/// packets pass through with no context. Packets that cannot get a
/// block (table at CAPACITY) leave on output 1 if connected, else are
/// dropped and counted.
///
/// CAPACITY/TIMEOUT_MS accept the literal "default" (or may be
/// omitted) to use the process-wide defaults settable by escape-run's
/// --flow-capacity / --flow-timeout-ms flags.
///
/// Migration support (the OpenNF-style loss-free handoff): with HOLD
/// true (or after `write hold 1`) every arriving packet is buffered
/// instead of pushed, so a freshly deployed instance can receive
/// imported flow state before it processes its first packet; `write
/// hold 0` flushes the buffer FIFO through the normal push path.
/// export_state()/import_state() serialize the flow table plus the
/// per-flow scratch of every downstream element that registered a
/// FlowCodec (NAT port maps, LB stickiness, TCP reassembly buffers).
class FlowManager : public Element {
 public:
  FlowManager();
  std::string_view class_name() const override { return "FlowManager"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;
  void push(int port, Packet&& p) override;

  // --- client API (downstream stateful elements) ---------------------------

  /// See FlowStateTable::reserve_scratch.
  std::size_t reserve_scratch(std::size_t bytes, std::size_t align = 8) {
    return table_.reserve_scratch(bytes, align);
  }
  void add_evict_listener(FlowStateTable::EvictListener fn) {
    table_.add_evict_listener(std::move(fn));
  }

  /// Fallback for clients processing a packet outside this manager's
  /// push path (e.g. behind a Queue): classifies and allocates on the
  /// spot. Returns nullptr for non-IPv4 or a full table.
  std::uint8_t* lookup_block(const Packet& p);

  FlowStateTable& table() { return table_; }
  SimDuration idle_timeout() const { return idle_timeout_; }

  /// Resolves the FlowManager a stateful element should attach to: the
  /// element named by `named` (from an FM keyword) or, when empty, the
  /// single FlowManager instance of the router. Returns nullptr when
  /// none exists; an error when the reference is ambiguous or dangling.
  static Result<FlowManager*> resolve(Router& router, const std::string& named);

  /// Process-wide defaults (escape-run --flow-capacity/--flow-timeout-ms).
  static void set_default_capacity(std::size_t flows);
  static void set_default_idle_timeout(SimDuration timeout);

  // --- state migration (scale-out/in flow handoff) --------------------------

  /// Per-element serializer of the scratch a stateful element keeps in
  /// this manager's flow blocks. `name` is the element's instance name
  /// (stable across replicas rendered from the same catalog template) and
  /// keys import dispatch. save() returns one line of text (no newlines)
  /// or "" to skip the flow; load() rebuilds the element's side state
  /// (port maps, stream buffers) from that line.
  struct FlowCodec {
    std::string name;
    std::function<std::string(const FlowBlockHeader&, const std::uint8_t*)> save;
    std::function<Status(const FlowBlockHeader&, std::uint8_t*, const std::string&)> load;
  };
  void register_codec(FlowCodec codec) { codecs_.push_back(std::move(codec)); }

  /// Serializes every live flow (header + registered codec lines) to the
  /// line-based handoff wire format (DESIGN.md §13).
  std::string export_state() const;
  /// Rebuilds flows from export_state() text. Existing flows with the
  /// same tuple are overwritten. Returns the number of flows imported.
  Result<std::size_t> import_state(const std::string& text);

  /// Starts/stops buffering arriving packets; stopping flushes the held
  /// packets FIFO through the normal push path.
  void set_hold(bool hold);
  bool holding() const { return holding_; }
  std::size_t held() const { return held_.size(); }

 private:
  void run_sweep();
  void hold_packet(Packet&& p);
  void classify_push(Packet&& p);

  FlowStateTable table_;
  SimDuration idle_timeout_;
  SimDuration sweep_interval_ = 1000 * timeunit::kMillisecond;
  std::unique_ptr<Task> sweep_task_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t non_ip_ = 0;
  std::uint64_t full_drops_ = 0;
  bool holding_ = false;
  std::deque<Packet> held_;
  std::size_t hold_cap_ = 65536;  // packets
  std::uint64_t hold_drops_ = 0;
  std::vector<FlowCodec> codecs_;
};

// --- stateful VNF elements --------------------------------------------------

/// Flow-table NAT. FlowNAT(EXTERNAL_IP 192.0.2.1, PORT_BASE 20000,
/// PORT_COUNT 1024, FM manager_name).
/// Ports: in0/out0 internal->external (source rewritten to
/// EXTERNAL_IP:allocated-port), in1/out1 external->internal (destination
/// translated back; unknown inbound flows dropped). Each outbound flow
/// allocates one external port from a FIFO free list; ports return to
/// the list when the flow manager evicts the flow, so idle-timeout
/// eviction is what makes port reuse possible. When the pool is
/// exhausted new flows are dropped and counted.
class FlowNAT : public Element {
 public:
  FlowNAT();
  std::string_view class_name() const override { return "FlowNAT"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;
  void push(int port, Packet&& p) override;

  std::size_t active_mappings() const { return reverse_.size(); }
  std::size_t free_ports() const { return free_ports_.size(); }
  std::size_t ports_total() const { return port_count_; }

 private:
  // Per-flow scratch of outbound flows.
  struct NatSlot {
    std::uint16_t ext_port = 0;
    std::uint8_t state = 0;  // 0 new, 1 mapped, 2 blocked (pool exhausted)
  };
  struct ReverseKey {
    std::uint8_t proto;
    std::uint16_t ext_port;
    bool operator<(const ReverseKey& o) const {
      return std::tie(proto, ext_port) < std::tie(o.proto, o.ext_port);
    }
  };
  struct Internal {
    std::uint32_t ip;
    std::uint16_t port;
  };

  /// Ensures the outbound flow has a mapping; returns nullptr if the
  /// packet must be dropped (no context, no block or no free port).
  NatSlot* outbound_slot(const Packet& p);

  /// True when `port` lies in this instance's configured range (a
  /// migrated-in mapping may carry a foreign port that must never enter
  /// the local free pool).
  bool owns_port(std::uint16_t port) const {
    return port >= port_base_ && port < port_base_ + port_count_;
  }

  std::string fm_name_;
  FlowManager* fm_ = nullptr;
  std::size_t slot_off_ = 0;
  net::Ipv4Addr external_ip_{192, 0, 2, 1};
  std::uint16_t port_base_ = 20000;
  std::size_t port_count_ = 1024;
  std::deque<std::uint16_t> free_ports_;
  std::map<ReverseKey, Internal> reverse_;
  std::uint64_t translated_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t exhausted_ = 0;
};

/// Flow-sticky L4 load balancer. FlowLB(N 2, MODE rr|hash, FM name).
/// The first packet of a flow picks a backend (round-robin over flows,
/// or tuple hash); every later packet of the flow takes the same output
/// no matter how the backends' load shifts. Per-backend counters track
/// packets and currently-assigned flows (decremented on eviction).
class FlowLB : public Element {
 public:
  FlowLB();
  std::string_view class_name() const override { return "FlowLB"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;
  void push(int port, Packet&& p) override;

 private:
  struct LbSlot {
    std::uint8_t assigned = 0;
    std::uint8_t backend = 0;
  };
  int backend_for(const Packet& p);

  std::string fm_name_;
  FlowManager* fm_ = nullptr;
  std::size_t slot_off_ = 0;
  bool round_robin_ = true;
  std::size_t rr_next_ = 0;
  std::uint64_t flows_assigned_ = 0;
  std::vector<std::uint64_t> out_packets_;
  std::vector<std::uint64_t> out_flows_;  // currently assigned
};

/// Per-flow TCP stream reassembly. TcpReassembler(WINDOW 65536,
/// OOO_CAP 65536, FM name). Agnostic single-port element: packets pass
/// through unmodified; in-order payload bytes are appended to a per-flow
/// pending buffer that a downstream StreamIDS consumes. Out-of-order
/// segments are buffered (bounded) and drained when the gap closes;
/// retransmitted bytes are delivered exactly once. Each direction of a
/// connection is its own flow (its own 5-tuple), exactly like a real
/// unidirectional middlebox tap.
class TcpReassembler : public SimpleElement {
 public:
  /// In-order bytes not yet consumed by a downstream stream consumer.
  struct Pending {
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    std::uint64_t stream_offset = 0;  // offset of data[0] in the stream
  };

  TcpReassembler();
  std::string_view class_name() const override { return "TcpReassembler"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;

  /// Pending bytes of the flow `block` (empty if none).
  Pending pending_of(std::uint8_t* block);
  /// Marks the flow's pending bytes consumed.
  void consume(std::uint8_t* block);

  FlowManager* flow_manager() const { return fm_; }

 protected:
  Verdict process(Packet& p) override;

 private:
  struct StreamState {
    bool have_isn = false;
    std::uint32_t next_seq = 0;
    std::uint64_t delivered = 0;  // stream offset just past `pending`
    std::vector<std::uint8_t> pending;
    std::map<std::uint32_t, std::vector<std::uint8_t>> ooo;
    std::size_t ooo_bytes = 0;
  };

  StreamState* state_of(std::uint8_t* block, bool create);
  void deliver(StreamState& st, const std::uint8_t* data, std::size_t len);
  void drain_ooo(StreamState& st);
  void release(std::uint32_t idx_plus1);

  std::string fm_name_;
  FlowManager* fm_ = nullptr;
  std::size_t slot_off_ = 0;  // scratch: uint32 index+1 into states_
  std::size_t window_cap_ = 65536;
  std::size_t ooo_cap_ = 65536;
  std::vector<std::unique_ptr<StreamState>> states_;
  std::vector<std::uint32_t> free_states_;
  std::size_t active_streams_ = 0;
  std::uint64_t reassembled_bytes_ = 0;
  std::uint64_t duplicate_bytes_ = 0;
  std::uint64_t ooo_segments_ = 0;
  std::uint64_t ooo_dropped_ = 0;
  std::uint64_t overflow_bytes_ = 0;
};

/// Stream-scanning IDS. StreamIDS(PATTERNS "a;b", REGEX "re1;re2",
/// MODE alert|drop, TAIL 256, FM name).
/// Scans the reassembled byte stream of each flow (via an upstream
/// TcpReassembler found automatically or named with REASSEMBLER) for
/// substring and std::regex patterns that may cross packet boundaries:
/// the last TAIL bytes of the previous chunk are kept per flow and
/// prepended to the scan window, and only matches ending in fresh bytes
/// count, so alert totals do not depend on how the stream was packetized
/// (for matches up to TAIL+1 bytes long). Non-TCP packets (or flows with
/// no reassembler) fall back to per-packet payload scanning. MODE drop
/// cuts the connection: every packet of a flow after its first alert
/// goes to output 1 if connected, else is dropped.
class StreamIDS : public SimpleElement {
 public:
  StreamIDS();
  std::string_view class_name() const override { return "StreamIDS"; }
  Status configure(const ConfigArgs& args) override;
  Status initialize(Router& router) override;

  std::uint64_t alerts() const { return alerts_; }

 protected:
  Verdict process(Packet& p) override;

 private:
  // Per-flow scratch: { uint16 tail_len; uint8 alerted; uint8 tail[TAIL] }.
  struct IdsSlotHeader {
    std::uint16_t tail_len = 0;
    std::uint8_t alerted = 0;
  };

  std::size_t scan(const std::uint8_t* tail, std::size_t tail_len, const std::uint8_t* fresh,
                   std::size_t fresh_len);

  std::string fm_name_;
  std::string reassembler_name_;
  FlowManager* fm_ = nullptr;
  TcpReassembler* reasm_ = nullptr;
  std::size_t slot_off_ = 0;
  std::size_t tail_cap_ = 256;
  bool drop_mode_ = false;
  std::vector<std::string> patterns_;
  std::vector<std::pair<std::string, std::regex>> regexes_;
  std::vector<std::uint64_t> pattern_hits_;
  std::vector<std::uint64_t> regex_hits_;
  std::uint64_t alerts_ = 0;
  std::uint64_t scanned_bytes_ = 0;
  std::uint64_t cut_packets_ = 0;
  std::vector<std::uint8_t> window_;  // scratch buffer reused per scan
};

class ElementRegistry;

/// Registers FlowManager and the stateful VNF elements above.
void register_flow_elements(ElementRegistry& registry);

}  // namespace escape::click
