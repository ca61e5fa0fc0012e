#include "click/flow.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "click/router.hpp"
#include "net/headers.hpp"
#include "util/strings.hpp"

namespace escape::click {

// --- FlowTuple --------------------------------------------------------------

std::uint64_t FlowTuple::hash() const {
  // FNV-1a over the packed tuple, matching the style of net::FlowKey.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(src_ip, 4);
  mix(dst_ip, 4);
  mix(src_port, 2);
  mix(dst_port, 2);
  mix(proto, 1);
  return h == 0 ? 1 : h;
}

std::string FlowTuple::to_string() const {
  std::ostringstream os;
  os << net::Ipv4Addr(src_ip).to_string() << ":" << src_port << "->"
     << net::Ipv4Addr(dst_ip).to_string() << ":" << dst_port << "/" << int{proto};
  return os.str();
}

std::optional<FlowTuple> FlowTuple::from_packet(const Packet& p) {
  // Ethernet and IPv4 must parse; an L4 header that fails its checks
  // leaves the ports zero.
  const std::span<const std::uint8_t> frame = p.bytes();
  if (frame.size() < net::EthernetView::kSize ||
      net::load_be16(frame.data() + 12) != net::ethertype::kIpv4) {
    return std::nullopt;
  }
  const auto ip = net::Ipv4FlowView::parse(frame.subspan(net::EthernetView::kSize));
  if (!ip) return std::nullopt;
  FlowTuple t;
  t.src_ip = ip->src.value();
  t.dst_ip = ip->dst.value();
  t.proto = ip->protocol;
  t.src_port = ip->tp_src;
  // ICMP's second port is its identifier, so echo streams form flows.
  t.dst_port = ip->protocol == net::ipproto::kIcmp ? ip->icmp_identifier : ip->tp_dst;
  return t;
}

// --- FlowStateTable ---------------------------------------------------------

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

FlowStateTable::FlowStateTable(std::size_t initial_buckets, std::size_t max_flows)
    : max_flows_(std::max<std::size_t>(max_flows, 1)) {
  slots_.resize(round_up_pow2(std::max<std::size_t>(initial_buckets, 8)));
  mask_ = slots_.size() - 1;
}

std::size_t FlowStateTable::reserve_scratch(std::size_t bytes, std::size_t align) {
  assert(!layout_frozen_ && "scratch must be reserved before the first flow is created");
  if (scratch_end_ == 0) {
    // Block layout: header first, scratch areas after it.
    scratch_end_ = sizeof(FlowBlockHeader);
  }
  scratch_end_ = (scratch_end_ + align - 1) & ~(align - 1);
  std::size_t off = scratch_end_;
  scratch_end_ += bytes;
  return off;
}

std::size_t FlowStateTable::find_index(const FlowTuple& t, std::uint64_t h) const {
  std::size_t i = static_cast<std::size_t>(h) & mask_;
  std::size_t probes = 0;
  while (true) {
    const Slot& s = slots_[i];
    if (s.hash == 0) return slots_.size();  // empty slot: not present
    // Robin-hood invariant: if our probe distance exceeds the resident
    // entry's, the key cannot be further along.
    std::size_t resident_dib = (i - (static_cast<std::size_t>(s.hash) & mask_)) & mask_;
    if (probes > resident_dib) return slots_.size();
    if (s.hash == h) {
      const auto* hdr = reinterpret_cast<const FlowBlockHeader*>(s.block.get());
      if (hdr->tuple == t) return i;
    }
    i = (i + 1) & mask_;
    ++probes;
  }
}

std::uint8_t* FlowStateTable::find(const FlowTuple& t) {
  std::size_t i = find_index(t, t.hash());
  return i == slots_.size() ? nullptr : slots_[i].block.get();
}

void FlowStateTable::insert_slot(std::uint64_t h, std::unique_ptr<std::uint8_t[]> block) {
  std::size_t i = static_cast<std::size_t>(h) & mask_;
  std::size_t dib = 0;
  std::uint64_t cur_hash = h;
  std::unique_ptr<std::uint8_t[]> cur_block = std::move(block);
  while (true) {
    Slot& s = slots_[i];
    if (s.hash == 0) {
      s.hash = cur_hash;
      s.block = std::move(cur_block);
      max_probe_ = std::max(max_probe_, dib);
      return;
    }
    std::size_t resident_dib = (i - (static_cast<std::size_t>(s.hash) & mask_)) & mask_;
    if (resident_dib < dib) {
      // Steal from the rich: swap and keep inserting the displaced entry.
      std::swap(s.hash, cur_hash);
      std::swap(s.block, cur_block);
      max_probe_ = std::max(max_probe_, dib);
      dib = resident_dib;
    }
    i = (i + 1) & mask_;
    ++dib;
  }
}

void FlowStateTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  slots_.resize(old.size() * 2);
  mask_ = slots_.size() - 1;
  for (Slot& s : old) {
    if (s.hash != 0) insert_slot(s.hash, std::move(s.block));
  }
}

FlowStateTable::Lookup FlowStateTable::find_or_create(const FlowTuple& t, SimTime now) {
  std::uint64_t h = t.hash();
  std::size_t i = find_index(t, h);
  if (i != slots_.size()) return {slots_[i].block.get(), false};
  if (size_ >= max_flows_) return {nullptr, false};
  if (!layout_frozen_) {
    if (scratch_end_ == 0) scratch_end_ = sizeof(FlowBlockHeader);
    block_size_ = scratch_end_;
    layout_frozen_ = true;
  }
  // Grow before the table gets dense enough to make robin-hood probes
  // long (7/8 load factor).
  if ((size_ + 1) * 8 > slots_.size() * 7) grow();
  auto block = std::make_unique<std::uint8_t[]>(block_size_);
  std::memset(block.get(), 0, block_size_);
  auto* hdr = new (block.get()) FlowBlockHeader();
  hdr->tuple = t;
  hdr->created = now;
  hdr->last_seen = now;
  std::uint8_t* raw = block.get();
  insert_slot(h, std::move(block));
  ++size_;
  ++created_;
  return {raw, true};
}

void FlowStateTable::erase_index(std::size_t index) {
  // Backward-shift deletion: pull successors with non-zero DIB back one
  // slot until an empty slot or a DIB-0 entry.
  std::size_t i = index;
  while (true) {
    std::size_t next = (i + 1) & mask_;
    Slot& n = slots_[next];
    if (n.hash == 0) break;
    std::size_t next_dib = (next - (static_cast<std::size_t>(n.hash) & mask_)) & mask_;
    if (next_dib == 0) break;
    slots_[i].hash = n.hash;
    slots_[i].block = std::move(n.block);
    n.hash = 0;
    i = next;
  }
  slots_[i].hash = 0;
  slots_[i].block.reset();
  --size_;
}

void FlowStateTable::evict_index(std::size_t index, bool idle) {
  Slot& s = slots_[index];
  auto* hdr = reinterpret_cast<FlowBlockHeader*>(s.block.get());
  for (auto& fn : listeners_) fn(*hdr, s.block.get());
  hdr->~FlowBlockHeader();
  erase_index(index);
  if (idle) {
    ++evicted_idle_;
  } else {
    ++evicted_explicit_;
  }
}

bool FlowStateTable::erase(const FlowTuple& t) {
  std::size_t i = find_index(t, t.hash());
  if (i == slots_.size()) return false;
  evict_index(i, /*idle=*/false);
  return true;
}

std::size_t FlowStateTable::sweep(SimTime now, SimDuration idle_timeout) {
  std::size_t evicted = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].hash == 0) continue;
    auto* hdr = reinterpret_cast<FlowBlockHeader*>(slots_[i].block.get());
    if (now >= hdr->last_seen && now - hdr->last_seen >= idle_timeout) {
      evict_index(i, /*idle=*/true);
      ++evicted;
      // Backward-shift may have pulled a successor into slot i.
      --i;
    }
  }
  return evicted;
}

void FlowStateTable::clear() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].hash == 0) continue;
    evict_index(i, /*idle=*/false);
    --i;
  }
}

std::size_t FlowStateTable::memory_bytes() const {
  return slots_.size() * sizeof(Slot) + size_ * block_size_;
}

void FlowStateTable::for_each(
    const std::function<void(const FlowBlockHeader&, const std::uint8_t*)>& fn) const {
  for (const Slot& s : slots_) {
    if (s.hash == 0) continue;
    fn(*reinterpret_cast<const FlowBlockHeader*>(s.block.get()), s.block.get());
  }
}

// --- flow context -----------------------------------------------------------

namespace {
thread_local FlowCtx* g_current_flow = nullptr;
}

FlowCtx* current_flow() { return g_current_flow; }

FlowScope::FlowScope(FlowCtx* ctx) : prev_(g_current_flow) { g_current_flow = ctx; }
FlowScope::~FlowScope() { g_current_flow = prev_; }

// --- FlowManager ------------------------------------------------------------

namespace {
std::size_t g_default_capacity = 1 << 20;
SimDuration g_default_idle_timeout = 30000 * timeunit::kMillisecond;

/// Parses a config value that may be absent or the literal "default".
template <typename T>
T value_or_default(const std::optional<std::string>& raw, T fallback,
                   bool* parse_error = nullptr) {
  if (!raw || *raw == "default") return fallback;
  try {
    return static_cast<T>(std::stoull(*raw));
  } catch (...) {
    if (parse_error) *parse_error = true;
    return fallback;
  }
}

// Byte-buffer encoding for the flow-state handoff format: hex digits,
// or "-" for an empty buffer (every field must be a non-empty token).
std::string to_hex(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return "-";
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(len * 2);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(digits[data[i] >> 4]);
    out.push_back(digits[data[i] & 0xf]);
  }
  return out;
}

bool from_hex(const std::string& s, std::vector<std::uint8_t>& out) {
  out.clear();
  if (s == "-") return true;
  if (s.size() % 2 != 0) return false;
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    int hi = nib(s[i]), lo = nib(s[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return true;
}
}  // namespace

void FlowManager::set_default_capacity(std::size_t flows) {
  g_default_capacity = std::max<std::size_t>(flows, 1);
}
void FlowManager::set_default_idle_timeout(SimDuration timeout) {
  g_default_idle_timeout = timeout;
}

FlowManager::FlowManager() : idle_timeout_(g_default_idle_timeout) {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("flows", [this] { return std::to_string(table_.size()); });
  add_read_handler("capacity", [this] { return std::to_string(table_.max_flows()); });
  add_read_handler("lookups", [this] { return std::to_string(lookups_); });
  add_read_handler("hits", [this] { return std::to_string(hits_); });
  add_read_handler("misses", [this] { return std::to_string(misses_); });
  add_read_handler("hit_rate", [this] {
    return lookups_ == 0 ? "0" : std::to_string(static_cast<double>(hits_) /
                                                static_cast<double>(lookups_));
  });
  add_read_handler("evicted_idle", [this] { return std::to_string(table_.evicted_idle()); });
  add_read_handler("evicted_total", [this] { return std::to_string(table_.evicted_total()); });
  add_read_handler("created_total", [this] { return std::to_string(table_.created_total()); });
  add_read_handler("full_drops", [this] { return std::to_string(full_drops_); });
  add_read_handler("non_ip", [this] { return std::to_string(non_ip_); });
  add_read_handler("memory_bytes", [this] { return std::to_string(table_.memory_bytes()); });
  add_read_handler("max_probe", [this] { return std::to_string(table_.max_probe()); });
  add_read_handler("hold", [this] { return std::to_string(holding_ ? 1 : 0); });
  add_read_handler("held", [this] { return std::to_string(held_.size()); });
  add_read_handler("hold_drops", [this] { return std::to_string(hold_drops_); });
  add_write_handler("clear", [this](std::string_view) {
    table_.clear();
    return ok_status();
  });
  add_write_handler("hold", [this](std::string_view v) -> Status {
    if (v == "1" || v == "true") {
      set_hold(true);
    } else if (v == "0" || v == "false") {
      set_hold(false);
    } else {
      return make_error("click.flowmanager.hold", "hold takes 0/1");
    }
    return ok_status();
  });
}

Status FlowManager::configure(const ConfigArgs& args) {
  bool bad = false;
  std::size_t capacity =
      value_or_default<std::size_t>(args.keyword("CAPACITY"), g_default_capacity, &bad);
  std::size_t buckets = value_or_default<std::size_t>(args.keyword("BUCKETS"), 1024, &bad);
  std::uint64_t timeout_ms = value_or_default<std::uint64_t>(
      args.keyword("TIMEOUT_MS"), g_default_idle_timeout / timeunit::kMillisecond, &bad);
  std::uint64_t sweep_ms = value_or_default<std::uint64_t>(args.keyword("SWEEP_MS"), 1000, &bad);
  if (bad) return make_error("click.flowmanager.config", "non-numeric argument");
  if (capacity == 0) return make_error("click.flowmanager.config", "CAPACITY must be > 0");
  if (sweep_ms == 0) return make_error("click.flowmanager.config", "SWEEP_MS must be > 0");
  if (auto v = args.keyword("HOLD")) {
    if (*v == "true" || *v == "1") {
      holding_ = true;
    } else if (*v == "false" || *v == "0") {
      holding_ = false;
    } else {
      return make_error("click.flowmanager.config", "HOLD must be true or false");
    }
  }
  table_ = FlowStateTable(buckets, capacity);
  idle_timeout_ = timeout_ms * timeunit::kMillisecond;
  sweep_interval_ = sweep_ms * timeunit::kMillisecond;
  return ok_status();
}

Status FlowManager::initialize(Router& router) {
  sweep_task_ = std::make_unique<Task>(&router, [this]() -> std::optional<SimDuration> {
    run_sweep();
    return sweep_interval_;
  });
  sweep_task_->reschedule(sweep_interval_);
  return ok_status();
}

void FlowManager::run_sweep() {
  if (idle_timeout_ == 0) return;
  table_.sweep(router()->scheduler().now(), idle_timeout_);
}

std::uint8_t* FlowManager::lookup_block(const Packet& p) {
  auto tuple = FlowTuple::from_packet(p);
  if (!tuple) return nullptr;
  auto res = table_.find_or_create(*tuple, router()->scheduler().now());
  return res.block;
}

Result<FlowManager*> FlowManager::resolve(Router& router, const std::string& named) {
  if (!named.empty()) {
    Element* e = router.element(named);
    if (e == nullptr || std::string_view(e->class_name()) != "FlowManager") {
      return Error{"click.flow.no-manager", "no FlowManager element named '" + named + "'"};
    }
    return static_cast<FlowManager*>(e);
  }
  FlowManager* found = nullptr;
  for (Element* e : router.elements_in_order()) {
    if (std::string_view(e->class_name()) != "FlowManager") continue;
    if (found != nullptr) {
      return Error{"click.flow.ambiguous-manager",
                   "multiple FlowManager elements; name one with the FM keyword"};
    }
    found = static_cast<FlowManager*>(e);
  }
  return found;  // may be nullptr: caller decides whether that is an error
}

void FlowManager::hold_packet(Packet&& p) {
  if (held_.size() >= hold_cap_) {
    ++hold_drops_;
    return;
  }
  held_.push_back(std::move(p));
}

void FlowManager::set_hold(bool hold) {
  holding_ = hold;
  // Releasing flushes FIFO through the normal push path, so the held
  // packets classify against the (just-imported) flow state in arrival
  // order. A re-hold mid-flush stops the drain with the rest still held.
  while (!holding_ && !held_.empty()) {
    Packet p = std::move(held_.front());
    held_.pop_front();
    classify_push(std::move(p));
  }
}

void FlowManager::push(int, Packet&& p) {
  if (holding_) {
    hold_packet(std::move(p));
    return;
  }
  classify_push(std::move(p));
}

void FlowManager::classify_push(Packet&& p) {
  auto tuple = FlowTuple::from_packet(p);
  if (!tuple) {
    // A packet without a flow here goes downstream under a null context
    // (here and on table-full below), never under an enclosing manager's.
    ++non_ip_;
    FlowScope scope(nullptr);
    output_push(0, std::move(p));
    return;
  }
  ++lookups_;
  SimTime now = router()->scheduler().now();
  auto res = table_.find_or_create(*tuple, now);
  if (res.block == nullptr) {
    ++full_drops_;
    FlowScope scope(nullptr);
    if (output_connected(1)) output_push(1, std::move(p));
    return;
  }
  if (res.created) {
    ++misses_;
  } else {
    ++hits_;
  }
  auto* hdr = table_.header_of(res.block);
  hdr->last_seen = now;
  ++hdr->packets;
  hdr->bytes += p.size();
  FlowCtx ctx{this, res.block};
  FlowScope scope(&ctx);
  output_push(0, std::move(p));
}

std::string FlowManager::export_state() const {
  // Handoff wire format (one record per flow, line-based):
  //   flow <src_ip> <dst_ip> <sport> <dport> <proto> <created> <last_seen>
  //        <packets> <bytes>
  //   state <element-name> <codec payload>      (0..n lines per flow)
  // Codec lines follow element initialize order, so exports are stable.
  std::ostringstream os;
  table_.for_each([&](const FlowBlockHeader& hdr, const std::uint8_t* block) {
    os << "flow " << hdr.tuple.src_ip << ' ' << hdr.tuple.dst_ip << ' ' << hdr.tuple.src_port
       << ' ' << hdr.tuple.dst_port << ' ' << unsigned{hdr.tuple.proto} << ' ' << hdr.created
       << ' ' << hdr.last_seen << ' ' << hdr.packets << ' ' << hdr.bytes << '\n';
    for (const FlowCodec& codec : codecs_) {
      std::string line = codec.save(hdr, block);
      if (!line.empty()) os << "state " << codec.name << ' ' << line << '\n';
    }
  });
  return os.str();
}

std::optional<FlowBlockHeader> parse_flow_record(const std::string& line) {
  std::istringstream fields(line);
  std::string kind;
  FlowBlockHeader h;
  unsigned sport = 0, dport = 0, proto = 0;
  fields >> kind >> h.tuple.src_ip >> h.tuple.dst_ip >> sport >> dport >> proto >> h.created >>
      h.last_seen >> h.packets >> h.bytes;
  if (!fields || kind != "flow" || proto > 255 || sport > 65535 || dport > 65535) {
    return std::nullopt;
  }
  h.tuple.src_port = static_cast<std::uint16_t>(sport);
  h.tuple.dst_port = static_cast<std::uint16_t>(dport);
  h.tuple.proto = static_cast<std::uint8_t>(proto);
  return h;
}

Result<std::size_t> FlowManager::import_state(const std::string& text) {
  if (router() == nullptr) {
    return Error{"click.flow.import", "FlowManager not initialized"};
  }
  const SimTime now = router()->scheduler().now();
  std::istringstream lines(text);
  std::string line;
  std::uint8_t* block = nullptr;
  std::size_t imported = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "flow") {
      const std::optional<FlowBlockHeader> saved = parse_flow_record(line);
      if (!saved) {
        return Error{"click.flow.import", "bad flow record '" + line + "'"};
      }
      auto res = table_.find_or_create(saved->tuple, now);
      if (res.block == nullptr) {
        return Error{"click.flow.import-full",
                     "flow table at capacity importing " + saved->tuple.to_string()};
      }
      block = res.block;
      auto* hdr = table_.header_of(block);
      hdr->created = saved->created;
      hdr->last_seen = saved->last_seen;
      hdr->packets = saved->packets;
      hdr->bytes = saved->bytes;
      ++imported;
    } else if (kind == "state") {
      if (block == nullptr) {
        return Error{"click.flow.import", "state line before any flow record"};
      }
      std::string elem;
      fields >> elem;
      std::string payload;
      std::getline(fields, payload);
      if (!payload.empty() && payload.front() == ' ') payload.erase(0, 1);
      const FlowCodec* codec = nullptr;
      for (const FlowCodec& c : codecs_) {
        if (c.name == elem) {
          codec = &c;
          break;
        }
      }
      if (codec == nullptr) {
        return Error{"click.flow.import", "no codec registered for element '" + elem + "'"};
      }
      if (auto s = codec->load(*table_.header_of(block), block, payload); !s.ok()) {
        return s.error();
      }
    } else {
      return Error{"click.flow.import", "unknown record '" + kind + "'"};
    }
  }
  return imported;
}

// --- FlowNAT ----------------------------------------------------------------

FlowNAT::FlowNAT() {
  declare_ports({PortMode::kPush, PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("mappings", [this] { return std::to_string(reverse_.size()); });
  add_read_handler("translated", [this] { return std::to_string(translated_); });
  add_read_handler("dropped", [this] { return std::to_string(dropped_); });
  add_read_handler("exhausted", [this] { return std::to_string(exhausted_); });
  add_read_handler("ports_free", [this] { return std::to_string(free_ports_.size()); });
  // Port-range conservation: free + mappings_native must always equal
  // this. Plain `mappings` can exceed the pool draw: a migration imports
  // mappings whose ports belong to the exporting replica's range, and
  // those never came from (and never return to) this pool.
  add_read_handler("ports_total", [this] { return std::to_string(port_count_); });
  add_read_handler("mappings_native", [this] {
    std::size_t native = 0;
    for (const auto& [key, internal] : reverse_) {
      (void)internal;
      if (owns_port(key.ext_port)) ++native;
    }
    return std::to_string(native);
  });
}

Status FlowNAT::configure(const ConfigArgs& args) {
  if (auto v = args.keyword_or_positional("EXTERNAL_IP", 0)) {
    auto ip = net::Ipv4Addr::parse(*v);
    if (!ip) return make_error("click.flownat.config", "bad EXTERNAL_IP '" + *v + "'");
    external_ip_ = *ip;
  }
  if (auto v = args.keyword_u64("PORT_BASE")) {
    // Checked before the narrowing cast: 70000 would wrap to 4464, and
    // port 0 is no port.
    if (*v == 0 || *v > 65535) {
      return make_error("click.flownat.config", "PORT_BASE must be 1..65535");
    }
    port_base_ = static_cast<std::uint16_t>(*v);
  }
  if (auto v = args.keyword_u64("PORT_COUNT")) port_count_ = *v;
  // Subtracted, not added: base + count can wrap for a huge count.
  if (port_count_ == 0 || port_count_ > 65536 - std::size_t{port_base_}) {
    return make_error("click.flownat.config", "port range out of bounds");
  }
  if (auto v = args.keyword("FM")) fm_name_ = *v;
  return ok_status();
}

Status FlowNAT::initialize(Router& router) {
  auto fm = FlowManager::resolve(router, fm_name_);
  if (!fm.ok()) return fm.error();
  fm_ = fm.value();
  if (fm_ == nullptr) {
    return make_error("click.flownat.no-manager",
                      "FlowNAT requires a FlowManager upstream (add one or set FM)");
  }
  slot_off_ = fm_->reserve_scratch(sizeof(NatSlot), alignof(NatSlot));
  for (std::size_t i = 0; i < port_count_; ++i) {
    free_ports_.push_back(static_cast<std::uint16_t>(port_base_ + i));
  }
  // Flow eviction is what returns ports to the pool: when the manager
  // drops an idle outbound flow, its external port becomes reusable.
  fm_->add_evict_listener([this](const FlowBlockHeader& hdr, std::uint8_t* block) {
    auto* slot = reinterpret_cast<NatSlot*>(block + slot_off_);
    if (slot->state != 1) return;
    reverse_.erase(ReverseKey{hdr.tuple.proto, slot->ext_port});
    // Only native ports rejoin the pool. A migrated-in mapping can carry
    // a port from the exporting replica's range; pooling it here would
    // let two replicas hand out the same external port.
    if (owns_port(slot->ext_port)) free_ports_.push_back(slot->ext_port);
    slot->state = 0;
  });
  // Migration codec: the port mapping must survive a flow handoff or the
  // new instance would re-NAT mid-flow and reset every connection.
  fm_->register_codec(
      {name(),
       [this](const FlowBlockHeader&, const std::uint8_t* block) -> std::string {
         const auto* slot = reinterpret_cast<const NatSlot*>(block + slot_off_);
         if (slot->state == 0) return {};
         return std::to_string(unsigned{slot->state}) + " " + std::to_string(slot->ext_port);
       },
       [this](const FlowBlockHeader& hdr, std::uint8_t* block,
              const std::string& payload) -> Status {
         unsigned state = 0, port = 0;
         std::istringstream fields(payload);
         fields >> state >> port;
         if (!fields || state > 2 || port > 65535) {
           return make_error("click.flownat.import", "bad NAT state '" + payload + "'");
         }
         auto* slot = reinterpret_cast<NatSlot*>(block + slot_off_);
         slot->state = static_cast<std::uint8_t>(state);
         slot->ext_port = static_cast<std::uint16_t>(port);
         if (state == 1) {
           reverse_[ReverseKey{hdr.tuple.proto, slot->ext_port}] =
               Internal{hdr.tuple.src_ip, hdr.tuple.src_port};
           auto it = std::find(free_ports_.begin(), free_ports_.end(), slot->ext_port);
           if (it != free_ports_.end()) free_ports_.erase(it);
         }
         return ok_status();
       }});
  return ok_status();
}

FlowNAT::NatSlot* FlowNAT::outbound_slot(const Packet& p) {
  FlowCtx* ctx = current_flow();
  std::uint8_t* block = (ctx != nullptr && ctx->manager == fm_) ? ctx->block
                                                                : fm_->lookup_block(p);
  if (block == nullptr) return nullptr;
  auto* slot = reinterpret_cast<NatSlot*>(block + slot_off_);
  if (slot->state == 1) return slot;
  if (slot->state == 2) return nullptr;
  if (free_ports_.empty()) {
    slot->state = 2;
    ++exhausted_;
    return nullptr;
  }
  const auto* hdr = reinterpret_cast<const FlowBlockHeader*>(block);
  slot->ext_port = free_ports_.front();
  free_ports_.pop_front();
  slot->state = 1;
  reverse_[ReverseKey{hdr->tuple.proto, slot->ext_port}] =
      Internal{hdr->tuple.src_ip, hdr->tuple.src_port};
  return slot;
}

void FlowNAT::push(int port, Packet&& p) {
  if (port == 0) {
    NatSlot* slot = outbound_slot(p);
    if (slot == nullptr) {
      ++dropped_;
      return;
    }
    net::set_ipv4_src(p, external_ip_);
    net::set_l4_src_port(p, slot->ext_port);
    ++translated_;
    output_push(0, std::move(p));
    return;
  }
  // Reverse direction: translate dst (external ip/port) back to the
  // internal host; unknown mappings drop (nothing to deliver to).
  auto tuple = FlowTuple::from_packet(p);
  if (!tuple || tuple->dst_ip != external_ip_.value()) {
    ++dropped_;
    return;
  }
  auto it = reverse_.find(ReverseKey{tuple->proto, tuple->dst_port});
  if (it == reverse_.end()) {
    ++dropped_;
    return;
  }
  net::set_ipv4_dst(p, net::Ipv4Addr(it->second.ip));
  net::set_l4_dst_port(p, it->second.port);
  ++translated_;
  output_push(1, std::move(p));
}

// --- FlowLB -----------------------------------------------------------------

FlowLB::FlowLB() {
  // Ports are declared in configure() once N is known; declare the
  // minimum here so an unconfigured element is still well-formed.
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("flows_assigned", [this] { return std::to_string(flows_assigned_); });
}

Status FlowLB::configure(const ConfigArgs& args) {
  std::size_t n = 2;
  if (auto v = args.keyword_u64("N")) n = *v;
  else if (auto v2 = args.positional(0)) {
    try {
      n = std::stoull(*v2);
    } catch (...) {
      return make_error("click.flowlb.config", "bad backend count '" + *v2 + "'");
    }
  }
  if (n < 2 || n > 64) return make_error("click.flowlb.config", "N must be in [2, 64]");
  if (auto v = args.keyword("MODE")) {
    if (*v == "rr") {
      round_robin_ = true;
    } else if (*v == "hash") {
      round_robin_ = false;
    } else {
      return make_error("click.flowlb.config", "MODE must be rr or hash");
    }
  }
  if (auto v = args.keyword("FM")) fm_name_ = *v;
  declare_ports({PortMode::kPush}, std::vector<PortMode>(n, PortMode::kPush));
  out_packets_.assign(n, 0);
  out_flows_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    add_read_handler("out" + std::to_string(k) + "_count",
                     [this, k] { return std::to_string(out_packets_[k]); });
    add_read_handler("out" + std::to_string(k) + "_flows",
                     [this, k] { return std::to_string(out_flows_[k]); });
  }
  return ok_status();
}

Status FlowLB::initialize(Router& router) {
  auto fm = FlowManager::resolve(router, fm_name_);
  if (!fm.ok()) return fm.error();
  fm_ = fm.value();
  if (fm_ == nullptr) {
    return make_error("click.flowlb.no-manager",
                      "FlowLB requires a FlowManager upstream (add one or set FM)");
  }
  slot_off_ = fm_->reserve_scratch(sizeof(LbSlot), alignof(LbSlot));
  fm_->add_evict_listener([this](const FlowBlockHeader&, std::uint8_t* block) {
    auto* slot = reinterpret_cast<LbSlot*>(block + slot_off_);
    if (slot->assigned != 0 && slot->backend < out_flows_.size()) {
      --out_flows_[slot->backend];
    }
    slot->assigned = 0;
  });
  // Migration codec: stickiness must survive a handoff so established
  // flows keep hitting the backend that holds their state.
  fm_->register_codec(
      {name(),
       [this](const FlowBlockHeader&, const std::uint8_t* block) -> std::string {
         const auto* slot = reinterpret_cast<const LbSlot*>(block + slot_off_);
         if (slot->assigned == 0) return {};
         return std::to_string(unsigned{slot->backend});
       },
       [this](const FlowBlockHeader&, std::uint8_t* block,
              const std::string& payload) -> Status {
         unsigned backend = out_flows_.size();
         std::istringstream fields(payload);
         fields >> backend;
         if (!fields || backend >= out_flows_.size()) {
           return make_error("click.flowlb.import", "bad backend '" + payload + "'");
         }
         auto* slot = reinterpret_cast<LbSlot*>(block + slot_off_);
         if (slot->assigned == 0) {
           ++flows_assigned_;
           ++out_flows_[backend];
         } else if (slot->backend < out_flows_.size() && slot->backend != backend) {
           --out_flows_[slot->backend];
           ++out_flows_[backend];
         }
         slot->assigned = 1;
         slot->backend = static_cast<std::uint8_t>(backend);
         return ok_status();
       }});
  return ok_status();
}

int FlowLB::backend_for(const Packet& p) {
  FlowCtx* ctx = current_flow();
  std::uint8_t* block = (ctx != nullptr && ctx->manager == fm_) ? ctx->block
                                                                : fm_->lookup_block(p);
  std::size_t n = out_packets_.size();
  if (block == nullptr) {
    // No flow state (non-IP or full table): stateless hash fallback.
    auto tuple = FlowTuple::from_packet(p);
    return static_cast<int>(tuple ? tuple->hash_backend(n) : 0);
  }
  auto* slot = reinterpret_cast<LbSlot*>(block + slot_off_);
  if (slot->assigned == 0) {
    const auto* hdr = reinterpret_cast<const FlowBlockHeader*>(block);
    std::size_t backend = round_robin_ ? rr_next_++ % n : hdr->tuple.hash_backend(n);
    slot->assigned = 1;
    slot->backend = static_cast<std::uint8_t>(backend);
    ++flows_assigned_;
    ++out_flows_[backend];
  }
  return slot->backend;
}

void FlowLB::push(int, Packet&& p) {
  int out = backend_for(p);
  ++out_packets_[static_cast<std::size_t>(out)];
  output_push(out, std::move(p));
}

// --- TcpReassembler ---------------------------------------------------------

TcpReassembler::TcpReassembler() {
  add_read_handler("streams", [this] { return std::to_string(active_streams_); });
  add_read_handler("reassembled_bytes",
                   [this] { return std::to_string(reassembled_bytes_); });
  add_read_handler("duplicate_bytes", [this] { return std::to_string(duplicate_bytes_); });
  add_read_handler("ooo_segments", [this] { return std::to_string(ooo_segments_); });
  add_read_handler("ooo_dropped", [this] { return std::to_string(ooo_dropped_); });
  add_read_handler("overflow_bytes", [this] { return std::to_string(overflow_bytes_); });
}

Status TcpReassembler::configure(const ConfigArgs& args) {
  if (auto v = args.keyword_u64("WINDOW")) window_cap_ = *v;
  if (auto v = args.keyword_u64("OOO_CAP")) ooo_cap_ = *v;
  if (window_cap_ == 0) return make_error("click.tcpreassembler.config", "WINDOW must be > 0");
  if (auto v = args.keyword("FM")) fm_name_ = *v;
  return ok_status();
}

Status TcpReassembler::initialize(Router& router) {
  auto fm = FlowManager::resolve(router, fm_name_);
  if (!fm.ok()) return fm.error();
  fm_ = fm.value();
  if (fm_ == nullptr) {
    return make_error("click.tcpreassembler.no-manager",
                      "TcpReassembler requires a FlowManager upstream (add one or set FM)");
  }
  // Scratch holds index+1 into states_; the stream buffers themselves
  // stay owned by this element so destruction order is a non-issue.
  slot_off_ = fm_->reserve_scratch(sizeof(std::uint32_t), alignof(std::uint32_t));
  fm_->add_evict_listener([this](const FlowBlockHeader&, std::uint8_t* block) {
    std::uint32_t idx1;
    std::memcpy(&idx1, block + slot_off_, sizeof(idx1));
    if (idx1 != 0) release(idx1);
    idx1 = 0;
    std::memcpy(block + slot_off_, &idx1, sizeof(idx1));
  });
  // Migration codec. The scratch holds an index into this element's
  // states_ vector, so a raw copy would be meaningless on the target
  // instance -- the stream buffers themselves travel instead.
  fm_->register_codec(
      {name(),
       [this](const FlowBlockHeader&, const std::uint8_t* block) -> std::string {
         std::uint32_t idx1;
         std::memcpy(&idx1, block + slot_off_, sizeof(idx1));
         if (idx1 == 0) return {};
         const StreamState& st = *states_[idx1 - 1];
         std::ostringstream os;
         os << unsigned{st.have_isn} << ' ' << st.next_seq << ' ' << st.delivered << ' '
            << to_hex(st.pending.data(), st.pending.size()) << ' ' << st.ooo.size();
         for (const auto& [seq, seg] : st.ooo) {
           os << ' ' << seq << ' ' << to_hex(seg.data(), seg.size());
         }
         return os.str();
       },
       [this](const FlowBlockHeader&, std::uint8_t* block,
              const std::string& payload) -> Status {
         std::istringstream fields(payload);
         unsigned have_isn = 0;
         std::size_t n_ooo = 0;
         std::string pending_hex;
         StreamState* st = state_of(block, /*create=*/true);
         *st = StreamState{};
         fields >> have_isn >> st->next_seq >> st->delivered >> pending_hex >> n_ooo;
         if (!fields || have_isn > 1 || !from_hex(pending_hex, st->pending)) {
           return make_error("click.tcpreassembler.import", "bad stream state");
         }
         st->have_isn = have_isn != 0;
         for (std::size_t i = 0; i < n_ooo; ++i) {
           std::uint32_t seq = 0;
           std::string seg_hex;
           fields >> seq >> seg_hex;
           std::vector<std::uint8_t> seg;
           if (!fields || !from_hex(seg_hex, seg)) {
             return make_error("click.tcpreassembler.import", "bad ooo segment");
           }
           st->ooo_bytes += seg.size();
           st->ooo.emplace(seq, std::move(seg));
         }
         return ok_status();
       }});
  return ok_status();
}

TcpReassembler::StreamState* TcpReassembler::state_of(std::uint8_t* block, bool create) {
  std::uint32_t idx1;
  std::memcpy(&idx1, block + slot_off_, sizeof(idx1));
  if (idx1 != 0) return states_[idx1 - 1].get();
  if (!create) return nullptr;
  std::uint32_t idx;
  if (!free_states_.empty()) {
    idx = free_states_.back();
    free_states_.pop_back();
    *states_[idx] = StreamState{};
  } else {
    idx = static_cast<std::uint32_t>(states_.size());
    states_.push_back(std::make_unique<StreamState>());
  }
  ++active_streams_;
  idx1 = idx + 1;
  std::memcpy(block + slot_off_, &idx1, sizeof(idx1));
  return states_[idx].get();
}

void TcpReassembler::release(std::uint32_t idx_plus1) {
  std::uint32_t idx = idx_plus1 - 1;
  *states_[idx] = StreamState{};
  free_states_.push_back(idx);
  --active_streams_;
}

void TcpReassembler::deliver(StreamState& st, const std::uint8_t* data, std::size_t len) {
  std::size_t room = window_cap_ > st.pending.size() ? window_cap_ - st.pending.size() : 0;
  std::size_t take = std::min(len, room);
  st.pending.insert(st.pending.end(), data, data + take);
  overflow_bytes_ += len - take;
  reassembled_bytes_ += take;
  // Sequence space advances by what the peer sent, even if our window
  // dropped the tail: reassembly tracks the stream, not our buffer.
}

void TcpReassembler::drain_ooo(StreamState& st) {
  while (!st.ooo.empty()) {
    auto it = st.ooo.begin();
    std::int32_t delta = static_cast<std::int32_t>(it->first - st.next_seq);
    if (delta > 0) break;  // still a gap
    std::vector<std::uint8_t> seg = std::move(it->second);
    st.ooo_bytes -= seg.size();
    st.ooo.erase(it);
    if (delta + static_cast<std::int64_t>(seg.size()) <= 0) {
      duplicate_bytes_ += seg.size();
      continue;  // entirely behind next_seq (retransmit)
    }
    std::size_t skip = static_cast<std::size_t>(-delta);
    duplicate_bytes_ += skip;
    deliver(st, seg.data() + skip, seg.size() - skip);
    st.next_seq += static_cast<std::uint32_t>(seg.size() - skip);
  }
}

SimpleElement::Verdict TcpReassembler::process(Packet& p) {
  FlowCtx* ctx = current_flow();
  if (ctx == nullptr || ctx->manager != fm_) return {true, 0};
  auto eth = net::EthernetView::parse(p.bytes());
  if (!eth || eth->ethertype != net::ethertype::kIpv4) return {true, 0};
  auto ip = net::Ipv4View::parse(eth->payload);
  if (!ip || ip->protocol != net::ipproto::kTcp) return {true, 0};
  auto tcp = net::TcpView::parse(ip->payload);
  if (!tcp) return {true, 0};

  StreamState* st = state_of(ctx->block, /*create=*/true);
  if (tcp->syn()) {
    *st = StreamState{};
    st->have_isn = true;
    st->next_seq = tcp->seq + 1;  // SYN occupies one sequence number
    return {true, 0};
  }
  if (tcp->rst()) return {true, 0};
  if (!st->have_isn) {
    // Mid-stream adoption: treat this segment's seq as the resync point.
    st->have_isn = true;
    st->next_seq = tcp->seq;
  }
  const auto& payload = tcp->payload;
  if (!payload.empty()) {
    std::int32_t delta = static_cast<std::int32_t>(tcp->seq - st->next_seq);
    if (delta == 0) {
      deliver(*st, payload.data(), payload.size());
      st->next_seq += static_cast<std::uint32_t>(payload.size());
      drain_ooo(*st);
    } else if (delta < 0) {
      // Overlap/retransmit: deliver only the fresh tail, if any.
      std::size_t skip = static_cast<std::size_t>(-delta);
      if (skip < payload.size()) {
        duplicate_bytes_ += skip;
        deliver(*st, payload.data() + skip, payload.size() - skip);
        st->next_seq += static_cast<std::uint32_t>(payload.size() - skip);
        drain_ooo(*st);
      } else {
        duplicate_bytes_ += payload.size();
      }
    } else {
      // Future segment: buffer until the gap closes (bounded).
      ++ooo_segments_;
      if (st->ooo_bytes + payload.size() <= ooo_cap_ && st->ooo.count(tcp->seq) == 0) {
        st->ooo.emplace(tcp->seq, std::vector<std::uint8_t>(payload.begin(), payload.end()));
        st->ooo_bytes += payload.size();
      } else {
        ++ooo_dropped_;
      }
    }
  }
  if (tcp->fin()) ++st->next_seq;
  return {true, 0};
}

TcpReassembler::Pending TcpReassembler::pending_of(std::uint8_t* block) {
  StreamState* st = state_of(block, /*create=*/false);
  if (st == nullptr || st->pending.empty()) return {};
  return {st->pending.data(), st->pending.size(), st->delivered};
}

void TcpReassembler::consume(std::uint8_t* block) {
  StreamState* st = state_of(block, /*create=*/false);
  if (st == nullptr) return;
  st->delivered += st->pending.size();
  st->pending.clear();
}

// --- StreamIDS --------------------------------------------------------------

StreamIDS::StreamIDS() {
  declare_ports({PortMode::kAgnostic}, {PortMode::kAgnostic, PortMode::kAgnostic});
  add_read_handler("alerts", [this] { return std::to_string(alerts_); });
  add_read_handler("scanned_bytes", [this] { return std::to_string(scanned_bytes_); });
  add_read_handler("cut_packets", [this] { return std::to_string(cut_packets_); });
}

Status StreamIDS::configure(const ConfigArgs& args) {
  auto split = [](std::string_view raw) {
    raw = strings::trim(raw);
    // Pattern lists may be quoted as one string; strip the quotes.
    if (raw.size() >= 2 && raw.front() == '"' && raw.back() == '"') {
      raw = raw.substr(1, raw.size() - 2);
    }
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= raw.size()) {
      std::size_t sep = raw.find(';', start);
      if (sep == std::string_view::npos) sep = raw.size();
      if (sep > start) out.push_back(std::string(raw.substr(start, sep - start)));
      start = sep + 1;
    }
    return out;
  };
  if (auto v = args.keyword_or_positional("PATTERNS", 0)) patterns_ = split(*v);
  if (auto v = args.keyword("REGEX")) {
    for (const std::string& expr : split(*v)) {
      try {
        regexes_.emplace_back(expr, std::regex(expr, std::regex::optimize));
      } catch (const std::regex_error& e) {
        return make_error("click.streamids.config",
                          "bad REGEX '" + expr + "': " + e.what());
      }
    }
  }
  if (patterns_.empty() && regexes_.empty()) {
    return make_error("click.streamids.config", "need PATTERNS and/or REGEX");
  }
  if (auto v = args.keyword("MODE")) {
    if (*v == "drop") {
      drop_mode_ = true;
    } else if (*v == "alert") {
      drop_mode_ = false;
    } else {
      return make_error("click.streamids.config", "MODE must be alert or drop");
    }
  }
  if (auto v = args.keyword_u64("TAIL")) tail_cap_ = *v;
  std::size_t longest = 1;
  for (const auto& p : patterns_) longest = std::max(longest, p.size());
  // The kept tail must cover the longest literal pattern minus one byte
  // or a straddling match could be missed.
  tail_cap_ = std::max(tail_cap_, longest > 0 ? longest - 1 : 0);
  if (auto v = args.keyword("FM")) fm_name_ = *v;
  if (auto v = args.keyword("REASSEMBLER")) reassembler_name_ = *v;
  pattern_hits_.assign(patterns_.size(), 0);
  regex_hits_.assign(regexes_.size(), 0);
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    add_read_handler("pattern" + std::to_string(i) + "_hits",
                     [this, i] { return std::to_string(pattern_hits_[i]); });
  }
  return ok_status();
}

Status StreamIDS::initialize(Router& router) {
  auto fm = FlowManager::resolve(router, fm_name_);
  if (!fm.ok()) return fm.error();
  fm_ = fm.value();
  if (!reassembler_name_.empty()) {
    Element* e = router.element(reassembler_name_);
    if (e == nullptr || std::string_view(e->class_name()) != "TcpReassembler") {
      return make_error("click.streamids.config",
                        "no TcpReassembler named '" + reassembler_name_ + "'");
    }
    reasm_ = static_cast<TcpReassembler*>(e);
  } else {
    // Walk upstream of input 0 looking for a reassembler feeding us.
    for (Element* e = input_peer(0); e != nullptr; e = e->input_peer(0)) {
      if (std::string_view(e->class_name()) == "TcpReassembler") {
        reasm_ = static_cast<TcpReassembler*>(e);
        break;
      }
      if (e->n_inputs() == 0) break;
    }
  }
  if (reasm_ != nullptr && fm_ == nullptr) fm_ = reasm_->flow_manager();
  if (fm_ != nullptr) {
    slot_off_ = fm_->reserve_scratch(sizeof(IdsSlotHeader) + tail_cap_, alignof(IdsSlotHeader));
    // Migration codec: the kept tail and the alerted flag must travel or
    // a handoff would lose cross-packet matches straddling the cutover
    // (and un-cut a flow that MODE drop already flagged).
    fm_->register_codec(
        {name(),
         [this](const FlowBlockHeader&, const std::uint8_t* block) -> std::string {
           const auto* slot = reinterpret_cast<const IdsSlotHeader*>(block + slot_off_);
           if (slot->tail_len == 0 && slot->alerted == 0) return {};
           const std::uint8_t* tail = block + slot_off_ + sizeof(IdsSlotHeader);
           return std::to_string(unsigned{slot->alerted}) + " " + to_hex(tail, slot->tail_len);
         },
         [this](const FlowBlockHeader&, std::uint8_t* block,
                const std::string& payload) -> Status {
           unsigned alerted = 0;
           std::string tail_hex;
           std::istringstream fields(payload);
           fields >> alerted >> tail_hex;
           std::vector<std::uint8_t> tail;
           if (!fields || alerted > 1 || !from_hex(tail_hex, tail) || tail.size() > tail_cap_) {
             return make_error("click.streamids.import", "bad IDS state '" + payload + "'");
           }
           auto* slot = reinterpret_cast<IdsSlotHeader*>(block + slot_off_);
           slot->alerted = static_cast<std::uint8_t>(alerted);
           slot->tail_len = static_cast<std::uint16_t>(tail.size());
           if (!tail.empty()) {
             std::memcpy(block + slot_off_ + sizeof(IdsSlotHeader), tail.data(), tail.size());
           }
           return ok_status();
         }});
  }
  return ok_status();
}

std::size_t StreamIDS::scan(const std::uint8_t* tail, std::size_t tail_len,
                            const std::uint8_t* fresh, std::size_t fresh_len) {
  window_.clear();
  window_.insert(window_.end(), tail, tail + tail_len);
  window_.insert(window_.end(), fresh, fresh + fresh_len);
  scanned_bytes_ += fresh_len;
  std::size_t found = 0;
  auto* base = window_.data();
  std::size_t wlen = window_.size();
  for (std::size_t pi = 0; pi < patterns_.size(); ++pi) {
    const std::string& pat = patterns_[pi];
    if (pat.empty() || pat.size() > wlen) continue;
    const auto* pb = reinterpret_cast<const std::uint8_t*>(pat.data());
    for (std::size_t pos = 0;;) {
      const auto* hit = std::search(base + pos, base + wlen, pb, pb + pat.size());
      if (hit == base + wlen) break;
      std::size_t end = static_cast<std::size_t>(hit - base) + pat.size();
      // Matches fully inside the kept tail were counted on an earlier
      // chunk; only matches ending in fresh bytes are new.
      if (end > tail_len) {
        ++pattern_hits_[pi];
        ++found;
      }
      pos = static_cast<std::size_t>(hit - base) + 1;
    }
  }
  if (!regexes_.empty()) {
    const char* cbase = reinterpret_cast<const char*>(base);
    for (std::size_t ri = 0; ri < regexes_.size(); ++ri) {
      for (std::cregex_iterator it(cbase, cbase + wlen, regexes_[ri].second), endit;
           it != endit; ++it) {
        std::size_t end = static_cast<std::size_t>(it->position(0)) +
                          static_cast<std::size_t>(it->length(0));
        if (end > tail_len) {
          ++regex_hits_[ri];
          ++found;
        }
      }
    }
  }
  return found;
}

SimpleElement::Verdict StreamIDS::process(Packet& p) {
  FlowCtx* ctx = current_flow();
  // The manager parsed this packet's tuple into the block header, and
  // no rewrite changes the protocol, so the header says whether it is TCP.
  const bool tcp_ctx = ctx != nullptr && fm_ != nullptr && ctx->manager == fm_ &&
                       ctx->header()->tuple.proto == net::ipproto::kTcp;

  if (tcp_ctx && reasm_ != nullptr) {
    auto* slot = reinterpret_cast<IdsSlotHeader*>(ctx->block + slot_off_);
    std::uint8_t* tail = ctx->block + slot_off_ + sizeof(IdsSlotHeader);
    if (slot->alerted != 0 && drop_mode_) {
      ++cut_packets_;
      return {output_connected(1), 1};
    }
    TcpReassembler::Pending pending = reasm_->pending_of(ctx->block);
    if (pending.len > 0) {
      std::size_t hits = scan(tail, slot->tail_len, pending.data, pending.len);
      if (hits > 0) {
        alerts_ += hits;
        slot->alerted = 1;
      }
      // Keep the last tail_cap_ bytes of the stream for straddle checks.
      std::size_t keep = std::min(pending.len, tail_cap_);
      if (keep == tail_cap_ || pending.len >= tail_cap_) {
        std::memcpy(tail, pending.data + pending.len - keep, keep);
        slot->tail_len = static_cast<std::uint16_t>(keep);
      } else {
        std::size_t total = slot->tail_len + pending.len;
        if (total > tail_cap_) {
          std::size_t drop = total - tail_cap_;
          std::memmove(tail, tail + drop, slot->tail_len - drop);
          slot->tail_len = static_cast<std::uint16_t>(slot->tail_len - drop);
        }
        std::memcpy(tail + slot->tail_len, pending.data, pending.len);
        slot->tail_len = static_cast<std::uint16_t>(slot->tail_len + pending.len);
      }
      reasm_->consume(ctx->block);
      if (slot->alerted != 0 && drop_mode_) {
        ++cut_packets_;
        return {output_connected(1), 1};
      }
    }
    return {true, 0};
  }

  // Fallback: per-packet payload scan (no reassembly, no cross-packet
  // matches). Covers UDP payloads and routers without a FlowManager.
  auto eth = net::EthernetView::parse(p.bytes());
  if (!eth || eth->ethertype != net::ethertype::kIpv4) return {true, 0};
  auto ip = net::Ipv4View::parse(eth->payload);
  if (!ip) return {true, 0};
  std::span<const std::uint8_t> payload;
  if (ip->protocol == net::ipproto::kTcp) {
    if (auto tcp = net::TcpView::parse(ip->payload)) payload = tcp->payload;
  } else if (ip->protocol == net::ipproto::kUdp) {
    if (auto udp = net::UdpView::parse(ip->payload)) payload = udp->payload;
  }
  if (payload.empty()) return {true, 0};
  std::size_t hits = scan(nullptr, 0, payload.data(), payload.size());
  if (hits > 0) {
    alerts_ += hits;
    if (drop_mode_) {
      ++cut_packets_;
      return {output_connected(1), 1};
    }
  }
  return {true, 0};
}

}  // namespace escape::click
