// Heap-allocation gate for the packet path. A counting global operator
// new shows that, once warm, the event engine schedules and fires events,
// a link carries a host-to-host flow, an OpenFlow switch parses, looks
// up and forwards a flow, and a switch buffers and traces packet-ins
// without allocating. The counts are exact and machine-independent, so
// CI holds them without timing anything.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "net/builder.hpp"
#include "net/packet_pool.hpp"
#include "netemu/network.hpp"
#include "netemu/switch_node.hpp"
#include "util/event.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

// GCC sees operator new return malloc'd memory that operator delete
// then frees and flags the pair as mismatched; the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace escape {
namespace {

/// Counts the allocations made while it is alive. Assertions stay
/// outside the window: a failing gtest assertion allocates.
class AllocationWindow {
 public:
  AllocationWindow() {
    g_allocations.store(0);
    g_counting.store(true);
  }
  ~AllocationWindow() { g_counting.store(false); }
  std::uint64_t count() const { return g_allocations.load(); }
};

std::unique_ptr<int> g_sink;  // a global owner, so the allocation below cannot be elided

TEST(Allocations, WindowSeesEveryOperatorNew) {
  // Guards the gates below against passing vacuously, e.g. under a
  // sanitizer runtime that kept its own operator new.
  std::uint64_t allocations = 0;
  {
    AllocationWindow window;
    g_sink = std::make_unique<int>(42);
    allocations = window.count();
  }
  EXPECT_EQ(allocations, 1u);
  EXPECT_EQ(*g_sink, 42);
}

TEST(Allocations, WarmSchedulerSchedulesAndFiresWithoutAllocating) {
  EventScheduler sched;
  // Far-future events hold the queue at the depth the end-to-end chain
  // set runs at (util.event.pending_p50 = 38).
  const SimTime far = SimTime{1} << 60;
  for (std::size_t i = 0; i < 38; ++i) sched.schedule_at(far + i, [] {});
  std::uint64_t fired = 0;
  auto cycle = [&] {
    sched.schedule(1, [&fired] { ++fired; });
    sched.step();
  };
  for (int i = 0; i < 1000; ++i) cycle();

  std::uint64_t allocations = 0;
  {
    AllocationWindow window;
    for (int i = 0; i < 100'000; ++i) cycle();
    allocations = window.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(fired, 101'000u);
  EXPECT_EQ(sched.pending_events(), 38u);
}

TEST(Allocations, SchedulerReusesADestroyedSchedulersSlots) {
  // Handles outlive their scheduler, so its core is pooled, not freed:
  // the next scheduler takes its slots, chunk list and chunk and only
  // allocates its key heap.
  constexpr std::size_t kSlots = EventScheduler::kChunkSlots;
  std::vector<EventHandle> stale;
  std::vector<EventHandle> fresh;
  stale.reserve(3);
  fresh.reserve(kSlots);
  auto a = std::make_unique<EventScheduler>();
  stale.push_back(a->schedule(1, [] {}));
  a->run();  // fired
  stale.push_back(a->schedule(1, [] {}));
  stale.back().cancel();
  stale.push_back(a->schedule(2, [] {}));  // still pending when a goes

  std::uint64_t allocations = 0;
  std::size_t ran = 0;
  std::size_t stale_pending = 0;
  std::size_t fresh_pending = 0;
  std::size_t b_ran = 0;
  {
    AllocationWindow window;
    a.reset();
    EventScheduler b;
    for (std::size_t i = 0; i < kSlots; ++i) fresh.push_back(b.schedule(1, [&ran] { ++ran; }));
    for (auto& h : stale) {
      stale_pending += h.pending() ? 1 : 0;
      h.cancel();
    }
    for (const auto& h : fresh) fresh_pending += h.pending() ? 1 : 0;
    b_ran = b.run();
    allocations = window.count();
  }
  EXPECT_EQ(allocations, 1u);
  EXPECT_EQ(stale_pending, 0u);
  EXPECT_EQ(fresh_pending, kSlots);
  EXPECT_EQ(b_ran, kSlots);
  EXPECT_EQ(ran, kSlots);
}

TEST(Allocations, WarmLinkCarriesAUdpFlowWithoutAllocating) {
  EventScheduler sched;
  netemu::Network net(sched);
  auto& a = net.add_host("a", net::MacAddr::from_u64(1), net::Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", net::MacAddr::from_u64(2), net::Ipv4Addr(10, 0, 0, 2));
  ASSERT_TRUE(net.add_link("a", 0, "b", 0, netemu::LinkConfig{}).ok());

  // A short flow at the same rate warms the packet pool, the link's
  // frame ring and the scheduler's slots.
  constexpr std::uint64_t kRate = 100'000;
  a.start_udp_flow(b.mac(), b.ip(), 1000, 2000, 100, kRate, 64);
  sched.run();
  ASSERT_EQ(b.rx_packets(), 100u);

  // The flow builds its prototype frame when it sends its first frame,
  // inside start_udp_flow; everything after that is counted.
  a.start_udp_flow(b.mac(), b.ip(), 1000, 2000, 10'000, kRate, 64);
  std::uint64_t allocations = 0;
  {
    AllocationWindow window;
    sched.run();
    allocations = window.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(b.rx_packets(), 10'100u);
  EXPECT_EQ(net.links()[0]->delivered(0), 10'100u);
  EXPECT_EQ(net.links()[0]->dropped(0), 0u);
}

TEST(Allocations, WarmSwitchForwardsWithoutAllocating) {
  EventScheduler sched;
  netemu::Network net(sched);
  auto& a = net.add_host("a", net::MacAddr::from_u64(1), net::Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", net::MacAddr::from_u64(2), net::Ipv4Addr(10, 0, 0, 2));
  openflow::OpenFlowSwitch& sw = net.add_switch("s1", 1).datapath();
  ASSERT_TRUE(net.add_link("a", 0, "s1", 1, netemu::LinkConfig{}).ok());
  ASSERT_TRUE(net.add_link("s1", 2, "b", 0, netemu::LinkConfig{}).ok());
  openflow::FlowTable& table = sw.flow_table();
  auto add_flow = [&](std::uint16_t in_port, std::uint16_t out_port) {
    openflow::FlowMod mod;
    mod.match = openflow::Match().in_port(in_port);
    mod.actions = openflow::output_to(out_port);
    table.apply(mod, sched.now());
  };
  constexpr std::uint64_t kRate = 100'000;
  auto warm_then_count = [&] {
    a.start_udp_flow(b.mac(), b.ip(), 1000, 2000, 100, kRate, 64);
    sched.run();
    a.start_udp_flow(b.mac(), b.ip(), 1000, 2000, 10'000, kRate, 64);
    AllocationWindow window;
    sched.run();
    return window.count();
  };

  // Installed-flow hits: every frame matches in_port 1 -> port 2.
  add_flow(1, 2);
  const std::uint64_t hit_allocations = warm_then_count();
  EXPECT_EQ(hit_allocations, 0u);
  EXPECT_EQ(b.rx_packets(), 10'100u);
  EXPECT_EQ(table.matches(), 10'100u);

  // Misses: only a flow for the other direction is installed and no
  // controller is attached, so each frame misses the table (every lookup
  // probes the tuple spaces) and the fail-standalone fallback floods it
  // to b.
  openflow::FlowMod purge;
  purge.command = openflow::FlowModCommand::kDelete;
  table.apply(purge, sched.now());
  add_flow(2, 1);
  openflow::SwitchLiveness liveness;
  liveness.fail_mode = openflow::FailMode::kStandalone;
  sw.set_liveness(liveness);
  const std::uint64_t miss_allocations = warm_then_count();
  EXPECT_EQ(miss_allocations, 0u);
  EXPECT_EQ(b.rx_packets(), 20'200u);
  EXPECT_EQ(table.matches(), 10'100u);
  EXPECT_EQ(sw.standalone_forwards(), 10'100u);
}

/// Drops every message, returning a packet-in's frame to the pool as
/// the controller does once its apps have run.
struct RecyclingChannel : openflow::ControlChannel {
  std::uint64_t packet_ins = 0;
  void to_controller(openflow::Message message) override {
    if (auto* in = std::get_if<openflow::PacketIn>(&message)) {
      ++packet_ins;
      net::default_packet_pool().recycle(std::move(in->packet));
    }
  }
  bool connected() const override { return true; }
};

TEST(Allocations, WarmSwitchPacketInsWithoutAllocating) {
  EventScheduler sched;
  openflow::OpenFlowSwitch sw(1, sched);
  sw.add_port(1, "eth1", net::MacAddr::from_u64(1), [](net::Packet&&) {});
  auto channel = std::make_shared<RecyclingChannel>();
  sw.connect(channel);
  // The table stays empty: every frame misses and becomes a packet-in,
  // which copies it into a buffer slot and opens a trace span.
  const net::Packet frame =
      net::make_udp_packet(net::MacAddr::from_u64(1), net::MacAddr::from_u64(2),
                           net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2), 1000, 2000);
  net::PacketPool& pool = net::default_packet_pool();
  auto send = [&] { sw.receive(1, pool.acquire_copy(frame)); };

  // Past the 256 buffer slots (every later packet-in evicts) and two
  // wraps of the 4096-event trace ring (two events per packet-in).
  for (int i = 0; i < 10'000; ++i) send();
  std::uint64_t allocations = 0;
  {
    AllocationWindow window;
    for (int i = 0; i < 10'000; ++i) send();
    allocations = window.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(sw.packet_ins_sent(), 20'000u);
  EXPECT_EQ(channel->packet_ins, 20'000u);
}

}  // namespace
}  // namespace escape
