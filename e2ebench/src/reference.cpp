#include "reference.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory_resource>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "probe.hpp"

namespace escape::e2e {

namespace {

constexpr std::size_t kFlows = 4096;
constexpr std::size_t kPending = 64;
constexpr std::uint64_t kEvents = 100'000;
constexpr int kRecords = 30'000;
constexpr std::size_t kLiveRecords = 4096;

using Frame = std::array<std::uint8_t, 64>;

struct FlowState {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint32_t last_hash = 0;
};

struct Event {
  std::uint64_t at = 0;
  std::uint64_t seq = 0;
  std::uint32_t handler = 0;
  std::uint32_t frame = 0;  // slot in the frame pool
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

std::uint32_t fnv1a(const Frame& f) {
  std::uint32_t h = 2166136261u;
  for (std::uint8_t b : f) h = (h ^ b) * 16777619u;
  return h;
}

/// The packet-path part: the event loop.
ReferenceResult packet_part() {
  std::mt19937_64 rng(0x5eedULL);
  std::vector<std::uint64_t> keys(kFlows);
  for (auto& k : keys) k = rng();
  std::unordered_map<std::uint64_t, FlowState> flows;
  flows.reserve(kFlows);
  for (auto k : keys) flows.emplace(k, FlowState{});
  Frame templ{};
  for (std::size_t i = 0; i < templ.size(); ++i) templ[i] = static_cast<std::uint8_t>(rng());

  // Frames live in a pool of the task's own, so the process heap,
  // which the program shares, does not enter the reference's cost.
  std::vector<Frame> pool(2 * kPending, templ);
  std::vector<std::uint32_t> free_slots;
  for (std::uint32_t i = 0; i < pool.size(); ++i) free_slots.push_back(i);
  std::vector<Event> heap;
  heap.reserve(kPending + 1);

  const std::uint64_t t0 = now_ns();
  std::uint64_t now = 0, seq = 0, digest = 0;
  auto schedule = [&](std::uint64_t at, std::uint32_t handler, std::uint32_t frame) {
    heap.push_back(Event{at, seq++, handler, frame});
    std::push_heap(heap.begin(), heap.end(), Later{});
  };
  // Three stages a frame passes, as link, switch and host would.
  const std::array<std::function<std::uint32_t(Frame&)>, 3> stages = {
      [](Frame& f) {
        f[8] = static_cast<std::uint8_t>(f[8] - 1);  // ttl
        return fnv1a(f);
      },
      [&flows, &keys](Frame& f) {
        const std::uint32_t h = fnv1a(f);
        auto& st = flows.find(keys[h % kFlows])->second;
        ++st.packets;
        st.bytes += f.size();
        st.last_hash = h;
        f[h % f.size()] ^= static_cast<std::uint8_t>(st.packets);
        return h;
      },
      [](Frame& f) { return fnv1a(f) ^ f[0]; },
  };
  for (std::size_t i = 0; i < kPending; ++i) {
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    pool[slot][0] = static_cast<std::uint8_t>(i);
    schedule(i, 0, slot);
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), Later{});
    const Event ev = heap.back();
    heap.pop_back();
    now = ev.at;
    const std::uint32_t h = stages[ev.handler](pool[ev.frame]);
    digest = digest * 31 + h;
    if (seq < kEvents) {
      // Every frame is copied into a fresh buffer for the next stage.
      const std::uint32_t next = free_slots.back();
      free_slots.pop_back();
      pool[next] = pool[ev.frame];
      schedule(now + 1 + (h & 63), (ev.handler + 1) % 3, next);
    }
    free_slots.push_back(ev.frame);
  }
  ReferenceResult r;
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  for (const auto& [k, st] : flows) digest ^= st.packets * 0x9e3779b97f4a7c15ULL + st.bytes;
  r.digest = digest;
  return r;
}

/// The control-plane part: flow records formatted as text, parsed back
/// and kept in an ordered map of string keys, as configuration and
/// NETCONF handling do. Its nodes and strings come from a buffer of the
/// task's own, so the process heap does not enter its cost.
ReferenceResult text_part() {
  // Zeroed before the clock starts: first touches of fresh memory cost
  // the VM's host a fault each, which is not the speed this measures.
  std::vector<std::byte> arena(1 << 20);
  std::pmr::monotonic_buffer_resource upstream(arena.data(), arena.size());
  std::pmr::unsynchronized_pool_resource pool(&upstream);
  std::pmr::map<std::pmr::string, std::uint64_t> table(&pool);
  char buf[96];
  std::uint64_t x = 88172645463325252ULL, digest = 0;

  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kRecords; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const int n = std::snprintf(buf, sizeof buf, "%u.%u.%u.%u:%u port %u",
                                static_cast<unsigned>(x & 255), static_cast<unsigned>((x >> 8) & 255),
                                static_cast<unsigned>((x >> 16) & 15), static_cast<unsigned>((x >> 24) & 7),
                                static_cast<unsigned>((x >> 32) & 1023), static_cast<unsigned>((x >> 48) & 63));
    auto [it, fresh] = table.emplace(std::pmr::string(buf, static_cast<std::size_t>(n), &pool), x);
    if (!fresh) {
      digest += it->second;
      table.erase(it);
    }
    digest = digest * 31 + std::strtoul(buf, nullptr, 10);
    if (table.size() > kLiveRecords) table.erase(table.begin());
  }
  ReferenceResult r;
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  r.digest = digest ^ table.size();
  return r;
}

}  // namespace

ReferenceResult run_reference() {
  const ReferenceResult packet = packet_part();
  const ReferenceResult text = text_part();
  ReferenceResult r;
  r.seconds = std::sqrt(packet.seconds * text.seconds);
  r.digest = packet.digest * 0x9e3779b97f4a7c15ULL ^ text.digest;
  return r;
}

}  // namespace escape::e2e
