#include "probe.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

// --- counting allocator -------------------------------------------------------
// Replaces the global operator new/delete of the benchmark binary. Each
// thread bumps its own slot; the totals are only read by a traced run,
// and an untraced run pays one relaxed load per allocation.

namespace {

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> bytes{0};
};

constexpr std::size_t kAllocSlots = 64;
AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<std::size_t> g_next_alloc_slot{0};
std::atomic<bool> g_alloc_counting{false};
thread_local AllocSlot* t_alloc_slot = nullptr;

void count_alloc(std::size_t n) {
  if (!g_alloc_counting.load(std::memory_order_relaxed)) return;
  if (t_alloc_slot == nullptr) {
    // More threads than slots share slots; the atomics keep that exact.
    t_alloc_slot =
        &g_alloc_slots[g_next_alloc_slot.fetch_add(1, std::memory_order_relaxed) % kAllocSlots];
  }
  t_alloc_slot->calls.fetch_add(1, std::memory_order_relaxed);
  t_alloc_slot->bytes.fetch_add(n, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  count_alloc(n);
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

// GCC inlines these into callers that also inline the matching new and
// then flags malloc/free as mismatched; the pairing is correct.
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
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace escape::e2e {

void set_alloc_counting(bool on) { g_alloc_counting.store(on, std::memory_order_relaxed); }
bool alloc_counting() { return g_alloc_counting.load(std::memory_order_relaxed); }

AllocCounts alloc_counts() {
  AllocCounts total;
  for (const auto& slot : g_alloc_slots) {
    total.calls += slot.calls.load(std::memory_order_relaxed);
    total.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

// --- spans ----------------------------------------------------------------------

int SpanRecorder::begin(std::string name, std::int64_t lifecycle) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.lifecycle = lifecycle >= 0 || s.parent < 0 ? lifecycle : spans_[s.parent].lifecycle;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close innermost-first (ScopedSpan); tolerate a skipped level.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

json::Value SpanRecorder::to_json() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  json::Array out;
  out.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    json::Object o;
    o["id"] = static_cast<std::int64_t>(i);
    o["name"] = s.name;
    o["parent"] = static_cast<std::int64_t>(s.parent);
    o["lifecycle"] = s.lifecycle;
    o["start_ns"] = s.start_ns - origin;
    o["dur_ns"] = dur;
    o["self_ns"] = dur - std::min(dur, child_ns[i]);
    out.push_back(std::move(o));
  }
  return json::Value(std::move(out));
}

Status SpanRecorder::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return make_error("spans.io", "cannot write " + path);
  f << to_json().dump() << "\n";
  if (!f) return make_error("spans.io", "short write to " + path);
  return ok_status();
}

// --- process --------------------------------------------------------------------

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

}  // namespace

json::Value fingerprint() {
  json::Object o;
  o["nproc"] = static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  o["cpu_model"] = cpu_model();
#if defined(__clang__)
  o["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  o["compiler"] = std::string("g++ ") + __VERSION__;
#else
  o["compiler"] = "unknown";
#endif
  o["build_type"] = E2E_BUILD_TYPE;
  o["cxx_flags"] = E2E_CXX_FLAGS;
#ifdef __OPTIMIZE__
  o["optimized"] = true;
#else
  o["optimized"] = false;
#endif
  double load[1] = {0};
  o["loadavg_1m"] = getloadavg(load, 1) == 1 ? load[0] : -1.0;
  return json::Value(std::move(o));
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t idx = rank <= 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

}  // namespace escape::e2e
