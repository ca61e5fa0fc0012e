// PacketPool: a bounded free-list of recycled packet buffers. The
// steady-state hot path of the data plane (traffic sources building
// frames, sinks destroying them) allocates each frame's byte vector on
// the heap; at millions of packets per emulated second that is one
// new/delete pair per packet. The pool breaks the cycle: sinks recycle
// the buffer of a dead packet, sources take it back and overwrite the
// bytes, and the vector's capacity is reused without touching the
// allocator.
//
// Sinks (Discard, Host::deliver, the controller once its apps have
// seen a packet-in) recycle each packet as it dies and sources (the
// Click PacketTemplate, host UDP flows) rebuild frames with
// acquire_copy; packets travel one at a time, so buffers do too.
// Recycled packets are handed out with all annotations reset (paint,
// in_port, timestamp, seq, chain_tag), so a reused buffer is
// indistinguishable from a freshly constructed Packet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace escape::net {

class PacketPool {
 public:
  /// The default bound of the free list. In a sharded run the
  /// controller's thread recycles the packet-in frames that worker
  /// threads built during parallel windows, so its pool only fills; at
  /// 4096 spares that read +4% peak RSS on the fat-tree mix. 256 spares
  /// still cover the sources' draw between recycles.
  static constexpr std::size_t kDefaultMaxFree = 256;

  /// `max_free` bounds the free list; recycling beyond it frees the
  /// buffer normally (so a burst does not pin memory forever).
  explicit PacketPool(std::size_t max_free = kDefaultMaxFree) : max_free_(max_free) {}

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// A packet of `size` bytes (contents unspecified), annotations reset.
  Packet acquire(std::size_t size);

  /// A packet whose bytes are copied from `proto`, annotations reset.
  /// The copy reuses a recycled buffer's capacity when one is available.
  Packet acquire_copy(const Packet& proto);

  /// Returns the packet's buffer to the free list (drops it if full).
  void recycle(Packet&& p);

  std::size_t free_buffers() const { return free_.size(); }
  /// Packets served from a recycled buffer.
  std::uint64_t reuses() const { return reuses_; }
  /// Packets that needed a fresh allocation.
  std::uint64_t fresh_allocs() const { return fresh_allocs_; }
  /// Buffers accepted back into the free list.
  std::uint64_t recycled() const { return recycled_; }

  void clear();

 private:
  std::vector<std::uint8_t> take_buffer();

  std::size_t max_free_;
  std::vector<std::vector<std::uint8_t>> free_;
  std::uint64_t reuses_ = 0;
  std::uint64_t fresh_allocs_ = 0;
  std::uint64_t recycled_ = 0;
};

/// The pool shared by sources and sinks of the emulated data plane.
/// One instance per thread: under the sharded scheduler each worker
/// recycles into and acquires from its own free list, so the pool needs
/// no locks and a buffer never migrates between threads mid-flight.
/// Pool *statistics* are therefore also per-thread; the contents of an
/// acquired packet never depend on which pool served it, so thread
/// placement cannot affect simulation results.
PacketPool& default_packet_pool();

}  // namespace escape::net
