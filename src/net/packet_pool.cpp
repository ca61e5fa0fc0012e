#include "net/packet_pool.hpp"

namespace escape::net {

std::vector<std::uint8_t> PacketPool::take_buffer() {
  if (free_.empty()) {
    ++fresh_allocs_;
    return {};
  }
  ++reuses_;
  std::vector<std::uint8_t> buf = std::move(free_.back());
  free_.pop_back();
  return buf;
}

Packet PacketPool::acquire(std::size_t size) {
  std::vector<std::uint8_t> buf = take_buffer();
  buf.resize(size);
  return Packet(std::move(buf));
}

Packet PacketPool::acquire_copy(const Packet& proto) {
  std::vector<std::uint8_t> buf = take_buffer();
  buf.assign(proto.data().begin(), proto.data().end());
  return Packet(std::move(buf));
}

void PacketPool::recycle(Packet&& p) {
  if (free_.size() >= max_free_) return;  // buffer freed normally
  std::vector<std::uint8_t> buf = std::move(p.data());
  if (buf.capacity() == 0) return;        // nothing worth keeping
  ++recycled_;
  free_.push_back(std::move(buf));
}

void PacketPool::clear() {
  free_.clear();
  reuses_ = fresh_allocs_ = recycled_ = 0;
}

PacketPool& default_packet_pool() {
  thread_local PacketPool pool;
  return pool;
}

}  // namespace escape::net
