// FlowKeyIndex: the flow table's hash index, an open-addressing map
// from net::FlowKey to a value. It holds each tuple space's buckets and
// the miss memo (src/openflow/flow_table.hpp).
//
// Nodes (key, hash tag, value) sit densely in one vector. A slim
// power-of-two array of 8-byte slots holds each node's 32-bit tag and
// node index. The tag is the top half of the key's std::hash value times
// a 64-bit odd constant, and its top bits are the key's home slot, so a
// probe needs no modulus and growth re-places slots without rehashing
// keys. A probe compares the slot's tag before it reads the node's key.
// Collisions probe linearly. Erase shifts the rest of the probe run back
// into the hole (no tombstones) and moves the last node into the freed
// node index, so the nodes stay dense. The slot array doubles before
// the load passes 1/2; clear() keeps the capacity.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/flow.hpp"

namespace escape::openflow {

template <typename V, typename Hash = std::hash<net::FlowKey>>
class FlowKeyIndex {
 public:
  struct Node {
    net::FlowKey key;
    std::uint32_t tag;
    V value;
  };

  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  /// Slot count (0 until the first insert).
  std::size_t capacity() const { return slots_.size(); }

  /// The value stored under `key`, or nullptr.
  V* find(const net::FlowKey& key) { return find(key, hash(key)); }
  /// find() with `Hash{}(key)` already computed, so one hash serves
  /// several indexes keyed by the same key.
  V* find(const net::FlowKey& key, std::size_t key_hash) {
    if (nodes_.empty()) return nullptr;
    const std::uint32_t tag = tag_of(key_hash);
    for (std::size_t i = home(tag);; i = (i + 1) & mask_) {
      const Slot s = slots_[i];
      if (s.node == kEmpty) return nullptr;
      if (s.tag == tag && nodes_[s.node].key == key) return &nodes_[s.node].value;
    }
  }

  /// The value under `key`, value-initialized and inserted if absent.
  /// Inserting invalidates pointers to other values.
  V& operator[](const net::FlowKey& key) {
    const std::size_t key_hash = hash(key);
    if (V* value = find(key, key_hash)) return *value;
    if (2 * (nodes_.size() + 1) > slots_.size()) grow();
    const std::uint32_t tag = tag_of(key_hash);
    std::size_t i = home(tag);
    while (slots_[i].node != kEmpty) i = (i + 1) & mask_;
    slots_[i] = Slot{tag, static_cast<std::uint32_t>(nodes_.size())};
    nodes_.push_back(Node{key, tag, V{}});
    return nodes_.back().value;
  }

  /// Removes `key`; returns whether it was present. Invalidates pointers
  /// to values.
  bool erase(const net::FlowKey& key) {
    if (nodes_.empty()) return false;
    const std::uint32_t tag = tag_of(hash(key));
    std::size_t hole = home(tag);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].node == kEmpty) return false;
      if (slots_[hole].tag == tag && nodes_[slots_[hole].node].key == key) break;
    }
    const std::uint32_t freed = slots_[hole].node;
    // Backward shift: a later member of the run moves into the hole
    // unless the hole lies before its home slot.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].node != kEmpty; j = (j + 1) & mask_) {
      if (((j - home(slots_[j].tag)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].node = kEmpty;
    const auto last = static_cast<std::uint32_t>(nodes_.size() - 1);
    if (freed != last) {
      nodes_[freed] = std::move(nodes_[last]);
      std::size_t i = home(nodes_[freed].tag);
      while (slots_[i].node != last) i = (i + 1) & mask_;
      slots_[i].node = freed;
    }
    nodes_.pop_back();
    return true;
  }

  /// Drops every key; keeps the allocated capacity.
  void clear() {
    nodes_.clear();
    std::fill(slots_.begin(), slots_.end(), Slot{});
  }

  /// The stored nodes, in no particular order.
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kMinCapacity = 8;
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t node = kEmpty;
  };

  static std::size_t hash(const net::FlowKey& key) { return Hash{}(key); }
  static std::uint32_t tag_of(std::size_t key_hash) {
    return static_cast<std::uint32_t>((std::uint64_t{key_hash} * 0x9e3779b97f4a7c15ull) >> 32);
  }
  std::size_t home(std::uint32_t tag) const { return std::size_t{tag} >> shift_; }

  void grow() {
    const std::size_t capacity = std::max(kMinCapacity, 2 * slots_.size());
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 32 - std::countr_zero(capacity);
    for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
      std::size_t i = home(nodes_[n].tag);
      while (slots_[i].node != kEmpty) i = (i + 1) & mask_;
      slots_[i] = Slot{nodes_[n].tag, n};
    }
  }

  std::vector<Slot> slots_;
  std::vector<Node> nodes_;
  std::size_t mask_ = 0;
  int shift_ = 32;
};

}  // namespace escape::openflow
