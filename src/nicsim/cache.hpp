// Set-associative LRU cache model (the EMEM cache and flow cache).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/fastmod.hpp"
#include "common/types.hpp"

namespace clara::nicsim {

/// Exact set-associative cache with true-LRU replacement. Tracks hits
/// and misses; the simulator charges latencies based on the outcome.
/// The tag array is allocated on the first access, so a simulator whose
/// NF never touches the cache does not fill a 3 MiB cache's tags. Set
/// indexing divides by nothing at run time: a shift for power-of-two
/// lines and a precomputed exact remainder for the set count.
class SetAssocCache {
 public:
  SetAssocCache(Bytes capacity, std::uint32_t line_bytes, std::uint32_t ways);

  /// Touches the line containing `addr`; returns true on hit. A miss
  /// fills the line (evicting LRU).
  bool access(std::uint64_t addr);

  void flush();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double hit_rate() const {
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }
  [[nodiscard]] std::uint32_t num_sets() const { return sets_; }
  [[nodiscard]] std::uint32_t ways() const { return ways_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t last_use = 0;  // clock_ at the last touch; 0 = never filled
    [[nodiscard]] bool valid() const { return last_use != 0; }  // clock_ starts at 1
  };

  std::uint32_t line_bytes_;
  std::uint32_t sets_;
  std::uint32_t ways_;
  int line_shift_;  // log2(line_bytes_), or -1 when it is not a power of two
  FastMod set_of_;  // line address -> set, equal to `% sets_`
  std::vector<Line> lines_;  // sets_ * ways_, row-major by set; empty until the first access
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Fixed-capacity exact-match LRU table keyed by 64-bit ids (the flow
/// cache in front of the LPM engine). Doubly-linked intrusive LRU over
/// a flat vector of nodes, found through one open-addressed index.
class LruTable {
 public:
  explicit LruTable(std::uint32_t capacity);

  /// Returns true if `key` was present (and refreshes it); inserts it
  /// (evicting the LRU victim when full) otherwise.
  bool lookup_or_insert(std::uint64_t key);

  [[nodiscard]] bool contains(std::uint64_t key) const;
  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  void clear();

  /// The index's slot count and the slot where `key`'s probe starts:
  /// enough for a test to pick keys that collide or wrap around the end.
  [[nodiscard]] std::size_t index_slots() const { return index_.size(); }
  [[nodiscard]] std::size_t home_slot(std::uint64_t key) const;

 private:
  void touch(std::uint32_t slot);
  void detach(std::uint32_t slot);
  void attach_front(std::uint32_t slot);
  /// Index position of `key`, or of the empty slot that ends its probe.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const;
  /// Empties index position `pos` by backward-shift deletion: later
  /// members of its probe run move back, so no tombstones are needed.
  void erase_at(std::size_t pos);

  struct Node {
    std::uint64_t key = 0;
    std::uint32_t prev = ~0u;
    std::uint32_t next = ~0u;
  };
  /// Linear-probing index entry; node == kEmpty marks a free slot.
  struct IndexEntry {
    std::uint64_t key = 0;
    std::uint32_t node = kEmpty;
  };
  static constexpr std::uint32_t kEmpty = ~0u;

  std::uint32_t capacity_;
  std::uint32_t size_ = 0;
  std::vector<Node> nodes_;
  std::uint32_t head_ = ~0u;  // MRU
  std::uint32_t tail_ = ~0u;  // LRU
  // key -> node, a power of two at least twice the capacity, so probes
  // stay short and always end at an empty slot.
  std::vector<IndexEntry> index_;
  int index_shift_;  // 64 - log2(index_.size())
};

}  // namespace clara::nicsim
