#include "nicsim/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace clara::nicsim {

namespace {

std::uint32_t exact_set_count(Bytes capacity, std::uint32_t line_bytes, std::uint32_t ways) {
  assert(line_bytes > 0 && ways > 0);
  // Exact set count (not rounded to a power of two): rounding down would
  // silently shrink a 3 MiB cache to 2 MiB of effective capacity, and
  // the predictor's hit-rate model uses the nominal capacity.
  const auto total_lines = static_cast<std::uint32_t>(capacity / line_bytes);
  return std::max<std::uint32_t>(total_lines / ways, 1);
}

}  // namespace

SetAssocCache::SetAssocCache(Bytes capacity, std::uint32_t line_bytes, std::uint32_t ways)
    : line_bytes_(line_bytes),
      sets_(exact_set_count(capacity, line_bytes, ways)),
      ways_(ways),
      line_shift_(std::has_single_bit(line_bytes) ? std::countr_zero(line_bytes) : -1),
      set_of_(sets_) {}

bool SetAssocCache::access(std::uint64_t addr) {
  ++clock_;
  const std::uint64_t line_addr = line_shift_ >= 0 ? addr >> line_shift_ : addr / line_bytes_;
  const auto set = static_cast<std::uint32_t>(set_of_(line_addr));
  // The full line address serves as the tag (a strict superset of the
  // conventional tag bits, so distinct lines never alias).
  const std::uint64_t tag = line_addr;

  if (lines_.empty()) lines_.assign(static_cast<std::size_t>(sets_) * ways_, Line{});
  Line* base = &lines_[static_cast<std::size_t>(set) * ways_];
  Line* victim = base;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Line& line = base[w];
    if (line.valid() && line.tag == tag) {
      line.last_use = clock_;
      ++hits_;
      return true;
    }
    if (!line.valid()) {
      victim = &line;
    } else if (victim->valid() && line.last_use < victim->last_use) {
      victim = &line;
    }
  }
  ++misses_;
  victim->tag = tag;
  victim->last_use = clock_;
  return false;
}

void SetAssocCache::flush() {
  std::fill(lines_.begin(), lines_.end(), Line{});
  clock_ = hits_ = misses_ = 0;
}

LruTable::LruTable(std::uint32_t capacity)
    : capacity_(capacity),
      nodes_(capacity == 0 ? 1 : capacity),
      // At least four slots, so that with one more entry than the
      // capacity (a new key indexed before its victim leaves) a slot is
      // still empty.
      index_(std::bit_ceil(std::max<std::size_t>(2 * std::size_t{capacity}, 4))),
      index_shift_(64 - std::countr_zero(index_.size())) {}

std::size_t LruTable::home_slot(std::uint64_t key) const {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> index_shift_);  // Fibonacci hashing
}

std::size_t LruTable::probe(std::uint64_t key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = home_slot(key);
  while (index_[pos].node != kEmpty && index_[pos].key != key) pos = (pos + 1) & mask;
  return pos;
}

void LruTable::erase_at(std::size_t pos) {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (pos + 1) & mask; index_[j].node != kEmpty; j = (j + 1) & mask) {
    // Entry j may fill the hole unless its home lies cyclically in
    // (pos, j]: moving it before its home would hide it from its probe.
    if (((j - home_slot(index_[j].key)) & mask) >= ((j - pos) & mask)) {
      index_[pos] = index_[j];
      pos = j;
    }
  }
  index_[pos].node = kEmpty;
}

bool LruTable::lookup_or_insert(std::uint64_t key) {
  if (capacity_ == 0) return false;
  const std::size_t pos = probe(key);
  if (index_[pos].node != kEmpty) {
    touch(index_[pos].node);
    return true;
  }
  // The new key takes the empty slot its probe ended on; when full, the
  // victim leaves the index after that, and its backward shift moves the
  // new entry like any other.
  const bool full = size_ == capacity_;
  const std::uint32_t slot = full ? tail_ : size_++;
  index_[pos] = {key, slot};
  if (full) {
    detach(slot);  // evict LRU
    erase_at(probe(nodes_[slot].key));
  }
  nodes_[slot].key = key;
  attach_front(slot);
  return false;
}

bool LruTable::contains(std::uint64_t key) const { return index_[probe(key)].node != kEmpty; }

void LruTable::clear() {
  std::fill(index_.begin(), index_.end(), IndexEntry{});
  size_ = 0;
  head_ = tail_ = ~0u;
  for (auto& n : nodes_) n = Node{};
}
void LruTable::touch(std::uint32_t slot) {
  if (head_ == slot) return;
  detach(slot);
  attach_front(slot);
}

void LruTable::detach(std::uint32_t slot) {
  Node& n = nodes_[slot];
  if (n.prev != ~0u) nodes_[n.prev].next = n.next;
  if (n.next != ~0u) nodes_[n.next].prev = n.prev;
  if (head_ == slot) head_ = n.next;
  if (tail_ == slot) tail_ = n.prev;
  n.prev = n.next = ~0u;
}

void LruTable::attach_front(std::uint32_t slot) {
  Node& n = nodes_[slot];
  n.prev = ~0u;
  n.next = head_;
  if (head_ != ~0u) nodes_[head_].prev = slot;
  head_ = slot;
  if (tail_ == ~0u) tail_ = slot;
}

}  // namespace clara::nicsim
