#include "nicsim/tables.hpp"

#include <utility>

namespace clara::nicsim {

const char* to_string(MemLevel level) {
  switch (level) {
    case MemLevel::kLocal: return "local";
    case MemLevel::kCtm: return "ctm";
    case MemLevel::kImem: return "imem";
    case MemLevel::kEmem: return "emem";
  }
  return "?";
}

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ExactTable::ExactTable(std::string name, std::uint64_t entries, Bytes entry_bytes, MemLevel placement)
    : name_(std::move(name)),
      entries_(entries),
      entry_bytes_(entry_bytes),
      placement_(placement),
      slot_mod_(entries) {
  slots_.assign(entries, 0);
}

std::uint64_t ExactTable::slot_of(std::uint64_t key) const { return slot_mod_(mix(key)); }

ExactTable::AccessPlan ExactTable::lookup(std::uint64_t key) const {
  AccessPlan plan;
  const std::uint64_t slot = slot_of(key);
  // Two dependent reads, as in a real chained hash table: the bucket
  // directory (8 B per slot, at the base of the allocation) and the
  // entry body (a separate array after the directory). Keeping them in
  // separate arrays means they land on distinct cache lines.
  plan.addr0 = base_ + slot * 8;
  plan.addr1 = base_ + entries_ * 8 + slot * entry_bytes_;
  plan.hit = slots_[slot] == key;
  return plan;
}

ExactTable::AccessPlan ExactTable::update(std::uint64_t key) {
  AccessPlan plan;
  const std::uint64_t slot = slot_of(key);
  plan.addr0 = base_ + slot * 8;
  plan.addr1 = base_ + entries_ * 8 + slot * entry_bytes_;
  plan.hit = slots_[slot] == key;
  if (slots_[slot] == 0 && key != 0) ++occupied_;
  slots_[slot] = key;
  return plan;
}

LpmTable::LpmTable(std::string name, std::uint64_t rule_entries, std::uint32_t flow_cache_capacity)
    : name_(std::move(name)), rule_entries_(rule_entries), flow_cache_(flow_cache_capacity) {}

LpmTable::Outcome LpmTable::lookup(std::uint64_t flow_key, bool use_flow_cache) {
  Outcome out;
  if (use_flow_cache && flow_cache_.capacity() > 0) {
    out.flow_cache_hit = flow_cache_.lookup_or_insert(flow_key);
  }
  out.walk_factor = 0.9 + 0.2 * static_cast<double>(mix(flow_key) & 0xff) / 255.0;
  return out;
}

}  // namespace clara::nicsim
