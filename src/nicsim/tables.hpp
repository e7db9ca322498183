// NF state tables living on the simulated NIC.
//
// A ported program declares its tables with an explicit memory placement
// (the "offloading strategy" knob the paper's Figure 1 varies for the
// firewall NF); the simulator models their content exactly so hit/miss
// behaviour — and therefore cache behaviour in EMEM — is real.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fastmod.hpp"
#include "common/types.hpp"
#include "nicsim/cache.hpp"

namespace clara::nicsim {

/// Memory levels a program can place state in (local memory is per-NPU
/// and too small for shared tables).
enum class MemLevel : std::uint8_t { kLocal, kCtm, kImem, kEmem };

const char* to_string(MemLevel level);

/// Exact-match table with open addressing semantics: a lookup touches
/// the hashed bucket, then the entry; the simulator turns those touches
/// into memory accesses at the table's placement level. Contents are
/// modeled precisely (bounded capacity, slot collisions evict).
class ExactTable {
 public:
  ExactTable(std::string name, std::uint64_t entries, Bytes entry_bytes, MemLevel placement);

  struct AccessPlan {
    std::uint64_t addr0 = 0;  // bucket
    std::uint64_t addr1 = 0;  // entry
    bool hit = false;
  };

  /// Models a lookup: computes the addresses a real implementation
  /// would touch and whether the key is present.
  AccessPlan lookup(std::uint64_t key) const;

  /// Insert/overwrite; returns the addresses written. When the slot is
  /// occupied by a different key, the old key is evicted (bounded
  /// table, as on the NIC).
  AccessPlan update(std::uint64_t key);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t entries() const { return entries_; }
  [[nodiscard]] Bytes entry_bytes() const { return entry_bytes_; }
  [[nodiscard]] MemLevel placement() const { return placement_; }
  [[nodiscard]] Bytes footprint() const { return entries_ * entry_bytes_; }
  /// Full address span including the bucket directory (8 B per slot)
  /// that precedes the entry storage.
  [[nodiscard]] Bytes address_span() const { return entries_ * 8 + footprint(); }
  [[nodiscard]] std::uint64_t occupied() const { return occupied_; }
  /// Base address within its level's address space (assigned by the sim).
  void set_base(std::uint64_t base) { base_ = base; }
  [[nodiscard]] std::uint64_t base() const { return base_; }

 private:
  [[nodiscard]] std::uint64_t slot_of(std::uint64_t key) const;

  std::string name_;
  std::uint64_t entries_;
  Bytes entry_bytes_;
  MemLevel placement_;
  FastMod slot_mod_;  // `% entries_` without a hardware divide
  std::uint64_t base_ = 0;
  std::vector<std::uint64_t> slots_;  // key per slot; 0 = empty
  std::uint64_t occupied_ = 0;
};

/// Longest-prefix-match table behind the match-action engine. The DRAM
/// walk cost grows with the rule count; the SRAM flow cache shortcuts
/// repeat flows.
class LpmTable {
 public:
  LpmTable(std::string name, std::uint64_t rule_entries, std::uint32_t flow_cache_capacity);

  struct Outcome {
    bool flow_cache_hit = false;
    /// Key-dependent DRAM walk-depth multiplier (~0.9-1.1): different
    /// keys terminate their match-action walk at different depths, so
    /// per-packet lookup cost varies around the mean curve.
    double walk_factor = 1.0;
  };

  /// Models one lookup keyed by the flow hash. When `use_flow_cache` is
  /// false the cache is bypassed entirely (the paper's slow LPM
  /// variant).
  Outcome lookup(std::uint64_t flow_key, bool use_flow_cache);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t rule_entries() const { return rule_entries_; }
  [[nodiscard]] const LruTable& flow_cache() const { return flow_cache_; }

 private:
  std::string name_;
  std::uint64_t rule_entries_;
  LruTable flow_cache_;
};

}  // namespace clara::nicsim
