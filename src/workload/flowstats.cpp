#include "workload/flowstats.hpp"

#include <algorithm>
#include <bit>

namespace clara::workload {

FlowStats flow_stats(std::span<const PacketMeta> packets) {
  FlowStats stats;
  stats.first_of_flow.assign(packets.size(), false);

  // Flow id -> flow index, open-addressed with linear probing and
  // Fibonacci hashing. At least twice as many slots as packets, so the
  // table stays under half full whatever the ids and never grows.
  constexpr std::uint32_t kEmpty = ~0u;
  struct Slot {
    std::uint32_t id = 0;
    std::uint32_t flow = kEmpty;
  };
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(2 * packets.size(), 2));
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<Slot> slots(capacity);

  for (std::size_t i = 0; i < packets.size(); ++i) {
    const std::uint32_t id = packets[i].flow_id;
    auto at = static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift);
    while (slots[at].flow != kEmpty && slots[at].id != id) at = (at + 1) & (capacity - 1);
    if (slots[at].flow == kEmpty) {
      slots[at] = {id, static_cast<std::uint32_t>(stats.packets_per_flow.size())};
      stats.packets_per_flow.push_back(0);
      stats.first_of_flow[i] = true;
    }
    ++stats.packets_per_flow[slots[at].flow];
  }
  return stats;
}

}  // namespace clara::workload
