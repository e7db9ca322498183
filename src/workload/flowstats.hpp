// Per-flow trace statistics in one flat pass.
//
// The predictor, the mapper's hints and Trace::distinct_flows all need
// the same facts about a trace: how many packets each flow carries,
// which packet opens each flow, and how many flows there are. Flow ids
// go through one open-addressed table sized by the packet count, so the
// pass builds no node per flow and stays O(packets) in memory whatever
// the id range (traces read from disk may carry any 32-bit ids).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "workload/packet.hpp"

namespace clara::workload {

struct FlowStats {
  /// Packets carried by each distinct flow, in order of the flow's first
  /// packet.
  std::vector<std::uint32_t> packets_per_flow;
  /// Element i is set when packet i is the first packet of its flow.
  std::vector<bool> first_of_flow;

  [[nodiscard]] std::uint32_t distinct() const {
    return static_cast<std::uint32_t>(packets_per_flow.size());
  }
};

FlowStats flow_stats(std::span<const PacketMeta> packets);

}  // namespace clara::workload
