// Performance prediction — paper §3.5.
//
// Given a mapped NF and a workload, predict per-packet latency and
// idealized throughput. Clara does not execute a ported program; it
// replays the workload over the *mapping*:
//
//   1. the trace is collapsed into packet equivalence classes (protocol,
//      SYN, flow novelty, payload bucket) — the per-packet-type profiles
//      the paper describes ("TCP SYN packets experience higher latency,
//      but the following packets will hit the flow cache");
//   2. one representative packet per class is pushed through the CIR
//      interpreter against a workload model (tables answer hit/miss by
//      flow novelty), yielding block counts and vcall arguments;
//   3. the trace is priced against the mapping: instruction mixes and
//      vcall service curves on the assigned units, state accesses at the
//      placed regions — with the EMEM cache modeled by an estimated hit
//      rate (working set vs. cache capacity) rather than exact contents;
//   4. datapath constants (ingress DMA/spill, hubs, egress) and a
//      queueing term per shared unit (M/D/1-style) complete the number.
//
// The deliberate abstractions in (3)-(4) — hit-rate estimates, averaged
// NUMA weights, open-form queueing — are Clara's model error relative to
// the exact simulator, mirroring the paper's predictor-vs-hardware gap.
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "mapping/mapping.hpp"
#include "obs/breakdown.hpp"
#include "workload/flowstats.hpp"
#include "workload/tracegen.hpp"

namespace clara::core {

/// A packet equivalence class with its predicted latency.
struct ClassProfile {
  std::string name;
  double fraction = 0.0;       // of trace packets
  double payload_len = 0.0;    // representative payload bytes
  double latency_cycles = 0.0; // predicted end-to-end latency
  bool tcp = false;
  bool syn = false;
  bool new_flow = false;
};

struct UnitLoad {
  std::string pool;
  double utilization = 0.0;     // of the pool's aggregate capacity
  double queue_wait_cycles = 0.0;
};

struct Prediction {
  double mean_latency_cycles = 0.0;
  double mean_latency_us = 0.0;
  /// Conservative worst-case latency (WCET-flavored, §3.5's pointer to
  /// the real-time literature): the slowest packet class priced with
  /// every cache access missing. A sound upper bound for the simulator's
  /// tail latency at non-saturating loads.
  double worst_case_cycles = 0.0;
  /// Idealized throughput: the offered rate at which the bottleneck pool
  /// saturates (paper: "idealized throughput estimations").
  double throughput_pps = 0.0;
  std::string bottleneck;
  std::vector<ClassProfile> classes;
  std::vector<UnitLoad> loads;
  /// Estimated hit rates the model used (exposed for ablation study).
  double emem_cache_hit_rate = 0.0;
  double flow_cache_hit_rate = 0.0;
  /// Analytic per-packet latency attribution. The components sum to
  /// mean_latency_cycles exactly (each term of the cost model is charged
  /// to exactly one component), so it lines up with the simulator's
  /// measured RunStats::breakdown for side-by-side comparison.
  obs::BreakdownMeans breakdown;
};

/// Upper bound on PredictOptions::payload_buckets (a bucket index must
/// fit the class key's upper bits).
inline constexpr std::size_t kMaxPayloadBuckets = 1024;

struct PredictOptions {
  /// Payload-size buckets for class formation, in [1, kMaxPayloadBuckets]
  /// (predict() rejects anything else).
  std::size_t payload_buckets = 8;
  /// Disables the EMEM cache hit-rate model (every access at full DRAM
  /// latency) — ablation knob.
  bool model_emem_cache = true;
  /// Disables queueing terms — ablation knob.
  bool model_queueing = true;
  /// Interference: fraction of the NIC this NF owns (1.0 = whole NIC);
  /// paper §3.5 "slice the LNIC to model half of the NIC".
  double nic_share = 1.0;
  /// Interference: extra EMEM-cache pressure from co-resident NFs, in
  /// bytes of competing working set.
  double foreign_cache_pressure_bytes = 0.0;
};

/// Predicts performance of a mapped NF on a workload. The function must
/// already be API-substituted and verified (the Analyzer facade does
/// this).
Result<Prediction> predict(const cir::Function& fn, const passes::DataflowGraph& graph,
                           const mapping::Mapping& mapping, const mapping::Mapper& mapper,
                           const workload::Trace& trace, const PredictOptions& options = {});

/// predict() for a caller that already holds the trace's flow statistics
/// and its hints_from_trace() for the mapper's profile (the Analyzer
/// computes both once per analysis).
Result<Prediction> predict(const cir::Function& fn, const passes::DataflowGraph& graph,
                           const mapping::Mapping& mapping, const mapping::Mapper& mapper,
                           const workload::Trace& trace, const workload::FlowStats& flows,
                           const passes::CostHints& hints, const PredictOptions& options);

/// Workload-derived hint extraction shared by the mapper and predictor:
/// average payload, loop-trip parameters, and the flow-cache hit rate
/// estimated from observed flow popularity vs. cache capacity.
passes::CostHints hints_from_trace(const workload::Trace& trace, const lnic::NicProfile& profile);

/// hints_from_trace() over flow statistics already computed for `trace`.
passes::CostHints hints_from_trace(const workload::Trace& trace, const workload::FlowStats& flows,
                                   const lnic::NicProfile& profile);

}  // namespace clara::core
