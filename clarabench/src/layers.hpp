// Per-layer metrics of the traced run: the counters Clara publishes
// (obs::metrics(), the analysis cache, the thread pool), snapshotted
// around a phase, and the one place that turns a span summary plus
// counter deltas into the named per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace clarabench {

/// Monotonic counters read from the library. The analysis cache zeroes
/// its own counters on clear(), so a delta must not span a clear.
struct Counters {
  std::uint64_t ilp_solves = 0;
  std::uint64_t ilp_pivots = 0;
  std::uint64_t ilp_nodes = 0;
  std::uint64_t ilp_deadline_hits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t nicsim_packets = 0;
  std::uint64_t sweep_shard_retries = 0;
  std::uint64_t serve_rejected = 0;
  std::uint64_t pool_tasks_run = 0;
  std::uint64_t pool_steals = 0;
  std::uint64_t pool_busy_ns = 0;

  static Counters now();
  Counters& operator+=(const Counters& other);
  friend Counters operator-(const Counters& after, const Counters& before);
};

/// Everything a traced run measured, ready to become metrics.
struct TracedRun {
  LayerSummary layers;
  /// Counter deltas over the traced operations, and over the untraced
  /// phase that runs the workload as the untraced run does.
  Counters traced;
  Counters untraced;
  std::uint64_t untraced_ops = 0;
  double untraced_wall_s = 0.0;
  /// Throughput of the same operations without and with spans.
  double untraced_ops_per_s = 0.0;
  double traced_ops_per_s = 0.0;
  /// serve_mixed only: daemon-side service time per request kind, the
  /// client-observed remainder, and client retries.
  std::map<std::string, double> service_ms;
  double transport_queue_ms = 0.0;
  std::uint64_t client_retries = 0;
};

/// The per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fills every per-layer metric (0 where the layer does not run) and
/// appends the layer table to the notes.
void set_per_layer_metrics(RunResult& result, const TracedRun& run);

}  // namespace clarabench
