// Pool self-profiling: where did the wall clock of a parallel region go?
//
// The thread pool attributes every lane's time to three buckets — task
// bodies (run), scheduling overhead (sched: task acquisition + enqueue),
// and idle waiting (barrier/starvation) — as monotonic counters
// (parallel::PoolStats). This module diffs two snapshots around a
// region and renders the per-lane attribution table that `clara profile
// <command>` prints:
//
//   lane      run ms   sched ms   idle ms   other ms   tasks
//   worker0     41.2        0.3      10.1        0.1     312
//   caller      38.9        0.4       9.8       12.4     301
//   ...
//   wall 51.6 ms, lanes 4, attribution coverage 99.2%
//
// Coverage is the fraction of lanes x wall-clock the profiler can
// account for; the acceptance bar is >= 95% (docs/observability.md).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"

namespace clara::obs {

/// One lane's attributed time over the profiled region. `other_ns` is
/// the unattributed remainder of the region's wall clock: loop
/// bookkeeping for workers, serial (non-pool) execution for the caller.
struct ProfileLane {
  std::string name;  // "worker<i>" or "caller"
  std::uint64_t run_ns = 0;
  std::uint64_t sched_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t other_ns = 0;
  std::uint64_t tasks = 0;

  [[nodiscard]] std::uint64_t attributed_ns() const { return run_ns + sched_ns + idle_ns; }
};

struct ProfileReport {
  std::uint64_t wall_ns = 0;
  /// Concurrency over the region: worker lanes + the caller lane.
  std::size_t lane_count = 1;
  std::vector<ProfileLane> lanes;  // workers first, caller last
  std::uint64_t tasks_run = 0;
  std::uint64_t tasks_inline = 0;
  std::uint64_t injected = 0;
  /// Per-task body duration histogram delta (log2 ns buckets).
  std::array<std::uint64_t, parallel::PoolStats::kTaskHistBuckets> task_ns_hist{};

  /// Fraction of (lane_count x wall_ns) the lanes account for,
  /// including the caller's serial remainder; in [0, 1].
  [[nodiscard]] double coverage() const;
  /// The attribution table plus summary lines (see header comment).
  [[nodiscard]] std::string render() const;
};

/// Builds the report from pool-stats snapshots taken before and after a
/// region that took `wall_ns` of wall-clock time.
ProfileReport profile_delta(const parallel::PoolStats& before, const parallel::PoolStats& after,
                            std::uint64_t wall_ns);

/// RAII-ish helper: snapshots the pool at construction, again in
/// finish(), and times the interval.
class ProfileScope {
 public:
  ProfileScope();
  [[nodiscard]] ProfileReport finish() const;

 private:
  parallel::PoolStats before_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace clara::obs
