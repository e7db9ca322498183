// Benchmark regression gating: `clara bench diff <old.json> <new.json>`.
//
// Compares two tracked benchmark runs metric by metric and flags
// regressions, which is what makes the perf *and accuracy* trajectories
// gateable instead of merely visible. Two schemas are understood, and
// diff_bench_files dispatches on the files' "schema" field:
//
//   * clara-bench-perf/1 (bench/perf_micro, docs/performance.md):
//     relative thresholds. Lower-is-better metrics (ns_per_iter, *_ms)
//     regress when new > old * (1 + threshold); higher-is-better
//     metrics (speedup) when new < old * (1 - threshold); a parallel
//     speedup below 1.0 fails outright unless the new run was
//     oversubscribed (then only the relative gate applies); micros faster than `min_micro_ns` are reported
//     but not gated (timer noise dominates); scenarios present in only
//     one run are reported, never gated.
//
//   * clara-bench-accuracy/1 (bench/accuracy_summary via the obs
//     accuracy ledger, docs/observability.md): absolute tolerance
//     bands. Per-NF mean/p95 relative error regress when new exceeds
//     old by more than the metric's band in error points (errors are
//     small fractions, so relative thresholds on them would gate
//     noise); max_rel_err (a single worst point) is reported, not
//     gated. CI runs
//
//   accuracy_summary --json=new.json &&
//     clara bench diff BENCH_accuracy.json new.json
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"

namespace clara::obs {

struct BenchDiffOptions {
  /// Relative change that counts as a regression (0.10 = 10%).
  double threshold = 0.10;
  /// Micros with an old ns_per_iter below this are not gated.
  double min_micro_ns = 100.0;
  /// Tighter gate for the solver_pivot_ns micro: a per-pivot cost is
  /// averaged over thousands of deterministic pivots per iteration, so
  /// it is far less noisy than a wall-clock micro and a small drift is
  /// already a real engine regression.
  double pivot_threshold = 0.05;
};

/// Tolerance bands for accuracy gating, in absolute error points
/// (0.02 = a per-NF error may drift up by 2 points before failing).
struct AccuracyDiffOptions {
  double mean_band = 0.02;
  double p95_band = 0.04;
};

struct BenchDiffRow {
  enum class Status : std::uint8_t { kOk, kRegressed, kImproved, kSkipped };

  std::string scenario;  // "micro/simplex_solve", "parallel/sweep_replay", ...
  std::string metric;    // "ns_per_iter", "parallel_ms", "speedup", ...
  double old_value = 0.0;
  double new_value = 0.0;
  /// Signed relative change, (new - old) / old; 0 when old == 0.
  double change = 0.0;
  bool higher_is_better = false;
  Status status = Status::kOk;
  std::string note;
};

struct BenchDiffReport {
  std::vector<BenchDiffRow> rows;

  [[nodiscard]] bool has_regression() const;
  [[nodiscard]] std::size_t regressions() const;
  /// The comparison table plus a PASS/FAIL summary line.
  [[nodiscard]] std::string render(double threshold) const;
};

/// Compares two parsed BENCH_perf.json documents.
Result<BenchDiffReport, Error> diff_bench_json(const Json& old_run, const Json& new_run,
                                               const BenchDiffOptions& options = {});

/// Compares two parsed BENCH_accuracy.json documents under the
/// tolerance bands. Rows carry change = new - old in error points (the
/// render's percentage column reads as points, not relative change).
Result<BenchDiffReport, Error> diff_accuracy_json(const Json& old_run, const Json& new_run,
                                                  const AccuracyDiffOptions& options = {});

/// Loads two tracked benchmark files and dispatches on their "schema"
/// field (both files must agree). Perf runs use `options`, accuracy
/// runs use `accuracy_options`.
Result<BenchDiffReport, Error> diff_bench_files(const std::string& old_path,
                                                const std::string& new_path,
                                                const BenchDiffOptions& options = {},
                                                const AccuracyDiffOptions& accuracy_options = {});

}  // namespace clara::obs
