// Shared pieces of the end-to-end benchmark: run options, the metric
// sink every workload fills, timing helpers, and the in-memory span log
// of the traced run.
//
// A workload is a function `RunResult run_<name>(const RunOptions&)`.
// Untraced runs fill the end-to-end metrics; traced runs (--trace 1)
// replay the same operations stage by stage under a SpanLog and fill
// the per-layer metrics. main.cpp prints the result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace clarabench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Client threads, connections and pool jobs: min(4, nproc).
  std::size_t threads = 1;
  /// Directory for run artifacts (daemon socket, span dumps).
  std::string out_dir = ".bench_build";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  /// Operations attempted in the measured phase, and failures among
  /// them (failed or refused operations plus failed output checks).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable reasons for every failed output check.
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> metrics;
  /// Extra lines printed above the result (sample counts, breakdowns).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail_check(std::string why) {
    ++failed;
    check_failures.push_back(std::move(why));
  }
};

/// One timed operation (or batch of operations) of a measured phase.
struct Sample {
  double end_s = 0.0;       // completion time, seconds since the phase began
  double latency_ms = 0.0;  // what the caller waited
  double ops = 1.0;         // operations the sample completed
  double excluded_ms = 0.0; // caller time spent outside the measurement (checks)
};

/// End-to-end figures of a measured phase, each the median over
/// one-second windows, so a short stall on a shared host moves one
/// window rather than the run.
struct Windowed {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t windows = 0;
  std::size_t samples = 0;
};

/// `callers` is the number of concurrent closed-loop callers; a window's
/// throughput is its operations over its length less the callers' mean
/// excluded time. With callers == 0 the samples come from one caller
/// that also spends untimed work between them (cache clears), and
/// throughput is operations over summed latency.
Windowed windowed(const std::vector<Sample>& samples, std::size_t callers);

/// Sets the end-to-end metrics every workload reports (main.cpp adds
/// peak_rss_mb): setup_s is the median of the set-up repetitions. Notes
/// the sample counts, the p99 and the set-up repetitions' spread.
void set_end_to_end(RunResult& result, const Windowed& w, const clara::Series& setup_s,
                    double pred_mean_rel_err);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Span log of the traced run.

/// Recorder of the traced run. Its spans go to the process-wide
/// obs::Tracer, which keeps them in memory with their parents, while the
/// library's own CLARA_TRACE_SCOPE instrumentation stays disabled: every
/// recorded span is the benchmark's. A span with no parent is an
/// operation root; its direct children are layer spans. Constructing a
/// SpanLog clears the tracer. Spans are recorded by one thread.
class SpanLog {
 public:
  SpanLog();
  /// Credits `packets` processed to a layer (per-packet layer costs).
  void count_packets(const char* layer, std::uint64_t packets) { packets_[layer] += packets; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& packets() const { return packets_; }

 private:
  std::map<std::string, std::uint64_t> packets_;
};

/// RAII span; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_ = 0;
};

/// Per-layer totals of a span log: time in each direct child of an
/// operation root, the operations' wall time, and how much of it the
/// layer spans cover.
struct LayerSummary {
  std::map<std::string, double> layer_ms;  // summed over all operations
  std::map<std::string, std::uint64_t> layer_calls;
  std::map<std::string, std::uint64_t> layer_packets;
  std::uint64_t ops = 0;
  double op_wall_ms = 0.0;
  /// Share of operation wall time covered by layer spans: aggregate,
  /// and the 5th percentile over operations.
  double coverage = 0.0;
  double coverage_p5 = 0.0;

  [[nodiscard]] double ms(const std::string& layer) const {
    const auto it = layer_ms.find(layer);
    return it == layer_ms.end() ? 0.0 : it->second;
  }
  /// Layer time per operation.
  [[nodiscard]] double per_op_ms(const std::string& layer) const {
    return ops == 0 ? 0.0 : ms(layer) / static_cast<double>(ops);
  }
  [[nodiscard]] std::uint64_t packets(const std::string& layer) const {
    const auto it = layer_packets.find(layer);
    return it == layer_packets.end() ? 0 : it->second;
  }
  /// Layer time per packet it processed, in ns (0 when it saw none).
  [[nodiscard]] double ns_per_packet(const std::string& layer) const {
    const std::uint64_t n = packets(layer);
    return n == 0 ? 0.0 : ms(layer) * 1e6 / static_cast<double>(n);
  }
  /// Rendered table: layer, calls, ms per op, share of wall, plus the
  /// `unattributed` row.
  [[nodiscard]] std::vector<std::string> render() const;
};

LayerSummary summarize(const SpanLog& log);

/// Writes the recorded spans as Chrome trace-event JSON
/// (chrome://tracing, ui.perfetto.dev), each with its operation and
/// parent index. False when the file cannot be written.
bool write_chrome_trace(const std::string& path);

}  // namespace clarabench
