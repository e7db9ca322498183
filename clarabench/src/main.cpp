// clara_e2e — the end-to-end benchmark driver.
//
//   clara_e2e --workload <serve_mixed|cold_map|validate_matrix>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints the host fingerprint, notes and check results, then as its last
// stdout line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Exits 1 when an output check failed, 2 on bad
// arguments. METRICS.md documents every metric.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "bench.hpp"
#include "workloads.hpp"

namespace clarabench {
namespace {

using clara::strf;

struct Host {
  std::string cpu_model;
  unsigned nproc = 1;
  std::string compiler = CLARA_E2E_COMPILER;
  std::string build_type = CLARA_E2E_BUILD_TYPE;
  double effective_parallelism = 1.0;

  [[nodiscard]] std::string to_json() const {
    return strf("{\"cpu_model\":%s,\"nproc\":%u,\"compiler\":%s,\"build_type\":%s,"
                "\"effective_parallelism\":%.2f}",
                clara::json_quote(cpu_model).c_str(), nproc, clara::json_quote(compiler).c_str(),
                clara::json_quote(build_type).c_str(), effective_parallelism);
  }
  /// Identity for comparing runs: everything but the calibrated figure,
  /// which is itself a noisy measurement.
  [[nodiscard]] std::string identity() const {
    return strf("%s|%u|%s|%s", cpu_model.c_str(), nproc, compiler.c_str(), build_type.c_str());
  }
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return std::string(clara::trim(line.substr(colon + 1)));
    }
  }
  return "unknown";
}

/// A fixed CPU-bound work unit (an LCG chain the compiler cannot fold).
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < iterations; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x;
}

/// Keeps `n` threads busy for `seconds`. On a virtual machine whose
/// vCPUs were idle, the first second of multi-threaded work can run at
/// a fraction of its speed while the host schedules the vCPUs again;
/// every run warms them before it calibrates or measures anything.
void warm_up(unsigned n, double seconds) {
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> spinners;
  const auto t0 = Clock::now();
  for (unsigned i = 0; i < n; ++i) {
    spinners.emplace_back([&] {
      while (seconds_since(t0) < seconds) sink += spin(100'000);
    });
  }
  for (auto& t : spinners) t.join();
}

/// Effective parallelism: aggregate throughput of `n` concurrent
/// spinners relative to one. Median of three trials.
double calibrate_parallelism(unsigned n) {
  constexpr std::uint64_t kIterations = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  clara::Series ratios;
  for (int trial = 0; trial < 3; ++trial) {
    auto t0 = Clock::now();
    sink += spin(kIterations);
    const double one = seconds_since(t0);
    t0 = Clock::now();
    std::vector<std::thread> spinners;
    for (unsigned i = 0; i < n; ++i) spinners.emplace_back([&] { sink += spin(kIterations); });
    for (auto& t : spinners) t.join();
    const double all = seconds_since(t0);
    ratios.add(static_cast<double>(n) * one / all);
  }
  return ratios.percentile(0.5);
}

Host fingerprint() {
  Host host;
  host.cpu_model = cpu_model();
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  warm_up(host.nproc, 1.5);
  host.effective_parallelism = calibrate_parallelism(host.nproc);
  return host;
}

/// Compares against the fingerprint recorded by the previous run in the
/// same output directory, so results from two hosts are never compared
/// silently, then records this one.
void check_host(const Host& host, const std::string& out_dir) {
  const std::string path = out_dir + "/host_fingerprint.txt";
  std::string previous;
  {
    std::ifstream in(path);
    std::getline(in, previous);
  }
  if (!previous.empty() && previous != host.identity()) {
    std::printf("WARNING: host differs from the previous run in %s:\n  was %s\n  now %s\n"
                "  results of the two hosts are not comparable\n",
                out_dir.c_str(), previous.c_str(), host.identity().c_str());
  }
  std::ofstream out(path);
  out << host.identity() << "\n";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "clara_e2e: %s\nusage: clara_e2e --workload <serve_mixed|cold_map|validate_matrix> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  RunResult (*workload)(const RunOptions&) = nullptr;
  if (options.workload == "serve_mixed") workload = run_serve_mixed;
  if (options.workload == "cold_map") workload = run_cold_map;
  if (options.workload == "validate_matrix") workload = run_validate_matrix;
  if (workload == nullptr) return usage("--workload must be serve_mixed, cold_map or validate_matrix");

  const Host host = fingerprint();
  std::printf("host: %s\n", host.to_json().c_str());
  check_host(host, options.out_dir);
  options.threads = std::min<std::size_t>(4, host.nproc);
  clara::parallel::set_jobs(options.threads);
  std::printf("workload %s, seed %llu, %.1f s, trace %d, %zu threads\n", options.workload.c_str(),
              (unsigned long long)options.seed, options.seconds, options.trace ? 1 : 0,
              options.threads);
  std::fflush(stdout);

  RunResult result = workload(options);
  if (!options.trace) result.set("peak_rss_mb", peak_rss_mb(), "MB");
  for (auto& [name, metric] : result.metrics) {
    if (std::isfinite(metric.value)) continue;
    result.fail_check(name + " is not a finite number");
    metric.value = 0.0;  // JSON has no spelling for it
  }
  const double error_ratio =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) / static_cast<double>(result.attempted);

  for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
  for (const auto& why : result.check_failures) std::printf("CHECK FAILED: %s\n", why.c_str());
  std::printf("error_ratio %.6f (%llu failed of %llu attempted)\n", error_ratio,
              (unsigned long long)result.failed, (unsigned long long)result.attempted);
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%-30s %16.6f %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  const bool correct = result.check_failures.empty() && result.attempted > 0;
  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    metrics += strf("%s%s:{\"value\":%.17g,\"unit\":%s}", metrics.empty() ? "" : ",",
                    clara::json_quote(name).c_str(), metric.value,
                    clara::json_quote(metric.unit).c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              correct ? "true" : "false", (unsigned long long)std::max<std::uint64_t>(1, result.attempted),
              (unsigned long long)result.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace clarabench

int main(int argc, char** argv) { return clarabench::run(argc, argv); }
