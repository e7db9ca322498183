// validate_matrix: the accuracy ledger's predicted-vs-simulated matrix
// (obs::AccuracyLedger, 18 scenarios), run repeatedly at the run's seed.
// Set-up is a cache-cold pass; the timed passes are mapping-cache-warm,
// so trace generation, hints, prediction and the simulator do the work.
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "core/cache.hpp"
#include "layers.hpp"
#include "obs/accuracy.hpp"
#include "obs/benchdiff.hpp"
#include "staged.hpp"
#include "workloads.hpp"

namespace clarabench {

using namespace clara;

namespace {

/// The tracked ledger the run's output is checked against (read from the
/// working directory, the root of the checkout).
constexpr const char* kBaselinePath = "BENCH_accuracy.json";
constexpr std::uint64_t kBaselineSeed = 42;

/// Replays one ledger scenario stage by stage and checks it against the
/// ledger's own result for it.
std::string replay_scenario(SpanLog* log, const obs::ValidationScenario& scenario,
                            const obs::ScenarioResult& expected, const lnic::NicProfile& profile) {
  Scope root(log, "op.scenario");
  workload::Trace trace;
  {
    Scope span(log, layer::kTracegen);
    auto wl = workload::parse_profile(scenario.workload);
    if (!wl) return wl.error().message;
    wl.value().seed = expected.seed;
    trace = workload::generate_trace(wl.value());
  }
  if (log != nullptr) log->count_packets(layer::kTracegen, trace.size());
  Result<cir::Function> fn = make_error("unbuilt");
  {
    Scope span(log, layer::kNfBuild);
    fn = scenario_function(scenario);
  }
  if (!fn) return fn.error().message;
  std::unique_ptr<core::Analyzer> analyzer;
  {
    Scope span(log, layer::kProfile);
    analyzer = std::make_unique<core::Analyzer>(profile);
  }
  auto analysis = staged_analyze(log, *analyzer, fn.value(), trace);
  if (!analysis) return analysis.error().message;
  auto validated = staged_validate(log, *analyzer, scenario, analysis.value(), trace);
  if (!validated) return validated.error().message;
  if (validated.value().predicted_cycles != expected.predicted_cycles ||
      validated.value().simulated_cycles != expected.simulated_cycles) {
    return strf("replay of %s gives %.17g/%.17g cycles, ledger %.17g/%.17g",
                scenario.name().c_str(), validated.value().predicted_cycles,
                validated.value().simulated_cycles, expected.predicted_cycles,
                expected.simulated_cycles);
  }
  return {};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

RunResult run_validate_matrix(const RunOptions& options) {
  RunResult result;
  auto& cache = core::analysis_cache();
  obs::AccuracyOptions accuracy;
  accuracy.seed = options.seed;
  accuracy.jobs = options.threads;
  const obs::AccuracyLedger ledger(accuracy);
  const std::vector<obs::ValidationScenario> matrix = obs::AccuracyLedger::default_matrix();

  // Set-up: cache-cold passes (first-touch mappings), repeated; the
  // median counts. The last one is the reference every timed pass must
  // reproduce byte for byte.
  Series setup_s;
  obs::AccuracyReport reference;
  for (int rep = 0; rep < 15; ++rep) {
    cache.clear();
    const auto t0 = Clock::now();
    reference = ledger.run();
    setup_s.add(seconds_since(t0));
  }
  const std::string reference_json = reference.to_json();

  std::vector<Sample> samples;
  std::uint64_t changed_passes = 0;
  double busy_s = 0.0;
  const auto phase_start = Clock::now();
  const auto untraced_pass = [&] {
    const auto t0 = Clock::now();
    const obs::AccuracyReport report = ledger.run();
    const auto t1 = Clock::now();
    samples.push_back({std::chrono::duration<double>(t1 - phase_start).count(), ms_between(t0, t1),
                       static_cast<double>(report.scenarios.size())});
    busy_s += ms_between(t0, t1) / 1e3;
    result.attempted += report.scenarios.size();
    result.failed += report.failures;
    if (report.to_json() != reference_json) ++changed_passes;
  };
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));

  if (!options.trace) {
    do {
      untraced_pass();
    } while (Clock::now() < deadline);
  } else {
    // Alternate: a ledger pass (pool activity, counters), the same
    // scenarios replayed stage by stage without spans, and with spans.
    TracedRun traced;
    SpanLog log;
    const lnic::NicProfile profile = lnic::netronome_agilio_cx();
    double plain_s = 0.0;
    std::uint64_t plain_ops = 0;
    std::uint64_t replay_failures = 0;
    do {
      const Counters u0 = Counters::now();
      const auto u_start = Clock::now();
      const std::uint64_t before = result.attempted;
      untraced_pass();
      traced.untraced_wall_s += seconds_since(u_start);
      traced.untraced_ops += result.attempted - before;
      traced.untraced += Counters::now() - u0;
      for (SpanLog* span_log : {static_cast<SpanLog*>(nullptr), &log}) {
        const Counters t0 = Counters::now();
        const auto start = Clock::now();
        for (std::size_t i = 0; i < matrix.size(); ++i) {
          const std::string diff = replay_scenario(span_log, matrix[i], reference.scenarios[i], profile);
          if (!diff.empty() && replay_failures++ == 0) result.fail_check("replay: " + diff);
        }
        if (span_log == nullptr) {
          plain_s += seconds_since(start);
          plain_ops += matrix.size();
        } else {
          traced.traced += Counters::now() - t0;
        }
      }
    } while (Clock::now() < deadline);
    traced.layers = summarize(log);
    traced.untraced_ops_per_s = static_cast<double>(plain_ops) / plain_s;
    traced.traced_ops_per_s =
        static_cast<double>(traced.layers.ops) / (traced.layers.op_wall_ms / 1e3);
    set_per_layer_metrics(result, traced);
    write_chrome_trace(options.out_dir + "/spans_validate_matrix.json");
    result.notes.push_back(strf("ledger at jobs=%zu: %.2f scenarios/s; the same scenarios one at "
                                "a time on one thread: %.2f scenarios/s",
                                options.threads, static_cast<double>(result.attempted) / busy_s,
                                traced.untraced_ops_per_s));
  }

  // Output checks, outside the timing.
  if (reference.failures > 0) {
    result.fail_check(strf("%zu ledger scenarios failed", reference.failures));
  }
  if (changed_passes > 0) {
    result.fail_check(strf("%llu ledger passes differ from the cold pass",
                           (unsigned long long)changed_passes));
  }
  const std::string baseline = read_file(kBaselinePath);
  if (baseline.empty()) {
    result.fail_check(std::string("cannot read ") + kBaselinePath);
  } else if (options.seed == kBaselineSeed) {
    if (reference_json != baseline) {
      result.fail_check(std::string("ledger at seed 42 differs from ") + kBaselinePath);
    }
  } else {
    auto old_doc = Json::parse(baseline);
    auto new_doc = Json::parse(reference_json);
    if (!old_doc || !new_doc) {
      result.fail_check("cannot parse the accuracy ledgers for the band check");
    } else {
      auto diff = obs::diff_accuracy_json(old_doc.value(), new_doc.value());
      if (!diff) {
        result.fail_check("accuracy band check failed: " + diff.error().message);
      } else if (diff.value().has_regression()) {
        result.fail_check("accuracy outside the tolerance bands of " + std::string(kBaselinePath) +
                          ":\n" + diff.value().render(0.0));
      }
    }
  }

  double err_sum = 0.0;
  std::size_t ok = 0;
  for (const auto& s : reference.scenarios) {
    if (!s.ok) continue;
    err_sum += s.rel_err;
    ++ok;
  }
  if (!options.trace) {
    set_end_to_end(result, windowed(samples, 0), setup_s,
                   ok == 0 ? 0.0 : err_sum / static_cast<double>(ok));
  }
  result.notes.push_back(strf("validate_matrix: ledger jobs %zu, %zu scenarios per pass, %zu "
                              "timed passes (latency is per pass)",
                              options.threads, matrix.size(), samples.size()));
  return result;
}

}  // namespace clarabench
