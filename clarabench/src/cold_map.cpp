// cold_map: one caller thread analyzes all corpus NFs on all NIC
// profiles. The analysis cache stays enabled but is cleared before each
// pass (outside the timing), so every lookup misses and every stage
// runs and inserts: the first-touch "which NIC should I port to" cost.
// The pool keeps the run's min(4, nproc) jobs, as clarad and clara_cli
// default to the host's cores, so branch-and-bound runs its parallel
// waves here.
#include <memory>

#include "common/strings.hpp"
#include "core/cache.hpp"
#include "layers.hpp"
#include "obs/accuracy.hpp"
#include "serve/registry.hpp"
#include "staged.hpp"
#include "workloads.hpp"

namespace clarabench {

using namespace clara;

namespace {

struct Corpus {
  std::vector<std::string> names;
  std::vector<cir::Function> nfs;
  std::vector<core::Analyzer> analyzers;
  workload::Trace trace;

  [[nodiscard]] std::size_t ops_per_pass() const { return nfs.size() * analyzers.size(); }
  [[nodiscard]] std::string op_name(std::size_t op) const {
    return names[op % nfs.size()] + "@" + analyzers[op / nfs.size()].profile().name;
  }
};

Result<Corpus> build_corpus(std::uint64_t seed) {
  Corpus corpus;
  for (const auto& entry : serve::nf_registry()) {
    corpus.names.emplace_back(entry.name);
    corpus.nfs.push_back(entry.build());
  }
  for (auto& profile : lnic::all_profiles()) corpus.analyzers.emplace_back(std::move(profile));
  auto profile = workload::parse_profile(small_workload_spec(seed));
  if (!profile) return profile.error();
  corpus.trace = workload::generate_trace(profile.value());
  return corpus;
}

/// The accuracy-ledger scenario for a corpus NF on the default NIC, or
/// an empty nf when the corpus entry has no hand-port.
obs::ValidationScenario corpus_scenario(const std::string& name, const workload::Trace& trace) {
  obs::ValidationScenario scenario;
  scenario.nf = name;
  scenario.variant = "cold_map";
  scenario.workload = trace.profile.serialize();
  if (name == "lpm-nocache") {
    scenario.nf = "lpm";
    scenario.lpm_flow_cache = false;
  } else if (name == "lpm") {
    scenario.lpm_flow_cache = true;
  }
  if (!scenario_function(scenario)) scenario.nf.clear();
  return scenario;
}

}  // namespace

RunResult run_cold_map(const RunOptions& options) {
  RunResult result;
  auto& cache = core::analysis_cache();
  // Set-up: corpus and trace construction, repeated; the median counts.
  Series setup_s;
  std::unique_ptr<Corpus> corpus;
  for (int rep = 0; rep < 100; ++rep) {
    const auto t0 = Clock::now();
    auto built = build_corpus(options.seed);
    setup_s.add(seconds_since(t0));
    if (!built) {
      result.fail_check("corpus set-up failed: " + built.error().message);
      return result;
    }
    corpus = std::make_unique<Corpus>(std::move(built).value());
  }
  const std::size_t per_pass = corpus->ops_per_pass();

  // Untraced passes. Every op's mapping objective and degraded flag is
  // kept for the output check; a traced run also keeps the last pass's
  // analyses, the reference its replays must equal.
  std::vector<Sample> samples;
  std::vector<core::Analysis> last_pass(options.trace ? per_pass : 0);
  std::vector<double> objective(per_pass, 0.0);
  std::uint64_t objective_mismatches = 0;
  std::uint64_t degraded = 0;
  double busy_s = 0.0;
  const auto phase_start = Clock::now();
  const auto untraced_pass = [&](bool first) {
    cache.clear();
    for (std::size_t op = 0; op < per_pass; ++op) {
      const auto& analyzer = corpus->analyzers[op / corpus->nfs.size()];
      const auto t0 = Clock::now();
      auto analysis = analyzer.analyze(corpus->nfs[op % corpus->nfs.size()], corpus->trace);
      const auto t1 = Clock::now();
      samples.push_back({std::chrono::duration<double>(t1 - phase_start).count(), ms_between(t0, t1)});
      busy_s += ms_between(t0, t1) / 1e3;
      ++result.attempted;
      if (!analysis) {
        ++result.failed;
        result.notes.push_back("analysis failed: " + corpus->op_name(op) + ": " +
                               analysis.error().message);
        continue;
      }
      const double value = analysis.value().mapping.objective;
      if (first) objective[op] = value;
      if (value != objective[op]) ++objective_mismatches;
      if (analysis.value().degraded) ++degraded;
      if (options.trace) last_pass[op] = std::move(analysis).value();
    }
  };

  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(options.seconds));
  if (!options.trace) {
    bool first = true;
    do {
      untraced_pass(first);
      first = false;
    } while (Clock::now() < deadline);
  } else {
    // Alternate untraced passes (counters, untraced throughput) with
    // traced stage-by-stage replays of the same pass.
    TracedRun traced;
    SpanLog log;
    bool first = true;
    std::uint64_t identity_failures = 0;
    do {
      const Counters u0 = Counters::now();
      const auto u_start = Clock::now();
      const std::uint64_t before_ops = result.attempted;
      untraced_pass(first);
      first = false;
      traced.untraced_wall_s += seconds_since(u_start);
      traced.untraced_ops += result.attempted - before_ops;
      traced.untraced += Counters::now() - u0;

      // The replay starts from a cleared cache, as the untraced pass
      // just before it did, so each replay recomputes every stage and
      // must equal that pass's analysis of the same op.
      cache.clear();
      const Counters t0 = Counters::now();
      for (std::size_t op = 0; op < per_pass; ++op) {
        const auto& analyzer = corpus->analyzers[op / corpus->nfs.size()];
        Result<core::Analysis> replay = make_error("unreplayed");
        {
          Scope root(&log, "op.cold_map");
          replay = staged_analyze(&log, analyzer, corpus->nfs[op % corpus->nfs.size()],
                                  corpus->trace);
        }
        const std::string diff =
            replay ? same_analysis(replay.value(), last_pass[op]) : replay.error().message;
        if (!diff.empty() && identity_failures++ == 0) {
          result.fail_check("replay differs from analyze() for " + corpus->op_name(op) + ": " +
                            diff);
        }
      }
      traced.traced += Counters::now() - t0;
    } while (Clock::now() < deadline);
    traced.layers = summarize(log);
    traced.untraced_ops_per_s = static_cast<double>(traced.untraced_ops) / busy_s;
    traced.traced_ops_per_s = static_cast<double>(traced.layers.ops) / (traced.layers.op_wall_ms / 1e3);
    set_per_layer_metrics(result, traced);
    write_chrome_trace(options.out_dir + "/spans_cold_map.json");
    if (identity_failures > 1) {
      result.notes.push_back(strf("%llu further replay mismatches",
                                  (unsigned long long)(identity_failures - 1)));
    }
  }

  // Output checks, outside the timing: the dense-simplex reference
  // engine must reach the same objective for every (NF, NIC) pair, and
  // no mapping may be degraded.
  if (objective_mismatches > 0) {
    result.fail_check(strf("%llu analyses changed objective between passes",
                           (unsigned long long)objective_mismatches));
  }
  if (degraded > 0) {
    result.fail_check(strf("%llu degraded mappings", (unsigned long long)degraded));
  }
  core::AnalyzeOptions dense;
  dense.use_cache = false;
  dense.map.ilp_algorithm = ilp::LpAlgorithm::kDense;
  for (std::size_t op = 0; op < per_pass; ++op) {
    const auto& analyzer = corpus->analyzers[op / corpus->nfs.size()];
    auto reference = analyzer.analyze(corpus->nfs[op % corpus->nfs.size()], corpus->trace, dense);
    if (!reference) {
      result.fail_check("dense reference failed: " + corpus->op_name(op));
    } else if (reference.value().mapping.objective != objective[op]) {
      result.fail_check(strf("objective of %s is %.17g, dense reference %.17g",
                             corpus->op_name(op).c_str(), objective[op],
                             reference.value().mapping.objective));
    }
  }

  // Prediction quality guard: simulate every hand-ported corpus NF on
  // the default NIC (the simulator models that one) with the run's trace.
  std::vector<double> rel_err;
  const core::Analyzer& netronome = corpus->analyzers.front();
  for (std::size_t i = 0; i < corpus->nfs.size(); ++i) {
    const auto scenario = corpus_scenario(corpus->names[i], corpus->trace);
    if (scenario.nf.empty()) continue;
    auto analysis = netronome.analyze(corpus->nfs[i], corpus->trace);
    if (!analysis) continue;  // already counted as a failed operation
    // The ledger's guard: the LPM port runs on the match-action engine,
    // so a mapping that keeps the walk in software has nothing to
    // validate against (lpm-nocache maps that way).
    if (scenario.nf == "lpm" &&
        analysis.value().prediction.breakdown.at(obs::Component::kLpmEngine) <= 0.0) {
      continue;
    }
    auto validated = obs::validate_prediction(netronome, scenario, analysis.value(), corpus->trace);
    if (!validated) {
      result.fail_check("validation failed for " + corpus->names[i] + ": " +
                        validated.error().message);
      continue;
    }
    rel_err.push_back(validated.value().rel_err);
  }

  if (!options.trace) {
    double sum = 0.0;
    for (const double e : rel_err) sum += e;
    set_end_to_end(result, windowed(samples, 0), setup_s,
                   rel_err.empty() ? 0.0 : sum / static_cast<double>(rel_err.size()));
  }
  result.notes.push_back(strf("cold_map: one caller thread, pool jobs %zu; %zu analyses per pass "
                              "(%zu NFs x %zu NICs), %zu timed analyses, %zu validated NFs",
                              options.threads, per_pass, corpus->nfs.size(), corpus->analyzers.size(),
                              samples.size(), rel_err.size()));
  // Where a cold pass goes: the analyses taking over 5% of it.
  std::vector<double> op_ms(per_pass, 0.0);
  double pass_ms = 0.0;
  for (std::size_t op = 0; op < per_pass; ++op) {
    Series mine;
    for (std::size_t i = op; i < samples.size(); i += per_pass) mine.add(samples[i].latency_ms);
    op_ms[op] = mine.percentile(0.5);
    pass_ms += op_ms[op];
  }
  for (std::size_t op = 0; op < per_pass; ++op) {
    if (op_ms[op] < 0.05 * pass_ms) continue;
    result.notes.push_back(strf("  %s: median %.3f ms, %.1f%% of a %.3f ms pass",
                                corpus->op_name(op).c_str(), op_ms[op],
                                100.0 * op_ms[op] / pass_ms, pass_ms));
  }
  return result;
}

}  // namespace clarabench
