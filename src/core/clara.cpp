#include "core/clara.hpp"

#include <sstream>

#include "cir/hash.hpp"
#include "cir/verify.hpp"
#include "common/strings.hpp"
#include "core/cache.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "passes/dataflow.hpp"

namespace clara::core {

namespace {

/// Every analysis failure exits through here so the flight recorder's
/// last few thousand events (cache lookups, solver waves, pool activity)
/// land on disk next to the error message. auto_dump throttles itself to
/// once per process.
Error dump_on_failure(Error error) {
  obs::recorder().auto_dump(std::string("analysis_") + to_string(error.code));
  return error;
}

/// The pipeline analyze() and repair() share: lowering and the dataflow
/// graph, each served from the analysis cache when its key matches, then
/// `map_step(mapper, graph, hints, map_options, gkey)` — the one stage
/// where the two differ — then prediction and the porting report.
template <typename MapStep>
Result<Analysis> run_pipeline(const Analyzer& analyzer, const cir::Function& nf, const workload::Trace& trace,
                              const AnalyzeOptions& options, bool use_cache, MapStep map_step) {
  auto& cache = analysis_cache();

  // Stage 1: lowering (substitution -> patterns -> optimize -> verify).
  // Cached on the *input* function's content plus the stage toggles.
  // Only successful lowerings are cached; the unknown-calls policy is
  // applied after retrieval so a cached entry serves both policies.
  std::uint64_t lkey = 0;
  std::shared_ptr<const LoweredEntry> lowered;
  if (use_cache) {
    lkey = lowered_key(cir::hash_function(nf), options.stages.patterns(), options.stages.optimize());
    lowered = cache.find_lowered(lkey);
  }
  if (!lowered) {
    auto entry = std::make_shared<LoweredEntry>();
    entry->fn = nf;  // operate on a copy; the caller's NF is untouched
    entry->substitution = passes::substitute_framework_apis(entry->fn);
    if (options.stages.patterns()) {
      entry->patterns = passes::collapse_packet_loops(entry->fn);
    }
    if (options.stages.optimize()) {
      entry->optimizations = passes::optimize(entry->fn);
    }
    {
      CLARA_TRACE_SCOPE("cir/verify");
      if (auto status = cir::verify(entry->fn); !status) {
        return dump_on_failure(make_error(
            ErrorCode::kVerify, "lowered NF failed verification: " + status.error().message));
      }
    }
    entry->lowered_hash = cir::hash_function(entry->fn);
    if (use_cache) cache.insert_lowered(lkey, entry);
    lowered = std::move(entry);
  }

  if (options.fail_on_unknown_calls && !lowered->substitution.unknown_calls.empty()) {
    std::ostringstream os;
    os << "unrecognized calls in '" << nf.name << "':";
    for (const auto& name : lowered->substitution.unknown_calls) os << " " << name;
    return dump_on_failure(make_error(ErrorCode::kUnknownCall, os.str()));
  }

  Analysis analysis;
  analysis.lowered = lowered->fn;
  analysis.substitution = lowered->substitution;
  analysis.patterns = lowered->patterns;
  analysis.optimizations = lowered->optimizations;

  // Stage 2: dataflow graph. Keyed on the *lowered* function's hash so
  // holders of a lowered function (the load-sweep driver) can address
  // the same entry without re-running stage 1, and on the profile's
  // hash (offline/derate state included) so a faulted profile never
  // aliases the healthy profile's entry.
  const lnic::NicProfile& profile = analyzer.profile();
  const workload::FlowStats flows = workload::flow_stats(trace.packets);
  const passes::CostHints hints = hints_from_trace(trace, flows, profile);
  std::uint64_t gkey = 0;
  std::shared_ptr<const GraphEntry> graph_entry;
  if (use_cache) {
    gkey = graph_key(lowered->lowered_hash, hash_hints(hints), analyzer.profile_hash());
    graph_entry = cache.find_graph(gkey);
  }
  if (!graph_entry) {
    auto entry = std::make_shared<GraphEntry>();
    entry->lowered = lowered;  // keep-alive: the graph points into this fn
    entry->graph = passes::DataflowGraph::build(entry->lowered->fn, hints);
    if (use_cache) cache.insert_graph(gkey, entry);
    graph_entry = std::move(entry);
  }
  const passes::DataflowGraph& graph = graph_entry->graph;

  mapping::MapOptions map_options = options.map;
  if (map_options.pps == mapping::MapOptions{}.pps && trace.profile.pps > 0.0) {
    map_options.pps = trace.profile.pps;
  }

  // Stage 3: the mapping.
  const mapping::Mapper mapper(profile);
  Result<mapping::Mapping> mapped = map_step(mapper, graph, hints, map_options, gkey);
  if (!mapped) return dump_on_failure(mapped.error());
  analysis.mapping = std::move(mapped).value();
  analysis.degraded = analysis.mapping.degraded;
  analysis.repaired = analysis.mapping.repaired;

  auto prediction = predict(analysis.lowered, graph, analysis.mapping, mapper, trace, flows, hints, options.predict);
  if (!prediction) return dump_on_failure(prediction.error());
  analysis.prediction = std::move(prediction).value();

  analysis.report = mapping::describe_mapping(analysis.mapping, graph, mapper, analysis.lowered);
  return analysis;
}

}  // namespace

Analyzer::Analyzer(lnic::NicProfile profile)
    : profile_(std::move(profile)), profile_hash_(hash_profile(profile_)) {}

Result<Analysis> Analyzer::analyze(const cir::Function& nf, const workload::Trace& trace,
                                   const AnalyzeOptions& options) const {
  CLARA_TRACE_SCOPE("core/analyze");
  auto& cache = analysis_cache();
  const bool use_cache = options.use_cache && cache.enabled();

  // The mapping solve is the expensive stage the cache exists for. A hit
  // skips the ILP entirely; a miss within a known model family (same
  // model, different time budget) warm-starts the root relaxation from
  // the family's last recorded basis.
  return run_pipeline(
      *this, nf, trace, options, use_cache,
      [&](const mapping::Mapper& mapper, const passes::DataflowGraph& graph, const passes::CostHints& hints,
          const mapping::MapOptions& map_options, std::uint64_t gkey) -> Result<mapping::Mapping> {
        std::uint64_t mkey = 0;
        std::uint64_t family = 0;
        if (use_cache) {
          mkey = mapping_key(gkey, map_options, options.stages.ilp(), &family);
          if (auto hit = cache.find_mapping(mkey)) return hit->mapping;
        }
        mapping::MapOptions solve_options = map_options;
        if (use_cache && options.stages.ilp() && solve_options.warm_basis.empty()) {
          solve_options.warm_basis = cache.family_basis(family);
        }
        auto mapped = options.stages.ilp() ? mapper.map(graph, hints, solve_options)
                                           : mapper.map_greedy(graph, hints, solve_options);
        if (!mapped) return mapped.error();
        auto entry = std::make_shared<MappingEntry>();
        entry->mapping = std::move(mapped).value();
        if (use_cache) cache.insert_mapping(mkey, family, entry);
        return entry->mapping;
      });
}

Result<Analysis> Analyzer::repair(const cir::Function& nf, const workload::Trace& trace,
                                  const Analysis& previous, const AnalyzeOptions& options) const {
  CLARA_TRACE_SCOPE("core/repair");
  auto& cache = analysis_cache();
  const bool use_cache = options.use_cache && cache.enabled();

  // Incremental repair instead of a cold solve. The pinned model still
  // warm-starts from the model family's recorded basis when one exists.
  // The result is deliberately NOT inserted into the mapping cache.
  return run_pipeline(
      *this, nf, trace, options, use_cache,
      [&](const mapping::Mapper& mapper, const passes::DataflowGraph& graph, const passes::CostHints& hints,
          const mapping::MapOptions& map_options, std::uint64_t gkey) -> Result<mapping::Mapping> {
        mapping::MapOptions solve_options = map_options;
        if (use_cache && options.stages.ilp() && solve_options.warm_basis.empty()) {
          std::uint64_t family = 0;
          (void)mapping_key(gkey, map_options, options.stages.ilp(), &family);
          solve_options.warm_basis = cache.family_basis(family);
        }
        if (options.stages.ilp()) return mapper.repair(graph, hints, previous.mapping, solve_options);
        auto greedy = mapper.map_greedy(graph, hints, solve_options);
        if (greedy) greedy.value().repaired = true;  // greedy re-solve is still a repair
        return greedy;
      });
}

namespace {

/// EMEM working-set pressure one NF exerts on its neighbours: active
/// bytes of its EMEM-placed state objects, plus the spilled packet-tail
/// buffer pool when its traffic exceeds the CTM residency.
double emem_pressure(const Analysis& analysis, const workload::Trace& trace, const lnic::NicProfile& profile) {
  double pressure = 0.0;
  const double residency = profile.params.scalar(lnic::keys::kCtmPacketResidency);
  if (residency > 0.0 && trace.mean_payload() + 54.0 > residency) pressure += 1024.0 * 2048.0;
  const std::uint32_t flows = trace.distinct_flows();
  for (std::size_t s = 0; s < analysis.lowered.state_objects.size(); ++s) {
    const NodeId region = analysis.mapping.state_region[s];
    const auto* mem = profile.graph.node(region).memory();
    if (mem == nullptr || mem->kind != lnic::MemKind::kEmem) continue;
    const auto& obj = analysis.lowered.state_objects[s];
    double active = static_cast<double>(obj.total_bytes());
    if (obj.pattern == cir::StatePattern::kHashTable) {
      active = std::min(active, static_cast<double>(flows) * static_cast<double>(obj.entry_bytes));
    }
    pressure += active;
  }
  return pressure;
}

}  // namespace

Result<CoResident> Analyzer::coresident(const cir::Function& nf_a, const workload::Trace& trace_a,
                                        const cir::Function& nf_b, const workload::Trace& trace_b,
                                        const AnalyzeOptions& options) const {
  // Solo pass to obtain mappings and working sets. The shared pass below
  // re-analyzes under interference options that only perturb prediction,
  // so its lowering/graph/mapping stages all hit the cache warm.
  auto solo_a = analyze(nf_a, trace_a, options);
  if (!solo_a) return solo_a.error();
  auto solo_b = analyze(nf_b, trace_b, options);
  if (!solo_b) return solo_b.error();

  const double pressure_a = emem_pressure(solo_a.value(), trace_a, profile_);
  const double pressure_b = emem_pressure(solo_b.value(), trace_b, profile_);

  AnalyzeOptions opts_a = options;
  opts_a.predict.nic_share = 0.5;
  opts_a.predict.foreign_cache_pressure_bytes = pressure_b;
  AnalyzeOptions opts_b = options;
  opts_b.predict.nic_share = 0.5;
  opts_b.predict.foreign_cache_pressure_bytes = pressure_a;

  auto shared_a = analyze(nf_a, trace_a, opts_a);
  if (!shared_a) return shared_a.error();
  auto shared_b = analyze(nf_b, trace_b, opts_b);
  if (!shared_b) return shared_b.error();

  CoResident out;
  out.first = std::move(shared_a).value();
  out.second = std::move(shared_b).value();
  return out;
}

}  // namespace clara::core
