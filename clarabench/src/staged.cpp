#include "staged.hpp"

#include <sstream>

#include "cir/hash.hpp"
#include "cir/verify.hpp"
#include "common/strings.hpp"
#include "core/cache.hpp"
#include "nf/nf_cir.hpp"
#include "nf/nf_ported.hpp"
#include "nicsim/sim.hpp"
#include "passes/dataflow.hpp"

namespace clarabench {

using namespace clara;

namespace {

/// Lowering and graph stages shared by analyze and repair, mirroring
/// the first half of Analyzer::analyze (the two library functions run
/// the identical sequence).
struct Front {
  std::shared_ptr<const core::LoweredEntry> lowered;
  std::shared_ptr<const core::GraphEntry> graph;
  passes::CostHints hints;
  std::uint64_t gkey = 0;
  mapping::MapOptions map_options;
};

Result<Front> staged_front(SpanLog* log, const core::Analyzer& analyzer, const cir::Function& nf,
                           const workload::Trace& trace, const core::AnalyzeOptions& options,
                           core::Analysis& analysis) {
  auto& cache = core::analysis_cache();
  const bool use_cache = options.use_cache && cache.enabled();
  Front front;

  std::uint64_t lkey = 0;
  if (use_cache) {
    Scope span(log, layer::kCache);
    lkey = core::lowered_key(cir::hash_function(nf), options.stages.patterns(),
                             options.stages.optimize());
    front.lowered = cache.find_lowered(lkey);
  }
  if (!front.lowered) {
    auto entry = std::make_shared<core::LoweredEntry>();
    {
      Scope span(log, layer::kLower);
      entry->fn = nf;
      entry->substitution = passes::substitute_framework_apis(entry->fn);
      if (options.stages.patterns()) entry->patterns = passes::collapse_packet_loops(entry->fn);
      if (options.stages.optimize()) entry->optimizations = passes::optimize(entry->fn);
      if (auto status = cir::verify(entry->fn); !status) {
        return make_error(ErrorCode::kVerify,
                          "lowered NF failed verification: " + status.error().message);
      }
      entry->lowered_hash = cir::hash_function(entry->fn);
    }
    if (use_cache) {
      Scope span(log, layer::kCache);
      cache.insert_lowered(lkey, entry);
    }
    front.lowered = std::move(entry);
  }
  if (options.fail_on_unknown_calls && !front.lowered->substitution.unknown_calls.empty()) {
    std::ostringstream os;
    os << "unrecognized calls in '" << nf.name << "':";
    for (const auto& name : front.lowered->substitution.unknown_calls) os << " " << name;
    return make_error(ErrorCode::kUnknownCall, os.str());
  }
  analysis.lowered = front.lowered->fn;
  analysis.substitution = front.lowered->substitution;
  analysis.patterns = front.lowered->patterns;
  analysis.optimizations = front.lowered->optimizations;

  {
    Scope span(log, layer::kHints);
    front.hints = core::hints_from_trace(trace, analyzer.profile());
  }
  if (use_cache) {
    Scope span(log, layer::kCache);
    front.gkey = core::graph_key(front.lowered->lowered_hash, core::hash_hints(front.hints),
                                 analyzer.profile_hash());
    front.graph = cache.find_graph(front.gkey);
  }
  if (!front.graph) {
    auto entry = std::make_shared<core::GraphEntry>();
    {
      Scope span(log, layer::kDataflow);
      entry->lowered = front.lowered;
      entry->graph = passes::DataflowGraph::build(entry->lowered->fn, front.hints);
    }
    if (use_cache) {
      Scope span(log, layer::kCache);
      cache.insert_graph(front.gkey, entry);
    }
    front.graph = std::move(entry);
  }

  front.map_options = options.map;
  if (front.map_options.pps == mapping::MapOptions{}.pps && trace.profile.pps > 0.0) {
    front.map_options.pps = trace.profile.pps;
  }
  return front;
}

/// Prediction and porting report, the tail both library functions share.
Status staged_back(SpanLog* log, const mapping::Mapper& mapper, const Front& front,
                   const workload::Trace& trace, const core::AnalyzeOptions& options,
                   core::Analysis& analysis) {
  const passes::DataflowGraph& graph = front.graph->graph;
  {
    Scope span(log, layer::kPredict);
    auto prediction =
        core::predict(analysis.lowered, graph, analysis.mapping, mapper, trace, options.predict);
    if (!prediction) return prediction.error();
    analysis.prediction = std::move(prediction).value();
  }
  if (log != nullptr) log->count_packets(layer::kPredict, trace.size());
  Scope span(log, layer::kDescribe);
  analysis.report = mapping::describe_mapping(analysis.mapping, graph, mapper, analysis.lowered);
  return {};
}

}  // namespace

Result<core::Analysis> staged_analyze(SpanLog* log, const core::Analyzer& analyzer,
                                      const cir::Function& nf, const workload::Trace& trace,
                                      const core::AnalyzeOptions& options) {
  auto& cache = core::analysis_cache();
  const bool use_cache = options.use_cache && cache.enabled();
  core::Analysis analysis;
  auto front = staged_front(log, analyzer, nf, trace, options, analysis);
  if (!front) return front.error();
  const Front& f = front.value();

  std::uint64_t mkey = 0;
  std::uint64_t family = 0;
  std::shared_ptr<const core::MappingEntry> mapping_entry;
  if (use_cache) {
    Scope span(log, layer::kCache);
    mkey = core::mapping_key(f.gkey, f.map_options, options.stages.ilp(), &family);
    mapping_entry = cache.find_mapping(mkey);
  }
  std::unique_ptr<mapping::Mapper> mapper;
  if (!mapping_entry) {
    auto entry = std::make_shared<core::MappingEntry>();
    {
      Scope span(log, layer::kMap);
      mapper = std::make_unique<mapping::Mapper>(analyzer.profile());
      mapping::MapOptions solve_options = f.map_options;
      if (use_cache && options.stages.ilp() && solve_options.warm_basis.empty()) {
        solve_options.warm_basis = cache.family_basis(family);
      }
      auto mapped = options.stages.ilp() ? mapper->map(f.graph->graph, f.hints, solve_options)
                                         : mapper->map_greedy(f.graph->graph, f.hints, solve_options);
      if (!mapped) return mapped.error();
      entry->mapping = std::move(mapped).value();
    }
    if (use_cache) {
      Scope span(log, layer::kCache);
      cache.insert_mapping(mkey, family, entry);
    }
    mapping_entry = std::move(entry);
  } else {
    Scope span(log, layer::kMap);
    mapper = std::make_unique<mapping::Mapper>(analyzer.profile());
  }
  analysis.mapping = mapping_entry->mapping;
  analysis.degraded = analysis.mapping.degraded;
  if (auto status = staged_back(log, *mapper, f, trace, options, analysis); !status) {
    return status.error();
  }
  return analysis;
}

Result<core::Analysis> staged_repair(SpanLog* log, const core::Analyzer& analyzer,
                                     const cir::Function& nf, const workload::Trace& trace,
                                     const core::Analysis& previous,
                                     const core::AnalyzeOptions& options) {
  auto& cache = core::analysis_cache();
  const bool use_cache = options.use_cache && cache.enabled();
  core::Analysis analysis;
  auto front = staged_front(log, analyzer, nf, trace, options, analysis);
  if (!front) return front.error();
  const Front& f = front.value();

  std::unique_ptr<mapping::Mapper> mapper;
  {
    Scope span(log, layer::kRepair);
    mapper = std::make_unique<mapping::Mapper>(analyzer.profile());
    mapping::MapOptions solve_options = f.map_options;
    if (use_cache && options.stages.ilp() && solve_options.warm_basis.empty()) {
      std::uint64_t family = 0;
      (void)core::mapping_key(f.gkey, f.map_options, options.stages.ilp(), &family);
      solve_options.warm_basis = cache.family_basis(family);
    }
    auto repaired = options.stages.ilp()
                        ? mapper->repair(f.graph->graph, f.hints, previous.mapping, solve_options)
                        : mapper->map_greedy(f.graph->graph, f.hints, solve_options);
    if (!repaired) return repaired.error();
    analysis.mapping = std::move(repaired).value();
  }
  if (!options.stages.ilp()) analysis.mapping.repaired = true;
  analysis.degraded = analysis.mapping.degraded;
  analysis.repaired = analysis.mapping.repaired;
  if (auto status = staged_back(log, *mapper, f, trace, options, analysis); !status) {
    return status.error();
  }
  return analysis;
}

Result<cir::Function> scenario_function(const obs::ValidationScenario& s) {
  if (s.nf == "lpm") {
    return nf::build_lpm_nf({.rules = s.lpm_rules, .use_flow_cache = s.lpm_flow_cache});
  }
  if (s.nf == "nat") return nf::build_nat_nf();
  if (s.nf == "firewall") return nf::build_fw_nf();
  if (s.nf == "dpi") return nf::build_dpi_nf();
  if (s.nf == "heavy-hitter") return nf::build_hh_nf();
  if (s.nf == "meter") return nf::build_meter_nf();
  if (s.nf == "flow-stats") return nf::build_flowstats_nf();
  if (s.nf == "rewrite") return nf::build_rewrite_nf();
  if (s.nf == "vnf-chain") return nf::build_vnf_chain();
  if (s.nf == "crypto-gw") return nf::build_crypto_gw_nf();
  return make_error(strf("no validation recipe for NF '%s'", s.nf.c_str()));
}

Result<obs::ScenarioResult> staged_validate(SpanLog* log, const core::Analyzer& analyzer,
                                            const obs::ValidationScenario& s,
                                            const core::Analysis& analysis,
                                            const workload::Trace& trace) {
  std::unique_ptr<nicsim::NicSim> sim;
  std::unique_ptr<nicsim::NicProgram> program;
  {
    // The hand-ported program with table placements aligned to the
    // mapping, as the accuracy ledger builds it.
    Scope span(log, layer::kSimSetup);
    sim = std::make_unique<nicsim::NicSim>();
    const auto level = [&](std::size_t i) {
      if (i >= analysis.mapping.state_region.size()) return nicsim::MemLevel::kEmem;
      switch (analyzer.profile().graph.node(analysis.mapping.state_region[i]).memory()->kind) {
        case lnic::MemKind::kLocal: return nicsim::MemLevel::kLocal;
        case lnic::MemKind::kCtm: return nicsim::MemLevel::kCtm;
        case lnic::MemKind::kImem: return nicsim::MemLevel::kImem;
        case lnic::MemKind::kEmem: return nicsim::MemLevel::kEmem;
      }
      return nicsim::MemLevel::kEmem;
    };
    if (s.nf == "lpm") {
      if (analysis.prediction.breakdown.at(obs::Component::kLpmEngine) <= 0.0) {
        return make_error(strf("mapping for '%s' keeps the LPM walk off the engine",
                               s.name().c_str()));
      }
      auto& lpm = sim->create_lpm("routes", s.lpm_rules, s.lpm_flow_cache ? 4096 : 0);
      program = std::make_unique<nf::LpmProgram>(lpm, s.lpm_flow_cache);
    } else if (s.nf == "nat") {
      program = std::make_unique<nf::NatProgram>(
          sim->create_table("flow_table", 131072, 64, level(0)), true);
    } else if (s.nf == "firewall") {
      auto& conn = sim->create_table("conn_table", 16384, 64, level(0));
      auto& rules = sim->create_table("rules", 1024, 32, level(1));
      program = std::make_unique<nf::FwProgram>(conn, rules);
    } else if (s.nf == "dpi") {
      program = std::make_unique<nf::DpiProgram>();
    } else if (s.nf == "heavy-hitter") {
      program = std::make_unique<nf::HhProgram>(sim->create_table("counters", 16384, 32, level(0)));
    } else if (s.nf == "meter") {
      program = std::make_unique<nf::MeterProgram>(sim->create_table("buckets", 4096, 32, level(0)));
    } else if (s.nf == "flow-stats") {
      program =
          std::make_unique<nf::FlowStatsProgram>(sim->create_table("flow_stats", 16384, 32, level(0)));
    } else if (s.nf == "rewrite") {
      program = std::make_unique<nf::RewriteProgram>();
    } else if (s.nf == "vnf-chain") {
      auto& meters = sim->create_table("meters", 4096, 32, level(0));
      auto& stats = sim->create_table("flow_stats", 16384, 32, level(1));
      program = std::make_unique<nf::VnfProgram>(meters, stats);
    } else if (s.nf == "crypto-gw") {
      program = std::make_unique<nf::CryptoGwProgram>(sim->create_table("sa_table", 4096, 64, level(0)),
                                                      true);
    } else {
      return make_error(strf("no ported implementation for NF '%s'", s.nf.c_str()));
    }
  }
  nicsim::RunStats stats;
  {
    Scope span(log, layer::kSimRun);
    stats = sim->run(*program, trace);
  }
  if (log != nullptr) log->count_packets(layer::kSimRun, trace.size());
  if (stats.packets == 0 || stats.mean_latency() <= 0.0) {
    return make_error(strf("simulator delivered no packets for '%s'", s.nf.c_str()));
  }
  obs::ScenarioResult result;
  result.scenario = s;
  result.seed = trace.profile.seed;
  result.ok = true;
  result.predicted_cycles = analysis.prediction.mean_latency_cycles;
  result.simulated_cycles = stats.mean_latency();
  result.rel_err =
      std::abs(result.predicted_cycles - result.simulated_cycles) / result.simulated_cycles;
  result.predicted = analysis.prediction.breakdown;
  result.simulated = stats.breakdown.means();
  return result;
}

std::string same_analysis(const core::Analysis& a, const core::Analysis& b) {
  const auto& pa = a.prediction;
  const auto& pb = b.prediction;
  if (pa.mean_latency_cycles != pb.mean_latency_cycles) return "mean_latency_cycles";
  if (pa.worst_case_cycles != pb.worst_case_cycles) return "worst_case_cycles";
  if (pa.throughput_pps != pb.throughput_pps) return "throughput_pps";
  if (pa.bottleneck != pb.bottleneck) return "bottleneck";
  if (pa.breakdown.cycles != pb.breakdown.cycles) return "breakdown";
  if (pa.classes.size() != pb.classes.size()) return "class count";
  for (std::size_t i = 0; i < pa.classes.size(); ++i) {
    if (pa.classes[i].latency_cycles != pb.classes[i].latency_cycles ||
        pa.classes[i].fraction != pb.classes[i].fraction) {
      return "class " + pa.classes[i].name;
    }
  }
  if (a.mapping.objective != b.mapping.objective) return "mapping objective";
  if (a.mapping.node_pool != b.mapping.node_pool) return "node placement";
  if (a.mapping.state_region != b.mapping.state_region) return "state placement";
  if (a.degraded != b.degraded || a.repaired != b.repaired) return "degraded/repaired flags";
  if (a.report != b.report) return "report";
  return {};
}

}  // namespace clarabench
