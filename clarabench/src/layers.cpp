#include "layers.hpp"

#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "core/cache.hpp"
#include "core/request.hpp"
#include "obs/metrics.hpp"
#include "staged.hpp"

namespace clarabench {

using namespace clara;

Counters Counters::now() {
  auto& registry = obs::metrics();
  Counters c;
  c.ilp_solves = registry.counter("ilp/solves").value();
  c.ilp_pivots = registry.counter("ilp/pivots").value();
  c.ilp_nodes = registry.counter("ilp/nodes_explored").value();
  c.ilp_deadline_hits = registry.counter("ilp/deadline_hits").value();
  const core::CacheStats cache = core::analysis_cache().stats();
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  c.cache_evictions = cache.evictions;
  c.nicsim_packets = registry.counter("nicsim/packets").value();
  c.sweep_shard_retries = registry.counter("sweep/shard_retries").value();
  for (const auto kind : {core::RequestKind::kAnalyze, core::RequestKind::kSweep,
                          core::RequestKind::kRepair, core::RequestKind::kValidate}) {
    c.serve_rejected +=
        registry.counter("serve/rejected", std::string("kind=") + core::to_string(kind)).value();
  }
  const parallel::PoolStats pool = parallel::pool().stats();
  c.pool_tasks_run = pool.tasks_run;
  c.pool_steals = pool.steals;
  c.pool_busy_ns = pool.worker_busy_ns;
  return c;
}

Counters& Counters::operator+=(const Counters& o) {
  ilp_solves += o.ilp_solves;
  ilp_pivots += o.ilp_pivots;
  ilp_nodes += o.ilp_nodes;
  ilp_deadline_hits += o.ilp_deadline_hits;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_evictions += o.cache_evictions;
  nicsim_packets += o.nicsim_packets;
  sweep_shard_retries += o.sweep_shard_retries;
  serve_rejected += o.serve_rejected;
  pool_tasks_run += o.pool_tasks_run;
  pool_steals += o.pool_steals;
  pool_busy_ns += o.pool_busy_ns;
  return *this;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.ilp_solves = a.ilp_solves - b.ilp_solves;
  d.ilp_pivots = a.ilp_pivots - b.ilp_pivots;
  d.ilp_nodes = a.ilp_nodes - b.ilp_nodes;
  d.ilp_deadline_hits = a.ilp_deadline_hits - b.ilp_deadline_hits;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.cache_evictions = a.cache_evictions - b.cache_evictions;
  d.nicsim_packets = a.nicsim_packets - b.nicsim_packets;
  d.sweep_shard_retries = a.sweep_shard_retries - b.sweep_shard_retries;
  d.serve_rejected = a.serve_rejected - b.serve_rejected;
  d.pool_tasks_run = a.pool_tasks_run - b.pool_tasks_run;
  d.pool_steals = a.pool_steals - b.pool_steals;
  d.pool_busy_ns = a.pool_busy_ns - b.pool_busy_ns;
  return d;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"workload.tracegen_ms", "ms"},
      {"workload.tracegen_ns_per_pkt", "ns"},
      {"workload.packets", "count/op"},
      {"passes.lower_ms", "ms"},
      {"passes.dataflow_ms", "ms"},
      {"core.hints_ms", "ms"},
      {"core.predict_ms", "ms"},
      {"core.predict_ns_per_pkt", "ns"},
      {"core.sweep_ms", "ms"},
      {"mapping.map_ms", "ms"},
      {"mapping.repair_ms", "ms"},
      {"mapping.describe_ms", "ms"},
      {"ilp.solves", "count/op"},
      {"ilp.pivots", "count/op"},
      {"ilp.nodes_explored", "count/op"},
      {"ilp.ns_per_pivot", "ns"},
      {"ilp.deadline_hits", "count"},
      {"cache.ops_ms", "ms"},
      {"cache.hits", "count/op"},
      {"cache.misses", "count/op"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions", "count/op"},
      {"nicsim.setup_ms", "ms"},
      {"nicsim.run_ms", "ms"},
      {"nicsim.ns_per_pkt", "ns"},
      {"nicsim.packets", "count/op"},
      {"serve.service_ms.analyze", "ms"},
      {"serve.service_ms.sweep", "ms"},
      {"serve.service_ms.repair", "ms"},
      {"serve.service_ms.validate", "ms"},
      {"serve.wire_us", "us"},
      {"serve.transport_queue_ms", "ms"},
      {"serve.rejected", "count"},
      {"serve.client_retries", "count"},
      {"parallel.tasks_run", "count/op"},
      {"parallel.steals", "count/op"},
      {"parallel.busy_ratio", "ratio"},
      {"sweep.shard_retries", "count"},
      {"trace.coverage", "ratio"},
      {"trace.coverage_p5", "ratio"},
      {"trace.unattributed_ms", "ms"},
      {"trace.overhead", "ratio"},
  };
  return kMetrics;
}

void set_per_layer_metrics(RunResult& result, const TracedRun& run) {
  for (const auto& [name, unit] : per_layer_metrics()) result.set(name, 0.0, unit);
  const LayerSummary& s = run.layers;
  const auto per_op = [&](std::uint64_t count) {
    return s.ops == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(s.ops);
  };
  const auto untraced_per_op = [&](std::uint64_t count) {
    return run.untraced_ops == 0
               ? 0.0
               : static_cast<double>(count) / static_cast<double>(run.untraced_ops);
  };
  const auto set = [&](const std::string& name, double value) {
    result.metrics.at(name).value = value;  // names come from per_layer_metrics()
  };

  set("workload.tracegen_ms", s.per_op_ms(layer::kTracegen));
  set("workload.tracegen_ns_per_pkt", s.ns_per_packet(layer::kTracegen));
  set("workload.packets", per_op(s.packets(layer::kTracegen)));
  set("passes.lower_ms", s.per_op_ms(layer::kLower));
  set("passes.dataflow_ms", s.per_op_ms(layer::kDataflow));
  set("core.hints_ms", s.per_op_ms(layer::kHints));
  set("core.predict_ms", s.per_op_ms(layer::kPredict));
  set("core.predict_ns_per_pkt", s.ns_per_packet(layer::kPredict));
  set("core.sweep_ms", s.per_op_ms(layer::kSweep));
  set("mapping.map_ms", s.per_op_ms(layer::kMap));
  set("mapping.repair_ms", s.per_op_ms(layer::kRepair));
  set("mapping.describe_ms", s.per_op_ms(layer::kDescribe));

  const Counters& t = run.traced;
  set("ilp.solves", per_op(t.ilp_solves));
  set("ilp.pivots", per_op(t.ilp_pivots));
  set("ilp.nodes_explored", per_op(t.ilp_nodes));
  const double ilp_ms = s.ms(layer::kMap) + s.ms(layer::kRepair);
  set("ilp.ns_per_pivot",
      t.ilp_pivots == 0 ? 0.0 : ilp_ms * 1e6 / static_cast<double>(t.ilp_pivots));
  set("ilp.deadline_hits", static_cast<double>(t.ilp_deadline_hits + run.untraced.ilp_deadline_hits));
  set("cache.ops_ms", s.per_op_ms(layer::kCache));
  set("cache.hits", per_op(t.cache_hits));
  set("cache.misses", per_op(t.cache_misses));
  const std::uint64_t lookups = t.cache_hits + t.cache_misses;
  set("cache.hit_ratio",
      lookups == 0 ? 0.0 : static_cast<double>(t.cache_hits) / static_cast<double>(lookups));
  set("cache.evictions", per_op(t.cache_evictions));
  set("nicsim.setup_ms", s.per_op_ms(layer::kSimSetup));
  set("nicsim.run_ms", s.per_op_ms(layer::kSimRun));
  set("nicsim.ns_per_pkt", s.ns_per_packet(layer::kSimRun));
  set("nicsim.packets", per_op(t.nicsim_packets));

  for (const auto& [kind, ms] : run.service_ms) set("serve.service_ms." + kind, ms);
  set("serve.wire_us", s.per_op_ms(layer::kWire) * 1e3);
  set("serve.transport_queue_ms", run.transport_queue_ms);
  set("serve.rejected", static_cast<double>(run.untraced.serve_rejected));
  set("serve.client_retries", static_cast<double>(run.client_retries));

  const Counters& u = run.untraced;
  set("parallel.tasks_run", untraced_per_op(u.pool_tasks_run));
  set("parallel.steals", untraced_per_op(u.pool_steals));
  const double workers = static_cast<double>(parallel::pool().workers());
  set("parallel.busy_ratio", workers <= 0.0 || run.untraced_wall_s <= 0.0
                                 ? 0.0
                                 : static_cast<double>(u.pool_busy_ns) /
                                       (workers * run.untraced_wall_s * 1e9));
  set("sweep.shard_retries", static_cast<double>(u.sweep_shard_retries + t.sweep_shard_retries));

  set("trace.coverage", s.coverage);
  set("trace.coverage_p5", s.coverage_p5);
  double attributed = 0.0;
  for (const auto& [name, ms] : s.layer_ms) attributed += ms;
  set("trace.unattributed_ms",
      s.ops == 0 ? 0.0 : (s.op_wall_ms - attributed) / static_cast<double>(s.ops));
  set("trace.overhead", run.traced_ops_per_s > 0.0
                            ? run.untraced_ops_per_s / run.traced_ops_per_s - 1.0
                            : 0.0);

  result.notes.push_back(strf("traced operations: %llu (coverage %.4f, p5 per op %.4f)",
                              (unsigned long long)s.ops, s.coverage, s.coverage_p5));
  for (auto& line : s.render()) result.notes.push_back("  " + line);
  result.notes.push_back(strf("tracing overhead: untraced %.2f ops/s, traced %.2f ops/s",
                              run.untraced_ops_per_s, run.traced_ops_per_s));
}

}  // namespace clarabench
