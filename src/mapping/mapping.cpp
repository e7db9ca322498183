#include "mapping/mapping.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <tuple>

#include "common/strings.hpp"
#include "ilp/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "passes/costmodel.hpp"

namespace clara::mapping {

using passes::CostHints;
using passes::DataflowGraph;
using passes::DfNode;

ilp::SolveOptions MapOptions::to_solve_options() const {
  ilp::SolveOptions solve;
  solve.max_nodes = max_ilp_nodes;
  solve.warm_basis = warm_basis;
  solve.algorithm = ilp_algorithm;
  if (time_budget_ms > 0.0) {
    solve.deadline = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(time_budget_ms));
  }
  return solve;
}

std::vector<UnitPool> build_pools(const lnic::Graph& graph) {
  std::map<std::tuple<int, int, bool>, UnitPool> grouped;  // (kind, stage, match-action) -> pool
  for (const NodeId id : graph.compute_units()) {
    const auto* cu = graph.node(id).compute();
    if (cu->offline) continue;  // faulted units never join a pool
    const auto key = std::make_tuple(static_cast<int>(cu->kind), cu->pipeline_stage, cu->match_action);
    auto& pool = grouped[key];
    if (pool.members.empty()) {
      pool.kind = cu->kind;
      pool.pipeline_stage = cu->pipeline_stage;
      pool.match_action = cu->match_action;
      pool.representative = id;
      pool.parallelism = 0.0;
      pool.name = lnic::to_string(cu->kind);
      if (cu->pipeline_stage != 0) pool.name += strf("@%d", cu->pipeline_stage);
    }
    pool.members.push_back(id);
    pool.parallelism += static_cast<double>(std::max(1, cu->threads)) * cu->derate;
  }
  std::vector<UnitPool> pools;
  pools.reserve(grouped.size());
  for (auto& [key, pool] : grouped) pools.push_back(std::move(pool));
  return pools;
}

Mapper::Mapper(const lnic::NicProfile& profile) : profile_(&profile), pools_(build_pools(profile.graph)) {}

bool Mapper::pool_feasible(const DfNode& node, const UnitPool& pool) const {
  for (const auto& site : node.vcalls) {
    if (!passes::unit_supports_vcall(pool.kind, pool.match_action, site.v)) return false;
  }
  return passes::unit_supports_general_compute(pool.kind, pool.match_action, node.mix);
}

double Mapper::access_cycles(const UnitPool& pool, NodeId region) const {
  // Average NUMA weight over pool members that can reach the region; a
  // pool where no member reaches it gets an effectively-infinite cost
  // (the ILP forbids the pairing with a hard constraint as well).
  double total = 0.0;
  int reachable = 0;
  for (const NodeId member : pool.members) {
    if (const auto w = profile_->graph.access_weight(member, region)) {
      total += *w;
      ++reachable;
    }
  }
  if (reachable == 0) return 1e12;
  const double avg_weight = total / reachable;
  const auto* mem = profile_->graph.node(region).memory();
  const char* key = nullptr;
  switch (mem->kind) {
    case lnic::MemKind::kLocal: key = lnic::keys::kMemReadLocal; break;
    case lnic::MemKind::kCtm: key = lnic::keys::kMemReadCtm; break;
    case lnic::MemKind::kImem: key = lnic::keys::kMemReadImem; break;
    case lnic::MemKind::kEmem: key = lnic::keys::kMemReadEmem; break;
  }
  return profile_->params.scalar(key) * avg_weight;
}

double Mapper::node_cost_on_pool(const DfNode& node, const UnitPool& pool, const cir::Function& fn,
                                 const CostHints& hints) const {
  const auto& params = profile_->params;
  double cycles = passes::mix_compute_cycles(node.mix, pool.kind, params);

  // Packet-byte accesses from explicit loads/stores in the mix.
  const double pkt_len = hints.avg_payload + 54.0;
  cycles += static_cast<double>(node.mix.packet_loads + node.mix.packet_stores) *
            passes::packet_access_cycles(pkt_len, -1.0, params);

  for (const auto& site : node.vcalls) {
    const double arg = site.arg_hint > 0.0 ? site.arg_hint : hints.avg_payload;
    const cir::StateObject* state = site.state != ~0u ? &fn.state_objects[site.state] : nullptr;
    cycles += passes::vcall_compute_cycles(site.v, pool.kind, arg, state, params, hints, site.use_flow_cache);
    // Payload scans stream packet bytes in cache-line chunks.
    if (site.v == cir::VCall::kPayloadScan) {
      cycles += std::ceil(arg / 64.0) * passes::packet_access_cycles(arg + 54.0, -1.0, params);
    }
  }
  return cycles;
}

double Mapper::node_queueable_cost_on_pool(const DfNode& node, const UnitPool& pool, const cir::Function& fn,
                                           const CostHints& hints) const {
  double cycles = node_cost_on_pool(node, pool, fn, hints);
  if (pool.kind == lnic::UnitKind::kLpmEngine) {
    const double front_end = profile_->params.scalar(lnic::keys::kFlowCacheHit);
    for (const auto& site : node.vcalls) {
      if (site.v != cir::VCall::kLpmLookup) continue;
      const cir::StateObject* state = site.state != ~0u ? &fn.state_objects[site.state] : nullptr;
      cycles -= passes::vcall_compute_cycles(site.v, pool.kind, 0.0, state, profile_->params, hints,
                                             site.use_flow_cache);
      cycles += front_end;
    }
  }
  return std::max(0.0, cycles);
}

double Mapper::node_state_accesses(const DfNode& node, lnic::UnitKind kind, std::uint32_t state,
                                   const cir::Function& fn) {
  double accesses = 0.0;
  const auto rit = node.mix.state_reads.find(state);
  if (rit != node.mix.state_reads.end()) accesses += static_cast<double>(rit->second);
  const auto wit = node.mix.state_writes.find(state);
  if (wit != node.mix.state_writes.end()) accesses += static_cast<double>(wit->second);
  for (const auto& site : node.vcalls) {
    if (site.state != state) continue;
    const cir::StateObject* obj = &fn.state_objects[state];
    accesses += passes::vcall_state_accesses(site.v, kind, obj);
  }
  return accesses;
}

std::vector<NodeId> Mapper::state_regions() const {
  std::vector<NodeId> out;
  for (const NodeId id : profile_->graph.memory_regions()) {
    const auto* mem = profile_->graph.node(id).memory();
    if (mem->kind == lnic::MemKind::kLocal) continue;  // per-core, not shareable state
    if (mem->offline) continue;                        // fault state: no new placements
    out.push_back(id);
  }
  return out;
}

namespace {

std::vector<PoolSignature> pool_signatures(const std::vector<UnitPool>& pools) {
  std::vector<PoolSignature> sigs;
  sigs.reserve(pools.size());
  for (const auto& p : pools)
    sigs.push_back(PoolSignature{p.kind, p.pipeline_stage, p.match_action, p.parallelism});
  return sigs;
}

}  // namespace

struct Mapper::Placement {
  ilp::Model model;
  std::vector<NodeId> regions;     // state_regions(), indexed by y's second subscript
  std::vector<int> pinned_pool;    // per node: pool index, -1 = free
  std::vector<int> pinned_region;  // per state: index into regions, -1 = free
  std::vector<std::vector<int>> x;  // x[i][p]: node i on pool p (-1: no variable)
  std::vector<std::vector<int>> y;  // y[s][r]: state s in region r (-1: no variable)

  /// The assignment the solution selects, pins included. Objective and
  /// pool signatures are left to the caller.
  [[nodiscard]] Mapping decode(const ilp::Solution& solution) const {
    Mapping mapping;
    mapping.status = solution.status;
    mapping.ilp_nodes_explored = solution.nodes_explored;
    mapping.ilp_pivots = solution.pivots;
    mapping.ilp_incumbents = solution.incumbents;
    mapping.degraded = solution.degraded;
    mapping.ilp_basis = solution.basis;
    mapping.node_pool.assign(x.size(), 0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (pinned_pool[i] >= 0) mapping.node_pool[i] = static_cast<std::uint32_t>(pinned_pool[i]);
      for (std::size_t p = 0; p < x[i].size(); ++p) {
        if (x[i][p] >= 0 && solution.value(x[i][p]) > 0.5) mapping.node_pool[i] = static_cast<std::uint32_t>(p);
      }
    }
    mapping.state_region.assign(y.size(), kInvalidNode);
    for (std::size_t s = 0; s < y.size(); ++s) {
      if (pinned_region[s] >= 0) mapping.state_region[s] = regions[pinned_region[s]];
      for (std::size_t r = 0; r < regions.size(); ++r) {
        if (y[s][r] >= 0 && solution.value(y[s][r]) > 0.5) mapping.state_region[s] = regions[r];
      }
    }
    return mapping;
  }
};

Result<Mapper::Placement> Mapper::build_placement(const DataflowGraph& graph, const CostHints& hints,
                                                  const MapOptions& options, std::vector<int> pinned_pool,
                                                  std::vector<int> pinned_region) const {
  const cir::Function& fn = *graph.function();
  const auto& nodes = graph.nodes();
  const std::size_t n_states = fn.state_objects.size();
  Placement placement;
  placement.regions = state_regions();
  placement.pinned_pool = std::move(pinned_pool);
  placement.pinned_region = std::move(pinned_region);
  placement.x.assign(nodes.size(), std::vector<int>(pools_.size(), -1));
  placement.y.assign(n_states, std::vector<int>(placement.regions.size(), -1));
  ilp::Model& model = placement.model;
  const auto& regions = placement.regions;
  const auto& pin_pool = placement.pinned_pool;
  const auto& pin_region = placement.pinned_region;
  auto& x = placement.x;
  auto& y = placement.y;

  auto usable_bytes = [&](std::size_t r) {
    const auto* mem = profile_->graph.node(regions[r]).memory();
    double usable = static_cast<double>(mem->capacity);
    if (mem->kind == lnic::MemKind::kCtm) usable *= options.ctm_state_fraction;
    return usable;
  };
  auto accesses = [&](std::size_t i, lnic::UnitKind kind, std::size_t s) {
    return node_state_accesses(nodes[i], kind, static_cast<std::uint32_t>(s), fn);
  };
  // False when node i on `pool` accesses state s but cannot reach region r.
  auto reaches = [&](std::size_t i, const UnitPool& pool, std::size_t s, std::size_t r) {
    return accesses(i, pool.kind, s) <= 0.0 || access_cycles(pool, regions[r]) < 1e11;
  };

  // x[i][p]: free node i on pool p (only feasible pairs get variables). A
  // pool that cannot reach a pinned state the node accesses is a hard
  // exclusion, as the forbid constraints below make it between free ones.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (pin_pool[i] >= 0) continue;
    ilp::LinExpr assign;
    bool any = false;
    for (std::size_t p = 0; p < pools_.size(); ++p) {
      if (!pool_feasible(nodes[i], pools_[p])) continue;
      bool reachable = true;
      for (std::size_t s = 0; s < n_states && reachable; ++s) {
        if (pin_region[s] >= 0 && !reaches(i, pools_[p], s, pin_region[s])) reachable = false;
      }
      if (!reachable) continue;
      x[i][p] = model.add_binary(strf("x_%zu_%zu", i, p));
      assign.add(x[i][p], 1.0);
      any = true;
    }
    if (!any) {
      return make_error(strf("node '%s' cannot be placed on any compute unit of %s", nodes[i].label.c_str(),
                             profile_->name.c_str()));
    }
    model.add_constraint(std::move(assign), ilp::Sense::kEq, 1.0, strf("assign_node_%zu", i));
  }

  // y[s][r]: free state s in region r, when it fits alone and every
  // pinned accessor can reach the region.
  for (std::size_t s = 0; s < n_states; ++s) {
    if (pin_region[s] >= 0) continue;
    ilp::LinExpr assign;
    bool any = false;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      if (static_cast<double>(fn.state_objects[s].total_bytes()) > usable_bytes(r)) continue;  // never fits alone
      bool reachable = true;
      for (std::size_t i = 0; i < nodes.size() && reachable; ++i) {
        if (pin_pool[i] >= 0 && !reaches(i, pools_[pin_pool[i]], s, r)) reachable = false;
      }
      if (!reachable) continue;
      y[s][r] = model.add_binary(strf("y_%zu_%zu", s, r));
      assign.add(y[s][r], 1.0);
      any = true;
    }
    if (!any) {
      return make_error(strf("state object '%s' (%s) fits no memory region of %s",
                             fn.state_objects[s].name.c_str(),
                             format_bytes(fn.state_objects[s].total_bytes()).c_str(), profile_->name.c_str()));
    }
    model.add_constraint(std::move(assign), ilp::Sense::kEq, 1.0, strf("assign_state_%zu", s));
  }

  // Γ capacity: states sharing a region must fit together; pinned bytes
  // reduce the right-hand side.
  for (std::size_t r = 0; r < regions.size(); ++r) {
    double usable = usable_bytes(r);
    ilp::LinExpr used;
    bool any = false;
    for (std::size_t s = 0; s < n_states; ++s) {
      const auto bytes = static_cast<double>(fn.state_objects[s].total_bytes());
      if (pin_region[s] == static_cast<int>(r)) usable -= bytes;
      if (y[s][r] < 0) continue;
      used.add(y[s][r], bytes);
      any = true;
    }
    if (any) model.add_constraint(std::move(used), ilp::Sense::kLe, usable, strf("capacity_%zu", r));
  }

  // Π pipeline order: stage(node from) <= stage(node to) along dataflow
  // edges. A pinned endpoint's stage moves to the right-hand side; an
  // edge with both ends pinned held before the fault and is unchanged.
  for (const auto& edge : graph.edges()) {
    const int from_pin = pin_pool[edge.from];
    const int to_pin = pin_pool[edge.to];
    if (from_pin >= 0 && to_pin >= 0) continue;
    ilp::LinExpr diff;
    bool nontrivial = false;
    for (std::size_t p = 0; p < pools_.size(); ++p) {
      const double stage = pools_[p].pipeline_stage;
      if (x[edge.from][p] >= 0) diff.add(x[edge.from][p], stage);
      if (x[edge.to][p] >= 0) diff.add(x[edge.to][p], -stage);
      if (stage != 0.0) nontrivial = true;
    }
    double rhs = 0.0;
    if (from_pin >= 0) rhs -= static_cast<double>(pools_[from_pin].pipeline_stage);
    if (to_pin >= 0) rhs += static_cast<double>(pools_[to_pin].pipeline_stage);
    if (nontrivial) {
      model.add_constraint(std::move(diff), ilp::Sense::kLe, rhs, strf("order_%u_%u", edge.from, edge.to));
    }
  }

  // Objective: compute costs, plus a free node's accesses to pinned
  // states on its x and a pinned node's accesses to free states on y.
  ilp::LinExpr objective;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t p = 0; p < pools_.size(); ++p) {
      if (x[i][p] < 0) continue;
      double coeff = nodes[i].weight * node_cost_on_pool(nodes[i], pools_[p], fn, hints);
      for (std::size_t s = 0; s < n_states; ++s) {
        if (pin_region[s] < 0) continue;
        const double n = accesses(i, pools_[p].kind, s);
        if (n > 0.0) coeff += nodes[i].weight * n * access_cycles(pools_[p], regions[pin_region[s]]);
      }
      objective.add(x[i][p], coeff);
    }
  }
  for (std::size_t s = 0; s < n_states; ++s) {
    for (std::size_t r = 0; r < regions.size(); ++r) {
      if (y[s][r] < 0) continue;
      double coeff = 0.0;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (pin_pool[i] < 0) continue;
        const auto& pool = pools_[pin_pool[i]];
        const double n = accesses(i, pool.kind, s);
        if (n > 0.0) coeff += nodes[i].weight * n * access_cycles(pool, regions[r]);
      }
      if (coeff != 0.0) objective.add(y[s][r], coeff);
    }
  }

  // Free × free state-access terms: w >= x_sum_by_kind + y - 1 with w
  // continuous; the positive objective coefficient pins w to the product
  // at optimum.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    // Group feasible pools by kind: the access count depends on the unit
    // kind, not the specific pool.
    std::map<lnic::UnitKind, std::vector<std::size_t>> by_kind;
    for (std::size_t p = 0; p < pools_.size(); ++p) {
      if (x[i][p] >= 0) by_kind[pools_[p].kind].push_back(p);
    }
    for (std::size_t s = 0; s < n_states; ++s) {
      if (pin_region[s] >= 0) continue;
      for (const auto& [kind, pool_idxs] : by_kind) {
        const double n = accesses(i, kind, s);
        if (n <= 0.0) continue;
        for (std::size_t r = 0; r < regions.size(); ++r) {
          if (y[s][r] < 0) continue;
          // Representative pool of this kind for latency purposes.
          const double lat = access_cycles(pools_[pool_idxs.front()], regions[r]);
          if (lat >= 1e11) {
            // Unreachable pairing: forbid x (any pool of this kind) with y.
            for (const std::size_t p : pool_idxs) {
              ilp::LinExpr forbid;
              forbid.add(x[i][p], 1.0).add(y[s][r], 1.0);
              model.add_constraint(std::move(forbid), ilp::Sense::kLe, 1.0);
            }
            continue;
          }
          const int w = model.add_continuous(strf("w_%zu_%zu_%d_%zu", i, s, static_cast<int>(kind), r), 0.0, 1.0);
          ilp::LinExpr link;  // w >= Σ x + y - 1  ⇔  Σ x + y - w <= 1
          for (const std::size_t p : pool_idxs) link.add(x[i][p], 1.0);
          link.add(y[s][r], 1.0).add(w, -1.0);
          model.add_constraint(std::move(link), ilp::Sense::kLe, 1.0);
          objective.add(w, nodes[i].weight * n * lat);
        }
      }
    }
  }

  // Θ service capacity: per-packet demand on a pool must not exceed its
  // parallelism budget at the offered rate; pinned demand reduces the
  // right-hand side.
  const double budget_per_unit = profile_->params.scalar(lnic::keys::kClockHz) / options.pps;
  for (std::size_t p = 0; p < pools_.size(); ++p) {
    double pinned_demand = 0.0;
    ilp::LinExpr demand;
    bool any = false;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const bool pinned_here = pin_pool[i] == static_cast<int>(p);
      if (!pinned_here && x[i][p] < 0) continue;
      const double cost = nodes[i].weight * node_queueable_cost_on_pool(nodes[i], pools_[p], fn, hints);
      if (pinned_here) {
        pinned_demand += cost;
      } else {
        demand.add(x[i][p], cost);
        any = true;
      }
    }
    if (any) {
      model.add_constraint(std::move(demand), ilp::Sense::kLe,
                           budget_per_unit * pools_[p].parallelism - pinned_demand, strf("theta_%zu", p));
    }
  }

  model.set_objective(std::move(objective));
  return placement;
}

Result<ilp::Model> Mapper::placement_model(const DataflowGraph& graph, const CostHints& hints,
                                           const MapOptions& options) const {
  auto placement = build_placement(graph, hints, options, std::vector<int>(graph.nodes().size(), -1),
                                   std::vector<int>(graph.function()->state_objects.size(), -1));
  if (!placement) return placement.error();
  return std::move(placement.value().model);
}

Result<Mapping> Mapper::map(const DataflowGraph& graph, const CostHints& hints, const MapOptions& options) const {
  CLARA_TRACE_SCOPE("mapping/map");
  auto placement = build_placement(graph, hints, options, std::vector<int>(graph.nodes().size(), -1),
                                   std::vector<int>(graph.function()->state_objects.size(), -1));
  if (!placement) return placement.error();
  const ilp::Model& model = placement.value().model;

  const ilp::SolveOptions solve_options = options.to_solve_options();
  obs::metrics().gauge("mapping/ilp_variables").set(static_cast<double>(model.num_vars()));
  obs::metrics().gauge("mapping/ilp_constraints").set(static_cast<double>(model.constraints().size()));
  const auto solution = ilp::solve_milp(model, solve_options);
  if (solution.status == ilp::SolveStatus::kInfeasible) {
    return make_error(ErrorCode::kInfeasible,
                      strf("mapping infeasible on %s at %.0f pps (capacity or ordering constraints)",
                           profile_->name.c_str(), options.pps));
  }
  if (solution.status == ilp::SolveStatus::kLimit) {
    if (solution.degraded) {
      // Deadline expired before any integer solution existed: degrade to
      // the deterministic greedy baseline instead of failing — graceful
      // degradation is the contract of time_budget_ms.
      auto fallback = map_greedy(graph, hints, options);
      if (!fallback) return fallback.error();
      fallback.value().degraded = true;
      return fallback;
    }
    return make_error(ErrorCode::kDeadline, "ILP node budget exhausted without an integer solution");
  }
  if (solution.status == ilp::SolveStatus::kUnbounded) {
    return make_error(ErrorCode::kInternal, "mapping ILP unbounded (model bug)");
  }

  Mapping mapping = placement.value().decode(solution);
  mapping.objective = solution.objective;
  obs::metrics().gauge("mapping/objective_cycles").set(solution.objective);
  mapping.pool_sig = pool_signatures(pools_);
  return mapping;
}

Result<Mapping> Mapper::map_greedy(const DataflowGraph& graph, const CostHints& hints,
                                   const MapOptions& options) const {
  CLARA_TRACE_SCOPE("mapping/greedy");
  const cir::Function& fn = *graph.function();
  const auto& nodes = graph.nodes();
  const auto regions = state_regions();

  Mapping mapping;
  mapping.greedy = true;
  mapping.status = ilp::SolveStatus::kOptimal;
  mapping.pool_sig = pool_signatures(pools_);
  mapping.node_pool.assign(nodes.size(), 0);
  mapping.state_region.assign(fn.state_objects.size(), kInvalidNode);

  // Nodes: cheapest feasible pool, compute cost only (the greedy mapper
  // does not anticipate state placement — that is its weakness).
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    double best = 1e300;
    int best_pool = -1;
    for (std::size_t p = 0; p < pools_.size(); ++p) {
      if (!pool_feasible(nodes[i], pools_[p])) continue;
      const double cost = node_cost_on_pool(nodes[i], pools_[p], fn, hints);
      if (cost < best) {
        best = cost;
        best_pool = static_cast<int>(p);
      }
    }
    if (best_pool < 0) {
      return make_error(ErrorCode::kInfeasible, strf("greedy: node '%s' cannot be placed on %s",
                                                     nodes[i].label.c_str(), profile_->name.c_str()));
    }
    mapping.node_pool[i] = static_cast<std::uint32_t>(best_pool);
    mapping.objective += nodes[i].weight * best;
  }

  // States: process in declaration order; first region (sorted by access
  // latency from the NPU pool) with space left.
  std::vector<double> remaining(regions.size());
  std::vector<std::size_t> region_order(regions.size());
  const UnitPool* npu_pool = nullptr;
  for (const auto& pool : pools_) {
    if (pool.kind == lnic::UnitKind::kNpuCore) npu_pool = &pool;
  }
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const auto* mem = profile_->graph.node(regions[r]).memory();
    remaining[r] = static_cast<double>(mem->capacity);
    if (mem->kind == lnic::MemKind::kCtm) remaining[r] *= options.ctm_state_fraction;
    region_order[r] = r;
  }
  std::sort(region_order.begin(), region_order.end(), [&](std::size_t a, std::size_t b) {
    const double la = npu_pool != nullptr ? access_cycles(*npu_pool, regions[a]) : 0.0;
    const double lb = npu_pool != nullptr ? access_cycles(*npu_pool, regions[b]) : 0.0;
    return la < lb;
  });

  for (std::size_t s = 0; s < fn.state_objects.size(); ++s) {
    const double need = static_cast<double>(fn.state_objects[s].total_bytes());
    bool placed = false;
    for (const std::size_t r : region_order) {
      if (remaining[r] < need) continue;
      remaining[r] -= need;
      mapping.state_region[s] = regions[r];
      placed = true;
      break;
    }
    if (!placed) {
      return make_error(ErrorCode::kInfeasible,
                        strf("greedy: state '%s' fits no region", fn.state_objects[s].name.c_str()));
    }
    // Account access cost against the chosen region.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& pool = pools_[mapping.node_pool[i]];
      const double accesses = node_state_accesses(nodes[i], pool.kind, static_cast<std::uint32_t>(s), fn);
      if (accesses > 0.0) {
        mapping.objective += nodes[i].weight * accesses * access_cycles(pool, mapping.state_region[s]);
      }
    }
  }
  return mapping;
}

Result<Mapping> Mapper::repair(const DataflowGraph& graph, const CostHints& hints, const Mapping& previous,
                               const MapOptions& options) const {
  CLARA_TRACE_SCOPE("mapping/repair");
  const cir::Function& fn = *graph.function();
  const auto& nodes = graph.nodes();
  const auto regions = state_regions();
  const std::size_t n_states = fn.state_objects.size();

  if (previous.pool_sig.empty() || previous.node_pool.size() != nodes.size() ||
      previous.state_region.size() != n_states) {
    return make_error(ErrorCode::kInternal, "repair: previous mapping does not match this dataflow graph");
  }
  obs::metrics().counter("ilp/repairs").inc();

  // Re-associate the previous mapping's pool indices with this (faulted)
  // profile's pools by signature; a pool whose every member went offline
  // has no match and displaces its nodes.
  std::vector<int> old_to_new(previous.pool_sig.size(), -1);
  for (std::size_t op = 0; op < previous.pool_sig.size(); ++op) {
    const auto& sig = previous.pool_sig[op];
    for (std::size_t p = 0; p < pools_.size(); ++p) {
      if (pools_[p].kind == sig.kind && pools_[p].pipeline_stage == sig.pipeline_stage &&
          pools_[p].match_action == sig.match_action) {
        old_to_new[op] = static_cast<int>(p);
        break;
      }
    }
  }

  // Displacement, phase 1: a node survives when its pool still exists
  // and remains feasible for it. pinned_pool[i] >= 0 ⇔ pinned.
  std::vector<int> pinned_pool(nodes.size(), -1);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::uint32_t op = previous.node_pool[i];
    if (op >= old_to_new.size()) {
      return make_error(ErrorCode::kInternal, "repair: previous mapping references an unknown pool");
    }
    const int np = old_to_new[op];
    if (np >= 0 && pool_feasible(nodes[i], pools_[np])) pinned_pool[i] = np;
  }

  // Displacement, phase 2: a derated pool may no longer carry its pinned
  // demand under Θ — free every node of an over-committed pool and let
  // the solve spread them.
  const double budget_per_unit = profile_->params.scalar(lnic::keys::kClockHz) / options.pps;
  for (std::size_t p = 0; p < pools_.size(); ++p) {
    double demand = 0.0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (pinned_pool[i] != static_cast<int>(p)) continue;
      demand += nodes[i].weight * node_queueable_cost_on_pool(nodes[i], pools_[p], fn, hints);
    }
    if (demand > budget_per_unit * pools_[p].parallelism + 1e-9) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (pinned_pool[i] == static_cast<int>(p)) pinned_pool[i] = -1;
      }
    }
  }

  // States survive when their region is still online (region ids are
  // stable across faults, so membership in state_regions() decides).
  std::vector<int> pinned_region(n_states, -1);  // index into `regions`
  for (std::size_t s = 0; s < n_states; ++s) {
    const auto it = std::find(regions.begin(), regions.end(), previous.state_region[s]);
    if (it != regions.end()) pinned_region[s] = static_cast<int>(it - regions.begin());
  }

  const auto is_free = [](int pin) { return pin < 0; };
  const auto displaced = static_cast<std::size_t>(std::count_if(pinned_pool.begin(), pinned_pool.end(), is_free));
  const bool states_displaced = std::any_of(pinned_region.begin(), pinned_region.end(), is_free);
  obs::metrics().gauge("mapping/repair_displaced_nodes").set(static_cast<double>(displaced));

  // Final objective is evaluated directly from the assembled assignment
  // (identical to what the full model's objective expresses); the
  // pinned model only needs the *variable* terms, so pinned-constant
  // bookkeeping never leaks into the result.
  auto finalize = [&](Mapping m) {
    double objective = 0.0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& pool = pools_[m.node_pool[i]];
      objective += nodes[i].weight * node_cost_on_pool(nodes[i], pool, fn, hints);
      for (std::size_t s = 0; s < n_states; ++s) {
        if (m.state_region[s] == kInvalidNode) continue;
        const double accesses = node_state_accesses(nodes[i], pool.kind, static_cast<std::uint32_t>(s), fn);
        if (accesses > 0.0) objective += nodes[i].weight * accesses * access_cycles(pool, m.state_region[s]);
      }
    }
    m.objective = objective;
    m.pool_sig = pool_signatures(pools_);
    m.repaired = true;
    m.repair_displaced = displaced;
    obs::metrics().gauge("mapping/objective_cycles").set(m.objective);
    return m;
  };

  // Pinning can over-constrain (e.g. the only region a displaced state
  // fits is crowded by pinned states): fall back to a cold full solve,
  // still flagged repaired so callers know the fault path ran.
  auto full_resolve = [&]() -> Result<Mapping> {
    auto full = map(graph, hints, options);
    if (!full.ok()) return full.error();
    return finalize(std::move(full.value()));
  };

  if (displaced == 0 && !states_displaced) {
    // The fault missed every assignment: re-index onto the faulted
    // profile's pools and refresh the objective (pool composition may
    // have changed NUMA averages).
    Mapping m = previous;
    for (std::size_t i = 0; i < nodes.size(); ++i) m.node_pool[i] = static_cast<std::uint32_t>(pinned_pool[i]);
    return finalize(std::move(m));
  }

  auto placement = build_placement(graph, hints, options, std::move(pinned_pool), std::move(pinned_region));
  if (!placement) return full_resolve();
  const ilp::Model& model = placement.value().model;

  const ilp::SolveOptions solve_options = options.to_solve_options();
  obs::metrics().gauge("mapping/repair_variables").set(static_cast<double>(model.num_vars()));
  const auto solution = ilp::solve_milp(model, solve_options);
  if (solution.status == ilp::SolveStatus::kInfeasible) return full_resolve();
  if (solution.status == ilp::SolveStatus::kLimit) {
    if (solution.degraded) {
      auto fallback = map_greedy(graph, hints, options);
      if (!fallback.ok()) return fallback.error();
      fallback.value().degraded = true;
      return finalize(std::move(fallback.value()));
    }
    return make_error(ErrorCode::kDeadline, "repair: ILP node budget exhausted without an integer solution");
  }
  if (solution.status == ilp::SolveStatus::kUnbounded) {
    return make_error(ErrorCode::kInternal, "repair ILP unbounded (model bug)");
  }
  return finalize(placement.value().decode(solution));
}

std::string describe_mapping(const Mapping& mapping, const DataflowGraph& graph, const Mapper& mapper,
                             const cir::Function& fn) {
  std::string out;
  out += strf("Porting plan for '%s' on %s (%s mapper, est. %.0f cycles/pkt service)\n", fn.name.c_str(),
              mapper.profile().name.c_str(), mapping.greedy ? "greedy" : "ILP", mapping.objective);
  if (mapping.degraded) {
    out += "  NOTE: solver time budget expired — this plan is the best found, not a certified optimum\n";
  }
  if (mapping.repaired) {
    out += strf(
        "  NOTE: mapping repaired incrementally after resource loss — %zu node%s re-solved, "
        "unaffected assignments pinned\n",
        mapping.repair_displaced, mapping.repair_displaced == 1 ? "" : "s");
  }
  out += "  compute bindings:\n";
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    const auto& node = graph.nodes()[i];
    const auto& pool = mapper.pools()[mapping.node_pool[i]];
    out += strf("    %-28s -> %-16s (weight %.3f)\n", node.label.c_str(), pool.name.c_str(), node.weight);
  }
  if (!fn.state_objects.empty()) {
    out += "  state placement:\n";
    for (std::size_t s = 0; s < fn.state_objects.size(); ++s) {
      const auto& obj = fn.state_objects[s];
      const auto& region = mapper.profile().graph.node(mapping.state_region[s]);
      out += strf("    %-28s -> %-16s (%s)\n", obj.name.c_str(), region.name.c_str(),
                  format_bytes(obj.total_bytes()).c_str());
    }
  }
  // Hand-tuning hints mirroring the paper's examples.
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    const auto& node = graph.nodes()[i];
    const auto& pool = mapper.pools()[mapping.node_pool[i]];
    for (const auto& site : node.vcalls) {
      if (site.v == cir::VCall::kLpmLookup && pool.kind == lnic::UnitKind::kLpmEngine) {
        out += "  hint: route LPM through the match-action engine and enable the flow cache\n";
      }
      if (site.v == cir::VCall::kCsum && pool.kind == lnic::UnitKind::kChecksumAccel) {
        out += "  hint: use the ingress checksum unit instead of NPU software checksum\n";
      }
      if (site.v == cir::VCall::kCsum && pool.kind == lnic::UnitKind::kNpuCore) {
        out += "  hint: checksum runs in NPU software here; consider restructuring to reach the accelerator\n";
      }
    }
  }
  return out;
}

}  // namespace clara::mapping
