// Engine-equivalence gate for the PR-8 performance work (ctest label
// `perf`): the revised simplex (sparse CSC + eta file, the default) and
// the dense tableau (the reference implementation it replaced on the hot
// path) must produce bit-identical Solutions — same objective, values,
// basis, and pivot trajectory — on the synthetic instance factories and
// on the mapping MILPs built from the NFs under examples/nfs/. Same for
// the simulator: the batched structure-of-arrays NicSim::run must match
// the scalar reference loop field for field on the accuracy ledger's
// validation matrix.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "core/predict.hpp"
#include "frontend/p4lite.hpp"
#include "ilp/instances.hpp"
#include "ilp/simplex.hpp"
#include "ilp/solver.hpp"
#include "lnic/profiles.hpp"
#include "mapping/mapping.hpp"
#include "nf/catalog.hpp"
#include "nicsim/sim.hpp"
#include "obs/accuracy.hpp"
#include "passes/api_subst.hpp"
#include "passes/dataflow.hpp"
#include "passes/optimize.hpp"
#include "passes/patterns.hpp"
#include "workload/tracegen.hpp"

#ifndef CLARA_EXAMPLES_DIR
#define CLARA_EXAMPLES_DIR "examples"
#endif

namespace clara {
namespace {

// --- dense vs revised LP/MILP ------------------------------------------------

void expect_identical_solutions(const ilp::Solution& a, const ilp::Solution& b,
                                const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.objective, b.objective) << label;  // bit-exact, not approximate
  EXPECT_EQ(a.values, b.values) << label;
  EXPECT_EQ(a.basis, b.basis) << label;
  EXPECT_EQ(a.pivots, b.pivots) << label;
  EXPECT_EQ(a.nodes_explored, b.nodes_explored) << label;
}

ilp::Solution lp_with(const ilp::Model& model, ilp::LpAlgorithm algorithm) {
  ilp::LpOptions options;
  options.algorithm = algorithm;
  return ilp::solve_lp(model, options);
}

TEST(SimplexEquiv, LpBitIdenticalAcrossInstanceFactories) {
  struct Case {
    std::string name;
    ilp::Model model;
  };
  std::vector<Case> cases;
  cases.push_back({"market_split(20,3)", ilp::make_market_split(20, 3)});
  cases.push_back({"market_split(30,6)", ilp::make_market_split(30, 6)});
  cases.push_back({"knapsack(40,5)", ilp::make_knapsack(40, 5)});
  cases.push_back({"knapsack(60,8)", ilp::make_knapsack(60, 8)});
  cases.push_back({"assignment(12)", ilp::make_assignment(12)});
  cases.push_back({"assignment(16)", ilp::make_assignment(16)});
  for (const auto& c : cases) {
    const auto revised = lp_with(c.model, ilp::LpAlgorithm::kRevised);
    const auto dense = lp_with(c.model, ilp::LpAlgorithm::kDense);
    EXPECT_EQ(revised.status, ilp::SolveStatus::kOptimal) << c.name;
    expect_identical_solutions(revised, dense, c.name);
  }
}

TEST(SimplexEquiv, MilpBitIdenticalAcrossEngines) {
  struct Case {
    std::string name;
    ilp::Model model;
  };
  std::vector<Case> cases;
  cases.push_back({"market_split(10,3)", ilp::make_market_split(10, 3)});
  cases.push_back({"knapsack(20,3)", ilp::make_knapsack(20, 3)});
  cases.push_back({"assignment(8)", ilp::make_assignment(8)});
  for (const auto& c : cases) {
    ilp::SolveOptions options;
    options.max_nodes = 5'000;
    options.algorithm = ilp::LpAlgorithm::kRevised;
    const auto revised = ilp::solve_milp(c.model, options);
    options.algorithm = ilp::LpAlgorithm::kDense;
    const auto dense = ilp::solve_milp(c.model, options);
    expect_identical_solutions(revised, dense, c.name);
  }
}

TEST(SimplexEquiv, WarmStartBitIdenticalAcrossEngines) {
  // A warm re-solve from a recorded basis exercises the install +
  // dual-repair path; both engines must walk the identical trajectory.
  const auto model = ilp::make_market_split(30, 6);
  const auto cold = lp_with(model, ilp::LpAlgorithm::kRevised);
  ASSERT_EQ(cold.status, ilp::SolveStatus::kOptimal);
  ASSERT_FALSE(cold.basis.empty());
  ilp::LpOptions options;
  options.warm_basis = cold.basis;
  options.algorithm = ilp::LpAlgorithm::kRevised;
  const auto warm_revised = ilp::solve_lp(model, options);
  options.algorithm = ilp::LpAlgorithm::kDense;
  const auto warm_dense = ilp::solve_lp(model, options);
  expect_identical_solutions(warm_revised, warm_dense, "warm market_split(30,6)");
  EXPECT_EQ(warm_revised.objective, cold.objective);
}

// --- dense vs revised on the example mapping MILPs ---------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

mapping::Mapping map_example(const std::string& nf_file, ilp::LpAlgorithm algorithm) {
  auto compiled =
      frontend::compile_p4lite(read_file(std::string(CLARA_EXAMPLES_DIR) + "/nfs/" + nf_file));
  EXPECT_TRUE(compiled.ok()) << nf_file;
  cir::Function fn = std::move(compiled).value();
  passes::substitute_framework_apis(fn);
  passes::collapse_packet_loops(fn);
  const passes::CostHints hints;
  const auto graph = passes::DataflowGraph::build(fn, hints);
  const auto profile = lnic::netronome_agilio_cx();  // Mapper keeps a pointer
  const mapping::Mapper mapper(profile);
  mapping::MapOptions options;
  options.ilp_algorithm = algorithm;
  auto result = mapper.map(graph, hints, options);
  EXPECT_TRUE(result.ok()) << nf_file << ": " << result.error().message;
  return result.ok() ? std::move(result).value() : mapping::Mapping{};
}

TEST(SimplexEquiv, ExampleMappingsBitIdenticalAcrossEngines) {
  for (const char* nf : {"firewall.p4nf", "router.p4nf", "rate_limiter.p4nf"}) {
    const auto revised = map_example(nf, ilp::LpAlgorithm::kRevised);
    const auto dense = map_example(nf, ilp::LpAlgorithm::kDense);
    EXPECT_EQ(revised.node_pool, dense.node_pool) << nf;
    EXPECT_EQ(revised.state_region, dense.state_region) << nf;
    EXPECT_EQ(revised.objective, dense.objective) << nf;
    EXPECT_EQ(revised.status, dense.status) << nf;
    EXPECT_EQ(revised.ilp_nodes_explored, dense.ilp_nodes_explored) << nf;
    EXPECT_EQ(revised.ilp_pivots, dense.ilp_pivots) << nf;
    EXPECT_EQ(revised.ilp_basis, dense.ilp_basis) << nf;
  }
}

// --- SoA vs scalar simulator -------------------------------------------------

void expect_identical_accumulators(const Accumulator& a, const Accumulator& b,
                                   const std::string& label) {
  EXPECT_EQ(a.count(), b.count()) << label;
  EXPECT_EQ(a.sum(), b.sum()) << label;
  EXPECT_EQ(a.mean(), b.mean()) << label;
  EXPECT_EQ(a.stddev(), b.stddev()) << label;
  EXPECT_EQ(a.min(), b.min()) << label;
  EXPECT_EQ(a.max(), b.max()) << label;
}

void expect_identical_run_stats(const nicsim::RunStats& a, const nicsim::RunStats& b,
                                const std::string& label) {
  EXPECT_EQ(a.packets, b.packets) << label;
  EXPECT_EQ(a.drops, b.drops) << label;
  EXPECT_EQ(a.latency.samples(), b.latency.samples()) << label;
  expect_identical_accumulators(a.tcp_latency, b.tcp_latency, label + "/tcp");
  expect_identical_accumulators(a.udp_latency, b.udp_latency, label + "/udp");
  expect_identical_accumulators(a.syn_latency, b.syn_latency, label + "/syn");
  expect_identical_accumulators(a.queue_wait, b.queue_wait, label + "/queue_wait");
  EXPECT_EQ(a.emem_cache_hit_rate, b.emem_cache_hit_rate) << label;
  EXPECT_EQ(a.flow_cache_hit_rate, b.flow_cache_hit_rate) << label;
  EXPECT_EQ(a.achieved_pps, b.achieved_pps) << label;
  EXPECT_EQ(a.energy_nj_per_packet, b.energy_nj_per_packet) << label;
  EXPECT_EQ(a.energy_watts, b.energy_watts) << label;
  EXPECT_EQ(a.breakdown.packets(), b.breakdown.packets()) << label;
  for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
    const auto c = static_cast<obs::Component>(i);
    expect_identical_accumulators(a.breakdown.component(c), b.breakdown.component(c),
                                  label + "/" + obs::component_name(c));
  }
}

/// Fixed placements (EMEM primary, IMEM secondary): placement doesn't
/// matter for SoA-vs-scalar identity, only that both sims are configured
/// the same way. EMEM keeps the cache model on the hot path.
const nf::Placement kFixedPlacement{{nicsim::MemLevel::kEmem, nicsim::MemLevel::kImem}};

/// Runs `scenario` over `workload` through run() on one fresh simulator
/// and run_scalar() on another, both built from `config`.
std::pair<nicsim::RunStats, nicsim::RunStats> run_both(const obs::ValidationScenario& scenario,
                                                       const std::string& workload,
                                                       const nicsim::NicConfig& config) {
  const auto profile = workload::parse_profile(workload);
  EXPECT_TRUE(profile.ok()) << workload;
  const auto trace = workload::generate_trace(profile.value());
  const auto fn = scenario.build();
  EXPECT_TRUE(fn.ok()) << scenario.name();
  nicsim::NicSim soa_sim(config);
  nicsim::NicSim scalar_sim(config);
  auto soa_program = nf::make_port(scenario.nf, soa_sim, fn.value(), kFixedPlacement);
  auto scalar_program = nf::make_port(scenario.nf, scalar_sim, fn.value(), kFixedPlacement);
  EXPECT_TRUE(soa_program.ok()) << scenario.name();
  EXPECT_TRUE(scalar_program.ok()) << scenario.name();
  return {soa_sim.run(*soa_program.value(), trace),
          scalar_sim.run_scalar(*scalar_program.value(), trace)};
}

TEST(SoaEquiv, BatchedRunMatchesScalarOnLedgerScenarios) {
  const auto matrix = obs::AccuracyLedger::default_matrix();
  ASSERT_FALSE(matrix.empty());
  for (const auto& scenario : matrix) {
    const auto [batched, scalar] = run_both(scenario, scenario.workload, nicsim::netronome_config());
    expect_identical_run_stats(batched, scalar, scenario.name());
  }
}

/// DPI far past saturation. The ingress hub admits at most one packet
/// per 40 cycles (20 Mpps at 800 MHz), while 448 threads clear a
/// 1200-byte scan in about 8k cycles (~45 Mpps), so the full NIC never
/// queues. 16 threads (~1.6 Mpps) behind a 16-deep queue are ten times
/// overloaded at 16 Mpps.
const obs::ValidationScenario kOverloadedDpi{"dpi", "16mpps", ""};
const char* const kOverloadedDpiWorkload =
    "tcp=0.8 flows=5000 payload=1200 pps=16000000 packets=8000 seed=11";

nicsim::NicConfig overloaded_dpi_config() {
  nicsim::NicConfig config = nicsim::netronome_config();
  config.islands = 1;
  config.npus_per_island = 2;
  config.ingress_queue_capacity = 16;
  return config;
}

TEST(SoaEquiv, BatchedRunMatchesScalarWhenOverloaded) {
  // Queue drops, completions far out of arrival order and every thread
  // free at t=0 (all ties). The LPM case's flow-cache misses walk DRAM
  // for ~400k cycles against 200-cycle hits, so its 448-thread ring sees
  // the longest re-insertion scans.
  const auto [dpi_batched, dpi_scalar] =
      run_both(kOverloadedDpi, kOverloadedDpiWorkload, overloaded_dpi_config());
  EXPECT_GT(dpi_batched.drops, 0u);
  expect_identical_run_stats(dpi_batched, dpi_scalar, "dpi/16mpps");

  const obs::ValidationScenario lpm{"lpm", "zipf-2mpps", "", 10'000, true};
  const auto [lpm_batched, lpm_scalar] =
      run_both(lpm, "tcp=0.8 flows=20000 zipf=0.8 payload=300 pps=2000000 packets=20000",
               nicsim::netronome_config());
  EXPECT_GT(lpm_batched.queue_wait.max(), 0.0);
  expect_identical_run_stats(lpm_batched, lpm_scalar, "lpm/zipf-2mpps");
}

TEST(SoaEquiv, BatchedRunMatchesScalarAcrossRepeatedRunsOnOneSim) {
  // Counters, caches and thread timelines accumulate across runs on the
  // same instance; the batched loop must track the scalar loop through
  // that carried state, not just from a cold start.
  const auto profile =
      workload::parse_profile("tcp=0.8 flows=2000 payload=300 pps=80000 packets=5000");
  ASSERT_TRUE(profile.ok());
  const auto trace = workload::generate_trace(profile.value());

  nicsim::NicSim soa_sim;
  nicsim::NicSim scalar_sim;
  auto soa_program = nf::make_port("nat", soa_sim).value();
  auto scalar_program = nf::make_port("nat", scalar_sim).value();

  for (int round = 0; round < 3; ++round) {
    const auto batched = soa_sim.run(*soa_program, trace);
    const auto scalar = scalar_sim.run_scalar(*scalar_program, trace);
    const std::string label = "round " + std::to_string(round);
    EXPECT_EQ(batched.packets, scalar.packets) << label;
    EXPECT_EQ(batched.drops, scalar.drops) << label;
    EXPECT_EQ(batched.latency.samples(), scalar.latency.samples()) << label;
    EXPECT_EQ(batched.emem_cache_hit_rate, scalar.emem_cache_hit_rate) << label;
    EXPECT_EQ(batched.flow_cache_hit_rate, scalar.flow_cache_hit_rate) << label;
    EXPECT_EQ(batched.energy_nj_per_packet, scalar.energy_nj_per_packet) << label;
  }
}

// --- simulator output pinned across versions ---------------------------------

void mix_accumulator(Fnv1a& h, const Accumulator& a) {
  h.mix(static_cast<std::uint64_t>(a.count())).mix(a.sum()).mix(a.mean());
  h.mix(a.stddev()).mix(a.min()).mix(a.max());
}

/// FNV-1a over every field of `stats`: latency samples in delivery
/// order, every accumulator (breakdown components included), counts,
/// rates and energy.
std::uint64_t run_stats_digest(const nicsim::RunStats& stats) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(stats.latency.count()));
  for (const double v : stats.latency.samples()) h.mix(v);
  mix_accumulator(h, stats.tcp_latency);
  mix_accumulator(h, stats.udp_latency);
  mix_accumulator(h, stats.syn_latency);
  mix_accumulator(h, stats.queue_wait);
  h.mix(stats.packets).mix(stats.drops);
  h.mix(stats.emem_cache_hit_rate).mix(stats.flow_cache_hit_rate);
  h.mix(stats.offered_pps).mix(stats.achieved_pps).mix(stats.clock_hz);
  h.mix(stats.energy_nj_per_packet).mix(stats.energy_watts);
  h.mix(stats.breakdown.packets());
  for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
    mix_accumulator(h, stats.breakdown.component(static_cast<obs::Component>(i)));
  }
  return h.digest();
}

TEST(SimPin, RunStatsDigestsArePinned) {
  // SoaEquiv compares run() with run_scalar() inside one build, so it
  // cannot see a change to code both loops share (Accumulator, the cache
  // and table models). These digests were taken before the thread ring,
  // the exact division-free indexing and the flat flow-cache index went
  // in: simulator output must not move a single bit.
  struct Pinned {
    obs::ValidationScenario scenario;
    std::string workload;
    nicsim::NicConfig config;
    std::uint64_t digest;
  };
  std::vector<Pinned> pinned;
  const std::uint64_t ledger_digests[] = {
      0xebc194d28067267cULL,  // lpm/rules=5000
      0xb36ab1727f37fc23ULL,  // lpm/rules=15000
      0xa9a1a4bc48fbae85ULL,  // lpm/rules=30000
      0x9f3804603a38db39ULL,  // lpm/zipf
      0x5161b624347a4210ULL,  // nat/payload=200
      0xab56e9f8ce9ef551ULL,  // nat/payload=800
      0x4a81e4c451aad7b0ULL,  // nat/payload=1400
      0x4165026719c03551ULL,  // vnf-chain/payload=200
      0x4d4f19fe4492bdf4ULL,  // vnf-chain/payload=800
      0x36b307a5c65a6f6cULL,  // vnf-chain/payload=1400
      0xb0d34c763fde2ae8ULL,  // firewall/standard
      0x28599418c2ce3475ULL,  // heavy-hitter/standard
      0x5e18e6ca2d7ce767ULL,  // meter/standard
      0xe669ecab4db2bca8ULL,  // flow-stats/standard
      0x8fa011938f39e779ULL,  // dpi/payload=400
      0x915a18b643a9d1b9ULL,  // dpi/payload=1200
      0xc7b52bb64b7262e0ULL,  // rewrite/standard
      0xd47e3faf4232bad7ULL,  // crypto-gw/standard
  };
  const auto matrix = obs::AccuracyLedger::default_matrix();
  ASSERT_EQ(matrix.size(), std::size(ledger_digests));
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    pinned.push_back(
        {matrix[i], matrix[i].workload + " seed=11", nicsim::netronome_config(), ledger_digests[i]});
  }
  pinned.push_back(
      {kOverloadedDpi, kOverloadedDpiWorkload, overloaded_dpi_config(), 0xd5c8df4852a2b8b4ULL});

  for (const auto& p : pinned) {
    const auto profile = workload::parse_profile(p.workload);
    ASSERT_TRUE(profile.ok()) << p.workload;
    const auto trace = workload::generate_trace(profile.value());
    const auto fn = p.scenario.build();
    ASSERT_TRUE(fn.ok()) << p.scenario.name();
    nicsim::NicSim sim(p.config);
    auto program = nf::make_port(p.scenario.nf, sim, fn.value(), kFixedPlacement);
    ASSERT_TRUE(program.ok()) << p.scenario.name();
    const auto stats = sim.run(*program.value(), trace);
    EXPECT_EQ(run_stats_digest(stats), p.digest)
        << p.scenario.name() << ": got 0x" << std::hex << run_stats_digest(stats);
  }
}

// --- randomized sparse MILPs with pipeline-order rows ------------------------

/// splitmix64: a fixed, portable stream, so every platform builds the
/// same instances.
struct SplitMix {
  std::uint64_t state;
  std::size_t below(std::size_t n) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>((z ^ (z >> 31)) % n);
  }
};

/// A small placement-shaped MILP: `nodes` items, each assigned to one
/// of `pools` pools (binary x[i][p], one assignment row per item), pool
/// capacity rows, and Π-style order rows stage(from) - stage(to) <= 0
/// along random edges. Branching a `from` variable up shifts its stage
/// to the right-hand side, which turns negative, so build_standard
/// negates the row and its slack becomes a surplus — the sign-flip path
/// a warm child must repair.
ilp::Model random_placement_milp(std::uint64_t seed) {
  SplitMix rng{seed};
  const std::size_t nodes = 4 + rng.below(5);
  const std::size_t pools = 3 + rng.below(3);
  std::vector<double> stage(pools);
  for (auto& st : stage) st = static_cast<double>(rng.below(4));
  ilp::Model model;
  std::vector<std::vector<int>> x(nodes);
  ilp::LinExpr objective;
  for (std::size_t i = 0; i < nodes; ++i) {
    ilp::LinExpr assign;
    for (std::size_t p = 0; p < pools; ++p) {
      const int var = model.add_binary("x" + std::to_string(i) + "_" + std::to_string(p));
      x[i].push_back(var);
      assign.add(var, 1.0);
      objective.add(var, 1.0 + static_cast<double>(rng.below(40)) + 0.25 * static_cast<double>(rng.below(4)));
    }
    model.add_constraint(std::move(assign), ilp::Sense::kEq, 1.0);
  }
  for (std::size_t p = 0; p < pools; ++p) {
    ilp::LinExpr load;
    for (std::size_t i = 0; i < nodes; ++i) load.add(x[i][p], 1.0 + static_cast<double>(rng.below(9)));
    model.add_constraint(std::move(load), ilp::Sense::kLe, 6.0 + static_cast<double>(rng.below(10)));
  }
  const std::size_t edges = nodes + rng.below(nodes);
  for (std::size_t e = 0; e < edges; ++e) {
    const std::size_t from = rng.below(nodes);
    const std::size_t to = rng.below(nodes);
    if (from == to) continue;
    ilp::LinExpr diff;
    for (std::size_t p = 0; p < pools; ++p) {
      if (stage[p] == 0.0) continue;
      diff.add(x[from][p], stage[p]);
      diff.add(x[to][p], -stage[p]);
    }
    model.add_constraint(std::move(diff), ilp::Sense::kLe, 0.0);
  }
  model.set_objective(std::move(objective));
  return model;
}

TEST(SimplexEquiv, RandomPlacementMilpsBitIdenticalAcrossEngines) {
  std::size_t solved = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto model = random_placement_milp(seed);
    ilp::SolveOptions options;
    options.jobs = 1;
    options.algorithm = ilp::LpAlgorithm::kRevised;
    const auto revised = ilp::solve_milp(model, options);
    options.algorithm = ilp::LpAlgorithm::kDense;
    const auto dense = ilp::solve_milp(model, options);
    const std::string label = "seed " + std::to_string(seed);
    expect_identical_solutions(revised, dense, label);
    ASSERT_EQ(revised.incumbents.size(), dense.incumbents.size()) << label;
    for (std::size_t k = 0; k < revised.incumbents.size(); ++k) {
      EXPECT_EQ(revised.incumbents[k].node, dense.incumbents[k].node) << label;
      EXPECT_EQ(revised.incumbents[k].objective, dense.incumbents[k].objective) << label;
    }
    if (revised.optimal() && revised.nodes_explored > 1) ++solved;
  }
  // The instances must actually branch, or the warm path goes untested.
  EXPECT_GE(solved, 10u);
}

// --- solver output pinned across versions ------------------------------------

/// FNV-1a over every field of a Solution: status, objective and value
/// bits, pivots, nodes, the incumbent trajectory, basis and the
/// degraded flag.
std::uint64_t solution_digest(const ilp::Solution& s) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(s.status)).mix(s.objective);
  h.mix(static_cast<std::uint64_t>(s.values.size()));
  for (const double v : s.values) h.mix(v);
  h.mix(static_cast<std::uint64_t>(s.nodes_explored)).mix(static_cast<std::uint64_t>(s.pivots));
  h.mix(static_cast<std::uint64_t>(s.incumbents.size()));
  for (const auto& step : s.incumbents) h.mix(static_cast<std::uint64_t>(step.node)).mix(step.objective);
  h.mix(static_cast<std::uint64_t>(s.basis.size()));
  for (const auto b : s.basis) h.mix(static_cast<std::uint64_t>(b));
  h.mix(s.degraded);
  return h.digest();
}

/// The cold placement MILP of `entry` on `profile`, lowered and hinted
/// the way Analyzer::analyze does it.
Result<ilp::Model> catalog_placement_model(const nf::CatalogEntry& entry, const lnic::NicProfile& profile,
                                           const workload::Trace& trace) {
  cir::Function fn = entry.build();
  passes::substitute_framework_apis(fn);
  passes::collapse_packet_loops(fn);
  passes::optimize(fn);
  const passes::CostHints hints = core::hints_from_trace(trace, profile);
  const auto graph = passes::DataflowGraph::build(fn, hints);
  mapping::MapOptions options;
  options.pps = trace.profile.pps;
  return mapping::Mapper(profile).placement_model(graph, hints, options);
}

TEST(SolvePin, CatalogPlacementMilpDigestsArePinned) {
  // SimplexEquiv compares the two engines inside one build, so it cannot
  // see a change to code both share (the decision engine, the eta file,
  // branch-and-bound). These digests were taken before the hypersparse
  // column work went in: every catalog NF's placement MILP on every
  // built-in NIC, at 60 kpps (capacity rows slack, the longest searches)
  // and 2 Mpps (capacity rows bind), must solve to the same bits at
  // every jobs level.
  struct Pinned {
    const char* nf;
    const char* nic;
    const char* pps;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {"lpm", "netronome-agilio-cx", "60000", 0x85948e7d066a57e8ULL},
      {"lpm", "soc-arm", "60000", 0x751a5dc7cf906af0ULL},
      {"lpm", "pipeline-asic", "60000", 0xfb14f2ac8a6d1ffbULL},
      {"lpm-nocache", "netronome-agilio-cx", "60000", 0x101ba8b92932f8d9ULL},
      {"lpm-nocache", "soc-arm", "60000", 0x751a5dc7cf906af0ULL},
      {"lpm-nocache", "pipeline-asic", "60000", 0x777d6d720eb1b51fULL},
      {"nat", "netronome-agilio-cx", "60000", 0x2583af2ffc947a6aULL},
      {"nat", "soc-arm", "60000", 0xe1dee4c0cc06a1d7ULL},
      {"nat", "pipeline-asic", "60000", 0x418201f8a47f7c30ULL},
      {"firewall", "netronome-agilio-cx", "60000", 0xb10c5d0f28afd6edULL},
      {"firewall", "soc-arm", "60000", 0x61de80ad43c7dcdcULL},
      {"firewall", "pipeline-asic", "60000", 0x75dd3f1184a68b99ULL},
      {"dpi", "netronome-agilio-cx", "60000", 0x996ad01d4d1a7cb0ULL},
      {"dpi", "soc-arm", "60000", 0x2b7d5f51c51bea97ULL},
      {"dpi", "pipeline-asic", "60000", 0x6fd594242839f035ULL},
      {"heavy-hitter", "netronome-agilio-cx", "60000", 0x4dd3b501ca1fed2aULL},
      {"heavy-hitter", "soc-arm", "60000", 0xf31427e0b92ac7b9ULL},
      {"heavy-hitter", "pipeline-asic", "60000", 0x6b25b2722a68dee3ULL},
      {"meter", "netronome-agilio-cx", "60000", 0xa52306225a0979feULL},
      {"meter", "soc-arm", "60000", 0xf4f600a0fa9bca32ULL},
      {"meter", "pipeline-asic", "60000", 0x8e8212c7755c08a7ULL},
      {"flow-stats", "netronome-agilio-cx", "60000", 0x11873fe3cb988659ULL},
      {"flow-stats", "soc-arm", "60000", 0xba75e5ef9f68d4b0ULL},
      {"flow-stats", "pipeline-asic", "60000", 0xa3f5ec7aa40ebf01ULL},
      {"rewrite", "netronome-agilio-cx", "60000", 0x9eff7c461fb6e639ULL},
      {"rewrite", "soc-arm", "60000", 0x928a599915af9d46ULL},
      {"rewrite", "pipeline-asic", "60000", 0x7fce4e77be9cbd16ULL},
      {"vnf-chain", "netronome-agilio-cx", "60000", 0xe5ffb938f82336fbULL},
      {"vnf-chain", "soc-arm", "60000", 0x6e0b398e3f0a2037ULL},
      {"vnf-chain", "pipeline-asic", "60000", 0x62a9573c88f9d514ULL},
      {"crypto-gw", "netronome-agilio-cx", "60000", 0xeeb6a47650c9ebc2ULL},
      {"crypto-gw", "soc-arm", "60000", 0xec6562afe8523851ULL},
      {"crypto-gw", "pipeline-asic", "60000", 0x1b26245a073b1e16ULL},
      {"csum-loop", "netronome-agilio-cx", "60000", 0xbce692ce3c293540ULL},
      {"csum-loop", "soc-arm", "60000", 0x4d71631f140cbff8ULL},
      {"csum-loop", "pipeline-asic", "60000", 0x7596b5d65a2471b8ULL},
      {"rate-estimator", "netronome-agilio-cx", "60000", 0xcf353e59775ca9f6ULL},
      {"rate-estimator", "soc-arm", "60000", 0xab8c3587db662430ULL},
      {"rate-estimator", "pipeline-asic", "60000", 0xcd0359982fe9c24cULL},
      {"lpm", "netronome-agilio-cx", "2000000", 0x382df613a38efa68ULL},
      {"lpm", "soc-arm", "2000000", 0x751a5dc7cf906af0ULL},
      {"lpm", "pipeline-asic", "2000000", 0x481369e12326ae83ULL},
      {"lpm-nocache", "netronome-agilio-cx", "2000000", 0x58223fcd63007f1bULL},
      {"lpm-nocache", "soc-arm", "2000000", 0x751a5dc7cf906af0ULL},
      {"lpm-nocache", "pipeline-asic", "2000000", 0x777d6d720eb1b51fULL},
      {"nat", "netronome-agilio-cx", "2000000", 0x2583af2ffc947a6aULL},
      {"nat", "soc-arm", "2000000", 0xe1dee4c0cc06a1d7ULL},
      {"nat", "pipeline-asic", "2000000", 0xd9d5147de1f9846fULL},
      {"firewall", "netronome-agilio-cx", "2000000", 0xb10c5d0f28afd6edULL},
      {"firewall", "soc-arm", "2000000", 0x61de80ad43c7dcdcULL},
      {"firewall", "pipeline-asic", "2000000", 0x5004f6c482c6d3a4ULL},
      {"dpi", "netronome-agilio-cx", "2000000", 0x996ad01d4d1a7cb0ULL},
      {"dpi", "soc-arm", "2000000", 0x2b7d5f51c51bea97ULL},
      {"dpi", "pipeline-asic", "2000000", 0x6fd594242839f035ULL},
      {"heavy-hitter", "netronome-agilio-cx", "2000000", 0x4dd3b501ca1fed2aULL},
      {"heavy-hitter", "soc-arm", "2000000", 0xf31427e0b92ac7b9ULL},
      {"heavy-hitter", "pipeline-asic", "2000000", 0x7d05162a0a514e93ULL},
      {"meter", "netronome-agilio-cx", "2000000", 0xa52306225a0979feULL},
      {"meter", "soc-arm", "2000000", 0xf4f600a0fa9bca32ULL},
      {"meter", "pipeline-asic", "2000000", 0xf042ea851c8e920eULL},
      {"flow-stats", "netronome-agilio-cx", "2000000", 0x11873fe3cb988659ULL},
      {"flow-stats", "soc-arm", "2000000", 0xba75e5ef9f68d4b0ULL},
      {"flow-stats", "pipeline-asic", "2000000", 0x4354059c08124295ULL},
      {"rewrite", "netronome-agilio-cx", "2000000", 0x9eff7c461fb6e639ULL},
      {"rewrite", "soc-arm", "2000000", 0x928a599915af9d46ULL},
      {"rewrite", "pipeline-asic", "2000000", 0x7fce4e77be9cbd16ULL},
      {"vnf-chain", "netronome-agilio-cx", "2000000", 0xe5ffb938f82336fbULL},
      {"vnf-chain", "soc-arm", "2000000", 0x6e0b398e3f0a2037ULL},
      {"vnf-chain", "pipeline-asic", "2000000", 0xcd3b4f49a0c04329ULL},
      {"crypto-gw", "netronome-agilio-cx", "2000000", 0xeeb6a47650c9ebc2ULL},
      {"crypto-gw", "soc-arm", "2000000", 0xec6562afe8523851ULL},
      {"crypto-gw", "pipeline-asic", "2000000", 0xd1ea839a6fb620adULL},
      {"csum-loop", "netronome-agilio-cx", "2000000", 0xbce692ce3c293540ULL},
      {"csum-loop", "soc-arm", "2000000", 0x4d71631f140cbff8ULL},
      {"csum-loop", "pipeline-asic", "2000000", 0x7596b5d65a2471b8ULL},
      {"rate-estimator", "netronome-agilio-cx", "2000000", 0xcf353e59775ca9f6ULL},
      {"rate-estimator", "soc-arm", "2000000", 0xab8c3587db662430ULL},
      {"rate-estimator", "pipeline-asic", "2000000", 0xcd0359982fe9c24cULL},
  };
  std::size_t k = 0;
  for (const char* pps : {"60000", "2000000"}) {
    const auto trace = workload::generate_trace(
        workload::parse_profile(std::string("tcp=0.8 flows=2000 payload=300 packets=500 pps=") + pps).value());
    for (const auto& entry : nf::catalog()) {
      for (const auto& nic : lnic::profile_table()) {
        const auto model = catalog_placement_model(entry, nic.build(), trace);
        const std::string label = std::string(entry.name) + "@" + nic.name + " pps=" + pps;
        for (const std::size_t jobs : {1, 4}) {
          std::uint64_t digest = 0;
          if (model.ok()) {
            ilp::SolveOptions options;
            options.jobs = jobs;
            digest = solution_digest(ilp::solve_milp(model.value(), options));
          }
          ASSERT_LT(k, std::size(pinned)) << label;
          EXPECT_EQ(std::string(pinned[k].nf) + "@" + pinned[k].nic + " pps=" + pinned[k].pps, label);
          EXPECT_EQ(digest, pinned[k].digest) << label << " jobs=" << jobs << ": got 0x" << std::hex << digest;
        }
        ++k;
      }
    }
  }
  EXPECT_EQ(k, std::size(pinned));
}

}  // namespace
}  // namespace clara
