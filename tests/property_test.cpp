// Property tests over randomly generated CIR functions:
//  * printer/parser round trip is the identity on canonical text;
//  * the optimizer preserves verification and observable behaviour;
//  * symbolic path enumeration covers every concrete execution.
// And over randomly generated workload profiles: predicted breakdown
// components are non-negative, hit rates are probabilities, and packet
// class fractions sum to one.
#include <gtest/gtest.h>

#include <set>

#include "cir/builder.hpp"
#include "cir/interp.hpp"
#include "cir/printer.hpp"
#include "cir/verify.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/clara.hpp"
#include "nf/catalog.hpp"
#include "obs/accuracy.hpp"
#include "passes/api_subst.hpp"
#include "passes/optimize.hpp"
#include "passes/patterns.hpp"
#include "passes/symexec.hpp"

namespace clara {
namespace {

using cir::FunctionBuilder;
using cir::Value;

/// Generates a random, verifiable, loop-free function: a chain of blocks
/// with forward branches, arithmetic over previously defined registers,
/// occasional header reads, state accesses and an emit/drop exit.
cir::Function random_function(Rng& rng) {
  FunctionBuilder b("fuzz");
  const auto state = b.add_state(cir::StateObject{"tbl", 16, 64, cir::StatePattern::kArray});
  const int n_blocks = static_cast<int>(rng.uniform(2, 6));
  std::vector<std::uint32_t> blocks;
  for (int i = 0; i < n_blocks; ++i) blocks.push_back(b.create_block(strf("b%d", i)));

  // Registers usable from any block: defined in the entry (dominates all).
  std::vector<Value> entry_values;
  b.set_insert_point(blocks[0]);
  entry_values.push_back(b.get_hdr(cir::HdrField::kPayloadLen));
  entry_values.push_back(b.get_hdr(cir::HdrField::kFlowHash));
  entry_values.push_back(b.add(Value::of_imm(static_cast<std::int64_t>(rng.uniform(0, 100))),
                               Value::of_imm(7)));

  for (int i = 0; i < n_blocks; ++i) {
    b.set_insert_point(blocks[i]);
    std::vector<Value> local = entry_values;
    const int n_instrs = static_cast<int>(rng.uniform(0, 6));
    for (int k = 0; k < n_instrs; ++k) {
      const Value a = local[rng.uniform(0, local.size() - 1)];
      const Value c = rng.chance(0.5) ? local[rng.uniform(0, local.size() - 1)]
                                      : Value::of_imm(static_cast<std::int64_t>(rng.uniform(1, 50)));
      switch (rng.uniform(0, 5)) {
        case 0: local.push_back(b.add(a, c)); break;
        case 1: local.push_back(b.bxor(a, c)); break;
        case 2: local.push_back(b.mul(a, c)); break;
        case 3: local.push_back(b.cmp_lt(a, c)); break;
        case 4: local.push_back(b.shr(a, Value::of_imm(static_cast<std::int64_t>(rng.uniform(0, 7))))); break;
        default: local.push_back(b.load_state(state, Value::of_imm(static_cast<std::int64_t>(rng.uniform(0, 63))))); break;
      }
    }
    if (i + 1 < n_blocks) {
      if (rng.chance(0.5) && i + 2 < n_blocks) {
        const auto target = blocks[rng.uniform(static_cast<std::uint64_t>(i) + 2, n_blocks - 1)];
        b.cond_br(local[rng.uniform(0, local.size() - 1)], blocks[i + 1], target);
      } else {
        b.br(blocks[i + 1]);
      }
    } else {
      if (rng.chance(0.5)) {
        b.vcall(cir::VCall::kEmit, {Value::of_imm(1)}, false);
      } else {
        b.vcall(cir::VCall::kDrop, {}, false);
      }
      b.ret();
    }
  }
  return b.take();
}

class RecordingHandler final : public cir::VCallHandler {
 public:
  std::uint64_t handle(cir::VCall v, std::span<const std::uint64_t> args) override {
    calls.emplace_back(v, std::vector<std::uint64_t>(args.begin(), args.end()));
    switch (v) {
      case cir::VCall::kGetHdr: return 40 + args[0] * 13;  // deterministic per field
      case cir::VCall::kTableLookup: return lookup_result;
      case cir::VCall::kMeter: return 1;
      default: return 0;
    }
  }
  std::vector<std::pair<cir::VCall, std::vector<std::uint64_t>>> calls;
  std::uint64_t lookup_result = 1;
};

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, RandomFunctionVerifies) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1);
  const auto fn = random_function(rng);
  const auto status = cir::verify(fn);
  ASSERT_TRUE(status.ok()) << status.error().message << "\n" << cir::print_function(fn);
}

TEST_P(FuzzTest, PrintParseRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1);
  cir::Module mod;
  mod.name = "fuzz";
  mod.functions.push_back(random_function(rng));
  const auto text1 = cir::print_module(mod);
  const auto parsed = cir::parse_module(text1);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message << "\n" << text1;
  EXPECT_TRUE(cir::verify(parsed.value()).ok());
  EXPECT_EQ(cir::print_module(parsed.value()), text1);
}

TEST_P(FuzzTest, OptimizerPreservesBehaviour) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1);
  const auto original = random_function(rng);
  auto optimized = original;
  passes::optimize(optimized);
  const auto status = cir::verify(optimized);
  ASSERT_TRUE(status.ok()) << status.error().message << "\n" << cir::print_function(optimized);

  RecordingHandler h1, h2;
  cir::Interpreter i1(original, h1);
  cir::Interpreter i2(optimized, h2);
  const auto r1 = i1.run();
  const auto r2 = i2.run();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(h1.calls.size(), h2.calls.size()) << cir::print_function(original);
  for (std::size_t i = 0; i < h1.calls.size(); ++i) {
    EXPECT_EQ(h1.calls[i].first, h2.calls[i].first);
    EXPECT_EQ(h1.calls[i].second, h2.calls[i].second);
  }
  // The optimizer never makes the function longer.
  std::size_t before = 0, after = 0;
  for (const auto& block : original.blocks) before += block.instrs.size();
  for (const auto& block : optimized.blocks) after += block.instrs.size();
  EXPECT_LE(after, before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 30));

// --- Symbolic paths cover concrete executions ------------------------------

class PathCoverageTest : public ::testing::TestWithParam<int> {};

TEST_P(PathCoverageTest, EveryConcreteRunMatchesAnEnumeratedPath) {
  const char* const kNfs[] = {"nat", "firewall", "meter", "heavy-hitter", "crypto-gw", "rewrite"};
  auto fn = nf::find_nf(kNfs[GetParam()])->build();
  passes::substitute_framework_apis(fn);
  passes::collapse_packet_loops(fn);
  const auto paths = passes::enumerate_paths(fn);
  ASSERT_TRUE(paths.complete);

  // Concrete executions under every combination of stateful outcomes.
  for (const bool hit : {true, false}) {
    RecordingHandler handler;
    handler.lookup_result = hit ? 1 : 0;
    cir::Interpreter interp(fn, handler);
    const auto result = interp.run();
    ASSERT_TRUE(result.ok()) << fn.name;

    std::set<std::uint32_t> executed;
    for (std::uint32_t b = 0; b < result.value().block_counts.size(); ++b) {
      if (result.value().block_counts[b] > 0) executed.insert(b);
    }
    bool covered = false;
    for (const auto& path : paths.paths) {
      const std::set<std::uint32_t> path_blocks(path.blocks.begin(), path.blocks.end());
      if (path_blocks == executed) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << fn.name << " (lookup " << (hit ? "hit" : "miss")
                         << "): concrete execution not among " << paths.paths.size() << " paths";
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, PathCoverageTest, ::testing::Range(0, 6));

// The breakdown invariant that makes per-component error attribution
// sound, checked across the whole NF library: for every scenario in the
// accuracy ledger's validation matrix, the predictor's and the
// simulator's per-component charges each sum to that side's mean
// latency. If either side booked cycles outside the shared component
// taxonomy (or double-booked), the ledger's error shares would lie.
TEST(BreakdownInvariant, ComponentChargesSumToMeanLatencyAcrossNfLibrary) {
  obs::AccuracyOptions options;
  options.max_packets = 1'500;
  const obs::AccuracyLedger ledger(options);
  const auto report =
      ledger.run(obs::AccuracyLedger::default_matrix(), lnic::netronome_agilio_cx());
  ASSERT_GT(report.scenarios.size(), 10u);
  ASSERT_EQ(report.failures, 0u);
  for (const auto& s : report.scenarios) {
    ASSERT_TRUE(s.ok) << s.scenario.name() << ": " << s.error;
    double pred_sum = 0.0;
    double sim_sum = 0.0;
    for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
      pred_sum += s.predicted.cycles[i];
      sim_sum += s.simulated.cycles[i];
    }
    EXPECT_NEAR(pred_sum, s.predicted_cycles, s.predicted_cycles * 1e-6 + 1e-6)
        << s.scenario.name() << ": predictor charges leak outside the breakdown";
    EXPECT_NEAR(sim_sum, s.simulated_cycles, s.simulated_cycles * 1e-6 + 1e-6)
        << s.scenario.name() << ": simulator charges leak outside the breakdown";
  }
}

/// A random workload spanning the axes the predictor reads: skew 0..1.5,
/// 1..20000 flows, 1..5000 packets, fixed or ranged payloads.
workload::WorkloadProfile random_profile(Rng& rng) {
  workload::WorkloadProfile profile;
  profile.tcp_fraction = static_cast<double>(rng.uniform(0, 10)) / 10.0;
  profile.flows = static_cast<std::uint32_t>(rng.chance(0.3) ? rng.uniform(1, 8) : rng.uniform(1, 20000));
  profile.zipf_alpha = static_cast<double>(rng.uniform(0, 15)) / 10.0;
  profile.packets = rng.chance(0.2) ? rng.uniform(1, 20) : rng.uniform(1, 5000);
  profile.payload_min = static_cast<std::uint16_t>(rng.uniform(0, 1500));
  profile.payload_max =
      rng.chance(0.4) ? profile.payload_min : static_cast<std::uint16_t>(rng.uniform(profile.payload_min, 1500));
  profile.pps = static_cast<double>(rng.uniform(10'000, 200'000));
  profile.arrivals = rng.chance(0.5) ? workload::ArrivalProcess::kPoisson : workload::ArrivalProcess::kDeterministic;
  profile.seed = rng.next_u64();
  return profile;
}

TEST(PredictionInvariants, HoldAcrossRandomWorkloadProfiles) {
  const core::Analyzer analyzer(lnic::netronome_agilio_cx());
  const auto& nfs = nf::catalog();
  Rng rng(20201104);
  for (std::size_t round = 0; round < 3 * nfs.size(); ++round) {
    const workload::WorkloadProfile profile = random_profile(rng);
    const auto trace = workload::generate_trace(profile);
    const cir::Function fn = nfs[round % nfs.size()].build();
    SCOPED_TRACE(fn.name + " on " + profile.serialize());
    const auto analysis = analyzer.analyze(fn, trace);
    ASSERT_TRUE(analysis.ok()) << analysis.error().message;
    const core::Prediction& p = analysis.value().prediction;
    for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
      EXPECT_GE(p.breakdown.cycles[i], 0.0) << obs::component_name(static_cast<obs::Component>(i));
    }
    EXPECT_GE(p.emem_cache_hit_rate, 0.0);
    EXPECT_LE(p.emem_cache_hit_rate, 1.0);
    EXPECT_GE(p.flow_cache_hit_rate, 0.0);
    EXPECT_LE(p.flow_cache_hit_rate, 1.0);
    double fractions = 0.0;
    for (const auto& cls : p.classes) {
      EXPECT_GT(cls.fraction, 0.0) << cls.name;
      fractions += cls.fraction;
    }
    EXPECT_NEAR(fractions, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace clara
