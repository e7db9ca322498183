// Golden mappings (ctest label `fault`): every catalog NF on every
// built-in NIC profile, analyzed cold and then repaired after each unit
// fault below, must reproduce tests/data/golden_mappings.txt byte for
// byte — pool per dataflow node, region per state object, objective
// (%.17g), branch-and-bound nodes and simplex pivots. The accuracy
// ledger pins only the default NIC; this pins the soc-arm and
// pipeline-asic mappings too, and every repair path the faults reach
// (pinned re-solve, no-displacement shortcut, full re-solve fallback).
//
// The faults, applied to a copy of the healthy profile:
//   fail-csum       mark the checksum accelerator offline
//   fail-offchip    mark the off-chip memory (emem or dram) offline
//   derate-npu-30   derate the general-purpose cores (npu or
//                   microengine) to 30% of nominal
//   fail-onchip     mark ctm0 (or the ASIC's stage-sram) offline
//   fail-lpm        mark the LPM engine offline
//   fail-stage1     mark the ASIC's match-action stage 1 offline
//   derate-npu-1    derate the general-purpose cores to 1% of nominal
// A fault naming no unit of the profile is recorded as `no-such-unit`.
//
// On a mismatch the test writes what it rendered to
// golden_mappings_actual.txt in its working directory. After a
// deliberate change to the mapping model, copy that file over the
// golden one and say in CHANGES.md why the mappings moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "core/clara.hpp"
#include "lnic/profiles.hpp"
#include "nf/catalog.hpp"
#include "workload/tracegen.hpp"

namespace clara {
namespace {

const char* const kGoldenPath = CLARA_TEST_DATA_DIR "/golden_mappings.txt";

struct Fault {
  const char* name;
  std::vector<const char*> units;  // first one the profile has is used
  double derate;                   // 0 = fail instead of derate
};

const std::vector<Fault>& faults() {
  static const std::vector<Fault> kFaults = {
      {"fail-csum", {"csum"}, 0.0},
      {"fail-offchip", {"emem", "dram"}, 0.0},
      {"derate-npu-30", {"npu", "microengine"}, 0.3},
      // Faults that leave most assignments pinned and re-solve the rest,
      // so the pinned terms of the model (Γ and Θ right-hand sides,
      // objective offsets, Π stage bounds) come into play.
      {"fail-onchip", {"ctm0", "stage-sram"}, 0.0},
      {"fail-lpm", {"lpm-engine"}, 0.0},
      {"fail-stage1", {"ma-stage1"}, 0.0},
      {"derate-npu-1", {"npu", "microengine"}, 0.01},
  };
  return kFaults;
}

/// Applies `fault` to `profile`; false when the profile has none of its units.
bool apply(const Fault& fault, lnic::NicProfile& profile) {
  for (const char* unit : fault.units) {
    const auto applied =
        fault.derate > 0.0 ? profile.graph.derate_units(unit, fault.derate) : profile.graph.mark_offline(unit);
    if (applied.ok()) return true;
  }
  return false;
}

std::string describe(const Result<core::Analysis>& result) {
  if (!result.ok()) return strf("error=%s: %s", to_string(result.error().code), result.error().message.c_str());
  const mapping::Mapping& m = result.value().mapping;
  std::string pools;
  for (const auto p : m.node_pool) pools += strf("%s%u", pools.empty() ? "" : ",", p);
  std::string regions;
  for (const auto r : m.state_region) regions += strf("%s%u", regions.empty() ? "" : ",", r);
  return strf("pools=%s regions=%s obj=%.17g nodes=%zu pivots=%zu displaced=%zu", pools.c_str(),
              regions.c_str(), m.objective, m.ilp_nodes_explored, m.ilp_pivots, m.repair_displaced);
}

std::string render_golden() {
  core::AnalyzeOptions options;
  options.use_cache = false;  // every solve cold: no warm basis from an earlier case

  std::ostringstream out;
  // At 60 kpps the Θ service-capacity constraints are slack; at 2 Mpps
  // they bind, so derating displaces nodes next to pinned ones.
  for (const char* pps : {"60000", "2000000"}) {
    const auto trace = workload::generate_trace(
        workload::parse_profile(std::string("tcp=0.8 flows=2000 payload=300 packets=500 pps=") + pps).value());
    for (const auto& entry : nf::catalog()) {
    const cir::Function nf = entry.build();
    for (const auto& healthy_profile : lnic::all_profiles()) {
      const std::string prefix = std::string(entry.name) + " " + healthy_profile.name + " pps=" + pps + " ";
      const core::Analyzer healthy(healthy_profile);
      const auto cold = healthy.analyze(nf, trace, options);
      out << prefix << "cold " << describe(cold) << "\n";
      if (!cold.ok()) continue;
      for (const auto& fault : faults()) {
        out << prefix << fault.name << " ";
        auto profile = healthy_profile;
        if (!apply(fault, profile)) {
          out << "no-such-unit\n";
          continue;
        }
        const core::Analyzer degraded(std::move(profile));
        out << describe(degraded.repair(nf, trace, cold.value(), options)) << "\n";
      }
    }
    }
  }
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(GoldenMapping, EveryNfOnEveryNicMatchesCheckedInMappings) {
  std::stringstream expected;
  expected << std::ifstream(kGoldenPath).rdbuf();
  const std::string actual = render_golden();

  const auto want = lines_of(expected.str());
  const auto got = lines_of(actual);
  EXPECT_EQ(got.size(), want.size()) << "case count differs from " << kGoldenPath;
  int mismatches = 0;
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    if (got[i] == want[i]) continue;
    if (++mismatches <= 10) ADD_FAILURE() << "line " << i + 1 << "\n  want: " << want[i] << "\n  got:  " << got[i];
  }
  EXPECT_EQ(mismatches, 0);
  if (actual != expected.str()) {
    std::ofstream("golden_mappings_actual.txt") << actual;
    ADD_FAILURE() << "rendered mappings written to golden_mappings_actual.txt";
  }
}

}  // namespace
}  // namespace clara
