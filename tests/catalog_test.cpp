// The NF catalog (nf/catalog.hpp, ctest label `accuracy`): every entry
// builds CIR that verifies, and every hand port lays its simulator tables
// out exactly as its CIR declares its state objects — the
// predictor/simulator pairing the accuracy ledger rests on.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cir/printer.hpp"
#include "cir/verify.hpp"
#include "nf/catalog.hpp"
#include "nf/nf_cir.hpp"

namespace clara::nf {
namespace {

using nicsim::MemLevel;

TEST(Catalog, NamesAndListingOrderAreStable) {
  const std::vector<std::string> expected = {
      "lpm",     "lpm-nocache", "nat",       "firewall",  "dpi",      "heavy-hitter",  "meter",
      "flow-stats", "rewrite",  "vnf-chain", "crypto-gw", "csum-loop", "rate-estimator"};
  EXPECT_EQ(nf_names(), expected);
  EXPECT_EQ(find_nf("no-such-nf"), nullptr);
}

TEST(Catalog, EveryEntryBuildsVerifiedCir) {
  for (const auto& entry : catalog()) {
    const auto status = cir::verify(entry.build());
    EXPECT_TRUE(status.ok()) << entry.name << ": " << (status.ok() ? "" : status.error().message);
  }
}

TEST(Catalog, PortTablesMatchCirStateObjects) {
  // Every port at its own CIR and placement, then CIR built at other
  // sizes (the ledger's LPM sweep, Figure 1's variants) at a placement
  // that leaves a second table to the EMEM fallback.
  std::vector<std::tuple<std::string, cir::Function, Placement>> cases;
  for (const auto& entry : catalog()) {
    if (entry.port != nullptr) cases.emplace_back(entry.name, entry.build(), entry.placement);
  }
  EXPECT_EQ(cases.size(), 11u);  // the 10 ported NFs, LPM in both flow-cache variants
  const Placement ctm{{MemLevel::kCtm}};
  cases.emplace_back("lpm", build_lpm_nf({.rules = 30'000}), ctm);
  cases.emplace_back("firewall", build_fw_nf({.conn_entries = 262'144, .conn_entry_bytes = 128}), ctm);
  cases.emplace_back("heavy-hitter", build_hh_nf({.counters = 1 << 20}), ctm);

  for (const auto& [name, fn, placement] : cases) {
    nicsim::NicSim sim;
    const auto program = make_port(name, sim, fn, placement);
    ASSERT_TRUE(program.ok()) << name << ": " << program.error().message;
    if (!sim.lpm_tables().empty()) {
      // LPM keeps its one state object behind the match-action engine,
      // which has no entry width or placement.
      ASSERT_EQ(fn.state_objects.size(), 1u) << name;
      ASSERT_EQ(sim.lpm_tables().size(), 1u) << name;
      EXPECT_TRUE(sim.tables().empty()) << name;
      EXPECT_EQ(sim.lpm_tables()[0]->name(), fn.state_objects[0].name) << name;
      EXPECT_EQ(sim.lpm_tables()[0]->rule_entries(), fn.state_objects[0].entries) << name;
      continue;
    }
    ASSERT_EQ(sim.tables().size(), fn.state_objects.size()) << name;
    for (std::size_t i = 0; i < fn.state_objects.size(); ++i) {
      const auto& table = *sim.tables()[i];
      const auto& state = fn.state_objects[i];
      const std::string label = name + " table " + std::to_string(i);
      EXPECT_EQ(table.name(), state.name) << label;
      EXPECT_EQ(table.entries(), state.entries) << label;
      EXPECT_EQ(table.entry_bytes(), state.entry_bytes) << label;
      EXPECT_EQ(table.placement(), placement.level(i)) << label;
    }
  }
}

TEST(Catalog, LpmFlowCacheFollowsTheCir) {
  for (const char* name : {"lpm", "lpm-nocache"}) {
    nicsim::NicSim sim;
    ASSERT_TRUE(make_port(name, sim).ok()) << name;
    ASSERT_EQ(sim.lpm_tables().size(), 1u) << name;
    EXPECT_EQ(sim.lpm_tables()[0]->flow_cache().capacity() > 0, std::string(name) == "lpm") << name;
  }
}

TEST(Catalog, EntriesWithoutPortAreRejected) {
  for (const char* name : {"csum-loop", "rate-estimator", "no-such-nf"}) {
    nicsim::NicSim sim;
    const auto program = make_port(name, sim);
    ASSERT_FALSE(program.ok()) << name;
    EXPECT_NE(program.error().message.find("no ported implementation"), std::string::npos)
        << program.error().message;
  }
}

TEST(Catalog, CirThePortCannotHoldIsRejected) {
  // Another state-object count (NAT's port needs one table; DPI's CIR
  // declares none), or a table of no entries or over 256 MiB, counting
  // entries x max(8, entry bytes).
  std::vector<cir::Function> rejected = {build_dpi_nf()};
  const std::vector<std::pair<std::uint64_t, Bytes>> sizes = {
      {0, 64}, {1ull << 62, 0}, {(256_MiB / 8) + 1, 4}, {1, 256_MiB + 1}};
  for (const auto& [entries, entry_bytes] : sizes) {
    rejected.push_back(build_nat_nf());
    rejected.back().state_objects[0].entries = entries;
    rejected.back().state_objects[0].entry_bytes = entry_bytes;
  }
  for (const auto& fn : rejected) {
    nicsim::NicSim sim;
    const auto program = make_port("nat", sim, fn, {});
    ASSERT_FALSE(program.ok()) << cir::print_function(fn);
    EXPECT_EQ(program.error().code, ErrorCode::kVerify);
    EXPECT_TRUE(sim.tables().empty());
  }
  nicsim::NicSim sim;
  EXPECT_TRUE(make_port("nat", sim, build_nat_nf({.flow_entries = 256_MiB / 64}), {}).ok());
}

}  // namespace
}  // namespace clara::nf
