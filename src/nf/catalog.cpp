#include "nf/catalog.hpp"

#include <algorithm>

#include "cir/vcalls.hpp"
#include "common/strings.hpp"
#include "nf/nf_cir.hpp"
#include "nf/nf_ported.hpp"

namespace clara::nf {

namespace {

using nicsim::MemLevel;
using nicsim::NicSim;
using Program = std::unique_ptr<nicsim::NicProgram>;

/// The largest table a port creates, entries x max(8, entry bytes): the
/// simulator keeps an 8 B key per slot, and a validate request's inline
/// CIR chooses the sizes.
constexpr Bytes kMaxTableBytes = 256_MiB;

/// The simulator table for `fn`'s state object `i`.
nicsim::ExactTable& table(NicSim& sim, const cir::Function& fn, std::size_t i, const Placement& p) {
  const auto& state = fn.state_objects[i];
  return sim.create_table(state.name, state.entries, state.entry_bytes, p.level(i));
}

/// The flow-cache flag of `fn`'s LPM lookup (its third argument, before
/// or after API substitution) — the bit the predictor prices too. A
/// lookup without the flag uses the cache, as substitution defaults it.
bool lpm_flow_cache(const cir::Function& fn) {
  for (const auto& block : fn.blocks) {
    for (const auto& instr : block.instrs) {
      if (instr.op != cir::Opcode::kCall) continue;
      auto v = cir::parse_vcall(instr.callee);
      if (!v) v = cir::framework_api_to_vcall(instr.callee);
      if (v != cir::VCall::kLpmLookup) continue;
      return instr.args.size() < 3 || !instr.args[2].is_imm() || instr.args[2].imm != 0;
    }
  }
  return true;
}

/// A port whose program takes one table per state object, created in
/// state order.
template <typename P, std::size_t kTables>
Program port_tables(NicSim& sim, const cir::Function& fn, const Placement& p) {
  if constexpr (kTables == 0) {
    return std::make_unique<P>();
  } else if constexpr (kTables == 1) {
    return std::make_unique<P>(table(sim, fn, 0, p));
  } else {
    auto& first = table(sim, fn, 0, p);
    return std::make_unique<P>(first, table(sim, fn, 1, p));
  }
}

Program port_lpm(NicSim& sim, const cir::Function& fn, const Placement&) {
  const bool flow_cache = lpm_flow_cache(fn);
  const auto& routes = fn.state_objects[0];
  auto& lpm = sim.create_lpm(routes.name, routes.entries,
                             flow_cache ? sim.config().flow_cache_entries : 0);
  return std::make_unique<LpmProgram>(lpm, flow_cache);
}

/// The number of state objects `entry`'s own CIR declares, counted once
/// per process.
std::size_t state_count(const CatalogEntry& entry) {
  static const std::vector<std::size_t> kCounts = [] {
    std::vector<std::size_t> counts;
    for (const auto& e : catalog()) counts.push_back(e.build().state_objects.size());
    return counts;
  }();
  return kCounts[static_cast<std::size_t>(&entry - catalog().data())];
}

}  // namespace

const std::vector<CatalogEntry>& catalog() {
  static const std::vector<CatalogEntry> kCatalog = {
      {"lpm", "longest-prefix match, 10k rules, flow cache on", [] { return build_lpm_nf(); },
       port_lpm},
      {"lpm-nocache", "LPM without the flow cache",
       [] { return build_lpm_nf({.rules = 10000, .use_flow_cache = false}); }, port_lpm},
      {"nat", "network address translation with per-flow table", [] { return build_nat_nf(); },
       [](NicSim& sim, const cir::Function& fn, const Placement& p) -> Program {
         return std::make_unique<NatProgram>(table(sim, fn, 0, p), p.csum_on_engine);
       },
       {{MemLevel::kEmem}}},
      {"firewall", "stateful firewall with rule table", [] { return build_fw_nf(); },
       port_tables<FwProgram, 2>, {{MemLevel::kImem, MemLevel::kCtm}}},
      {"dpi", "deep packet inspection (explicit byte-scan loop)", [] { return build_dpi_nf(); },
       port_tables<DpiProgram, 0>},
      {"heavy-hitter", "per-flow counters with threshold", [] { return build_hh_nf(); },
       port_tables<HhProgram, 1>, {{MemLevel::kImem}}},
      {"meter", "token-bucket metering", [] { return build_meter_nf(); },
       port_tables<MeterProgram, 1>, {{MemLevel::kCtm}}},
      {"flow-stats", "per-flow packet/byte statistics", [] { return build_flowstats_nf(); },
       port_tables<FlowStatsProgram, 1>, {{MemLevel::kImem}}},
      {"rewrite", "header rewrite (minimal NF)", [] { return build_rewrite_nf(); },
       port_tables<RewriteProgram, 0>},
      {"vnf-chain", "DPI -> meter -> header mods -> flow stats", [] { return build_vnf_chain(); },
       port_tables<VnfProgram, 2>, {{MemLevel::kCtm, MemLevel::kImem}}},
      {"crypto-gw", "IPsec-style gateway (crypto engine)", [] { return build_crypto_gw_nf(); },
       [](NicSim& sim, const cir::Function& fn, const Placement& p) -> Program {
         return std::make_unique<CryptoGwProgram>(table(sim, fn, 0, p), true);
       },
       {{MemLevel::kCtm}}},
      {"csum-loop", "checksum as an accumulation loop (idiom demo)",
       [] { return build_csum_loop_nf(); }},
      {"rate-estimator", "EWMA rate estimation (floating point)",
       [] { return build_rate_estimator_nf(); }},
  };
  return kCatalog;
}

const CatalogEntry* find_nf(std::string_view name) {
  for (const auto& entry : catalog()) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

const std::vector<std::string>& nf_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& entry : catalog()) names.emplace_back(entry.name);
    return names;
  }();
  return kNames;
}

Result<std::unique_ptr<nicsim::NicProgram>> make_port(std::string_view name, NicSim& sim,
                                                      const cir::Function& fn,
                                                      const Placement& placement) {
  const CatalogEntry* entry = find_nf(name);
  if (entry == nullptr || entry->port == nullptr) {
    return make_error(strf("no ported implementation for NF '%.*s'", static_cast<int>(name.size()),
                           name.data()));
  }
  const std::size_t expected = state_count(*entry);
  if (fn.state_objects.size() != expected) {
    return make_error(ErrorCode::kVerify,
                      strf("'%s' declares %zu state objects; the %s port expects %zu",
                           fn.name.c_str(), fn.state_objects.size(), entry->name, expected));
  }
  for (const auto& state : fn.state_objects) {
    if (state.entries == 0 || state.entries > kMaxTableBytes / std::max<Bytes>(8, state.entry_bytes)) {
      return make_error(
          ErrorCode::kVerify,
          strf("state object '%s' of '%s' declares %llu entries of %llu B; the simulator takes 1 "
               "to %llu MiB of table (8 B a slot at least)",
               state.name.c_str(), fn.name.c_str(), static_cast<unsigned long long>(state.entries),
               static_cast<unsigned long long>(state.entry_bytes),
               static_cast<unsigned long long>(kMaxTableBytes / 1_MiB)));
    }
  }
  return entry->port(sim, fn, placement);
}

Result<std::unique_ptr<nicsim::NicProgram>> make_port(std::string_view name, NicSim& sim) {
  const CatalogEntry* entry = find_nf(name);
  if (entry == nullptr) return make_port(name, sim, {}, {});
  return make_port(name, sim, entry->build(), entry->placement);
}

Result<nicsim::RunStats> simulate(std::string_view name, const cir::Function& fn,
                                  const Placement& placement, const workload::Trace& trace) {
  NicSim sim;
  auto program = make_port(name, sim, fn, placement);
  if (!program) return program.error();
  return sim.run(*program.value(), trace);
}

Placement placement_of(const lnic::NicProfile& profile, const std::vector<NodeId>& state_regions) {
  Placement placement;
  for (const NodeId region : state_regions) {
    switch (profile.graph.node(region).memory()->kind) {
      case lnic::MemKind::kLocal: placement.state.push_back(MemLevel::kLocal); break;
      case lnic::MemKind::kCtm: placement.state.push_back(MemLevel::kCtm); break;
      case lnic::MemKind::kImem: placement.state.push_back(MemLevel::kImem); break;
      case lnic::MemKind::kEmem: placement.state.push_back(MemLevel::kEmem); break;
    }
  }
  return placement;
}

}  // namespace clara::nf
