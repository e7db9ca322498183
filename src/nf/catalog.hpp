// The NF catalog: each corpus NF defined once — its name, its CIR
// builder (the "unported" NF, nf_cir.hpp) and, where one exists, its
// hand port to the simulator (nf_ported.hpp; paper §4). The CLI, the
// daemon, the accuracy ledger, the benches and the tests all resolve NF
// names here.
//
// A port takes its table layout (names, entries, entry bytes) from the
// CIR function's state objects, so the predictor and the simulator see
// the same tables by construction. The caller chooses only where the
// tables live: the analysis mapping's placement (placement_of) or the
// entry's fixed one.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cir/function.hpp"
#include "common/result.hpp"
#include "lnic/profiles.hpp"
#include "nicsim/sim.hpp"

namespace clara::nf {

/// Where a hand port keeps its state and computes its checksum: the
/// hand-tuning choices Figure 1 varies.
struct Placement {
  /// Memory level per CIR state object, in state_objects order. Objects
  /// past the end live in EMEM (a degraded mapping can have fewer
  /// regions than the NF has state objects).
  std::vector<nicsim::MemLevel> state;
  /// Checksum on the engine; false computes it on the cores
  /// (`clara simulate --csum-sw`).
  bool csum_on_engine = true;

  [[nodiscard]] nicsim::MemLevel level(std::size_t state_index) const {
    return state_index < state.size() ? state[state_index] : nicsim::MemLevel::kEmem;
  }
};

/// Creates the simulator tables `fn` declares at `placement` and returns
/// the ported program bound to them.
using PortFactory = std::unique_ptr<nicsim::NicProgram> (*)(nicsim::NicSim& sim,
                                                            const cir::Function& fn,
                                                            const Placement& placement);

struct CatalogEntry {
  const char* name;
  const char* description;
  cir::Function (*build)();
  PortFactory port = nullptr;  // null: no hand port
  Placement placement = {};    // the fixed placement `clara simulate` uses
};

/// The corpus, in listing order.
const std::vector<CatalogEntry>& catalog();

/// Lookup by name; nullptr when unknown.
const CatalogEntry* find_nf(std::string_view name);

/// Catalog names, for did-you-mean suggestions on unknown NFs.
const std::vector<std::string>& nf_names();

/// `name`'s hand port with tables laid out from `fn` (the entry's CIR,
/// possibly built at other sizes). Errors when `name` has no port, or
/// (kVerify) when `fn` declares a different number of state objects than
/// the entry or a state object of no entries or over 256 MiB of table.
Result<std::unique_ptr<nicsim::NicProgram>> make_port(std::string_view name, nicsim::NicSim& sim,
                                                      const cir::Function& fn,
                                                      const Placement& placement);

/// `name`'s hand port for the entry's own CIR at the entry's placement.
Result<std::unique_ptr<nicsim::NicProgram>> make_port(std::string_view name, nicsim::NicSim& sim);

/// Replays `trace` through make_port(name, sim, fn, placement) on a
/// fresh default simulator.
Result<nicsim::RunStats> simulate(std::string_view name, const cir::Function& fn,
                                  const Placement& placement, const workload::Trace& trace);

/// The placement an analysis mapping chose: the memory level of each
/// mapped state region (Mapping::state_region), checksum on the engine.
Placement placement_of(const lnic::NicProfile& profile, const std::vector<NodeId>& state_regions);

}  // namespace clara::nf
