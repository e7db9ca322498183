// Concrete LNIC profiles.
//
// A profile bundles the LNIC graph (architecture skeleton) with a
// parameter store (databook defaults, later refined by microbenchmarks).
// Three contrasting backends are provided, mirroring the paper's
// discussion of SmartNIC diversity (§2.1):
//
//  * netronome_agilio_cx — the paper's reference target: NPU islands with
//    CTM, shared IMEM/EMEM (+3 MB EMEM cache), checksum/crypto
//    accelerators and a match-action LPM engine with a flow cache.
//  * soc_arm_nic — an ARM-SoC NIC (LiquidIO/BlueField style): fewer,
//    faster general cores, a conventional L1/L2/LLC hierarchy, a crypto
//    engine, but no checksum accelerator, flow cache, or LPM engine.
//  * pipeline_asic_nic — an on-path pipeline ASIC: fast header engines
//    in fixed stages with small SRAM tables and only anemic
//    general-purpose microengines, so compute-heavy NFs map poorly.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lnic/lnic.hpp"
#include "lnic/params.hpp"

namespace clara::lnic {

struct NicProfile {
  std::string name;
  Graph graph;
  ParameterStore params;
};

/// Netronome Agilio CX 40GbE-like profile. The island/core counts are
/// scaled down from the physical part (which has dozens of NPUs) to keep
/// simulation fast; the memory hierarchy sizes and latencies follow the
/// numbers the paper reports in §3.2:
///   local 4 kB @ 1-3 cyc, CTM 256 kB @ ~50 cyc, IMEM 4 MB @ ~250 cyc,
///   EMEM 8 GB @ ~500 cyc with a 3 MB cache; 8 threads per NPU; packets
///   <= 1 kB resident in CTM, larger tails spill to EMEM; header parse
///   ~150 cyc; metadata modification 2-5 cyc; checksum of a 1000 B packet
///   ~300 cyc at the ingress accelerator vs ~1700 extra on an NPU.
NicProfile netronome_agilio_cx();

/// ARM-SoC style NIC (see header comment).
NicProfile soc_arm_nic();

/// Pipeline-ASIC style NIC (see header comment).
NicProfile pipeline_asic_nic();

/// One built-in profile: its name and the function that builds it.
struct ProfileEntry {
  const char* name;
  NicProfile (*build)();
};

/// The built-in profiles in listing order: the one name→builder table
/// find_profile() and all_profiles() read.
std::span<const ProfileEntry> profile_table();

/// Builds the built-in profile called `name` (and no other); nullopt
/// when there is none.
std::optional<NicProfile> find_profile(std::string_view name);

/// All built-in profiles, for iteration in tools/benches.
std::vector<NicProfile> all_profiles();

}  // namespace clara::lnic
