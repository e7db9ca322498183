// The benchmark's three workloads. Each measures for
// RunOptions::seconds, runs its output checks outside the timing, and
// returns end-to-end metrics (untraced) or per-layer metrics (traced).
// METRICS.md says why each workload exists and what it should move.
#pragma once

#include "bench.hpp"

namespace clarabench {

/// clarad's steady state: an in-process serve::Daemon driven closed-loop
/// by RunOptions::threads serve::Client connections.
RunResult run_serve_mixed(const RunOptions& options);

/// First-touch analysis of the whole NF corpus on every NIC profile,
/// with the analysis cache cleared before each pass.
RunResult run_cold_map(const RunOptions& options);

/// The accuracy ledger's predicted-vs-simulated validation matrix.
RunResult run_validate_matrix(const RunOptions& options);

/// The workload spec shared by serve_mixed and cold_map: 2k packets.
std::string small_workload_spec(std::uint64_t seed);

}  // namespace clarabench
