// Stage-by-stage replays of Clara's pipeline for the traced run.
//
// staged_analyze() and staged_repair() mirror core::Analyzer::analyze()
// and ::repair() call for call (same cache keys, lookups and inserts,
// same lowering passes, graph build, mapper, predictor and report), but
// open a layer span around each stage. Callers assert that the replay's
// result is bit-identical to the library's (same_analysis), so the
// layer times describe the same work the untraced run measures.
//
// staged_validate() is obs::validate_prediction() split into its
// simulator set-up (NicSim plus the hand-ported program) and the replay.
#pragma once

#include <memory>
#include <string>

#include "bench.hpp"
#include "common/result.hpp"
#include "core/clara.hpp"
#include "obs/accuracy.hpp"

namespace clarabench {

/// Layer span names (also the per-layer metric prefixes).
namespace layer {
inline constexpr const char* kTracegen = "workload.tracegen";
inline constexpr const char* kNfBuild = "nf.build";
inline constexpr const char* kProfile = "lnic.profile";
inline constexpr const char* kCache = "cache.ops";
inline constexpr const char* kLower = "passes.lower";
inline constexpr const char* kHints = "core.hints";
inline constexpr const char* kDataflow = "passes.dataflow";
inline constexpr const char* kMap = "mapping.map";
inline constexpr const char* kRepair = "mapping.repair";
inline constexpr const char* kPredict = "core.predict";
inline constexpr const char* kDescribe = "mapping.describe";
inline constexpr const char* kSweep = "core.sweep";
inline constexpr const char* kFault = "fault.apply";
inline constexpr const char* kSimSetup = "nicsim.setup";
inline constexpr const char* kSimRun = "nicsim.run";
inline constexpr const char* kWire = "serve.wire";
}  // namespace layer

clara::Result<clara::core::Analysis> staged_analyze(SpanLog* log,
                                                    const clara::core::Analyzer& analyzer,
                                                    const clara::cir::Function& nf,
                                                    const clara::workload::Trace& trace,
                                                    const clara::core::AnalyzeOptions& options = {});

clara::Result<clara::core::Analysis> staged_repair(SpanLog* log,
                                                   const clara::core::Analyzer& analyzer,
                                                   const clara::cir::Function& nf,
                                                   const clara::workload::Trace& trace,
                                                   const clara::core::Analysis& previous,
                                                   const clara::core::AnalyzeOptions& options = {});

/// Simulated ground truth for an analyzed scenario; the result equals
/// obs::validate_prediction()'s for the same inputs.
clara::Result<clara::obs::ScenarioResult> staged_validate(SpanLog* log,
                                                          const clara::core::Analyzer& analyzer,
                                                          const clara::obs::ValidationScenario& scenario,
                                                          const clara::core::Analysis& analysis,
                                                          const clara::workload::Trace& trace);

/// The unported CIR for a validation scenario (the ledger's recipe).
clara::Result<clara::cir::Function> scenario_function(const clara::obs::ValidationScenario& s);

/// Exact equality of everything an analysis predicts and maps. Returns
/// an empty string when equal, else what differs.
std::string same_analysis(const clara::core::Analysis& a, const clara::core::Analysis& b);

}  // namespace clarabench
