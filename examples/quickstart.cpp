// Quickstart: predict an unported NF's SmartNIC latency, then check the
// prediction against the "hardware" (the cycle-accounting simulator)
// running the hand-ported implementation.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/clara.hpp"
#include "nf/catalog.hpp"
#include "nf/nf_cir.hpp"
#include "nicsim/sim.hpp"
#include "workload/tracegen.hpp"

int main() {
  using namespace clara;

  // 1. Describe the workload: 80% TCP, 10k flows, 300 B payloads at
  //    60 kpps (the paper's §4 setup, shortened to 50k packets).
  auto profile_result = workload::parse_profile("tcp=0.8 flows=10000 payload=300 pps=60000 packets=50000");
  if (!profile_result) {
    std::fprintf(stderr, "profile error: %s\n", profile_result.error().message.c_str());
    return 1;
  }
  const workload::Trace trace = workload::generate_trace(profile_result.value());

  // 2. The NF in its original, unported form (DPDK-style calls).
  const cir::Function nat = nf::build_nat_nf();

  // 3. Ask Clara for a prediction on a Netronome-like target.
  core::Analyzer clara_tool(lnic::netronome_agilio_cx());
  auto analysis = clara_tool.analyze(nat, trace);
  if (!analysis) {
    std::fprintf(stderr, "analysis error: %s\n", analysis.error().message.c_str());
    return 1;
  }
  const auto& a = analysis.value();

  std::printf("=== Clara prediction for '%s' ===\n", nat.name.c_str());
  std::printf("predicted mean latency : %.0f cycles (%.2f us)\n", a.prediction.mean_latency_cycles,
              a.prediction.mean_latency_us);
  std::printf("idealized throughput   : %.0f pps (bottleneck: %s)\n", a.prediction.throughput_pps,
              a.prediction.bottleneck.c_str());
  std::printf("per-packet-type profile:\n");
  for (const auto& cls : a.prediction.classes) {
    std::printf("  %-18s %5.1f%%  %8.0f cycles\n", cls.name.c_str(), cls.fraction * 100.0, cls.latency_cycles);
  }
  std::printf("\n%s\n", a.report.c_str());

  // 4. Validate: run the manually-ported NAT on the simulated NIC, with
  //    the flow table placed where Clara's mapping put it.
  nicsim::NicSim nic;
  const auto placement = nf::placement_of(clara_tool.profile(), a.mapping.state_region);
  auto ported = nf::make_port("nat", nic, nat, placement);
  if (!ported) {
    std::fprintf(stderr, "port error: %s\n", ported.error().message.c_str());
    return 1;
  }
  const auto stats = nic.run(*ported.value(), trace);

  std::printf("=== Hardware (simulator) measurement ===\n");
  std::printf("actual mean latency    : %.0f cycles (p99 %.0f)\n", stats.mean_latency(), stats.p99_latency());
  const double err =
      (a.prediction.mean_latency_cycles - stats.mean_latency()) / stats.mean_latency() * 100.0;
  std::printf("prediction error       : %+.1f%%\n", err);
  return 0;
}
