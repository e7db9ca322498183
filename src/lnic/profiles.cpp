#include "lnic/profiles.hpp"

#include "common/strings.hpp"

namespace clara::lnic {

namespace {

/// Wires island-structured NPUs to the memory hierarchy: every NPU gets
/// its own local memory, the island CTM at weight 1, remote CTMs at the
/// given NUMA weight, and the shared IMEM/EMEM.
struct IslandLayout {
  // Mirrors nicsim::NicConfig's topology so databook parallelism matches
  // the measurement substrate.
  int islands = 4;
  int npus_per_island = 7;
  int threads = 8;
  Bytes local_bytes = 4_KiB;
  Bytes ctm_bytes = 256_KiB;
  double remote_ctm_weight = 2.0;
};

void add_islands(Graph& g, const IslandLayout& layout, NodeId imem, NodeId emem,
                 std::vector<NodeId>* npus_out) {
  std::vector<NodeId> ctms;
  for (int isl = 0; isl < layout.islands; ++isl) {
    ctms.push_back(g.add_memory(strf("ctm%d", isl), MemoryRegion{MemKind::kCtm, layout.ctm_bytes, isl, 0}));
  }
  for (int isl = 0; isl < layout.islands; ++isl) {
    for (int c = 0; c < layout.npus_per_island; ++c) {
      const NodeId npu =
          g.add_compute(strf("npu%d_%d", isl, c), ComputeUnit{UnitKind::kNpuCore, isl, layout.threads, 1});
      npus_out->push_back(npu);
      const NodeId local =
          g.add_memory(strf("local%d_%d", isl, c), MemoryRegion{MemKind::kLocal, layout.local_bytes, isl, 0});
      g.add_edge(npu, local, EdgeKind::kMemAccess, 1.0);
      for (int other = 0; other < layout.islands; ++other) {
        g.add_edge(npu, ctms[other], EdgeKind::kMemAccess, other == isl ? 1.0 : layout.remote_ctm_weight);
      }
      if (imem != kInvalidNode) g.add_edge(npu, imem, EdgeKind::kMemAccess, 1.0);
      g.add_edge(npu, emem, EdgeKind::kMemAccess, 1.0);
    }
  }
  // Hierarchy: CTM spills to EMEM (packet tails), IMEM backs onto EMEM.
  for (const NodeId ctm : ctms) g.add_edge(ctm, emem, EdgeKind::kHierarchy);
  if (imem != kInvalidNode) g.add_edge(imem, emem, EdgeKind::kHierarchy);
}

}  // namespace

NicProfile netronome_agilio_cx() {
  NicProfile profile;
  profile.name = "netronome-agilio-cx";
  Graph& g = profile.graph;

  const NodeId ingress = g.add_switch("ingress", SwitchHub{512, QueueDiscipline::kFifo});
  const NodeId egress = g.add_switch("egress", SwitchHub{512, QueueDiscipline::kFifo});

  const NodeId imem = g.add_memory("imem", MemoryRegion{MemKind::kImem, 4_MiB, -1, 0});
  const NodeId emem = g.add_memory("emem", MemoryRegion{MemKind::kEmem, 8_GiB, -1, 3_MiB});

  // The parser is a fixed ingress stage (stage 0); the checksum, crypto
  // and LPM engines are services NPU code can invoke at any point in its
  // run-to-completion processing, so they share the NPUs' stage.
  const NodeId parser = g.add_compute("parser", ComputeUnit{UnitKind::kHeaderEngine, -1, 1, 0});
  const NodeId csum = g.add_compute("csum", ComputeUnit{UnitKind::kChecksumAccel, -1, 1, 1});
  const NodeId crypto = g.add_compute("crypto", ComputeUnit{UnitKind::kCryptoAccel, -1, 1, 1});
  const NodeId lpm = g.add_compute("lpm-engine", ComputeUnit{UnitKind::kLpmEngine, -1, 1, 1});

  std::vector<NodeId> npus;
  add_islands(g, IslandLayout{}, imem, emem, &npus);

  // Accelerators see the shared memories (tables for the LPM engine live
  // in IMEM/EMEM; the flow cache is its private SRAM, modeled as a
  // parameter rather than a region).
  for (const NodeId accel : {parser, csum, crypto, lpm}) {
    g.add_edge(accel, imem, EdgeKind::kMemAccess, 1.0);
    g.add_edge(accel, emem, EdgeKind::kMemAccess, 1.0);
  }

  // Steering: ingress feeds stage-0 units and NPUs; everything reaches
  // egress.
  for (const NodeId u : {parser, csum}) g.add_edge(ingress, u, EdgeKind::kSwitchLink);
  for (const NodeId u : npus) g.add_edge(ingress, u, EdgeKind::kSwitchLink);
  g.add_edge(ingress, crypto, EdgeKind::kSwitchLink);
  g.add_edge(ingress, lpm, EdgeKind::kSwitchLink);
  for (const NodeId u : {parser, csum, crypto, lpm}) g.add_edge(u, egress, EdgeKind::kSwitchLink);
  for (const NodeId u : npus) g.add_edge(u, egress, EdgeKind::kSwitchLink);
  // Stage order: parser/csum precede NPUs; NPUs may invoke crypto/lpm.
  for (const NodeId u : npus) {
    g.add_edge(parser, u, EdgeKind::kPipeline);
    g.add_edge(csum, u, EdgeKind::kPipeline);
  }

  ParameterStore& p = profile.params;
  using namespace keys;
  p.set_scalar(kClockHz, 800e6);  // NFP NPU clock

  // Memory (paper §3.2).
  p.set_scalar(kMemReadLocal, 2);
  p.set_scalar(kMemWriteLocal, 2);
  p.set_scalar(kMemReadCtm, 50);
  p.set_scalar(kMemWriteCtm, 50);
  p.set_scalar(kMemReadImem, 250);
  p.set_scalar(kMemWriteImem, 250);
  p.set_scalar(kMemReadEmem, 500);
  p.set_scalar(kMemWriteEmem, 500);
  p.set_scalar(kEmemCacheHit, 150);

  // NPU instruction classes. In-order cores with stable per-instruction
  // latencies (paper §4: "NPU cores do not perform out-of-order
  // execution, so they have stable performance parameters").
  p.set_scalar(kInstrAlu, 1);
  p.set_scalar(kInstrMul, 5);
  p.set_scalar(kInstrDiv, 20);
  p.set_scalar(kInstrBranch, 2);
  p.set_scalar(kInstrMove, 3);  // metadata modifications: 2-5 cycles
  p.set_scalar(kInstrFpEmulation, 30);

  // Header parsing ~150 cycles (CTM -> local copy dominates).
  p.set_scalar(kParseBase, 110);
  p.set_scalar(kParsePerByte, 1.0);  // ~40 header bytes -> ~150 total

  // Checksum accelerator: ~300 cycles for a 1000 B packet at the ingress
  // unit; NPU-software emulation pays ~1700 extra cycles for streaming
  // the payload through the core (paper §2.1).
  p.set_curve(kCsumAccel, PiecewiseLinear({{0.0, 60.0}, {1000.0, 300.0}, {1500.0, 420.0}}));
  p.set_scalar(kCsumSwExtra, 1700);

  // AES engine: setup + per-byte pipeline cost.
  p.set_curve(kCryptoAccel, PiecewiseLinear({{0.0, 200.0}, {1024.0, 1224.0}, {4096.0, 4296.0}}));
  p.set_scalar(kCryptoSwFactor, 25);  // software AES is ~25x the engine

  // Match-action LPM in DRAM: cost grows with the number of table
  // entries (paper §4: "the latency for longest prefix match grows with
  // the number of table entries"). The flow cache is an SRAM exact-match
  // front-end with a constant hit cost.
  p.set_curve(kLpmDram, PiecewiseLinear({{0.0, 5000.0}, {30000.0, 1205000.0}}));
  p.set_scalar(kFlowCacheHit, 200);
  p.set_scalar(kFlowCacheCapacity, 4096);  // entries

  // Packet datapath: ingress DMA into CTM; packets <= 1 kB stay in CTM,
  // larger tails spill to EMEM (paper §3.2).
  p.set_scalar(kIngressDmaBase, 500);
  p.set_scalar(kIngressDmaPerByte, 3.5);
  p.set_scalar(kEgressBase, 400);
  p.set_scalar(kCtmPacketResidency, 1024);
  p.set_scalar(kSpillPerByte, 2.0);

  p.set_scalar(kHubService, 40);
  return profile;
}

NicProfile soc_arm_nic() {
  NicProfile profile;
  profile.name = "soc-arm";
  Graph& g = profile.graph;

  const NodeId ingress = g.add_switch("ingress", SwitchHub{1024, QueueDiscipline::kFifo});
  const NodeId egress = g.add_switch("egress", SwitchHub{1024, QueueDiscipline::kFifo});

  // Conventional hierarchy: per-core L1 (kLocal), shared L2 (kCtm, one
  // "island"), DRAM (kEmem) fronted by a 2 MiB LLC. No IMEM level: the
  // SoC has nothing between L2 and DRAM, so the region is absent from
  // the graph (params still carry the key for completeness).
  const NodeId emem = g.add_memory("dram", MemoryRegion{MemKind::kEmem, 16_GiB, -1, 2_MiB});

  std::vector<NodeId> cores;
  IslandLayout layout;
  layout.islands = 1;
  layout.npus_per_island = 8;
  layout.threads = 2;
  layout.local_bytes = 32_KiB;
  layout.ctm_bytes = 1_MiB;
  add_islands(g, layout, kInvalidNode, emem, &cores);

  const NodeId crypto = g.add_compute("crypto", ComputeUnit{UnitKind::kCryptoAccel, -1, 1, 1});
  g.add_edge(crypto, emem, EdgeKind::kMemAccess, 1.0);

  for (const NodeId u : cores) {
    g.add_edge(ingress, u, EdgeKind::kSwitchLink);
    g.add_edge(u, egress, EdgeKind::kSwitchLink);
  }
  g.add_edge(ingress, crypto, EdgeKind::kSwitchLink);
  g.add_edge(crypto, egress, EdgeKind::kSwitchLink);

  ParameterStore& p = profile.params;
  using namespace keys;
  p.set_scalar(kClockHz, 2.0e9);  // ARM A72-class cores

  p.set_scalar(kMemReadLocal, 4);    // L1
  p.set_scalar(kMemWriteLocal, 4);
  p.set_scalar(kMemReadCtm, 20);     // L2
  p.set_scalar(kMemWriteCtm, 20);
  p.set_scalar(kMemReadImem, 20);    // unused level; mirrors L2
  p.set_scalar(kMemWriteImem, 20);
  p.set_scalar(kMemReadEmem, 200);   // DRAM
  p.set_scalar(kMemWriteEmem, 200);
  p.set_scalar(kEmemCacheHit, 45);   // LLC

  p.set_scalar(kInstrAlu, 1);
  p.set_scalar(kInstrMul, 3);
  p.set_scalar(kInstrDiv, 12);
  p.set_scalar(kInstrBranch, 1);
  p.set_scalar(kInstrMove, 1);
  p.set_scalar(kInstrFpEmulation, 1);  // real FPU: no emulation penalty

  p.set_scalar(kParseBase, 60);
  p.set_scalar(kParsePerByte, 0.5);

  // No checksum accelerator: the "accelerated" curve equals software
  // cost, and there is no extra penalty to emulate (it is already sw).
  p.set_curve(kCsumAccel, PiecewiseLinear({{0.0, 150.0}, {1000.0, 1400.0}, {1500.0, 2000.0}}));
  p.set_scalar(kCsumSwExtra, 0);

  p.set_curve(kCryptoAccel, PiecewiseLinear({{0.0, 300.0}, {1024.0, 1800.0}, {4096.0, 6500.0}}));
  p.set_scalar(kCryptoSwFactor, 12);

  // LPM runs in software (radix tree in DRAM): logarithmic-ish growth,
  // far flatter than the Netronome match-action table scan but with a
  // higher floor from cache misses. No flow-cache SRAM.
  p.set_curve(kLpmDram, PiecewiseLinear({{0.0, 900.0}, {5000.0, 2400.0}, {30000.0, 4200.0}}));
  p.set_scalar(kFlowCacheHit, 0);
  p.set_scalar(kFlowCacheCapacity, 0);

  p.set_scalar(kIngressDmaBase, 900);  // PCIe-ish on-ramp into DRAM rings
  p.set_scalar(kIngressDmaPerByte, 1.0);
  p.set_scalar(kEgressBase, 700);
  p.set_scalar(kCtmPacketResidency, 0);  // packets live in DRAM, cached
  p.set_scalar(kSpillPerByte, 0.5);

  p.set_scalar(kHubService, 60);
  return profile;
}

NicProfile pipeline_asic_nic() {
  NicProfile profile;
  profile.name = "pipeline-asic";
  Graph& g = profile.graph;

  const NodeId ingress = g.add_switch("ingress", SwitchHub{2048, QueueDiscipline::kFifo});
  const NodeId egress = g.add_switch("egress", SwitchHub{2048, QueueDiscipline::kFifo});

  const NodeId sram = g.add_memory("stage-sram", MemoryRegion{MemKind::kCtm, 12_MiB, -1, 0});
  const NodeId dram = g.add_memory("dram", MemoryRegion{MemKind::kEmem, 4_GiB, -1, 0});

  // Fixed-function match-action stages; blisteringly fast on header work.
  std::vector<NodeId> stages;
  for (int s = 0; s < 4; ++s) {
    const NodeId st = g.add_compute(strf("ma-stage%d", s), ComputeUnit{UnitKind::kHeaderEngine, -1, 1, s, /*match_action=*/true});
    stages.push_back(st);
    g.add_edge(st, sram, EdgeKind::kMemAccess, 1.0);
    if (s > 0) g.add_edge(stages[s - 1], st, EdgeKind::kPipeline);
  }
  const NodeId lpm = g.add_compute("lpm-engine", ComputeUnit{UnitKind::kLpmEngine, -1, 1, 1});
  g.add_edge(lpm, sram, EdgeKind::kMemAccess, 1.0);
  // A pair of anemic service microengines for anything the pipeline
  // cannot express; they only see DRAM plus a sliver of local memory.
  std::vector<NodeId> cores;
  for (int c = 0; c < 2; ++c) {
    const NodeId me = g.add_compute(strf("microengine%d", c), ComputeUnit{UnitKind::kNpuCore, -1, 4, 4});
    cores.push_back(me);
    const NodeId local = g.add_memory(strf("me-local%d", c), MemoryRegion{MemKind::kLocal, 8_KiB, -1, 0});
    g.add_edge(me, local, EdgeKind::kMemAccess, 1.0);
    g.add_edge(me, dram, EdgeKind::kMemAccess, 1.0);
    g.add_edge(me, sram, EdgeKind::kMemAccess, 1.5);
  }
  g.add_edge(sram, dram, EdgeKind::kHierarchy);

  g.add_edge(ingress, stages.front(), EdgeKind::kSwitchLink);
  g.add_edge(ingress, lpm, EdgeKind::kSwitchLink);
  for (const NodeId u : cores) {
    g.add_edge(ingress, u, EdgeKind::kSwitchLink);
    g.add_edge(u, egress, EdgeKind::kSwitchLink);
  }
  g.add_edge(stages.back(), egress, EdgeKind::kSwitchLink);
  g.add_edge(lpm, egress, EdgeKind::kSwitchLink);
  for (const NodeId st : stages) {
    for (const NodeId me : cores) g.add_edge(st, me, EdgeKind::kPipeline);
  }

  ParameterStore& p = profile.params;
  using namespace keys;
  p.set_scalar(kClockHz, 1.2e9);

  p.set_scalar(kMemReadLocal, 1);
  p.set_scalar(kMemWriteLocal, 1);
  p.set_scalar(kMemReadCtm, 4);      // stage SRAM: single-digit cycles
  p.set_scalar(kMemWriteCtm, 4);
  p.set_scalar(kMemReadImem, 4);     // unused level; mirrors SRAM
  p.set_scalar(kMemWriteImem, 4);
  p.set_scalar(kMemReadEmem, 350);
  p.set_scalar(kMemWriteEmem, 350);
  p.set_scalar(kEmemCacheHit, 350);  // no cache in front of DRAM

  // Microengines are slow at general compute.
  p.set_scalar(kInstrAlu, 2);
  p.set_scalar(kInstrMul, 12);
  p.set_scalar(kInstrDiv, 60);
  p.set_scalar(kInstrBranch, 4);
  p.set_scalar(kInstrMove, 2);
  p.set_scalar(kInstrFpEmulation, 80);

  // Header engines parse essentially for free.
  p.set_scalar(kParseBase, 12);
  p.set_scalar(kParsePerByte, 0.1);

  p.set_curve(kCsumAccel, PiecewiseLinear({{0.0, 20.0}, {1500.0, 45.0}}));
  p.set_scalar(kCsumSwExtra, 5000);  // emulating on a microengine is dire

  p.set_curve(kCryptoAccel, PiecewiseLinear({{0.0, 6000.0}, {4096.0, 120000.0}}));  // no engine: sw cost
  p.set_scalar(kCryptoSwFactor, 1);

  // TCAM-backed LPM: constant-time until the table exceeds stage SRAM.
  p.set_curve(kLpmDram, PiecewiseLinear({{0.0, 30.0}, {20000.0, 36.0}, {30000.0, 5000.0}}));
  p.set_scalar(kFlowCacheHit, 12);
  p.set_scalar(kFlowCacheCapacity, 65536);

  p.set_scalar(kIngressDmaBase, 100);
  p.set_scalar(kIngressDmaPerByte, 0.4);
  p.set_scalar(kEgressBase, 80);
  p.set_scalar(kCtmPacketResidency, 10240);
  p.set_scalar(kSpillPerByte, 1.0);

  p.set_scalar(kHubService, 10);
  return profile;
}

std::span<const ProfileEntry> profile_table() {
  static constexpr ProfileEntry kProfiles[] = {
      {"netronome-agilio-cx", netronome_agilio_cx},
      {"soc-arm", soc_arm_nic},
      {"pipeline-asic", pipeline_asic_nic},
  };
  return kProfiles;
}

std::optional<NicProfile> find_profile(std::string_view name) {
  for (const auto& entry : profile_table()) {
    if (name == entry.name) return entry.build();
  }
  return std::nullopt;
}

std::vector<NicProfile> all_profiles() {
  std::vector<NicProfile> out;
  for (const auto& entry : profile_table()) out.push_back(entry.build());
  return out;
}

}  // namespace clara::lnic
