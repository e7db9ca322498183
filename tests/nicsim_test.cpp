// Tests for the SmartNIC simulator: caches, tables, service units, the
// execution engine, and behavioural properties (monotonicity, queueing,
// contention, drops).
#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "nf/nf_ported.hpp"
#include "nicsim/cache.hpp"
#include "nicsim/sim.hpp"
#include "workload/tracegen.hpp"

namespace clara::nicsim {
namespace {

workload::Trace make_trace(const std::string& spec) {
  return workload::generate_trace(workload::parse_profile(spec).value());
}

TEST(SetAssocCacheTest, HitAfterMiss) {
  SetAssocCache cache(4096, 64, 4);
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(63));   // same line
  EXPECT_FALSE(cache.access(64));  // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(SetAssocCacheTest, LruEviction) {
  // 1 set x 2 ways: lines A, B fill; touching A then inserting C evicts B.
  SetAssocCache cache(128, 64, 2);
  ASSERT_EQ(cache.num_sets() * cache.ways(), 2u);
  const std::uint64_t set_stride = 64ull * cache.num_sets();
  const std::uint64_t a = 0, b = set_stride, c = 2 * set_stride;
  cache.access(a);
  cache.access(b);
  cache.access(a);        // A is MRU
  cache.access(c);        // evicts B
  EXPECT_TRUE(cache.access(a));
  EXPECT_FALSE(cache.access(b));  // was evicted
}

TEST(SetAssocCacheTest, WorkingSetBelowCapacityAllHits) {
  SetAssocCache cache(1_MiB, 64, 8);
  const std::size_t lines = (1_MiB / 64) / 2;  // half capacity
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t l = 0; l < lines; ++l) cache.access(l * 64);
  }
  // After the cold round, everything hits.
  EXPECT_EQ(cache.misses(), lines);
  EXPECT_EQ(cache.hits(), 2 * lines);
}

TEST(SetAssocCacheTest, WorkingSetAboveCapacityThrashes) {
  SetAssocCache cache(64_KiB, 64, 8);
  const std::size_t lines = 4 * (64_KiB / 64);  // 4x capacity, circular scan
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t l = 0; l < lines; ++l) cache.access(l * 64);
  }
  EXPECT_LT(cache.hit_rate(), 0.05);  // LRU + circular scan = ~0 hits
}

TEST(SetAssocCacheTest, FlushResets) {
  SetAssocCache cache(4096, 64, 4);
  cache.access(0);
  cache.flush();
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  EXPECT_FALSE(cache.access(0));
}

TEST(LruTableTest, InsertAndHit) {
  LruTable t(4);
  EXPECT_FALSE(t.lookup_or_insert(1));
  EXPECT_TRUE(t.lookup_or_insert(1));
  EXPECT_EQ(t.size(), 1u);
}

TEST(LruTableTest, EvictsLeastRecentlyUsed) {
  LruTable t(3);
  t.lookup_or_insert(1);
  t.lookup_or_insert(2);
  t.lookup_or_insert(3);
  t.lookup_or_insert(1);  // refresh 1; LRU is now 2
  t.lookup_or_insert(4);  // evicts 2
  EXPECT_TRUE(t.contains(1));
  EXPECT_FALSE(t.contains(2));
  EXPECT_TRUE(t.contains(3));
  EXPECT_TRUE(t.contains(4));
}

TEST(LruTableTest, ZeroCapacityNeverHits) {
  LruTable t(0);
  EXPECT_FALSE(t.lookup_or_insert(1));
  EXPECT_FALSE(t.lookup_or_insert(1));
}

TEST(LruTableTest, ClearEmpties) {
  LruTable t(4);
  t.lookup_or_insert(1);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.contains(1));
}

TEST(LruTableTest, StressAgainstReference) {
  LruTable t(16);
  std::vector<std::uint64_t> reference;  // front = MRU
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const std::uint64_t key = (i * 7919) % 40;
    const bool hit = t.lookup_or_insert(key);
    const auto it = std::find(reference.begin(), reference.end(), key);
    const bool ref_hit = it != reference.end();
    EXPECT_EQ(hit, ref_hit) << "step " << i;
    if (ref_hit) reference.erase(it);
    reference.insert(reference.begin(), key);
    if (reference.size() > 16) reference.pop_back();
  }
}

TEST(LruTableTest, StressAgainstReferenceAtFlowCacheSize) {
  // The simulator's flow-cache size, ~3x as many keys as slots, and key
  // groups chosen against the index: some share one home slot (long
  // probe runs), some start their probe in the last slots (runs that
  // wrap to the front), so backward-shift deletion moves entries across
  // both. A std::list + map reference gives the expected LRU order.
  constexpr std::uint32_t kCapacity = 4096;
  LruTable t(kCapacity);
  const std::size_t slots = t.index_slots();
  std::vector<std::uint64_t> keys;
  std::uint64_t candidate = 1;
  auto collect = [&](std::size_t count, auto wanted) {
    for (std::size_t found = 0; found < count; ++candidate) {
      if (wanted(t.home_slot(candidate))) {
        keys.push_back(candidate);
        ++found;
      }
    }
  };
  collect(48, [&](std::size_t home) { return home == slots / 2; });
  collect(48, [&](std::size_t home) { return home == 7; });
  collect(400, [&](std::size_t home) { return home + 4 >= slots; });
  collect(400, [&](std::size_t home) { return home < 4; });
  while (keys.size() < 3 * kCapacity) keys.push_back(candidate++ * 0x9e3779b97f4a7c15ULL);

  std::list<std::uint64_t> reference;  // front = MRU
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> where;
  auto reference_access = [&](std::uint64_t key) {
    const auto it = where.find(key);
    const bool hit = it != where.end();
    if (hit) reference.erase(it->second);
    reference.push_front(key);
    where[key] = reference.begin();
    if (reference.size() > kCapacity) {
      where.erase(reference.back());
      reference.pop_back();
    }
    return hit;
  };

  Rng rng(99);
  for (int round = 0; round < 2; ++round) {  // the second round reuses the table after clear()
    for (int i = 0; i < 50'000; ++i) {
      // Skew half the draws toward the colliding groups at the front.
      const std::uint64_t key =
          keys[rng.chance(0.5) ? rng.next_below(896) : rng.next_below(keys.size())];
      ASSERT_EQ(t.lookup_or_insert(key), reference_access(key)) << "round " << round << " op " << i;
      if (i % 5000 == 0) {
        for (const std::uint64_t k : keys) {
          ASSERT_EQ(t.contains(k), where.count(k) > 0) << "round " << round << " op " << i;
        }
      }
    }
    EXPECT_EQ(t.size(), kCapacity);
    t.clear();
    reference.clear();
    where.clear();
    EXPECT_EQ(t.size(), 0u);
    for (const std::uint64_t k : keys) ASSERT_FALSE(t.contains(k));
  }
}

TEST(ExactTableTest, LookupMissesUntilUpdate) {
  ExactTable t("t", 1024, 64, MemLevel::kCtm);
  EXPECT_FALSE(t.lookup(42).hit);
  t.update(42);
  EXPECT_TRUE(t.lookup(42).hit);
  EXPECT_EQ(t.occupied(), 1u);
}

TEST(ExactTableTest, SlotCollisionEvicts) {
  ExactTable t("t", 1, 64, MemLevel::kCtm);  // single slot
  t.update(1);
  EXPECT_TRUE(t.lookup(1).hit);
  t.update(2);
  EXPECT_TRUE(t.lookup(2).hit);
  EXPECT_FALSE(t.lookup(1).hit);
}

TEST(ExactTableTest, AddressesWithinFootprint) {
  ExactTable t("t", 100, 32, MemLevel::kEmem);
  t.set_base(1 << 20);
  for (std::uint64_t key = 1; key < 50; ++key) {
    const auto plan = t.lookup(key);
    EXPECT_GE(plan.addr0, t.base());
    EXPECT_LT(plan.addr1, t.base() + t.address_span());
  }
}

TEST(ServiceUnitTest, SerializesRequests) {
  ServiceUnit unit;
  EXPECT_EQ(unit.request(0, 10), 10u);
  EXPECT_EQ(unit.request(0, 10), 20u);   // queued behind the first
  EXPECT_EQ(unit.request(100, 5), 105u); // idle gap
  EXPECT_EQ(unit.busy_cycles(), 25u);
}

TEST(ServiceUnitTest, SaturatesInsteadOfWrapping) {
  // Regression: extreme service values used to wrap the 64-bit timeline,
  // silently reordering every later reservation. The unit must pin at
  // the top of the cycle range instead.
  const Cycles top = ~Cycles{0};
  ServiceUnit unit;
  EXPECT_EQ(unit.request(top - 5, 100), top);    // start + service overflows
  EXPECT_EQ(unit.request(0, 100), top);          // queued behind the pinned unit
  EXPECT_EQ(unit.busy_cycles(), 200u);

  ServiceUnit unit2;
  EXPECT_EQ(unit2.request(10, top), top);        // service alone near the limit
  EXPECT_EQ(unit2.request(top, top), top);       // both extreme
  EXPECT_EQ(unit2.busy_cycles(), top);           // busy accounting saturates too
}

TEST(NicSimTest, ExtremeServiceValuesDoNotWrapTimeline) {
  // A config with absurd accelerator costs must yield a saturated (huge)
  // latency, never a wrapped-around small one.
  NicConfig config;
  config.csum_accel_base = 1e30;  // would overflow any integer cast
  config.crypto_base = 1e30;
  NicSim sim(config);
  auto& sa = sim.create_table("sa", 1024, 64, MemLevel::kCtm);
  nf::CryptoGwProgram program(sa, /*use_crypto_accel=*/true);
  workload::PacketMeta pkt;
  pkt.payload_len = 512;
  sa.update(pkt.flow_hash());  // SA hit so the crypto path actually runs
  const Cycles t = sim.measure_one(program, pkt);
  EXPECT_EQ(t, ~Cycles{0});  // pinned at the end of time, not wrapped

  // Sane configs stay far away from saturation.
  NicSim sane;
  auto& sane_sa = sane.create_table("sa", 1024, 64, MemLevel::kCtm);
  sane_sa.update(pkt.flow_hash());
  nf::CryptoGwProgram sane_program(sane_sa, true);
  EXPECT_LT(sane.measure_one(sane_program, pkt), Cycles{1} << 40);
}

TEST(NicSimTest, MeasureOneIsDeterministic) {
  NicSim sim;
  nf::RewriteProgram program;
  workload::PacketMeta pkt;
  pkt.payload_len = 300;
  const auto a = sim.measure_one(program, pkt);
  NicSim sim2;
  const auto b = sim2.measure_one(program, pkt);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
}

TEST(NicSimTest, LatencyGrowsWithPayload) {
  NicSim sim;
  nf::DpiProgram program;
  Cycles prev = 0;
  for (std::uint16_t payload : {100, 400, 800, 1200}) {
    workload::PacketMeta pkt;
    pkt.payload_len = payload;
    const auto t = sim.measure_one(program, pkt);
    EXPECT_GT(t, prev) << payload;
    prev = t;
  }
}

TEST(NicSimTest, SpillKicksInAboveResidency) {
  // The per-byte slope above the CTM residency exceeds the slope below.
  NicSim sim;
  nf::RewriteProgram program;
  auto measure = [&](std::uint16_t payload) {
    workload::PacketMeta pkt;
    pkt.payload_len = payload;
    return static_cast<double>(sim.measure_one(program, pkt));
  };
  const double slope_small = (measure(800) - measure(400)) / 400.0;
  const double slope_large = (measure(2200) - measure(1800)) / 400.0;
  EXPECT_GT(slope_large, slope_small + 1.0);
}

TEST(NicSimTest, CsumAccelBeatsSoftware) {
  workload::PacketMeta pkt;
  pkt.payload_len = 1000;
  // Fresh simulator per variant; measure twice and keep the warm-table
  // number so both variants take the lookup-hit path.
  auto measure = [&](bool accel) {
    NicSim sim;
    auto& table = sim.create_table("t", 1024, 64, MemLevel::kCtm);
    nf::NatProgram program(table, accel);
    sim.measure_one(program, pkt);
    return static_cast<double>(sim.measure_one(program, pkt));
  };
  const double fast = measure(true);
  const double slow = measure(false);
  EXPECT_NEAR(slow - fast, 1700.0, 10.0);
}

TEST(NicSimTest, TablePlacementOrdersLatency) {
  // FW conn table in CTM vs IMEM vs EMEM: deeper memory, higher latency.
  // A tiny EMEM cache keeps the table working set uncacheable (with the
  // default 3 MiB cache a 500-flow table would be fully cached, and
  // cached EMEM legitimately beats IMEM — see EmemCacheObservedOnHotTable).
  NicConfig config;
  config.emem_cache_bytes = 4096;
  std::vector<double> means;
  for (const MemLevel level : {MemLevel::kCtm, MemLevel::kImem, MemLevel::kEmem}) {
    NicSim sim(config);
    auto& conn = sim.create_table("conn", 2048, 32, level);
    auto& rules = sim.create_table("rules", 256, 32, MemLevel::kCtm);
    nf::FwProgram program(conn, rules);
    const auto trace = make_trace("packets=3000 flows=500 tcp=1.0 pps=60000");
    means.push_back(sim.run(program, trace).mean_latency());
  }
  EXPECT_LT(means[0], means[1]);
  EXPECT_LT(means[1], means[2]);
}

TEST(NicSimTest, FlowCacheHelpsSkewedTraffic) {
  const auto trace = make_trace("packets=5000 flows=2000 zipf=1.2 pps=60000");
  NicSim with_fc;
  auto& lpm_fc = with_fc.create_lpm("routes", 10000, 4096);
  nf::LpmProgram fast(lpm_fc, true);
  const auto t_fc = with_fc.run(fast, trace);

  NicSim without_fc;
  auto& lpm_nofc = without_fc.create_lpm("routes", 10000, 4096);
  nf::LpmProgram slow(lpm_nofc, false);
  const auto t_nofc = without_fc.run(slow, trace);

  EXPECT_LT(t_fc.mean_latency() * 3.0, t_nofc.mean_latency());
  EXPECT_GT(t_fc.flow_cache_hit_rate, 0.5);
}

TEST(NicSimTest, LpmLatencyGrowsWithRules) {
  double prev = 0.0;
  for (std::uint64_t rules : {5000ull, 15000ull, 30000ull}) {
    NicSim sim;
    auto& lpm = sim.create_lpm("routes", rules, 0);
    nf::LpmProgram program(lpm, false);
    workload::PacketMeta pkt;
    pkt.payload_len = 300;
    const auto t = static_cast<double>(sim.measure_one(program, pkt));
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(NicSimTest, QueueWaitGrowsWithRate) {
  // With 224 hardware threads, queueing only appears near saturation:
  // DPI at 1400 B holds a thread ~20 us, so thread occupancy binds
  // around 11-16 Mpps and waits are clearly positive by 22 Mpps.
  std::vector<double> waits;
  for (const char* spec :
       {"packets=4000 pps=1000000 payload=1400", "packets=4000 pps=8000000 payload=1400",
        "packets=8000 pps=22000000 payload=1400"}) {
    NicSim sim;
    nf::DpiProgram program;
    const auto stats = sim.run(program, make_trace(spec));
    waits.push_back(stats.queue_wait.mean());
  }
  EXPECT_GE(waits[1], waits[0]);
  // Past saturation the bounded ingress queue drops instead of queueing
  // deeper, so the wait plateaus rather than growing — but it is heavy.
  EXPECT_GT(waits[2], 1000.0);
}

TEST(NicSimTest, EmemCacheObservedOnHotTable) {
  NicSim sim;
  auto& table = sim.create_table("t", 4096, 64, MemLevel::kEmem);  // 256 KiB << 3 MiB cache
  nf::NatProgram program(table, true);
  const auto stats = sim.run(program, make_trace("packets=8000 flows=200 pps=60000"));
  EXPECT_GT(stats.emem_cache_hit_rate, 0.8);  // small working set stays cached
}

TEST(NicSimTest, BigWorkingSetThrashesEmemCache) {
  // Working set (distinct flows x entry) well above the cache capacity.
  NicConfig config;
  config.emem_cache_bytes = 64_KiB;
  NicSim sim(config);
  auto& table = sim.create_table("t", 1 << 20, 64, MemLevel::kEmem);  // 64 MiB table
  nf::NatProgram program(table, true);
  const auto stats = sim.run(program, make_trace("packets=8000 flows=100000 zipf=0.0 pps=60000"));
  // NAT's update re-touches the lines its lookup just fetched, so even a
  // thrashing table keeps ~3/5 intra-packet hits; cross-packet reuse is
  // what the tiny cache kills (compare EmemCacheObservedOnHotTable's >0.8).
  EXPECT_LT(stats.emem_cache_hit_rate, 0.7);
}

TEST(NicSimTest, PerProtoStatsPopulated) {
  NicSim sim;
  nf::RewriteProgram program;
  const auto stats = sim.run(program, make_trace("packets=2000 tcp=0.5 pps=60000"));
  EXPECT_GT(stats.tcp_latency.count(), 0u);
  EXPECT_GT(stats.udp_latency.count(), 0u);
  EXPECT_GT(stats.syn_latency.count(), 0u);
  EXPECT_EQ(stats.packets, 2000u);
  EXPECT_EQ(stats.drops, 0u);
}

TEST(NicSimTest, OverloadDropsPackets) {
  NicConfig config;
  config.ingress_queue_capacity = 16;
  NicSim sim(config);
  nf::DpiProgram program;  // heavy per-packet work
  const auto stats = sim.run(program, make_trace("packets=20000 pps=16000000 payload=1400"));
  EXPECT_GT(stats.drops, 0u);
  EXPECT_EQ(stats.packets + stats.drops, 20000u);
}

TEST(NicSimTest, ThroughputReported) {
  NicSim sim;
  nf::RewriteProgram program;
  const auto stats = sim.run(program, make_trace("packets=5000 pps=60000"));
  EXPECT_NEAR(stats.achieved_pps, 60000.0, 6000.0);  // keeps up at low load
}

TEST(NicSimTest, ResetTimelineClearsCaches) {
  NicSim sim;
  auto& table = sim.create_table("t", 4096, 64, MemLevel::kEmem);
  nf::NatProgram program(table, true);
  sim.run(program, make_trace("packets=2000 flows=100 pps=60000"));
  const auto warm_hits = sim.emem_cache().hits();
  EXPECT_GT(warm_hits, 0u);
  sim.reset_timeline();
  EXPECT_EQ(sim.emem_cache().hits(), 0u);
}

TEST(NicSimTest, FallthroughProgramsEmit) {
  // A program that never calls emit()/drop() still terminates cleanly.
  class Noop final : public NicProgram {
   public:
    void handle(NicApi&) override {}
    [[nodiscard]] std::string name() const override { return "noop"; }
  };
  NicSim sim;
  Noop program;
  const auto stats = sim.run(program, make_trace("packets=100 pps=60000"));
  EXPECT_EQ(stats.packets, 100u);
  EXPECT_GT(stats.mean_latency(), 0.0);
}

TEST(NicSimTest, ParallelismAbsorbsBurst) {
  // At moderate rate, many threads keep queue wait near zero even for a
  // moderately expensive program.
  NicSim sim;
  auto& table = sim.create_table("t", 65536, 64, MemLevel::kEmem);
  nf::NatProgram program(table, true);
  const auto stats = sim.run(program, make_trace("packets=5000 pps=60000"));
  EXPECT_LT(stats.queue_wait.mean(), 50.0);
}

TEST(NicConfigTest, Helpers) {
  NicConfig config;
  EXPECT_EQ(config.total_npus(), 28);
  EXPECT_EQ(config.total_threads(), 224);
  EXPECT_NEAR(config.cycles_per_packet(60000.0), 800e6 / 60000.0, 1e-6);
}

}  // namespace
}  // namespace clara::nicsim
