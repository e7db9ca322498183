// Tests for workload profiles, trace generation, and trace I/O.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "workload/flowstats.hpp"
#include "workload/profile.hpp"
#include "workload/trace_io.hpp"
#include "workload/tracegen.hpp"

// The largest single heap request made while tracking is on: lets a test
// bound the memory a pass asks for.
namespace {
std::atomic<bool> g_track_allocs{false};
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t bytes) {
  if (g_track_allocs.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
    while (bytes > seen && !g_largest_alloc.compare_exchange_weak(seen, bytes)) {
    }
  }
  if (void* p = std::malloc(std::max<std::size_t>(bytes, 1))) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise pair an inlined free() with the
// new-expression at the call site and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace clara::workload {
namespace {

/// flow_stats(packets) and the largest single allocation it made.
std::pair<FlowStats, std::size_t> flow_stats_tracked(std::span<const PacketMeta> packets) {
  g_largest_alloc = 0;
  g_track_allocs = true;
  FlowStats stats = flow_stats(packets);
  g_track_allocs = false;
  return {std::move(stats), g_largest_alloc.load()};
}

TEST(Profile, ParseDefaults) {
  const auto p = parse_profile("");
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value().tcp_fraction, 0.8);
  EXPECT_EQ(p.value().flows, 10000u);
}

TEST(Profile, ParseFullSpec) {
  const auto p = parse_profile("tcp=0.6 flows=500 zipf=1.2 payload=200:1400 pps=30000 packets=5000 arrivals=poisson seed=7");
  ASSERT_TRUE(p.ok()) << p.error().message;
  const auto& v = p.value();
  EXPECT_DOUBLE_EQ(v.tcp_fraction, 0.6);
  EXPECT_EQ(v.flows, 500u);
  EXPECT_DOUBLE_EQ(v.zipf_alpha, 1.2);
  EXPECT_EQ(v.payload_min, 200);
  EXPECT_EQ(v.payload_max, 1400);
  EXPECT_DOUBLE_EQ(v.pps, 30000.0);
  EXPECT_EQ(v.packets, 5000u);
  EXPECT_EQ(v.arrivals, ArrivalProcess::kPoisson);
  EXPECT_EQ(v.seed, 7u);
}

TEST(Profile, SerializeRoundTrip) {
  auto p = parse_profile("tcp=0.5 flows=100 payload=64:1500 pps=1000 packets=42").value();
  const auto p2 = parse_profile(p.serialize());
  ASSERT_TRUE(p2.ok()) << p2.error().message;
  EXPECT_DOUBLE_EQ(p2.value().tcp_fraction, p.tcp_fraction);
  EXPECT_EQ(p2.value().payload_max, p.payload_max);
  EXPECT_EQ(p2.value().packets, p.packets);
}

TEST(Profile, RejectsBadInput) {
  EXPECT_FALSE(parse_profile("tcp=1.5").ok());
  EXPECT_FALSE(parse_profile("flows=0").ok());
  EXPECT_FALSE(parse_profile("flows=-3").ok());
  EXPECT_FALSE(parse_profile("payload=1400:200").ok());
  EXPECT_FALSE(parse_profile("pps=0").ok());
  EXPECT_FALSE(parse_profile("arrivals=sometimes").ok());
  EXPECT_FALSE(parse_profile("unknown_key=1").ok());
  EXPECT_FALSE(parse_profile("garbage").ok());
}

TEST(TraceGen, Deterministic) {
  const auto profile = parse_profile("packets=1000 seed=9").value();
  const auto a = generate_trace(profile);
  const auto b = generate_trace(profile);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.packets[i].flow_id, b.packets[i].flow_id);
    EXPECT_EQ(a.packets[i].arrival_ns, b.packets[i].arrival_ns);
  }
}

TEST(TraceGen, TcpFractionApproximatelyRespected) {
  const auto profile = parse_profile("tcp=0.7 packets=20000 flows=2000").value();
  const auto trace = generate_trace(profile);
  EXPECT_NEAR(trace.tcp_fraction(), 0.7, 0.05);
}

TEST(TraceGen, PayloadRangeRespected) {
  const auto profile = parse_profile("payload=100:200 packets=5000").value();
  const auto trace = generate_trace(profile);
  for (const auto& p : trace.packets) {
    EXPECT_GE(p.payload_len, 100);
    EXPECT_LE(p.payload_len, 200);
  }
  EXPECT_NEAR(trace.mean_payload(), 150.0, 5.0);
}

TEST(TraceGen, FixedPayload) {
  const auto profile = parse_profile("payload=300 packets=100").value();
  const auto trace = generate_trace(profile);
  for (const auto& p : trace.packets) EXPECT_EQ(p.payload_len, 300);
}

TEST(TraceGen, DeterministicArrivalSpacing) {
  const auto profile = parse_profile("pps=1000000 packets=100").value();  // 1000 ns apart
  const auto trace = generate_trace(profile);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace.packets[i].arrival_ns - trace.packets[i - 1].arrival_ns, 1000u);
  }
}

TEST(TraceGen, PoissonArrivalsMeanRate) {
  auto profile = parse_profile("pps=1000000 packets=50000 arrivals=poisson").value();
  const auto trace = generate_trace(profile);
  const double span_ns = static_cast<double>(trace.packets.back().arrival_ns);
  const double observed_pps = static_cast<double>(trace.size()) / (span_ns / 1e9);
  EXPECT_NEAR(observed_pps / 1e6, 1.0, 0.05);
}

TEST(TraceGen, FirstTcpPacketOfFlowIsSyn) {
  const auto profile = parse_profile("packets=5000 flows=500 tcp=1.0").value();
  const auto trace = generate_trace(profile);
  std::unordered_map<std::uint32_t, bool> seen;
  for (const auto& p : trace.packets) {
    if (!seen[p.flow_id]) {
      EXPECT_TRUE(p.is_syn()) << "first packet of flow " << p.flow_id;
      seen[p.flow_id] = true;
    } else {
      EXPECT_FALSE(p.is_syn());
    }
  }
}

TEST(TraceGen, ZipfSkewsFlowPopularity) {
  const auto skewed = generate_trace(parse_profile("packets=20000 flows=1000 zipf=1.3").value());
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  for (const auto& p : skewed.packets) ++counts[p.flow_id];
  // The most popular flow should hold far more than 1/1000 of traffic.
  std::uint64_t top = 0;
  for (const auto& [f, c] : counts) top = std::max(top, c);
  EXPECT_GT(static_cast<double>(top) / 20000.0, 0.05);
}

TEST(TraceGen, FlowInvariantsStable) {
  // All packets of a flow share the 5-tuple and protocol.
  const auto trace = generate_trace(parse_profile("packets=5000 flows=100").value());
  std::unordered_map<std::uint32_t, PacketMeta> first;
  for (const auto& p : trace.packets) {
    const auto it = first.find(p.flow_id);
    if (it == first.end()) {
      first[p.flow_id] = p;
    } else {
      EXPECT_EQ(p.src_ip, it->second.src_ip);
      EXPECT_EQ(p.dst_port, it->second.dst_port);
      EXPECT_EQ(p.proto, it->second.proto);
      EXPECT_EQ(p.flow_hash(), it->second.flow_hash());
    }
  }
}

TEST(PacketMetaTest, FrameLenByProto) {
  PacketMeta tcp;
  tcp.proto = 6;
  tcp.payload_len = 100;
  EXPECT_EQ(tcp.frame_len(), 154u);
  PacketMeta udp;
  udp.proto = 17;
  udp.payload_len = 100;
  EXPECT_EQ(udp.frame_len(), 142u);
}

TEST(PacketMetaTest, FlowHashDependsOnTuple) {
  PacketMeta a;
  a.src_ip = 1;
  PacketMeta b;
  b.src_ip = 2;
  EXPECT_NE(a.flow_hash(), b.flow_hash());
  PacketMeta c = a;
  EXPECT_EQ(a.flow_hash(), c.flow_hash());
}

TEST(TraceIo, RoundTrip) {
  const auto trace = generate_trace(parse_profile("packets=2000 payload=64:1500").value());
  const std::string path = "/tmp/clara_trace_test.cltr";
  ASSERT_TRUE(write_trace(trace, path).ok());
  const auto loaded = read_trace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  ASSERT_EQ(loaded.value().size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& a = trace.packets[i];
    const auto& b = loaded.value().packets[i];
    EXPECT_EQ(a.flow_id, b.flow_id);
    EXPECT_EQ(a.src_ip, b.src_ip);
    EXPECT_EQ(a.dst_ip, b.dst_ip);
    EXPECT_EQ(a.src_port, b.src_port);
    EXPECT_EQ(a.dst_port, b.dst_port);
    EXPECT_EQ(a.proto, b.proto);
    EXPECT_EQ(a.tcp_flags, b.tcp_flags);
    EXPECT_EQ(a.payload_len, b.payload_len);
    EXPECT_EQ(a.arrival_ns, b.arrival_ns);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile) {
  EXPECT_FALSE(read_trace("/tmp/definitely_missing_clara_trace.cltr").ok());
}

TEST(TraceIo, RejectsBadMagic) {
  const std::string path = "/tmp/clara_bad_magic.cltr";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("NOPE00000000000000", 1, 16, f);
  std::fclose(f);
  EXPECT_FALSE(read_trace(path).ok());
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsTruncatedRecords) {
  const auto trace = generate_trace(parse_profile("packets=10").value());
  const std::string path = "/tmp/clara_trunc.cltr";
  ASSERT_TRUE(write_trace(trace, path).ok());
  // Truncate mid-record.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 10), 0);
  EXPECT_FALSE(read_trace(path).ok());
  std::remove(path.c_str());
}

TEST(TraceStats, DistinctFlows) {
  const auto trace = generate_trace(parse_profile("packets=10000 flows=300 zipf=0.5").value());
  EXPECT_LE(trace.distinct_flows(), 300u);
  EXPECT_GT(trace.distinct_flows(), 250u);  // most flows appear
}

/// A trace whose flow ids span the whole 32-bit range, as a capture
/// converted by an external tool may number them.
Trace sparse_id_trace() {
  const std::uint32_t ids[] = {0xFFFFFFF0u, 7u, 1u << 31, 0xFFFFFFFFu, 0u, 7u, 0xFFFFFFF0u, 1u << 31, 7u, 7u};
  Trace trace;
  for (int round = 0; round < 40; ++round) {
    for (std::size_t i = 0; i < std::size(ids); ++i) {
      PacketMeta p;
      p.flow_id = ids[i] ^ (round % 3 == 2 && i == 4 ? 0x1234u * static_cast<std::uint32_t>(round) : 0u);
      p.src_ip = p.flow_id * 2654435761u;
      p.dst_ip = 0x0a000001u;
      p.src_port = static_cast<std::uint16_t>(1024 + (p.flow_id & 0x3ff));
      p.dst_port = 80;
      p.proto = (p.flow_id & 1u) != 0 ? 17 : 6;
      p.payload_len = static_cast<std::uint16_t>(64 + 37 * ((round + i) % 11));
      p.arrival_ns = static_cast<std::uint64_t>(round * std::size(ids) + i) * 1000;
      trace.packets.push_back(p);
    }
  }
  return trace;
}

TEST(FlowStatsTest, SparseIdsMatchHashMapReferenceAfterRoundTrip) {
  const std::string path = ::testing::TempDir() + "clara_sparse_ids_" + std::to_string(::getpid()) + ".cltr";
  ASSERT_TRUE(write_trace(sparse_id_trace(), path).ok());
  const auto loaded = read_trace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  const Trace& trace = loaded.value();

  std::unordered_map<std::uint32_t, std::uint32_t> counts;
  std::vector<std::uint32_t> order;  // ids by first appearance
  std::vector<bool> first;
  for (const auto& p : trace.packets) {
    const bool fresh = counts.find(p.flow_id) == counts.end();
    if (fresh) order.push_back(p.flow_id);
    first.push_back(fresh);
    ++counts[p.flow_id];
  }

  const auto [stats, largest_alloc] = flow_stats_tracked(trace.packets);
  ASSERT_EQ(stats.distinct(), counts.size());
  EXPECT_EQ(trace.distinct_flows(), counts.size());
  EXPECT_EQ(stats.first_of_flow, first);
  for (std::size_t f = 0; f < order.size(); ++f) {
    EXPECT_EQ(stats.packets_per_flow[f], counts[order[f]]) << "flow " << order[f];
  }
  // The index is sized by the packets, not by the largest id (a direct
  // array up to 0xFFFFFFFF would be 16 GiB).
  EXPECT_LE(largest_alloc, 32 * trace.size());
}

TEST(FlowStatsTest, DenseAndSparseIdsAgree) {
  const auto trace = generate_trace(parse_profile("packets=5000 flows=3000 zipf=0.9").value());
  Trace sparse = trace;
  for (auto& p : sparse.packets) p.flow_id = p.flow_id * 2654435761u | 0x80000000u;  // a bijection
  const auto [dense_stats, dense_alloc] = flow_stats_tracked(trace.packets);
  const auto [sparse_stats, sparse_alloc] = flow_stats_tracked(sparse.packets);
  EXPECT_EQ(dense_stats.packets_per_flow, sparse_stats.packets_per_flow);
  EXPECT_EQ(dense_stats.first_of_flow, sparse_stats.first_of_flow);
  EXPECT_LE(dense_alloc, 32 * trace.size());
  EXPECT_LE(sparse_alloc, 32 * trace.size());
}

TEST(FlowStatsTest, EmptyAndSingleFlow) {
  EXPECT_EQ(flow_stats({}).distinct(), 0u);
  EXPECT_EQ(Trace{}.distinct_flows(), 0u);
  std::vector<PacketMeta> one(5);
  for (auto& p : one) p.flow_id = 0xFFFFFFFFu;
  const FlowStats stats = flow_stats(one);
  EXPECT_EQ(stats.distinct(), 1u);
  EXPECT_EQ(stats.packets_per_flow, std::vector<std::uint32_t>{5});
  EXPECT_EQ(stats.first_of_flow, (std::vector<bool>{true, false, false, false, false}));
}

}  // namespace
}  // namespace clara::workload
