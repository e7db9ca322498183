// Self-profiling subsystem tests: flight-recorder rings (wrap, clear,
// concurrent record/snapshot), the Chrome export shared with the span
// tracer (parses, sane fields, stable tids, file round-trip), auto-dump
// throttling, pool self-profile attribution coverage, bench-diff
// regression gating, the Prometheus metrics exposition, and the JSON
// parser they all lean on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "ilp/instances.hpp"
#include "ilp/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/benchdiff.hpp"
#include "obs/recorder.hpp"

namespace clara::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- JSON parser -------------------------------------------------------------

TEST(JsonParser, ParsesScalarsArraysObjects) {
  const auto doc = Json::parse(
      R"({"s": "a\"bA", "n": -2.5e1, "t": true, "f": false, "z": null,
          "arr": [1, 2, 3], "obj": {"k": "v"}})");
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const Json& j = doc.value();
  EXPECT_EQ(j.string_at("s"), "a\"bA");
  EXPECT_DOUBLE_EQ(j.number_at("n"), -25.0);
  EXPECT_TRUE(j.bool_at("t"));
  EXPECT_FALSE(j.bool_at("f"));
  ASSERT_NE(j.get("z"), nullptr);
  EXPECT_TRUE(j.get("z")->is_null());
  ASSERT_NE(j.get("arr"), nullptr);
  ASSERT_EQ(j.get("arr")->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(j.get("arr")->as_array()[2].as_double(), 3.0);
  ASSERT_NE(j.get("obj"), nullptr);
  EXPECT_EQ(j.get("obj")->string_at("k"), "v");
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").ok());
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_FALSE(Json::parse(deep).ok());
  const auto err = Json::parse("nope");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, ErrorCode::kParse);
}

// --- flight recorder rings ---------------------------------------------------

TEST(FlightRecorder, RingWrapKeepsMostRecentEvents) {
  FlightRecorder rec;
  const std::size_t total = 2 * FlightRecorder::kRingCapacity + 17;
  for (std::size_t i = 0; i < total; ++i) {
    rec.record(FlightEventKind::kMark, i);
  }
  EXPECT_EQ(rec.total_recorded(), total);
  const auto events = rec.snapshot();
  ASSERT_LE(events.size(), FlightRecorder::kRingCapacity);
  ASSERT_FALSE(events.empty());
  // The newest events survive; the oldest surviving one is late enough
  // that everything before the wrap has been overwritten.
  EXPECT_EQ(events.back().a, total - 1);
  EXPECT_GE(events.front().a, total - FlightRecorder::kRingCapacity);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
}

TEST(FlightRecorder, ClearDropsEventsAndDisabledRecordsNothing) {
  FlightRecorder rec;
  rec.record(FlightEventKind::kMark, 1);
  EXPECT_FALSE(rec.snapshot().empty());
  rec.clear();
  EXPECT_TRUE(rec.snapshot().empty());
  rec.set_enabled(false);
  rec.record(FlightEventKind::kMark, 2);
  EXPECT_TRUE(rec.snapshot().empty());
  rec.set_enabled(true);
  rec.record(FlightEventKind::kMark, 3);
  ASSERT_EQ(rec.snapshot().size(), 1u);
  EXPECT_EQ(rec.snapshot()[0].a, 3u);
}

TEST(FlightRecorder, ConcurrentRecordAndSnapshotIsSafe) {
  FlightRecorder rec;
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 20'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto events = rec.snapshot();
      for (const auto& e : events) EXPECT_GE(e.ts_ns, 0);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        rec.record(FlightEventKind::kMark, i, static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(rec.total_recorded(), kThreads * kPerThread);
  // Each thread's ring holds at most kRingCapacity of its own events.
  const auto events = rec.snapshot();
  EXPECT_LE(events.size(), kThreads * FlightRecorder::kRingCapacity);
  std::set<std::uint32_t> tids;
  for (const auto& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

// --- Chrome export -----------------------------------------------------------

TEST(FlightRecorderExport, ChromeJsonParsesWithSaneFields) {
  FlightRecorder rec;
  rec.record(FlightEventKind::kTaskStart, 0);
  rec.record(FlightEventKind::kTaskStop, 0, 1'000);
  rec.record(FlightEventKind::kWaveEnter, 7, 16);
  rec.record(FlightEventKind::kWaveExit, 7, 123'456);
  rec.record(FlightEventKind::kTaskStart, 1);  // unpaired: instant, not span
  const auto doc = Json::parse(rec.to_chrome_json("unit_test"));
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const Json* events = doc.value().get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->as_array().empty());
  bool saw_task_span = false;
  for (const auto& e : events->as_array()) {
    EXPECT_GE(e.number_at("ts"), 0.0);
    EXPECT_DOUBLE_EQ(e.number_at("pid"), 1.0);
    const std::string ph = e.string_at("ph");
    EXPECT_TRUE(ph == "X" || ph == "i") << ph;
    if (ph == "X") {
      EXPECT_GE(e.number_at("dur"), 0.0);
      if (e.string_at("name") == "flight/task") saw_task_span = true;
    }
  }
  EXPECT_TRUE(saw_task_span);
  const Json* flight = doc.value().get("clara_flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->string_at("reason"), "unit_test");
  EXPECT_GT(flight->number_at("events"), 0.0);
}

TEST(FlightRecorderExport, TidsAreStableAcrossExports) {
  FlightRecorder rec;
  std::thread other([&rec] { rec.record(FlightEventKind::kMark, 1); });
  other.join();
  rec.record(FlightEventKind::kMark, 2);
  const auto tids_of = [](const Json& doc) {
    std::set<double> tids;
    for (const auto& e : doc.get("traceEvents")->as_array()) tids.insert(e.number_at("tid"));
    return tids;
  };
  const auto first = Json::parse(rec.to_chrome_json());
  const auto second = Json::parse(rec.to_chrome_json());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(tids_of(first.value()), tids_of(second.value()));
  EXPECT_EQ(tids_of(first.value()).size(), 2u);
}

TEST(FlightRecorderExport, DumpToFileRoundTrips) {
  FlightRecorder rec;
  rec.record(FlightEventKind::kCacheHit, 1, 42);
  rec.record(FlightEventKind::kCacheMiss, 2, 43);
  const std::string path = testing::TempDir() + "clara_recorder_roundtrip.json";
  ASSERT_TRUE(rec.dump_to_file(path, "roundtrip"));
  const auto doc = Json::parse(read_file(path));
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_EQ(doc.value().get("clara_flight")->string_at("reason"), "roundtrip");
  bool saw_hit = false;
  for (const auto& e : doc.value().get("traceEvents")->as_array()) {
    if (e.string_at("name") == "flight/cache_hit") saw_hit = true;
  }
  EXPECT_TRUE(saw_hit);
  std::remove(path.c_str());
}

TEST(FlightRecorderExport, AutoDumpFiresOnceUntilReset) {
  FlightRecorder rec;
  rec.set_dump_dir(testing::TempDir());
  rec.record(FlightEventKind::kMark, 1);
  const std::string first = rec.auto_dump("reason one/2");
  ASSERT_FALSE(first.empty());
  // Reasons are sanitized into the filename.
  EXPECT_NE(first.find("clara_flight_reason_one_2.json"), std::string::npos);
  EXPECT_EQ(rec.last_dump_path(), first);
  EXPECT_TRUE(Json::parse(read_file(first)).ok());
  EXPECT_TRUE(rec.auto_dump("again").empty()) << "second auto dump must be throttled";
  rec.reset_auto_dump();
  EXPECT_TRUE(rec.last_dump_path().empty());
  const std::string second = rec.auto_dump("again");
  EXPECT_FALSE(second.empty());
  std::remove(first.c_str());
  std::remove(second.c_str());
}

// --- pool self-profiling -----------------------------------------------------

TEST(Profile, ParallelRegionCoverageIsHigh) {
  const std::size_t prev_jobs = parallel::jobs();
  parallel::set_jobs(4);
  ProfileScope scope;
  // A genuinely parallel region: the market-split B&B keeps every lane
  // busy for tens of milliseconds.
  ilp::SolveOptions options;
  options.max_nodes = 2'000;
  options.jobs = 4;
  const auto solution = ilp::solve_milp(ilp::make_market_split(20, 3), options);
  (void)solution;
  const auto report = scope.finish();
  parallel::set_jobs(prev_jobs);

  EXPECT_GT(report.wall_ns, 0u);
  ASSERT_GE(report.lanes.size(), 2u);
  EXPECT_EQ(report.lanes.back().name, "caller");
  EXPECT_EQ(report.lane_count, report.lanes.size());
  EXPECT_GT(report.tasks_run + report.tasks_inline, 0u);
  // Acceptance bar is 95% on the CLI's long-running profile; leave slack
  // for scheduler noise on short unit-test regions.
  EXPECT_GE(report.coverage(), 0.90) << report.render();
  EXPECT_LE(report.coverage(), 1.0 + 1e-9);
  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("attribution coverage"), std::string::npos);
  EXPECT_NE(rendered.find("caller"), std::string::npos);
}

TEST(Profile, DeltaAttributesLaneBuckets) {
  parallel::PoolStats before;
  parallel::PoolStats after;
  before.worker_lanes.resize(1);
  after.worker_lanes.resize(1);
  after.worker_lanes[0].run_ns = 600;
  after.worker_lanes[0].sched_ns = 100;
  after.worker_lanes[0].idle_ns = 200;
  after.worker_lanes[0].tasks = 3;
  after.inline_lane.run_ns = 900;
  after.tasks_run = 3;
  const auto report = profile_delta(before, after, 1'000);
  ASSERT_EQ(report.lanes.size(), 2u);
  EXPECT_EQ(report.lanes[0].run_ns, 600u);
  EXPECT_EQ(report.lanes[0].sched_ns, 100u);
  EXPECT_EQ(report.lanes[0].idle_ns, 200u);
  EXPECT_EQ(report.lanes[1].name, "caller");
  EXPECT_EQ(report.lanes[1].run_ns, 900u);
  // worker measured 900 of 1000; caller 900 measured + 100 serial rest.
  EXPECT_NEAR(report.coverage(), (900.0 + 1000.0) / 2000.0, 1e-9);
}

// --- bench diff --------------------------------------------------------------

Json parse_or_die(const std::string& text) {
  auto doc = Json::parse(text);
  EXPECT_TRUE(doc.ok()) << doc.error().message;
  return doc.value();
}

std::string bench_run(double simplex_ns, double parallel_ms, double speedup, bool oversubscribed) {
  std::ostringstream out;
  out << R"({"schema": "clara-bench-perf/1", "jobs": 4, "hardware_concurrency": 8,
    "micro": [
      {"name": "simplex_solve", "ns_per_iter": )" << simplex_ns << R"(, "items_per_sec": 1.0},
      {"name": "tiny_op", "ns_per_iter": 50.0, "items_per_sec": 1.0}
    ],
    "parallel": [
      {"name": "milp_branch_and_bound", "jobs": 4, "serial_ms": 100.0,
       "parallel_ms": )" << parallel_ms << R"(, "speedup": )" << speedup << R"(,
       "oversubscribed": )" << (oversubscribed ? "true" : "false") << R"(}
    ],
    "cache": {"cold_ms": 10.0, "warm_ms": 1.0, "cache_warm_speedup": 10.0},
    "repair": {"cold_remap_ms": 4.0, "repair_ms": 1.0, "repair_remap_speedup": 4.0}})";
  return out.str();
}

TEST(BenchDiff, DetectsRegressionBeyondThreshold) {
  const auto old_run = parse_or_die(bench_run(1000.0, 40.0, 2.5, false));
  const auto new_run = parse_or_die(bench_run(1300.0, 40.0, 2.5, false));
  const auto report = diff_bench_json(old_run, new_run);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report.value().has_regression());
  EXPECT_EQ(report.value().regressions(), 1u);
  const std::string rendered = report.value().render(0.10);
  EXPECT_NE(rendered.find("REGRESSED"), std::string::npos);
  EXPECT_NE(rendered.find("FAIL"), std::string::npos);
}

TEST(BenchDiff, ImprovementAndNoiseAreNotRegressions) {
  const auto old_run = parse_or_die(bench_run(1000.0, 40.0, 2.5, false));
  // simplex improves 20%; tiny_op doubles but sits below the noise floor.
  auto new_text = bench_run(800.0, 40.0, 2.5, false);
  const auto pos = new_text.find("\"tiny_op\", \"ns_per_iter\": 50.0");
  ASSERT_NE(pos, std::string::npos);
  new_text.replace(pos, std::string("\"tiny_op\", \"ns_per_iter\": 50.0").size(),
                   "\"tiny_op\", \"ns_per_iter\": 120.0");
  const auto report = diff_bench_json(old_run, parse_or_die(new_text));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().has_regression());
  bool saw_improved = false;
  bool saw_noise_skip = false;
  for (const auto& row : report.value().rows) {
    if (row.scenario == "micro/simplex_solve" && row.status == BenchDiffRow::Status::kImproved) {
      saw_improved = true;
    }
    if (row.scenario == "micro/tiny_op") {
      EXPECT_EQ(row.status, BenchDiffRow::Status::kSkipped);
      saw_noise_skip = true;
    }
  }
  EXPECT_TRUE(saw_improved);
  EXPECT_TRUE(saw_noise_skip);
  EXPECT_NE(report.value().render(0.10).find("PASS"), std::string::npos);
}

TEST(BenchDiff, OversubscribedRunsGateSpeedupOnRegressionOnly) {
  // A 2.0x -> 1.0x collapse is a regression even when both runs were
  // oversubscribed: the >1.0 contract is waived, the baseline isn't.
  const auto old_run = parse_or_die(bench_run(1000.0, 40.0, 2.0, true));
  const auto new_run = parse_or_die(bench_run(1000.0, 60.0, 1.0, true));
  const auto report = diff_bench_json(old_run, new_run);
  ASSERT_TRUE(report.ok());
  bool speedup_regressed = false;
  bool wall_regressed = false;
  for (const auto& row : report.value().rows) {
    if (row.scenario != "parallel/milp_branch_and_bound") continue;
    if (row.metric == "speedup") {
      speedup_regressed = row.status == BenchDiffRow::Status::kRegressed;
      EXPECT_NE(row.note.find("oversubscribed"), std::string::npos);
    }
    if (row.metric == "parallel_ms") {
      wall_regressed = row.status == BenchDiffRow::Status::kRegressed;
    }
  }
  EXPECT_TRUE(speedup_regressed);
  EXPECT_TRUE(wall_regressed);
}

TEST(BenchDiff, OversubscribedSubUnitSpeedupWithinThresholdIsOk) {
  // Time-sliced speedups below 1.0 are expected on a starved runner;
  // only movement against the baseline counts.
  const auto old_run = parse_or_die(bench_run(1000.0, 130.0, 0.77, true));
  const auto new_run = parse_or_die(bench_run(1000.0, 133.0, 0.75, true));
  const auto report = diff_bench_json(old_run, new_run);
  ASSERT_TRUE(report.ok());
  for (const auto& row : report.value().rows) {
    if (row.scenario == "parallel/milp_branch_and_bound" && row.metric == "speedup") {
      EXPECT_EQ(row.status, BenchDiffRow::Status::kOk);
    }
  }
  EXPECT_FALSE(report.value().has_regression());
}

TEST(BenchDiff, SpeedupBelowOneFailsContractWhenNotOversubscribed) {
  // With real cores available, parallel slower than serial is a
  // regression even if the baseline already had it (within threshold).
  const auto old_run = parse_or_die(bench_run(1000.0, 105.0, 0.95, false));
  const auto new_run = parse_or_die(bench_run(1000.0, 106.0, 0.94, false));
  const auto report = diff_bench_json(old_run, new_run);
  ASSERT_TRUE(report.ok());
  bool contract_fail = false;
  for (const auto& row : report.value().rows) {
    if (row.scenario == "parallel/milp_branch_and_bound" && row.metric == "speedup") {
      contract_fail = row.status == BenchDiffRow::Status::kRegressed &&
                      row.note.find("1.0 contract") != std::string::npos;
    }
  }
  EXPECT_TRUE(contract_fail);
}

TEST(BenchDiff, OversubscribedBaselineDoesNotWaiveNewRunsContract) {
  // Only the new run's own flag waives the >1.0 contract: a baseline
  // recorded on a starved runner says nothing about the runner judged now.
  const auto old_run = parse_or_die(bench_run(1000.0, 125.0, 0.8, true));
  const auto new_run = parse_or_die(bench_run(1000.0, 125.0, 0.8, false));
  const auto report = diff_bench_json(old_run, new_run);
  ASSERT_TRUE(report.ok());
  bool contract_fail = false;
  for (const auto& row : report.value().rows) {
    if (row.scenario == "parallel/milp_branch_and_bound" && row.metric == "speedup") {
      contract_fail = row.status == BenchDiffRow::Status::kRegressed &&
                      row.note.find("1.0 contract") != std::string::npos;
    }
  }
  EXPECT_TRUE(contract_fail);
  EXPECT_TRUE(report.value().has_regression());
}

TEST(BenchDiff, SolverPivotMicroGetsTighterThreshold) {
  // +7% on solver_pivot_ns regresses under its 5% gate while the same
  // drift on an ordinary micro would pass the 10% default.
  const auto make = [&](double pivot_ns) {
    std::ostringstream out;
    out << R"({"schema": "clara-bench-perf/1", "jobs": 4, "hardware_concurrency": 8,
      "micro": [
        {"name": "solver_pivot_ns", "ns_per_iter": )" << pivot_ns << R"(, "items_per_sec": 1.0},
        {"name": "simplex_solve", "ns_per_iter": )" << pivot_ns * 100.0 << R"(, "items_per_sec": 1.0}
      ]})";
    return parse_or_die(out.str());
  };
  const auto report = diff_bench_json(make(500.0), make(535.0));
  ASSERT_TRUE(report.ok());
  bool pivot_regressed = false;
  bool solve_ok = false;
  for (const auto& row : report.value().rows) {
    if (row.scenario == "micro/solver_pivot_ns" && row.metric == "ns_per_iter") {
      pivot_regressed = row.status == BenchDiffRow::Status::kRegressed;
      EXPECT_NE(row.note.find("pivot micro"), std::string::npos);
    }
    if (row.scenario == "micro/simplex_solve" && row.metric == "ns_per_iter") {
      solve_ok = row.status == BenchDiffRow::Status::kOk;
    }
  }
  EXPECT_TRUE(pivot_regressed);
  EXPECT_TRUE(solve_ok);
}

TEST(BenchDiff, SchemaMismatchAndMissingScenarios) {
  const auto good = parse_or_die(bench_run(1000.0, 40.0, 2.5, false));
  const auto bad = parse_or_die(R"({"schema": "something-else/9"})");
  EXPECT_FALSE(diff_bench_json(good, bad).ok());
  EXPECT_FALSE(diff_bench_json(bad, good).ok());

  // A scenario present in only one run is reported but never gated.
  auto trimmed = parse_or_die(
      R"({"schema": "clara-bench-perf/1",
          "micro": [{"name": "simplex_solve", "ns_per_iter": 1000.0}]})");
  const auto report = diff_bench_json(good, trimmed);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().has_regression());
  bool saw_only_in_old = false;
  for (const auto& row : report.value().rows) {
    if (row.note.find("only in old") != std::string::npos) saw_only_in_old = true;
  }
  EXPECT_TRUE(saw_only_in_old);
}

// --- Prometheus exposition ---------------------------------------------------

TEST(PrometheusExport, CountersGaugesHistogramsRender) {
  auto& registry = metrics();
  registry.counter("promtest/requests", "nf=nat").inc(3);
  registry.gauge("promtest/depth").set(7.5);
  auto& hist = registry.histogram("promtest/latency_ns");
  hist.observe(3.0);    // bucket le=4
  hist.observe(100.0);  // bucket le=128
  const std::string text = registry.to_prometheus();

  EXPECT_NE(text.find("# TYPE clara_promtest_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("clara_promtest_requests_total{nf=\"nat\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE clara_promtest_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("clara_promtest_depth 7.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE clara_promtest_latency_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("clara_promtest_latency_ns_bucket{le=\"4\"} 1"), std::string::npos);
  EXPECT_NE(text.find("clara_promtest_latency_ns_bucket{le=\"128\"} 2"), std::string::npos);
  EXPECT_NE(text.find("clara_promtest_latency_ns_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("clara_promtest_latency_ns_count 2"), std::string::npos);
  // The +Inf bucket closes this histogram's series (other histograms in
  // the shared registry have their own +Inf rows, so scope the search).
  const std::size_t le4 = text.find("clara_promtest_latency_ns_bucket{le=\"4\"} 1");
  ASSERT_NE(le4, std::string::npos);
  EXPECT_NE(text.find("clara_promtest_latency_ns_bucket{le=\"+Inf\"}", le4), std::string::npos);
}

}  // namespace
}  // namespace clara::obs
