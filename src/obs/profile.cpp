#include "obs/profile.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "common/table.hpp"

namespace clara::obs {

namespace {

parallel::LaneStats lane_delta(const parallel::LaneStats& before, const parallel::LaneStats& after) {
  parallel::LaneStats d;
  d.run_ns = after.run_ns - before.run_ns;
  d.sched_ns = after.sched_ns - before.sched_ns;
  d.idle_ns = after.idle_ns - before.idle_ns;
  d.tasks = after.tasks - before.tasks;
  return d;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

double ProfileReport::coverage() const {
  if (wall_ns == 0 || lane_count == 0) return 1.0;
  // Worker lanes count only what the pool *measured* (run+sched+idle);
  // their other_ns is by-subtraction and would make coverage trivially
  // 100%. The caller lane's remainder is serial program execution — a
  // real category, derived from wall clock — so it does count. Each
  // lane is clamped to the region's wall so a lane busy with unrelated
  // overlapping work cannot inflate the figure.
  std::uint64_t attributed = 0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const bool caller = i + 1 == lanes.size();
    const std::uint64_t lane_ns =
        caller ? lanes[i].attributed_ns() + lanes[i].other_ns : lanes[i].attributed_ns();
    attributed += std::min<std::uint64_t>(lane_ns, wall_ns);
  }
  return static_cast<double>(attributed) /
         (static_cast<double>(wall_ns) * static_cast<double>(lane_count));
}

std::string ProfileReport::render() const {
  TextTable table({"lane", "run ms", "sched ms", "idle ms", "other ms", "tasks"});
  for (const auto& lane : lanes) {
    table.add_row({lane.name, strf("%.3f", ms(lane.run_ns)), strf("%.3f", ms(lane.sched_ns)),
                   strf("%.3f", ms(lane.idle_ns)), strf("%.3f", ms(lane.other_ns)),
                   strf("%llu", static_cast<unsigned long long>(lane.tasks))});
  }
  std::string out = table.render();
  out += strf(
      "wall %.3f ms, lanes %zu, attribution coverage %.1f%%\n"
      "tasks: %llu on workers, %llu inline; injected %llu\n",
      ms(wall_ns), lane_count, coverage() * 100.0,
      static_cast<unsigned long long>(tasks_run), static_cast<unsigned long long>(tasks_inline),
      static_cast<unsigned long long>(injected));

  std::uint64_t total_tasks = 0;
  for (const auto count : task_ns_hist) total_tasks += count;
  if (total_tasks > 0) {
    out += "task body duration (log2 ns buckets):\n";
    for (std::size_t i = 0; i < task_ns_hist.size(); ++i) {
      if (task_ns_hist[i] == 0) continue;
      const std::uint64_t lo = i == 0 ? 0 : std::uint64_t{1} << (i - 1);
      const std::uint64_t hi = std::uint64_t{1} << i;
      out += strf("  [%10llu, %10llu) ns : %llu\n", static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(task_ns_hist[i]));
    }
  }
  return out;
}

ProfileReport profile_delta(const parallel::PoolStats& before, const parallel::PoolStats& after,
                            std::uint64_t wall_ns) {
  ProfileReport report;
  report.wall_ns = wall_ns;
  report.tasks_run = after.tasks_run - before.tasks_run;
  report.tasks_inline = after.tasks_inline - before.tasks_inline;
  report.injected = after.injected - before.injected;
  for (std::size_t i = 0; i < report.task_ns_hist.size(); ++i) {
    report.task_ns_hist[i] = after.task_ns_hist[i] - before.task_ns_hist[i];
  }

  const parallel::LaneStats empty;
  for (std::size_t w = 0; w < after.worker_lanes.size(); ++w) {
    const auto& prior = w < before.worker_lanes.size() ? before.worker_lanes[w] : empty;
    const auto d = lane_delta(prior, after.worker_lanes[w]);
    ProfileLane lane;
    lane.name = strf("worker%zu", w);
    lane.run_ns = d.run_ns;
    lane.sched_ns = d.sched_ns;
    lane.idle_ns = d.idle_ns;
    // Worker lanes are directly instrumented; any gap to the region's
    // wall clock is loop bookkeeping the pool does not time.
    const std::uint64_t measured = d.run_ns + d.sched_ns + d.idle_ns;
    lane.other_ns = wall_ns > measured ? wall_ns - measured : 0;
    lane.tasks = d.tasks;
    report.lanes.push_back(std::move(lane));
  }

  const auto caller = lane_delta(before.inline_lane, after.inline_lane);
  ProfileLane caller_lane;
  caller_lane.name = "caller";
  caller_lane.run_ns = caller.run_ns;
  caller_lane.sched_ns = caller.sched_ns;
  caller_lane.idle_ns = caller.idle_ns;
  // The caller's remainder is serial (non-pool) execution — program
  // code between and around parallel regions.
  const std::uint64_t measured = caller.run_ns + caller.sched_ns + caller.idle_ns;
  caller_lane.other_ns = wall_ns > measured ? wall_ns - measured : 0;
  caller_lane.tasks = caller.tasks;
  report.lanes.push_back(std::move(caller_lane));

  report.lane_count = after.worker_lanes.size() + 1;
  return report;
}

ProfileScope::ProfileScope()
    : before_(parallel::pool().stats()), t0_(std::chrono::steady_clock::now()) {}

ProfileReport ProfileScope::finish() const {
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0_)
                        .count();
  return profile_delta(before_, parallel::pool().stats(),
                       static_cast<std::uint64_t>(std::max<std::int64_t>(0, wall)));
}

}  // namespace clara::obs
