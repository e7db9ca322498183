#include "obs/pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace clara::obs {

void publish_pool_stats(const std::string& module, const parallel::PoolStats& before,
                        const parallel::PoolStats& after) {
  auto& registry = metrics();
  const std::string labels = "module=" + module;
  registry.counter("parallel/tasks_run", labels).inc(after.tasks_run - before.tasks_run);
  registry.counter("parallel/tasks_inline", labels).inc(after.tasks_inline - before.tasks_inline);
  registry.counter("parallel/injected", labels).inc(after.injected - before.injected);
  registry.counter("parallel/worker_busy_ns", labels).inc(after.worker_busy_ns - before.worker_busy_ns);
  registry.gauge("parallel/queue_depth", labels).set(static_cast<double>(after.queue_depth));
  for (std::size_t w = 0; w < after.per_worker_busy_ns.size(); ++w) {
    registry.gauge("parallel/worker_busy_ns", labels + ",worker=" + std::to_string(w))
        .set(static_cast<double>(after.per_worker_busy_ns[w]));
  }
  // Per-lane attribution deltas (run = task body, sched = acquire/enqueue,
  // idle = naps while out of work); lane "inline" is the calling thread.
  const auto publish_lane = [&](const std::string& lane, const parallel::LaneStats& delta) {
    const std::string lane_labels = labels + ",lane=" + lane;
    registry.counter("parallel/lane_run_ns", lane_labels).inc(delta.run_ns);
    registry.counter("parallel/lane_sched_ns", lane_labels).inc(delta.sched_ns);
    registry.counter("parallel/lane_idle_ns", lane_labels).inc(delta.idle_ns);
  };
  const std::size_t lanes = std::min(before.worker_lanes.size(), after.worker_lanes.size());
  for (std::size_t w = 0; w < after.worker_lanes.size(); ++w) {
    const parallel::LaneStats zero{};
    const parallel::LaneStats& prior = w < lanes ? before.worker_lanes[w] : zero;
    parallel::LaneStats delta = after.worker_lanes[w];
    delta.run_ns -= prior.run_ns;
    delta.sched_ns -= prior.sched_ns;
    delta.idle_ns -= prior.idle_ns;
    publish_lane("worker" + std::to_string(w), delta);
  }
  parallel::LaneStats inline_delta = after.inline_lane;
  inline_delta.run_ns -= before.inline_lane.run_ns;
  inline_delta.sched_ns -= before.inline_lane.sched_ns;
  inline_delta.idle_ns -= before.inline_lane.idle_ns;
  publish_lane("inline", inline_delta);
}

}  // namespace clara::obs
