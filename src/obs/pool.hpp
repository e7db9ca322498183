// Thread-pool observability bridge.
//
// common/parallel deliberately has no obs dependency (obs links common),
// so pool activity reaches the metrics registry by snapshot-and-delta:
// callers grab parallel::pool().stats() before and after a parallel
// region and publish the difference here, attributed to their module.
#pragma once

#include <string>

#include "common/parallel.hpp"

namespace clara::obs {

/// Publishes the delta between two pool-stats snapshots under
/// "parallel/*" instruments labeled "module=<module>":
///   counters  parallel/tasks_run, parallel/tasks_inline,
///             parallel/injected (tasks enqueued),
///             parallel/worker_busy_ns
///   gauge     parallel/queue_depth (absolute, from `after`)
///   gauges    parallel/worker_busy_ns{module=...,worker=i} (cumulative)
void publish_pool_stats(const std::string& module, const parallel::PoolStats& before,
                        const parallel::PoolStats& after);

}  // namespace clara::obs
