// Shared parallelism substrate: a fixed-size thread pool with one
// shared task queue.
//
// Every parallel path in Clara (branch-and-bound LP solves, sharded
// workload sweeps, daemon requests) funnels through this one pool so the
// process never oversubscribes the machine. Design:
//
//   * one mutex-guarded queue: a task submitted from a worker of this
//     pool (a nested parallel_for) goes to the front, every external
//     submission to the back, so a thread waiting on nested work runs
//     its own subtasks before unrelated queued requests;
//   * idle workers block on a condition variable under the queue mutex
//     (no timed naps: stop and the queue are both guarded by that mutex,
//     so no wakeup is lost);
//   * waiting threads are never passive: TaskGroup::wait() executes
//     pending tasks while it waits, so nested parallel_for (a sweep
//     shard whose MILP solve fans out again) cannot deadlock.
//
// Concurrency level: `jobs()` tasks run at once (pool workers plus the
// participating caller). The global default comes from --jobs / the
// CLARA_JOBS environment variable, else hardware_concurrency; jobs()==1
// executes everything inline — fully serial, deterministic, zero
// threads. All Clara parallel algorithms are written so their *results*
// are identical at every jobs level; the pool only changes wall time.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace clara::parallel {

/// Global concurrency level (>= 1). Defaults to CLARA_JOBS if set, else
/// std::thread::hardware_concurrency().
std::size_t jobs();

/// Sets the global concurrency level; 0 restores the default. Must not
/// be called while parallel work is in flight (configure at startup or
/// between pipeline phases, as clara_cli and the tests do).
void set_jobs(std::size_t n);

/// The default jobs value: CLARA_JOBS when set to a positive integer,
/// else hardware_concurrency (min 1).
std::size_t default_jobs();

/// Per-lane execution-time attribution (a lane is one pool worker, or
/// the aggregate of every external thread that executes tasks inline
/// while waiting). All values are monotonic nanosecond/event counters;
/// profilers snapshot before/after a region and diff.
struct LaneStats {
  std::uint64_t run_ns = 0;    // wall time inside task bodies
  std::uint64_t sched_ns = 0;  // task acquisition + enqueue overhead
  std::uint64_t idle_ns = 0;   // waiting with no runnable work (barrier/starvation)
  std::uint64_t tasks = 0;     // tasks executed on this lane
};

/// Monotonic pool counters for observability. Consumers snapshot before
/// and after a parallel region and publish the delta to obs::metrics()
/// (common/ stays free of an obs dependency).
struct PoolStats {
  /// Log2-bucketed per-task duration histogram: bucket i counts tasks
  /// whose body ran for [2^(i-1), 2^i) ns (bucket 0: sub-nanosecond).
  static constexpr std::size_t kTaskHistBuckets = 40;

  std::uint64_t tasks_run = 0;       // tasks executed by pool workers
  std::uint64_t tasks_inline = 0;    // tasks executed by waiting callers
  /// Always 0: the shared queue has nothing to steal from. Kept so
  /// snapshot consumers that read it keep building.
  std::uint64_t steals = 0;
  std::uint64_t injected = 0;        // tasks enqueued on the shared queue
  std::uint64_t worker_busy_ns = 0;  // summed task wall time on workers
  std::size_t queue_depth = 0;       // queue backlog at snapshot time
  std::vector<std::uint64_t> per_worker_busy_ns;
  /// Full attribution per worker lane (run+sched+idle covers nearly the
  /// whole worker wall clock; the remainder is loop bookkeeping).
  std::vector<LaneStats> worker_lanes;
  /// Aggregate attribution for external threads helping via
  /// TaskGroup::wait()/run() — the "caller lane".
  LaneStats inline_lane;
  std::array<std::uint64_t, kTaskHistBuckets> task_ns_hist{};
};

/// Scheduling events surfaced to an optional process-wide hook (the
/// obs flight recorder installs one). `lane` is the worker index, or
/// kInlineLane for external threads; kTaskStop carries the task body
/// duration in ns as `arg`.
enum class PoolEvent : std::uint8_t { kTaskStart, kTaskStop };

inline constexpr std::uint64_t kInlineLane = ~std::uint64_t{0};

using PoolEventHook = void (*)(PoolEvent event, std::uint64_t lane, std::uint64_t arg);

/// Installs (or clears, with nullptr) the pool event hook. The hook must
/// be thread-safe and cheap; it fires on task start and stop. One hook
/// at a time.
void set_pool_event_hook(PoolEventHook hook);

class ThreadPool;

/// Latch-style completion tracker for a batch of tasks. run() enqueues,
/// wait() helps execute pending work until every task in the group has
/// finished. A group is single-owner: run/wait from the owning thread.
class TaskGroup {
 public:
  TaskGroup();
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues fn on the pool (runs inline immediately when jobs()==1 or
  /// the pool has no workers). fn must not throw.
  void run(std::function<void()> fn);
  /// Blocks until every task run() on this group has completed,
  /// executing pending pool tasks while waiting.
  void wait();

 private:
  ThreadPool* pool_;
  std::atomic<std::size_t> pending_{0};
  friend class ThreadPool;
};

/// The process-wide pool, sized to jobs()-1 background workers (the
/// caller is the remaining lane). Resized lazily by set_jobs().
ThreadPool& pool();

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Background worker count (concurrency is workers()+1 with the
  /// participating caller).
  [[nodiscard]] std::size_t workers() const;
  /// Joins and respawns workers so workers()==n. Callers must ensure no
  /// parallel region is active.
  void resize(std::size_t n);

  [[nodiscard]] PoolStats stats() const;

 private:
  friend class TaskGroup;
  friend std::size_t jobs();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Parallel loop over [begin, end): body(i) for every index, partitioned
/// into ~4x-jobs() contiguous chunks of at least `grain` indices. The
/// caller participates; nested calls are safe (inner chunks queue ahead
/// of outer work and the waiting thread helps run them). Iterations must
/// be independent — the loop guarantees nothing about execution order.
void parallel_for(std::size_t begin, std::size_t end, const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// parallel_for with an explicit concurrency override (0 = global
/// jobs()). Used by solver/sweep options that pin their own jobs value.
void parallel_for_jobs(std::size_t jobs_override, std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t)>& body, std::size_t grain = 1);

/// Deterministic per-shard RNG stream seed: splitmix64 of (base, index).
/// Shards seeded this way are statistically independent regardless of
/// how close the base seeds are (the workload generator's seeds are
/// small integers).
std::uint64_t shard_seed(std::uint64_t base, std::uint64_t index);

}  // namespace clara::parallel
