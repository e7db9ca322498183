// Stress tests for the shared-queue pool: many tiny tasks, nested
// parallel_for, nested-work-first ordering, pool resizing, and the
// determinism contract. These run under the `perf` ctest label and must
// stay clean under -DCLARA_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace clara::parallel {
namespace {

/// RAII jobs override so a failing assertion cannot leak a setting into
/// later tests.
class JobsGuard {
 public:
  explicit JobsGuard(std::size_t n) : saved_(jobs()) { set_jobs(n); }
  ~JobsGuard() { set_jobs(saved_); }

 private:
  std::size_t saved_;
};

TEST(Parallel, JobsIsAtLeastOne) {
  EXPECT_GE(jobs(), 1u);
  EXPECT_GE(default_jobs(), 1u);
}

TEST(Parallel, SetJobsResizesPool) {
  JobsGuard guard(3);
  EXPECT_EQ(jobs(), 3u);
  EXPECT_EQ(pool().workers(), 2u);
}

TEST(Parallel, ManyTinyTasks) {
  JobsGuard guard(4);
  constexpr std::size_t kTasks = 20'000;
  std::atomic<std::uint64_t> sum{0};
  parallel_for(0, kTasks, [&](std::size_t i) { sum.fetch_add(i + 1, std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2);
}

TEST(Parallel, EveryIndexExactlyOnce) {
  JobsGuard guard(4);
  constexpr std::size_t kN = 5'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, NestedParallelFor) {
  JobsGuard guard(4);
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 256;
  std::atomic<std::uint64_t> total{0};
  parallel_for(0, kOuter, [&](std::size_t) {
    std::atomic<std::uint64_t> inner{0};
    parallel_for(0, kInner, [&](std::size_t j) { inner.fetch_add(j, std::memory_order_relaxed); });
    total.fetch_add(inner.load(), std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), kOuter * (kInner * (kInner - 1) / 2));
}

TEST(Parallel, SerialAndParallelProduceSameResults) {
  constexpr std::size_t kN = 2'048;
  auto run = [&](std::size_t jobs_override) {
    std::vector<std::uint64_t> out(kN, 0);
    parallel_for_jobs(jobs_override, 0, kN, [&](std::size_t i) { out[i] = shard_seed(7, i) % 1'000'003; });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(Parallel, GrainRespectsAllIndices) {
  JobsGuard guard(4);
  constexpr std::size_t kN = 1'023;  // deliberately not a multiple of the grain
  std::atomic<std::uint64_t> count{0};
  parallel_for(0, kN, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); }, 64);
  EXPECT_EQ(count.load(), kN);
}

TEST(Parallel, EmptyRangeIsNoop) {
  JobsGuard guard(4);
  bool ran = false;
  parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Parallel, TaskGroupWaitsForAll) {
  JobsGuard guard(4);
  std::atomic<int> done{0};
  {
    TaskGroup group;
    for (int i = 0; i < 500; ++i) {
      group.run([&] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    EXPECT_EQ(done.load(), 500);
  }
}

TEST(Parallel, NestedTasksRunBeforeQueuedTopLevelTasks) {
  // One worker plus the caller. Task A occupies the worker, and only once
  // the top-level tasks B are queued behind it does A fan out a nested
  // parallel_for. While A waits on its loop it must run the loop's own
  // chunks (queued at the front) rather than the Bs ahead of them.
  JobsGuard guard(2);
  constexpr int kTopLevel = 8;
  std::atomic<bool> a_started{false};
  std::atomic<bool> bs_queued{false};
  std::atomic<bool> nested_done{false};
  std::atomic<int> early_bs{0};
  std::atomic<int> bs_run{0};
  std::atomic<std::uint64_t> nested_sum{0};
  TaskGroup group;
  group.run([&] {
    a_started.store(true);
    while (!bs_queued.load()) std::this_thread::yield();
    parallel_for(0, 64, [&](std::size_t i) { nested_sum.fetch_add(i, std::memory_order_relaxed); });
    nested_done.store(true);
  });
  // The caller is not waiting yet, so only the worker can have taken A.
  while (!a_started.load()) std::this_thread::yield();
  for (int i = 0; i < kTopLevel; ++i) {
    group.run([&] {
      if (!nested_done.load()) early_bs.fetch_add(1);
      bs_run.fetch_add(1);
    });
  }
  bs_queued.store(true);
  // Stay out of the queue until A finishes: while it runs, the worker is
  // the only thread that can start a B.
  while (!nested_done.load()) std::this_thread::yield();
  group.wait();
  EXPECT_EQ(early_bs.load(), 0) << "a top-level task ran inside the nested loop's wait";
  EXPECT_EQ(bs_run.load(), kTopLevel);
  EXPECT_EQ(nested_sum.load(), 64u * 63u / 2u);
}

TEST(Parallel, ResizeCyclesWithIdleWorkersFinish) {
  // Freshly spawned workers are shut down while they are still on their
  // way to sleep; a stop flag set outside the queue mutex loses that
  // wakeup and hangs the join. A watchdog turns such a hang into a
  // failure instead of a stuck test binary.
  JobsGuard guard(2);
  std::promise<void> finished;
  auto done = finished.get_future();
  std::thread cycler([&] {
    for (int i = 0; i < 200; ++i) {
      set_jobs(4);
      set_jobs(2);
    }
    finished.set_value();
  });
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "set_jobs(4)/set_jobs(2) cycles hung: a worker missed its stop signal\n");
    std::_Exit(1);
  }
  cycler.join();
  EXPECT_EQ(pool().workers(), 1u);
}

TEST(Parallel, PoolStatsAdvance) {
  JobsGuard guard(4);
  const PoolStats before = pool().stats();
  std::atomic<std::uint64_t> sink{0};
  parallel_for(0, 10'000, [&](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); });
  const PoolStats after = pool().stats();
  // Work happened somewhere: on workers, or inline in the waiting caller.
  EXPECT_GE(after.tasks_run + after.tasks_inline, before.tasks_run + before.tasks_inline);
  EXPECT_EQ(after.per_worker_busy_ns.size(), pool().workers());
}

TEST(Parallel, ShardSeedIsDeterministicAndDistinct) {
  EXPECT_EQ(shard_seed(42, 7), shard_seed(42, 7));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1'000; ++i) seen.insert(shard_seed(42, i));
  EXPECT_EQ(seen.size(), 1'000u);  // no collisions across shard indices
  // Close base seeds must still give unrelated streams.
  EXPECT_NE(shard_seed(1, 0), shard_seed(2, 0));
}

}  // namespace
}  // namespace clara::parallel
