#include "common/parallel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

namespace clara::parallel {

namespace {

struct Task {
  std::function<void()> fn;
  TaskGroup* group = nullptr;
};

/// One lane's attribution counters (see LaneStats).
struct LaneCounters {
  std::atomic<std::uint64_t> run_ns{0};
  std::atomic<std::uint64_t> sched_ns{0};
  std::atomic<std::uint64_t> idle_ns{0};
  std::atomic<std::uint64_t> tasks{0};
};

std::atomic<std::size_t> g_jobs{0};  // 0 = uninitialized, use default

std::atomic<PoolEventHook> g_pool_hook{nullptr};

inline void fire_hook(PoolEvent event, std::uint64_t lane, std::uint64_t arg) {
  if (PoolEventHook hook = g_pool_hook.load(std::memory_order_relaxed)) hook(event, lane, arg);
}

inline std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0,
                                std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// log2 bucket for the task-duration histogram: [2^(i-1), 2^i) ns.
inline std::size_t task_hist_bucket(std::uint64_t ns) {
  return std::min<std::size_t>(std::bit_width(ns), PoolStats::kTaskHistBuckets - 1);
}

/// Which pool worker the current thread is (kInlineLane for externals).
thread_local std::uint64_t t_worker_id = kInlineLane;
thread_local const void* t_worker_pool = nullptr;

}  // namespace

void set_pool_event_hook(PoolEventHook hook) {
  g_pool_hook.store(hook, std::memory_order_relaxed);
}

struct ThreadPool::Impl {
  std::vector<std::unique_ptr<LaneCounters>> states;
  std::vector<std::thread> threads;

  // `queue` and `stop` are guarded by `mu`. Nested submissions (from a
  // worker of this pool) go to the front, external ones to the back.
  std::mutex mu;
  std::condition_variable wake;
  std::deque<Task> queue;
  bool stop = false;

  std::atomic<std::uint64_t> tasks_run{0};
  std::atomic<std::uint64_t> tasks_inline{0};
  std::atomic<std::uint64_t> injected{0};

  // The "caller lane": aggregate attribution across every external
  // thread that enqueues or helps execute tasks (TaskGroup::run/wait).
  LaneCounters inline_lane;
  std::array<std::atomic<std::uint64_t>, PoolStats::kTaskHistBuckets> task_hist{};

  ~Impl() { shutdown(); }

  void spawn(std::size_t n) {
    stop = false;  // no workers are running yet
    states.clear();
    states.reserve(n);
    for (std::size_t i = 0; i < n; ++i) states.push_back(std::make_unique<LaneCounters>());
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([this, i] { worker_loop(i); });
    }
  }

  void shutdown() {
    {
      // Set under the mutex: a worker between its predicate check and
      // its sleep would otherwise miss the notify below and never join.
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    wake.notify_all();
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
    threads.clear();
    // Drain any stranded tasks inline (none in normal use: a resize only
    // happens with no region in flight).
    while (auto task = try_pop()) execute(std::move(*task), kInlineLane);
    states.clear();
  }

  std::optional<Task> try_pop() {
    std::lock_guard<std::mutex> lock(mu);
    if (queue.empty()) return std::nullopt;
    Task task = std::move(queue.front());
    queue.pop_front();
    return task;
  }

  /// The calling thread's lane in this pool: its worker index, or
  /// kInlineLane for external threads (and workers of another pool).
  [[nodiscard]] std::uint64_t own_lane() const {
    return t_worker_pool == this && t_worker_id < states.size() ? t_worker_id : kInlineLane;
  }

  LaneCounters& counters(std::uint64_t lane) {
    return lane < states.size() ? *states[lane] : inline_lane;
  }

  /// Runs a task on `lane` (a worker index, or kInlineLane for external
  /// threads), timing the body and attributing it to the lane's counters
  /// and the shared task-duration histogram.
  void execute(Task task, std::uint64_t lane) {
    fire_hook(PoolEvent::kTaskStart, lane, 0);
    const auto t0 = std::chrono::steady_clock::now();
    task.fn();
    const std::uint64_t dur = elapsed_ns(t0, std::chrono::steady_clock::now());
    // Release the captures before the decrement: the group's owner may
    // return from wait() (and unwind what they reference) right after it.
    task.fn = nullptr;
    task.group->pending_.fetch_sub(1, std::memory_order_release);
    LaneCounters& lane_counters = counters(lane);
    lane_counters.run_ns.fetch_add(dur, std::memory_order_relaxed);
    lane_counters.tasks.fetch_add(1, std::memory_order_relaxed);
    task_hist[task_hist_bucket(dur)].fetch_add(1, std::memory_order_relaxed);
    fire_hook(PoolEvent::kTaskStop, lane, dur);
  }

  void enqueue(Task task) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (own_lane() != kInlineLane) {
        queue.push_front(std::move(task));
      } else {
        queue.push_back(std::move(task));
      }
    }
    injected.fetch_add(1, std::memory_order_relaxed);
    wake.notify_one();
  }

  void worker_loop(std::size_t id);
};

void ThreadPool::Impl::worker_loop(std::size_t id) {
  t_worker_id = id;
  t_worker_pool = this;
  LaneCounters& self = *states[id];
  for (;;) {
    auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mu);
    if (!stop && queue.empty()) {
      // Out of work: the sleep is idle time, what a profiler reads as
      // barrier wait / starvation.
      wake.wait(lock, [this] { return stop || !queue.empty(); });
      const auto t1 = std::chrono::steady_clock::now();
      self.idle_ns.fetch_add(elapsed_ns(t0, t1), std::memory_order_relaxed);
      t0 = t1;
    }
    if (stop) break;
    Task task = std::move(queue.front());
    queue.pop_front();
    lock.unlock();
    // Acquisition cost (the queue lock) is the lane's scheduling
    // overhead; the body is timed inside execute().
    self.sched_ns.fetch_add(elapsed_ns(t0, std::chrono::steady_clock::now()),
                            std::memory_order_relaxed);
    tasks_run.fetch_add(1, std::memory_order_relaxed);
    execute(std::move(task), id);
  }
  t_worker_id = kInlineLane;
  t_worker_pool = nullptr;
}

ThreadPool::ThreadPool(std::size_t workers) : impl_(std::make_unique<Impl>()) { impl_->spawn(workers); }

ThreadPool::~ThreadPool() = default;

std::size_t ThreadPool::workers() const { return impl_->threads.size(); }

void ThreadPool::resize(std::size_t n) {
  if (n == impl_->threads.size()) return;
  impl_->shutdown();
  impl_->spawn(n);
}

PoolStats ThreadPool::stats() const {
  PoolStats out;
  out.tasks_run = impl_->tasks_run.load(std::memory_order_relaxed);
  out.tasks_inline = impl_->tasks_inline.load(std::memory_order_relaxed);
  out.injected = impl_->injected.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    out.queue_depth = impl_->queue.size();
  }
  const auto snapshot = [](const LaneCounters& counters) {
    LaneStats lane;
    lane.run_ns = counters.run_ns.load(std::memory_order_relaxed);
    lane.sched_ns = counters.sched_ns.load(std::memory_order_relaxed);
    lane.idle_ns = counters.idle_ns.load(std::memory_order_relaxed);
    lane.tasks = counters.tasks.load(std::memory_order_relaxed);
    return lane;
  };
  for (const auto& state : impl_->states) {
    const LaneStats lane = snapshot(*state);
    out.per_worker_busy_ns.push_back(lane.run_ns);
    out.worker_busy_ns += lane.run_ns;
    out.worker_lanes.push_back(lane);
  }
  out.inline_lane = snapshot(impl_->inline_lane);
  for (std::size_t i = 0; i < PoolStats::kTaskHistBuckets; ++i) {
    out.task_ns_hist[i] = impl_->task_hist[i].load(std::memory_order_relaxed);
  }
  return out;
}

// ---------------------------------------------------------------------------
// TaskGroup

TaskGroup::TaskGroup() : pool_(&pool()) {}

TaskGroup::~TaskGroup() { wait(); }

void TaskGroup::run(std::function<void()> fn) {
  auto* impl = pool_->impl_.get();
  if (impl->states.empty()) {
    fn();  // no workers: serial execution
    return;
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  impl->enqueue(Task{std::move(fn), this});
  impl->counters(impl->own_lane())
      .sched_ns.fetch_add(elapsed_ns(t0, std::chrono::steady_clock::now()),
                          std::memory_order_relaxed);
}

void TaskGroup::wait() {
  auto* impl = pool_->impl_.get();
  // A worker helping inside a nested wait still charges its own lane,
  // so per-lane run+sched+idle keeps covering its wall clock.
  const std::uint64_t lane = impl->own_lane();
  LaneCounters& self = impl->counters(lane);
  while (pending_.load(std::memory_order_acquire) > 0) {
    const auto t0 = std::chrono::steady_clock::now();
    if (auto task = impl->try_pop()) {
      self.sched_ns.fetch_add(elapsed_ns(t0, std::chrono::steady_clock::now()),
                              std::memory_order_relaxed);
      impl->tasks_inline.fetch_add(1, std::memory_order_relaxed);
      impl->execute(std::move(*task), lane);
    } else {
      std::this_thread::yield();
      self.idle_ns.fetch_add(elapsed_ns(t0, std::chrono::steady_clock::now()),
                             std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------
// Globals

std::size_t default_jobs() {
  if (const char* env = std::getenv("CLARA_JOBS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t jobs() {
  const std::size_t j = g_jobs.load(std::memory_order_relaxed);
  return j > 0 ? j : default_jobs();
}

ThreadPool& pool() {
  static ThreadPool instance(jobs() > 0 ? jobs() - 1 : 0);
  return instance;
}

void set_jobs(std::size_t n) {
  g_jobs.store(n, std::memory_order_relaxed);
  pool().resize(jobs() - 1);
}

// ---------------------------------------------------------------------------
// parallel_for

void parallel_for_jobs(std::size_t jobs_override, std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t)>& body, std::size_t grain) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t j = jobs_override > 0 ? jobs_override : jobs();
  grain = std::max<std::size_t>(1, grain);
  if (j <= 1 || n <= grain || pool().workers() == 0) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // ~4 chunks per lane keeps the fastest lane busy while the slowest
  // finishes, without per-index task overhead.
  const std::size_t chunks = std::min((n + grain - 1) / grain, 4 * j);
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;
  TaskGroup group;
  std::size_t start = begin;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < rem ? 1 : 0);
    if (len == 0) continue;
    const std::size_t s = start;
    const std::size_t e = start + len;
    start = e;
    group.run([&body, s, e] {
      for (std::size_t i = s; i < e; ++i) body(i);
    });
  }
  group.wait();
}

void parallel_for(std::size_t begin, std::size_t end, const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  parallel_for_jobs(0, begin, end, body, grain);
}

std::uint64_t shard_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace clara::parallel
