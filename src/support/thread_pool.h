// Thread pool used to fan parameter sweeps, Monte-Carlo ratio experiments,
// and nested experiment/task parallelism across cores.
//
// Design notes:
//  * one mutex-guarded task queue shared by every thread. Tasks are coarse
//    (a whole simulation or experiment each), so the single lock costs
//    nothing measurable; docs/PERF.md §3 has the ablation against
//    per-worker work-stealing deques;
//  * TaskGroup provides *nesting*: a task that spawns subtasks and calls
//    wait() runs queued tasks -- its own group's newest first, then the
//    oldest of any group -- instead of blocking a worker. One pool can
//    therefore run an outer experiment fan-out and the experiments' inner
//    loops without deadlock or oversubscription, even with one thread.
//    Only when nothing is queued does wait() sleep, until its group's
//    last task finishes or new work arrives to help with;
//  * one condition variable for workers and waiters. A group's end
//    also wakes the idle workers, which find nothing and sleep again;
//    with whole mines and experiments as tasks that costs nothing
//    measurable (docs/PERF.md §3);
//  * std::jthread workers are joined in the destructor (RAII -- no
//    detached threads). A group waits for all of its tasks before it is
//    destroyed, so no task outlives the pool;
//  * exceptions: TaskGroup captures the first subtask exception and
//    rethrows it exactly once from wait(), whichever thread ran the task.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace fjs {

/// Upper bound on a pool's worker count; larger requests are rejected
/// before any thread starts.
inline constexpr std::size_t kMaxThreads = 1024;

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1, at most kMaxThreads). Throws AssertionError when
  /// `threads` exceeds kMaxThreads. If a worker fails to start, the ones
  /// already running are stopped and joined and the error is rethrown.
  explicit ThreadPool(std::size_t threads = 0);

  /// Stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return threads_.size(); }

  /// A set of spawned subtasks awaited together. wait() *helps*: the
  /// waiting thread runs queued pool work (including work from other
  /// groups) until every subtask of this group has finished, so groups
  /// nest arbitrarily deep on a single pool -- even a pool of one thread.
  /// The first exception thrown by any subtask is rethrown exactly once
  /// from wait(); later exceptions are dropped.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    ~TaskGroup();  // drains (without rethrow) if wait() was never reached

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Spawns fn() as a pool task belonging to this group. Call it only
    /// from the thread that calls wait(): a waiter sleeps once none of
    /// its tasks are queued, and nothing else would wake it for a task
    /// spawned into its group afterwards.
    template <typename F>
    void run(F&& fn) {
      pool_.enqueue(this, std::function<void()>(std::forward<F>(fn)));
    }

    /// Helps run pool work until all spawned tasks finished, then
    /// rethrows the first captured exception (if any).
    void wait();

   private:
    friend class ThreadPool;

    void drain() noexcept;

    ThreadPool& pool_;
    // Both guarded by pool_.mutex_.
    std::size_t pending_ = 0;
    std::exception_ptr exception_;
  };

 private:
  struct Task {
    TaskGroup* group;
    std::function<void()> fn;
  };

  void enqueue(TaskGroup* group, std::function<void()> fn);
  /// Runs `task` with `lock` released, then records its completion in its
  /// group under the reacquired lock.
  void run(Task task, std::unique_lock<std::mutex>& lock) noexcept;
  void worker_loop();
  void stop() noexcept;

  std::mutex mutex_;
  // A task was queued, some group's last task finished, or stopping.
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  // Declared last so the workers are joined before the state they use is
  // destroyed.
  std::vector<std::jthread> threads_;
};

/// Process-wide pool for the analysis helpers. Created on first use.
ThreadPool& global_pool();

}  // namespace fjs
