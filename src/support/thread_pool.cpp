#include "support/thread_pool.h"

#include <algorithm>
#include <iterator>

#include "support/assert.h"

namespace fjs {

ThreadPool::ThreadPool(std::size_t threads) {
  FJS_REQUIRE(threads <= kMaxThreads,
              "ThreadPool: thread count exceeds kMaxThreads");
  std::size_t n = threads;
  if (n == 0) {
    n = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                kMaxThreads);
  }
  threads_.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop();  // started workers must not outlive mutex_ and the cvs
    throw;
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() noexcept {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  threads_.clear();  // jthread joins
}

void ThreadPool::enqueue(TaskGroup* group, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(Task{group, std::move(fn)});
    ++group->pending_;  // after the push, which may throw
  }
  work_cv_.notify_one();
}

void ThreadPool::run(Task task, std::unique_lock<std::mutex>& lock) noexcept {
  lock.unlock();
  std::exception_ptr error;
  {
    // The callable (and whatever it captured) is destroyed before the
    // group can observe the task as finished.
    const std::function<void()> fn = std::move(task.fn);
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  }
  lock.lock();
  TaskGroup& group = *task.group;
  if (error && !group.exception_) {
    group.exception_ = error;
  }
  if (--group.pending_ == 0) {
    done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stopping, and nothing left to run
    }
    Task task = std::move(queue_.front());
    queue_.pop_front();
    run(std::move(task), lock);
  }
}

ThreadPool::TaskGroup::~TaskGroup() { drain(); }

void ThreadPool::TaskGroup::drain() noexcept {
  auto& queue = pool_.queue_;
  std::unique_lock<std::mutex> lock(pool_.mutex_);
  while (pending_ != 0) {
    if (queue.empty()) {
      // Our tasks are all running on other threads, and only this thread
      // spawns into the group, so none can be queued before they finish.
      pool_.done_cv_.wait(lock, [this] { return pending_ == 0; });
      return;
    }
    // Our own newest task first: running another group's task here could
    // hold this group's waiter behind a long, unrelated case.
    const auto own =
        std::find_if(queue.rbegin(), queue.rend(),
                     [this](const Task& t) { return t.group == this; });
    const auto pick =
        own != queue.rend() ? std::prev(own.base()) : queue.begin();
    Task task = std::move(*pick);
    queue.erase(pick);
    pool_.run(std::move(task), lock);
  }
}

void ThreadPool::TaskGroup::wait() {
  drain();
  if (exception_) {
    std::rethrow_exception(std::exchange(exception_, nullptr));
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fjs
