// parallel_for / parallel_map over index ranges, built on the pool's
// TaskGroup (helping waits, so these nest freely on a single pool -- an
// outer parallel_for's body may itself call parallel_for on the same pool
// without deadlock).
//
// Indices are handed out dynamically: thread_count + 1 tasks claim them one
// at a time from a shared atomic counter, so an expensive item (a slow
// annealing case, a pathological instance) does not strand cheaper ones
// behind it. Results are written to pre-sized slots keyed by index, so the
// output is deterministic and independent of the thread count — the
// property the serial-vs-parallel tests pin down.
//
// Exceptions: the first exception thrown by any index is rethrown exactly
// once from the call, after every task has stopped. A task whose call
// throws claims no further indices; the other tasks keep claiming.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "support/thread_pool.h"

namespace fjs {

/// Invokes fn(i) for every i in [0, count) using the given pool. The
/// calling thread helps run tasks while waiting. Rethrows the first task
/// exception.
template <typename F>
void parallel_for(ThreadPool& pool, std::size_t count, F&& fn) {
  if (count == 0) {
    return;
  }
  // Stack-local is safe: group.wait() returns only after every spawned
  // task finished.
  std::atomic<std::size_t> next{0};
  ThreadPool::TaskGroup group(pool);
  const std::size_t tasks = std::min(pool.thread_count() + 1, count);
  for (std::size_t t = 0; t < tasks; ++t) {
    group.run([&fn, &next, count] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    });
  }
  group.wait();
}

/// Serial fallback with the same signature (thread count 1 semantics).
template <typename F>
void serial_for(std::size_t count, F&& fn) {
  for (std::size_t i = 0; i < count; ++i) {
    fn(i);
  }
}

/// Maps fn over [0, count) into a vector, preserving index order.
template <typename F>
auto parallel_map(ThreadPool& pool, std::size_t count, F&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> out(count);
  parallel_for(pool, count, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace fjs
