#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/assert.h"
#include "support/parallel.h"
#include "support/thread_pool.h"

namespace fjs {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4};

TEST(ThreadPool, RunsGroupTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  int value = 0;
  ThreadPool::TaskGroup group(pool);
  group.run([&value] { value = 21 * 2; });
  group.wait();
  EXPECT_EQ(value, 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 200; ++i) {
    group.run([&counter] { ++counter; });
  }
  group.wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(pool);
  group.run([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(ThreadPool, RejectsMoreThanMaxThreads) {
  // Rejected before any worker starts; no test builds a pool near the cap.
  EXPECT_THROW(ThreadPool(kMaxThreads + 1), AssertionError);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  // A group destroyed without wait() still runs every task before the
  // pool behind it goes away.
  for (const std::size_t threads : kThreadCounts) {
    std::atomic<int> counter{0};
    {
      ThreadPool pool(threads);
      ThreadPool::TaskGroup group(pool);
      for (int i = 0; i < 50; ++i) {
        group.run([&counter] { ++counter; });
      }
    }
    EXPECT_EQ(counter.load(), 50) << "threads=" << threads;
  }
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  for (const std::size_t count : {std::size_t{1}, std::size_t{97},
                                  std::size_t{1000}}) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(count);
    parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1) << "count=" << count;
    }
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, RethrowsTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 64,
                            [](std::size_t i) {
                              if (i == 17) {
                                throw std::runtime_error("task failed");
                              }
                            }),
               std::runtime_error);
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(4);
  const std::size_t n = 5000;
  std::atomic<std::uint64_t> sum{0};
  parallel_for(pool, n, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ParallelFor, DeterministicAcrossThreadCounts) {
  // Slot-indexed writes make the output independent of which task claims
  // which index; 1, 2, and 8 threads must agree exactly even with
  // deliberately uneven per-item costs.
  auto compute = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(512);
    parallel_for(pool, out.size(), [&](std::size_t i) {
      std::uint64_t acc = i;
      // Uneven work: later indices spin longer.
      for (std::size_t k = 0; k < i * 10; ++k) {
        acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      out[i] = acc;
    });
    return out;
  };
  const auto one = compute(1);
  EXPECT_EQ(one, compute(2));
  EXPECT_EQ(one, compute(8));
}

TEST(ParallelMap, PreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out =
      parallel_map(pool, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(GlobalPool, IsUsable) {
  const auto out =
      parallel_map(global_pool(), 3, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(out, (std::vector<std::size_t>{1, 2, 3}));
}

// --- Nesting and exception plumbing -------------------------------------

TEST(TaskGroup, NestedParallelForOnOnePoolDoesNotDeadlock) {
  // The old futures-per-chunk design deadlocked the moment an outer task
  // blocked a worker waiting on inner work; the TaskGroup helping wait
  // must make this complete even on a pool of ONE thread.
  for (const std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(24, 0);
    parallel_for(pool, out.size(), [&](std::size_t i) {
      std::vector<std::uint64_t> inner(16);
      parallel_for(pool, inner.size(),
                   [&](std::size_t j) { inner[j] = i * 100 + j; });
      std::uint64_t sum = 0;
      for (const auto v : inner) {
        sum += v;
      }
      out[i] = sum;
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i * 100 * 16 + 120) << "threads=" << threads;
    }
  }
}

TEST(TaskGroup, DeeplyNestedGroupsComplete) {
  for (const std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    std::atomic<int> leaves{0};
    std::function<void(int)> spawn = [&](int depth) {
      if (depth == 0) {
        ++leaves;
        return;
      }
      ThreadPool::TaskGroup group(pool);
      for (int i = 0; i < 3; ++i) {
        group.run([&, depth] { spawn(depth - 1); });
      }
      group.wait();
    };
    spawn(4);
    EXPECT_EQ(leaves.load(), 3 * 3 * 3 * 3) << "threads=" << threads;
  }
}

TEST(ParallelFor, ManyThrowingTasksPropagateExactlyOneException) {
  // Every index throws; exactly ONE exception must escape the call (the
  // first captured), the rest are dropped, and the pool stays usable.
  for (const std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    int caught = 0;
    std::string message;
    try {
      parallel_for(pool, 64, [](std::size_t i) {
        throw std::runtime_error("planted " + std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      ++caught;
      message = e.what();
    }
    EXPECT_EQ(caught, 1);
    EXPECT_EQ(message.rfind("planted ", 0), 0u) << message;
    // The pool survived: every task finished before the rethrow.
    std::atomic<int> hits{0};
    parallel_for(pool, 32, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 32);
  }
}

TEST(TaskGroup, WorkerTaskExceptionPropagatesExactlyOnce) {
  // The waiting thread spins (without helping) until a worker has started
  // the throwing task, so the exception is captured on another thread and
  // must be rethrown exactly once from this thread's wait().
  ThreadPool pool(2);
  std::atomic<bool> thrower_started{false};
  std::atomic<int> thrower_runs{0};
  std::thread::id thrower_id;
  int caught = 0;
  ThreadPool::TaskGroup group(pool);
  group.run([&] {
    thrower_id = std::this_thread::get_id();
    ++thrower_runs;
    thrower_started.store(true);
    throw std::runtime_error("worker boom");
  });
  while (!thrower_started.load()) {
    std::this_thread::yield();
  }
  try {
    group.wait();
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "worker boom");
  }
  EXPECT_NE(thrower_id, std::this_thread::get_id());
  // A second wait() must not rethrow: the exception is delivered once.
  group.wait();
  EXPECT_EQ(caught, 1);
  EXPECT_EQ(thrower_runs.load(), 1);
}

TEST(TaskGroup, AbandonedGroupDrainsWithoutRethrow) {
  // Destroying a group without calling wait() (e.g. unwinding through an
  // outer exception) must drain its tasks and swallow their exceptions.
  for (const std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    {
      ThreadPool::TaskGroup group(pool);
      for (int i = 0; i < 8; ++i) {
        group.run([&ran] {
          ++ran;
          throw std::runtime_error("ignored");
        });
      }
    }  // ~TaskGroup: no std::terminate, no leak
    EXPECT_EQ(ran.load(), 8) << "threads=" << threads;
  }
}

TEST(TaskGroupStress, NestedGroupsWithThrowingLeaves) {
  // Two levels of groups whose leaves throw in a pattern that moves with
  // the repetition: every leaf runs, each inner wait() rethrows into its
  // outer task, and the outer wait() delivers exactly one exception. A
  // lost wake-up shows up as a hang, which the ctest TIMEOUT turns into a
  // failure.
  constexpr int kOuter = 4;
  constexpr int kInner = 4;
  for (const std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    for (int rep = 0; rep < 200; ++rep) {
      std::atomic<int> leaves{0};
      int caught = 0;
      ThreadPool::TaskGroup outer(pool);
      for (int i = 0; i < kOuter; ++i) {
        outer.run([&, i] {
          ThreadPool::TaskGroup inner(pool);
          for (int j = 0; j < kInner; ++j) {
            inner.run([&, i, j] {
              ++leaves;
              if ((i * kInner + j) % 5 == rep % 5) {
                throw std::runtime_error("leaf");
              }
            });
          }
          inner.wait();
        });
      }
      try {
        outer.wait();
      } catch (const std::runtime_error&) {
        ++caught;
      }
      outer.wait();  // nothing left to rethrow
      ASSERT_EQ(leaves.load(), kOuter * kInner)
          << "threads=" << threads << " rep=" << rep;
      ASSERT_EQ(caught, 1) << "threads=" << threads << " rep=" << rep;
    }
  }
}

}  // namespace
}  // namespace fjs
