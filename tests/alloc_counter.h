// Heap-allocation counting for the zero-allocation tests. Linking
// alloc_counter.cpp into a test executable replaces the global operator
// new/delete with counting wrappers around malloc/free; replacement
// happens at link time, so the library is the same build every other
// test links. The counters are thread-local, so a test can bracket a
// region and assert on exactly the allocations *it* made — the
// zero-steady-state-allocation guarantee of the span-only portfolio path
// is pinned this way (tests/test_portfolio_allocs.cpp).
#pragma once

#include <cstddef>

namespace fjs {

struct AllocCounts {
  std::size_t allocations = 0;  // operator new calls on this thread
  std::size_t frees = 0;        // operator delete calls on this thread
  std::size_t bytes = 0;        // total bytes requested by this thread
};

/// Totals for the calling thread since thread start.
AllocCounts alloc_counts() noexcept;

}  // namespace fjs
