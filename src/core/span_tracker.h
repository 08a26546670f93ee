// Incremental span maintenance: the running measure of a growing union of
// active intervals, updated in O(1) per insert when inserts come in
// start-time order and O(log n) otherwise, instead of rebuilding the
// IntervalSet from scratch on every query.
//
// The simulation engine feeds it one interval per job start (or per
// deferred length decision), so the span of an online run is available in
// O(1) at any point during and after the run.
#pragma once

#include <algorithm>
#include <vector>

#include "core/interval.h"
#include "core/interval_set.h"

namespace fjs {

/// Maintains measure(∪ inserted intervals) under inserts.
///
/// An insert whose left endpoint is at or past the last component's left
/// endpoint (every job start: starts come in simulation time order) can
/// only touch that last component, so both the measure update and the
/// IntervalSet::add_hint append are O(1). Other inserts (deferred length
/// decisions) binary-search the union.
class SpanTracker {
 public:
  /// Inserts an interval and updates the cached measure. Empty intervals
  /// are ignored.
  void add(const Interval& interval) {
    if (interval.empty()) {
      return;
    }
    const std::vector<Interval>& components = covered_.components();
    if (components.empty() || interval.lo >= components.back().lo) {
      const Time reach =
          components.empty() ? interval.lo
                             : std::max(interval.lo, components.back().hi);
      if (interval.hi > reach) {
        measure_ += interval.hi - reach;
      }
    } else {
      measure_ += covered_.uncovered_measure(interval);
    }
    covered_.add_hint(interval);
  }

  /// Current measure of the union — the span when the tracker holds all
  /// active intervals of a schedule.
  Time span() const { return measure_; }

  /// The union itself (sorted disjoint components).
  const IntervalSet& covered() const { return covered_; }

  bool empty() const { return covered_.empty(); }

  /// Resets to the empty union, keeping allocated capacity.
  void clear() {
    covered_.clear();
    measure_ = Time::zero();
  }

 private:
  IntervalSet covered_;
  Time measure_;
};

}  // namespace fjs
