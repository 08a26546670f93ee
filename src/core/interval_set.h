// Union of half-open intervals, the object the span objective is defined
// on: span(J) = measure(∪ active intervals).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/interval.h"

namespace fjs {

/// Maintains a sorted list of disjoint, non-abutting half-open intervals.
/// Abutting inserts ([1,2) then [2,3)) merge into one component, matching
/// the definition of span as the measure of the union.
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Builds from arbitrary (unsorted, overlapping) intervals in
  /// O(n log n): sort by left endpoint, then merge in one linear pass.
  explicit IntervalSet(std::vector<Interval> intervals);

  /// Adds one interval, merging as needed. Empty intervals are ignored.
  void add(const Interval& interval);

  /// Like add(), but O(1) when the interval starts at or after the last
  /// component's start — the common case for inserts whose left endpoints
  /// arrive in nondecreasing order (e.g. simulation time order). Falls
  /// back to add() otherwise; always produces the same set.
  void add_hint(const Interval& interval);

  /// Union with another set: linear two-pointer merge of the two sorted
  /// component lists.
  void unite(const IntervalSet& other);

  /// Measure of the union of intervals already sorted by left endpoint
  /// (overlaps and empties allowed): one linear pass, no allocation. The
  /// zero-materialization path for tight loops that re-evaluate a span
  /// after every local move.
  static Time sorted_union_measure(const std::vector<Interval>& sorted);

  /// Replaces one instance of `old_iv` with `new_iv` in a list sorted by
  /// left endpoint, keeping it sorted (two memmoves). Companion to
  /// sorted_union_measure for local-search loops that move one interval
  /// at a time. `old_iv` must be present.
  static void replace_in_sorted(std::vector<Interval>& sorted,
                                const Interval& old_iv,
                                const Interval& new_iv);

  void clear() { components_.clear(); }

  bool empty() const { return components_.empty(); }

  /// Number of maximal contiguous components.
  std::size_t component_count() const { return components_.size(); }

  /// The i-th component, ordered by position.
  const Interval& component(std::size_t i) const;

  const std::vector<Interval>& components() const { return components_; }

  /// Total measure (the span when the set holds all active intervals).
  Time measure() const;

  /// True iff t lies in some component.
  bool contains(Time t) const;

  /// True iff the interval intersects the set.
  bool intersects(const Interval& interval) const;

  /// Measure of the intersection with `interval`.
  Time measure_within(const Interval& interval) const;

  /// Measure of `interval` NOT covered by this set — the marginal span a
  /// new active interval would add. Core of the offline optimizer.
  Time uncovered_measure(const Interval& interval) const;

  /// The same over any sorted, disjoint, non-abutting component list,
  /// e.g. the slice of components() near `interval`.
  static Time uncovered_measure(std::span<const Interval> components,
                                const Interval& interval);

  /// Leftmost point of the set. Requires non-empty.
  Time lower() const;
  /// Rightmost point (exclusive). Requires non-empty.
  Time upper() const;

  /// Maximal uncovered intervals strictly inside [range.lo, range.hi).
  std::vector<Interval> gaps_within(const Interval& range) const;

  bool operator==(const IntervalSet&) const = default;

  std::string to_string() const;

 private:
  std::vector<Interval> components_;
};

}  // namespace fjs
