// Certified lower bounds on the optimal span.
//
// Competitive ratios on large instances are reported as a bracket
//   span_on / heuristic  <=  true ratio  <=  span_on / lower_bound;
// these functions provide the denominator of the upper estimate. Each bound
// is valid for EVERY schedule, online or offline.
//
// Every bound takes an InstanceView — the miner's certification objective
// calls them on its patched incumbent table with no owning Instance in
// sight; an Instance converts to its view.
#pragma once

#include "core/instance.h"
#include "core/job_table.h"
#include "core/time.h"

namespace fjs {

/// Measure of the union of mandatory regions [d(J), a(J)+p(J)): when a
/// job's laxity is smaller than its length, every placement covers that
/// region, so every schedule's span covers their union.
Time mandatory_lower_bound(InstanceView view);

/// Disjointness-chain bound: if a(J') >= d(J) + p(J), the active intervals
/// of J and J' cannot overlap under any schedule (J is forced to finish
/// before J' exists). The maximum-weight chain of pairwise-forced-disjoint
/// jobs, weighted by processing length, lower-bounds the span. O(n log n).
Time chain_lower_bound(InstanceView view);

/// The longest single job is always fully inside the span.
Time max_length_lower_bound(InstanceView view);

/// max of the three bounds above. Zero for the empty instance.
Time best_lower_bound(InstanceView view);

}  // namespace fjs
