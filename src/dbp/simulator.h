// MinUsageTime DBP simulator: replays a fixed schedule's active intervals
// through a packing policy and accounts each bin's non-empty time.
#pragma once

#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "dbp/packing.h"

namespace fjs {

struct DbpResult {
  /// Σ over bins of the measure of the bin's non-empty periods — the
  /// MinUsageTime objective (total server running hours).
  Time total_usage;
  std::size_t bins_opened = 0;
  /// Peak number of simultaneously non-empty bins (fleet size needed).
  std::size_t peak_open_bins = 0;
  std::vector<Time> per_bin_usage;
  /// Bin assigned to each job, aligned with instance ids.
  std::vector<std::size_t> assignment;
};

/// Packs every job's active interval. `sizes` is per-job demand in
/// (0, capacity]. The packer's choice is validated (capacity is never
/// exceeded at any time); violations throw AssertionError. Busy time on
/// capacity-g machines is the unit-size case: sizes all 1.0, capacity g.
DbpResult run_packing(InstanceView instance, const Schedule& schedule,
                      const std::vector<double>& sizes, Packer& packer,
                      double capacity = 1.0);

/// Standalone MinUsageTime DBP entry point: packs pre-built items (fixed
/// placement intervals, no Instance/Schedule needed). `assignment` in the
/// result is indexed by position in `items`.
DbpResult pack_items(const std::vector<DbpItem>& items, Packer& packer,
                     double capacity = 1.0);

/// Certified lower bound on ANY packing of ANY valid schedule:
/// max(span lower bound, total size×duration volume / capacity).
Time dbp_usage_lower_bound(InstanceView instance,
                           const std::vector<double>& sizes,
                           double capacity = 1.0);

}  // namespace fjs
