// Scheduler × Packer pipelines for generalized MinUsageTime DBP (§5):
// a span-minimizing scheduler fixes start times online, a packing policy
// places each job on a server when it starts, and we account total server
// usage time.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dbp/simulator.h"
#include "sim/scheduler.h"

namespace fjs {

struct PipelineResult {
  std::string scheduler;
  std::string packer;
  Time span;
  DbpResult packing;
  /// usage / certified lower bound: upper estimate of the pipeline's
  /// usage-time competitive ratio on this instance.
  double usage_ratio_upper = 0.0;
};

/// Runs scheduler (by registry key) then packer over the instance.
PipelineResult run_pipeline(InstanceView instance,
                            const std::vector<double>& sizes,
                            const std::string& scheduler_key, Packer& packer,
                            double capacity = 1.0);

/// All standard packers, in presentation order.
std::vector<std::unique_ptr<Packer>> make_standard_packers();

}  // namespace fjs
