// Descriptive statistics of an instance plus the paper's a-priori
// guarantees for it — what a user wants to see before choosing a
// scheduler. Used by fjs_cli.
#pragma once

#include <string>

#include "core/instance.h"
#include "support/stats.h"

namespace fjs {

struct InstanceStats {
  std::size_t jobs = 0;
  double mu = 1.0;             ///< max/min length ratio
  Summary lengths;             ///< in units
  Summary laxities;            ///< in units
  Summary laxity_over_length;  ///< laxity expressed in job lengths
  Time total_work;
  Time arrival_horizon;        ///< last arrival − first arrival
  /// total work / (latest completion − earliest arrival): offered load.
  double load_factor = 0.0;
  /// Fraction of jobs with zero laxity (rigid).
  double rigid_fraction = 0.0;

  std::string to_string() const;
};

InstanceStats compute_instance_stats(InstanceView view);

/// The paper's worst-case guarantees evaluated for this instance's μ:
/// one line per scheduler ("batch+: span <= (mu+1)·OPT = 5.0·OPT", ...).
std::string guarantee_table(const Instance& instance);

}  // namespace fjs
