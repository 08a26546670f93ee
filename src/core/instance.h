// A scheduling instance: an immutable set of jobs plus derived quantities
// (μ, total work) used throughout the analysis.
//
// Storage is columnar (core/job_table.h); Instance is a thin validated
// owner. Derived stats are computed once at construction; per-job access
// goes through job() (checked) or view() (unchecked columns, the hot
// path of the engine / exact solver / miner).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/job.h"
#include "core/job_table.h"
#include "support/assert.h"

namespace fjs {

/// An FJS problem instance. Jobs are stored by id (dense, 0-based).
class Instance {
 public:
  Instance() = default;

  /// Takes ownership of jobs; assigns ids 0..n-1 in the given order and
  /// validates every job (throws AssertionError otherwise).
  explicit Instance(std::vector<Job> jobs);

  /// Takes ownership of a columnar table; validates every row.
  explicit Instance(JobTable table);

  std::size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }

  /// Checked single-job lookup (returns by value: storage is columnar).
  /// Hot loops should hoist a view() instead — its accessors skip the
  /// range check in release builds.
  Job job(JobId id) const {
    FJS_REQUIRE(id < table_.size(), "Instance: job id out of range");
    return table_.job(id);
  }

  /// Non-owning columnar view; valid while this Instance is alive.
  InstanceView view() const { return table_.view(); }

  /// Every algorithm reads rows through an InstanceView, so an Instance
  /// passes wherever a view is expected. Lvalues only: a view of a
  /// temporary would dangle once the full expression ends.
  operator InstanceView() const& { return view(); }
  operator InstanceView() const&& = delete;

  const JobTable& table() const { return table_; }

  /// μ = max p / min p (≥ 1). Requires a non-empty instance.
  double mu() const {
    FJS_REQUIRE(!empty(), "mu of empty instance");
    return mu_;
  }

  Time min_length() const {
    FJS_REQUIRE(!empty(), "min_length of empty instance");
    return min_length_;
  }
  Time max_length() const {
    FJS_REQUIRE(!empty(), "max_length of empty instance");
    return max_length_;
  }

  /// Σ p(J). Throws AssertionError if the sum overflows (adversarial
  /// instances can be huge); the overflow is detected at construction
  /// but reported here, so near-Time::max() instances still construct.
  Time total_work() const {
    FJS_REQUIRE(!total_work_overflow_, "Time::checked_add overflow");
    return total_work_;
  }

  /// Earliest arrival across jobs. Requires non-empty.
  Time earliest_arrival() const {
    FJS_REQUIRE(!empty(), "earliest_arrival of empty instance");
    return earliest_arrival_;
  }

  /// max over jobs of d(J) + p(J): horizon containing any valid schedule.
  Time latest_completion() const {
    FJS_REQUIRE(!empty(), "latest_completion of empty instance");
    return latest_completion_;
  }

  /// Job ids sorted by (arrival, id).
  std::vector<JobId> ids_by_arrival() const { return view().ids_by_arrival(); }
  /// Job ids sorted by (deadline, id).
  std::vector<JobId> ids_by_deadline() const {
    return view().ids_by_deadline();
  }

  /// True iff every arrival/deadline/length is a multiple of `quantum`
  /// ticks — precondition of the exact offline solver.
  bool is_multiple_of(Time quantum) const {
    return view().is_multiple_of(quantum);
  }

  /// Human-readable listing (one job per line).
  std::string to_string() const { return view().to_string(); }

  /// Plain-text serialization: "a d p" per line, in units of
  /// Time::kTicksPerUnit. Round-trips through parse().
  void write(std::ostream& os) const;
  static Instance parse(std::istream& is);

 private:
  void validate_and_cache();

  JobTable table_;
  // Derived stats, computed once by validate_and_cache(). Meaningful only
  // for non-empty instances (the accessors enforce that).
  double mu_ = 1.0;
  Time min_length_;
  Time max_length_;
  Time earliest_arrival_;
  Time latest_completion_;
  Time total_work_;
  bool total_work_overflow_ = false;
};

/// Fluent builder for tests/examples: accepts real-valued unit times.
///
///   Instance inst = InstanceBuilder()
///       .add(0.0, 0.0, 1.0)     // arrival, start-deadline, length
///       .add(0.5, 2.0, 3.0)
///       .build();
class InstanceBuilder {
 public:
  /// Adds a job from unit-valued times (converted to ticks).
  InstanceBuilder& add(double arrival, double deadline, double length);

  /// Adds a job from tick-valued times.
  InstanceBuilder& add_ticks(Time arrival, Time deadline, Time length);

  /// Adds a job from arrival + laxity instead of an absolute deadline.
  InstanceBuilder& add_lax(double arrival, double laxity, double length);

  std::size_t size() const { return table_.size(); }

  Instance build();

 private:
  JobTable table_;
};

}  // namespace fjs
