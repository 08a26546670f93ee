// Columnar (SoA) job storage and the non-owning view over it.
//
// JobTable holds the three job columns (arrival, deadline, length) as
// parallel vectors indexed by JobId. InstanceView is a std::span-based
// window onto those columns: every heavy consumer (engine lowering, the
// offline bounds, the exact-solver pre-pass, the miner's candidate
// evaluation) reads jobs through a view, so a table patched in place
// can be evaluated without materializing an owning Instance.
//
// Lifetime rule: a view never outlives the columns it was taken from,
// and any growth of the table (push_back / reserve beyond capacity)
// invalidates existing views. In-place `set`/`restore` keep views valid
// — that is what the miner's mutate-evaluate-undo loop relies on.
// See docs/DATA_MODEL.md for the full aliasing and undo protocol.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/job.h"
#include "support/assert.h"

namespace fjs {

/// Non-owning, read-only view of a job table (or of any three equal-length
/// columns). Accessors are unchecked in release builds (FJS_DASSERT only):
/// this is the innermost read path of the exact solver and the engine, and
/// the owning Instance has already validated every row.
class InstanceView {
 public:
  InstanceView() = default;
  InstanceView(std::span<const Time> arrivals, std::span<const Time> deadlines,
               std::span<const Time> lengths)
      : arrivals_(arrivals), deadlines_(deadlines), lengths_(lengths) {
    FJS_REQUIRE(arrivals_.size() == deadlines_.size() &&
                    arrivals_.size() == lengths_.size(),
                "InstanceView: column lengths disagree");
  }

  std::size_t size() const { return arrivals_.size(); }
  bool empty() const { return arrivals_.empty(); }

  Time arrival(JobId id) const {
    FJS_DASSERT(id < arrivals_.size(), "InstanceView: job id out of range");
    return arrivals_[id];
  }
  Time deadline(JobId id) const {
    FJS_DASSERT(id < deadlines_.size(), "InstanceView: job id out of range");
    return deadlines_[id];
  }
  Time length(JobId id) const {
    FJS_DASSERT(id < lengths_.size(), "InstanceView: job id out of range");
    return lengths_[id];
  }

  /// Assembles the row as a Job (by value; the columns stay SoA).
  Job job(JobId id) const {
    FJS_DASSERT(id < arrivals_.size(), "InstanceView: job id out of range");
    return Job{.id = id,
               .arrival = arrivals_[id],
               .deadline = deadlines_[id],
               .length = lengths_[id]};
  }

  std::span<const Time> arrivals() const { return arrivals_; }
  std::span<const Time> deadlines() const { return deadlines_; }
  std::span<const Time> lengths() const { return lengths_; }

  /// Row iteration: yields each row assembled as a Job (by value). Keeps
  /// range-for ergonomics over the columnar storage:
  ///   for (const Job& j : instance.view().jobs()) { ... }
  class JobIterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Job;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Job;

    JobIterator() = default;
    JobIterator(const InstanceView* view, JobId id) : view_(view), id_(id) {}

    Job operator*() const { return view_->job(id_); }
    JobIterator& operator++() {
      ++id_;
      return *this;
    }
    JobIterator operator++(int) {
      JobIterator old = *this;
      ++id_;
      return old;
    }
    bool operator==(const JobIterator& other) const {
      return id_ == other.id_;
    }

   private:
    const InstanceView* view_ = nullptr;
    JobId id_ = 0;
  };

  /// Iterable over the rows (defined after the class; the range copies
  /// the view's spans, so it is valid wherever the view itself is).
  class JobRange jobs() const;

  /// μ = max p / min p (≥ 1). Requires a non-empty view.
  double mu() const;

  Time min_length() const;
  Time max_length() const;

  /// Σ p(J). Checked addition: throws AssertionError on overflow.
  Time total_work() const;

  /// Σ p(J) with saturation instead of throwing; sets *overflowed (when
  /// non-null) iff the exact sum is not representable.
  Time total_work_saturating(bool* overflowed = nullptr) const;

  /// Earliest arrival across jobs. Requires non-empty.
  Time earliest_arrival() const;

  /// max over jobs of d(J) + p(J). Overflow-free for validated tables
  /// (the Instance invariant is d + p ≤ Time::max()); uses checked
  /// addition so an unvalidated scratch buffer still fails loudly.
  Time latest_completion() const;

  /// Job ids sorted by (arrival, id) / (deadline, id). The out-param
  /// overloads reuse the caller's buffer (no steady-state allocation).
  std::vector<JobId> ids_by_arrival() const;
  std::vector<JobId> ids_by_deadline() const;
  void ids_by_arrival(std::vector<JobId>& out) const;
  void ids_by_deadline(std::vector<JobId>& out) const;

  /// True iff arrivals are non-decreasing in id order — the replay fast
  /// path shared by StaticSource and PreparedInstance.
  bool sorted_by_arrival() const;

  /// True iff every arrival/deadline/length is a multiple of `quantum`
  /// ticks — precondition of the exact offline solver.
  bool is_multiple_of(Time quantum) const;

  /// Full per-row validation (job valid, d + p representable). Throws
  /// AssertionError on the first bad row. The Instance constructor runs
  /// this once; scratch buffers may call it explicitly when needed.
  void validate() const;

  /// Human-readable listing (one job per line).
  std::string to_string() const;

 private:
  std::span<const Time> arrivals_;
  std::span<const Time> deadlines_;
  std::span<const Time> lengths_;
};

/// Row range over an InstanceView — see InstanceView::jobs().
class JobRange {
 public:
  explicit JobRange(InstanceView view) : view_(view) {}
  InstanceView::JobIterator begin() const {
    return InstanceView::JobIterator(&view_, 0);
  }
  InstanceView::JobIterator end() const {
    return InstanceView::JobIterator(&view_,
                                     static_cast<JobId>(view_.size()));
  }

 private:
  InstanceView view_;
};

inline JobRange InstanceView::jobs() const { return JobRange(*this); }

/// Owning SoA storage for jobs. The mutable counterpart of InstanceView:
/// generators and the fuzz shrinker emit rows directly into a JobTable,
/// and the miner mutates rows in place with undo records.
class JobTable {
 public:
  JobTable() = default;

  /// AoS bridge: consumes a job vector (ids are ignored; rows keep the
  /// vector's order, so row i becomes JobId i).
  explicit JobTable(const std::vector<Job>& jobs);

  /// Deep-copies the columns behind a view (e.g. to materialize an owning
  /// Instance from a scratch buffer).
  explicit JobTable(InstanceView view);

  std::size_t size() const { return arrival_.size(); }
  bool empty() const { return arrival_.empty(); }

  void clear() {
    arrival_.clear();
    deadline_.clear();
    length_.clear();
  }

  void reserve(std::size_t n) {
    arrival_.reserve(n);
    deadline_.reserve(n);
    length_.reserve(n);
  }

  void push_back(Time arrival, Time deadline, Time length) {
    arrival_.push_back(arrival);
    deadline_.push_back(deadline);
    length_.push_back(length);
  }

  void push_back(const Job& job) {
    push_back(job.arrival, job.deadline, job.length);
  }

  Job job(JobId id) const {
    FJS_DASSERT(id < arrival_.size(), "JobTable: job id out of range");
    return Job{.id = id,
               .arrival = arrival_[id],
               .deadline = deadline_[id],
               .length = length_[id]};
  }

  /// Overwrites one row in place. Views over this table stay valid and
  /// observe the new values (no reallocation happens).
  void set(JobId id, Time arrival, Time deadline, Time length) {
    FJS_DASSERT(id < arrival_.size(), "JobTable: job id out of range");
    arrival_[id] = arrival;
    deadline_[id] = deadline;
    length_[id] = length;
  }

  /// One-row undo record for the mutate-evaluate-restore loop.
  struct Undo {
    JobId id = kInvalidJob;
    Time arrival;
    Time deadline;
    Time length;
  };

  /// Captures row `id` before an in-place mutation.
  Undo undo_record(JobId id) const {
    FJS_DASSERT(id < arrival_.size(), "JobTable: job id out of range");
    return Undo{id, arrival_[id], deadline_[id], length_[id]};
  }

  /// Restores the row captured by `undo_record`.
  void restore(const Undo& undo) {
    set(undo.id, undo.arrival, undo.deadline, undo.length);
  }

  std::span<const Time> arrivals() const { return arrival_; }
  std::span<const Time> deadlines() const { return deadline_; }
  std::span<const Time> lengths() const { return length_; }

  InstanceView view() const {
    return InstanceView(arrivals(), deadlines(), lengths());
  }

 private:
  std::vector<Time> arrival_;
  std::vector<Time> deadline_;
  std::vector<Time> length_;
};

}  // namespace fjs
