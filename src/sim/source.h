// Job sources: where the simulated jobs come from.
//
// A static source replays a fixed Instance. An adaptive source implements
// the paper's adversaries: it observes the online scheduler's actions
// (starts/completions) and chooses future releases in response.
#pragma once

#include <optional>
#include <vector>

#include "core/instance.h"
#include "core/job.h"
#include "core/time.h"

namespace fjs {

/// A job release handed to the engine by a source. `length` is the true
/// processing length if the source knows it up front; std::nullopt defers
/// the decision to the LengthOracle (adaptive non-clairvoyant adversary).
struct JobSpec {
  Time arrival;
  Time deadline;
  std::optional<Time> length;
};

/// What a source may do in response to a notification: release more jobs
/// and/or ask to be woken at a later time.
struct SourceAction {
  std::vector<JobSpec> releases;
  std::optional<Time> wakeup;
};

/// Interface for (possibly adaptive) job sources. All hooks run at a
/// well-defined simulation time; released jobs must have
/// arrival >= that time.
class JobSource {
 public:
  virtual ~JobSource() = default;

  /// Called once before the simulation starts.
  virtual SourceAction begin() = 0;

  /// The online scheduler started job `id` at time `now`.
  virtual SourceAction on_start(JobId id, Time now) {
    (void)id;
    (void)now;
    return {};
  }

  /// Job `id` completed at time `now` (its realized length is known).
  virtual SourceAction on_complete(JobId id, Time now) {
    (void)id;
    (void)now;
    return {};
  }

  /// A wakeup requested via SourceAction::wakeup fired.
  virtual SourceAction on_wakeup(Time now) {
    (void)now;
    return {};
  }
};

/// Replays the jobs of a fixed Instance (lengths known up front) through
/// the engine's release path. Fixed instances are simulated through
/// PortfolioRunner (sim/portfolio.h); this source is the release-path
/// reference that tests and the fuzz oracles compare that replay against.
class StaticSource final : public JobSource {
 public:
  explicit StaticSource(const Instance& instance);

  SourceAction begin() override;

 private:
  std::vector<JobSpec> specs_;
};

}  // namespace fjs
