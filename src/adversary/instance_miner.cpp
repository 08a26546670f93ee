#include "adversary/instance_miner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "core/job_table.h"
#include "offline/exact.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/portfolio.h"
#include "support/assert.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace fjs {
namespace {

// Miner telemetry: totals across every mine on any thread, added once when
// a mine returns (never per candidate). Evaluation and memo counts are a
// function of the seed/options (deterministic); which thread ran a mine is
// not, but sums don't care. miner.evaluations counts objective calls.
telemetry::Counter g_tm_evaluations{"miner.evaluations",
                                    telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_memo_hits{"miner.memo_hits",
                                  telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_budget_skips{"miner.budget_skips",
                                     telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_screen_rejects{"miner.screen_rejects",
                                       telemetry::Stability::kDeterministic};

void random_table(Rng& rng, const MinerOptions& options, JobTable& table) {
  table.clear();
  table.reserve(options.jobs);
  for (std::size_t i = 0; i < options.jobs; ++i) {
    const auto a = static_cast<double>(rng.uniform_int(0, options.horizon));
    const auto lax =
        static_cast<double>(rng.uniform_int(0, options.max_laxity));
    const auto p = static_cast<double>(rng.uniform_int(1, options.max_length));
    table.push_back(Time::from_units(a), Time::from_units(a + lax),
                    Time::from_units(p));
  }
}

/// A hill-climbing move: the NEW row values for `victim`. Patches never
/// copy the incumbent — they are applied to it in place at evaluation time
/// and undone right after, so a round performs no per-candidate copy and
/// re-validates nothing (mutations keep every row valid by clamping).
struct Patch {
  JobId victim = kInvalidJob;
  Time arrival;
  Time deadline;
  Time length;
};

/// One unit-grained tweak of a random job's arrival, laxity or length,
/// recorded as a patch (the parent table is not touched).
Patch mutate(const JobTable& parent, Rng& rng, const MinerOptions& options) {
  const auto victim = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(parent.size()) - 1));
  Job j = parent.job(static_cast<JobId>(victim));
  const Time unit(Time::kTicksPerUnit);
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // move arrival (preserving laxity)
      const Time lax = j.laxity();
      const std::int64_t delta = rng.bernoulli(0.5) ? 1 : -1;
      Time arrival = j.arrival + unit * delta;
      arrival = std::max(Time::zero(),
                         std::min(arrival, Time::from_units(
                                               static_cast<double>(
                                                   options.horizon))));
      j.arrival = arrival;
      j.deadline = arrival + lax;
      break;
    }
    case 1: {  // grow/shrink laxity
      const std::int64_t delta = rng.bernoulli(0.5) ? 1 : -1;
      Time lax = j.laxity() + unit * delta;
      lax = std::max(Time::zero(),
                     std::min(lax, Time::from_units(static_cast<double>(
                                       options.max_laxity))));
      j.deadline = j.arrival + lax;
      break;
    }
    case 2: {  // grow/shrink length
      const std::int64_t delta = rng.bernoulli(0.5) ? 1 : -1;
      Time p = j.length + unit * delta;
      p = std::max(unit, std::min(p, Time::from_units(static_cast<double>(
                                         options.max_length))));
      j.length = p;
      break;
    }
    default: {  // re-roll the job entirely
      const auto a = static_cast<double>(rng.uniform_int(0, options.horizon));
      const auto lax =
          static_cast<double>(rng.uniform_int(0, options.max_laxity));
      const auto p =
          static_cast<double>(rng.uniform_int(1, options.max_length));
      j.arrival = Time::from_units(a);
      j.deadline = Time::from_units(a + lax);
      j.length = Time::from_units(p);
      break;
    }
  }
  return Patch{static_cast<JobId>(victim), j.arrival, j.deadline, j.length};
}

/// Memo key: the exact job list in tick units. Mutations preserve job
/// order, so revisited candidates (the common case in hill climbing) hit;
/// permuted duplicates are treated as distinct, which only costs a call.
using MemoKey = std::vector<std::int64_t>;

struct MemoKeyHash {
  std::size_t operator()(const MemoKey& key) const {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const std::int64_t v : key) {
      h ^= static_cast<std::uint64_t>(v) + 0x9E3779B97F4A7C15ULL + (h << 6) +
           (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

using ViewObjective = std::function<double(InstanceView, double threshold)>;

/// Scores candidates one at a time: memo lookup, then the LB pre-screen,
/// then the objective. Serial and owned by one mine, so a mine's result is
/// a pure function of its options however many mines run concurrently.
class Evaluator {
 public:
  Evaluator(const ViewObjective& objective, bool screen)
      : objective_(objective), screen_(screen) {}

  /// Value of the candidate `view` under the batch's frozen `threshold`.
  double value(InstanceView view, double threshold) {
    // One hash walk per candidate: try_emplace reserves the cell for a
    // miss (so a duplicate later in the batch is a hit) and finds it for
    // a hit.
    key_.clear();
    for (JobId id = 0; id < view.size(); ++id) {
      key_.push_back(view.arrival(id).ticks());
      key_.push_back(view.deadline(id).ticks());
      key_.push_back(view.length(id).ticks());
    }
    const auto [it, inserted] = memo_.try_emplace(key_, 0.0);
    if (!inserted) {
      ++memo_hits_;
      return it->second;
    }
    if (screen_ && threshold > 0.0 && screened(view, threshold, it->second)) {
      ++screen_rejects_;
      return it->second;
    }
    it->second = objective_(view, threshold);
    return it->second;
  }

  std::size_t memo_hits() const { return memo_hits_; }
  std::size_t screen_rejects() const { return screen_rejects_; }

 private:
  /// The pre-screen (MinerOptions::screen_lb_precut). One pass over the
  /// rows reduces min arrival, max saturated d + p, max length and
  /// saturating total length. Any engine schedule runs inside
  /// [min a, max d+p), every busy instant runs at least one job (so
  /// span <= sum p too), and OPT >= max p; hence
  /// ratio_ub = min(max_dp - min_a, sum_p) / max_p bounds span/OPT from
  /// above. ratio_ub <= threshold settles the candidate at ratio_ub
  /// (always unselectable under the non-decreasing threshold — see the
  /// header contract) and returns true.
  static bool screened(InstanceView view, double threshold, double& value) {
    Time min_a = Time::max();
    Time max_dp = Time::min();
    Time max_p = Time::min();
    Time sum_p = Time::zero();
    for (JobId id = 0; id < view.size(); ++id) {
      const Time p = view.length(id);
      min_a = std::min(min_a, view.arrival(id));
      max_dp = std::max(max_dp, view.deadline(id).saturating_add(p));
      max_p = std::max(max_p, p);
      sum_p = sum_p.saturating_add(p);
    }
    std::int64_t horizon = 0;
    const bool bounded =
        max_p > Time::zero() && sum_p > Time::zero() &&
        !__builtin_sub_overflow(max_dp.ticks(), min_a.ticks(), &horizon) &&
        horizon > 0;
    if (!bounded) {
      return false;
    }
    const double ratio_ub = time_ratio(std::min(Time(horizon), sum_p), max_p);
    if (ratio_ub > threshold) {
      return false;
    }
    value = ratio_ub;
    return true;
  }

  const ViewObjective& objective_;
  const bool screen_;
  std::unordered_map<MemoKey, double, MemoKeyHash> memo_;
  MemoKey key_;  // reused per candidate; copied only on insert
  std::size_t memo_hits_ = 0;
  std::size_t screen_rejects_ = 0;
};

}  // namespace

MinerResult mine_instance(
    const std::function<double(InstanceView, double)>& objective,
    MinerOptions options) {
  FJS_REQUIRE(options.population >= 1, "miner: population must be >= 1");
  FJS_REQUIRE(options.jobs >= 1, "miner: jobs must be >= 1");
  Rng rng(options.seed);
  MinerResult result;
  Evaluator evaluator(objective, options.screen_lb_precut);

  // The incumbent lives as a bare JobTable: a patch candidate is applied
  // to it in place, evaluated through its view and undone; an accepted
  // patch is one row store. An owning Instance is materialized only once,
  // for the final mined result.
  JobTable parent;

  // Seeding round, in fixed sub-batches with a progressively rising
  // threshold: each sub-batch's threshold is the running max before it,
  // so most seeds settle on a cheap bound instead of a full certification.
  // Trajectory-preserving: every settled value is at most its threshold,
  // i.e. at most the max of some earlier prefix, so it can neither become
  // the first occurrence of the global max nor displace it under the
  // strict-> running-max selection below — the selected seed and
  // trajectory[0] are those of an exact-only evaluation.
  constexpr std::size_t kSeedChunk = 8;
  double best_ratio = 0.0;
  bool have_best = false;
  JobTable seed;
  for (std::size_t seeded = 0; seeded < options.population;
       seeded += kSeedChunk) {
    const double threshold = have_best ? best_ratio : 0.0;
    const std::size_t count =
        std::min(kSeedChunk, options.population - seeded);
    for (std::size_t i = 0; i < count; ++i) {
      random_table(rng, options, seed);
      const double value = evaluator.value(seed.view(), threshold);
      if (!have_best || value > best_ratio) {
        best_ratio = value;
        have_best = true;
        std::swap(parent, seed);
      }
    }
    result.evaluations += count;
  }
  result.trajectory.push_back(best_ratio);

  // Hill climbing. Every mutation of a round is drawn against the same
  // incumbent (each evaluation restores it), and the first strict
  // improvement over the round's best is adopted after the round.
  for (std::size_t round = 0; round < options.rounds; ++round) {
    // Freeze the threshold at the incumbent before the round: a candidate
    // that cannot beat it may be settled cheaply (see header contract),
    // and the threshold only ever grows, which keeps memoized settled
    // values unselectable in every later round.
    const double threshold = best_ratio;
    double round_ratio = best_ratio;
    Patch pick;
    for (std::size_t m = 0; m < options.mutations_per_round; ++m) {
      const Patch patch = mutate(parent, rng, options);
      const JobTable::Undo undo = parent.undo_record(patch.victim);
      parent.set(patch.victim, patch.arrival, patch.deadline, patch.length);
      const double value = evaluator.value(parent.view(), threshold);
      parent.restore(undo);
      if (value > round_ratio) {
        round_ratio = value;
        pick = patch;
      }
    }
    result.evaluations += options.mutations_per_round;
    if (pick.victim != kInvalidJob) {
      parent.set(pick.victim, pick.arrival, pick.deadline, pick.length);
      best_ratio = round_ratio;
    }
    result.trajectory.push_back(best_ratio);
  }

  // The one owning materialization of the whole mine (validates once).
  result.worst_instance = Instance(std::move(parent));
  result.worst_ratio = best_ratio;
  result.memo_hits = evaluator.memo_hits();
  result.screen_rejects = evaluator.screen_rejects();
  g_tm_memo_hits.add(result.memo_hits);
  g_tm_screen_rejects.add(result.screen_rejects);
  g_tm_evaluations.add(result.evaluations - result.memo_hits -
                       result.screen_rejects);
  return result;
}

MinerResult mine_worst_case(const std::string& scheduler_key,
                            MinerOptions options) {
  // Replay state owned by this mine: the portfolio runner amortizes engine
  // setup across candidates, and the engine reset()s the scheduler before
  // each replay.
  const auto scheduler = make_scheduler(scheduler_key);
  const PortfolioEntry entry{scheduler.get(),
                             scheduler->requires_clairvoyance()};
  PortfolioRunner runner;
  std::size_t budget_skips = 0;
  // This objective is span/OPT: the LB pre-screen's span-free
  // upper bound is sound for it (and for no arbitrary mine_instance
  // objective), so opt in here.
  options.screen_lb_precut = true;
  MinerResult result = mine_instance(
      [&](InstanceView view, double threshold) {
        const Time span = runner.run_span(view, entry);
        // Pre-certification cut: span/lower_bound upper-bounds the true
        // ratio. When even that cannot beat the incumbent, settle the
        // candidate without certifying OPT — the dominant cost here by far
        // (the thresholded-objective contract makes this value-safe: any
        // settled value <= the frozen threshold is never selectable, so
        // which certified bound produced it cannot change a trajectory).
        // Staged cheapest-first: max-length is free, the mandatory union
        // costs an IntervalSet, the chain bound a Pareto map — later
        // stages only run when the cheaper bound failed to settle.
        if (threshold > 0.0) {
          Time lb = max_length_lower_bound(view);
          if (lb > Time::zero() && time_ratio(span, lb) <= threshold) {
            return time_ratio(span, lb);
          }
          lb = std::max(lb, mandatory_lower_bound(view));
          if (lb > Time::zero() && time_ratio(span, lb) <= threshold) {
            return time_ratio(span, lb);
          }
          lb = std::max(lb, chain_lower_bound(view));
          if (lb > Time::zero() && time_ratio(span, lb) <= threshold) {
            return time_ratio(span, lb);
          }
        }
        // At mining sizes the heuristic incumbent costs more than the whole
        // branch-and-bound, and a budget-exceeded candidate is discarded
        // anyway — skip the seeding pass. The online run's span is a free
        // feasible incumbent, and span_only skips witness-schedule
        // construction and reconstruction (only the ratio is needed here).
        ExactOptions exact_options;
        exact_options.seed_with_heuristic = false;
        exact_options.span_only = true;
        exact_options.seed_span = span;
        if (threshold > 0.0) {
          // Decision floor: the candidate beats the incumbent iff
          // OPT < span/threshold, so the solver may stop at the floor
          // instead of certifying OPT. Integer-safe rounding: the floor
          // must satisfy span/floor <= threshold or the settled value
          // could become selectable.
          auto floor_ticks = static_cast<std::int64_t>(
              std::ceil(static_cast<double>(span.ticks()) / threshold));
          while (floor_ticks > 0 &&
                 time_ratio(span, Time(floor_ticks)) > threshold) {
            ++floor_ticks;
          }
          exact_options.decision_floor = Time(floor_ticks);
        }
        const ExactResult opt = exact_optimal(view, exact_options);
        if (opt.status == ExactStatus::kFloorProven) {
          // OPT >= floor proven: ratio <= span/floor <= threshold, so the
          // candidate can never be selected — settle it with that bound.
          return time_ratio(span, exact_options.decision_floor);
        }
        if (!opt.optimal()) {
          // Uncertifiable candidate: discard it instead of aborting the
          // whole mine — a ratio of 0 never survives selection.
          ++budget_skips;
          return 0.0;
        }
        return time_ratio(span, opt.span);
      },
      options);
  result.budget_skips = budget_skips;
  g_tm_budget_skips.add(budget_skips);
  return result;
}

}  // namespace fjs
