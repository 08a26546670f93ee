#include "adversary/instance_miner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/job_table.h"
#include "offline/exact.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/portfolio.h"
#include "support/assert.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"

namespace fjs {
namespace {

// Miner telemetry: totals across every mine on any thread. Evaluation and
// memo counts are a function of the seed/options (deterministic); which
// thread performed them is not, but sums don't care.
telemetry::Counter g_tm_evaluations{"miner.evaluations",
                                    telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_memo_hits{"miner.memo_hits",
                                  telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_budget_skips{"miner.budget_skips",
                                     telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_screen_rejects{"miner.screen_rejects",
                                       telemetry::Stability::kDeterministic};

}  // namespace

namespace {

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

/// One candidate: either a fresh seed table or a single-row patch against
/// the round's shared parent table. Patches never copy the parent — they
/// are applied to a per-thread scratch table at evaluation time and undone
/// right after, so a hill-climbing round performs no per-candidate copy
/// and re-validates nothing (mutations keep every row valid by clamping).
struct Candidate {
  bool is_seed = false;
  JobTable table;  ///< seeds only; empty for patches
  // Patch payload: the NEW row values for `victim`.
  JobId victim = kInvalidJob;
  Time arrival;
  Time deadline;
  Time length;
};

/// One unit-grained tweak of a random job's arrival, laxity or length,
/// recorded as a patch (the parent table is not touched).
Candidate mutate(const JobTable& parent, Rng& rng,
                 const MinerOptions& options) {
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
  Candidate c;
  c.victim = static_cast<JobId>(victim);
  c.arrival = j.arrival;
  c.deadline = j.deadline;
  c.length = j.length;
  return c;
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

/// Builds the candidate's job list without materializing it: seed tables
/// are read directly, patches read the parent with the victim row swapped.
void fill_memo_key(const JobTable& parent, const Candidate& c, MemoKey& key) {
  key.clear();
  const InstanceView v = c.is_seed ? c.table.view() : parent.view();
  key.reserve(v.size() * 3);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto id = static_cast<JobId>(i);
    if (!c.is_seed && id == c.victim) {
      key.push_back(c.arrival.ticks());
      key.push_back(c.deadline.ticks());
      key.push_back(c.length.ticks());
    } else {
      key.push_back(v.arrival(id).ticks());
      key.push_back(v.deadline(id).ticks());
      key.push_back(v.length(id).ticks());
    }
  }
}

using ViewObjective = std::function<double(InstanceView, double threshold)>;

/// Monotone batch stamp: each evaluate() call gets a globally unique epoch
/// so a worker's thread-local scratch table knows when to resync with the
/// batch's parent (unique across concurrent mines sharing a pool).
std::atomic<std::uint64_t> g_scratch_epoch{0};

/// Evaluates candidate batches: dedupes against the memo, runs the misses
/// through parallel_map when a pool is attached, and hands values back in
/// proposal order. Deterministic for any thread count because candidate
/// order is fixed before evaluation, the threshold is frozen per batch,
/// and the objective is deterministic.
///
/// Patch candidates are served from a per-thread scratch JobTable: copied
/// from the parent once per (thread, batch), then mutate → evaluate over
/// the scratch view → restore, so the steady state allocates nothing and
/// no Instance is ever materialized for a rejected candidate.
class BatchEvaluator {
 public:
  BatchEvaluator(const ViewObjective& objective,
                 const MinerOptions& options)
      : objective_(objective), options_(options) {}

  std::vector<double> evaluate(const JobTable& parent,
                               const std::vector<Candidate>& batch,
                               double threshold) {
    epoch_ = g_scratch_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
    std::vector<std::size_t> misses;  // first occurrence of each unknown key
    misses.reserve(batch.size());
    std::vector<double*> slots;  // memo cell per candidate; stable under
                                 // rehash (unordered_map nodes don't move)
    if (options_.use_objective_memo) {
      slots.resize(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        // One hash walk per candidate: try_emplace reserves the cell for a
        // miss (so an intra-batch duplicate is a hit) and finds it for a
        // hit; both paths hand back the cell the fill/read below uses.
        fill_memo_key(parent, batch[i], key_scratch_);
        const auto [it, inserted] = memo_.try_emplace(key_scratch_, kPending);
        slots[i] = &it->second;
        if (inserted) {
          misses.push_back(i);
        }
      }
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        misses.push_back(i);
      }
    }
    std::vector<double> values(batch.size(), kPending);
    // LB pre-screen: every memo-missed candidate whose span-free ratio
    // upper bound cannot beat the frozen threshold is settled here, before
    // a single simulation is dispatched. Serial on the calling
    // thread — the survivor list (and every settled value) is the same
    // for any pool size.
    const std::vector<std::size_t>& eval_list =
        screen(parent, batch, misses, threshold, values, slots);
    std::vector<double> fresh;
    if (options_.pool != nullptr && options_.pool->thread_count() > 1 &&
        eval_list.size() > 1) {
      fresh = parallel_map(
          *options_.pool, eval_list.size(),
          [&, threshold](std::size_t m) {
            return eval_one(parent, batch[eval_list[m]], threshold);
          });
    } else {
      fresh.reserve(eval_list.size());
      for (const std::size_t m : eval_list) {
        fresh.push_back(eval_one(parent, batch[m], threshold));
      }
    }
    if (!options_.use_objective_memo) {
      for (std::size_t m = 0; m < eval_list.size(); ++m) {
        values[eval_list[m]] = fresh[m];
      }
      return values;
    }
    for (std::size_t m = 0; m < eval_list.size(); ++m) {
      *slots[eval_list[m]] = fresh[m];
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      values[i] = *slots[i];
    }
    memo_hits_ += batch.size() - misses.size();
    g_tm_memo_hits.add(batch.size() - misses.size());
    g_tm_evaluations.add(eval_list.size());
    return values;
  }

  std::size_t memo_hits() const { return memo_hits_; }
  std::size_t screen_rejects() const { return screen_rejects_; }

 private:
  static constexpr double kPending = 0.0;  // placeholder until filled above

  /// The pre-screen (MinerOptions::screen_lb_precut). One pass over each
  /// memo miss's rows (the parent's, with the victim row patched) reduces
  /// min arrival, max saturated d + p, max length and saturating total
  /// length. Any engine schedule runs inside [min a, max d+p), every busy
  /// instant runs at least one job (so span <= sum p too), and
  /// OPT >= max p; hence
  /// ratio_ub = min(max_dp - min_a, sum_p) / max_p bounds span/OPT from
  /// above. ratio_ub <= threshold settles the candidate at ratio_ub
  /// (always unselectable under the non-decreasing threshold — see the
  /// header contract); the rest survive into the returned evaluation list.
  /// Returns `misses` itself when screening is off or inapplicable.
  const std::vector<std::size_t>& screen(const JobTable& parent,
                                         const std::vector<Candidate>& batch,
                                         const std::vector<std::size_t>& misses,
                                         double threshold,
                                         std::vector<double>& values,
                                         const std::vector<double*>& slots) {
    if (!options_.screen_lb_precut || threshold <= 0.0 || misses.empty()) {
      return misses;
    }
    const auto row_count = [&](std::size_t i) {
      return batch[i].is_seed ? batch[i].table.size() : parent.size();
    };
    const std::size_t rows = row_count(misses[0]);
    if (rows == 0) {
      return misses;
    }
    for (const std::size_t m : misses) {
      if (row_count(m) != rows) {
        return misses;  // batches mixing instance sizes are not screened
      }
    }
    survivors_.clear();
    for (const std::size_t i : misses) {
      const Candidate& c = batch[i];
      const InstanceView v = c.is_seed ? c.table.view() : parent.view();
      Time min_a = Time::max();
      Time max_dp = Time::min();
      Time max_p = Time::min();
      Time sum_p = Time::zero();
      for (JobId id = 0; id < rows; ++id) {
        const bool patched = !c.is_seed && id == c.victim;
        const Time a = patched ? c.arrival : v.arrival(id);
        const Time d = patched ? c.deadline : v.deadline(id);
        const Time p = patched ? c.length : v.length(id);
        min_a = std::min(min_a, a);
        max_dp = std::max(max_dp, d.saturating_add(p));
        max_p = std::max(max_p, p);
        sum_p = sum_p.saturating_add(p);
      }
      std::int64_t horizon = 0;
      const bool bounded =
          max_p > Time::zero() && sum_p > Time::zero() &&
          !__builtin_sub_overflow(max_dp.ticks(), min_a.ticks(), &horizon) &&
          horizon > 0;
      if (bounded) {
        const double ratio_ub =
            time_ratio(std::min(Time(horizon), sum_p), max_p);
        if (ratio_ub <= threshold) {
          values[i] = ratio_ub;
          if (options_.use_objective_memo) {
            *slots[i] = ratio_ub;
          }
          ++screen_rejects_;
          g_tm_screen_rejects.increment();
          continue;
        }
      }
      survivors_.push_back(i);
    }
    return survivors_;
  }

  double eval_one(const JobTable& parent, const Candidate& c,
                  double threshold) const {
    if (c.is_seed) {
      return objective_(c.table.view(), threshold);
    }
    // Scratch resyncs on the first patch of each batch this thread sees
    // (column assignment reuses capacity: no allocation at steady state).
    struct Scratch {
      std::uint64_t epoch = 0;
      JobTable table;
    };
    thread_local Scratch scratch;
    if (scratch.epoch != epoch_) {
      scratch.table = parent;
      scratch.epoch = epoch_;
    }
    const JobTable::Undo undo = scratch.table.undo_record(c.victim);
    scratch.table.set(c.victim, c.arrival, c.deadline, c.length);
    const double value = objective_(scratch.table.view(), threshold);
    scratch.table.restore(undo);
    return value;
  }

  const ViewObjective& objective_;
  const MinerOptions& options_;
  std::uint64_t epoch_ = 0;
  std::unordered_map<MemoKey, double, MemoKeyHash> memo_;
  MemoKey key_scratch_;  // reused per candidate; copied only on insert
  std::size_t memo_hits_ = 0;
  std::vector<std::size_t> survivors_;  // screen() output, capacity reused
  std::size_t screen_rejects_ = 0;
};

}  // namespace

MinerResult mine_instance(
    const std::function<double(const Instance&)>& objective,
    MinerOptions options) {
  // Bridge: materialize an owning Instance per fresh evaluation.
  // Objectives on the hot path take InstanceView instead.
  return mine_instance(
      ViewObjective([&objective](InstanceView view, double) {
        return objective(Instance(JobTable(view)));
      }),
      std::move(options));
}

MinerResult mine_instance(
    const std::function<double(InstanceView, double)>& objective,
    MinerOptions options) {
  FJS_REQUIRE(options.population >= 1, "miner: population must be >= 1");
  FJS_REQUIRE(options.jobs >= 1, "miner: jobs must be >= 1");
  Rng rng(options.seed);
  MinerResult result;
  BatchEvaluator evaluator(objective, options);

  // Candidates are generated serially — one RNG stream, same draw order as
  // the original interleaved miner — then evaluated as a batch. Picking the
  // first strict improvement in proposal order reproduces the original
  // running-max selection exactly, so trajectories are bit-identical to the
  // serial miner's for any pool size.
  //
  // The incumbent lives as a bare JobTable: accepted patches are applied
  // in place (one row store) and an owning Instance is materialized only
  // once, for the final mined result.
  JobTable parent;
  std::vector<Candidate> batch;
  batch.reserve(std::max(options.population, options.mutations_per_round));

  auto adopt = [&parent](Candidate& c) {
    if (c.is_seed) {
      parent = std::move(c.table);
    } else {
      parent.set(c.victim, c.arrival, c.deadline, c.length);
    }
  };

  // Seeding round, in fixed sub-batches with a progressively rising
  // threshold: after each sub-batch the running max becomes the next
  // sub-batch's threshold, so most seeds settle on a cheap bound instead of
  // a full certification. Trajectory-preserving: every settled value is at
  // most its threshold, i.e. at most the max of some earlier prefix, so it
  // can neither become the first occurrence of the global max nor displace
  // it under the strict-> running-max selection below — the selected seed
  // and trajectory[0] are identical to the single-batch evaluation. The
  // sub-batch size is a constant (not derived from the pool) so the chunk
  // boundaries, thresholds and therefore every value are the same for any
  // thread count.
  constexpr std::size_t kSeedChunk = 8;
  double best_ratio = 0.0;
  bool have_best = false;
  std::vector<double> values;
  for (std::size_t seeded = 0; seeded < options.population;
       seeded += kSeedChunk) {
    batch.clear();
    const std::size_t count =
        std::min(kSeedChunk, options.population - seeded);
    for (std::size_t i = 0; i < count; ++i) {
      Candidate c;
      c.is_seed = true;
      random_table(rng, options, c.table);
      batch.push_back(std::move(c));
    }
    values = evaluator.evaluate(parent, batch, have_best ? best_ratio : 0.0);
    result.evaluations += batch.size();
    // Deferred adoption of the running strict max — the surviving index is
    // the first occurrence of the sub-batch max, exactly what adopting
    // each improvement in turn would have left behind.
    std::size_t pick = count;
    for (std::size_t i = 0; i < count; ++i) {
      if (!have_best || values[i] > best_ratio) {
        best_ratio = values[i];
        have_best = true;
        pick = i;
      }
    }
    if (pick != count) {
      adopt(batch[pick]);
    }
  }
  result.trajectory.push_back(best_ratio);

  // Hill climbing.
  for (std::size_t round = 0; round < options.rounds; ++round) {
    batch.clear();
    for (std::size_t m = 0; m < options.mutations_per_round; ++m) {
      batch.push_back(mutate(parent, rng, options));
    }
    // Freeze the threshold at the incumbent before the batch: a candidate
    // that cannot beat it may be settled cheaply (see header contract),
    // and the threshold only ever grows, which keeps memoized settled
    // values unselectable in every later round.
    values = evaluator.evaluate(parent, batch, best_ratio);
    result.evaluations += batch.size();
    std::size_t pick = batch.size();
    double round_ratio = best_ratio;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (values[i] > round_ratio) {
        round_ratio = values[i];
        pick = i;
      }
    }
    if (pick != batch.size()) {
      adopt(batch[pick]);
      best_ratio = round_ratio;
    }
    result.trajectory.push_back(best_ratio);
  }

  // The one owning materialization of the whole mine (validates once).
  result.worst_instance = Instance(std::move(parent));
  result.worst_ratio = best_ratio;
  result.memo_hits = evaluator.memo_hits();
  result.screen_rejects = evaluator.screen_rejects();
  return result;
}

MinerResult mine_worst_case(const std::string& scheduler_key,
                            MinerOptions options) {
  const auto probe = make_scheduler(scheduler_key);
  const bool clairvoyant = probe->requires_clairvoyance();
  // This objective is span/OPT: the LB pre-screen's span-free
  // upper bound is sound for it (and for no arbitrary mine_instance
  // objective), so opt in here.
  options.screen_lb_precut = true;
  auto budget_skips = std::make_shared<std::atomic<std::size_t>>(0);
  MinerResult result = mine_instance(
      ViewObjective([&scheduler_key, clairvoyant, budget_skips](
                        InstanceView view, double threshold) {
        // Per-thread replay state: the portfolio runner amortizes engine
        // setup across candidates, and the scheduler object is rebuilt
        // only when the mined key changes on this thread.
        thread_local PortfolioRunner runner;
        thread_local std::unique_ptr<OnlineScheduler> scheduler;
        thread_local std::string scheduler_key_cache;
        thread_local std::vector<Time> starts;
        if (!scheduler || scheduler_key_cache != scheduler_key) {
          scheduler = make_scheduler(scheduler_key);
          scheduler_key_cache = scheduler_key;
        }
        const Time span = runner.run_span(
            view, PortfolioEntry{scheduler.get(), clairvoyant}, &starts);
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
          budget_skips->fetch_add(1, std::memory_order_relaxed);
          g_tm_budget_skips.increment();
          return 0.0;
        }
        return time_ratio(span, opt.span);
      }),
      options);
  result.budget_skips = budget_skips->load(std::memory_order_relaxed);
  return result;
}

}  // namespace fjs
