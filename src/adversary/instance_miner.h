// Adversarial instance miner: a randomized hill-climbing search for
// instances that maximize a scheduler's span-to-optimal ratio.
//
// Complements the paper's hand-crafted constructions: the miner explores
// the small-instance space automatically, providing empirical evidence
// that the implemented schedulers do not exceed their proven bounds and
// that the tight families really are the bad inputs (bench E14). Works on
// small integral instances so the exact solver can certify every ratio.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/instance.h"

namespace fjs {

class ThreadPool;

struct MinerOptions {
  /// Random instances evaluated in the seeding round.
  std::size_t population = 64;
  /// Hill-climbing rounds after seeding.
  std::size_t rounds = 30;
  /// Mutations proposed per round (best one is kept if it improves).
  std::size_t mutations_per_round = 24;
  /// Instance shape (integral units).
  std::size_t jobs = 8;
  std::int64_t horizon = 12;
  std::int64_t max_laxity = 5;
  std::int64_t max_length = 5;
  std::uint64_t seed = 0xBADF00DULL;
  /// Optional pool: each seeding/mutation batch is evaluated through
  /// parallel_map. The objective must then be thread-safe. Candidate
  /// generation stays serial (one RNG stream), and values are reduced in
  /// proposal order, so the mined result and the whole `trajectory` are
  /// identical for ANY thread count, including none.
  ThreadPool* pool = nullptr;
  /// Memoize objective values keyed on the exact job list. Hill climbing
  /// re-proposes near-duplicate candidates constantly; with the memo a
  /// revisited instance is never re-solved. The objective is required to be
  /// deterministic, so memoization never changes any result.
  bool use_objective_memo = true;
  /// Lower-bound pre-screen: before any candidate is dispatched,
  /// settle every candidate whose span-free ratio upper bound
  /// min(latest_completion - earliest_arrival, total_work) / max_length
  /// cannot exceed the frozen threshold — without simulating or certifying
  /// it. Sound ONLY for objectives bounded by span/OPT (any engine
  /// schedule runs inside [earliest arrival, latest completion), every
  /// busy instant runs at least one job, and OPT >= max length), so this
  /// is opt-in: mine_worst_case enables it; generic mine_instance
  /// objectives must not. Value-safe by the thresholded-objective
  /// contract below — settled values are <= the threshold, hence never
  /// selectable, and trajectories/worst instances are unchanged for any
  /// pool size and memo setting. Screening runs serially on the calling
  /// thread, so it is deterministic for any thread count.
  bool screen_lb_precut = false;
};

struct MinerResult {
  Instance worst_instance;
  /// Exact competitive ratio of the scheduler on worst_instance.
  double worst_ratio = 0.0;
  /// Best ratio after seeding and after each round (non-decreasing).
  std::vector<double> trajectory;
  /// Candidate evaluations consumed (memoized, screened or not) — the
  /// search effort. Objective *calls* are
  /// evaluations - memo_hits - screen_rejects.
  std::size_t evaluations = 0;
  /// Evaluations served from the objective memo instead of a fresh call.
  std::size_t memo_hits = 0;
  /// mine_worst_case only: candidates discarded because the exact solver's
  /// node budget ran out before certifying OPT (objective treated as 0).
  std::size_t budget_skips = 0;
  /// Candidates settled by the LB pre-screen (no simulation,
  /// no certification; see MinerOptions::screen_lb_precut). Objective
  /// calls are evaluations - memo_hits - screen_rejects.
  std::size_t screen_rejects = 0;
};

/// Mines a worst case for the scheduler registry key (clairvoyance is
/// inferred): objective = exact competitive ratio. Deterministic for
/// fixed options.
MinerResult mine_worst_case(const std::string& scheduler_key,
                            MinerOptions options = {});

/// General form: hill-climbs ANY objective over small integral instances
/// (larger = worse for the property under study). The objective must be
/// deterministic. Used e.g. to search for instances separating two
/// schedulers (span(A)/span(B), bench E16-style studies).
MinerResult mine_instance(
    const std::function<double(const Instance&)>& objective,
    MinerOptions options = {});

/// Threshold-aware form: the miner passes the running incumbent best value
/// at batch-generation time (0.0 only before any candidate has been
/// evaluated; seeding runs in fixed sub-batches whose threshold is the max
/// over all earlier sub-batches). A candidate whose objective provably
/// cannot exceed `threshold` may be settled with any deterministic value
/// <= threshold instead of the exact value — e.g. an upper bound that is
/// cheap to compute (span / lower_bound for the competitive-ratio
/// objective) — because such a candidate can never be selected. The
/// threshold is non-decreasing across sub-batches and rounds, so memoized
/// settled values stay unselectable forever and the mined trajectory,
/// worst instance and evaluation counts are identical to the exact-only
/// objective for any pool size and memo setting.
MinerResult mine_instance(
    const std::function<double(const Instance&, double threshold)>& objective,
    MinerOptions options = {});

/// Columnar core all overloads funnel into: like the threshold-aware form,
/// but the objective reads the candidate through a non-owning InstanceView
/// over the miner's mutation scratch table — no Instance is materialized
/// for rejected candidates (the miner applies each single-row patch in
/// place with an undo record and keeps the incumbent as a bare JobTable;
/// the one owning Instance is built for the final result). The
/// Instance-objective overloads above bridge by materializing per fresh
/// evaluation; hot objectives (mine_worst_case's certification loop) use
/// this form directly.
MinerResult mine_instance(
    const std::function<double(InstanceView view, double threshold)>&
        objective,
    MinerOptions options = {});

}  // namespace fjs
