// Branch-and-bound exact solver. See exact.h for the critical-start
// completeness argument; the short version of the design:
//
//  * Nodes are (remaining-job set, union of placed intervals). General mode
//    branches over (job, critical start) pairs — job choice included, so
//    the anchor-first placement orders the completeness proof needs are
//    reachable.
//  * The integral grid path branches one fixed most-constrained job per
//    depth over its grid starts. Its fused expansion in solve() is the
//    solver's one optimized path: one sweep computes every start's move
//    key and one-ply lookahead bound, and packed integer keys sort the
//    moves. Every certification workload takes it. General mode is plain
//    (one comparator sort, no lookahead): only tests, the fuzz oracles and
//    instances the grid cannot pack run it (docs/PERF.md).
//  * Job choice reaches the same placements in many orders. General mode
//    cuts those repeats with sleep sets (see solve()); the grid path
//    branches one fixed job per depth and has none to cut. There is no
//    transposition table: a cache keyed on the node state cost more per
//    node than it saved on the grid path (docs/PERF.md).
//  * The admissible bound merges the placed components with the remaining
//    jobs' mandatory regions into one scratch buffer — no IntervalSet
//    materialization per node — and maxes it with the memoized chain
//    bound.
//  * A witness search solves each window component on its own. Jobs whose
//    feasible windows [a, d+p) are disjoint never overlap, so OPT is the
//    sum of the components' optima. Each component is one solve() on its
//    job mask, on the same warm Search with the instance-wide grid, fixed
//    order, mandatory regions and chain memo, and one shared node budget.
//    Its bar is the seed's measure inside the component's windows. The
//    witness is the whole-instance search's: the seed when no component
//    beats its share, else the first optimal leaf in DFS order. A job's
//    moves and their order depend only on the placed intervals of its own
//    component, so that leaf is every component's first optimal leaf put
//    together (see solve_components()). The miner's span-only and
//    decision-floor searches keep one whole-instance solve.
//  * Budget exhaustion is a structured result (best-so-far incumbent), not
//    an assertion: miners and sweeps decide how to handle it.
#include "offline/exact.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/interval_set.h"
#include "offline/heuristic.h"
#include "offline/kernels.h"
#include "support/assert.h"

namespace fjs {
namespace {

using Mask = std::uint64_t;

/// Sorted, disjoint, non-abutting components of the placed union — a plain
/// vector so child states are one bounded memmove, not an IntervalSet.
using Components = std::vector<Interval>;

constexpr Mask bit(JobId j) { return Mask{1} << j; }

Time components_measure(const Components& comps) {
  Time total = Time::zero();
  for (const Interval& c : comps) {
    total += c.length();
  }
  return total;
}

/// dst = src with `iv` merged in (abutting intervals coalesce, matching
/// IntervalSet semantics so spans agree tick-for-tick). Force-inlined:
/// this runs once per search node and the call overhead is measurable at
/// miner certification rates.
[[gnu::always_inline]] inline void with_inserted(const Components& src,
                                                 const Interval& iv,
                                                 Components& dst) {
  dst.clear();
  std::size_t i = 0;
  while (i < src.size() && src[i].hi < iv.lo) {
    dst.push_back(src[i++]);
  }
  Time lo = iv.lo;
  Time hi = iv.hi;
  while (i < src.size() && src[i].lo <= hi) {
    lo = std::min(lo, src[i].lo);
    hi = std::max(hi, src[i].hi);
    ++i;
  }
  dst.push_back(Interval(lo, hi));
  while (i < src.size()) {
    dst.push_back(src[i++]);
  }
}

/// Measure of `iv` not covered by the components — the marginal span cost
/// of placing an interval there.
Time uncovered(const Components& comps, const Interval& iv) {
  Time covered = Time::zero();
  for (const Interval& c : comps) {
    if (c.lo >= iv.hi) {
      break;
    }
    if (c.hi <= iv.lo) {
      continue;
    }
    covered += c.intersect(iv).length();
  }
  return iv.length() - covered;
}

/// Monotone coverage cursor: C(x) = measure of the components' union in
/// (-inf, x), evaluated for a non-decreasing sequence of x. Two cursors
/// (one per interval endpoint) turn a run of uncovered() queries over
/// ascending starts into one O(starts + comps) sweep with tick-identical
/// results:
///   uncovered(comps, [s, s+p)) == p - (C(s+p) - C(s)).
class CoverageCursor {
 public:
  explicit CoverageCursor(const Components& comps) : comps_(&comps) {}

  std::int64_t at(std::int64_t x) {
    while (i_ < comps_->size() && (*comps_)[i_].hi.ticks() <= x) {
      acc_ += (*comps_)[i_].length().ticks();
      ++i_;
    }
    if (i_ < comps_->size() && (*comps_)[i_].lo.ticks() < x) {
      return acc_ + (x - (*comps_)[i_].lo.ticks());
    }
    return acc_;
  }

 private:
  const Components* comps_;
  std::size_t i_ = 0;
  std::int64_t acc_ = 0;
};

struct Move {
  JobId job;
  Time start;
  Time marginal;
};

/// Jobs whose feasible windows [a, d+p) chain into one overlapping run,
/// and the hull of those windows.
struct WindowComponent {
  Mask jobs;
  Interval window;
};

struct Outcome {
  Time value;
  bool exact;
};

/// Folds a child's outcome into the node's best: lower value wins, and on
/// equal values an exact outcome beats a bound.
void keep_better(const Outcome& o, Time& best, bool& best_exact) {
  if (o.value < best || (o.value == best && o.exact && !best_exact)) {
    best = o.value;
    best_exact = o.exact;
  }
}

/// One search: owns its memo, scratch buffers, incumbent and node budget.
/// Reusable: init() rebinds to a new instance while keeping every scratch
/// buffer's capacity, so hot loops (the miner certifies thousands of
/// candidates per mine) pay no per-call allocation churn — run_search
/// keeps one thread_local Search warm.
class Search {
 public:
  Search() = default;

  void init(InstanceView inst, const ExactOptions& opts, Time seed_span) {
    view_ = inst;
    opts_ = &opts;
    nodes_ = 0;
    aborted_ = false;
    incumbent_ = seed_span;
    best_sched_span_ = Time::max();
    const std::size_t n = inst.size();
    chain_direct_active_ = n <= kChainDirectBits;
    if (chain_direct_active_) {
      const std::size_t slots = std::size_t{1} << n;
      if (chain_direct_.size() < slots) {
        chain_direct_.resize(slots);
        chain_stamp_.resize(slots, 0);
      }
      if (++chain_epoch_ == 0) {  // wrapped: stale stamps could collide
        std::fill(chain_stamp_.begin(), chain_stamp_.end(), 0);
        chain_epoch_ = 1;
      }
    } else {
      chain_memo_.clear();
    }
    lower_twins_.assign(n, 0);
    if (asleep_.size() < n) {
      asleep_.resize(n);
    }
    const std::span<const Time> arrivals = inst.arrivals();
    const std::span<const Time> deadlines = inst.deadlines();
    const std::span<const Time> lengths = inst.lengths();
    mandatory_.clear();
    for (JobId j = 0; j < n; ++j) {
      for (JobId k = 0; k < j; ++k) {
        if (arrivals[k] == arrivals[j] && deadlines[k] == deadlines[j] &&
            lengths[k] == lengths[j]) {
          lower_twins_[j] |= bit(k);
        }
      }
      const Interval mand(deadlines[j], arrivals[j] + lengths[j]);
      if (!mand.empty()) {
        mandatory_.push_back(MandatoryRegion{mand, j});
      }
    }
    detail::sort_small(mandatory_, [](const MandatoryRegion& x,
                                      const MandatoryRegion& y) {
      return x.iv.lo != y.iv.lo ? x.iv.lo < y.iv.lo : x.job < y.job;
    });
    inst.ids_by_arrival(by_arrival_);

    grid_ = 0;
    fixed_order_.clear();
    if (opts.use_integral_fast_path) {
      std::int64_t g = 0;
      Time max_length = Time::zero();
      for (std::size_t i = 0; i < n; ++i) {
        g = std::gcd(g, arrivals[i].ticks());
        g = std::gcd(g, deadlines[i].ticks());
        g = std::gcd(g, lengths[i].ticks());
        max_length = std::max(max_length, lengths[i]);
      }
      std::int64_t max_starts = 0;
      if (g > 0) {
        for (std::size_t i = 0; i < n; ++i) {
          max_starts =
              std::max(max_starts, (deadlines[i] - arrivals[i]).ticks() / g + 1);
        }
      }
      // The grid's packed sort key (marginal << 7) | start index fits only
      // while every marginal, hence every job length, is below 2^56 ticks.
      // Longer jobs take general branching, which is complete for any
      // tick-valued instance.
      if (g > 0 && max_starts <= kMaxGridStarts &&
          max_length < kMaxGridLength) {
        grid_ = g;
        // Most-constrained-first, matching the reference DFS: small laxity
        // branches less, longer jobs among equals prune earlier.
        fixed_order_.resize(n);
        std::iota(fixed_order_.begin(), fixed_order_.end(), JobId{0});
        detail::sort_small(fixed_order_, [arrivals, deadlines, lengths](
                                             JobId a, JobId b) {
          const Time la = deadlines[a] - arrivals[a];
          const Time lb = deadlines[b] - arrivals[b];
          if (la != lb) {
            return la < lb;
          }
          if (lengths[a] != lengths[b]) {
            return lengths[a] > lengths[b];
          }
          return a < b;
        });
      }
    }
    if (comp_scratch_.size() < n + 2) {
      move_scratch_.resize(n + 2);
      comp_scratch_.resize(n + 2);
      la_unc_scratch_.resize(n + 2);
      grid_key_scratch_.resize(n + 2);
    }
    path_.resize(n);
    best_starts_.resize(n);
  }

  /// Fail-soft search: returns (value, exact) where exact means value is
  /// the optimal completion span of the state; otherwise value is a valid
  /// lower bound on it (>= bound unless the run aborted).
  Outcome solve(Mask mask, const Components& comps, Time bound,
                std::size_t depth) {
    if (aborted_) {
      return Outcome{bound, false};
    }
    if (++nodes_ > opts_->max_nodes) {
      aborted_ = true;
      return Outcome{bound, false};
    }
    if (mask == 0) {
      const Time span = components_measure(comps);
      if (span < best_sched_span_) {
        best_sched_span_ = span;
        if (!opts_->span_only) {
          best_starts_ = path_;
        }
      }
      incumbent_ = std::min(incumbent_, span);
      return Outcome{span, true};
    }
    const Time eff = std::min(bound, incumbent_);
    // Admissible bound: measure(placed ∪ mandatory(remaining)), maxed with
    // the chain bound unless the union alone already reaches `eff`. On the
    // grid the node's branch job j* is fixed, so the union term splits as
    // measure(base ∪ mandatory(j*)) with base = comps ∪ mandatory(mask\j*)
    // — exactly the base every child's one-ply lookahead bound needs below.
    const JobId bj = grid_ != 0 ? branch_job(mask) : kInvalidJob;
    Time base = Time::zero();
    Time lb;
    if (grid_ != 0) {
      base = merged_components(mask & ~bit(bj), comps, merged_);
      const Interval mand(view_.deadline(bj),
                          view_.arrival(bj) + view_.length(bj));
      lb = mand.empty() ? base : base + uncovered(merged_, mand);
    } else {
      lb = merged_components(mask, comps, merged_);
    }
    if (lb < eff) {
      lb = std::max(lb, chain_bound(mask, comps));
    }
    if (lb >= eff) {
      return Outcome{lb, false};
    }
    Time best = Time::max();
    bool best_exact = false;
    Time pruned_min = Time::max();
    auto& child = comp_scratch_[depth];
    Move forced;
    if (dominance_move(mask, comps, &forced)) {
      // Free placement, no branching. It has no siblings, so nothing
      // sleeps after it; it may itself be asleep in general mode.
      if (!asleep(forced)) {
        const Interval iv =
            Interval::from_length(forced.start, view_.length(forced.job));
        with_inserted(comps, iv, child);
        path_[forced.job] = forced.start;
        keep_better(solve(mask & ~bit(forced.job), child, eff, depth + 1),
                    best, best_exact);
      }
    } else if (grid_ != 0) {
      // Fused grid expansion: one pass over the branch job's grid starts
      // computes the move ordering key (marginal vs the placed components)
      // and, when there is more than one start, the one-ply lookahead
      // bound (uncovered measure vs base) for each start. Each child's
      // quick bound (maxed with the move-invariant child chain weight) that
      // already reaches the pruning bar is cut without recursing; pruned
      // children still feed the fail-soft return value via pruned_min.
      const Job bjob = view_.job(bj);
      const std::int64_t a = bjob.arrival.ticks();
      const std::int64_t p = bjob.length.ticks();
      const bool lookahead = bjob.deadline.ticks() > a;
      const Time la_chain =
          lookahead ? chain_info(mask & ~bit(bj)).weight : Time::zero();
      // The move order is (marginal, start) ascending. The grid has at most
      // kMaxGridStarts starts, so a start's grid index fits in 7 bits and
      // (marginal << 7) | index sorts exactly like the pair.
      auto& keys = grid_key_scratch_[depth];
      auto& la_unc = la_unc_scratch_[depth];
      keys.clear();
      la_unc.clear();
      {
        CoverageCursor lo_cursor(comps);
        CoverageCursor hi_cursor(comps);
        CoverageCursor la_lo(merged_);
        CoverageCursor la_hi(merged_);
        std::uint64_t idx = 0;
        for (std::int64_t s = a; s <= bjob.deadline.ticks(); s += grid_) {
          const std::int64_t marginal =
              p - (hi_cursor.at(s + p) - lo_cursor.at(s));
          keys.push_back((static_cast<std::uint64_t>(marginal) << 7) | idx);
          ++idx;
          if (lookahead) {
            la_unc.push_back(p - (la_hi.at(s + p) - la_lo.at(s)));
          }
        }
      }
      detail::sort_small(keys);
      for (const std::uint64_t key : keys) {
        const auto gi = static_cast<std::size_t>(key & 0x7F);
        const Time child_bound = std::min(eff, best);
        if (lookahead) {
          const Time quick = std::max(base + Time(la_unc[gi]), la_chain);
          if (quick >= child_bound) {
            pruned_min = std::min(pruned_min, quick);
            continue;
          }
        }
        const Time start(a + static_cast<std::int64_t>(gi) * grid_);
        with_inserted(comps, Interval::from_length(start, bjob.length), child);
        path_[bj] = start;
        keep_better(solve(mask & ~bit(bj), child, child_bound, depth + 1),
                    best, best_exact);
        if (aborted_) {
          return Outcome{best, false};
        }
        if (best_exact && best <= lb) {
          break;  // optimality-gap cut: no child can beat the bound
        }
      }
    } else {
      auto& moves = move_scratch_[depth];
      moves.clear();
      collect_moves(mask, comps, moves);
      // General mode branches over job choice, so the same placements are
      // reached in every order. Sleep sets cut the repeats without a table:
      // once a move's subtree is done, no later sibling's subtree places
      // that job at that start again. Any completion doing so is also a
      // completion of the finished subtree's state, whose optimum that
      // subtree covers, and the first optimal terminal in DFS order is
      // never cut — so values and witnesses are those of the full tree.
      const std::size_t sleep_base = asleep_log_.size();
      for (const Move& m : moves) {
        if (asleep(m)) {
          continue;
        }
        const Interval iv =
            Interval::from_length(m.start, view_.length(m.job));
        with_inserted(comps, iv, child);
        path_[m.job] = m.start;
        keep_better(solve(mask & ~bit(m.job), child, std::min(eff, best),
                          depth + 1),
                    best, best_exact);
        if (aborted_) {
          wake(sleep_base);
          return Outcome{best, false};
        }
        if (best_exact && best <= lb) {
          break;  // optimality-gap cut: no child can beat the bound
        }
        asleep_[m.job].push_back(m.start);
        asleep_log_.push_back(m.job);
      }
      wake(sleep_base);
    }
    if (pruned_min < best) {
      // Every recursed child came back above some pruned child's quick
      // bound; the tightest knowledge about this node is that bound, and it
      // is not exact (the pruned subtree was never explored).
      best = pruned_min;
      best_exact = false;
    }
    return Outcome{best, best_exact};
  }

  /// Restarts the bar for a solve of one window component: the incumbent
  /// becomes `bar` and the recorded best terminal is forgotten. The node
  /// count, budget, grid, fixed order, mandatory regions and chain memo
  /// carry over, since every one of them is instance-wide.
  void rebar(Time bar) {
    incumbent_ = bar;
    best_sched_span_ = Time::max();
  }

  /// Writes the instance's window components to `out`, in arrival order. A
  /// job arriving at or after the running reach of d+p starts a new
  /// component: half-open windows that only abut share no instant, so
  /// their jobs never overlap.
  void window_components(std::vector<WindowComponent>& out) const {
    out.clear();
    for (const JobId j : by_arrival_) {
      const Time arrival = view_.arrival(j);
      const Time reach = view_.deadline(j) + view_.length(j);
      if (out.empty() || arrival >= out.back().window.hi) {
        out.push_back(WindowComponent{0, Interval(arrival, reach)});
      }
      WindowComponent& c = out.back();
      c.jobs |= bit(j);
      c.window.hi = std::max(c.window.hi, reach);
    }
  }

  Time best_sched_span() const { return best_sched_span_; }
  const std::vector<Time>& best_starts() const { return best_starts_; }
  std::size_t nodes() const { return nodes_; }
  bool aborted() const { return aborted_; }

 private:
  struct MandatoryRegion {
    Interval iv;
    JobId job;
  };

  bool asleep(const Move& m) const {
    const std::vector<Time>& starts = asleep_[m.job];
    return std::find(starts.begin(), starts.end(), m.start) != starts.end();
  }

  /// Drops the sleep-set entries pushed since `base`.
  void wake(std::size_t base) {
    while (asleep_log_.size() > base) {
      asleep_[asleep_log_.back()].pop_back();
      asleep_log_.pop_back();
    }
  }

  /// dst = normalized disjoint components of comps ∪ mandatory(mask);
  /// returns its measure. One two-pointer pass over the (lo-sorted)
  /// mandatory regions still in `mask` and the placed components.
  Time merged_components(Mask mask, const Components& comps,
                         Components& dst) const {
    dst.clear();
    Time total = Time::zero();
    std::size_t mi = 0;
    std::size_t ci = 0;
    while (true) {
      while (mi < mandatory_.size() &&
             (mask & bit(mandatory_[mi].job)) == 0) {
        ++mi;
      }
      const bool has_m = mi < mandatory_.size();
      const bool has_c = ci < comps.size();
      if (!has_m && !has_c) {
        break;
      }
      Interval iv;
      if (!has_m || (has_c && comps[ci].lo <= mandatory_[mi].iv.lo)) {
        iv = comps[ci];
        ++ci;
      } else {
        iv = mandatory_[mi].iv;
        ++mi;
      }
      if (!dst.empty() && iv.lo <= dst.back().hi) {
        if (iv.hi > dst.back().hi) {
          total += iv.hi - dst.back().hi;
          dst.back().hi = iv.hi;
        }
      } else {
        dst.push_back(iv);
        total += iv.length();
      }
    }
    return total;
  }

  /// Chain bound with its outside-window extension: the heaviest chain
  /// over the remaining jobs occupies its weight W inside its window
  /// [lo, hi), and placed components outside that window are disjoint from
  /// it, so W + measure(placed \ [lo, hi)) is admissible — at least the
  /// bare chain weight.
  Time chain_bound(Mask mask, const Components& comps) {
    const detail::Chain& ch = chain_info(mask);
    Time cb = ch.weight;
    if (cb > Time::zero()) {
      const Interval window(ch.lo, ch.hi);
      for (const Interval& c : comps) {
        cb += c.length() - c.intersect(window).length();
      }
    }
    return cb;
  }

  /// Integral fast path: the fixed branch job of a node is the first job
  /// of the most-constrained order still remaining. Callers guarantee
  /// mask != 0 and grid_ != 0.
  JobId branch_job(Mask mask) const {
    for (const JobId candidate : fixed_order_) {
      if ((mask & bit(candidate)) != 0) {
        return candidate;
      }
    }
    return 0;  // unreachable: mask only holds jobs from fixed_order_
  }

  /// Heaviest chain over the remaining jobs (detail::heaviest_chain; single
  /// jobs included, so this subsumes the max-remaining-length bound).
  /// Independent of the placed union, hence memoized per remaining-job
  /// mask — masks repeat across permutations far more often than full
  /// states.
  ///
  /// Small instances (n <= kChainDirectBits, which covers every miner /
  /// fuzz workload) use a direct-indexed array with epoch stamps instead
  /// of a hash map: chain_info runs up to twice per node and the hash +
  /// node-allocation overhead dominated the actual DP in profiles. Stamps
  /// make re-init O(1) — no clearing between solver calls.
  const detail::Chain& chain_info(Mask mask) {
    if (chain_direct_active_) {
      detail::Chain& slot = chain_direct_[mask];
      if (chain_stamp_[mask] != chain_epoch_) {
        chain_stamp_[mask] = chain_epoch_;
        slot = compute_chain(mask);
      }
      return slot;
    }
    const auto it = chain_memo_.find(mask);
    if (it != chain_memo_.end()) {
      return it->second;
    }
    return chain_memo_.emplace(mask, compute_chain(mask)).first->second;
  }

  detail::Chain compute_chain(Mask mask) {
    return detail::heaviest_chain(
        view_, by_arrival_,
        [mask](JobId id) { return (mask & bit(id)) != 0; }, frontier_);
  }

  /// The first (in id order, twins skipped) remaining job with a
  /// zero-marginal start is committed as the single forced move. A
  /// zero-marginal start needs a component at least as long as the job, so
  /// with the longest component shorter than every remaining job (the
  /// common case early in the search) the scan is one comparison per job
  /// and no per-component walk at all.
  bool dominance_move(Mask mask, const Components& comps, Move* out) const {
    Time max_comp_len = Time::zero();
    for (const Interval& c : comps) {
      max_comp_len = std::max(max_comp_len, c.length());
    }
    if (max_comp_len == Time::zero()) {
      return false;
    }
    const std::span<const Time> arrivals = view_.arrivals();
    const std::span<const Time> deadlines = view_.deadlines();
    const std::span<const Time> lengths = view_.lengths();
    for (Mask rest = mask; rest != 0; rest &= rest - 1) {
      const JobId j = static_cast<JobId>(std::countr_zero(rest));
      if (lengths[j] > max_comp_len) {
        continue;  // no component can fully cover this job
      }
      if ((mask & lower_twins_[j]) != 0) {
        continue;  // an identical lower-id job stands in for this one
      }
      Time s;
      if (zero_marginal_start(comps, arrivals[j], deadlines[j], lengths[j],
                              &s)) {
        *out = Move{j, s, Time::zero()};
        return true;
      }
    }
    return false;
  }

  /// True iff the job has a start whose whole active interval is already
  /// covered; reports the leftmost such start.
  bool zero_marginal_start(const Components& comps, Time arrival,
                           Time deadline, Time length, Time* out) const {
    for (const Interval& c : comps) {
      if (c.lo > deadline) {
        break;
      }
      const Time lo = std::max(c.lo, arrival);
      const Time hi = std::min(c.hi - length, deadline);
      if (lo <= hi) {
        *out = lo;
        return true;
      }
    }
    return false;
  }

  /// General-mode children of a node without a forced move: every
  /// remaining job (twins skipped) at each of its critical starts, sorted
  /// by (marginal, job, start) — unique keys, so the order is
  /// deterministic.
  void collect_moves(Mask mask, const Components& comps,
                     std::vector<Move>& moves) {
    auto& cands = cand_scratch_;
    for (Mask rest = mask; rest != 0; rest &= rest - 1) {
      const JobId j = static_cast<JobId>(std::countr_zero(rest));
      if ((mask & lower_twins_[j]) != 0) {
        continue;
      }
      const Job job = view_.job(j);
      cands.clear();
      cands.push_back(job.arrival);
      cands.push_back(job.deadline);
      for (const Interval& c : comps) {
        for (const Time e : {c.lo, c.hi}) {
          for (const Time s : {e, e - job.length}) {
            if (s >= job.arrival && s <= job.deadline) {
              cands.push_back(s);
            }
          }
        }
      }
      detail::sort_small(cands);
      cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
      // Starts ascend after the sort, so one coverage sweep computes every
      // marginal — tick-identical to uncovered() per start.
      const std::int64_t p = job.length.ticks();
      CoverageCursor lo_cursor(comps);
      CoverageCursor hi_cursor(comps);
      for (const Time s : cands) {
        const std::int64_t covered =
            hi_cursor.at(s.ticks() + p) - lo_cursor.at(s.ticks());
        moves.push_back(Move{j, s, Time(p - covered)});
      }
    }
    std::sort(moves.begin(), moves.end(), [](const Move& x, const Move& y) {
      if (x.marginal != y.marginal) {
        return x.marginal < y.marginal;
      }
      if (x.job != y.job) {
        return x.job < y.job;
      }
      return x.start < y.start;
    });
  }

  InstanceView view_;
  const ExactOptions* opts_ = nullptr;
  static constexpr std::int64_t kMaxGridStarts = 128;
  static constexpr Time kMaxGridLength = Time(std::int64_t{1} << 56);
  Time incumbent_;          // best known complete span
  std::size_t nodes_ = 0;   // search nodes so far, against opts_->max_nodes
  bool aborted_ = false;    // node budget ran out

  std::vector<Mask> lower_twins_;
  std::vector<JobId> by_arrival_;
  std::int64_t grid_ = 0;           // grid step in ticks; 0 = general mode
  std::vector<JobId> fixed_order_;  // grid path's per-depth job order
  std::vector<MandatoryRegion> mandatory_;  // sorted by (left endpoint, id)
  std::vector<detail::ChainFrontier> frontier_;  // chain DP scratch
  // chain_info memo: direct-indexed + epoch-stamped for small n, hash map
  // fallback above kChainDirectBits (2^n slots would no longer be cheap).
  static constexpr std::size_t kChainDirectBits = 12;
  bool chain_direct_active_ = false;
  std::uint32_t chain_epoch_ = 0;
  std::vector<detail::Chain> chain_direct_;
  std::vector<std::uint32_t> chain_stamp_;
  std::unordered_map<Mask, detail::Chain> chain_memo_;
  // General-mode sleep sets: per job, the starts whose subtrees an ancestor
  // already finished as earlier siblings on the current path, plus the push
  // order for unwinding. Empty whenever no solve() is on the stack.
  std::vector<std::vector<Time>> asleep_;
  std::vector<JobId> asleep_log_;
  // The node's merged bound components; read before any child recurses.
  Components merged_;
  std::vector<Time> cand_scratch_;  // collect_moves' per-job starts
  // Depth-indexed scratch (the recursion touches one slot per level).
  std::vector<std::vector<Move>> move_scratch_;
  std::vector<Components> comp_scratch_;
  std::vector<std::vector<std::int64_t>> la_unc_scratch_;  // lookahead sweep
  std::vector<std::vector<std::uint64_t>> grid_key_scratch_;  // packed keys
  // Current path's starts by job id; complete exactly at terminals.
  std::vector<Time> path_;
  Time best_sched_span_ = Time::max();
  std::vector<Time> best_starts_;
};

Schedule schedule_from_starts(InstanceView view,
                              const std::vector<Time>& starts) {
  Schedule schedule(view.size());
  for (JobId j = 0; j < view.size(); ++j) {
    schedule.set_start(j, starts[j]);
  }
  schedule.validate(view);
  return schedule;
}

ExactResult finish(InstanceView view, Time span, Schedule schedule,
                   ExactStatus status, std::size_t nodes) {
  // span_only results carry an empty schedule; there is nothing to check.
  FJS_CHECK(schedule.size() == 0 || schedule.span(view) == span,
            "exact: span mismatch on reconstruction");
  ExactResult result;
  result.span = span;
  result.schedule = std::move(schedule);
  result.nodes_explored = nodes;
  result.status = status;
  return result;
}

/// Witness-mode search of an instance with several window components (see
/// the top of the file). The first pass solves each component against its
/// share of the seed's measure. If no component beats its share, the seed
/// is optimal and is the result, as in the whole-instance search.
/// Otherwise the result is the concatenation of the components' first
/// optimal leaves, and a component whose share held recorded no leaf below
/// its bar, so a second pass solves it again one tick above the bar.
ExactResult solve_components(Search& search, InstanceView view,
                             Schedule seed_schedule, Time seed_span,
                             const std::vector<WindowComponent>& components) {
  const IntervalSet seed_union = seed_schedule.active_set(view);
  std::vector<Time> starts(view.size());
  for (JobId j = 0; j < view.size(); ++j) {
    starts[j] = seed_schedule.start(j);
  }
  // Copies the component's jobs from the search's best terminal.
  const auto take_best = [&](const WindowComponent& c) {
    for (Mask rest = c.jobs; rest != 0; rest &= rest - 1) {
      const auto j = static_cast<JobId>(std::countr_zero(rest));
      starts[j] = search.best_starts()[j];
    }
  };
  // Best-so-far: every component solved so far keeps its result, the
  // aborted one its best terminal if that beats its seed share, and the
  // rest their seed placement.
  const auto best_so_far = [&](const WindowComponent& c, Time seed) {
    if (search.best_sched_span() < seed) {
      take_best(c);
    }
    Schedule schedule = schedule_from_starts(view, starts);
    const Time span = schedule.span(view);
    return finish(view, span, std::move(schedule),
                  ExactStatus::kBudgetExceeded, search.nodes());
  };

  std::vector<Time> seeds(components.size());
  std::vector<bool> held(components.size());
  Time span = Time::zero();
  bool any_beaten = false;
  for (std::size_t i = 0; i < components.size(); ++i) {
    const WindowComponent& c = components[i];
    seeds[i] = seed_union.measure_within(c.window);
    search.rebar(seeds[i]);
    const Outcome o = search.solve(c.jobs, Components{}, seeds[i], 0);
    if (search.aborted()) {
      return best_so_far(c, seeds[i]);
    }
    held[i] = !o.exact || o.value >= seeds[i];
    if (held[i]) {
      span += seeds[i];
    } else {
      FJS_CHECK(search.best_sched_span() == o.value,
                "exact: optimum without a recorded witness");
      span += o.value;
      take_best(c);
      any_beaten = true;
    }
  }
  if (!any_beaten) {
    return finish(view, seed_span, std::move(seed_schedule),
                  ExactStatus::kOptimal, search.nodes());
  }
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (!held[i]) {
      continue;
    }
    const WindowComponent& c = components[i];
    const Time bar = seeds[i] + Time(1);
    search.rebar(bar);
    const Outcome o = search.solve(c.jobs, Components{}, bar, 0);
    if (search.aborted()) {
      return best_so_far(c, seeds[i]);
    }
    FJS_CHECK(o.exact && o.value == seeds[i] &&
                  search.best_sched_span() == seeds[i],
              "exact: component re-solve missed its seed's optimum");
    take_best(c);
  }
  return finish(view, span, schedule_from_starts(view, starts),
                ExactStatus::kOptimal, search.nodes());
}

/// Runs the search from the seed incumbent and turns the outcome
/// into a result (with a witness schedule unless span_only).
ExactResult run_search(InstanceView view, Schedule seed_schedule,
                       Time seed_span, const ExactOptions& options) {
  const Mask full =
      view.size() == 64 ? ~Mask{0} : (Mask{1} << view.size()) - 1;

  // A floor at or above the seed span proves nothing the seed doesn't; it
  // only engages when it would genuinely clamp the root bound.
  const bool floor_active = options.decision_floor > Time::zero() &&
                            options.decision_floor < seed_span;
  // One warm Search per thread: the miner certifies thousands of
  // candidates back-to-back on the same worker, and init() reuses every
  // scratch buffer / hash table's capacity. Cache-line aligned, which also
  // aligns the whole static TLS block to 64 bytes: every other thread_local
  // then keeps the cache-line offset the linker gave it, whatever the
  // block's total size (docs/PERF.md §3 has the measurement).
  alignas(64) thread_local Search search;
  search.init(view, options, seed_span);
  // A witness search splits into window components. The decision floor
  // and span-only searches (the miner's certification) keep one
  // whole-instance call: their instances rarely split. The components live
  // outside the thread_local Search so its size, and the cache-line offsets
  // of the thread_locals after it, stay as they were (docs/PERF.md §11).
  if (!options.span_only && !floor_active) {
    std::vector<WindowComponent> components;
    search.window_components(components);
    if (components.size() > 1) {
      return solve_components(search, view, std::move(seed_schedule),
                              seed_span, components);
    }
  }
  const Outcome o = search.solve(
      full, Components{}, floor_active ? options.decision_floor : seed_span,
      0);
  const std::size_t nodes = search.nodes();
  if (search.aborted()) {
    // Best-so-far: the seed unless the search surfaced a better terminal.
    if (search.best_sched_span() < seed_span) {
      return finish(view, search.best_sched_span(),
                    options.span_only
                        ? Schedule(0)
                        : schedule_from_starts(view, search.best_starts()),
                    ExactStatus::kBudgetExceeded, nodes);
    }
    return finish(view, seed_span, std::move(seed_schedule),
                  ExactStatus::kBudgetExceeded, nodes);
  }
  if (!o.exact || o.value >= seed_span) {
    if (!o.exact && floor_active && o.value < seed_span) {
      // Fail-soft guarantee: a non-exact, non-aborted outcome is a valid
      // lower bound on OPT no smaller than the root bound — the floor.
      FJS_CHECK(o.value >= options.decision_floor,
                "exact: floor search returned a bound below the floor");
      return finish(view, seed_span, std::move(seed_schedule),
                    ExactStatus::kFloorProven, nodes);
    }
    // The search proved nothing beats the seed: the seed is optimal.
    return finish(view, seed_span, std::move(seed_schedule),
                  ExactStatus::kOptimal, nodes);
  }
  if (options.span_only) {
    return finish(view, o.value, Schedule(0), ExactStatus::kOptimal, nodes);
  }
  // Every exact value the search returns comes from a terminal it
  // visited, so the best terminal it recorded is a witness.
  FJS_CHECK(search.best_sched_span() == o.value,
            "exact: optimum without a recorded witness");
  return finish(view, o.value, schedule_from_starts(view, search.best_starts()),
                ExactStatus::kOptimal, nodes);
}

}  // namespace

ExactResult exact_optimal(InstanceView view, ExactOptions options) {
  if (view.empty()) {
    return ExactResult{.span = Time::zero(), .schedule = Schedule(0)};
  }
  FJS_REQUIRE(view.size() <= 64,
              "exact: more than 64 jobs — use the heuristic + lower bounds");

  // Seed incumbent: a valid schedule (or in span_only mode at least a known
  // feasible span) exists before the first node, so a budget-exceeded
  // result always carries a usable best-so-far, and the admissible bound
  // prunes from the start.
  Schedule seed_schedule(options.span_only ? 0 : view.size());
  Time seed_span = Time::max();
  if (options.span_only) {
    if (options.seed_with_heuristic) {
      HeuristicOptions h;
      h.restarts = 0;
      h.max_passes = 8;
      const HeuristicResult hr = heuristic_optimal(view, h);
      seed_span = hr.schedule.span(view);
    }
    if (options.seed_span > Time::zero()) {
      seed_span = std::min(seed_span, options.seed_span);
    }
    FJS_REQUIRE(seed_span < Time::max(),
                "exact: span_only needs an incumbent seed — pass seed_span "
                "or enable seed_with_heuristic");
  } else {
    if (options.seed_with_heuristic) {
      HeuristicOptions h;
      h.restarts = 0;
      h.max_passes = 8;
      seed_schedule = heuristic_optimal(view, h).schedule;
    } else {
      for (JobId j = 0; j < view.size(); ++j) {
        seed_schedule.set_start(j, view.arrival(j));
      }
    }
    seed_schedule.validate(view);
    seed_span = seed_schedule.span(view);
    // options.seed_span is ignored here: a bare span carries no witness
    // schedule, and every non-span_only result must return one whose span
    // matches the reported incumbent.
  }

  return run_search(view, std::move(seed_schedule), seed_span, options);
}

Time exact_optimal_span(InstanceView view, ExactOptions options) {
  const ExactResult result = exact_optimal(view, std::move(options));
  FJS_REQUIRE(result.optimal(),
              "exact: node budget exhausted — instance too large for the "
              "exact solver; use exact_optimal for the best-so-far result");
  return result.span;
}

}  // namespace fjs
