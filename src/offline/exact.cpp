// Branch-and-bound exact solver. See exact.h for the critical-start
// completeness argument; the short version of the design:
//
//  * Nodes are (remaining-job set, union of placed intervals). Branching is
//    over (job, critical start) pairs — job choice included, so the
//    anchor-first placement orders the completeness proof needs are
//    reachable.
//  * Job choice reaches the same placements in many orders. General mode
//    cuts those repeats with sleep sets (see solve()); the integral fast
//    path branches one fixed job per depth and has none to cut. There is
//    no transposition table: a cache keyed on the node state cost more per
//    node than it saved on the fast path (docs/PERF.md).
//  * The admissible bound merges the placed components with the remaining
//    jobs' mandatory regions through IntervalSet::sorted_union_measure on
//    depth-indexed scratch buffers — no IntervalSet materialization per
//    node.
//  * Budget exhaustion is a structured result (best-so-far incumbent), not
//    an assertion: miners and sweeps decide how to handle it.
#include "offline/exact.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/interval_set.h"
#include "offline/heuristic.h"
#include "support/assert.h"

namespace fjs {
namespace {

using Mask = std::uint64_t;

/// Sorted, disjoint, non-abutting components of the placed union — a plain
/// vector so child states are one bounded memmove, not an IntervalSet.
using Components = std::vector<Interval>;

constexpr Mask bit(JobId j) { return Mask{1} << j; }

/// Insertion sort for the tiny per-call id orderings: at mining sizes
/// std::sort's introsort machinery costs more than the sort itself. The
/// comparators used here are strict total orders (id tie-break), so the
/// result is exactly std::sort's.
template <typename Less>
void sort_ids(std::vector<JobId>& ids, Less less) {
  if (ids.size() > 32) {
    std::sort(ids.begin(), ids.end(), less);
    return;
  }
  for (std::size_t i = 1; i < ids.size(); ++i) {
    const JobId v = ids[i];
    std::size_t j = i;
    while (j > 0 && less(v, ids[j - 1])) {
      ids[j] = ids[j - 1];
      --j;
    }
    ids[j] = v;
  }
}

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
/// (one per interval endpoint) turn a grid of uncovered() queries into one
/// O(starts + comps) sweep with tick-identical results:
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

struct Outcome {
  Time value;
  bool exact;
};

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
    mandatory_.clear();
    grid_ = 0;
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
    // Insertion sort on iv.lo: stable (strict < keeps ties in push order,
    // i.e. job-id order), so the result is exactly std::stable_sort's
    // without its temporary-buffer machinery — this runs once per solver
    // call and the miner makes ~100 calls per mine.
    for (std::size_t i = 1; i < mandatory_.size(); ++i) {
      const MandatoryRegion m = mandatory_[i];
      std::size_t k = i;
      while (k > 0 && m.iv.lo < mandatory_[k - 1].iv.lo) {
        mandatory_[k] = mandatory_[k - 1];
        --k;
      }
      mandatory_[k] = m;
    }
    // Same (arrival, id) order as Instance::ids_by_arrival(), filled in
    // place: init runs once per solver call and the per-call allocation
    // shows up in miner profiles.
    by_arrival_.resize(n);
    for (JobId j = 0; j < n; ++j) {
      by_arrival_[j] = j;
    }
    sort_ids(by_arrival_,
             [arrivals](JobId a, JobId b) {
               if (arrivals[a] != arrivals[b]) {
                 return arrivals[a] < arrivals[b];
               }
               return a < b;
             });

    fixed_order_.clear();
    if (opts.use_integral_fast_path) {
      std::int64_t g = 0;
      for (std::size_t i = 0; i < n; ++i) {
        g = std::gcd(g, arrivals[i].ticks());
        g = std::gcd(g, deadlines[i].ticks());
        g = std::gcd(g, lengths[i].ticks());
      }
      std::int64_t max_starts = 0;
      if (g > 0) {
        for (std::size_t i = 0; i < n; ++i) {
          max_starts =
              std::max(max_starts, (deadlines[i] - arrivals[i]).ticks() / g + 1);
        }
      }
      if (g > 0 && max_starts <= kMaxGridStarts) {
        grid_ = g;
        // Most-constrained-first, matching the reference DFS: small laxity
        // branches less, longer jobs among equals prune earlier.
        fixed_order_.resize(n);
        for (JobId j = 0; j < n; ++j) {
          fixed_order_[j] = j;
        }
        sort_ids(fixed_order_,
                 [arrivals, deadlines, lengths](JobId a, JobId b) {
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
    if (lb_scratch_.size() < n + 2) {
      lb_scratch_.resize(n + 2);
      cand_scratch_.resize(n + 2);
      move_scratch_.resize(n + 2);
      comp_scratch_.resize(n + 2);
      la_scratch_.resize(n + 2);
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
    // Admissible bound. In the integral fast path the branch job j* at this
    // node is fixed, so the union bound for `mask` decomposes as
    // measure(base ∪ mandatory(j*)) with base = comps ∪ mandatory(mask\j*)
    // — exactly the base every child's one-ply lookahead bound needs below.
    // Build it once, normalized, and reuse it for both (one merge per node
    // instead of two); the value is identical to lower_bound's union term.
    Time lb;
    auto& la_comps = la_scratch_[depth];
    bool la_ready = false;
    Time la_base = Time::zero();
    JobId bj = kInvalidJob;
    if (grid_ != 0) {
      bj = branch_job(mask);
      la_base = merged_components(mask & ~bit(bj), comps, depth, la_comps);
      la_ready = true;
      const Job bjob = view_.job(bj);
      const Interval mand(bjob.deadline, bjob.arrival + bjob.length);
      lb = la_base;
      if (!mand.empty()) {
        lb = lb + uncovered(la_comps, mand);
      }
      if (lb < eff) {
        // Chain + outside-window extension, as in lower_bound.
        const ChainInfo& ch = chain_info(mask);
        Time cb = ch.weight;
        if (cb > Time::zero()) {
          const Interval window(ch.lo, ch.hi);
          for (const Interval& c : comps) {
            cb += c.length() - c.intersect(window).length();
          }
        }
        lb = std::max(lb, cb);
      }
    } else {
      lb = lower_bound(mask, comps, depth, eff);
    }
    if (lb >= eff) {
      return Outcome{lb, false};
    }
    Time best = Time::max();
    bool best_exact = false;
    Time pruned_min = Time::max();
    auto& child = comp_scratch_[depth];
    bool expanded = false;
    if (grid_ != 0) {
      Move dom;
      if (dominance_move(mask, comps, &dom)) {
        // Single forced move: recurse directly, no lookahead machinery.
        with_inserted(comps, Interval::from_length(dom.start, view_.length(dom.job)),
                      child);
        path_[dom.job] = dom.start;
        const Outcome o = solve(mask & ~bit(dom.job), child, eff, depth + 1);
        best = o.value;
        best_exact = o.exact;
        if (aborted_) {
          return Outcome{best, false};
        }
        expanded = true;
      } else {
        // Fused grid expansion: one pass over the branch job's grid starts
        // computes the move ordering key (marginal vs the placed
        // components) and, when there is more than one start, the one-ply
        // lookahead bound (uncovered measure vs la_comps) for each start —
        // the Move structs the old two-pass shape materialized carried no
        // information beyond (key, start index). Each child's quick bound
        // (maxed with the move-invariant child chain weight) that already
        // reaches the pruning bar is cut without recursing; pruned
        // children still feed the fail-soft return value via pruned_min.
        const Job bjob = view_.job(bj);
        const std::int64_t a = bjob.arrival.ticks();
        const std::int64_t p = bjob.length.ticks();
        const bool lookahead = bjob.deadline.ticks() > a;
        Time la_chain = Time::zero();
        if (lookahead) {
          la_chain = chain_info(mask & ~bit(bj)).weight;
        }
        auto& keys = grid_key_scratch_[depth];
        auto& la_unc = la_unc_scratch_[depth];
        keys.clear();
        la_unc.clear();
        bool packable = true;
        {
          CoverageCursor lo_cursor(comps);
          CoverageCursor hi_cursor(comps);
          CoverageCursor la_lo(la_comps);
          CoverageCursor la_hi(la_comps);
          std::uint64_t idx = 0;
          for (std::int64_t s = a; s <= bjob.deadline.ticks(); s += grid_) {
            const std::int64_t marginal =
                p - (hi_cursor.at(s + p) - lo_cursor.at(s));
            packable = packable && marginal < (std::int64_t{1} << 56);
            keys.push_back((static_cast<std::uint64_t>(marginal) << 7) | idx);
            ++idx;
            if (lookahead) {
              la_unc.push_back(p - (la_hi.at(s + p) - la_lo.at(s)));
            }
          }
        }
        if (packable) {
          if (keys.size() <= 32) {
            // Insertion sort: same order as std::sort (keys are unique),
            // cheaper while the grid move list is short (the common case).
            for (std::size_t i = 1; i < keys.size(); ++i) {
              const std::uint64_t v = keys[i];
              std::size_t k = i;
              while (k > 0 && v < keys[k - 1]) {
                keys[k] = keys[k - 1];
                --k;
              }
              keys[k] = v;
            }
          } else {
            std::sort(keys.begin(), keys.end());
          }
          for (const std::uint64_t key : keys) {
            const auto gi = static_cast<std::size_t>(key & 0x7F);
            const Time child_bound = std::min(eff, best);
            if (lookahead) {
              const Time quick =
                  std::max(la_base + Time(la_unc[gi]), la_chain);
              if (quick >= child_bound) {
                pruned_min = std::min(pruned_min, quick);
                continue;
              }
            }
            const Time start(a + static_cast<std::int64_t>(gi) * grid_);
            with_inserted(comps, Interval::from_length(start, bjob.length),
                          child);
            path_[bj] = start;
            const Outcome o =
                solve(mask & ~bit(bj), child, child_bound, depth + 1);
            if (o.value < best || (o.value == best && o.exact && !best_exact)) {
              best = o.value;
              best_exact = o.exact;
            }
            if (aborted_) {
              return Outcome{best, false};
            }
            if (best_exact && best <= lb) {
              break;  // optimality-gap cut: no child can beat the bound
            }
          }
          expanded = true;
        }
        // Unpackable marginal (>= 2^56 ticks): fall through to the
        // comparator-sorted Move path below.
      }
    }
    if (!expanded) {
      auto& moves = move_scratch_[depth];
      collect_moves(mask, comps, depth, moves, bj);
      // One-ply lookahead pruning, two-pass shape (general mode never has
      // la_comps; the grid fallback re-sweeps into Move structs).
      const bool lookahead = la_ready && moves.size() > 1;
      Time la_chain = Time::zero();
      std::int64_t la_a = 0;
      auto& la_unc = la_unc_scratch_[depth];
      if (lookahead) {
        la_chain = chain_info(mask & ~bit(moves.front().job)).weight;
        const Job bjob = view_.job(moves.front().job);
        la_a = bjob.arrival.ticks();
        const std::int64_t p = bjob.length.ticks();
        la_unc.clear();
        CoverageCursor lo_cursor(la_comps);
        CoverageCursor hi_cursor(la_comps);
        for (std::int64_t s = la_a; s <= bjob.deadline.ticks(); s += grid_) {
          la_unc.push_back(p - (hi_cursor.at(s + p) - lo_cursor.at(s)));
        }
      }
      // General mode branches over job choice, so the same placements are
      // reached in every order. Sleep sets cut the repeats without a table:
      // once a move's subtree is done, no later sibling's subtree places
      // that job at that start again. Any completion doing so is also a
      // completion of the finished subtree's state, whose optimum that
      // subtree covers, and the first optimal terminal in DFS order is
      // never cut — so values and witnesses are those of the full tree.
      // (Grid-mode moves all place one job, so nothing sleeps there.)
      const std::size_t sleep_base = asleep_log_.size();
      for (const Move& m : moves) {
        if (asleep(m)) {
          continue;
        }
        const Time child_bound = std::min(eff, best);
        if (lookahead) {
          const Time quick = std::max(
              la_base + Time(la_unc[static_cast<std::size_t>(
                            (m.start.ticks() - la_a) / grid_)]),
              la_chain);
          if (quick >= child_bound) {
            pruned_min = std::min(pruned_min, quick);
            continue;
          }
        }
        const Interval iv = view_.job(m.job).active_interval(m.start);
        with_inserted(comps, iv, child);
        path_[m.job] = m.start;
        const Outcome o =
            solve(mask & ~bit(m.job), child, child_bound, depth + 1);
        if (o.value < best || (o.value == best && o.exact && !best_exact)) {
          best = o.value;
          best_exact = o.exact;
        }
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

  Time best_sched_span() const { return best_sched_span_; }
  const std::vector<Time>& best_starts() const { return best_starts_; }
  std::size_t nodes() const { return nodes_; }
  bool aborted() const { return aborted_; }

 private:
  struct MandatoryRegion {
    Interval iv;
    JobId job;
  };

  /// Heaviest chain over a remaining-job mask, plus the window [lo, hi)
  /// every chain member's occupancy provably lies in (lo = the first
  /// member's arrival, hi = the last member's deadline + length; the chain
  /// condition d(I) + p(I) <= a(J) nests all earlier windows inside it).
  struct ChainInfo {
    Time weight = Time::zero();
    Time lo = Time::zero();
    Time hi = Time::zero();
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

  /// Admissible bound: measure(placed ∪ mandatory(remaining)), merged on a
  /// scratch buffer, maxed with the chain bound. The chain term is skipped
  /// when the mandatory merge alone already reaches `eff` — the caller
  /// prunes either way.
  Time lower_bound(Mask mask, const Components& comps, std::size_t depth,
                   Time eff) {
    (void)depth;
    // Fused merge + measure: two-pointer walk over the (lo-sorted)
    // mandatory regions still in `mask` and the placed components,
    // accumulating the union length run by run. Equal-lo ties may resolve
    // either way — the run merge extends to the same hi — so the value is
    // exactly sorted_union_measure of the old materialized scratch,
    // without building it. This runs once per search node and dominates
    // the per-node cost in miner profiles.
    Time lb = Time::zero();
    {
      Time run_lo = Time::zero();
      Time run_hi = Time::zero();
      bool open = false;
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
        if (!has_c || (has_m && mandatory_[mi].iv.lo <= comps[ci].lo)) {
          iv = mandatory_[mi].iv;
          ++mi;
        } else {
          iv = comps[ci];
          ++ci;
        }
        if (!open) {
          run_lo = iv.lo;
          run_hi = iv.hi;
          open = true;
        } else if (iv.lo <= run_hi) {
          run_hi = std::max(run_hi, iv.hi);
        } else {
          lb += run_hi - run_lo;
          run_lo = iv.lo;
          run_hi = iv.hi;
        }
      }
      if (open) {
        lb += run_hi - run_lo;
      }
    }
    if (lb >= eff) {
      return lb;
    }
    // Chain + outside-window extension: the heaviest chain occupies weight
    // W inside its window [lo, hi), and placed components outside that
    // window are disjoint from it, so W + measure(placed \ [lo, hi)) is
    // also admissible — strictly at least the bare chain weight.
    const ChainInfo& ch = chain_info(mask);
    Time cb = ch.weight;
    if (cb > Time::zero()) {
      const Interval window(ch.lo, ch.hi);
      for (const Interval& c : comps) {
        cb += c.length() - c.intersect(window).length();
      }
    }
    return std::max(lb, cb);
  }

  /// dst = normalized disjoint components of comps ∪ mandatory(mask);
  /// returns its measure. Reuses the depth's lower-bound scratch (the
  /// caller is done with lower_bound at this depth).
  Time merged_components(Mask mask, const Components& comps,
                         std::size_t depth, Components& dst) {
    (void)depth;
    // Single fused pass: two-pointer interleave of the (lo-sorted)
    // mandatory regions still in `mask` with the placed components,
    // normalized into dst as it streams. Same output as materializing the
    // interleave first — this runs once per search node.
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

  /// Chain bound over the remaining jobs: along any chain with
  /// d(I) + p(I) <= a(J) the placements are disjoint, so the span is at
  /// least the heaviest chain weight (single jobs included, so this
  /// subsumes the max-remaining-length bound). Independent of the placed
  /// union, hence memoized per remaining-job mask — masks repeat across
  /// permutations far more often than full states. The memo also records
  /// the winning chain's window for the outside-window extension above.
  ///
  /// Small instances (n <= kChainDirectBits, which covers every miner /
  /// fuzz workload) use a direct-indexed array with epoch stamps instead
  /// of a hash map: chain_info runs up to twice per node and the hash +
  /// node-allocation overhead dominated the actual DP in profiles. Stamps
  /// make re-init O(1) — no clearing between solver calls.
  const ChainInfo& chain_info(Mask mask) {
    if (chain_direct_active_) {
      ChainInfo& slot = chain_direct_[mask];
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

  ChainInfo compute_chain(Mask mask) {
    // Pareto frontier as a flat scratch vector sorted by completion key
    // with strictly increasing weights: entry = (key, best chain weight
    // ending by key, that chain's lo). The DP touches <= n entries, so
    // linear scans and O(n) vector insert/erase beat a node-allocating map
    // by a wide margin (this function is hot in miner profiles).
    auto& pareto = pareto_scratch_;
    pareto.clear();
    ChainInfo best;
    const std::span<const Time> arrivals = view_.arrivals();
    const std::span<const Time> deadlines = view_.deadlines();
    const std::span<const Time> lengths = view_.lengths();
    for (const JobId id : by_arrival_) {
      if ((mask & bit(id)) == 0) {
        continue;
      }
      const Time arrival = arrivals[id];
      Time prefix = Time::zero();
      Time lo = arrival;
      std::size_t up = 0;  // first index with key > arrival
      while (up < pareto.size() && pareto[up].key <= arrival) {
        ++up;
      }
      if (up > 0) {
        prefix = pareto[up - 1].weight;
        if (prefix > Time::zero()) {
          lo = pareto[up - 1].lo;
        }
      }
      const Time f = prefix + lengths[id];
      const Time key = deadlines[id] + lengths[id];
      if (f > best.weight) {
        best = ChainInfo{f, lo, key};
      }
      while (up < pareto.size() && pareto[up].key <= key) {
        ++up;  // now: first index with key > `key`
      }
      if (up == 0 || pareto[up - 1].weight < f) {
        std::size_t pos;
        if (up > 0 && pareto[up - 1].key == key) {
          pos = up - 1;
          pareto[pos] = ParetoEntry{key, f, lo};
        } else {
          pos = up;
          pareto.insert(pareto.begin() + static_cast<std::ptrdiff_t>(pos),
                        ParetoEntry{key, f, lo});
        }
        std::size_t e = pos + 1;
        while (e < pareto.size() && pareto[e].weight <= f) {
          ++e;  // dominated by the new entry
        }
        pareto.erase(pareto.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                     pareto.begin() + static_cast<std::ptrdiff_t>(e));
      }
    }
    return best;
  }

  /// Dominance scan shared by solve()'s grid expansion and collect_moves:
  /// the first (in id order, twins skipped) remaining job with a
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

  /// Children of a node, cheapest marginal first. Applies dominance (a
  /// zero-marginal placement is committed as the single forced move) and
  /// twin symmetry breaking. `grid_branch` is solve()'s already-computed
  /// branch job (grid mode only); kInvalidJob means compute it here.
  void collect_moves(Mask mask, const Components& comps, std::size_t depth,
                     std::vector<Move>& moves, JobId grid_branch) {
    moves.clear();
    Move dom;
    if (dominance_move(mask, comps, &dom)) {
      moves.push_back(dom);
      return;  // dominance: free placement, no branching
    }
    if (grid_ != 0) {
      // Integral fast path: one fixed job per depth, grid starts only. The
      // marginal of [s, s+p) is p - (C(s+p) - C(s)) with C the coverage
      // sweep — one pass over the components for the whole grid instead of
      // one uncovered() scan per start.
      const JobId j =
          grid_branch != kInvalidJob ? grid_branch : branch_job(mask);
      const Job job = view_.job(j);
      const std::int64_t a = job.arrival.ticks();
      const std::int64_t p = job.length.ticks();
      CoverageCursor lo_cursor(comps);
      CoverageCursor hi_cursor(comps);
      // The move order is (marginal, start) ascending. The grid has at
      // most kMaxGridStarts starts, so a start's grid index fits in 7
      // bits and (marginal << 7) | index sorts exactly like the pair —
      // plain integer keys sort several times faster than 24-byte Move
      // structs through a comparator. Marginals at or above 2^56 ticks
      // can't be packed; they fall back to the comparator sort below.
      auto& keys = move_key_scratch_;
      keys.clear();
      bool packable = true;
      std::uint64_t idx = 0;
      for (std::int64_t s = a; s <= job.deadline.ticks(); s += grid_) {
        const std::int64_t covered = hi_cursor.at(s + p) - lo_cursor.at(s);
        const std::int64_t marginal = p - covered;
        packable = packable && marginal < (std::int64_t{1} << 56);
        keys.push_back((static_cast<std::uint64_t>(marginal) << 7) | idx);
        ++idx;
      }
      if (packable) {
        if (keys.size() <= 32) {
          // Insertion sort: same order as std::sort (keys are unique),
          // cheaper while the grid move list is short (the common case).
          for (std::size_t i = 1; i < keys.size(); ++i) {
            const std::uint64_t v = keys[i];
            std::size_t k = i;
            while (k > 0 && v < keys[k - 1]) {
              keys[k] = keys[k - 1];
              --k;
            }
            keys[k] = v;
          }
        } else {
          std::sort(keys.begin(), keys.end());
        }
        for (const std::uint64_t key : keys) {
          const std::int64_t s =
              a + static_cast<std::int64_t>(key & 0x7F) * grid_;
          moves.push_back(
              Move{j, Time(s), Time(static_cast<std::int64_t>(key >> 7))});
        }
        return;
      }
      // Unpackable marginal (≥ 2^56 ticks): redo the sweep into Move
      // structs and sort with the explicit (marginal, start) comparator.
      CoverageCursor lo_retry(comps);
      CoverageCursor hi_retry(comps);
      for (std::int64_t s = a; s <= job.deadline.ticks(); s += grid_) {
        const std::int64_t covered = hi_retry.at(s + p) - lo_retry.at(s);
        moves.push_back(Move{j, Time(s), Time(p - covered)});
      }
      std::sort(moves.begin(), moves.end(),
                [](const Move& x, const Move& y) {
                  if (x.marginal != y.marginal) {
                    return x.marginal < y.marginal;
                  }
                  return x.start < y.start;
                });
      return;
    }
    auto& cands = cand_scratch_[depth];
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
      // Insertion sort: the candidate list is 2 + 4·|comps| entries; at
      // that size std::sort's introsort machinery costs more than the
      // sort, and the sorted result is identical (Time is totally
      // ordered).
      for (std::size_t i = 1; i < cands.size(); ++i) {
        const Time v = cands[i];
        std::size_t k = i;
        while (k > 0 && v < cands[k - 1]) {
          cands[k] = cands[k - 1];
          --k;
        }
        cands[k] = v;
      }
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
    sort_moves_general(moves);
  }

  /// Sorts general-mode moves by (marginal, job, start) — unique keys, so
  /// any correct sort yields the same deterministic order. The fast path
  /// packs (marginal, job, emission index) into one integer per move:
  /// emission order is (job asc, start asc), so the index ordering matches
  /// the start ordering within equal (marginal, job) and plain integer
  /// sorting reproduces the comparator order at a fraction of the cost.
  void sort_moves_general(std::vector<Move>& moves) {
    constexpr std::int64_t kMaxPackedMarginal = std::int64_t{1} << 44;
    constexpr std::size_t kMaxPackedMoves = std::size_t{1} << 14;
    bool packable = moves.size() <= kMaxPackedMoves;
    if (packable) {
      auto& keys = move_key_scratch_;
      keys.clear();
      for (std::size_t i = 0; i < moves.size(); ++i) {
        const Move& m = moves[i];
        if (m.marginal.ticks() >= kMaxPackedMarginal) {
          packable = false;
          break;
        }
        keys.push_back(
            (static_cast<std::uint64_t>(m.marginal.ticks()) << 20) |
            (static_cast<std::uint64_t>(m.job) << 14) |
            static_cast<std::uint64_t>(i));
      }
      if (packable) {
        if (keys.size() <= 32) {
          for (std::size_t i = 1; i < keys.size(); ++i) {
            const std::uint64_t v = keys[i];
            std::size_t k = i;
            while (k > 0 && v < keys[k - 1]) {
              keys[k] = keys[k - 1];
              --k;
            }
            keys[k] = v;
          }
        } else {
          std::sort(keys.begin(), keys.end());
        }
        auto& sorted = move_sort_scratch_;
        sorted.clear();
        for (const std::uint64_t key : keys) {
          sorted.push_back(moves[key & (kMaxPackedMoves - 1)]);
        }
        moves.swap(sorted);
        return;
      }
    }
    // Oversized list or unpackable marginal: comparator sort.
    std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
      if (a.marginal != b.marginal) {
        return a.marginal < b.marginal;
      }
      if (a.job != b.job) {
        return a.job < b.job;
      }
      return a.start < b.start;
    });
  }

  InstanceView view_;
  const ExactOptions* opts_ = nullptr;
  static constexpr std::int64_t kMaxGridStarts = 128;
  Time incumbent_;          // best known complete span
  std::size_t nodes_ = 0;   // search nodes so far, against opts_->max_nodes
  bool aborted_ = false;    // node budget ran out

  std::vector<Mask> lower_twins_;
  std::vector<JobId> by_arrival_;
  std::int64_t grid_ = 0;           // grid step in ticks; 0 = general mode
  std::vector<JobId> fixed_order_;  // fast path's per-depth job order
  std::vector<MandatoryRegion> mandatory_;  // sorted by left endpoint
  struct ParetoEntry {
    Time key;     // chain completion bound d(I) + p(I)
    Time weight;  // best chain weight ending by key
    Time lo;      // that chain's earliest arrival
  };
  std::vector<ParetoEntry> pareto_scratch_;  // chain_info DP frontier
  std::vector<std::uint64_t> move_key_scratch_;  // packed move-sort keys
  std::vector<Move> move_sort_scratch_;          // permute target for sort
  // chain_info memo: direct-indexed + epoch-stamped for small n, hash map
  // fallback above kChainDirectBits (2^n slots would no longer be cheap).
  static constexpr std::size_t kChainDirectBits = 12;
  bool chain_direct_active_ = false;
  std::uint32_t chain_epoch_ = 0;
  std::vector<ChainInfo> chain_direct_;
  std::vector<std::uint32_t> chain_stamp_;
  std::unordered_map<Mask, ChainInfo> chain_memo_;
  // General-mode sleep sets: per job, the starts whose subtrees an ancestor
  // already finished as earlier siblings on the current path, plus the push
  // order for unwinding. Empty whenever no solve() is on the stack.
  std::vector<std::vector<Time>> asleep_;
  std::vector<JobId> asleep_log_;
  // Depth-indexed scratch (the recursion touches one slot per level).
  std::vector<std::vector<Interval>> lb_scratch_;
  std::vector<std::vector<Time>> cand_scratch_;
  std::vector<std::vector<Move>> move_scratch_;
  std::vector<Components> comp_scratch_;
  std::vector<Components> la_scratch_;
  std::vector<std::vector<std::int64_t>> la_unc_scratch_;  // lookahead sweep
  // Per-depth packed (marginal << 7 | start-index) keys for the fused grid
  // expansion; per-depth because recursive children reuse the sweep state.
  std::vector<std::vector<std::uint64_t>> grid_key_scratch_;
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
    if (options.seed_schedule != nullptr) {
      options.seed_schedule->validate(view);
      const Time caller_span = options.seed_schedule->span(view);
      if (caller_span < seed_span) {
        seed_schedule = *options.seed_schedule;
        seed_span = caller_span;
      }
    }
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
