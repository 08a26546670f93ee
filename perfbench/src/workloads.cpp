#include "workloads.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <sstream>

#include "adversary/instance_miner.h"
#include "analysis/sweep.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "offline/exact.h"
#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "sim/portfolio.h"
#include "support/assert.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace perfbench {
namespace {

using fjs::Instance;
using fjs::Time;

/// Order-sensitive 64-bit mix for output digests.
class Hasher {
 public:
  Hasher& add(std::uint64_t v) {
    state_ ^= v + 0x9E3779B97F4A7C15ULL + (state_ << 6) + (state_ >> 2);
    return *this;
  }
  Hasher& add(std::int64_t v) { return add(static_cast<std::uint64_t>(v)); }
  Hasher& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  Hasher& add(Time t) { return add(t.ticks()); }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

const fjs::WorkloadConfig& suite_config(const std::string& family) {
  for (const fjs::NamedWorkload& named : fjs::standard_suite()) {
    if (named.name == family) return named.config;
  }
  FJS_UNREACHABLE("perfbench: unknown standard_suite family " + family);
}

/// Per-workload seed stream: distinct, reproducible seeds for corpus items.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x100000001B3ULL + salt + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string fail(const std::string& what, std::size_t item) {
  std::ostringstream os;
  os << "item " << item << ": " << what;
  return os.str();
}

/// Registry key as a metric-name component: "batch+" -> "batch_plus".
std::string metric_key(const std::string& key) {
  std::string out;
  for (char c : key) {
    if (c == '+') {
      out += "_plus";
    } else if (c != '*') {
      out += c;
    }
  }
  return out;
}

/// Every registry scheduler, built once and reused (the engine resets a
/// scheduler before each replay).
struct SchedulerSet {
  SchedulerSet() {
    for (const fjs::SchedulerSpec& spec : fjs::scheduler_registry()) {
      keys.push_back(spec.key);
      owned.push_back(spec.make());
      entries.push_back(fjs::PortfolioEntry{owned.back().get(),
                                            spec.clairvoyant});
    }
  }
  std::vector<std::string> keys;
  std::vector<std::unique_ptr<fjs::OnlineScheduler>> owned;
  std::vector<fjs::PortfolioEntry> entries;
};

// ---------------------------------------------------------------------------
// stream: few large instances replayed through every registry scheduler.
// The sim engine and the schedulers do all of the timed work; prefix replay
// stays off (a fresh runner's default), so every run replays from t=0.

class StreamWorkload final : public Workload {
 public:
  explicit StreamWorkload(Tracer& tracer) : tracer_(tracer) {}

  const char* work_unit() const override { return "simulated jobs"; }

  double build(std::uint64_t seed, Size size) override {
    const std::size_t jobs = size == Size::kFull ? 50'000 : 2'000;
    const auto start = std::chrono::steady_clock::now();
    const char* families[] = {"uniform-hi-lax", "bursty", "heavy-tail",
                              "bimodal"};
    for (std::size_t f = 0; f < std::size(families); ++f) {
      fjs::WorkloadConfig config = suite_config(families[f]);
      config.job_count = jobs;
      instances_.push_back(
          fjs::generate_workload(config, derive_seed(seed, f)));
    }
    const double generate_s = seconds_since(start);
    for (const Instance& instance : instances_) instance.view().validate();
    seed_ = seed;
    spans_.assign(items(), Time::zero());
    lower_bounds_.assign(instances_.size(), Time::min());
    return generate_s;
  }

  std::size_t items() const override {
    return instances_.size() * schedulers_.entries.size();
  }

  void run(std::size_t item) override {
    const Scope scope(tracer_, "sim.run_span");
    spans_[item] = runner_.run_span(instance_of(item), entry_of(item));
  }

  ItemResult check(std::size_t item) override {
    const Instance& instance = instance_of(item);
    Time& lb = lower_bounds_[item / schedulers_.entries.size()];
    if (lb == Time::min()) lb = fjs::best_lower_bound(instance);
    const Time span = spans_[item];
    ItemResult result;
    result.hash = Hasher().add(span).value();
    result.work = static_cast<double>(instance.size());
    if (span < lb) {
      result.failure = fail("span below best_lower_bound", item);
    } else if (span > instance.latest_completion() -
                          instance.earliest_arrival()) {
      result.failure = fail("span exceeds the instance horizon", item);
    }
    return result;
  }

  std::vector<std::string> check_once() override {
    std::vector<std::string> failures;
    const std::size_t per = schedulers_.entries.size();
    const std::size_t base = (seed_ % instances_.size()) * per;
    for (std::size_t k = 0; k < per; ++k) {
      const fjs::PortfolioEntry& entry = schedulers_.entries[k];
      const Time direct = fjs::simulate_span(instance_of(base + k),
                                             *entry.scheduler,
                                             entry.clairvoyant);
      if (direct != spans_[base + k]) {
        failures.push_back(
            fail("run_span differs from simulate_span", base + k));
      }
    }
    return failures;
  }

  std::string trace_extras(std::size_t item) override {
    if (item % schedulers_.entries.size() == 0) {
      const Scope scope(tracer_, "sim.prepare");
      prepared_.prepare(instance_of(item));
    }
    return "";
  }

  void layer_metrics(const TracedPhase& phase,
                     std::map<std::string, double>& out) const override {
    const std::size_t per = schedulers_.entries.size();
    std::vector<double> jobs(per, 0.0);
    std::vector<double> ms(per, 0.0);
    for (std::size_t i = 0; i < phase.item_index.size(); ++i) {
      const std::size_t item = phase.item_index[i];
      jobs[item % per] += static_cast<double>(instance_of(item).size());
      ms[item % per] += phase.item_ms[i];
    }
    for (std::size_t k = 0; k < per; ++k) {
      out["schedulers." + metric_key(schedulers_.keys[k]) + ".jobs_per_s"] =
          ms[k] > 0.0 ? jobs[k] / (ms[k] / 1e3) : 0.0;
    }
  }

 private:
  const Instance& instance_of(std::size_t item) const {
    return instances_[item / schedulers_.entries.size()];
  }
  const fjs::PortfolioEntry& entry_of(std::size_t item) const {
    return schedulers_.entries[item % schedulers_.entries.size()];
  }

  Tracer& tracer_;
  SchedulerSet schedulers_;
  fjs::PortfolioRunner runner_;
  fjs::PreparedInstance prepared_;
  std::vector<Instance> instances_;
  std::vector<Time> spans_;
  std::vector<Time> lower_bounds_;
  std::uint64_t seed_ = 0;
};

// ---------------------------------------------------------------------------
// sweep: bracket-method ratio sweeps over standard_suite batches on an
// explicit two-worker pool (three threads with the waiting caller). The
// offline heuristic dominates; this is the only multi-threaded workload.

class SweepWorkload final : public Workload {
 public:
  static constexpr std::size_t kPoolThreads = 2;

  explicit SweepWorkload(Tracer& tracer)
      : tracer_(tracer), pool_(kPoolThreads) {
    decomposed_runner_.enable_prefix_replay();  // as run_ratio_sweep does
  }

  const char* work_unit() const override { return "cases"; }
  std::size_t pool_size() const override { return kPoolThreads; }

  double build(std::uint64_t seed, Size size) override {
    // Two cases of every family per batch: batches cost about the same, and
    // sixteen uneven cases keep three threads busy and leave the pool work
    // to steal around a stalled thread, so an item's time is not set by one
    // slow case on one stalled thread.
    const auto& suite = fjs::standard_suite();
    const std::size_t batches = size == Size::kFull ? 16 : 2;
    const std::size_t cases_per_batch =
        size == Size::kFull ? 2 * suite.size() : suite.size();
    const std::size_t jobs = size == Size::kFull ? 300 : 60;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t b = 0; b < batches; ++b) {
      std::vector<fjs::SweepCase> batch;
      for (std::size_t c = 0; c < cases_per_batch; ++c) {
        const std::size_t index = b * cases_per_batch + c;
        const fjs::NamedWorkload& family = suite[index % suite.size()];
        fjs::WorkloadConfig config = family.config;
        config.job_count = jobs;
        const std::uint64_t case_seed = derive_seed(seed, index);
        batch.push_back(fjs::SweepCase{
            family.name, case_seed,
            fjs::generate_workload(config, case_seed)});
      }
      batches_.push_back(std::move(batch));
    }
    const double generate_s = seconds_since(start);
    for (const auto& batch : batches_) {
      for (const fjs::SweepCase& c : batch) c.instance.view().validate();
    }
    results_.resize(batches_.size());
    heuristic_beaten_.assign(batches_.size(), 0);
    return generate_s;
  }

  std::size_t items() const override { return batches_.size(); }

  void run(std::size_t item) override {
    const Scope scope(tracer_, "analysis.run_ratio_sweep");
    fjs::SweepOptions options;
    options.pool = &pool_;
    results_[item] =
        fjs::run_ratio_sweep(batches_[item], schedulers_.keys, options);
  }

  ItemResult check(std::size_t item) override {
    ItemResult result;
    result.work = static_cast<double>(batches_[item].size());
    Hasher hash;
    const std::size_t cases = batches_[item].size();
    heuristic_beaten_[item] = 0;
    for (const fjs::SchedulerAggregate& agg : results_[item]) {
      const auto& lower = agg.ratio_lower.samples();
      const auto& upper = agg.ratio_upper.samples();
      if (lower.size() != cases || upper.size() != cases) {
        result.failure = fail("missing ratios for " + agg.scheduler_key, item);
        return result;
      }
      for (std::size_t c = 0; c < cases; ++c) {
        hash.add(lower[c]).add(upper[c]).add(agg.spans.samples()[c]);
        // span >= OPT >= lower bound and heuristic >= lower bound always
        // hold; span >= heuristic does not (an online run may beat the
        // offline heuristic), so ratio_lower < 1 is counted, not failed.
        if (!(0.0 < lower[c] && lower[c] <= upper[c] && 1.0 <= upper[c])) {
          result.failure = fail("ratio bracket out of order for " +
                                    agg.scheduler_key,
                                item);
        }
        if (lower[c] < 1.0) ++heuristic_beaten_[item];
      }
    }
    result.hash = hash.value();
    return result;
  }

  std::vector<std::string> check_once() override {
    fjs::SweepOptions options;
    options.serial = true;
    if (!same_ratios(fjs::run_ratio_sweep(batches_[0], schedulers_.keys,
                                          options),
                     results_[0])) {
      return {fail("serial sweep differs from the pooled sweep", 0)};
    }
    return {};
  }

  // Re-runs the item serially, once whole and once as its public parts;
  // the order alternates between items so neither re-run always finds the
  // caches warmed by the other.
  std::string trace_extras(std::size_t item) override {
    std::string failure;
    if (item % 2 == 0) {
      failure = serial_rerun(item);
      if (failure.empty()) failure = decomposed_rerun(item);
    } else {
      failure = decomposed_rerun(item);
      if (failure.empty()) failure = serial_rerun(item);
    }
    return failure;
  }

  void layer_metrics(const TracedPhase& /*phase*/,
                     std::map<std::string, double>& out) const override {
    double beaten = 0.0;
    for (std::size_t n : heuristic_beaten_) beaten += static_cast<double>(n);
    out["offline.heuristic_beaten"] = beaten;
  }

 private:
  std::string serial_rerun(std::size_t item) {
    std::vector<fjs::SchedulerAggregate> serial;
    {
      const Scope scope(tracer_, "support.serial_sweep");
      fjs::SweepOptions options;
      options.serial = true;
      serial = fjs::run_ratio_sweep(batches_[item], schedulers_.keys, options);
    }
    if (!same_ratios(serial, results_[item])) {
      return fail("serial sweep differs from the pooled sweep", item);
    }
    return "";
  }

  // The item as its public parts: heuristic_span + best_lower_bound per
  // case, then run_spans per case.
  std::string decomposed_rerun(std::size_t item) {
    const auto& batch = batches_[item];
    std::vector<Time> upper(batch.size());
    std::vector<Time> lower(batch.size());
    std::vector<std::vector<Time>> spans(batch.size());
    {
      const Scope decomposed(tracer_, "analysis.decomposed_item");
      {
        const Scope bounds(tracer_, "analysis.bounds");
        for (std::size_t c = 0; c < batch.size(); ++c) {
          {
            const Scope s(tracer_, "offline.heuristic_span");
            upper[c] = fjs::heuristic_span(batch[c].instance);
          }
          const Scope s(tracer_, "offline.best_lower_bound");
          lower[c] = fjs::best_lower_bound(batch[c].instance);
        }
      }
      const Scope sim(tracer_, "analysis.sim");
      for (std::size_t c = 0; c < batch.size(); ++c) {
        const Scope s(tracer_, "sim.run_spans");
        decomposed_runner_.run_spans(batch[c].instance, schedulers_.entries,
                                     spans[c]);
      }
    }
    for (std::size_t k = 0; k < schedulers_.keys.size(); ++k) {
      const fjs::SchedulerAggregate& agg = results_[item][k];
      for (std::size_t c = 0; c < batch.size(); ++c) {
        if (agg.ratio_lower.samples()[c] !=
                fjs::time_ratio(spans[c][k], upper[c]) ||
            agg.ratio_upper.samples()[c] !=
                fjs::time_ratio(spans[c][k], lower[c])) {
          return fail("decomposed sweep differs for " + agg.scheduler_key,
                      item);
        }
      }
    }
    return "";
  }

  static bool same_ratios(const std::vector<fjs::SchedulerAggregate>& a,
                          const std::vector<fjs::SchedulerAggregate>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k].ratio_lower.samples() != b[k].ratio_lower.samples() ||
          a[k].ratio_upper.samples() != b[k].ratio_upper.samples() ||
          a[k].spans.samples() != b[k].spans.samples()) {
        return false;
      }
    }
    return true;
  }

  Tracer& tracer_;
  fjs::ThreadPool pool_;
  SchedulerSet schedulers_;
  fjs::PortfolioRunner decomposed_runner_;
  std::vector<std::vector<fjs::SweepCase>> batches_;
  std::vector<std::vector<fjs::SchedulerAggregate>> results_;
  /// Per batch: (case, scheduler) pairs whose online span beat the
  /// heuristic's OPT upper bound.
  std::vector<std::size_t> heuristic_beaten_;
};

// ---------------------------------------------------------------------------
// certify: exact optimum with a witness schedule for a fixed corpus of small
// integral instances; the branch-and-bound does all of the timed work.
//
// The corpus is generated from a fixed seed, not the workload seed: solve
// cost is heavy-tailed (a few instances take most of a pass), so corpora
// drawn per seed differ in total cost by a factor of two to three and
// throughput would measure the draw instead of the solver. Relabeling jobs
// is no way out either: it changes how large the biggest transposition
// cache of a pass grows, and the solver's thread-local cache is cleared in
// time proportional to its largest size so far, which moves every later
// solve. The workload seed instead shifts each instance in time by whole
// units and permutes the item order: same searches, different inputs.

class CertifyWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kCorpusSeed = 0xCE27F1ULL;

  explicit CertifyWorkload(Tracer& tracer) : tracer_(tracer) {}

  const char* work_unit() const override { return "instances"; }

  double build(std::uint64_t seed, Size size) override {
    const std::size_t per_family = size == Size::kFull ? 100 : 3;
    const std::size_t jobs = size == Size::kFull ? 15 : 10;
    const auto families = fjs::integral_suite(jobs);
    fjs::Rng rng(derive_seed(seed, 0));
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < per_family; ++r) {
      for (std::size_t f = 0; f < families.size(); ++f) {
        const Instance base = fjs::generate_workload(
            families[f].config,
            derive_seed(kCorpusSeed, r * families.size() + f));
        std::vector<fjs::Job> jobs_out;
        for (fjs::JobId j = 0; j < base.size(); ++j) {
          jobs_out.push_back(base.job(j));
        }
        const Time shift(Time::kTicksPerUnit *
                         static_cast<std::int64_t>(rng() % 8));
        for (fjs::Job& job : jobs_out) {
          job.arrival += shift;
          job.deadline += shift;
        }
        corpus_.emplace_back(std::move(jobs_out));
      }
    }
    std::shuffle(corpus_.begin(), corpus_.end(), rng);
    const double generate_s = seconds_since(start);
    for (const Instance& instance : corpus_) instance.view().validate();
    results_.resize(corpus_.size());
    bounds_.assign(corpus_.size(), {Time::min(), Time::min()});
    nodes_.assign(corpus_.size(), 0);
    cache_hits_.assign(corpus_.size(), 0);
    return generate_s;
  }

  std::size_t items() const override { return corpus_.size(); }

  void run(std::size_t item) override {
    const Scope scope(tracer_, "offline.exact_optimal");
    results_[item] = fjs::exact_optimal(corpus_[item]);
  }

  ItemResult check(std::size_t item) override {
    const Instance& instance = corpus_[item];
    const fjs::ExactResult& r = results_[item];
    nodes_[item] = r.nodes_explored;
    cache_hits_[item] = r.cache_hits;
    auto& [lb, ub] = bounds_[item];
    if (lb == Time::min()) {
      lb = fjs::best_lower_bound(instance);
      ub = fjs::heuristic_span(instance);
    }
    ItemResult result;
    result.work = 1.0;
    Hasher hash;
    hash.add(r.span);
    for (const auto& start : r.schedule.starts()) {
      hash.add(start.value_or(Time::min()));
    }
    result.hash = hash.value();
    if (!r.optimal()) {
      result.failure = fail("exact solver did not certify optimality", item);
    } else if (!r.schedule.complete() || !r.schedule.is_valid(instance) ||
               r.schedule.span(instance) != r.span) {
      result.failure = fail("witness schedule does not achieve the span", item);
    } else if (r.span < lb || r.span > ub) {
      result.failure = fail("OPT outside [lower bound, heuristic]", item);
    }
    return result;
  }

  // The legacy grid solver is the differential oracle for the
  // branch-and-bound. It can take seconds at this size, so it runs under a
  // node budget on the first 32 items, and the first four instances it
  // settles are compared.
  std::vector<std::string> check_once() override {
    fjs::ExactOptions budget;
    budget.max_nodes = 200'000;
    std::size_t compared = 0;
    for (std::size_t item = 0;
         item < std::min<std::size_t>(32, items()) && compared < 4; ++item) {
      Time reference;
      try {
        reference = fjs::exact_optimal_span_reference(corpus_[item], budget);
      } catch (const fjs::AssertionError&) {
        continue;  // budget exhausted: no verdict either way
      }
      ++compared;
      if (reference != results_[item].span) {
        return {fail("span differs from the reference solver", item)};
      }
    }
    if (compared == 0) return {"no instance settled by the reference solver"};
    return {};
  }

  void layer_metrics(const TracedPhase& phase,
                     std::map<std::string, double>& out) const override {
    double nodes = 0.0;
    double hits = 0.0;
    for (std::size_t item = 0; item < corpus_.size(); ++item) {
      nodes += static_cast<double>(nodes_[item]);
      hits += static_cast<double>(cache_hits_[item]);
    }
    double traced_nodes = 0.0;
    double traced_ms = 0.0;
    for (std::size_t i = 0; i < phase.item_index.size(); ++i) {
      traced_nodes += static_cast<double>(nodes_[phase.item_index[i]]);
      traced_ms += phase.item_ms[i];
    }
    out["offline.exact_nodes"] = nodes;
    out["offline.exact_nodes_per_s"] =
        traced_ms > 0.0 ? traced_nodes / (traced_ms / 1e3) : 0.0;
    out["offline.exact_cache_hit_ratio"] = nodes > 0.0 ? hits / nodes : 0.0;
  }

 private:
  Tracer& tracer_;
  std::vector<Instance> corpus_;
  std::vector<fjs::ExactResult> results_;
  std::vector<std::pair<Time, Time>> bounds_;  ///< (lower bound, heuristic)
  std::vector<std::size_t> nodes_;
  std::vector<std::size_t> cache_hits_;
};

// ---------------------------------------------------------------------------
// mine: serial worst-case mining at the E14 search shape for the paper's
// schedulers: thousands of tiny mutated instances per call, memo hits,
// lower-bound screening, prefix replay and decision-floor exact solves.

class MineWorkload final : public Workload {
 public:
  explicit MineWorkload(Tracer& tracer) : tracer_(tracer) {}

  const char* work_unit() const override { return "candidates"; }

  double build(std::uint64_t seed, Size size) override {
    const std::size_t seeds = size == Size::kFull ? 8 : 1;
    const auto start = std::chrono::steady_clock::now();
    const char* keys[] = {"batch", "batch+", "cdb",      "profit",
                          "eager", "lazy",   "doubler*", "overlap"};
    for (std::size_t s = 0; s < seeds; ++s) {
      for (std::size_t k = 0; k < std::size(keys); ++k) {
        fjs::MinerOptions options;  // E14's full-profile search shape
        options.population = size == Size::kFull ? 512 : 16;
        options.rounds = size == Size::kFull ? 160 : 4;
        options.mutations_per_round = size == Size::kFull ? 64 : 8;
        options.jobs = size == Size::kFull ? 10 : 8;
        options.seed = derive_seed(seed, s * std::size(keys) + k);
        targets_.push_back(Target{keys[k], options});
      }
    }
    results_.resize(targets_.size());
    return seconds_since(start);
  }

  std::size_t items() const override { return targets_.size(); }

  void run(std::size_t item) override {
    const Scope scope(tracer_, "adversary.mine_worst_case");
    results_[item] =
        fjs::mine_worst_case(targets_[item].key, targets_[item].options);
  }

  ItemResult check(std::size_t item) override {
    const fjs::MinerResult& r = results_[item];
    ItemResult result;
    result.work = static_cast<double>(r.evaluations);
    Hasher hash;
    hash.add(r.worst_ratio)
        .add(static_cast<std::uint64_t>(r.evaluations))
        .add(static_cast<std::uint64_t>(r.memo_hits))
        .add(static_cast<std::uint64_t>(r.screen_rejects))
        .add(static_cast<std::uint64_t>(r.budget_skips));
    for (double v : r.trajectory) hash.add(v);
    const fjs::InstanceView view = r.worst_instance.view();
    for (std::size_t j = 0; j < view.size(); ++j) {
      const fjs::JobId id = static_cast<fjs::JobId>(j);
      hash.add(view.arrival(id)).add(view.deadline(id)).add(view.length(id));
    }
    result.hash = hash.value();
    if (r.trajectory.empty() ||
        !std::is_sorted(r.trajectory.begin(), r.trajectory.end()) ||
        r.trajectory.back() != r.worst_ratio) {
      result.failure = fail("trajectory is not non-decreasing", item);
      return result;
    }
    // Re-simulate and re-certify the mined instance through the plain
    // (non-portfolio, non-view) entry points.
    const auto scheduler = fjs::make_scheduler(targets_[item].key);
    const Time span =
        fjs::simulate_span(r.worst_instance, *scheduler,
                           scheduler->requires_clairvoyance());
    const Time opt = fjs::exact_optimal_span(r.worst_instance);
    if (fjs::time_ratio(span, opt) != r.worst_ratio || r.worst_ratio < 1.0) {
      result.failure = fail("worst_ratio does not reproduce", item);
    }
    return result;
  }

  std::vector<std::string> check_once() override { return {}; }

  void layer_metrics(const TracedPhase& phase,
                     std::map<std::string, double>& out) const override {
    double evaluations = 0.0;
    double memo = 0.0;
    double screened = 0.0;
    double skips = 0.0;
    for (const fjs::MinerResult& r : results_) {
      evaluations += static_cast<double>(r.evaluations);
      memo += static_cast<double>(r.memo_hits);
      screened += static_cast<double>(r.screen_rejects);
      skips += static_cast<double>(r.budget_skips);
    }
    double traced_candidates = 0.0;
    double traced_ms = 0.0;
    for (std::size_t i = 0; i < phase.item_index.size(); ++i) {
      traced_candidates +=
          static_cast<double>(results_[phase.item_index[i]].evaluations);
      traced_ms += phase.item_ms[i];
    }
    out["adversary.candidates_per_s"] =
        traced_ms > 0.0 ? traced_candidates / (traced_ms / 1e3) : 0.0;
    out["adversary.fresh_evals"] = evaluations - memo - screened;
    out["adversary.memo_hit_ratio"] =
        evaluations > 0.0 ? memo / evaluations : 0.0;
    out["adversary.screen_reject_ratio"] =
        evaluations > 0.0 ? screened / evaluations : 0.0;
    out["adversary.budget_skips"] = skips;
  }

 private:
  struct Target {
    std::string key;
    fjs::MinerOptions options;
  };

  Tracer& tracer_;
  std::vector<Target> targets_;
  std::vector<fjs::MinerResult> results_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Tracer& tracer) {
  if (name == "stream") return std::make_unique<StreamWorkload>(tracer);
  if (name == "sweep") return std::make_unique<SweepWorkload>(tracer);
  if (name == "certify") return std::make_unique<CertifyWorkload>(tracer);
  if (name == "mine") return std::make_unique<MineWorkload>(tracer);
  return nullptr;
}

}  // namespace perfbench
