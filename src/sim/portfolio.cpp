#include "sim/portfolio.h"

#include <numeric>

#include "support/assert.h"

namespace fjs {
namespace {

/// Placeholder source for preloaded runs, which never consult it: the
/// engine's timeline was installed by Engine::preload_static.
class NullSource final : public JobSource {
 public:
  SourceAction begin() override { return {}; }
};

}  // namespace

void PreparedInstance::prepare(InstanceView view) {
  // Mirror StaticSource exactly: arrival order with the same sorted fast
  // path, so engine ids and arrival seqs match the classic replay bit for
  // bit.
  const std::size_t n = view.size();
  if (view.sorted_by_arrival()) {
    arrivals_.assign(view.arrivals().begin(), view.arrivals().end());
    deadlines_.assign(view.deadlines().begin(), view.deadlines().end());
    lengths_.assign(view.lengths().begin(), view.lengths().end());
    original_ids_.resize(n);
    std::iota(original_ids_.begin(), original_ids_.end(), JobId{0});
  } else {
    // Same (arrival, id) order as Instance::ids_by_arrival(); sorting into
    // member storage keeps re-preparing allocation-free once warm.
    view.ids_by_arrival(original_ids_);
    const auto gather = [this](std::vector<Time>& out,
                               std::span<const Time> column) {
      out.resize(original_ids_.size());
      for (std::size_t k = 0; k < out.size(); ++k) {
        out[k] = column[original_ids_[k]];
      }
    };
    gather(arrivals_, view.arrivals());
    gather(deadlines_, view.deadlines());
    gather(lengths_, view.lengths());
  }
  // Same model checks Engine::release applies to a StaticSource stream,
  // hoisted out of the per-replay path and run in release order. Views may
  // come from unvalidated scratch tables, so the checks stay even on the
  // view path.
  for (std::size_t i = 0; i < n; ++i) {
    FJS_REQUIRE(arrivals_[i] <= deadlines_[i],
                "prepare: job with deadline before arrival");
    FJS_REQUIRE(lengths_[i] > Time::zero(),
                "prepare: job with non-positive length");
    FJS_REQUIRE(deadlines_[i] <= Time::max() - lengths_[i],
                "prepare: job whose latest completion overflows the time "
                "axis");
  }
}

Time PortfolioRunner::shared_span(const PortfolioEntry& entry,
                                  std::vector<Time>* starts_engine_order) {
  NullSource source;
  NoDeferralOracle oracle;
  Engine engine(source, oracle, *entry.scheduler,
                EngineOptions{.clairvoyant = entry.clairvoyant,
                              .record_trace = false,
                              .reserve_jobs = prepared_.size()},
                workspace_.get());
  engine.preload_static(prepared_.arrivals(), prepared_.deadlines(),
                        prepared_.lengths());
  return engine.run_span(starts_engine_order);
}

Time PortfolioRunner::adaptive_span(const Instance& instance,
                                    const PortfolioEntry& entry,
                                    const PortfolioOptions& options) {
  std::unique_ptr<JobSource> source;
  if (options.source_factory) {
    source = options.source_factory(instance);
  } else {
    source = std::make_unique<StaticSource>(instance);
  }
  std::unique_ptr<LengthOracle> oracle;
  if (options.oracle_factory) {
    oracle = options.oracle_factory(instance);
  }
  NoDeferralOracle no_deferral;
  LengthOracle& oracle_ref = oracle ? *oracle : no_deferral;
  Engine engine(*source, oracle_ref, *entry.scheduler,
                EngineOptions{.clairvoyant = entry.clairvoyant,
                              .record_trace = false,
                              .reserve_jobs = instance.size()},
                workspace_.get());
  return engine.run_span();
}

bool PortfolioRunner::run_spans(const Instance& instance,
                                std::span<const PortfolioEntry> entries,
                                std::vector<Time>& spans_out,
                                const PortfolioOptions& options) {
  if (!options.adaptive()) {
    run_spans(instance.view(), entries, spans_out);
    return true;
  }
  // The realized timeline depends on scheduler behavior: never share.
  spans_out.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    spans_out[i] = adaptive_span(instance, entries[i], options);
  }
  return false;
}

void PortfolioRunner::run_spans(InstanceView view,
                                std::span<const PortfolioEntry> entries,
                                std::vector<Time>& spans_out) {
  spans_out.resize(entries.size());
  prepared_.prepare(view);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    spans_out[i] = shared_span(entries[i], nullptr);
  }
}

Time PortfolioRunner::run_span(InstanceView view, const PortfolioEntry& entry,
                               std::vector<Time>* starts_out) {
  prepared_.prepare(view);
  if (starts_out == nullptr) {
    return shared_span(entry, nullptr);
  }
  const Time span = shared_span(entry, &starts_scratch_);
  // Engine order is arrival order; hand the caller starts under the
  // instance's own ids.
  starts_out->resize(starts_scratch_.size());
  const std::vector<JobId>& original = prepared_.original_ids();
  for (std::size_t k = 0; k < starts_scratch_.size(); ++k) {
    (*starts_out)[original[k]] = starts_scratch_[k];
  }
  return span;
}

Time PortfolioRunner::run_span(const Instance& instance,
                               const PortfolioEntry& entry,
                               std::vector<Time>* starts_out,
                               const PortfolioOptions& options) {
  if (options.adaptive()) {
    FJS_REQUIRE(starts_out == nullptr,
                "run_span: start capture requires the shared timeline");
    return adaptive_span(instance, entry, options);
  }
  return run_span(instance.view(), entry, starts_out);
}

std::vector<SimulationResult> PortfolioRunner::run_full(
    const Instance& instance, std::span<const PortfolioEntry> entries,
    const PortfolioOptions& options) {
  std::vector<SimulationResult> results;
  results.reserve(entries.size());
  const bool adaptive = options.adaptive();
  if (!adaptive) {
    prepared_.prepare(instance);
  }
  for (const PortfolioEntry& entry : entries) {
    const EngineOptions engine_options{.clairvoyant = entry.clairvoyant,
                                       .record_trace = options.record_trace,
                                       .reserve_jobs = instance.size()};
    if (adaptive) {
      std::unique_ptr<JobSource> source;
      if (options.source_factory) {
        source = options.source_factory(instance);
      } else {
        source = std::make_unique<StaticSource>(instance);
      }
      std::unique_ptr<LengthOracle> oracle;
      if (options.oracle_factory) {
        oracle = options.oracle_factory(instance);
      }
      NoDeferralOracle no_deferral;
      LengthOracle& oracle_ref = oracle ? *oracle : no_deferral;
      Engine engine(*source, oracle_ref, *entry.scheduler, engine_options,
                    workspace_.get());
      results.push_back(engine.run());
    } else {
      NullSource source;
      NoDeferralOracle oracle;
      Engine engine(source, oracle, *entry.scheduler, engine_options,
                    workspace_.get());
      engine.preload_static(prepared_.arrivals(), prepared_.deadlines(),
                            prepared_.lengths());
      results.push_back(engine.run());
    }
  }
  return results;
}

PortfolioSpanResult simulate_portfolio_spans(
    const Instance& instance, std::span<const PortfolioEntry> entries,
    const PortfolioOptions& options) {
  thread_local PortfolioRunner runner;
  PortfolioSpanResult result;
  result.shared_timeline = runner.run_spans(instance, entries, result.spans,
                                            options);
  return result;
}

std::vector<SimulationResult> simulate_portfolio(
    const Instance& instance, std::span<const PortfolioEntry> entries,
    const PortfolioOptions& options) {
  thread_local PortfolioRunner runner;
  return runner.run_full(instance, entries, options);
}

}  // namespace fjs
