#include "sim/portfolio.h"

#include "support/assert.h"

namespace fjs {
namespace {

/// Placeholder source for preloaded runs, which never consult it: the
/// engine's timeline was installed by Engine::preload_static.
class NullSource final : public JobSource {
 public:
  SourceAction begin() override { return {}; }
};

/// The runner behind simulate()/simulate_span(): one per thread, so a
/// thread's back-to-back calls reuse its columns and workspace.
PortfolioRunner& thread_runner() {
  thread_local PortfolioRunner runner;
  return runner;
}

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
  } else {
    // Same (arrival, id) order as Instance::ids_by_arrival(); sorting into
    // member storage keeps re-preparing allocation-free once warm.
    view.ids_by_arrival(by_arrival_);
    const auto gather = [this](std::vector<Time>& out,
                               std::span<const Time> column) {
      out.resize(by_arrival_.size());
      for (std::size_t k = 0; k < out.size(); ++k) {
        out[k] = column[by_arrival_[k]];
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

Time PortfolioRunner::replay_span(const PortfolioEntry& entry) {
  NullSource source;
  NoDeferralOracle oracle;
  Engine engine(source, oracle, *entry.scheduler,
                EngineOptions{.clairvoyant = entry.clairvoyant}, &workspace_);
  engine.preload_static(prepared_.arrivals(), prepared_.deadlines(),
                        prepared_.lengths());
  return engine.run_span();
}

void PortfolioRunner::run_spans(InstanceView view,
                                std::span<const PortfolioEntry> entries,
                                std::vector<Time>& spans_out) {
  spans_out.resize(entries.size());
  prepared_.prepare(view);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    spans_out[i] = replay_span(entries[i]);
  }
}

Time PortfolioRunner::run_span(InstanceView view,
                               const PortfolioEntry& entry) {
  prepared_.prepare(view);
  return replay_span(entry);
}

SimulationResult PortfolioRunner::run_full(InstanceView view,
                                           const PortfolioEntry& entry,
                                           bool record_trace) {
  prepared_.prepare(view);
  NullSource source;
  NoDeferralOracle oracle;
  Engine engine(source, oracle, *entry.scheduler,
                EngineOptions{.clairvoyant = entry.clairvoyant,
                              .record_trace = record_trace},
                &workspace_);
  engine.preload_static(prepared_.arrivals(), prepared_.deadlines(),
                        prepared_.lengths());
  return engine.run();
}

SimulationResult simulate(InstanceView instance, OnlineScheduler& scheduler,
                          bool clairvoyant, bool record_trace) {
  return thread_runner().run_full(
      instance, PortfolioEntry{&scheduler, clairvoyant}, record_trace);
}

Time simulate_span(InstanceView instance, OnlineScheduler& scheduler,
                   bool clairvoyant) {
  return thread_runner().run_span(instance,
                                  PortfolioEntry{&scheduler, clairvoyant});
}

}  // namespace fjs
