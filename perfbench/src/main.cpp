// fjs_perfbench: end-to-end and per-layer benchmark for libfjs.
//
//   fjs_perfbench --workload stream|sweep|certify|mine --seed N --seconds S
//                 --trace 0|1 [--size full|tiny] [--trace-out FILE]
//                 [--git-sha SHA]
//
// A run sets the workload up several times in-process (setup_s is the
// median), then cycles over the workload's fixed corpus in whole passes
// until S seconds have elapsed. Only the public library call of each item
// is on the clock; its output checks run right after it, off the clock.
// Calibration slices interleaved with the items and around each set-up
// measure the host's speed, and every reported time is scaled to the
// reference speed (calibrate.h); the raw figures go to the provenance line.
// With --trace 1 untraced passes alternate with traced ones (spans around
// every public call), which yields the per-layer metrics and the tracing
// overhead.
//
// stdout: a "provenance {...}" line, then the result as the last line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "spans.h"
#include "support/json.h"
#include "support/stats.h"
#include "support/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"throughput", "1/s"},
    {"item_p50_ms", "ms"},
    {"item_p90_ms", "ms"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.run_span_ms", "ms"},
    {"sim.prepare_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"schedulers.eager.jobs_per_s", "1/s"},
    {"schedulers.lazy.jobs_per_s", "1/s"},
    {"schedulers.random.jobs_per_s", "1/s"},
    {"schedulers.batch.jobs_per_s", "1/s"},
    {"schedulers.batch_plus.jobs_per_s", "1/s"},
    {"schedulers.cdb.jobs_per_s", "1/s"},
    {"schedulers.profit.jobs_per_s", "1/s"},
    {"schedulers.doubler.jobs_per_s", "1/s"},
    {"schedulers.overlap.jobs_per_s", "1/s"},
    {"sim.prefix_hit_ratio", "ratio"},
    {"sim.prefix_depth_mean", "count"},
    {"offline.heuristic_ms", "ms"},
    {"offline.heuristic_beaten", "count"},
    {"offline.lower_bound_ms", "ms"},
    {"offline.exact_ms", "ms"},
    {"offline.exact_nodes", "count"},
    {"offline.exact_nodes_per_s", "1/s"},
    {"offline.exact_cache_hit_ratio", "ratio"},
    {"adversary.candidates_per_s", "1/s"},
    {"adversary.fresh_evals", "count"},
    {"adversary.memo_hit_ratio", "ratio"},
    {"adversary.screen_reject_ratio", "ratio"},
    {"adversary.budget_skips", "count"},
    {"analysis.bounds_ms", "ms"},
    {"analysis.sim_ms", "ms"},
    {"analysis.unaccounted_frac", "ratio"},
    {"support.pool_speedup", "ratio"},
    {"support.pool_steals", "count"},
    {"workload.generate_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

/// Calibration slices run before and after each set-up pass.
constexpr std::size_t kSetupSlices = 8;
constexpr std::size_t kMinSetupPasses = 7;
constexpr std::size_t kMaxSetupPasses = 25;
constexpr double kSetupBudgetS = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string trace_out;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "fjs_perfbench: " << error
            << "\nusage: fjs_perfbench --workload stream|sweep|certify|mine"
               " --seed N --seconds S --trace 0|1 [--size full|tiny]"
               " [--trace-out FILE] [--git-sha SHA]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") usage("bad --size " + value);
        args.size = value == "full" ? Size::kFull : Size::kTiny;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(const std::vector<double>& values) {
  fjs::Summary summary;
  for (double v : values) summary.add(v);
  return summary.median();
}

/// Items of one phase: which corpus item ran, and its timed duration.
struct Phase {
  std::vector<std::size_t> item_index;
  std::vector<double> item_ms;      ///< scaled to the reference speed
  std::vector<double> raw_item_ms;  ///< as measured
  std::vector<double> pass_throughput;  ///< work per timed second, per pass
  std::vector<double> raw_pass_throughput;
  std::vector<double> pass_factor;  ///< speed factor applied to each pass
  std::map<std::string, double> counters;  ///< traced phase only
};

class Runner {
 public:
  /// A calibration slice runs after every this much timed item time, and
  /// at least once per pass.
  static constexpr double kSliceEveryMs = 5.0;

  Runner(Workload& workload, Tracer& tracer, Calibrator& calibrator)
      : workload_(workload),
        tracer_(tracer),
        calibrator_(calibrator),
        reference_(workload.items()) {}

  /// One whole pass over the corpus, traced if the tracer is enabled. The
  /// pass's item times are scaled by the speed factor of the slices that
  /// ran between its items.
  void run_pass(Phase& phase) {
    const bool traced = tracer_.enabled();
    const std::size_t first = phase.item_ms.size();
    const std::size_t items = workload_.items();
    double work = 0.0;
    double slice_ms = 0.0;
    std::size_t slices = 0;
    double since_slice_ms = 0.0;
    for (std::size_t item = 0; item < items; ++item) {
      const std::size_t timed = phase.item_ms.size();
      work += run_item(item, traced, phase);
      if (phase.item_ms.size() > timed) since_slice_ms += phase.item_ms.back();
      if (since_slice_ms >= kSliceEveryMs ||
          (item + 1 == items && slices == 0)) {
        slice_ms += calibrator_.slice_ms();
        ++slices;
        since_slice_ms = 0.0;
      }
    }
    const double factor =
        speed_factor(slice_ms / static_cast<double>(slices));
    double raw_ms = 0.0;
    for (std::size_t i = first; i < phase.item_ms.size(); ++i) {
      raw_ms += phase.item_ms[i];
      phase.raw_item_ms.push_back(phase.item_ms[i]);
      phase.item_ms[i] *= factor;
    }
    phase.pass_factor.push_back(factor);
    phase.pass_throughput.push_back(ratio(work, raw_ms * factor / 1e3));
    phase.raw_pass_throughput.push_back(ratio(work, raw_ms / 1e3));
  }

  void record_failure(const std::string& message) {
    ++failed_;
    if (failed_ <= 10) std::cerr << "FAILED " << message << "\n";
  }

  /// Digest of the first pass's outputs, in corpus order.
  std::string digest() const {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const auto& value : reference_) {
      h = (h ^ value.value_or(0)) * 0x100000001B3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }

  std::size_t failed() const { return failed_; }

 private:
  /// Runs, times and checks one item; returns the work it completed.
  double run_item(std::size_t item, bool traced, Phase& phase) {
    try {
      fjs::telemetry::Snapshot before;
      if (traced) before = fjs::telemetry::capture();
      const std::int64_t t0 = now_ns();
      {
        const Scope scope(tracer_, "item");
        workload_.run(item);
      }
      const std::int64_t t1 = now_ns();
      if (traced) {
        const auto delta =
            fjs::telemetry::delta(before, fjs::telemetry::capture());
        for (const auto& counter : delta.counters) {
          phase.counters[counter.name] += static_cast<double>(counter.value);
        }
      }
      phase.item_index.push_back(item);
      phase.item_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      ItemResult result = workload_.check(item);
      if (traced && result.failure.empty()) {
        result.failure = workload_.trace_extras(item);
      }
      if (!reference_[item]) {
        reference_[item] = result.hash;
      } else if (*reference_[item] != result.hash && result.failure.empty()) {
        result.failure =
            "item " + std::to_string(item) + ": output changed on repeat";
      }
      if (!result.failure.empty()) record_failure(result.failure);
      return result.work;
    } catch (const std::exception& e) {
      record_failure("item " + std::to_string(item) + ": " + e.what());
      return 0.0;
    }
  }

  Workload& workload_;
  Tracer& tracer_;
  Calibrator& calibrator_;
  std::vector<std::optional<std::uint64_t>> reference_;
  std::size_t failed_ = 0;
};

/// Per-pass throughputs and speed factors on stderr, to show drift within
/// a run and how much of it the calibration removed.
void log_passes(const char* label, const Phase& phase) {
  std::cerr << label << " pass throughputs (unscaled/speed factor):";
  for (std::size_t i = 0; i < phase.pass_throughput.size(); ++i) {
    std::cerr << " " << phase.raw_pass_throughput[i] << "/"
              << phase.pass_factor[i];
  }
  std::cerr << "\n";
}

/// End-to-end metrics from item times `item_ms` (scaled or raw).
std::map<std::string, double> end_to_end(
    const std::vector<double>& item_ms,
    const std::vector<double>& pass_throughput, double setup_s) {
  fjs::Summary summary;
  for (double ms : item_ms) summary.add(ms);
  return {
      {"throughput", median(pass_throughput)},
      {"item_p50_ms", summary.percentile(50.0)},
      {"item_p90_ms", summary.percentile(90.0)},
      {"setup_s", setup_s},
  };
}

std::map<std::string, double> per_layer(const Workload& workload,
                                        const Phase& untraced,
                                        const Phase& traced,
                                        const std::vector<Span>& spans,
                                        const fjs::Summary& generate_ms) {
  const auto totals = summarize(spans);
  // Span times are raw; scale them by the traced passes' mean speed factor
  // (item times in `traced` are scaled per pass already).
  const double factor = sum(traced.pass_factor) /
                        static_cast<double>(traced.pass_factor.size());
  auto self_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ms * factor;
  };
  auto total_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms * factor;
  };
  auto counter = [&](const char* name) {
    const auto it = traced.counters.find(name);
    return it == traced.counters.end() ? 0.0 : it->second;
  };
  const double items = static_cast<double>(traced.item_ms.size());
  const double traced_s = sum(traced.item_ms) / 1e3;
  const auto prepare = totals.find("sim.prepare");
  const double hits = counter("portfolio.prefix_hits");

  std::map<std::string, double> out;
  for (const MetricDef& def : kPerLayer) out[def.name] = 0.0;
  out["sim.run_span_ms"] =
      ratio(self_ms("sim.run_span") + self_ms("sim.run_spans"), items);
  if (prepare != totals.end()) {
    out["sim.prepare_ms"] = ratio(prepare->second.total_ms * factor,
                                  static_cast<double>(prepare->second.calls));
  }
  out["sim.events"] = ratio(counter("engine.events"),
                            static_cast<double>(traced.pass_throughput.size()));
  out["sim.events_per_s"] = ratio(counter("engine.events"), traced_s);
  out["sim.prefix_hit_ratio"] =
      ratio(hits, hits + counter("portfolio.prefix_misses"));
  out["sim.prefix_depth_mean"] =
      ratio(counter("portfolio.prefix_arrivals_skipped"), hits);
  out["offline.heuristic_ms"] = ratio(self_ms("offline.heuristic_span"), items);
  out["offline.lower_bound_ms"] =
      ratio(self_ms("offline.best_lower_bound"), items);
  out["offline.exact_ms"] = ratio(self_ms("offline.exact_optimal"), items);
  out["analysis.bounds_ms"] = ratio(total_ms("analysis.bounds"), items);
  out["analysis.sim_ms"] = ratio(total_ms("analysis.sim"), items);
  // Traced sweep items are re-run serially, whole and decomposed; compare
  // each item with its own re-runs and take medians over items.
  const auto serial = durations_ms(spans, "support.serial_sweep");
  const auto decomposed = durations_ms(spans, "analysis.decomposed_item");
  const auto pooled = durations_ms(spans, "analysis.run_ratio_sweep");
  std::vector<double> unaccounted;
  std::vector<double> speedup;
  for (std::size_t i = 0; i < std::min(serial.size(), decomposed.size());
       ++i) {
    unaccounted.push_back(1.0 - decomposed[i] / serial[i]);
    speedup.push_back(serial[i] / pooled[i]);
  }
  if (!unaccounted.empty()) {
    out["analysis.unaccounted_frac"] = median(unaccounted);
    out["support.pool_speedup"] = median(speedup);
  }
  out["support.pool_steals"] = ratio(counter("pool.steals"), items);
  out["workload.generate_ms"] = generate_ms.median();
  // Every pass does the same work, so the ratio of the phases' median
  // (scaled) pass throughputs is the ratio of their pass times.
  out["trace.overhead_frac"] = ratio(median(untraced.pass_throughput),
                                     median(traced.pass_throughput)) -
                               1.0;
  workload.layer_metrics(TracedPhase{traced.item_index, traced.item_ms}, out);
  for (const auto& [name, value] : out) {
    const bool known = std::any_of(
        std::begin(kPerLayer), std::end(kPerLayer),
        [&](const MetricDef& def) { return name == def.name; });
    if (!known) throw std::logic_error("unlisted per-layer metric " + name);
  }
  return out;
}

/// Minimal JSON object writer: integers stay integers and doubles keep all
/// 17 significant digits (the result line is parsed by other tools).
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + fjs::json_escape(key) + ":" + raw;
    return *this;
  }
  JsonObject& add(const std::string& key, const char* text) {
    return add(key, fjs::json_escape(text));
  }
  JsonObject& add(const std::string& key, std::size_t n) {
    return add(key, std::to_string(n));
  }
  JsonObject& add(const std::string& key, bool b) {
    return add(key, std::string(b ? "true" : "false"));
  }
  JsonObject& add(const std::string& key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return add(key, std::string(buf));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string metrics_json(const std::map<std::string, double>& values,
                         const MetricDef* begin, const MetricDef* end) {
  JsonObject metrics;
  for (const MetricDef* def = begin; def != end; ++def) {
    metrics.add(def->name, JsonObject()
                               .add("value", values.at(def->name))
                               .add("unit", def->unit)
                               .str());
  }
  return metrics.str();
}

int run(const Args& args) {
  Tracer tracer;
  Calibrator calibrator;
  calibrator.mean_slice_ms(kSetupSlices);  // warm-up
  // Set-up is repeated in-process and reported as the median pass: one
  // pass is generation + validation + scheduler/runner/pool construction +
  // one untimed warm-up item, scaled by the slices run right before and
  // after it. At least kMinSetupPasses passes run, and more (up to
  // kMaxSetupPasses) until kSetupBudgetS has gone by, so that short set-ups
  // get more samples. The last pass's workload is the one measured.
  const std::size_t min_setup_passes =
      args.size == Size::kFull ? kMinSetupPasses : 2;
  fjs::Summary setup_s;
  fjs::Summary raw_setup_s;
  fjs::Summary generate_ms;
  std::unique_ptr<Workload> workload;
  const std::int64_t setup_start = now_ns();
  std::size_t setup_passes = 0;
  while (setup_passes < min_setup_passes ||
         (setup_passes < kMaxSetupPasses &&
          static_cast<double>(now_ns() - setup_start) / 1e9 < kSetupBudgetS)) {
    workload.reset();
    const double slice_before = calibrator.mean_slice_ms(kSetupSlices);
    const std::int64_t start = now_ns();
    std::unique_ptr<Workload> fresh = make_workload(args.workload, tracer);
    if (fresh == nullptr) usage("unknown workload " + args.workload);
    const double generate_s = fresh->build(args.seed, args.size);
    fresh->run(0);
    const double raw_s = static_cast<double>(now_ns() - start) / 1e9;
    const double factor = speed_factor(
        (slice_before + calibrator.mean_slice_ms(kSetupSlices)) / 2.0);
    setup_s.add(raw_s * factor);
    raw_setup_s.add(raw_s);
    generate_ms.add(generate_s * 1e3 * factor);
    workload = std::move(fresh);
    ++setup_passes;
  }

  Runner runner(*workload, tracer, calibrator);
  std::map<std::string, double> values;
  std::map<std::string, double> raw;  ///< unscaled end-to-end figures
  double mean_factor = 0.0;
  std::size_t attempted = 0;
  std::size_t passes = 0;
  const std::int64_t start = now_ns();
  auto elapsed_s = [&] { return static_cast<double>(now_ns() - start) / 1e9; };
  if (args.trace) {
    // Untraced and traced passes alternate, so drift in host speed during
    // the run weighs on both phases alike.
    Phase untraced;
    Phase traced;
    do {
      runner.run_pass(untraced);
      tracer.set_enabled(true);
      runner.run_pass(traced);
      tracer.set_enabled(false);
    } while (elapsed_s() < args.seconds);
    log_passes("untraced", untraced);
    log_passes("traced", traced);
    values = per_layer(*workload, untraced, traced, tracer.spans(),
                       generate_ms);
    attempted = untraced.item_ms.size() + traced.item_ms.size();
    passes = untraced.pass_throughput.size() + traced.pass_throughput.size();
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << chrome_trace_json(tracer.spans())
                                    << "\n";
    }
  } else {
    // p90 needs at least ten samples beyond it.
    constexpr std::size_t kMinTimedItems = 100;
    Phase phase;
    do {
      runner.run_pass(phase);
    } while (elapsed_s() < args.seconds ||
             phase.item_ms.size() < kMinTimedItems);
    log_passes("untraced", phase);
    values = end_to_end(phase.item_ms, phase.pass_throughput,
                        setup_s.median());
    raw = end_to_end(phase.raw_item_ms, phase.raw_pass_throughput,
                     raw_setup_s.median());
    mean_factor = sum(phase.pass_factor) /
                  static_cast<double>(phase.pass_factor.size());
    attempted = phase.item_ms.size();
    passes = phase.pass_throughput.size();
  }
  for (const std::string& failure : workload->check_once()) {
    runner.record_failure(failure);
  }

  JsonObject provenance;
  provenance.add("workload", args.workload.c_str())
      .add("seed", std::to_string(args.seed))
      .add("size", args.size == Size::kFull ? "full" : "tiny")
      .add("trace", args.trace)
      .add("digest", runner.digest().c_str())
      .add("items", attempted)
      .add("corpus_items", workload->items())
      .add("passes", passes)
      .add("throughput_counts", workload->work_unit())
      .add("pool_size", workload->pool_size())
      .add("setup_passes", setup_passes)
      .add("nproc",
           static_cast<std::size_t>(std::thread::hardware_concurrency()))
      .add("compiler", PERFBENCH_COMPILER)
      .add("build_type", PERFBENCH_BUILD_TYPE)
      .add("fjs_simd", PERFBENCH_SIMD != 0)
      .add("fjs_telemetry", PERFBENCH_TELEMETRY != 0)
      .add("git_sha", args.git_sha.c_str());
  if (!args.trace) {
    JsonObject unscaled;
    for (const auto& [name, value] : raw) unscaled.add(name, value);
    provenance.add("mean_speed_factor", mean_factor)
        .add("unscaled", unscaled.str());
  }
  std::cout << "provenance " << provenance.str() << "\n";

  JsonObject result;
  result.add("correct", runner.failed() == 0)
      .add("attempted", attempted)
      .add("failed", runner.failed())
      .add("metrics", args.trace ? metrics_json(values, std::begin(kPerLayer),
                                                std::end(kPerLayer))
                                 : metrics_json(values, std::begin(kEndToEnd),
                                                std::end(kEndToEnd)));
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "fjs_perfbench: " << e.what() << "\n";
    return 1;
  }
}
