// Tests for the property-based fuzzing harness: generator coverage,
// oracle sensitivity, a fixed probe corpus through every scheduler oracle,
// shrinker convergence/determinism, repro round-trip, and
// thread-count-independent harness output.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/harness.h"
#include "fuzz/oracles.h"
#include "fuzz/repro.h"
#include "fuzz/shrink.h"
#include "helpers.h"
#include "schedulers/randomized.h"
#include "schedulers/registry.h"
#include "support/assert.h"
#include "support/rng.h"

namespace fjs {
namespace {

using testing::make_instance;

bool same_jobs(const Instance& a, const Instance& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (JobId id = 0; id < a.size(); ++id) {
    const Job& x = a.job(id);
    const Job& y = b.job(id);
    if (x.arrival != y.arrival || x.deadline != y.deadline ||
        x.length != y.length) {
      return false;
    }
  }
  return true;
}

TEST(FuzzGenerator, DeterministicPerSeed) {
  const FuzzGenConfig config;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Instance a = generate_fuzz_instance(config, seed);
    const Instance b = generate_fuzz_instance(config, seed);
    EXPECT_TRUE(same_jobs(a, b)) << "seed " << seed;
  }
  // Different seeds almost surely differ.
  std::size_t distinct = 0;
  const Instance first = generate_fuzz_instance(config, 1);
  for (std::uint64_t seed = 2; seed <= 20; ++seed) {
    distinct +=
        same_jobs(first, generate_fuzz_instance(config, seed)) ? 0u : 1u;
  }
  EXPECT_GE(distinct, 18u);
}

TEST(FuzzGenerator, EveryInstanceValidAndEdgeCasesCovered) {
  const FuzzGenConfig config;
  constexpr std::int64_t kUnit = Time::kTicksPerUnit;
  std::size_t zero_laxity = 0;
  std::size_t one_tick_laxity = 0;
  std::size_t tied_arrivals = 0;
  std::size_t fractional = 0;
  std::size_t huge_arrival = 0;
  std::size_t huge_length = 0;
  std::size_t duplicates = 0;
  for (std::uint64_t seed = 1; seed <= 2'000; ++seed) {
    const Instance inst = generate_fuzz_instance(config, seed);
    ASSERT_GE(inst.size(), config.min_jobs);
    ASSERT_LE(inst.size(), config.max_jobs);
    // Construction + latest_completion already validate windows/overflow;
    // re-assert the basics explicitly.
    EXPECT_NO_THROW((void)inst.latest_completion());
    for (const Job& j : inst.view().jobs()) {
      ASSERT_LE(j.arrival, j.deadline);
      ASSERT_GT(j.length, Time::zero());
      const Time laxity = j.deadline - j.arrival;
      zero_laxity += laxity == Time::zero() ? 1u : 0u;
      one_tick_laxity += laxity == Time(1) ? 1u : 0u;
      fractional += (j.arrival.ticks() % kUnit != 0 ||
                     j.deadline.ticks() % kUnit != 0 ||
                     j.length.ticks() % kUnit != 0)
                        ? 1u
                        : 0u;
      huge_arrival += j.arrival > Time(Time::max().ticks() / 2) ? 1u : 0u;
      huge_length += j.length > Time(Time::max().ticks() / 2) ? 1u : 0u;
    }
    for (JobId a = 0; a < inst.size(); ++a) {
      for (JobId b = a + 1; b < inst.size(); ++b) {
        if (inst.job(a).arrival == inst.job(b).arrival) {
          ++tied_arrivals;
          if (inst.job(a).deadline == inst.job(b).deadline &&
              inst.job(a).length == inst.job(b).length) {
            ++duplicates;
          }
        }
      }
    }
  }
  EXPECT_GT(zero_laxity, 100u);
  EXPECT_GT(one_tick_laxity, 20u);
  EXPECT_GT(tied_arrivals, 100u);
  EXPECT_GT(fractional, 100u);
  EXPECT_GT(huge_arrival, 10u);
  EXPECT_GT(huge_length, 10u);
  EXPECT_GT(duplicates, 50u);
}

TEST(FuzzOracles, StandardBatteryNamesAndCleanCorpus) {
  const std::vector<Oracle> oracles = standard_oracles();
  const std::size_t n_schedulers = scheduler_registry().size();
  ASSERT_EQ(oracles.size(), n_schedulers + 4);
  EXPECT_EQ(oracles.front().name, "sched:eager");
  EXPECT_EQ(oracles[oracles.size() - 4].name, "ratio-bounds");
  EXPECT_EQ(oracles[oracles.size() - 3].name, "offline-sandwich");
  EXPECT_EQ(oracles[oracles.size() - 2].name, "exact-vs-reference");
  EXPECT_EQ(oracles.back().name, "view-vs-owned");

  const FuzzGenConfig config;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const Instance inst = generate_fuzz_instance(config, seed);
    const auto failures = run_oracles(inst, oracles);
    ASSERT_TRUE(failures.empty())
        << "seed " << seed << ": [" << failures.front().oracle << "] "
        << failures.front().detail;
  }
}

/// Never starts a job on its own; on_deadline does nothing, so the engine
/// reports the contract violation and the oracle must surface it.
class IgnoresDeadlines final : public OnlineScheduler {
 public:
  std::string name() const override { return "ignores-deadlines"; }
  void on_arrival(SchedulerContext&, JobId) override {}
  void on_deadline(SchedulerContext&, JobId) override {}
};

/// Claims to be non-clairvoyant but secretly changes behavior when lengths
/// are revealed — exactly what the length-oracle consistency check exists
/// to catch.
class PeeksAtModel final : public OnlineScheduler {
 public:
  std::string name() const override { return "peeks-at-model"; }
  void on_arrival(SchedulerContext& ctx, JobId id) override {
    if (ctx.clairvoyant()) {
      ctx.start_job(id);  // eager when observed, lazy when not
    }
  }
  void on_deadline(SchedulerContext& ctx, JobId id) override {
    if (ctx.is_pending(id)) {
      ctx.start_job(id);
    }
  }
};

TEST(FuzzOracles, CatchesSchedulerThatIgnoresDeadlines) {
  const Oracle oracle = scheduler_oracle(SchedulerSpec{
      "bad", false, []() { return std::make_unique<IgnoresDeadlines>(); }});
  const auto detail = oracle.check(make_instance({{0, 0, 2}}));
  ASSERT_TRUE(detail.has_value());
  EXPECT_NE(detail->find("simulation threw"), std::string::npos) << *detail;
}

TEST(FuzzOracles, CatchesLengthOracleInconsistency) {
  const Oracle oracle = scheduler_oracle(SchedulerSpec{
      "sneaky", false, []() { return std::make_unique<PeeksAtModel>(); }});
  const auto detail = oracle.check(make_instance({{0, 2, 1}}));
  ASSERT_TRUE(detail.has_value());
  EXPECT_NE(detail->find("length-oracle inconsistency"), std::string::npos)
      << *detail;
}

struct Probe {
  std::string name;
  Instance instance;
};

/// Hand-made probes for the traps a scheduler implementation falls into:
/// half-open boundary ticks, zero-laxity arrivals, same-tick events,
/// bursts, clairvoyance gating and fractional times. The fuzz generator
/// draws at most twelve jobs and hits exact ties only by chance; the corpus
/// holds these shapes on every run.
std::vector<Probe> probe_corpus() {
  std::vector<Probe> probes;
  auto add = [&probes](const std::string& name, InstanceBuilder builder) {
    probes.push_back(Probe{name, builder.build()});
  };

  add("single-rigid-job", InstanceBuilder().add(0, 0, 1));
  add("single-loose-job", InstanceBuilder().add(0, 100, 1));
  add("two-simultaneous-rigid",
      InstanceBuilder().add(0, 0, 2).add(0, 0, 3));
  add("zero-laxity-at-nonzero-time",
      InstanceBuilder().add(5, 5, 1).add(5, 5, 2));
  add("arrival-exactly-at-completion",
      InstanceBuilder().add(0, 0, 1).add(1, 10, 1));
  add("deadline-equals-another-completion",
      InstanceBuilder().add(0, 0, 2).add(0, 2, 1));
  add("shared-deadlines",
      InstanceBuilder().add(0, 3, 1).add(0, 3, 2).add(1, 3, 3));
  add("nested-windows",
      InstanceBuilder().add(0, 10, 1).add(2, 8, 1).add(4, 6, 1));
  add("tiny-and-huge-lengths",
      InstanceBuilder().add(0, 1, 0.001).add(0, 1, 500.0));
  // Identical windows, lengths spread across classification categories: a
  // scheduler that reads length_of at arrival (CDB, Profit, Doubler) takes
  // different branches per job while a non-clairvoyant one cannot tell
  // them apart.
  add("clairvoyant-category-spread",
      InstanceBuilder()
          .add(0, 3, 0.25)
          .add(0, 3, 1)
          .add(0, 3, 2)
          .add(0, 3, 4.5)
          .add(0, 3, 16));
  // A rigid flag followed by arrivals during its run whose lengths
  // straddle any reasonable profitability threshold.
  add("clairvoyant-profit-straddle",
      InstanceBuilder()
          .add(0, 0, 4)
          .add(1, 10, 0.5)
          .add(1, 10, 2)
          .add(1.5, 10, 8)
          .add(2, 10, 3.999));
  // The first job completes at t=2 exactly when the second's starting
  // deadline fires; completions outrank deadlines at the same tick.
  add("completion-ties-deadline",
      InstanceBuilder().add(0, 0, 2).add(0, 2, 3));
  // At t=2 a completion, a deadline, an arrival and a zero-laxity arrival
  // (its own deadline included) coincide: the whole tie-break chain.
  add("completion-deadline-arrival-pileup",
      InstanceBuilder()
          .add(0, 0, 2)    // completes exactly at t=2
          .add(0, 2, 1)    // starting deadline at t=2
          .add(2, 5, 1)    // arrives at t=2
          .add(2, 2, 1));  // zero-laxity arrival at t=2
  add("burst-of-twenty", [] {
    InstanceBuilder b;
    for (int i = 0; i < 20; ++i) {
      b.add_lax(0.0, static_cast<double>(i), 1.0);
    }
    return b;
  }());
  add("staggered-chain", [] {
    InstanceBuilder b;
    for (int i = 0; i < 10; ++i) {
      b.add_lax(static_cast<double>(i) * 1.5, 2.0, 1.0);
    }
    return b;
  }());
  Rng rng(0xC0FFEE);
  for (int round = 0; round < 4; ++round) {
    InstanceBuilder b;
    for (int i = 0; i < 25; ++i) {
      const double a = rng.uniform_real(0.0, 20.0);
      b.add_lax(a, rng.uniform_real(0.0, 6.0), rng.uniform_real(0.1, 4.0));
    }
    add("random-fractional-" + std::to_string(round), std::move(b));
  }
  return probes;
}

/// (probe name, failure detail) for every probe on which `oracle` fails.
std::vector<std::pair<std::string, std::string>> probe_failures(
    const Oracle& oracle) {
  std::vector<std::pair<std::string, std::string>> failures;
  for (const Probe& probe : probe_corpus()) {
    if (auto detail = oracle.check(probe.instance)) {
      failures.emplace_back(probe.name, *detail);
    }
  }
  return failures;
}

TEST(FuzzProbeCorpus, EverySchedulerOraclePasses) {
  ASSERT_EQ(probe_corpus().size(), 19u);
  std::vector<SchedulerSpec> specs = scheduler_registry();
  specs.push_back(SchedulerSpec{
      "random:seed=7", false,
      []() { return std::make_unique<RandomizedScheduler>(7); }});
  for (const SchedulerSpec& spec : specs) {
    const auto failures = probe_failures(scheduler_oracle(spec));
    EXPECT_TRUE(failures.empty())
        << spec.key << ": " << ::testing::PrintToString(failures);
  }
}

/// Starts every job at arrival, and starts it a second time when a burst
/// leaves twenty jobs running: the engine must reject the double start.
class DoubleStartOnBurst final : public OnlineScheduler {
 public:
  std::string name() const override { return "double-start-on-burst"; }
  void on_arrival(SchedulerContext& ctx, JobId id) override {
    ctx.start_job(id);
    if (ctx.pending().empty() && ctx.running().size() >= 20) {
      ctx.start_job(id);  // bug: double start under bursts
    }
  }
  void on_deadline(SchedulerContext& ctx, JobId id) override {
    ctx.start_job(id);
  }
};

TEST(FuzzProbeCorpus, CatchesBoundaryConfusedScheduler) {
  const Oracle oracle = scheduler_oracle(SchedulerSpec{
      "double-start", false,
      []() { return std::make_unique<DoubleStartOnBurst>(); }});
  const auto failures = probe_failures(oracle);
  ASSERT_EQ(failures.size(), 1u) << ::testing::PrintToString(failures);
  EXPECT_EQ(failures[0].first, "burst-of-twenty");
}

/// Synthetic failure for shrinker tests: "some job is >= 3 units long, and
/// there are at least two jobs". Deterministic and structure-free.
bool synthetic_failure(const Instance& inst) {
  if (inst.size() < 2) {
    return false;
  }
  for (const Job& j : inst.view().jobs()) {
    if (j.length >= Time::from_units(3.0)) {
      return true;
    }
  }
  return false;
}

TEST(FuzzShrink, ConvergesToMinimalInstanceDeterministically) {
  FuzzGenConfig config;
  config.min_jobs = 10;
  config.max_jobs = 14;
  config.p_huge = 0.0;
  Instance seed_instance;
  std::uint64_t seed = 1;
  for (;; ++seed) {
    seed_instance = generate_fuzz_instance(config, seed);
    if (synthetic_failure(seed_instance)) {
      break;
    }
  }

  const ShrinkResult first =
      shrink_instance(seed_instance, synthetic_failure);
  const ShrinkResult second =
      shrink_instance(seed_instance, synthetic_failure);
  EXPECT_TRUE(same_jobs(first.instance, second.instance));
  EXPECT_EQ(first.predicate_calls, second.predicate_calls);

  EXPECT_TRUE(first.fixpoint);
  ASSERT_EQ(first.instance.size(), 2u);  // predicate needs >= 2 jobs
  // One job carries the ">= 3 units" property and cannot shrink below it;
  // the other is fully minimized.
  std::size_t minimal = 0;
  std::size_t carrier = 0;
  for (const Job& j : first.instance.view().jobs()) {
    if (j.length >= Time::from_units(3.0)) {
      ++carrier;
      EXPECT_LT(j.length, Time::from_units(6.0));  // halving would still fail
    }
    if (j.arrival == Time::zero() && j.deadline == Time::zero() &&
        j.length == Time(1)) {
      ++minimal;
    }
  }
  EXPECT_EQ(carrier, 1u);
  EXPECT_EQ(minimal, 1u);
}

TEST(FuzzShrink, RejectsNonFailingSeed) {
  const Instance inst = make_instance({{0, 0, 1}});
  EXPECT_THROW(
      shrink_instance(inst, [](const Instance&) { return false; }),
      AssertionError);
}

TEST(FuzzRepro, RoundTripsTickExactIncludingNearOverflow) {
  // Near-overflow ticks that Instance::write/parse (unit doubles) would
  // corrupt — the reason the repro format serializes raw ticks.
  const std::int64_t huge = Time::max().ticks() - 12'345;
  InstanceBuilder builder;
  builder.add_ticks(Time(huge - 10), Time(huge - 10), Time(7));
  builder.add_ticks(Time(0), Time(1), Time(huge));
  ReproFile repro;
  repro.seed = 0xDEADBEEFULL;
  repro.oracle = "sched:eager";
  repro.detail = "multi\nline detail";
  repro.original = builder.build();
  repro.shrunk = make_instance({{0, 0, 1}});

  std::stringstream stream;
  write_repro(stream, repro);
  const ReproFile parsed = parse_repro(stream);
  EXPECT_EQ(parsed.seed, repro.seed);
  EXPECT_EQ(parsed.oracle, repro.oracle);
  EXPECT_EQ(parsed.detail, "multi line detail");  // flattened on write
  EXPECT_TRUE(same_jobs(parsed.original, repro.original));
  ASSERT_TRUE(parsed.shrunk.has_value());
  EXPECT_TRUE(same_jobs(*parsed.shrunk, *repro.shrunk));

  // Without the optional shrunk section.
  repro.shrunk.reset();
  std::stringstream stream2;
  write_repro(stream2, repro);
  EXPECT_FALSE(parse_repro(stream2).shrunk.has_value());
}

/// Parses `text` expecting failure; returns the error message.
std::string parse_error(const std::string& text) {
  std::stringstream stream(text);
  try {
    (void)parse_repro(stream);
  } catch (const AssertionError& e) {
    return e.what();
  }
  ADD_FAILURE() << "parse_repro accepted malformed input:\n" << text;
  return {};
}

TEST(FuzzRepro, ParseRejectsMalformedInputWithLocation) {
  // Every diagnostic names the 1-based line (and column where it applies).
  EXPECT_NE(parse_error("not a repro\n").find("repro:1: bad header"),
            std::string::npos);
  EXPECT_NE(parse_error("").find("repro:1: empty file"), std::string::npos);

  const std::string head = "fjs-fuzz-repro v1\nseed 7\noracle x\ndetail y\n";

  // Truncated job list: error points past the last line and reports the
  // expected/got counts.
  const std::string truncated = parse_error(head + "original 2\n0 0 1\n");
  EXPECT_NE(truncated.find("repro:7:"), std::string::npos) << truncated;
  EXPECT_NE(truncated.find("expected 2 jobs, got 1"), std::string::npos)
      << truncated;

  // Bad seed token: line and column (column counts the 'seed ' prefix).
  const std::string bad_seed =
      parse_error("fjs-fuzz-repro v1\nseed -3\noracle x\ndetail y\n"
                  "original 1\n0 0 1\n");
  EXPECT_NE(bad_seed.find("repro:2:6:"), std::string::npos) << bad_seed;
  EXPECT_NE(bad_seed.find("non-negative"), std::string::npos) << bad_seed;

  // Trailing junk inside a numeric field is pinpointed at the junk.
  const std::string junk = parse_error(head + "original 1\n0 0 1x\n");
  EXPECT_NE(junk.find("repro:6:6:"), std::string::npos) << junk;
  EXPECT_NE(junk.find("trailing junk in length"), std::string::npos) << junk;

  // Wrong field count on a job line.
  const std::string fields = parse_error(head + "original 1\n0 0\n");
  EXPECT_NE(fields.find("repro:6:"), std::string::npos) << fields;
  EXPECT_NE(fields.find("got 2 fields"), std::string::npos) << fields;

  // A corrupt count must fail fast, not reserve() gigabytes.
  const std::string count =
      parse_error(head + "original 99999999999\n0 0 1\n");
  EXPECT_NE(count.find("repro:5:"), std::string::npos) << count;
  EXPECT_NE(count.find("exceeds the repro limit"), std::string::npos) << count;

  // Trailing garbage after the original (non-shrunk) section.
  const std::string garbage =
      parse_error(head + "original 1\n0 0 1\nwhatever\n");
  EXPECT_NE(garbage.find("repro:7:"), std::string::npos) << garbage;
  EXPECT_NE(garbage.find("expected 'shrunk <count>' or end of file"),
            std::string::npos)
      << garbage;

  // Trailing garbage after the shrunk section.
  const std::string after_shrunk = parse_error(
      head + "original 1\n0 0 1\nshrunk 1\n0 0 1\ntrailing\n");
  EXPECT_NE(after_shrunk.find("repro:9:"), std::string::npos) << after_shrunk;
  EXPECT_NE(after_shrunk.find("trailing garbage after the shrunk"),
            std::string::npos)
      << after_shrunk;

  // Jobs that parse but violate the instance invariants point back at the
  // section header.
  const std::string invalid = parse_error(head + "original 1\n5 0 1\n");
  EXPECT_NE(invalid.find("repro:5:"), std::string::npos) << invalid;
  EXPECT_NE(invalid.find("not a valid instance"), std::string::npos)
      << invalid;

  // Comments and blank lines are skipped but still counted for locations.
  const std::string commented = parse_error(
      "# saved by fjs_fuzz\n\nfjs-fuzz-repro v1\nseed 7\noracle x\n"
      "detail y\noriginal 1\nbogus 0 1\n");
  EXPECT_NE(commented.find("repro:8:"), std::string::npos) << commented;
}

FuzzOptions synthetic_options() {
  FuzzOptions options;
  options.seed_start = 1;
  options.count = 400;
  options.gen.p_huge = 0.0;
  options.max_failures = 3;
  options.oracles.push_back(Oracle{
      "synthetic", [](const Instance& inst) -> std::optional<std::string> {
        return synthetic_failure(inst)
                   ? std::optional<std::string>("synthetic failure")
                   : std::nullopt;
      }});
  return options;
}

TEST(FuzzHarness, DeterministicAcrossThreadCounts) {
  FuzzOptions serial = synthetic_options();
  serial.threads = 1;
  FuzzOptions wide = synthetic_options();
  wide.threads = 8;
  const FuzzReport a = run_fuzz(serial);
  const FuzzReport b = run_fuzz(wide);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  ASSERT_EQ(a.failures.size(), 3u);  // max_failures reached on this window
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].seed, b.failures[i].seed);
    EXPECT_EQ(a.failures[i].oracle, b.failures[i].oracle);
    ASSERT_TRUE(a.failures[i].shrunk.has_value());
    ASSERT_TRUE(b.failures[i].shrunk.has_value());
    EXPECT_TRUE(same_jobs(*a.failures[i].shrunk, *b.failures[i].shrunk));
    EXPECT_TRUE(a.failures[i].shrink_stats->fixpoint);
  }
}

TEST(FuzzHarness, EmitsReplayableReproFiles) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "fjs_fuzz_repro_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FuzzOptions options = synthetic_options();
  options.max_failures = 1;
  options.repro_dir = dir.string();
  const FuzzReport report = run_fuzz(options);
  ASSERT_EQ(report.failures.size(), 1u);
  const FuzzCase& fuzz_case = report.failures.front();
  ASSERT_FALSE(fuzz_case.repro_path.empty());

  const ReproFile repro = load_repro(fuzz_case.repro_path);
  EXPECT_EQ(repro.seed, fuzz_case.seed);
  EXPECT_EQ(repro.oracle, "synthetic");
  // Seed replay: regenerating from the recorded seed reproduces the
  // original instance, and both recorded instances still fail.
  EXPECT_TRUE(same_jobs(repro.original,
                        generate_fuzz_instance(options.gen, repro.seed)));
  EXPECT_TRUE(synthetic_failure(repro.original));
  ASSERT_TRUE(repro.shrunk.has_value());
  EXPECT_TRUE(synthetic_failure(*repro.shrunk));
  std::filesystem::remove_all(dir);
}

TEST(FuzzHarness, ReportsPassAndThroughputFields) {
  FuzzOptions options;
  options.count = 60;
  options.oracles.push_back(
      Oracle{"always-pass",
             [](const Instance&) { return std::optional<std::string>{}; }});
  const FuzzReport report = run_fuzz(options);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.instances_run, 60u);
  EXPECT_GT(report.instances_per_minute(), 0.0);
  EXPECT_NE(report.summary().find("0 failures"), std::string::npos);
}

}  // namespace
}  // namespace fjs
