#include "fuzz/harness.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "fuzz/repro.h"
#include "support/assert.h"
#include "support/parallel.h"
#include "support/string_util.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"

namespace fjs {
namespace {

// Fuzz throughput: instances swept through the oracle battery. The count
// is seed-window-determined; wall time is what varies.
telemetry::Counter g_tm_fuzz_instances{"fuzz.instances",
                                       telemetry::Stability::kDeterministic};

}  // namespace

namespace {

/// Per-seed sweep outcome: the first oracle failure, if any. The instance
/// is regenerated from the seed when needed (cheap, deterministic), so
/// the hot path returns ~nothing for passing seeds.
struct SeedOutcome {
  bool failed = false;
  FuzzFailure failure;
};

SeedOutcome check_seed(std::uint64_t seed, const FuzzGenConfig& gen,
                       const std::vector<Oracle>& oracles) {
  SeedOutcome outcome;
  Instance instance;
  try {
    instance = generate_fuzz_instance(gen, seed);
  } catch (const std::exception& e) {
    outcome.failed = true;
    outcome.failure = FuzzFailure{
        "generator", std::string("generator threw: ") + e.what()};
    return outcome;
  }
  for (const Oracle& oracle : oracles) {
    std::optional<std::string> detail;
    try {
      detail = oracle.check(instance);
    } catch (const std::exception& e) {
      detail = std::string("oracle threw: ") + e.what();
    }
    if (detail) {
      outcome.failed = true;
      outcome.failure = FuzzFailure{oracle.name, *detail};
      return outcome;  // first failure wins; the rest is triage noise
    }
  }
  return outcome;
}

const Oracle* find_oracle(const std::vector<Oracle>& oracles,
                          const std::string& name) {
  for (const Oracle& oracle : oracles) {
    if (oracle.name == name) {
      return &oracle;
    }
  }
  return nullptr;
}

}  // namespace

double FuzzReport::instances_per_minute() const {
  if (elapsed_seconds <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(instances_run) * 60.0 / elapsed_seconds;
}

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << "fuzz: " << instances_run << " instances in "
     << format_fixed(elapsed_seconds, 2) << "s ("
     << format_fixed(instances_per_minute(), 0) << "/min), "
     << failures.size() << " failure" << (failures.size() == 1 ? "" : "s")
     << '\n';
  for (const FuzzCase& c : failures) {
    os << "  seed " << c.seed << " [" << c.oracle << "] " << c.detail << '\n';
    os << "    original: " << c.original.size() << " jobs";
    if (c.shrunk) {
      os << ", shrunk: " << c.shrunk->size() << " jobs ("
         << c.shrink_stats->predicate_calls << " predicate calls, "
         << (c.shrink_stats->fixpoint ? "fixpoint" : "budget") << ")";
    }
    os << '\n';
    if (c.shrunk) {
      os << c.shrunk->to_string();
    }
    if (!c.repro_path.empty()) {
      os << "    repro: " << c.repro_path << '\n';
    }
  }
  return os.str();
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  std::vector<Oracle> owned;
  if (options.oracles.empty()) {
    owned = standard_oracles(options.oracle_options);
  }
  const std::vector<Oracle>& oracles =
      options.oracles.empty() ? owned : options.oracles;
  FJS_REQUIRE(!oracles.empty(), "fuzz: no oracles to run");

  FuzzReport report;
  const auto t0 = std::chrono::steady_clock::now();
  ThreadPool pool(options.threads);

  // Sweep in blocks: each block is a parallel_map keyed by seed index, so
  // the failing-seed set is a pure function of (seed_start, count) and the
  // early exit at max_failures never depends on thread timing.
  const std::uint64_t block =
      std::max<std::uint64_t>(256, pool.thread_count() * 64);
  std::vector<std::pair<std::uint64_t, FuzzFailure>> raw_failures;
  for (std::uint64_t done = 0;
       done < options.count && raw_failures.size() < options.max_failures;
       done += block) {
    const std::uint64_t n = std::min<std::uint64_t>(block,
                                                    options.count - done);
    const std::uint64_t base = options.seed_start + done;
    auto outcomes = parallel_map(
        pool, static_cast<std::size_t>(n),
        [&](std::size_t i) {
          return check_seed(base + i, options.gen, oracles);
        });
    report.instances_run += n;
    g_tm_fuzz_instances.add(static_cast<std::uint64_t>(n));
    for (std::size_t i = 0;
         i < outcomes.size() && raw_failures.size() < options.max_failures;
         ++i) {
      if (outcomes[i].failed) {
        raw_failures.emplace_back(base + i, outcomes[i].failure);
      }
    }
  }

  // Triage serially, in seed order: shrink (preserving "the same oracle
  // still rejects it") and emit the repro file.
  for (const auto& [seed, failure] : raw_failures) {
    FuzzCase fuzz_case;
    fuzz_case.seed = seed;
    fuzz_case.oracle = failure.oracle;
    fuzz_case.detail = failure.detail;
    fuzz_case.original = generate_fuzz_instance(options.gen, seed);

    const Oracle* oracle = find_oracle(oracles, failure.oracle);
    if (options.shrink && oracle != nullptr) {
      const auto still_fails = [oracle](const Instance& candidate) {
        try {
          return oracle->check(candidate).has_value();
        } catch (const std::exception&) {
          return true;  // an oracle crash is still a failure
        }
      };
      try {
        ShrinkResult shrunk = shrink_instance(fuzz_case.original, still_fails,
                                              options.shrink_options);
        fuzz_case.shrunk = shrunk.instance;
        fuzz_case.shrink_stats = std::move(shrunk);
      } catch (const AssertionError&) {
        // Non-deterministic failure (should not happen: oracles are pure);
        // keep the unshrunk original rather than dropping the case.
      }
    }

    if (!options.repro_dir.empty()) {
      ReproFile repro;
      repro.seed = fuzz_case.seed;
      repro.oracle = fuzz_case.oracle;
      repro.detail = fuzz_case.detail;
      repro.original = fuzz_case.original;
      repro.shrunk = fuzz_case.shrunk;
      fuzz_case.repro_path = options.repro_dir + "/fuzz-" +
                             std::to_string(fuzz_case.seed) + ".repro";
      save_repro(fuzz_case.repro_path, repro);
    }
    report.failures.push_back(std::move(fuzz_case));
  }

  const auto t1 = std::chrono::steady_clock::now();
  report.elapsed_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  return report;
}

std::vector<FuzzFailure> replay_instance(const Instance& instance,
                                         const FuzzOptions& options) {
  const std::vector<Oracle> oracles =
      options.oracles.empty() ? standard_oracles(options.oracle_options)
                              : options.oracles;
  return run_oracles(instance, oracles);
}

}  // namespace fjs
