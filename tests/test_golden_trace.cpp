// Golden-trace regression tests. The exact event sequence of a small,
// carefully chosen Batch+ run is pinned down entry by entry: any change to
// the engine's same-tick ordering or the scheduler's iteration logic shows
// up there first, with a readable diff. The replay pins below cover the
// rest at scale: every registry scheduler on large suite instances, on
// tie-heavy integral instances and under both adaptive adversaries, each
// pinned by trace digest, start digest, span and event count.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/clairvoyant_lb.h"
#include "adversary/nonclairvoyant_lb.h"
#include "helpers.h"
#include "schedulers/batch_plus.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "sim/source.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace fjs {
namespace {

using testing::make_instance;
using testing::units;

TEST(GoldenTrace, BatchPlusCanonicalRun) {
  // J0: rigid at t=0, runs [0,1)            (iteration 1 flag)
  // J1: arrives 0.5 inside the flag          -> starts at 0.5, runs [0.5,1.5)
  // J2: arrives exactly at the flag's completion (1.0) -> buffers,
  //     becomes iteration 2's flag at its deadline 2, runs [2,3)
  // J3: arrives 2.5 inside iteration 2       -> starts at 2.5, runs [2.5,3.5)
  const Instance inst = make_instance(
      {{0, 0, 1}, {0.5, 9, 1}, {1, 2, 1}, {2.5, 9, 1}});
  BatchPlusScheduler bp;
  const SimulationResult result = simulate(inst, bp, false, true);

  struct Expected {
    double time;
    EventKind kind;
    JobId job;
  };
  const std::vector<Expected> expected = {
      {0.0, EventKind::kArrival, 0},
      {0.0, EventKind::kDeadline, 0},   // zero laxity: deadline same tick
      {0.0, EventKind::kStart, 0},      // flag starts inside the deadline event
      {0.5, EventKind::kArrival, 1},
      {0.5, EventKind::kStart, 1},      // started immediately (flag active)
      {1.0, EventKind::kCompletion, 0}, // flag completes BEFORE J2's arrival
      {1.0, EventKind::kArrival, 2},    // same tick, ordered after completion
      {1.5, EventKind::kCompletion, 1},
      {2.0, EventKind::kDeadline, 2},
      {2.0, EventKind::kStart, 2},
      {2.5, EventKind::kArrival, 3},
      {2.5, EventKind::kStart, 3},
      {3.0, EventKind::kCompletion, 2},
      {3.5, EventKind::kCompletion, 3},
  };
  ASSERT_EQ(result.trace.size(), expected.size())
      << result.trace.to_string();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const TraceEntry& entry = result.trace.entry(i);
    EXPECT_EQ(entry.time, units(expected[i].time)) << "entry " << i;
    EXPECT_EQ(entry.kind, expected[i].kind) << "entry " << i;
    EXPECT_EQ(entry.job, expected[i].job) << "entry " << i;
  }
}

TEST(GoldenTrace, SpanOfCanonicalRun) {
  const Instance inst = make_instance(
      {{0, 0, 1}, {0.5, 9, 1}, {1, 2, 1}, {2.5, 9, 1}});
  BatchPlusScheduler bp;
  const SimulationResult result = simulate(inst, bp, false);
  // Active intervals: [0,1), [0.5,1.5), [2,3), [2.5,3.5)
  // Union: [0,1.5) ∪ [2,3.5) -> measure 3.
  EXPECT_EQ(result.span(), units(3.0));
}

// --- Replay pins ---------------------------------------------------------
//
// Recorded before the engine read job data off the prepared columns and
// elided deadline events of already-started jobs; both changes must leave
// every value here untouched, event_count included.

struct ReplayPin {
  std::string name;
  std::int64_t span_ticks;
  std::uint64_t event_count;
  std::uint64_t trace_digest;
  std::uint64_t starts_digest;

  bool operator==(const ReplayPin&) const = default;
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& h, std::int64_t value) {
  auto bits = static_cast<std::uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    h ^= bits & 0xffU;
    h *= kFnvPrime;
    bits >>= 8;
  }
}

ReplayPin pin_of(std::string name, const SimulationResult& result) {
  std::uint64_t trace = kFnvOffset;
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const TraceEntry& e = result.trace.entry(i);
    fnv_mix(trace, e.time.ticks());
    fnv_mix(trace, static_cast<std::int64_t>(e.kind));
    fnv_mix(trace, static_cast<std::int64_t>(e.job));
    fnv_mix(trace, e.detail);
  }
  std::uint64_t starts = kFnvOffset;
  for (JobId id = 0; id < result.instance.size(); ++id) {
    fnv_mix(starts, result.schedule.start(id).ticks());
  }
  return ReplayPin{std::move(name), result.span().ticks(),
                   result.event_count, trace, starts};
}

std::string to_row(const ReplayPin& pin) {
  std::ostringstream out;
  out << "      {\"" << pin.name << "\", " << pin.span_ticks << ", "
      << pin.event_count << "u,\n       0x" << std::hex << pin.trace_digest
      << "ULL, 0x" << pin.starts_digest << "ULL},\n";
  return out.str();
}

void expect_pins(const std::vector<ReplayPin>& actual,
                 const std::vector<ReplayPin>& expected) {
  std::string table;
  for (const ReplayPin& pin : actual) {
    table += to_row(pin);
  }
  ASSERT_EQ(actual.size(), expected.size()) << "actual rows:\n" << table;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "row " << i << " is now\n"
                                      << to_row(actual[i]);
  }
}

/// Static instances: four suite families at n=2000, plus integral
/// instances dense in same-tick arrivals, completions and deadlines
/// (horizon 30 for 300 jobs, lengths 1..3; the first has zero laxity
/// throughout).
std::vector<std::pair<std::string, Instance>> static_instances() {
  std::vector<std::pair<std::string, Instance>> out;
  std::uint64_t seed = 1;
  for (const char* family : {"uniform-hi-lax", "bursty", "heavy-tail",
                             "bimodal"}) {
    for (const NamedWorkload& named : standard_suite()) {
      if (named.name == family) {
        WorkloadConfig config = named.config;
        config.job_count = 2000;
        out.emplace_back(named.name, generate_workload(config, seed++));
      }
    }
  }
  out.emplace_back("ties-rigid",
                   testing::random_integral_instance(7, 300, 30, 0, 3));
  out.emplace_back("ties-lax2",
                   testing::random_integral_instance(8, 300, 30, 2, 3));
  return out;
}

/// Which way a fixed instance is replayed: simulate() (prepared columns)
/// or a StaticSource through the engine's release path.
enum class StaticPath { kSimulate, kReleasePath };

std::vector<ReplayPin> static_pins(StaticPath path) {
  std::vector<ReplayPin> pins;
  for (const auto& [name, instance] : static_instances()) {
    for (const SchedulerSpec& spec : scheduler_registry()) {
      const auto scheduler = spec.make();
      SimulationResult result;
      if (path == StaticPath::kSimulate) {
        result = simulate(instance, *scheduler, spec.clairvoyant,
                          /*record_trace=*/true);
      } else {
        StaticSource source(instance);
        NoDeferralOracle oracle;
        Engine engine(source, oracle, *scheduler,
                      EngineOptions{.clairvoyant = spec.clairvoyant,
                                    .record_trace = true});
        result = engine.run();
      }
      pins.push_back(pin_of(name + "/" + spec.key, result));
    }
  }
  return pins;
}

const std::vector<ReplayPin>& expected_static_pins() {
  static const std::vector<ReplayPin> pins = {
      {"uniform-hi-lax/eager", 1036047738, 6000u,
       0x25395d6f631ffe52ULL, 0xc8329e6416da7c27ULL},
      {"uniform-hi-lax/lazy", 1042663964, 6000u,
       0xf1d28fbe6adcbda1ULL, 0xf1b42d4201466c0fULL},
      {"uniform-hi-lax/random", 1037273806, 8000u,
       0xd8e1b64b5ab90c10ULL, 0x1a44e6a825374c1eULL},
      {"uniform-hi-lax/batch", 926911198, 6000u,
       0xf4777a112314067aULL, 0xb173e7d72f3de644ULL},
      {"uniform-hi-lax/batch+", 902599739, 6000u,
       0xb806f2e9b903311eULL, 0xa93d6b821ccff307ULL},
      {"uniform-hi-lax/cdb", 953748029, 6000u,
       0x29ecdb1db17a794eULL, 0x6fb8a98f09f0efcaULL},
      {"uniform-hi-lax/profit", 871673996, 6000u,
       0xcbefe51c3cfc8e92ULL, 0x626351a35e420224ULL},
      {"uniform-hi-lax/doubler*", 905076254, 6000u,
       0x54955caa08456254ULL, 0xa9aa7eaea171207fULL},
      {"uniform-hi-lax/overlap", 879774494, 6000u,
       0xf994b22738c0da9fULL, 0xebbccbf3f5a92174ULL},
      {"bursty/eager", 792534020, 6000u,
       0xb89d4b6e81e0da9eULL, 0xd0aa3238702afe9dULL},
      {"bursty/lazy", 1005906153, 6000u,
       0xbe0f88cf0f9cec51ULL, 0x86200038193b679fULL},
      {"bursty/random", 945117982, 8000u,
       0xec075685491354e5ULL, 0x2016c7710310cad7ULL},
      {"bursty/batch", 777438997, 6000u,
       0xd3ea9340b01035d8ULL, 0x5c2d46c3cf83f45cULL},
      {"bursty/batch+", 750651450, 6000u,
       0x91f440fe046383f9ULL, 0x19c6380b98e5a3b1ULL},
      {"bursty/cdb", 825470152, 6000u,
       0x88710c9f2105728ULL, 0xd3fb569d9c9b2e08ULL},
      {"bursty/profit", 789414012, 6000u,
       0x83360b1ee431583ULL, 0xd3ef145768ad62f7ULL},
      {"bursty/doubler*", 772242839, 6000u,
       0x8959faf7f4b5fed8ULL, 0xa1358bdd432e25f0ULL},
      {"bursty/overlap", 736168220, 6000u,
       0xf68a5e8c5a0b63f8ULL, 0x79110f9adf21eb5cULL},
      {"heavy-tail/eager", 1022412443, 6000u,
       0xd2e37d9814d60c10ULL, 0x65f90db30a461b71ULL},
      {"heavy-tail/lazy", 1052149738, 6000u,
       0xcc15a0a9a24b5abdULL, 0x8bd650c20229ddefULL},
      {"heavy-tail/random", 1052180035, 8000u,
       0xca5eb86866ceb788ULL, 0x241d92be50e1148cULL},
      {"heavy-tail/batch", 996810403, 6000u,
       0x7f5c47b7a75c3dafULL, 0x5c50a8a74991ebb0ULL},
      {"heavy-tail/batch+", 990823172, 6000u,
       0x9b855aa64e4fc253ULL, 0x40fba7e37e6efc8eULL},
      {"heavy-tail/cdb", 995852285, 6000u,
       0xd86e7060e043f5c1ULL, 0x517c57481a0d5e35ULL},
      {"heavy-tail/profit", 945849095, 6000u,
       0xbac9d67b801f61e1ULL, 0xc1ea5cee4dbd5254ULL},
      {"heavy-tail/doubler*", 946418663, 6000u,
       0x6ffda536f68b4dbcULL, 0x32bf6b21c469683dULL},
      {"heavy-tail/overlap", 903580869, 6000u,
       0xd8722fa8969c3b55ULL, 0xf297f15dee9214cULL},
      {"bimodal/eager", 990996719, 6000u,
       0xb0842ecdaa282081ULL, 0x78ef4b6b7baf8289ULL},
      {"bimodal/lazy", 993481588, 6000u,
       0x5eb8de6e7c66c4e0ULL, 0xd69f4a4742127e9fULL},
      {"bimodal/random", 994456050, 8000u,
       0xbfd1a9f0090704eaULL, 0x70b2743745ef7f49ULL},
      {"bimodal/batch", 964928086, 6000u,
       0x11d6e15b0cf5f2f1ULL, 0xd31ddacabec782edULL},
      {"bimodal/batch+", 962100820, 6000u,
       0x6d3bd9fbf4938ae2ULL, 0x44b1e45f7a7941e0ULL},
      {"bimodal/cdb", 944460228, 6000u,
       0x905325e86f8049fdULL, 0xeb4bcb7a75506a47ULL},
      {"bimodal/profit", 940599524, 6000u,
       0x17519492946624ebULL, 0x183ba81debb256c4ULL},
      {"bimodal/doubler*", 962124390, 6000u,
       0xd50aaf8259c61afbULL, 0x90285972150d4a5cULL},
      {"bimodal/overlap", 936096548, 6000u,
       0xc1f208468366e3a1ULL, 0xa8e1d20f34cf7259ULL},
      {"ties-rigid/eager", 33000000, 900u,
       0xce6c7b86a6f46565ULL, 0x4f2d224d6ee9248fULL},
      {"ties-rigid/lazy", 33000000, 900u,
       0x717332007597aa73ULL, 0x4f2d224d6ee9248fULL},
      {"ties-rigid/random", 33000000, 900u,
       0xce6c7b86a6f46565ULL, 0x4f2d224d6ee9248fULL},
      {"ties-rigid/batch", 33000000, 900u,
       0x19fa8f93a3ded57cULL, 0x4f2d224d6ee9248fULL},
      {"ties-rigid/batch+", 33000000, 900u,
       0x94ebba828363e64bULL, 0x4f2d224d6ee9248fULL},
      {"ties-rigid/cdb", 33000000, 900u,
       0x290cc056ccc85ab3ULL, 0x4f2d224d6ee9248fULL},
      {"ties-rigid/profit", 33000000, 900u,
       0xb7627cd057a6d830ULL, 0x4f2d224d6ee9248fULL},
      {"ties-rigid/doubler*", 33000000, 900u,
       0x3ca98e90c66430cdULL, 0x4f2d224d6ee9248fULL},
      {"ties-rigid/overlap", 33000000, 900u,
       0x742b60b71a75ef46ULL, 0x4f2d224d6ee9248fULL},
      {"ties-lax2/eager", 33000000, 900u,
       0x717aabc1b3f8728aULL, 0x7043447cd7224890ULL},
      {"ties-lax2/lazy", 35000000, 900u,
       0x1b408642e42ca62aULL, 0xde6b5bd5d7aa420fULL},
      {"ties-lax2/random", 34940186, 1101u,
       0xc425b8ee5a40d4cfULL, 0xe706370ad8224416ULL},
      {"ties-lax2/batch", 33000000, 900u,
       0x8301952f91d0a87fULL, 0x6dcff96fe2099145ULL},
      {"ties-lax2/batch+", 33000000, 900u,
       0xd60d5a8a24cb9c8dULL, 0x6dcff96fe2099145ULL},
      {"ties-lax2/cdb", 33000000, 900u,
       0xa31317a3236e431ULL, 0xf9e3b0796b81191eULL},
      {"ties-lax2/profit", 33000000, 900u,
       0xf073a01131d30d78ULL, 0x9a7eca6754b321c5ULL},
      {"ties-lax2/doubler*", 33000000, 900u,
       0xf6750a16f3085998ULL, 0x58262b8eb37fca10ULL},
      {"ties-lax2/overlap", 33000000, 900u,
       0x98e5da1357abb050ULL, 0x7043447cd7224890ULL},
  };
  return pins;
}

TEST(GoldenReplay, ReleasePathMatchesPins) {
  expect_pins(static_pins(StaticPath::kReleasePath), expected_static_pins());
}

TEST(GoldenReplay, SimulateMatchesPins) {
  expect_pins(static_pins(StaticPath::kSimulate), expected_static_pins());
}

TEST(GoldenReplay, AdaptiveAdversariesMatchPins) {
  // Both adversaries release jobs through Engine::release at run time; the
  // non-clairvoyant one also defers every length past the start.
  std::vector<ReplayPin> pins;
  for (int iterations = 1; iterations <= 3; ++iterations) {
    for (const SchedulerSpec& spec : scheduler_registry()) {
      if (spec.clairvoyant) {
        continue;
      }
      const auto scheduler = spec.make();
      NonClairvoyantAdversary adversary(NonClairvoyantLbParams{
          .iterations = iterations, .counts = {}, .first_count = 256});
      Engine engine(adversary, adversary, *scheduler,
                    EngineOptions{.record_trace = true});
      pins.push_back(pin_of("nc" + std::to_string(iterations) + "/" +
                                spec.key,
                            engine.run()));
    }
  }
  for (const SchedulerSpec& spec : scheduler_registry()) {
    const auto scheduler = spec.make();
    ClairvoyantAdversary adversary;
    NoDeferralOracle oracle;
    Engine engine(adversary, oracle, *scheduler,
                  EngineOptions{.clairvoyant = true, .record_trace = true});
    pins.push_back(pin_of("cv/" + spec.key, engine.run()));
  }
  static const std::vector<ReplayPin> expected = {
      {"nc1/eager", 5000, 1072u,
       0xd27d3dec19991909ULL, 0x1c600d44619bc825ULL},
      {"nc1/lazy", 31018, 1072u,
       0xbb03ee2d03449d92ULL, 0xdccf4e92ce6f1169ULL},
      {"nc1/random", 256000, 1280u,
       0x34277b513f9c385ULL, 0x4ad989f0cab9a21cULL},
      {"nc1/batch", 5000, 1072u,
       0x80e34f5c8e6b460dULL, 0xe8b9677b482c4925ULL},
      {"nc1/batch+", 5000, 1072u,
       0x80e34f5c8e6b460dULL, 0xe8b9677b482c4925ULL},
      {"nc2/eager", 9000, 1100u,
       0xf13f040b28850131ULL, 0x7cda31af40c99de5ULL},
      {"nc2/lazy", 31018, 1088u,
       0x6f811156f82a4f5ULL, 0xdccf4e92ce6f1169ULL},
      {"nc2/random", 256000, 1280u,
       0x34277b513f9c385ULL, 0x4ad989f0cab9a21cULL},
      {"nc2/batch", 9000, 1100u,
       0x9a2ec84e77928496ULL, 0x73685c84c65e90a5ULL},
      {"nc2/batch+", 9000, 1100u,
       0x9a2ec84e77928496ULL, 0x73685c84c65e90a5ULL},
      {"nc3/eager", 13000, 1110u,
       0xc211738452def247ULL, 0xb144c9cbd553b365ULL},
      {"nc3/lazy", 31018, 1088u,
       0x6f811156f82a4f5ULL, 0xdccf4e92ce6f1169ULL},
      {"nc3/random", 256000, 1280u,
       0x34277b513f9c385ULL, 0x4ad989f0cab9a21cULL},
      {"nc3/batch", 13000, 1110u,
       0xe6172277afb6e1a3ULL, 0x96adae20f3e54f25ULL},
      {"nc3/batch+", 13000, 1110u,
       0xe6172277afb6e1a3ULL, 0x96adae20f3e54f25ULL},
      {"cv/eager", 51777088, 224u,
       0x10cf3ade68936c03ULL, 0x6fe1a5eb22756005ULL},
      {"cv/lazy", 2618034, 7u,
       0x14100c2893a8e9dfULL, 0xc8dbda273553fee1ULL},
      {"cv/random", 2618034, 8u,
       0x530f6833f1d5a094ULL, 0xe5ef2b724670fdf3ULL},
      {"cv/batch", 51777088, 224u,
       0xb14cf7fa0ae7b3e7ULL, 0x6fe1a5eb22756005ULL},
      {"cv/batch+", 51777088, 224u,
       0xb14cf7fa0ae7b3e7ULL, 0x6fe1a5eb22756005ULL},
      {"cv/cdb", 2618034, 7u,
       0x14100c2893a8e9dfULL, 0xc8dbda273553fee1ULL},
      {"cv/profit", 51777088, 224u,
       0xb14cf7fa0ae7b3e7ULL, 0x6fe1a5eb22756005ULL},
      {"cv/doubler*", 51777088, 224u,
       0xb14cf7fa0ae7b3e7ULL, 0x6fe1a5eb22756005ULL},
      {"cv/overlap", 51777088, 224u,
       0xb14cf7fa0ae7b3e7ULL, 0x6fe1a5eb22756005ULL},
  };
  expect_pins(pins, expected);
}

}  // namespace
}  // namespace fjs
