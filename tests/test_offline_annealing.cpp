#include "offline/annealing.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "helpers.h"
#include "offline/exact.h"
#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "support/assert.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace fjs {
namespace {

using testing::make_instance;
using testing::units;

TEST(Annealing, EmptyInstance) {
  const AnnealingResult result = anneal_schedule(Instance{});
  EXPECT_EQ(result.span, Time::zero());
}

TEST(Annealing, RigidInstanceUnchanged) {
  const Instance inst = make_instance({{0, 0, 1}, {2, 2, 1}});
  const AnnealingResult result = anneal_schedule(inst);
  EXPECT_EQ(result.span, units(2.0));
  EXPECT_EQ(result.accepted, 0u);  // no movable job
}

TEST(Annealing, FindsPerfectAlignment) {
  // Three loose unit jobs can all stack on one point.
  const Instance inst = make_instance({{0, 9, 1}, {0, 9, 1}, {0, 9, 1}});
  const AnnealingResult result = anneal_schedule(inst);
  EXPECT_EQ(result.span, units(1.0));
}

TEST(Annealing, DeterministicForSeed) {
  const Instance inst = testing::random_integral_instance(4, 12, 15, 5, 4);
  AnnealingOptions options;
  options.iterations = 5000;
  const AnnealingResult a = anneal_schedule(inst, options);
  const AnnealingResult b = anneal_schedule(inst, options);
  EXPECT_EQ(a.span, b.span);
  for (JobId id = 0; id < inst.size(); ++id) {
    EXPECT_EQ(a.schedule.start(id), b.schedule.start(id));
  }
}

TEST(Annealing, RejectsBadOptions) {
  AnnealingOptions options;
  options.cooling = 1.0;
  EXPECT_THROW(anneal_schedule(Instance{}, options), AssertionError);
  options = {};
  options.cooling_period = 0;
  EXPECT_THROW(anneal_schedule(Instance{}, options), AssertionError);
}

/// Sandwich: LB <= exact <= annealing, and annealing lands reasonably
/// close to exact on small instances.
class AnnealingQuality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnnealingQuality, BoundsRespected) {
  const Instance inst = testing::random_integral_instance(
      GetParam() + 4000, /*jobs=*/7, /*horizon=*/10, /*max_laxity=*/4,
      /*max_length=*/4);
  const Time opt = exact_optimal_span(inst);
  AnnealingOptions options;
  options.iterations = 8000;
  const AnnealingResult result = anneal_schedule(inst, options);
  EXPECT_GE(result.span, opt);
  EXPECT_GE(opt, best_lower_bound(inst));
  EXPECT_LE(time_ratio(result.span, opt), 1.35) << inst.to_string();
  result.schedule.validate(inst);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, AnnealingQuality,
                         ::testing::Range<std::uint64_t>(0, 20));

// Golden pins: span, accepted-move count and an FNV-1a digest of every
// start, recorded before the incremental evaluator was removed (it
// matched this full-pass path bit for bit). Rows: E12's 64 full-profile
// instances at default options, then 25 random shapes (heavy overlap to
// disjoint clusters) at 3000 iterations. Any change to the move
// generator, the acceptance rule or the undo of a rejected move shows up
// here rather than as silently shifted E12 gaps.
struct AnnealPin {
  std::string name;
  std::int64_t span_ticks;
  std::size_t accepted;
  std::uint64_t digest;
};

AnnealPin pin_row(std::string name, const Instance& inst,
                  const AnnealingOptions& options) {
  const AnnealingResult result = anneal_schedule(inst, options);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over start bytes
  for (JobId id = 0; id < inst.size(); ++id) {
    auto bits = static_cast<std::uint64_t>(result.schedule.start(id).ticks());
    for (int byte = 0; byte < 8; ++byte) {
      h ^= bits & 0xffU;
      h *= 0x100000001b3ULL;
      bits >>= 8;
    }
  }
  return AnnealPin{std::move(name), result.span.ticks(), result.accepted, h};
}

std::vector<AnnealPin> compute_pins() {
  std::vector<AnnealPin> rows;
  for (const auto& named : integral_suite(12)) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      rows.push_back(pin_row("e12/" + named.name + "/" + std::to_string(seed),
                             generate_workload(named.config, seed),
                             AnnealingOptions{}));
    }
  }
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Instance inst = testing::random_integral_instance(
        seed * 2654435761u + 3, /*jobs=*/3 + seed % 40,
        /*horizon=*/static_cast<std::int64_t>(4 + 2 * seed),
        /*max_laxity=*/9, /*max_length=*/6);
    AnnealingOptions options;
    options.iterations = 3000;
    options.seed = 1000 + seed;
    rows.push_back(pin_row("random/" + std::to_string(seed), inst, options));
  }
  return rows;
}

const std::vector<AnnealPin> kPins = {
    {"e12/uniform-lo-lax/0", 9000000, 5913, 0x6236ca7380e478afULL},
    {"e12/uniform-lo-lax/1", 9000000, 5565, 0x452e9c59abe1cc94ULL},
    {"e12/uniform-lo-lax/2", 6000000, 5988, 0xd48db3fd22c79c70ULL},
    {"e12/uniform-lo-lax/3", 9000000, 7131, 0x6a94de3422ef0797ULL},
    {"e12/uniform-lo-lax/4", 9000000, 4082, 0x67f666a760a42179ULL},
    {"e12/uniform-lo-lax/5", 6000000, 7243, 0x94d8601c6edd4451ULL},
    {"e12/uniform-lo-lax/6", 10000000, 6800, 0x4a8490c2435d9a6fULL},
    {"e12/uniform-lo-lax/7", 11000000, 4223, 0xfd641424ec936a73ULL},
    {"e12/uniform-hi-lax/0", 8000000, 9093, 0x7a90250c93065ab2ULL},
    {"e12/uniform-hi-lax/1", 7708390, 12293, 0x3998e6554f2b8990ULL},
    {"e12/uniform-hi-lax/2", 5000000, 7610, 0x1019589e51255468ULL},
    {"e12/uniform-hi-lax/3", 8000000, 9899, 0xb8137bcbb26fb777ULL},
    {"e12/uniform-hi-lax/4", 7000000, 10075, 0xfb326f4ff6ddbaf5ULL},
    {"e12/uniform-hi-lax/5", 5000000, 8774, 0xb569ebe4ac16fed3ULL},
    {"e12/uniform-hi-lax/6", 9000000, 8836, 0x1fa44296f786e4bdULL},
    {"e12/uniform-hi-lax/7", 8000000, 10127, 0xcce3c723f44a5cc5ULL},
    {"e12/bimodal/0", 8000000, 8705, 0x9174bbb8daeb9d45ULL},
    {"e12/bimodal/1", 7000000, 9308, 0xbbd4700646082e2eULL},
    {"e12/bimodal/2", 7000000, 10918, 0xd2de97d91b0fc425ULL},
    {"e12/bimodal/3", 9000000, 9284, 0x9087617827ff4d4fULL},
    {"e12/bimodal/4", 6000000, 11357, 0x53952f9a84493e22ULL},
    {"e12/bimodal/5", 7000000, 12789, 0x7defd9af43bd625aULL},
    {"e12/bimodal/6", 10000000, 9769, 0x8cf0c7477433856cULL},
    {"e12/bimodal/7", 10000000, 10311, 0x2345aa77daff587cULL},
    {"e12/heavy-tail/0", 6000000, 12644, 0x9e1ab967d81a97f6ULL},
    {"e12/heavy-tail/1", 7000000, 10140, 0xc10f68adff0ad3a1ULL},
    {"e12/heavy-tail/2", 6000000, 8041, 0x5c3a47e0861061c3ULL},
    {"e12/heavy-tail/3", 4000000, 6647, 0xbd896a096b4c98c6ULL},
    {"e12/heavy-tail/4", 5000000, 11843, 0xd869cd5c43f3d39aULL},
    {"e12/heavy-tail/5", 7000000, 9728, 0x5e4b2d2ee8e3fac3ULL},
    {"e12/heavy-tail/6", 5000000, 7203, 0x0c87bfcf9b51766fULL},
    {"e12/heavy-tail/7", 6000000, 9895, 0x31adba110a13c61bULL},
    {"e12/bursty/0", 9000000, 7909, 0x50eab6fc958f68d8ULL},
    {"e12/bursty/1", 4000000, 5913, 0x097172b8cfcffb6fULL},
    {"e12/bursty/2", 4000000, 9147, 0xe279cdc21653f9bbULL},
    {"e12/bursty/3", 4000000, 8172, 0x33656bf122d2a9f0ULL},
    {"e12/bursty/4", 6000000, 11467, 0xff945c0dee93b10fULL},
    {"e12/bursty/5", 4000000, 9737, 0xce12ee7bcd9c2577ULL},
    {"e12/bursty/6", 8000000, 11002, 0x9b7d091048a9247cULL},
    {"e12/bursty/7", 4000000, 11923, 0x1498dc181e319649ULL},
    {"e12/rigid/0", 7000000, 0, 0x38a2ef52d9d92ed9ULL},
    {"e12/rigid/1", 9000000, 0, 0x76d81fac62e7e00cULL},
    {"e12/rigid/2", 9000000, 0, 0x3b36716cd7236f11ULL},
    {"e12/rigid/3", 9000000, 0, 0x00574b6748020b4fULL},
    {"e12/rigid/4", 5000000, 0, 0x1542ffe934b60d48ULL},
    {"e12/rigid/5", 10000000, 0, 0xd86e1539a058b3caULL},
    {"e12/rigid/6", 10000000, 0, 0x01a4fc78946a1d2eULL},
    {"e12/rigid/7", 9000000, 0, 0xa115fd01e6677ea2ULL},
    {"e12/proportional-lax/0", 4000000, 8847, 0xa356f70e180f9259ULL},
    {"e12/proportional-lax/1", 5000000, 7556, 0xc7a44fdcc70d0a25ULL},
    {"e12/proportional-lax/2", 6000000, 8837, 0xee83bffdeccb3643ULL},
    {"e12/proportional-lax/3", 5000000, 9204, 0xc5b46f0564aa5e07ULL},
    {"e12/proportional-lax/4", 4000000, 8632, 0x363dd551d5053745ULL},
    {"e12/proportional-lax/5", 5000000, 8197, 0xa7287027e269df80ULL},
    {"e12/proportional-lax/6", 5000000, 7208, 0xec7a90b637016f06ULL},
    {"e12/proportional-lax/7", 5000000, 8025, 0x6d9596104d5a236aULL},
    {"e12/sparse/0", 19000000, 7832, 0xcdcbc1631bded50cULL},
    {"e12/sparse/1", 18000000, 8490, 0x367696ad46b26c3bULL},
    {"e12/sparse/2", 20000000, 9353, 0x7256305bdc15140dULL},
    {"e12/sparse/3", 20000000, 6646, 0x564e7d469d49d8cdULL},
    {"e12/sparse/4", 23000000, 7439, 0x54d634dbc0b0d1c4ULL},
    {"e12/sparse/5", 19000000, 7884, 0x4934ed36834e35beULL},
    {"e12/sparse/6", 15000000, 6852, 0xe2c199cbf37a10b1ULL},
    {"e12/sparse/7", 20000000, 8543, 0xa96c5d41e64088daULL},
    {"random/1", 3000000, 1202, 0xe73800ac1f9b6f6fULL},
    {"random/2", 5000000, 1302, 0xf8b8806c2b4a7076ULL},
    {"random/3", 8000000, 1698, 0xe63ead4be3fa09f0ULL},
    {"random/4", 10000000, 1210, 0x6d4e0c9366518229ULL},
    {"random/5", 12000000, 1228, 0x2f644fe21d633709ULL},
    {"random/6", 14000000, 1901, 0xe1818b79065e295eULL},
    {"random/7", 14000000, 1746, 0xfb9f704359a10066ULL},
    {"random/8", 14000000, 1733, 0xf29d430880cddd37ULL},
    {"random/9", 19095291, 1773, 0xe819bb81b665e808ULL},
    {"random/10", 20000000, 1924, 0x2350df20710226cbULL},
    {"random/11", 18689544, 1902, 0x5139f1d4122e6387ULL},
    {"random/12", 17880632, 1359, 0x11d639886eebcb89ULL},
    {"random/13", 20061555, 1742, 0xb04ae3e6b7aeba94ULL},
    {"random/14", 24000000, 1816, 0x1fc7cddd8174191cULL},
    {"random/15", 28000000, 1523, 0x73938f2bbb68d59eULL},
    {"random/16", 26883861, 1872, 0x81514044bdf61b83ULL},
    {"random/17", 22779844, 1825, 0x98d5abf960ceb717ULL},
    {"random/18", 31000000, 1784, 0x97e9763d9b099555ULL},
    {"random/19", 37000000, 1558, 0x77499adcc27224a5ULL},
    {"random/20", 28586604, 1818, 0x6c50c89584da8483ULL},
    {"random/21", 33515101, 1753, 0x19395f017e225f48ULL},
    {"random/22", 36369994, 1858, 0x5a5a4dc40e2d6aa2ULL},
    {"random/23", 36664833, 1563, 0xba89888eab7576c7ULL},
    {"random/24", 35814830, 1840, 0x30b215160e9d3a29ULL},
    {"random/25", 39614019, 1747, 0xc9f6ad05f5203d3eULL},
};

TEST(AnnealingGolden, SpansAcceptedAndStartsMatchPins) {
  const std::vector<AnnealPin> rows = compute_pins();
  ASSERT_EQ(rows.size(), kPins.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(rows[i].name);
    EXPECT_EQ(rows[i].name, kPins[i].name);
    EXPECT_EQ(rows[i].span_ticks, kPins[i].span_ticks);
    EXPECT_EQ(rows[i].accepted, kPins[i].accepted);
    EXPECT_EQ(rows[i].digest, kPins[i].digest)
        << std::hex << "actual 0x" << rows[i].digest;
  }
}

TEST(Annealing, ComplementsLocalSearch) {
  // Both heuristics are valid upper bounds; their min is what the
  // measurement harness would use. Just assert both sit above exact.
  const Instance inst = testing::random_integral_instance(77, 8, 12, 5, 4);
  const Time opt = exact_optimal_span(inst);
  EXPECT_GE(heuristic_span(inst), opt);
  EXPECT_GE(anneal_schedule(inst).span, opt);
}

}  // namespace
}  // namespace fjs
