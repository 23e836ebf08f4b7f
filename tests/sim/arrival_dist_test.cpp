/// \file arrival_dist_test.cpp
/// \brief The integer-only arrival distributions: determinism, pinned
/// golden draws (platform identity), empirical means, and tail shape.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/arrivals.h"
#include "util/error.h"
#include "util/rng.h"

namespace laps {
namespace {

ArrivalSchedule schedule(ArrivalDistribution dist, std::int64_t mean = 1000,
                         std::uint64_t seed = 42) {
  ArrivalSchedule s;
  s.seed = seed;
  s.meanInterArrivalCycles = mean;
  s.distribution = dist;
  return s;
}

std::vector<std::int64_t> draw(const ArrivalSchedule& s, std::size_t count) {
  GapSampler sampler(s);
  std::vector<std::int64_t> gaps;
  gaps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) gaps.push_back(sampler.next());
  return gaps;
}

constexpr ArrivalDistribution kAllDistributions[] = {
    ArrivalDistribution::Uniform, ArrivalDistribution::Exponential,
    ArrivalDistribution::BoundedPareto};

TEST(ArrivalDistributions, DeterministicAcrossRerunsAndSeedSensitive) {
  for (const ArrivalDistribution dist : kAllDistributions) {
    const auto a = draw(schedule(dist), 500);
    const auto b = draw(schedule(dist), 500);
    EXPECT_EQ(a, b) << static_cast<int>(dist);
    const auto c = draw(schedule(dist, 1000, 43), 500);
    EXPECT_NE(a, c) << static_cast<int>(dist);
    for (const std::int64_t gap : a) {
      EXPECT_GE(gap, 1) << static_cast<int>(dist);
    }
  }
}

TEST(ArrivalDistributions, GoldenDrawsPinPlatformIdentity) {
  // The samplers are integer-only (fixed-point survival functions,
  // integer square roots, rejection sampling — no libm), so these exact
  // values must reproduce on every platform, compiler and build type.
  // A mismatch means the sampling algorithm changed, which invalidates
  // every committed open-workload baseline.
  using V = std::vector<std::int64_t>;
  EXPECT_EQ(draw(schedule(ArrivalDistribution::Uniform), 6),
            (V{704, 730, 1625, 1946, 818, 1223}));
  EXPECT_EQ(draw(schedule(ArrivalDistribution::Exponential), 6),
            (V{2478, 970, 386, 79, 9, 262}));
  EXPECT_EQ(draw(schedule(ArrivalDistribution::BoundedPareto), 6),
            (V{470, 585, 820, 385, 327, 559}));
}

TEST(ArrivalDistributions, EmpiricalMeansTrackTheConfiguredMean) {
  constexpr std::size_t kSamples = 20'000;
  constexpr std::int64_t kMean = 1000;
  // Uniform and Exponential hit the mean exactly by construction;
  // BoundedPareto to within rounding of its derived minimum gap.
  const double tolerance[] = {0.03, 0.03, 0.06};
  for (std::size_t d = 0; d < 3; ++d) {
    const auto gaps = draw(schedule(kAllDistributions[d], kMean), kSamples);
    double sum = 0;
    for (const std::int64_t gap : gaps) sum += static_cast<double>(gap);
    const double empirical = sum / static_cast<double>(kSamples);
    EXPECT_NEAR(empirical, static_cast<double>(kMean),
                tolerance[d] * static_cast<double>(kMean))
        << "distribution " << d;
  }
}

TEST(ArrivalDistributions, ParetoTailIsHeavierThanExponential) {
  constexpr std::size_t kSamples = 20'000;
  constexpr std::int64_t kMean = 1000;
  const auto countOver = [](const std::vector<std::int64_t>& gaps,
                            std::int64_t threshold) {
    std::size_t n = 0;
    for (const std::int64_t gap : gaps) n += gap > threshold ? 1 : 0;
    return n;
  };
  const auto expGaps = draw(schedule(ArrivalDistribution::Exponential, kMean),
                            kSamples);
  const auto parGaps = draw(schedule(ArrivalDistribution::BoundedPareto, kMean),
                            kSamples);
  // P(gap > 8*mean): ~e^-8 = 3.4e-4 for the geometric, polynomial
  // (~0.8% with alpha = 1.5 over 8 octaves) for the bounded Pareto.
  const std::size_t expTail = countOver(expGaps, 8 * kMean);
  const std::size_t parTail = countOver(parGaps, 8 * kMean);
  EXPECT_GT(parTail, 100u);
  EXPECT_LT(expTail, 20u);
  EXPECT_GT(parTail, 10 * expTail);
  // Uniform has no tail at all past 2*mean.
  const auto uniGaps =
      draw(schedule(ArrivalDistribution::Uniform, kMean), kSamples);
  EXPECT_EQ(countOver(uniGaps, 2 * kMean - 1), 0u);
}

TEST(ArrivalDistributions, UniformStreamMatchesTheLegacyCohortScheme) {
  // The Uniform sampler must consume the Rng exactly like the original
  // cohort-arrival loop (one range(1, 2*mean - 1) call per gap), or
  // every committed open-workload baseline breaks. Reimplement that
  // loop as the oracle.
  ArrivalSchedule s = schedule(ArrivalDistribution::Uniform, 10'000, 7);
  const auto arrivals = cohortArrivalCycles(s, 64);
  Rng oracle(s.seed);
  std::int64_t cycle = 0;
  for (std::size_t k = 0; k < 64; ++k) {
    EXPECT_EQ(arrivals[k], cycle) << "cohort " << k;
    cycle += oracle.range(1, 2 * s.meanInterArrivalCycles - 1);
  }
  // processArrivalCycles shares the gap machinery: same schedule, same
  // stream.
  EXPECT_EQ(processArrivalCycles(s, 64), arrivals);
}

TEST(ArrivalDistributions, MeanOneCollapsesEveryGap) {
  // Uniform and Exponential collapse exactly. BoundedPareto cannot
  // represent mean 1 (its minimum-gap floor L = 1 still spans
  // spanOctaves octaves — the documented rounding of L); it must stay
  // within [1, 2^spanOctaves) and keep every gap positive.
  for (const ArrivalDistribution dist :
       {ArrivalDistribution::Uniform, ArrivalDistribution::Exponential}) {
    for (const std::int64_t gap : draw(schedule(dist, 1), 100)) {
      EXPECT_EQ(gap, 1) << static_cast<int>(dist);
    }
  }
  const ArrivalSchedule pareto = schedule(ArrivalDistribution::BoundedPareto, 1);
  for (const std::int64_t gap : draw(pareto, 100)) {
    EXPECT_GE(gap, 1);
    EXPECT_LT(gap, std::int64_t{1} << 8);  // 8 octaves above L = 1
  }
}

TEST(ArrivalDistributions, ValidatesParetoMeanBound) {
  ArrivalSchedule s = schedule(ArrivalDistribution::BoundedPareto);
  s.validate();
  // The largest gap, L << 8, must fit in int64.
  s.meanInterArrivalCycles = std::numeric_limits<std::int64_t>::max() >> 4;
  EXPECT_THROW(s.validate(), Error);
}

}  // namespace
}  // namespace laps
