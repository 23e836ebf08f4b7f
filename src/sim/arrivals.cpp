#include "sim/arrivals.h"

#include <limits>

#include "util/error.h"

namespace laps {
namespace {

using U128 = unsigned __int128;

/// Q0.64 fixed-point multiply: floor(a * b / 2^64). Both operands
/// represent values in [0, 1); exact integer arithmetic, so identical on
/// every platform.
std::uint64_t qmul(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint64_t>((static_cast<U128>(a) * b) >> 64);
}

/// Largest x with x*x <= v (integer square root of a 128-bit value).
std::uint64_t isqrt128(U128 v) {
  std::uint64_t x = 0;
  for (int b = 63; b >= 0; --b) {
    const std::uint64_t cand = x | (std::uint64_t{1} << b);
    if (static_cast<U128>(cand) * cand <= v) x = cand;
  }
  return x;
}

/// BoundedPareto's fixed shape: gaps span kParetoOctaves octaves
/// [L, L * 2^8) whose masses decay by 2^(-alpha) per octave, alpha = 1.5.
constexpr int kParetoOctaves = 8;

/// 2^(-1.5) in Q0.64: 2^62.5, half the integer square root of 2^127.
std::uint64_t octaveDecayQ64() {
  return isqrt128(static_cast<U128>(1) << 127) >> 1;
}

}  // namespace

void ArrivalSchedule::validate() const {
  check(meanInterArrivalCycles > 0,
        "ArrivalSchedule: meanInterArrivalCycles must be positive");
  // The uniform gap draw computes 2*mean - 1 in int64: bound the mean so
  // that intermediate cannot overflow (which would wrap negative and
  // silently collapse every gap to 1 cycle).
  check(meanInterArrivalCycles <=
            std::numeric_limits<std::int64_t>::max() / 2,
        "ArrivalSchedule: meanInterArrivalCycles too large (2*mean must "
        "fit in int64)");
  check(!processLifetimeCycles || *processLifetimeCycles > 0,
        "ArrivalSchedule: processLifetimeCycles must be positive when set");
  if (distribution == ArrivalDistribution::BoundedPareto) {
    check(meanInterArrivalCycles <=
              std::numeric_limits<std::int64_t>::max() >> kParetoOctaves,
          "ArrivalSchedule: meanInterArrivalCycles too large for "
          "BoundedPareto (largest gap must fit in int64)");
  }
}

GapSampler::GapSampler(const ArrivalSchedule& schedule)
    : distribution_(schedule.distribution),
      mean_(schedule.meanInterArrivalCycles),
      rng_(schedule.seed) {
  schedule.validate();
  switch (distribution_) {
    case ArrivalDistribution::Uniform:
      break;
    case ArrivalDistribution::Exponential: {
      // Survival ratio q = 1 - 1/mean in Q0.64 (truncation error 2^-64,
      // irrelevant next to the distribution itself). mean == 1 gives
      // q == 0: every gap collapses to 1, like the uniform edge case.
      const auto m = static_cast<std::uint64_t>(mean_);
      geomSurvivalQ64_ = m <= 1 ? 0 : ~std::uint64_t{0} - ~std::uint64_t{0} / m;
      // Tail sanity cap at 64*mean (survival e^-64; never reached in
      // practice, but it bounds the doubling search and the arithmetic).
      maxGap_ = mean_ > (std::numeric_limits<std::int64_t>::max() >> 6)
                    ? std::numeric_limits<std::int64_t>::max()
                    : 64 * mean_;
      break;
    }
    case ArrivalDistribution::BoundedPareto: {
      // Octave weights w_j = r^j, r = 2^(-alpha), kept in Q0.32 so the
      // cumulative table fits comfortably in 64 bits.
      const std::uint64_t r = octaveDecayQ64();
      paretoCumWeights_.resize(kParetoOctaves);
      std::uint64_t w = std::uint64_t{1} << 32;  // w_0 = 1.0 in Q0.32
      std::uint64_t cum = 0;
      U128 weighted = 0;  // S = sum_j w_j * 2^j, for the mean solve
      for (int j = 0; j < kParetoOctaves; ++j) {
        cum += w;
        weighted += static_cast<U128>(w) << j;
        paretoCumWeights_[static_cast<std::size_t>(j)] = cum;
        // w stays Q0.32: (Q0.32 * Q0.64) >> 64 = Q0.32.
        w = static_cast<std::uint64_t>((static_cast<U128>(w) * r) >> 64);
      }
      // The mean of the mixture is L * 3*S/(2*W) - 1/2 (uniform within
      // octave j on [L*2^j, L*2^(j+1) - 1]), so the smallest gap L that
      // hits the configured mean is L = (2*mean + 1) * W / (3*S),
      // rounded. L >= 1 keeps gaps positive; the empirical mean then
      // tracks the configured one to within rounding of L.
      const U128 numer =
          static_cast<U128>(2 * static_cast<U128>(mean_) + 1) * cum;
      const U128 denom = 3 * weighted;
      const U128 l = (numer + denom / 2) / denom;
      paretoMinGap_ = l < 1 ? 1 : static_cast<std::int64_t>(l);
      break;
    }
  }
}

std::int64_t GapSampler::next() {
  switch (distribution_) {
    case ArrivalDistribution::Exponential:
      return nextGeometric();
    case ArrivalDistribution::BoundedPareto:
      return nextPareto();
    case ArrivalDistribution::Uniform:
      break;
  }
  // Uniform on [1, 2*mean - 1]: integer-exact with mean exactly mean_
  // (the mean == 1 edge collapses to a fixed gap of 1). Byte-compatible
  // with the PR 5 cohort scheme: one Rng::range call per gap.
  const std::int64_t hi = 2 * mean_ - 1;
  return rng_.range(1, hi >= 1 ? hi : 1);
}

std::int64_t GapSampler::nextGeometric() {
  // Invert the survival function: the gap is the smallest k >= 1 with
  // q^k <= u for one uniform 64-bit draw u, i.e. P(gap > k) = q^k. All
  // powers are floored Q0.64 products, so the whole sample is exact
  // integer arithmetic; cost is O(log gap) multiplies.
  const std::uint64_t u = rng_();
  const std::uint64_t q = geomSurvivalQ64_;
  if (q == 0 || u >= q) return 1;

  // Doubling phase: powers[j] = q^(2^j); stop at the first <= u. The
  // exponent cap keeps k + 1 <= 2 * maxGap_ overflow-free.
  int jCap = 1;
  while (jCap < 62 && (std::int64_t{1} << jCap) < maxGap_) ++jCap;
  std::uint64_t powers[64];
  powers[0] = q;
  int bracket = 0;
  while (powers[bracket] > u && bracket < jCap) {
    powers[bracket + 1] = qmul(powers[bracket], powers[bracket]);
    ++bracket;
  }
  // The gap lies in (2^(bracket-1), 2^bracket]. Refine by filling in
  // lower exponent bits while keeping the invariant pk = q^k > u.
  std::int64_t k = std::int64_t{1} << (bracket - 1);
  std::uint64_t pk = powers[bracket - 1];
  for (int b = bracket - 2; b >= 0; --b) {
    const std::uint64_t cand = qmul(pk, powers[b]);
    if (cand > u) {
      k += std::int64_t{1} << b;
      pk = cand;
    }
  }
  return std::min(k + 1, maxGap_);
}

std::int64_t GapSampler::nextPareto() {
  // Pick the octave from the truncated-geometric weight table, then a
  // uniform offset within it.
  const std::uint64_t t = rng_.below(paretoCumWeights_.back());
  std::size_t octave = 0;
  while (t >= paretoCumWeights_[octave]) ++octave;
  const std::int64_t lo = paretoMinGap_ << octave;
  const std::int64_t hi = (paretoMinGap_ << (octave + 1)) - 1;
  return rng_.range(lo, hi);
}

namespace {

std::vector<std::int64_t> arrivalCycles(const ArrivalSchedule& schedule,
                                        std::size_t count) {
  GapSampler gaps(schedule);
  std::vector<std::int64_t> arrivals;
  arrivals.reserve(count);
  std::int64_t cycle = 0;
  for (std::size_t k = 0; k < count; ++k) {
    arrivals.push_back(cycle);
    cycle += gaps.next();
  }
  return arrivals;
}

}  // namespace

std::vector<std::int64_t> cohortArrivalCycles(const ArrivalSchedule& schedule,
                                              std::size_t cohortCount) {
  return arrivalCycles(schedule, cohortCount);
}

std::vector<std::int64_t> processArrivalCycles(const ArrivalSchedule& schedule,
                                               std::size_t processCount) {
  return arrivalCycles(schedule, processCount);
}

}  // namespace laps
