#include "strided_interval.h"

#include <numeric>

#include "util/error.h"

namespace laps {
namespace {

/// Extended Euclid: returns g = gcd(a, b) and x, y with a*x + b*y = g.
struct Egcd {
  std::int64_t g, x, y;
};

Egcd egcd(std::int64_t a, std::int64_t b) {
  if (b == 0) return {a, 1, 0};
  const Egcd sub = egcd(b, a % b);
  return {sub.g, sub.y, sub.x - (a / b) * sub.y};
}

/// Floor modulo: result in [0, m) for m > 0.
std::int64_t floorMod(std::int64_t value, std::int64_t m) {
  const std::int64_t r = value % m;
  return r < 0 ? r + m : r;
}

}  // namespace

std::optional<std::int64_t> solveLinearCongruence(std::int64_t a,
                                                  std::int64_t c,
                                                  std::int64_t m) {
  check(m > 0, "solveLinearCongruence requires positive modulus");
  const Egcd e = egcd(floorMod(a, m), m);
  const std::int64_t g = e.g == 0 ? m : e.g;
  if (floorMod(c, g) != 0) return std::nullopt;
  const std::int64_t mg = m / g;
  // x = (c/g) * inv(a/g) mod (m/g); e.x is the Bezout coefficient of a.
  __extension__ typedef __int128 Wide;
  const auto prod = static_cast<Wide>(e.x) * (c / g);
  return static_cast<std::int64_t>(
      floorMod(static_cast<std::int64_t>(prod % mg), mg));
}

bool StridedInterval::contains(std::int64_t x) const {
  if (empty()) return false;
  if (x < base || x > back()) return false;
  return (x - base) % stride == 0;
}

IntervalSet StridedInterval::toIntervalSet() const {
  if (empty()) return {};
  check(stride >= 1, "StridedInterval stride must be >= 1");
  if (stride == 1) return IntervalSet::range(base, base + count);
  IntervalSet::Builder builder(static_cast<std::size_t>(count));
  for (std::int64_t k = 0; k < count; ++k) {
    builder.addPoint(base + k * stride);
  }
  return builder.build();
}

StridedInterval StridedInterval::intersect(const StridedInterval& other) const {
  if (empty() || other.empty()) return {};
  check(stride >= 1 && other.stride >= 1, "strides must be >= 1");
  // Solve base + i*stride ≡ other.base (mod other.stride).
  const auto i0 = solveLinearCongruence(stride, other.base - base, other.stride);
  if (!i0) return {};
  const std::int64_t g = std::gcd(stride, other.stride);
  const std::int64_t commonStride = stride / g * other.stride;  // lcm
  std::int64_t x0 = base + *i0 * stride;
  const std::int64_t lo = std::max(base, other.base);
  const std::int64_t hi = std::min(back(), other.back());
  if (x0 < lo) {
    const std::int64_t steps = (lo - x0 + commonStride - 1) / commonStride;
    x0 += steps * commonStride;
  }
  if (x0 > hi) return {};
  const std::int64_t n = (hi - x0) / commonStride + 1;
  return StridedInterval{x0, commonStride, n};
}

std::int64_t StridedInterval::intersectCount(const StridedInterval& other) const {
  return intersect(other).count;
}

}  // namespace laps
