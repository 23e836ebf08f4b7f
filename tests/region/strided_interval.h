#pragma once
/// \file strided_interval.h
/// \brief Arithmetic progressions {base + k*stride : 0 <= k < count}.
///
/// Strided intervals describe the image of a single loop dimension under
/// an affine access. Intersections are computed exactly via the extended
/// Euclidean algorithm (a one-dimensional Presburger solve).
///
/// Test-only: no analysis in the library uses progressions; they are the
/// exact second oracle of tests/region/interval_set_property_test.cpp.

#include <cstdint>
#include <optional>

#include "region/interval_set.h"

namespace laps {

/// The set {base + k*stride : 0 <= k < count}, with stride >= 1.
/// An empty progression has count == 0.
struct StridedInterval {
  std::int64_t base = 0;
  std::int64_t stride = 1;
  std::int64_t count = 0;

  [[nodiscard]] bool empty() const { return count <= 0; }

  /// Last element (requires non-empty).
  [[nodiscard]] std::int64_t back() const { return base + (count - 1) * stride; }

  [[nodiscard]] bool contains(std::int64_t x) const;

  /// Exact expansion to an IntervalSet. For stride 1 this is a single
  /// interval; otherwise `count` unit intervals (caller should budget).
  [[nodiscard]] IntervalSet toIntervalSet() const;

  /// Exact size of the intersection of two progressions.
  [[nodiscard]] std::int64_t intersectCount(const StridedInterval& other) const;

  /// Exact intersection as a progression (the intersection of two
  /// arithmetic progressions is itself one, possibly empty).
  [[nodiscard]] StridedInterval intersect(const StridedInterval& other) const;
};

/// Solves a*x ≡ c (mod m) for the smallest non-negative x, if solvable.
/// Exposed for testing; this is the core of progression intersection.
[[nodiscard]] std::optional<std::int64_t> solveLinearCongruence(
    std::int64_t a, std::int64_t c, std::int64_t m);

}  // namespace laps
