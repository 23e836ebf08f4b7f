#pragma once
/// \file footprint.h
/// \brief Exact data footprints: the paper's DS sets.
///
/// The footprint of a process is, per array, the set of element offsets
/// it touches — the paper's
///   DS1,k = {[d1,d2] : d1 = i1*1000+i2 && d2 = 5 && [i1,i2] ∈ IS1,k}
/// linearized row-major. Footprints intersect exactly, which yields the
/// sharing sets SS and the sharing matrix of Fig. 2(a).

#include <cstdint>
#include <map>

#include "region/access.h"
#include "region/array.h"
#include "region/interval_set.h"
#include "region/iteration_space.h"

namespace laps {

/// Budget guard for footprint enumeration: maximum number of interval
/// fragments generated for a single access image before the library
/// refuses (to protect against accidentally unbounded spaces).
inline constexpr std::int64_t kDefaultFootprintBudget = 1 << 23;

/// Collapses a multi-dimensional access into a single affine expression
/// over the loop vector that yields the row-major linear element offset.
[[nodiscard]] AffineExpr linearizeAccess(const ArrayAccess& access,
                                         const ArrayInfo& info);

/// linearizeAccess without temporaries: appends its rank() coefficients
/// and then its constant term to \p out, and returns the rank.
std::size_t appendLinearized(const ArrayAccess& access, const ArrayInfo& info,
                             std::vector<std::int64_t>& out);

/// Exact image (as linear element offsets) of \p space under \p access.
/// Throws laps::Error if the enumeration would exceed \p budget fragments.
[[nodiscard]] IntervalSet accessFootprint(const IterationSpace& space,
                                          const ArrayAccess& access,
                                          const ArrayInfo& info,
                                          std::int64_t budget = kDefaultFootprintBudget);

/// accessFootprint(space, access, info, budget).bounds() without the
/// enumeration, in O(rank): a linear address over a rectangular space
/// takes its extremes at the corners. Runs the same rank and budget
/// checks, with the same errors; an empty interval for an empty space.
[[nodiscard]] Interval accessFootprintBounds(
    const IterationSpace& space, const ArrayAccess& access,
    const ArrayInfo& info, std::int64_t budget = kDefaultFootprintBudget);

/// Per-array element footprint of one process (union over its accesses).
class Footprint {
 public:
  /// Unions \p elements into the entry for \p array.
  void add(ArrayId array, const IntervalSet& elements);

  /// Elements of \p array touched (empty set if none).
  [[nodiscard]] const IntervalSet& of(ArrayId array) const;

  [[nodiscard]] bool touches(ArrayId array) const;

  /// Arrays present in this footprint.
  [[nodiscard]] std::vector<ArrayId> arrays() const;

  /// Total number of distinct elements across all arrays.
  [[nodiscard]] std::int64_t totalElements() const;

  /// The paper's |SS_{p,q}|: number of elements shared with \p other,
  /// summed over arrays.
  [[nodiscard]] std::int64_t sharedElements(const Footprint& other) const;

  /// Union with another footprint (used to aggregate loop nests).
  void merge(const Footprint& other);

  [[nodiscard]] const std::map<ArrayId, IntervalSet>& perArray() const {
    return perArray_;
  }

 private:
  std::map<ArrayId, IntervalSet> perArray_;
};

}  // namespace laps
