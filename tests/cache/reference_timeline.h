#pragma once
/// \file reference_timeline.h
/// \brief Test-only reference busy calendar: one std::map node per
/// interval (start -> end), a gap search that walks the tree from
/// upper_bound, coalescing by erase-and-reinsert and an eager
/// retireBefore that erases from the front. It shares no code with
/// src/cache/bus.cpp, so the differential tests compare two independent
/// implementations of the same calendar.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace laps::reference {

/// Calendar of busy intervals, element-identical to laps::BusyTimeline
/// (same gap search, same coalescing, same retirement).
class BusyTimeline {
 public:
  /// Books \p duration cycles at the earliest feasible start >= \p now;
  /// returns the booked start.
  std::int64_t reserve(std::int64_t now, std::int64_t duration);

  /// Earliest feasible start >= \p now for \p duration cycles.
  [[nodiscard]] std::int64_t earliestStart(std::int64_t now,
                                           std::int64_t duration) const;

  /// Books \p duration cycles at \p start (a feasible start).
  void bookAt(std::int64_t start, std::int64_t duration);

  /// Drops intervals ending at or before \p cycle.
  void retireBefore(std::int64_t cycle);

  /// The retained intervals in start order.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>> intervals()
      const;

 private:
  std::map<std::int64_t, std::int64_t> busy_;  ///< start -> end, disjoint
};

}  // namespace laps::reference
