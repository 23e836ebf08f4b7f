#pragma once
/// \file host_speed.h
/// \brief A fixed reference kernel timed next to every host-time
/// measurement, so that host times can be reported at reference speed.
///
/// On a shared host the same code runs up to twice as slow for tens of
/// seconds at a time, because neighbouring tenants contend for caches
/// and memory; medians over one run cannot average such spells out.
/// The kernel below exercises the same resources as the simulator
/// (dependent loads from a last-level-cache-sized table, set-associative
/// tag lookups, and branchy sorting of a level-2-cache-sized array) and
/// never changes with the library, so the ratio of a measured time to
/// the kernel times around it tracks the code and not the host.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The kernel's host seconds at reference speed, which this constant
/// defines: about its fastest median run on the 4-CPU Xeon VM the
/// benchmark was developed on. A run's host times are scaled by this
/// over the median of the kernel times measured between its calls.
inline constexpr double kReferenceKernelSeconds = 0.040;

class HostSpeed {
 public:
  HostSpeed();

  /// Runs the kernel once and returns its host seconds.
  double measure();

  /// Bytes the kernel's tables keep resident.
  [[nodiscard]] std::size_t residentBytes() const;

 private:
  std::vector<std::uint32_t> chain_;  ///< one random cycle over all slots
  std::vector<std::uint64_t> tags_;   ///< 2-way tag array
  std::vector<std::uint32_t> keys_;   ///< array the kernel sorts
  std::uint64_t state_ = 1;
};

}  // namespace perfbench
