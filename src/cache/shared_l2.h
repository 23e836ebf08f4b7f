#pragma once
/// \file shared_l2.h
/// \brief Shared, banked, inclusive second-level cache.
///
/// The paper's platform (Table 2) has only private L1s over off-chip
/// memory; SharedL2 is the optional on-chip level the platform-realism
/// work adds (docs/ARCHITECTURE.md §7). It is a single cache shared by
/// every core, split into address-interleaved banks — bank = line index
/// mod bankCount — each bank an independent SetAssocCache with its own
/// MSHR-less occupancy calendar: one request occupies its bank for
/// bankBusyCycles, and a second request to the same bank queues
/// (BusyTimeline), so bank conflicts between cores add latency even on
/// L2 hits.
///
/// Inclusion: every L1-resident *data* line is also L2-resident. When a
/// bank evicts a line, the owning MemoryHierarchy back-invalidates that
/// line in every registered L1 data cache. Code lines are read-only and
/// are exempt (no coherence to maintain; see ARCHITECTURE.md §7).

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "cache/bus.h"
#include "cache/cache.h"
#include "cache/config.h"

namespace laps {

/// Geometry and timing of the shared L2. Sizes are totals over all
/// banks; each bank is sizeBytes/bankCount large with the same
/// associativity and line size.
struct SharedL2Config {
  std::int64_t sizeBytes = 256 * 1024;  ///< total capacity
  std::int64_t assoc = 8;               ///< ways per set (every bank)
  std::int64_t lineBytes = 32;          ///< must match the L1 line size
  std::int64_t bankCount = 8;           ///< address-interleaved banks
  std::int64_t hitLatencyCycles = 8;    ///< tag+data access on a hit
  std::int64_t bankBusyCycles = 4;      ///< per-request bank occupancy

  /// Geometry of one bank.
  [[nodiscard]] CacheConfig bankConfig() const;

  /// The whole L2 viewed as one cache (set space of the contention-aware
  /// scheduler's conflict analysis).
  [[nodiscard]] CacheConfig aggregateConfig() const;

  /// Throws laps::Error on inconsistent geometry (non-positive fields,
  /// capacity not divisible into banks, invalid bank geometry).
  void validate() const;
};

/// Outcome of one L2 access (see SharedL2::access).
struct L2AccessResult {
  AccessOutcome outcome = AccessOutcome::Hit;
  std::int64_t bankWaitCycles = 0;  ///< queueing behind the bank
  /// Line displaced by a miss's fill: the hierarchy back-invalidates it
  /// in the L1s (inclusion) and writes it back when dirty.
  std::optional<std::uint64_t> evictedLineAddr;
  bool evictedLineDirty = false;
};

/// The shared banked L2 (see file comment). Latency composition and
/// back-invalidation live in MemoryHierarchy; this class owns the banks,
/// their calendars and the statistics.
class SharedL2 {
 public:
  explicit SharedL2(const SharedL2Config& config);

  /// One lookup at absolute cycle \p now. Misses allocate (fills arrive
  /// clean; dirtiness flows in through writeback()).
  L2AccessResult access(std::uint64_t addr, std::int64_t now);

  /// An L1 evicted a dirty copy of \p addr's line: mark the L2 copy
  /// dirty so its eventual eviction counts as an off-chip write-back.
  /// Returns false — and does nothing — when the line is absent (the
  /// hierarchy then routes the write-back off chip instead).
  bool writeback(std::uint64_t addr);

  /// True when \p addr's line is L2-resident (no side effects).
  [[nodiscard]] bool probe(std::uint64_t addr) const;

  /// Bank index of \p addr (line-interleaved).
  [[nodiscard]] std::int64_t bankOf(std::uint64_t addr) const;

  /// Statistics summed over banks.
  [[nodiscard]] CacheStats stats() const;

  /// Total cycles requests spent queueing behind busy banks.
  [[nodiscard]] std::uint64_t bankWaitCycles() const { return bankWait_; }

  void resetStats();

  /// Raises the retire horizon: no later request is issued before
  /// \p cycle. Each bank calendar is pruned to it lazily, when booked.
  void retireBefore(std::int64_t cycle);

  [[nodiscard]] const SharedL2Config& config() const { return config_; }

 private:
  /// Banks see a folded address space (line index divided by bankCount)
  /// so consecutive lines of one bank map to consecutive sets.
  [[nodiscard]] std::uint64_t fold(std::uint64_t addr) const;
  [[nodiscard]] std::uint64_t unfold(std::uint64_t foldedLineAddr,
                                     std::int64_t bank) const;

  SharedL2Config config_;
  std::vector<SetAssocCache> banks_;
  std::vector<BusyTimeline> calendars_;
  std::int64_t horizon_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t bankWait_ = 0;
};

}  // namespace laps
