#pragma once
/// \file reference_cache.h
/// \brief Test-only reference set-associative cache: one std::vector of
/// ways per set, set index and tag derived by division
/// (CacheConfig::setIndexOf / tagOf) and a victim search that rescans
/// the set. It shares no
/// code with src/cache/cache.cpp, so the differential tests compare two
/// independent implementations of the same true-LRU, write-allocate,
/// write-back cache.

#include <cstdint>
#include <vector>

#include "cache/cache.h"

namespace laps::reference {

/// Element-identical to laps::SetAssocCache: same outcomes, eviction
/// reports, statistics, LRU clock and resident lines with their stamps
/// and dirty bits.
class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& config);

  AccessOutcome access(std::uint64_t addr, bool isWrite,
                       EvictionInfo* evicted = nullptr);
  void bulkHits(std::int64_t count);
  /// Throws laps::Error when the line is not resident.
  void touch(std::uint64_t addr, bool isWrite, std::uint64_t lastUseStamp);
  void flush();
  bool invalidateLine(std::uint64_t addr);
  [[nodiscard]] bool probe(std::uint64_t addr) const;
  /// Every resident line with its stamp and dirty bit, set-major way
  /// order.
  [[nodiscard]] std::vector<laps::SetAssocCache::ResidentLine>
  residentLineStates() const;

  [[nodiscard]] std::uint64_t clock() const { return clock_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Way {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
    std::uint64_t lastUse = 0;
  };

  /// The way holding \p addr's line, or nullptr.
  Way* find(std::uint64_t addr);

  CacheConfig config_;
  std::vector<std::vector<Way>> sets_;
  CacheStats stats_;
  std::uint64_t clock_ = 0;
};

}  // namespace laps::reference
