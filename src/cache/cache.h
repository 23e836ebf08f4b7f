#pragma once
/// \file cache.h
/// \brief Set-associative cache model with true-LRU replacement.
///
/// This is the on-chip L1 model of the MPSoC simulator. It is a timing /
/// contents model (tags only, no data), write-allocate + write-back.
/// Cache state deliberately persists across context switches on the same
/// core: that persistence is the mechanism the paper's scheduler exploits.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/config.h"
#include "util/error.h"

namespace laps {

/// Outcome of one cache access.
enum class AccessOutcome : std::uint8_t { Hit, Miss };

/// What a miss's fill displaced (see SetAssocCache::access). The shared
/// levels use it to write dirty victims back down and to back-invalidate
/// L1 copies of lines an inclusive L2 evicts.
struct EvictionInfo {
  bool evicted = false;        ///< a valid line was displaced
  bool dirty = false;          ///< ... and it was dirty (write-back)
  std::uint64_t lineAddr = 0;  ///< base byte address of the victim line
};

/// Hit/miss tally of one bulk strided run (see SetAssocCache::accessRun).
struct AccessRunOutcome {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

/// Number of consecutive elements of the strided stream addr,
/// addr + strideBytes, ... that fall in the cache line containing addr
/// (INT64_MAX for stride 0). The unit of run-length-encoded cache
/// resolution: all those accesses after the first are guaranteed hits.
[[nodiscard]] std::int64_t lineRunLength(std::uint64_t addr,
                                         std::int64_t strideBytes,
                                         std::int64_t lineBytes);

/// Counters accumulated by a cache instance.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirtyEvictions = 0;  ///< write-backs to memory
  /// Lines dropped by flush() or inclusion back-invalidation
  /// (invalidateLine).
  std::uint64_t invalidations = 0;

  /// Reporting-only rate derived from the final integer counters; never
  /// feeds back into cache or scheduler state.
  // LINT-ALLOW(no-float): presentation-only rate over final integer counters
  [[nodiscard]] double missRate() const {
    if (accesses == 0) return 0.0;
    // LINT-ALLOW(no-float): presentation-only rate over final integer counters
    return static_cast<double>(misses) / static_cast<double>(accesses);
  }

  /// Element-wise sum (aggregation across cores).
  void accumulate(const CacheStats& other);
};

/// A single set-associative, true-LRU, write-back cache.
///
/// Geometry is resolved once, at construction, into shifts and a mask:
/// CacheConfig::validate() guarantees power-of-two line sizes and set
/// counts (the associativity may be any value), so the set index and
/// tag of an address are two shifts and an AND — no division on any
/// path. The hit paths (access, probe, touch) are inline so the replay
/// loop can fold them in; a miss's victim choice and fill stay out of
/// line (fillMiss), the one definition of the replacement policy.
class SetAssocCache {
 public:
  explicit SetAssocCache(CacheConfig config);

  /// Simulates one access; updates contents, LRU order and statistics.
  /// When \p evicted is non-null it reports the line a miss displaced
  /// (untouched on hits and fill-into-invalid).
  AccessOutcome access(std::uint64_t addr, bool isWrite,
                       EvictionInfo* evicted = nullptr) {
    ++stats_.accesses;
    ++useClock_;
    const std::size_t w = find(addr);
    if (w == kAbsent) {
      fillMiss(addr, isWrite, evicted);
      return AccessOutcome::Miss;
    }
    ways_[w].lastUse = useClock_;
    ways_[w].dirty |= isWrite;
    ++stats_.hits;
    return AccessOutcome::Hit;
  }

  /// Simulates \p count accesses of the strided stream addr,
  /// addr + strideBytes, ... with final state and statistics identical to
  /// \p count access() calls, but resolves each cache line's group of
  /// consecutive accesses with a single tag lookup (one associative
  /// search per line touched instead of one per element).
  AccessRunOutcome accessRun(std::uint64_t addr, std::int64_t strideBytes,
                             std::int64_t count, bool isWrite);

  /// LRU clock (the stamp of the most recent access). The run-length
  /// replay path reads it to compute exact per-access stamps for the
  /// accesses it resolves in bulk.
  [[nodiscard]] std::uint64_t clock() const { return useClock_; }

  /// Accounts \p count accesses that are known to hit without touching
  /// line metadata: bumps the access/hit counters and the LRU clock.
  /// Pair with touch() to re-stamp the lines those accesses would have
  /// touched.
  void bulkHits(std::int64_t count);

  /// Re-stamps the line containing \p addr as used at \p lastUseStamp
  /// (monotone: keeps the line's stamp if it is already newer) and merges
  /// the dirty bit. The line must be resident (throws otherwise); verify
  /// with probe() first.
  void touch(std::uint64_t addr, bool isWrite, std::uint64_t lastUseStamp) {
    const std::size_t w = find(addr);
    check(w != kAbsent, "SetAssocCache::touch: line not resident");
    ways_[w].lastUse = std::max(ways_[w].lastUse, lastUseStamp);
    ways_[w].dirty |= isWrite;
  }

  /// Invalidates everything (dirty lines count as write-backs).
  void flush();

  /// Drops the line containing \p addr if resident (inclusion
  /// back-invalidation from a shared outer level). Counts an
  /// invalidation — and a write-back when the line was dirty — and
  /// returns true when the dropped line was dirty, i.e. when its data
  /// must still go off chip.
  bool invalidateLine(std::uint64_t addr);

  /// True when the line containing \p addr is resident (no side effects).
  [[nodiscard]] bool probe(std::uint64_t addr) const {
    return find(addr) != kAbsent;
  }

  /// Index of the way holding \p addr's line in set-major order, in
  /// [0, config().numLines()), or kAbsent when the line is not resident.
  /// An owner keeping per-line state beside the cache (the shared L2's
  /// sharer masks) addresses it with this index.
  [[nodiscard]] std::size_t wayOf(std::uint64_t addr) const {
    return find(addr);
  }

  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  /// Set index and tag of \p addr from the construction-time shifts;
  /// equal to config().setIndexOf / tagOf, the readable definitions.
  [[nodiscard]] std::uint64_t setIndexOf(std::uint64_t addr) const {
    return (addr >> lineShift_) & setMask_;
  }
  [[nodiscard]] std::uint64_t tagOf(std::uint64_t addr) const {
    return addr >> tagShift_;
  }

  /// Number of valid lines currently resident.
  [[nodiscard]] std::int64_t residentLines() const;

  /// Base byte addresses of every resident line, in set-major way order
  /// (deterministic). Audit/diagnostics only — the inclusion audit
  /// (MemoryHierarchy::auditInclusion) enumerates L1 contents with it;
  /// never called on a model hot path.
  [[nodiscard]] std::vector<std::uint64_t> residentLineAddrs() const;

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  void resetStats() { stats_ = CacheStats{}; }

  [[nodiscard]] const CacheConfig& config() const { return config_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lastUse = 0;  // global stamp for LRU
    bool valid = false;
    bool dirty = false;
  };

  /// Associative search for \p addr's line: the index of its way in
  /// ways_, or kAbsent.
  [[nodiscard]] std::size_t find(std::uint64_t addr) const {
    const std::uint64_t tag = tagOf(addr);
    const std::size_t base = static_cast<std::size_t>(setIndexOf(addr)) * assoc_;
    for (std::size_t w = base; w < base + assoc_; ++w) {
      if (ways_[w].valid && ways_[w].tag == tag) return w;
    }
    return kAbsent;
  }

  /// Miss on \p addr (counters and clock already advanced by the
  /// caller): counts the miss, evicts the replacement candidate of the
  /// line's set — the first invalid way, else true-LRU; the single
  /// definition of the victim policy — reports it through \p evicted
  /// when non-null, and fills the line stamped with the current clock.
  void fillMiss(std::uint64_t addr, bool isWrite, EvictionInfo* evicted);

  CacheConfig config_;
  unsigned lineShift_ = 0;     // log2(lineBytes)
  unsigned tagShift_ = 0;      // log2(lineBytes * numSets)
  std::uint64_t setMask_ = 0;  // numSets - 1
  std::size_t assoc_ = 0;
  std::vector<Way> ways_;  // numSets * assoc, set-major
  CacheStats stats_;
  std::uint64_t useClock_ = 0;
};

}  // namespace laps
