#pragma once
/// \file hierarchy.h
/// \brief The composable memory hierarchy: private split L1s over an
/// optional shared banked L2 and an optional contended off-chip bus.
///
/// Table 2 of the paper: 8 KB 2-way data and instruction caches per
/// processor, 2-cycle cache access, 75-cycle off-chip access — private
/// L1s straight over off-chip memory. That flat model is the default.
/// The platform-realism extension (docs/ARCHITECTURE.md §7) composes
/// two optional levels under the L1s:
///
///   MemorySystem (per core: split L1 I/D)
///     └─ MemoryHierarchy (shared by all cores)
///          ├─ SharedL2  (banked, inclusive; optional — under Directory
///          │             coherence its ways also hold the sharer masks)
///          ├─ MemoryBus (bounded outstanding transactions) — or —
///          ├─ NocFabric (mesh/crossbar, per-link calendars)
///          └─ fixed memLatencyCycles on the flat interconnect
///
/// The shared-level shape is described by a PlatformConfig
/// (cache/platform.h): interconnect {Flat, Bus, Mesh, Xbar} ×
/// coherence {Broadcast, Directory} × optional shared L2. With
/// everything disabled the miss path is the paper's constant off-chip
/// latency, bit-identical to the pre-hierarchy simulator (the
/// differential suite and the committed bench baselines enforce this).
/// With contended levels enabled, a miss's latency depends on the
/// absolute cycle it issues and on the other cores' traffic: bank
/// conflicts, bus queueing and NoC link congestion are how co-scheduled
/// processes now interfere — and on a NoC, on *which tile* the
/// requester sits (distance to the bank's home tile and the memory
/// controller at node 0).

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/bus.h"
#include "cache/cache.h"
#include "cache/miss_class.h"
#include "cache/noc.h"
#include "cache/platform.h"
#include "cache/shared_l2.h"

namespace laps {

/// Configuration of one core's memory system.
struct MemoryConfig {
  CacheConfig l1d{};                  ///< data cache (Table 2 defaults)
  CacheConfig l1i{};                  ///< instruction cache
  std::int64_t memLatencyCycles = 75; ///< off-chip access (Table 2)
  bool modelICache = true;            ///< simulate instruction fetches
  bool classifyMisses = false;        ///< enable 3C classification (slower)
};

/// Counters of Directory coherence's targeted back-invalidations.
struct DirectoryStats {
  /// Targeted invalidation probes actually sent.
  std::uint64_t invalidationsSent = 0;
  /// Probes the broadcast protocol would have issued that the sharer
  /// mask filtered out — the protocol's whole point.
  std::uint64_t invalidationsFiltered = 0;
};

/// The levels below the private L1s, shared by every core. Composes an
/// optional SharedL2 and an optional MemoryBus; with neither, a miss
/// costs the fixed memLatencyCycles (the paper's platform, exactly).
class MemoryHierarchy {
 public:
  /// Flat off-chip memory with a fixed latency (paper default).
  explicit MemoryHierarchy(std::int64_t memLatencyCycles = 75);

  /// Full composition from a platform descriptor (cache/platform.h):
  /// interconnect {Flat, Bus, Mesh, Xbar} × coherence {Broadcast,
  /// Directory} × optional shared L2. \p coreCount sizes the NoC (one
  /// node per core; the memory controller sits at node 0 and L2 bank b
  /// is homed at node b % coreCount) and, under Directory coherence,
  /// the core bits of the L2's sharer masks.
  MemoryHierarchy(std::int64_t memLatencyCycles,
                  const PlatformConfig& platform, std::size_t coreCount,
                  std::int64_t lineBytes);

  /// Latency beyond the L1 of a miss on \p addr issued at absolute cycle
  /// \p now. May back-invalidate registered L1 data caches (inclusion)
  /// and post write-back bus/NoC traffic. \p core is the requesting
  /// core's index (its NoC node and directory bit); \p dataFill marks
  /// fills that install the line in the requester's L1 *data* cache, so
  /// the line's sharer mask can record it — instruction fetches leave
  /// it false (icaches are inclusion-exempt and never probed). Both extra
  /// arguments are ignored by the flat/bus/broadcast paths, keeping
  /// every legacy two-argument call site exact.
  std::int64_t missLatency(std::uint64_t addr, std::int64_t now,
                           std::size_t core = 0, bool dataFill = false);

  /// \name Dirty L1 victim write-backs (two phases)
  /// Phase 1, *before* the miss's own fill: try to absorb the
  /// write-back on chip by dirty-marking the victim's L2 copy — doing
  /// this first closes the window in which the same miss's L2 fill
  /// could evict that (still clean) copy and silently drop the dirty
  /// data. Returns true when absorbed. Phase 2, *after* the fill
  /// resolved: an unabsorbed write-back leaves the chip as posted
  /// traffic — it occupies the bus, delaying later demand, but never
  /// stalls its own requester.
  /// @{
  bool absorbL1Writeback(std::uint64_t lineAddr);
  void postL1Writeback(std::int64_t now);
  /// @}

  /// \name L1 registration (inclusion back-invalidation targets)
  /// MemorySystem registers its data cache on construction in the slot
  /// of its core index (one cache per slot; throws when taken), so mask
  /// bit c names core c's cache in any construction order. Instruction
  /// caches are exempt: code lines are read-only, so an inclusion
  /// violation on code has no observable effect — and exempting them
  /// keeps the run-length replayer's warm-body fetch claim intact.
  /// @{
  void registerDataCache(SetAssocCache* l1d, std::size_t core);
  void unregisterDataCache(std::size_t core);
  /// @}

  /// True when at least one contended level (L2, bus, or a NoC with
  /// non-zero timing) is enabled — i.e. when a miss's latency depends
  /// on \p now. A zero-cost NoC never adds latency, so it deliberately
  /// does not count: the flat fast paths stay bit-identical.
  [[nodiscard]] bool contended() const {
    return l2_.has_value() || bus_.has_value() || (noc_ && noc_->timed());
  }

  [[nodiscard]] const SharedL2* l2() const {
    return l2_ ? &*l2_ : nullptr;
  }
  [[nodiscard]] const MemoryBus* bus() const {
    return bus_ ? &*bus_ : nullptr;
  }
  [[nodiscard]] const NocFabric* noc() const {
    return noc_ ? &*noc_ : nullptr;
  }
  /// Null unless the platform is Directory-coherent.
  [[nodiscard]] const DirectoryStats* directory() const {
    return directory_ ? &directoryStats_ : nullptr;
  }

  /// Off-chip write-backs of dirty L1 data that no L2 statistic sees:
  /// copies flushed by inclusion back-invalidation past a clean L2
  /// entry, and victims whose L2 line was already gone when the L1
  /// evicted them (energy accounting).
  [[nodiscard]] std::uint64_t inclusionWritebacks() const {
    return inclusionWritebacks_;
  }

  void resetStats();

  /// Raises the retire horizon of the L2 bank, bus and NoC link
  /// calendars (each owner prunes a calendar to it when booking it);
  /// call once no future request can be issued before \p cycle (the
  /// engine does, at segment starts).
  /// Under LAPSCHED_AUDIT also runs the full inclusion audit — segment
  /// starts are the natural cadence for the O(resident L1 lines) scan.
  void retireBefore(std::int64_t cycle);

  /// Audit checker (docs/ARCHITECTURE.md §11): inclusion — every line
  /// resident in a registered L1 data cache must also be L2-resident
  /// (instruction caches are exempt by design, see the registration
  /// notes above). A violation means a back-invalidation was missed and
  /// the L1s are serving hits on data the shared level no longer
  /// tracks; under Directory coherence the line's L2 sharer mask must
  /// also hold the core's bit (mask ⊇ holders). No-op without an L2.
  /// Throws laps::AuditError on violation. Tests inject violations by
  /// registering an L1 that holds lines the L2 never saw, or with
  /// clearSharersForTest (Directory platforms only).
  void auditInclusion() const;
  void clearSharersForTest(std::uint64_t lineAddr);

 private:
  /// Audit checker: after back-invalidating \p lineAddr, no registered
  /// L1 data cache may still hold it (the cheap per-miss slice of
  /// auditInclusion).
  void auditLineAbsent(std::uint64_t lineAddr) const;

  /// NoC node of L2 bank \p bank (its home tile).
  [[nodiscard]] std::int64_t bankHomeNode(std::int64_t bank) const;

  std::int64_t memLatencyCycles_;
  std::optional<SharedL2> l2_;
  std::optional<MemoryBus> bus_;
  std::optional<NocFabric> noc_;
  bool directory_ = false;  ///< Directory coherence (L2 sharer masks)
  DirectoryStats directoryStats_;
  std::vector<SetAssocCache*> l1DataCaches_;  ///< by core; null = empty
  std::uint64_t inclusionWritebacks_ = 0;
};

/// One core's private split L1s, delegating misses to a MemoryHierarchy
/// (its own flat one by default, or a hierarchy shared with the other
/// cores). Returns the latency of each access in cycles; keeps hit/miss
/// statistics. \p nowCycles parameters are the absolute cycle an access
/// issues at — ignored (and defaultable) on the flat hierarchy, where
/// latencies are time-independent.
class MemorySystem {
 public:
  /// \p shared is the hierarchy below the L1s; when null, a private
  /// flat hierarchy with config.memLatencyCycles is created (the paper
  /// platform). \p coreIndex identifies this core to the shared levels
  /// (its NoC node, its L1 registration slot and its sharer-mask bit):
  /// MemorySystems sharing one hierarchy need distinct indices, in range
  /// on NoC and Directory-coherent platforms.
  explicit MemorySystem(const MemoryConfig& config,
                        std::shared_ptr<MemoryHierarchy> shared = nullptr,
                        std::size_t coreIndex = 0);
  ~MemorySystem();
  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  /// One data reference at absolute cycle \p nowCycles; returns its
  /// latency in cycles. The hit path is inline; a miss continues out of
  /// line in missBeyondL1.
  std::int64_t dataAccess(std::uint64_t addr, bool isWrite,
                          std::int64_t nowCycles = 0) {
    EvictionInfo evicted;
    const AccessOutcome outcome = dcache_.access(addr, isWrite, &evicted);
    if (classifier_) {
      classifier_->record(addr, outcome == AccessOutcome::Miss);
    }
    const std::int64_t hit = config_.l1d.hitLatencyCycles;
    if (outcome == AccessOutcome::Hit) return hit;
    return hit + missBeyondL1(addr, evicted, nowCycles + hit);
  }

  /// \p count data references of the strided stream addr,
  /// addr + strideBytes, ...; returns their summed latency. On the flat
  /// hierarchy this is exactly equivalent to \p count dataAccess calls
  /// (cache state, statistics and miss classification included) but
  /// resolves each cache line's group of consecutive accesses with one
  /// lookup, and feeds the classifier once per line instead of once per
  /// element — the skipped accesses re-touch the shadow cache's
  /// most-recently-used line, which is a no-op for the 3C state and
  /// counters. On a contended hierarchy each miss issues at \p nowCycles
  /// advanced by the latency accumulated so far (the run is assumed
  /// back-to-back, with no interleaved compute).
  std::int64_t accessRun(std::uint64_t addr, std::int64_t strideBytes,
                         std::int64_t count, bool isWrite,
                         std::int64_t nowCycles = 0);

  /// One instruction fetch at absolute cycle \p nowCycles; returns its
  /// latency in cycles (0 when instruction modeling is disabled). The
  /// hit path is inline.
  std::int64_t instrFetch(std::uint64_t addr, std::int64_t nowCycles = 0) {
    if (!config_.modelICache) return 0;
    const std::int64_t hit = config_.l1i.hitLatencyCycles;
    if (icache_.access(addr, /*isWrite=*/false) == AccessOutcome::Hit) {
      return hit;
    }
    // Instruction lines are never dirty: no write-back on eviction.
    return hit + hierarchy_->missLatency(addr, nowCycles + hit, coreIndex_,
                                         /*dataFill=*/false);
  }

  /// \name Bulk-replay primitives
  /// The run-length replay path (sim/replay.cpp) accounts the guaranteed
  /// hits it skips directly on the caches: bulkHits for the counters and
  /// LRU clock, touch for the exact final stamps of the lines involved.
  /// Bypassing the miss classifier here is exact — every skipped access
  /// re-touches shadow-cache lines that are already the most recently
  /// used, in an order that provably leaves the shadow state unchanged —
  /// see docs/ARCHITECTURE.md §6. Guaranteed hits never leave the L1,
  /// so none of these touch the shared levels.
  /// @{
  [[nodiscard]] std::uint64_t dataClock() const { return dcache_.clock(); }
  void dataBulkHits(std::int64_t count) { dcache_.bulkHits(count); }
  void dataTouch(std::uint64_t addr, bool isWrite, std::uint64_t stamp) {
    dcache_.touch(addr, isWrite, stamp);
  }
  /// Replays one skipped (guaranteed-hit) access into the miss
  /// classifier's shadow LRU only. Needed when a bulk commit ends
  /// mid-iteration: the partial iteration's accesses rotate the shadow's
  /// most-recently-used block, which complete cycles do not.
  void dataShadowTouch(std::uint64_t addr) {
    if (classifier_) classifier_->record(addr, /*realMiss=*/false);
  }
  [[nodiscard]] std::uint64_t instrClock() const { return icache_.clock(); }
  void instrBulkHits(std::int64_t count) { icache_.bulkHits(count); }
  void instrTouch(std::uint64_t addr, std::uint64_t stamp) {
    icache_.touch(addr, /*isWrite=*/false, stamp);
  }
  /// @}

  /// Invalidates both caches (used by the flush-on-switch ablation).
  /// Dirty lines count as write-backs in the L1 statistics; their L2
  /// copies are not dirty-marked (documented approximation, §7).
  void flushAll();

  /// True when the hierarchy below the L1s is contended (shared L2 or
  /// bus enabled) — i.e. when access latencies depend on nowCycles.
  [[nodiscard]] bool contended() const { return hierarchy_->contended(); }

  [[nodiscard]] const SetAssocCache& dcache() const { return dcache_; }
  [[nodiscard]] const SetAssocCache& icache() const { return icache_; }
  [[nodiscard]] const MemoryConfig& config() const { return config_; }
  [[nodiscard]] const MemoryHierarchy& hierarchy() const {
    return *hierarchy_;
  }

  /// Data-miss classification; zeros unless classifyMisses was set.
  [[nodiscard]] MissBreakdown dataMissBreakdown() const;

  void resetStats();

 private:
  /// Latency beyond the L1 of a data miss on \p addr issuing at
  /// \p issueCycle, with \p evicted the L1 line the fill displaced.
  /// The one definition of the dirty-victim ordering invariant: absorb
  /// into the L2 copy *before* the fill (which could evict that copy),
  /// post an unabsorbed write-back at the miss's completion (so the
  /// requester never stalls on its own write-back).
  std::int64_t missBeyondL1(std::uint64_t addr, const EvictionInfo& evicted,
                            std::int64_t issueCycle);

  MemoryConfig config_;
  std::shared_ptr<MemoryHierarchy> hierarchy_;
  std::size_t coreIndex_;
  SetAssocCache dcache_;
  SetAssocCache icache_;
  std::optional<MissClassifier> classifier_;
};

}  // namespace laps
