#include "cache/hierarchy.h"

#include <gtest/gtest.h>

#include "util/audit.h"
#include "util/error.h"

namespace laps {
namespace {

MemoryConfig paperDefaults() {
  MemoryConfig cfg;
  cfg.l1d = CacheConfig{8192, 2, 32, 2};
  cfg.l1i = CacheConfig{8192, 2, 32, 2};
  cfg.memLatencyCycles = 75;
  return cfg;
}

TEST(MemorySystem, LatenciesMatchTable2) {
  MemorySystem mem(paperDefaults());
  // Cold miss: 2 + 75; warm hit: 2.
  EXPECT_EQ(mem.dataAccess(0, false), 77);
  EXPECT_EQ(mem.dataAccess(0, false), 2);
  EXPECT_EQ(mem.instrFetch(1 << 20), 77);
  EXPECT_EQ(mem.instrFetch(1 << 20), 2);
}

TEST(MemorySystem, ICacheDisabledCostsNothing) {
  MemoryConfig cfg = paperDefaults();
  cfg.modelICache = false;
  MemorySystem mem(cfg);
  EXPECT_EQ(mem.instrFetch(0), 0);
  EXPECT_EQ(mem.icache().stats().accesses, 0u);
}

TEST(MemorySystem, SplitCachesAreIndependent) {
  MemorySystem mem(paperDefaults());
  mem.dataAccess(0, false);
  EXPECT_EQ(mem.dcache().stats().accesses, 1u);
  EXPECT_EQ(mem.icache().stats().accesses, 0u);
  mem.instrFetch(0);
  EXPECT_EQ(mem.icache().stats().accesses, 1u);
  EXPECT_EQ(mem.dcache().stats().accesses, 1u);
}

TEST(MemorySystem, FlushAllColdsBothCaches) {
  MemorySystem mem(paperDefaults());
  mem.dataAccess(64, false);
  mem.instrFetch(128);
  mem.flushAll();
  EXPECT_EQ(mem.dataAccess(64, false), 77);
  EXPECT_EQ(mem.instrFetch(128), 77);
}

TEST(MemorySystem, ClassifierDisabledByDefault) {
  MemorySystem mem(paperDefaults());
  mem.dataAccess(0, false);
  EXPECT_EQ(mem.dataMissBreakdown().total(), 0u);
}

TEST(MemorySystem, ClassifierCountsWhenEnabled) {
  MemoryConfig cfg = paperDefaults();
  cfg.classifyMisses = true;
  MemorySystem mem(cfg);
  mem.dataAccess(0, false);
  mem.dataAccess(0, false);
  EXPECT_EQ(mem.dataMissBreakdown().total(), 1u);
  EXPECT_EQ(mem.dataMissBreakdown().compulsory, 1u);
  // Instruction fetches are not classified (data cache focus).
  mem.instrFetch(0);
  EXPECT_EQ(mem.dataMissBreakdown().total(), 1u);
}

std::shared_ptr<MemoryHierarchy> contendedHierarchy() {
  PlatformConfig platform;
  platform.interconnect = InterconnectKind::Bus;
  SharedL2Config& l2 = platform.sharedL2.emplace();
  l2.sizeBytes = 4096;
  l2.assoc = 2;
  l2.lineBytes = 32;
  l2.bankCount = 4;
  l2.hitLatencyCycles = 8;
  l2.bankBusyCycles = 4;
  platform.bus.maxOutstanding = 2;
  platform.bus.latencyCycles = 75;
  platform.bus.widthBytes = 8;  // 79-cycle occupancy on 32 B lines
  // The core count only sizes NoCs and directories; a bus needs none.
  return std::make_shared<MemoryHierarchy>(75, platform, 1, 32);
}

TEST(MemorySystem, DefaultHierarchyIsFlatAndUncontended) {
  MemorySystem mem(paperDefaults());
  EXPECT_FALSE(mem.contended());
  EXPECT_EQ(mem.hierarchy().l2(), nullptr);
  EXPECT_EQ(mem.hierarchy().bus(), nullptr);
}

TEST(MemorySystem, SharedHierarchyStacksL2AndBusLatency) {
  auto shared = contendedHierarchy();
  MemorySystem mem(paperDefaults(), shared);
  EXPECT_TRUE(mem.contended());
  // Cold: L1 (2) + L2 lookup (8, miss) + bus (79).
  EXPECT_EQ(mem.dataAccess(0, false, 0), 2 + 8 + 79);
  // L1 hit never leaves the core.
  EXPECT_EQ(mem.dataAccess(0, false, 200), 2);
  EXPECT_EQ(shared->l2()->stats().accesses, 1u);
}

TEST(MemorySystem, TwoCoresContendOnTheSharedBus) {
  auto shared = contendedHierarchy();
  MemorySystem a(paperDefaults(), shared);
  MemorySystem b(paperDefaults(), shared, 1);
  // Three simultaneous cold misses to distinct banks: the L2 never
  // queues, but the 2-slot bus serializes the third fill.
  EXPECT_EQ(a.dataAccess(0, false, 0), 2 + 8 + 79);
  EXPECT_EQ(b.dataAccess(32, false, 0), 2 + 8 + 79);
  EXPECT_EQ(b.dataAccess(64, false, 0), 2 + 8 + 79 + 79);
  EXPECT_EQ(shared->bus()->stats().waitCycles, 79u);
  // The same miss pattern issued later, when the bus has drained, pays
  // no wait: latency now depends on *when* — the contention effect.
  EXPECT_EQ(b.dataAccess(96, false, 1000), 2 + 8 + 79);
}

TEST(MemorySystem, SharedL2KeepsAMissOnChipForTheOtherCore) {
  auto shared = contendedHierarchy();
  MemorySystem a(paperDefaults(), shared);
  MemorySystem b(paperDefaults(), shared, 1);
  EXPECT_EQ(a.dataAccess(0, false, 0), 2 + 8 + 79);  // a fills the L2
  // b misses its private L1 but hits the shared L2: no off-chip trip.
  EXPECT_EQ(b.dataAccess(0, false, 500), 2 + 8);
  EXPECT_EQ(shared->l2()->stats().hits, 1u);
}

TEST(MemorySystem, MissNeverStallsBehindItsOwnVictimWriteback) {
  // 1-slot bus, direct-mapped 2-set L1: a miss that evicts a dirty
  // victim must pay only its own fill (2 + 79); the victim's write-back
  // is posted behind it, not in front of it.
  PlatformConfig platform;
  platform.interconnect = InterconnectKind::Bus;
  platform.bus.maxOutstanding = 1;
  platform.bus.latencyCycles = 75;
  platform.bus.widthBytes = 8;  // occupancy 79
  auto shared = std::make_shared<MemoryHierarchy>(75, platform, 1, 32);
  MemoryConfig cfg = paperDefaults();
  cfg.l1d = CacheConfig{64, 1, 32, 2};
  MemorySystem mem(cfg, shared);
  EXPECT_EQ(mem.dataAccess(0, /*isWrite=*/true, 0), 2 + 79);  // dirty A
  EXPECT_EQ(mem.dataAccess(64, false, 10'000), 2 + 79);  // evicts dirty A
  EXPECT_EQ(shared->bus()->stats().transactions, 3u);  // 2 fills + 1 posted
  EXPECT_EQ(shared->bus()->stats().waitCycles, 0u);
  // The posted write-back does occupy the slot: traffic right behind the
  // second fill queues past both.
  EXPECT_EQ(mem.dataAccess(128, false, 10'002), 2 + (79 * 2 - 2) + 79);
}

TEST(MemorySystem, ContendedAccessRunAdvancesTime) {
  auto shared = contendedHierarchy();
  MemorySystem mem(paperDefaults(), shared);
  // Four lines, one miss each: 4 * (2 * 8 + 8 + 79) with every bus slot
  // requested only after the previous miss resolved — so no bus wait.
  const std::int64_t latency =
      mem.accessRun(0, 4, 32, /*isWrite=*/false, /*nowCycles=*/0);
  EXPECT_EQ(latency, 4 * (8 * 2 + 8 + 79));
  EXPECT_EQ(shared->bus()->stats().waitCycles, 0u);
}

// --- audit layer (docs/ARCHITECTURE.md §11) ------------------------------

TEST(InclusionAudit, CleanHierarchyPasses) {
  auto shared = contendedHierarchy();
  MemorySystem a(paperDefaults(), shared);
  MemorySystem b(paperDefaults(), shared, 1);
  // Fill through the front door: every L1-resident line went through
  // the L2, so inclusion holds by construction.
  for (std::uint64_t addr = 0; addr < 4096; addr += 32) {
    a.dataAccess(addr, false, 0);
    b.dataAccess(addr + 32768, true, 0);
  }
  EXPECT_NO_THROW(shared->auditInclusion());
}

TEST(InclusionAudit, L1LineTheL2NeverSawTrips) {
  auto shared = contendedHierarchy();
  // A rogue L1 that filled lines without going through the hierarchy —
  // exactly the state a missed back-invalidation would leave behind.
  SetAssocCache rogue(CacheConfig{8192, 2, 32, 2});
  rogue.access(0, /*isWrite=*/false);
  shared->registerDataCache(&rogue, 0);
  EXPECT_THROW(shared->auditInclusion(), AuditError);
  shared->unregisterDataCache(0);
  EXPECT_NO_THROW(shared->auditInclusion());
}

std::shared_ptr<MemoryHierarchy> directoryHierarchy(std::size_t cores) {
  PlatformConfig platform;
  platform.interconnect = InterconnectKind::Mesh;
  platform.coherence = CoherenceKind::Directory;
  SharedL2Config& l2 = platform.sharedL2.emplace();
  l2.sizeBytes = 4096;
  l2.assoc = 2;
  l2.lineBytes = 32;
  l2.bankCount = 4;
  return std::make_shared<MemoryHierarchy>(75, platform, cores, 32);
}

TEST(InclusionAudit, SharerMaskMissingAHolderTrips) {
  // Directory platforms also audit mask ⊇ holders: every L1 copy's core
  // bit must be set in its L2 way's mask, or a recall would skip it.
  auto shared = directoryHierarchy(2);
  MemorySystem a(paperDefaults(), shared, 0);
  MemorySystem b(paperDefaults(), shared, 1);
  a.dataAccess(0, false, 0);
  b.dataAccess(0, false, 100);
  b.dataAccess(64, false, 200);
  EXPECT_EQ(shared->l2()->sharersOf(0), 0b11u);
  EXPECT_NO_THROW(shared->auditInclusion());
  shared->clearSharersForTest(0);
  EXPECT_THROW(shared->auditInclusion(), AuditError);
}

TEST(MemoryHierarchy, RegistersDataCachesByCoreIndex) {
  auto shared = directoryHierarchy(2);
  SetAssocCache first(CacheConfig{8192, 2, 32, 2});
  SetAssocCache second(CacheConfig{8192, 2, 32, 2});
  shared->registerDataCache(&first, 1);
  EXPECT_THROW(shared->registerDataCache(&second, 1), Error);  // slot taken
  EXPECT_THROW(shared->registerDataCache(&second, 2), Error);  // no mask bit
  shared->unregisterDataCache(1);
  EXPECT_NO_THROW(shared->registerDataCache(&second, 1));
  shared->unregisterDataCache(1);
}

TEST(InclusionAudit, FlatHierarchyIsVacuouslyClean) {
  MemoryHierarchy flat(75);
  SetAssocCache l1(CacheConfig{8192, 2, 32, 2});
  l1.access(0, /*isWrite=*/false);
  flat.registerDataCache(&l1, 0);
  // No L2 means no inclusion obligation.
  EXPECT_NO_THROW(flat.auditInclusion());
}

TEST(InclusionAudit, RetireBeforeRunsTheScanInAuditBuilds) {
  // Proves the in-situ LAPS_AUDIT call in retireBefore fires: corrupt
  // inclusion, then hit the segment-boundary hook. Only observable in
  // an audit build — otherwise the scan is compiled out.
  auto shared = contendedHierarchy();
  SetAssocCache rogue(CacheConfig{8192, 2, 32, 2});
  rogue.access(0, /*isWrite=*/false);
  shared->registerDataCache(&rogue, 0);
  if (audit::enabled()) {
    EXPECT_THROW(shared->retireBefore(1000), AuditError);
  } else {
    EXPECT_NO_THROW(shared->retireBefore(1000));
  }
  shared->unregisterDataCache(0);
}

TEST(MemorySystem, ResetStats) {
  MemoryConfig cfg = paperDefaults();
  cfg.classifyMisses = true;
  MemorySystem mem(cfg);
  mem.dataAccess(0, false);
  mem.instrFetch(0);
  mem.resetStats();
  EXPECT_EQ(mem.dcache().stats().accesses, 0u);
  EXPECT_EQ(mem.icache().stats().accesses, 0u);
  EXPECT_EQ(mem.dataMissBreakdown().total(), 0u);
}

}  // namespace
}  // namespace laps
