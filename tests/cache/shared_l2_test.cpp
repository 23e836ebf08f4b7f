/// \file shared_l2_test.cpp
/// \brief Banked shared L2: interleaving, occupancy, write-backs, and the
/// MemoryHierarchy composition (latency stacking, inclusion
/// back-invalidation, posted bus write-backs).

#include "cache/shared_l2.h"

#include <gtest/gtest.h>

#include <optional>

#include "cache/hierarchy.h"
#include "util/audit.h"
#include "util/error.h"

namespace laps {
namespace {

SharedL2Config smallL2() {
  SharedL2Config cfg;
  cfg.sizeBytes = 4096;
  cfg.assoc = 2;
  cfg.lineBytes = 32;
  cfg.bankCount = 4;
  cfg.hitLatencyCycles = 8;
  cfg.bankBusyCycles = 4;
  return cfg;
}

/// A shared L2 over flat memory.
PlatformConfig l2Platform(const SharedL2Config& l2) {
  PlatformConfig platform;
  platform.sharedL2 = l2;
  return platform;
}

/// A bus interconnect, optionally under a shared L2.
PlatformConfig busPlatform(const BusConfig& bus,
                           std::optional<SharedL2Config> l2 = std::nullopt) {
  PlatformConfig platform;
  platform.interconnect = InterconnectKind::Bus;
  platform.bus = bus;
  platform.sharedL2 = l2;
  return platform;
}

// The core count only sizes NoCs and directories; flat and bus
// platforms need just one.
constexpr std::size_t kCores = 1;

TEST(SharedL2Config, GeometryDerivation) {
  const SharedL2Config cfg = smallL2();
  EXPECT_EQ(cfg.bankConfig().sizeBytes, 1024);
  EXPECT_EQ(cfg.bankConfig().numSets(), 16);
  EXPECT_EQ(cfg.aggregateConfig().sizeBytes, 4096);
  cfg.validate();
}

TEST(SharedL2Config, ValidateRejectsBadGeometry) {
  SharedL2Config cfg = smallL2();
  cfg.bankCount = 3;  // 4096 not divisible by 3
  EXPECT_THROW(cfg.validate(), Error);
  cfg = smallL2();
  cfg.bankBusyCycles = 0;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(SharedL2, LinesInterleaveAcrossBanks) {
  const SharedL2Config cfg = smallL2();
  SharedL2 l2(cfg);
  EXPECT_EQ(l2.bankOf(0), 0);
  EXPECT_EQ(l2.bankOf(32), 1);
  EXPECT_EQ(l2.bankOf(64), 2);
  EXPECT_EQ(l2.bankOf(96), 3);
  EXPECT_EQ(l2.bankOf(128), 0);
  EXPECT_EQ(l2.bankOf(130), 0);  // same line as 128
}

TEST(SharedL2, BankFoldingUsesTheWholeBank) {
  // Lines of one bank are bankCount apart in the address space; folding
  // must map them to *consecutive* bank sets, so a bank-striding sweep
  // fills the whole bank before evicting anything.
  const SharedL2Config cfg = smallL2();  // bank: 16 sets * 2 ways = 32 lines
  SharedL2 l2(cfg);
  const std::int64_t stride = cfg.lineBytes * cfg.bankCount;  // bank 0 only
  for (std::int64_t i = 0; i < 32; ++i) {
    const auto r =
        l2.access(static_cast<std::uint64_t>(i * stride), /*now=*/0);
    EXPECT_EQ(r.outcome, AccessOutcome::Miss);
    EXPECT_FALSE(r.evictedLineAddr.has_value()) << "line " << i;
  }
  // All 32 lines resident; the 33rd evicts and reports a real address.
  const auto r = l2.access(static_cast<std::uint64_t>(32 * stride), 0);
  EXPECT_EQ(r.outcome, AccessOutcome::Miss);
  ASSERT_TRUE(r.evictedLineAddr.has_value());
  EXPECT_EQ(l2.bankOf(*r.evictedLineAddr), 0);  // victim of the same bank
  EXPECT_EQ(*r.evictedLineAddr % static_cast<std::uint64_t>(cfg.lineBytes),
            0u);
}

TEST(SharedL2, SameBankRequestsQueueBehindEachOther) {
  const SharedL2Config cfg = smallL2();  // bankBusyCycles = 4
  SharedL2 l2(cfg);
  EXPECT_EQ(l2.access(0, 100).bankWaitCycles, 0);
  EXPECT_EQ(l2.access(128, 100).bankWaitCycles, 4);   // same bank, busy
  EXPECT_EQ(l2.access(32, 100).bankWaitCycles, 0);    // different bank
  EXPECT_EQ(l2.bankWaitCycles(), 4u);
}

TEST(SharedL2, BookingBehindTheRetireHorizonTripsTheAudit) {
  // Proves the horizon check at the bank booking fires (see the bus's
  // HorizonAudit test); the default build books untouched.
  SharedL2 l2(smallL2());
  l2.retireBefore(1000);
  EXPECT_NO_THROW(l2.access(0, 1000));
  if (audit::enabled()) {
    EXPECT_THROW(l2.access(0, 10), AuditError);
  } else {
    EXPECT_NO_THROW(l2.access(0, 10));
  }
}

TEST(SharedL2, WritebackDirtiesTheResidentCopy) {
  const SharedL2Config cfg = smallL2();
  SharedL2 l2(cfg);
  l2.access(0, 0);      // fill, clean
  l2.writeback(0);      // L1 evicted a dirty copy
  EXPECT_EQ(l2.stats().accesses, 1u);  // writeback is not an access
  // Force the line out: its eviction must now count as a write-back.
  const std::int64_t stride = cfg.lineBytes * cfg.bankCount;
  for (std::int64_t i = 1; i <= 32; ++i) {
    l2.access(static_cast<std::uint64_t>(i * stride), 0);
  }
  EXPECT_FALSE(l2.probe(0));
  EXPECT_EQ(l2.stats().dirtyEvictions, 1u);
}

TEST(MemoryHierarchy, FlatMissLatencyIsTheConstant) {
  MemoryHierarchy flat(75);
  EXPECT_EQ(flat.missLatency(0, 0), 75);
  EXPECT_EQ(flat.missLatency(0, 123456), 75);  // time-independent
}

TEST(MemoryHierarchy, L2HitAndMissLatencyComposition) {
  BusConfig bus;
  bus.maxOutstanding = 2;
  bus.latencyCycles = 75;
  bus.widthBytes = 8;  // occupancy 79 on 32 B lines
  MemoryHierarchy h(75, busPlatform(bus, smallL2()), kCores, 32);
  // Cold: bank (no wait) + L2 hit latency 8 + bus 79.
  EXPECT_EQ(h.missLatency(0, 0), 8 + 79);
  // Warm L2 hit long after: just the L2 latency.
  EXPECT_EQ(h.missLatency(0, 1000), 8);
}

TEST(MemoryHierarchy, L2WithoutBusFallsBackToFlatMemory) {
  MemoryHierarchy h(75, l2Platform(smallL2()), kCores, 32);
  EXPECT_EQ(h.missLatency(0, 0), 8 + 75);
  EXPECT_EQ(h.missLatency(0, 1000), 8);
  EXPECT_EQ(h.bus(), nullptr);
}

TEST(MemoryHierarchy, InclusionBackInvalidatesL1Copies) {
  const SharedL2Config cfg = smallL2();
  MemoryHierarchy h(75, l2Platform(cfg), kCores, 32);
  SetAssocCache l1(CacheConfig{1024, 2, 32, 2});
  h.registerDataCache(&l1, 0);

  l1.access(0, /*isWrite=*/false);
  h.missLatency(0, 0);  // line 0 now in L2 too
  ASSERT_TRUE(l1.probe(0));

  // Stream 32 more lines of bank 0 through the L2: line 0 must fall out
  // of the L2 eventually, and its L1 copy must fall with it.
  const std::int64_t stride = cfg.lineBytes * cfg.bankCount;
  for (std::int64_t i = 1; i <= 32; ++i) {
    h.missLatency(static_cast<std::uint64_t>(i * stride), 0);
  }
  EXPECT_FALSE(h.l2()->probe(0));
  EXPECT_FALSE(l1.probe(0));
  EXPECT_EQ(l1.stats().invalidations, 1u);
  h.unregisterDataCache(0);
}

TEST(MemoryHierarchy, DirtyBackInvalidationPostsABusWriteback) {
  const SharedL2Config cfg = smallL2();
  BusConfig bus;
  bus.maxOutstanding = 4;
  MemoryHierarchy h(75, busPlatform(bus, cfg), kCores, 32);
  SetAssocCache l1(CacheConfig{1024, 2, 32, 2});
  h.registerDataCache(&l1, 0);

  l1.access(0, /*isWrite=*/true);  // dirty in L1
  h.missLatency(0, 0);
  const std::uint64_t before = h.bus()->stats().transactions;
  const std::int64_t stride = cfg.lineBytes * cfg.bankCount;
  for (std::int64_t i = 1; i <= 32; ++i) {
    h.missLatency(static_cast<std::uint64_t>(i * stride), 0);
  }
  EXPECT_FALSE(l1.probe(0));
  // 32 demand fills plus at least the one posted write-back of line 0's
  // dirty L1 copy — which the L2's own dirty-eviction counter does not
  // see (the L2 entry was clean), so it is tallied separately.
  EXPECT_GE(h.bus()->stats().transactions, before + 32 + 1);
  EXPECT_EQ(h.inclusionWritebacks(), 1u);
  h.unregisterDataCache(0);
}

TEST(MemoryHierarchy, L1WritebackWithL2IsAbsorbedOnChip) {
  BusConfig bus;
  bus.maxOutstanding = 4;
  MemoryHierarchy withL2(75, busPlatform(bus, smallL2()), kCores, 32);
  withL2.missLatency(0, 0);
  const std::uint64_t beforeTx = withL2.bus()->stats().transactions;
  EXPECT_TRUE(withL2.absorbL1Writeback(0));  // L2 holds the line
  EXPECT_EQ(withL2.bus()->stats().transactions, beforeTx);  // no bus trip
  EXPECT_EQ(withL2.l2()->stats().accesses, 1u);  // and not an L2 access
  // A line the L2 already lost cannot absorb the write-back; it leaves
  // the chip as posted traffic and is tallied for the energy model.
  EXPECT_FALSE(withL2.absorbL1Writeback(4096));
  withL2.postL1Writeback(50);
  EXPECT_EQ(withL2.bus()->stats().transactions, beforeTx + 1);
  EXPECT_EQ(withL2.inclusionWritebacks(), 1u);

  // Without an L2 the write-back is posted straight onto the bus.
  MemoryHierarchy busOnly(75, busPlatform(bus), kCores, 32);
  EXPECT_FALSE(busOnly.absorbL1Writeback(0));
  busOnly.postL1Writeback(50);
  EXPECT_EQ(busOnly.bus()->stats().transactions, 1u);
  EXPECT_EQ(busOnly.bus()->stats().waitCycles, 0u);
  EXPECT_EQ(busOnly.inclusionWritebacks(), 0u);  // L1 stats cover it
}

TEST(MemoryHierarchy, DirtyVictimSurvivesItsOwnMissesL2Eviction) {
  // Regression: the L1 evicts dirty victim V on the same miss whose L2
  // fill evicts V's (clean) L2 copy. Absorbing the write-back *before*
  // the fill dirty-marks that copy, so the eviction carries the data
  // out as a real write-back instead of silently dropping it.
  SharedL2Config l2;
  l2.sizeBytes = 64;  // 1 bank, direct-mapped, 2 sets: tiny on purpose
  l2.assoc = 1;
  l2.lineBytes = 32;
  l2.bankCount = 1;
  auto shared =
      std::make_shared<MemoryHierarchy>(75, l2Platform(l2), kCores, 32);
  MemoryConfig cfg;
  cfg.l1d = CacheConfig{32, 1, 32, 2};  // a single line
  cfg.l1i = CacheConfig{32, 1, 32, 2};
  cfg.modelICache = false;
  MemorySystem mem(cfg, shared);

  mem.dataAccess(0, /*isWrite=*/true, 0);  // V = line 0: dirty L1, clean L2
  // Line 64 shares V's L1 slot *and* V's L2 set: this one miss evicts
  // dirty V from the L1 and its fill evicts V's copy from the L2.
  mem.dataAccess(64, /*isWrite=*/false, 100);
  EXPECT_FALSE(shared->l2()->probe(0));
  // The dirty data left the chip exactly once, visibly.
  EXPECT_EQ(shared->l2()->stats().dirtyEvictions +
                shared->inclusionWritebacks(),
            1u);
}

}  // namespace
}  // namespace laps
