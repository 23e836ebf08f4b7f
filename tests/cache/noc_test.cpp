#include "cache/noc.h"

#include <gtest/gtest.h>

#include <memory>

#include <vector>

#include "cache/hierarchy.h"
#include "cache/platform.h"
#include "sim/config.h"
#include "util/audit.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace laps {
namespace {

// --- Topology geometry ---------------------------------------------------

TEST(NocTopology, MeshDerivesSquarestGrid) {
  const NocTopology t(NocTopologyKind::Mesh, 8);
  EXPECT_EQ(t.cols(), 3);  // ceil-sqrt(8)
  EXPECT_EQ(t.rows(), 3);  // 8 nodes on a 3x3, last cell empty
  const NocTopology square(NocTopologyKind::Mesh, 16);
  EXPECT_EQ(square.cols(), 4);
  EXPECT_EQ(square.rows(), 4);
}

TEST(NocTopology, MeshHopsAreManhattan) {
  const NocTopology t(NocTopologyKind::Mesh, 16, 4);
  EXPECT_EQ(t.hops(0, 0), 0);
  EXPECT_EQ(t.hops(0, 3), 3);    // along the top row
  EXPECT_EQ(t.hops(0, 12), 3);   // down the left column
  EXPECT_EQ(t.hops(0, 15), 6);   // corner to corner = diameter
  EXPECT_EQ(t.maxHops(), 6);
}

TEST(NocTopology, XbarIsDistanceDegenerate) {
  const NocTopology t(NocTopologyKind::Xbar, 8);
  EXPECT_EQ(t.maxHops(), 1);
  for (std::int64_t a = 0; a < 8; ++a) {
    for (std::int64_t b = 0; b < 8; ++b) {
      EXPECT_EQ(t.hops(a, b), a == b ? 0 : 1);
    }
  }
  // Spiral order degenerates to id order: no tile is more central.
  const std::vector<std::int64_t> order = t.spiralOrder();
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

/// Mesh-distance metric properties over every node pair (and, for the
/// triangle inequality, every triple). Verified on the parallel
/// substrate at a pinned thread count: each index writes only its own
/// slot, so the outcome must be identical at any thread count — the
/// schedulers consult hops() from inside parallel bench sweeps.
void expectMetricProperties(const NocTopology& t, std::size_t threads) {
  setParallelThreadCount(threads);
  const auto n = static_cast<std::size_t>(t.nodeCount());
  std::vector<char> ok(n, 0);
  parallelFor(n, [&](std::size_t ai) {
    const auto a = static_cast<std::int64_t>(ai);
    bool good = t.hops(a, a) == 0;
    for (std::int64_t b = 0; b < t.nodeCount(); ++b) {
      good = good && t.hops(a, b) == t.hops(b, a);        // symmetry
      good = good && t.hops(a, b) >= (a == b ? 0 : 1);    // positivity
      good = good && t.hops(a, b) <= t.maxHops();         // diameter
      for (std::int64_t c = 0; c < t.nodeCount(); ++c) {  // triangle
        good = good && t.hops(a, c) <= t.hops(a, b) + t.hops(b, c);
      }
    }
    ok[ai] = good ? 1 : 0;
  });
  setParallelThreadCount(0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ok[i], 1) << "metric property violated at node " << i;
  }
}

TEST(NocTopology, MeshMetricPropertiesOneThread) {
  expectMetricProperties(NocTopology(NocTopologyKind::Mesh, 16, 4), 1);
  expectMetricProperties(NocTopology(NocTopologyKind::Mesh, 7, 3), 1);
}

TEST(NocTopology, MeshMetricPropertiesEightThreads) {
  expectMetricProperties(NocTopology(NocTopologyKind::Mesh, 16, 4), 8);
  expectMetricProperties(NocTopology(NocTopologyKind::Mesh, 7, 3), 8);
  expectMetricProperties(NocTopology(NocTopologyKind::Xbar, 16), 8);
}

TEST(NocTopology, SpiralOrderIsACenterOutPermutation) {
  const NocTopology t(NocTopologyKind::Mesh, 16, 4);
  const std::vector<std::int64_t> order = t.spiralOrder();
  ASSERT_EQ(order.size(), 16u);
  std::vector<bool> seen(16, false);
  for (const std::int64_t node : order) {
    ASSERT_GE(node, 0);
    ASSERT_LT(node, 16);
    EXPECT_FALSE(seen[static_cast<std::size_t>(node)]);
    seen[static_cast<std::size_t>(node)] = true;
  }
  // The walk starts on a most-central tile: nothing has a strictly
  // smaller total distance to everything else.
  for (std::int64_t node = 0; node < 16; ++node) {
    EXPECT_GE(t.eccentricity(node), t.eccentricity(order.front()));
  }
}

TEST(NocTopology, SpiralOrderCoversRaggedMeshes) {
  // 8 nodes on a 3x3: the spiral must skip the unpopulated cell and
  // still visit every real node exactly once.
  const NocTopology t(NocTopologyKind::Mesh, 8, 3);
  const std::vector<std::int64_t> order = t.spiralOrder();
  ASSERT_EQ(order.size(), 8u);
  std::vector<bool> seen(8, false);
  for (const std::int64_t node : order) {
    seen[static_cast<std::size_t>(node)] = true;
  }
  for (std::size_t i = 0; i < 8; ++i) EXPECT_TRUE(seen[i]);
}

TEST(NocConfig, ValidateRejectsBadShapes) {
  NocConfig cfg;
  cfg.meshCols = 9;
  EXPECT_THROW(cfg.validate(8), Error);  // more columns than nodes
  cfg.meshCols = -1;
  EXPECT_THROW(cfg.validate(8), Error);
  cfg.meshCols = 0;
  cfg.hopCycles = -1;
  EXPECT_THROW(cfg.validate(8), Error);
  cfg.hopCycles = 0;
  cfg.linkWidthBytes = -8;
  EXPECT_THROW(cfg.validate(8), Error);
  cfg.linkWidthBytes = 0;
  cfg.migrationHopCycles = -2;
  EXPECT_THROW(cfg.validate(8), Error);
  cfg.migrationHopCycles = 0;
  EXPECT_NO_THROW(cfg.validate(8));
}

// --- Timed fabric --------------------------------------------------------

TEST(NocFabric, DemandTransferPaysPerHopLatency) {
  NocConfig cfg;
  cfg.meshCols = 4;
  cfg.hopCycles = 5;
  NocFabric fabric(cfg, 16, 32, NocTopologyKind::Mesh);
  EXPECT_EQ(fabric.demandTransfer(0, 0, 0), 0);    // same tile: free, uncounted
  EXPECT_EQ(fabric.demandTransfer(0, 3, 0), 15);   // 3 hops
  EXPECT_EQ(fabric.demandTransfer(0, 15, 0), 30);  // diameter
  EXPECT_EQ(fabric.stats().transfers, 2u);
  EXPECT_EQ(fabric.stats().hopCycles, 45u);
  EXPECT_EQ(fabric.stats().linkWaitCycles, 0u);  // infinite bandwidth
}

TEST(NocFabric, FiniteLinksSerializeSharedRoutes) {
  NocConfig cfg;
  cfg.meshCols = 4;
  cfg.hopCycles = 1;
  cfg.linkWidthBytes = 8;  // 32 B line -> 4 cycles per link
  NocFabric fabric(cfg, 16, 32, NocTopologyKind::Mesh);
  // XY routing sends both 0->2 and 0->1 over the 0->1 link first; the
  // second transfer queues behind the first's 4-cycle occupancy.
  const std::int64_t first = fabric.demandTransfer(0, 2, 0);
  const std::int64_t second = fabric.demandTransfer(0, 1, 0);
  EXPECT_EQ(first, 2);  // 2 hops, no waiting on an idle fabric
  EXPECT_GT(second, 1);  // queued behind the first transfer's link hold
  EXPECT_GT(fabric.stats().linkWaitCycles, 0u);
  // The same transfer issued after the fabric drained pays no wait.
  EXPECT_EQ(fabric.demandTransfer(0, 1, 1000), 1);
}

TEST(NocFabric, DisjointRoutesDoNotInterfere) {
  NocConfig cfg;
  cfg.meshCols = 4;
  cfg.hopCycles = 1;
  cfg.linkWidthBytes = 8;
  NocFabric fabric(cfg, 16, 32, NocTopologyKind::Mesh);
  // 0->1 and 15->14 share no directed link: both run at pure hop cost.
  EXPECT_EQ(fabric.demandTransfer(0, 1, 0), 1);
  EXPECT_EQ(fabric.demandTransfer(15, 14, 0), 1);
  EXPECT_EQ(fabric.stats().linkWaitCycles, 0u);
}

TEST(NocFabric, PostedTransfersOccupyWithoutStalling) {
  NocConfig cfg;
  cfg.meshCols = 4;
  cfg.hopCycles = 1;
  cfg.linkWidthBytes = 8;
  NocFabric fabric(cfg, 16, 32, NocTopologyKind::Mesh);
  fabric.postedTransfer(0, 1, 0);  // returns nothing, books the link
  EXPECT_EQ(fabric.stats().postedTransfers, 1u);
  EXPECT_EQ(fabric.stats().transfers, 0u);
  // Demand traffic right behind it queues past the posted hold.
  EXPECT_GT(fabric.demandTransfer(0, 1, 0), 1);
}

TEST(NocFabric, BookingBehindTheRetireHorizonTripsTheAudit) {
  // Proves the horizon check at the link booking fires (see the bus's
  // HorizonAudit test); the default build books untouched.
  NocConfig cfg;
  cfg.meshCols = 4;
  cfg.hopCycles = 1;
  cfg.linkWidthBytes = 8;
  NocFabric fabric(cfg, 16, 32, NocTopologyKind::Mesh);
  fabric.retireBefore(1000);
  EXPECT_EQ(fabric.demandTransfer(0, 1, 1000), 1);
  if (audit::enabled()) {
    EXPECT_THROW(fabric.demandTransfer(0, 1, 10), AuditError);
  } else {
    EXPECT_NO_THROW(fabric.demandTransfer(0, 1, 10));
  }
}

TEST(NocFabric, ZeroCostFabricIsUntimed) {
  NocConfig cfg;
  cfg.meshCols = 4;
  NocFabric fabric(cfg, 16, 32, NocTopologyKind::Mesh);
  EXPECT_EQ(fabric.demandTransfer(0, 15, 0), 0);
  EXPECT_EQ(fabric.stats().hopCycles, 0u);
}

// --- Zero-cost bit-identity differentials -------------------------------

MemoryConfig l1Defaults() {
  MemoryConfig cfg;
  cfg.l1d = CacheConfig{8192, 2, 32, 2};
  cfg.l1i = CacheConfig{8192, 2, 32, 2};
  cfg.memLatencyCycles = 75;
  return cfg;
}

SharedL2Config smallL2() {
  SharedL2Config l2;
  l2.sizeBytes = 4096;
  l2.assoc = 2;
  l2.lineBytes = 32;
  l2.bankCount = 4;
  l2.hitLatencyCycles = 8;
  l2.bankBusyCycles = 4;
  return l2;
}

/// Drives \p cores MemorySystems over one shared hierarchy with a
/// deterministic mixed read/write stream and returns every per-access
/// latency — the full observable timing behavior.
std::vector<std::int64_t> runStream(const PlatformConfig& platform,
                                    std::size_t cores) {
  auto hierarchy = std::make_shared<MemoryHierarchy>(75, platform, cores, 32);
  std::vector<std::unique_ptr<MemorySystem>> mems;
  mems.reserve(cores);
  for (std::size_t c = 0; c < cores; ++c) {
    mems.push_back(std::make_unique<MemorySystem>(l1Defaults(), hierarchy, c));
  }
  Rng rng(7);
  std::vector<std::int64_t> latencies;
  std::int64_t now = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t core = rng.below(cores);
    const std::uint64_t addr = rng.below(512) * 32;
    const bool write = rng.below(4) == 0;
    latencies.push_back(mems[core]->dataAccess(addr, write, now));
    now += static_cast<std::int64_t>(rng.below(16));
  }
  return latencies;
}

TEST(NocDifferential, ZeroCostMeshMatchesFlatPlatform) {
  PlatformConfig flat;  // Flat, no L2, no bus, no NoC
  PlatformConfig mesh;
  mesh.interconnect = InterconnectKind::Mesh;  // zero-cost defaults
  EXPECT_EQ(runStream(flat, 4), runStream(mesh, 4));
}

TEST(NocDifferential, ZeroCostXbarMatchesFlatPlatform) {
  PlatformConfig flat;
  PlatformConfig xbar;
  xbar.interconnect = InterconnectKind::Xbar;
  EXPECT_EQ(runStream(flat, 4), runStream(xbar, 4));
}

TEST(NocDifferential, ZeroCostMeshMatchesSharedL2Platform) {
  PlatformConfig l2Only;
  l2Only.sharedL2 = smallL2();
  PlatformConfig l2Mesh = l2Only;
  l2Mesh.interconnect = InterconnectKind::Mesh;
  PlatformConfig l2Xbar = l2Only;
  l2Xbar.interconnect = InterconnectKind::Xbar;
  const std::vector<std::int64_t> reference = runStream(l2Only, 4);
  EXPECT_EQ(reference, runStream(l2Mesh, 4));
  EXPECT_EQ(reference, runStream(l2Xbar, 4));
}

TEST(NocDifferential, TimedMeshDivergesFromFlat) {
  // Sanity check on the differential itself: a NoC that costs cycles
  // must change the stream, or the zero-cost equalities prove nothing.
  PlatformConfig l2Only;
  l2Only.sharedL2 = smallL2();
  PlatformConfig timed = l2Only;
  timed.interconnect = InterconnectKind::Mesh;
  timed.noc.hopCycles = 4;
  EXPECT_NE(runStream(l2Only, 4), runStream(timed, 4));
}

// --- Platform descriptor validation -------------------------------------

TEST(PlatformConfig, EagerValidationCatchesBadCompositions) {
  PlatformConfig directoryNoL2;
  directoryNoL2.interconnect = InterconnectKind::Mesh;
  directoryNoL2.coherence = CoherenceKind::Directory;
  EXPECT_THROW(directoryNoL2.validate(4), Error);  // directory needs an L2

  PlatformConfig directoryNoNoc;
  directoryNoNoc.sharedL2 = smallL2();
  directoryNoNoc.coherence = CoherenceKind::Directory;
  EXPECT_THROW(directoryNoNoc.validate(4), Error);  // ...and a NoC

  PlatformConfig tooWide;
  tooWide.interconnect = InterconnectKind::Mesh;
  tooWide.sharedL2 = smallL2();
  tooWide.coherence = CoherenceKind::Directory;
  EXPECT_THROW(tooWide.validate(65), Error);  // sharer mask is 64-bit

  PlatformConfig good = tooWide;
  EXPECT_NO_THROW(good.validate(64));
}

TEST(PlatformConfig, UnsetPlatformResolvesToThePaperPlatform) {
  const PlatformConfig resolved = MpsocConfig{}.resolvedPlatform();
  EXPECT_EQ(resolved.interconnect, InterconnectKind::Flat);
  EXPECT_EQ(resolved.coherence, CoherenceKind::Broadcast);
  EXPECT_FALSE(resolved.sharedL2.has_value());
}

}  // namespace
}  // namespace laps
