/// \file directory_test.cpp
/// \brief Directory coherence: the per-way sharer masks of the shared
/// L2 (cache/shared_l2.h) against the broadcast protocol and frozen
/// probe counts.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/hierarchy.h"
#include "cache/platform.h"
#include "util/rng.h"

namespace laps {
namespace {

// --- Broadcast-vs-directory equivalence oracle ---------------------------

MemoryConfig l1Defaults() {
  MemoryConfig cfg;
  cfg.l1d = CacheConfig{2048, 2, 32, 2};  // small: evictions are common
  cfg.l1i = CacheConfig{8192, 2, 32, 2};
  cfg.memLatencyCycles = 75;
  return cfg;
}

SharedL2Config tinyL2() {
  SharedL2Config l2;
  l2.sizeBytes = 4096;  // small enough to back-invalidate constantly
  l2.assoc = 2;
  l2.lineBytes = 32;
  l2.bankCount = 4;
  l2.hitLatencyCycles = 8;
  l2.bankBusyCycles = 4;
  return l2;
}

struct StreamResult {
  std::vector<std::int64_t> latencies;
  std::uint64_t l1Misses = 0;
  std::uint64_t l1Invalidations = 0;  // lines recalled out of the L1s
  std::uint64_t l2Misses = 0;
  std::uint64_t inclusionWritebacks = 0;  // dirty recalls folded upward
  std::uint64_t invalidationsSent = 0;      // directory platforms only
  std::uint64_t invalidationsFiltered = 0;  // directory platforms only
};

/// Runs a deterministic random read/write stream over \p cores cores
/// and captures the full observable behavior: every latency plus the
/// cache-state summary counters. \p reverseConstruction builds the
/// MemorySystems from the highest core index down, so each L1 registers
/// in a different order than its core index.
StreamResult runStream(const PlatformConfig& platform, std::size_t cores,
                       std::uint64_t seed, bool reverseConstruction = false) {
  auto hierarchy = std::make_shared<MemoryHierarchy>(75, platform, cores, 32);
  std::vector<std::unique_ptr<MemorySystem>> mems(cores);
  for (std::size_t i = 0; i < cores; ++i) {
    const std::size_t c = reverseConstruction ? cores - 1 - i : i;
    mems[c] = std::make_unique<MemorySystem>(l1Defaults(), hierarchy, c);
  }
  Rng rng(seed);
  StreamResult out;
  std::int64_t now = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::size_t core = rng.below(cores);
    // 256 lines over a 128-line L2: inclusion victims fly constantly.
    const std::uint64_t addr = rng.below(256) * 32;
    const bool write = rng.below(3) == 0;
    out.latencies.push_back(mems[core]->dataAccess(addr, write, now));
    now += static_cast<std::int64_t>(rng.below(8));
  }
  for (std::size_t c = 0; c < cores; ++c) {
    out.l1Misses += mems[c]->dcache().stats().misses;
    out.l1Invalidations += mems[c]->dcache().stats().invalidations;
  }
  out.l2Misses = hierarchy->l2()->stats().misses;
  out.inclusionWritebacks = hierarchy->inclusionWritebacks();
  if (const DirectoryStats* dir = hierarchy->directory()) {
    out.invalidationsSent = dir->invalidationsSent;
    out.invalidationsFiltered = dir->invalidationsFiltered;
  }
  return out;
}

PlatformConfig directoryMesh() {
  PlatformConfig directory;
  directory.interconnect = InterconnectKind::Mesh;
  directory.sharedL2 = tinyL2();
  directory.coherence = CoherenceKind::Directory;
  return directory;
}

TEST(DirectoryEquivalence, TargetedInvalidationMatchesBroadcast) {
  // Over a zero-cost mesh the directory must be functionally invisible:
  // its sharer masks over-approximate the true holders (bits are set on
  // every data fill and cleared only by back-invalidation), and
  // invalidating a non-holder is a no-op — so per-access latencies,
  // miss counts and back-invalidation rounds all match the broadcast
  // protocol exactly. Several seeds guard against a lucky stream. The
  // reverse-construction input registers core 3's L1 first: a mask bit
  // must still name its own core's cache, not the n-th registered one.
  PlatformConfig broadcast;
  broadcast.interconnect = InterconnectKind::Mesh;
  broadcast.sharedL2 = tinyL2();
  const PlatformConfig directory = directoryMesh();
  for (const bool reverse : {false, true}) {
    for (const std::uint64_t seed : {1u, 17u, 99u}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " reverse " << reverse);
      const StreamResult a = runStream(broadcast, 4, seed);
      const StreamResult b = runStream(directory, 4, seed, reverse);
      EXPECT_EQ(a.latencies, b.latencies);
      EXPECT_EQ(a.l1Misses, b.l1Misses);
      EXPECT_EQ(a.l2Misses, b.l2Misses);
      EXPECT_EQ(a.l1Invalidations, b.l1Invalidations);
      EXPECT_EQ(a.inclusionWritebacks, b.inclusionWritebacks);
    }
  }
}

TEST(DirectoryEquivalence, ProbeCountsMatchTheLineKeyedDirectory) {
  // Frozen sent/filtered probe counts of the equivalence streams,
  // recorded on the earlier directory that kept one map entry per
  // tracked line beside the L2. The per-way masks must reproduce them
  // exactly, in either construction order.
  struct Frozen {
    std::uint64_t seed;
    std::uint64_t sent;
    std::uint64_t filtered;
  };
  static constexpr Frozen kFrozen[] = {
      {1, 3050, 4674},
      {17, 3059, 4621},
      {99, 3045, 4791},
  };
  for (const bool reverse : {false, true}) {
    for (const Frozen& f : kFrozen) {
      const StreamResult r = runStream(directoryMesh(), 4, f.seed, reverse);
      EXPECT_EQ(r.invalidationsSent, f.sent)
          << "seed " << f.seed << " reverse " << reverse;
      EXPECT_EQ(r.invalidationsFiltered, f.filtered)
          << "seed " << f.seed << " reverse " << reverse;
    }
  }
}

TEST(DirectoryEquivalence, HandComputedRecallRound) {
  // tinyL2: 4 banks of 16 sets x 2 ways, so lines 0, 2048 and 4096 share
  // bank 0's set 0. Cores 0 and 2 read line 0 (mask 0b101); two fetches
  // that install no L1 data copy fill the set's other way and then evict
  // line 0, the least recently used.
  auto hierarchy =
      std::make_shared<MemoryHierarchy>(75, directoryMesh(), 4, 32);
  std::vector<std::unique_ptr<MemorySystem>> mems;
  for (std::size_t c = 0; c < 4; ++c) {
    mems.push_back(std::make_unique<MemorySystem>(l1Defaults(), hierarchy, c));
  }
  mems[0]->dataAccess(0, /*isWrite=*/false, 0);
  mems[2]->dataAccess(0, /*isWrite=*/false, 100);
  const SharedL2& l2 = *hierarchy->l2();
  EXPECT_EQ(l2.sharersOf(0), 0b101u);

  hierarchy->missLatency(2048, 200, 1, /*dataFill=*/false);
  EXPECT_EQ(l2.sharersOf(2048), 0u);
  hierarchy->missLatency(4096, 300, 1, /*dataFill=*/false);
  ASSERT_FALSE(l2.probe(0));

  // The recall probed cores 0 and 2 only: 2 sent, 2 of the 4 broadcast
  // probes filtered. Bank 0's home is node 0, so only core 2's
  // invalidation crosses the NoC.
  const DirectoryStats& stats = *hierarchy->directory();
  EXPECT_EQ(stats.invalidationsSent, 2u);
  EXPECT_EQ(stats.invalidationsFiltered, 2u);
  EXPECT_EQ(hierarchy->noc()->stats().postedTransfers, 1u);
  EXPECT_FALSE(mems[0]->dcache().probe(0));
  EXPECT_FALSE(mems[2]->dcache().probe(0));
  EXPECT_EQ(mems[0]->dcache().stats().invalidations, 1u);
  EXPECT_EQ(mems[1]->dcache().stats().invalidations, 0u);
  // Line 4096 reuses line 0's way and starts over with an empty mask.
  EXPECT_EQ(l2.sharersOf(4096), 0u);
  EXPECT_EQ(l2.sharersOf(0), 0u);  // absent lines have no sharers
}

TEST(DirectoryEquivalence, DirectoryFiltersProbesOnTheStream) {
  // The equivalence is not vacuous: the same streams make the directory
  // actually filter probes (sharers < cores on some rounds) and send
  // targeted ones over the NoC.
  auto hierarchy =
      std::make_shared<MemoryHierarchy>(75, directoryMesh(), 4, 32);
  std::vector<std::unique_ptr<MemorySystem>> mems;
  for (std::size_t c = 0; c < 4; ++c) {
    mems.push_back(std::make_unique<MemorySystem>(l1Defaults(), hierarchy, c));
  }
  Rng rng(5);
  std::int64_t now = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::size_t core = rng.below(4);
    const std::uint64_t addr = rng.below(256) * 32;
    mems[core]->dataAccess(addr, rng.below(3) == 0, now);
    now += static_cast<std::int64_t>(rng.below(8));
  }
  ASSERT_NE(hierarchy->directory(), nullptr);
  const DirectoryStats& stats = *hierarchy->directory();
  EXPECT_GT(stats.invalidationsFiltered, 0u);
  EXPECT_GT(stats.invalidationsSent, 0u);
}

TEST(DirectoryEquivalence, TimedDirectoryPlatformStaysDeterministic) {
  // With real hop latency and finite links the stream is not equal to
  // broadcast (timing differs) but must be perfectly reproducible.
  PlatformConfig timed = directoryMesh();
  timed.noc.hopCycles = 3;
  timed.noc.linkWidthBytes = 8;
  const StreamResult a = runStream(timed, 4, 42);
  const StreamResult b = runStream(timed, 4, 42);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.l2Misses, b.l2Misses);
}

}  // namespace
}  // namespace laps
