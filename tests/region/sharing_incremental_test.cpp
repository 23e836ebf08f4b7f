/// \file sharing_incremental_test.cpp
/// \brief Incremental SharingMatrix maintenance vs from-scratch compute.
///
/// The open-workload engine maintains the sharing matrix one
/// addProcess/removeProcess at a time. These tests pin the promise that
/// after ANY interleaved sequence of such events, the matrix is
/// bit-identical to a from-scratch compute over the surviving (active)
/// set — i.e. to the full matrix with inactive rows/columns zeroed —
/// at analysis thread counts {1, 8} (compute() runs on the pool).

#include <gtest/gtest.h>

#include "core/laps.h"
#include "util/parallel.h"

namespace laps {
namespace {

/// Restores automatic thread-count resolution when a test exits.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { setParallelThreadCount(0); }
};

/// The oracle: full compute over every footprint, masked down to the
/// active set (a from-scratch compute over the survivors produces
/// exactly these values for the active pairs and zero elsewhere).
void expectMatchesMasked(const SharingMatrix& incremental,
                         const SharingMatrix& full,
                         const std::vector<bool>& active) {
  ASSERT_EQ(incremental.size(), full.size());
  for (std::size_t p = 0; p < full.size(); ++p) {
    ASSERT_EQ(incremental.isActive(p), static_cast<bool>(active[p]));
    for (std::size_t q = 0; q < full.size(); ++q) {
      const std::int64_t expected =
          active[p] && active[q] ? full.at(p, q) : 0;
      // Every cell is compared; the assertion machinery runs only on a
      // mismatch (per cell it dominated the churn tests under TSan).
      if (incremental.at(p, q) != expected) {
        ASSERT_EQ(incremental.at(p, q), expected)
            << "cell (" << p << ", " << q << ")";
      }
    }
  }
}

void expectMatchesMaskedCompute(const SharingMatrix& incremental,
                                std::span<const Footprint> footprints,
                                const std::vector<bool>& active) {
  expectMatchesMasked(incremental, SharingMatrix::compute(footprints), active);
}

std::vector<Footprint> suiteFootprints(std::size_t apps) {
  const auto suite = standardSuite();
  return concurrentScenario(suite, apps).footprints();
}

TEST(SharingMatrixIncremental, StartsInactiveAndEmpty) {
  const SharingMatrix m = SharingMatrix::inactive(4);
  EXPECT_EQ(m.size(), 4u);
  EXPECT_EQ(m.activeCount(), 0u);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(m.isActive(p));
    for (std::size_t q = 0; q < 4; ++q) EXPECT_EQ(m.at(p, q), 0);
  }
}

TEST(SharingMatrixIncremental, ComputeMarksEveryProcessActive) {
  const auto footprints = suiteFootprints(1);
  const SharingMatrix m = SharingMatrix::compute(footprints);
  EXPECT_EQ(m.activeCount(), footprints.size());
  EXPECT_TRUE(m.isActive(0));
}

TEST(SharingMatrixIncremental, AddThenRemoveRoundTrips) {
  const auto footprints = suiteFootprints(1);
  const std::size_t n = footprints.size();
  SharingMatrix m = SharingMatrix::inactive(n);
  std::vector<bool> active(n, false);

  for (std::size_t p = 0; p < n; ++p) {
    m.addProcess(footprints, p);
    active[p] = true;
  }
  expectMatchesMaskedCompute(m, footprints, active);
  EXPECT_EQ(m.activeCount(), n);

  m.removeProcess(2);
  active[2] = false;
  expectMatchesMaskedCompute(m, footprints, active);

  // Re-adding restores the row exactly.
  m.addProcess(footprints, 2);
  active[2] = true;
  expectMatchesMaskedCompute(m, footprints, active);
}

TEST(SharingMatrixIncremental, PreconditionsThrow) {
  const auto footprints = suiteFootprints(1);
  SharingMatrix m = SharingMatrix::inactive(footprints.size());
  EXPECT_THROW(m.removeProcess(0), Error);  // not active yet
  m.addProcess(footprints, 0);
  EXPECT_THROW(m.addProcess(footprints, 0), Error);  // already active
  EXPECT_THROW(m.addProcess(footprints, footprints.size()), Error);
  EXPECT_THROW(m.removeProcess(footprints.size()), Error);
  // Universe size mismatch.
  const std::span<const Footprint> slice(footprints.data(),
                                         footprints.size() - 1);
  EXPECT_THROW(m.addProcess(slice, 1), Error);
  // compute()'d matrices are fully active: removal works directly.
  SharingMatrix full = SharingMatrix::compute(footprints);
  full.removeProcess(3);
  EXPECT_FALSE(full.isActive(3));
  EXPECT_EQ(full.at(3, 1), 0);
}

TEST(SharingMatrixIncremental,
     RandomInterleavingMatchesComputeAtThreadCounts1And8) {
  const ThreadCountGuard guard;
  // Two concurrent applications: real footprints with heavy intra-task
  // sharing and inter-task disjointness.
  const auto footprints = suiteFootprints(2);
  const std::size_t n = footprints.size();

  for (const std::size_t threads : {1u, 8u}) {
    setParallelThreadCount(threads);
    Rng rng(0xA11CE + threads);
    SharingMatrix m = SharingMatrix::inactive(n);
    std::vector<bool> active(n, false);
    std::vector<std::size_t> activeIds;
    std::vector<std::size_t> inactiveIds(n);
    for (std::size_t p = 0; p < n; ++p) inactiveIds[p] = p;

    for (int step = 0; step < 200; ++step) {
      // 60% arrivals while anything is inactive, else exits.
      const bool add =
          !inactiveIds.empty() && (activeIds.empty() || rng.below(10) < 6);
      if (add) {
        const std::size_t i = rng.index(inactiveIds.size());
        const std::size_t p = inactiveIds[i];
        inactiveIds.erase(inactiveIds.begin() +
                          static_cast<std::ptrdiff_t>(i));
        activeIds.push_back(p);
        active[p] = true;
        m.addProcess(footprints, p);
      } else {
        const std::size_t i = rng.index(activeIds.size());
        const std::size_t p = activeIds[i];
        activeIds.erase(activeIds.begin() + static_cast<std::ptrdiff_t>(i));
        inactiveIds.push_back(p);
        active[p] = false;
        m.removeProcess(p);
      }
      // Check every 20 events (and at the end) to keep runtime sane.
      if (step % 20 == 19 || step == 199) {
        expectMatchesMaskedCompute(m, footprints, active);
      }
      ASSERT_EQ(m.activeCount(), activeIds.size());
    }
  }
}

TEST(SharingMatrixIncremental, LargeSingletonUniverseMatchesMaskedCompute) {
  // A 330-process universe (|T| = 12, all singleton classes) filled to
  // 280 live processes, so each late arrival intersects hundreds of
  // live classes, then churned: the matrix must still match the masked
  // full compute bit-for-bit.
  const auto footprints = suiteFootprints(12);
  const std::size_t n = footprints.size();
  ASSERT_GE(n, 280u);

  Rng rng(0xB0B);
  SharingMatrix m = SharingMatrix::inactive(n);
  std::vector<bool> active(n, false);
  std::vector<std::size_t> activeIds;
  const auto arrive = [&] {
    std::size_t p = static_cast<std::size_t>(rng.index(n));
    while (active[p]) p = (p + 1) % n;
    active[p] = true;
    activeIds.push_back(p);
    m.addProcess(footprints, p);
  };
  while (activeIds.size() < 280) arrive();
  ASSERT_EQ(m.classCount(), n);
  for (int step = 0; step < 40; ++step) {
    if (rng.below(2) == 0) {
      arrive();
    } else {
      const std::size_t i = rng.index(activeIds.size());
      const std::size_t p = activeIds[i];
      activeIds.erase(activeIds.begin() + static_cast<std::ptrdiff_t>(i));
      active[p] = false;
      m.removeProcess(p);
    }
  }
  expectMatchesMaskedCompute(m, footprints, active);
}

TEST(SharingMatrixIncremental, TwinHeavyChurnMatchesComputeAfterEveryEvent) {
  // Service workloads over 1-3 keys: nearly every arrival joins a live
  // class, so addProcess only patches counts and sums. After every add
  // and remove each cell and row sum must equal the masked full
  // compute, at thread counts {1, 8}.
  const ThreadCountGuard guard;
  for (const std::size_t keys : {1u, 2u, 3u}) {
    for (const std::size_t requests : {48u, 300u}) {
      ServiceWorkloadParams params;
      params.seed = 7 + keys;
      params.requestCount = requests;
      params.keyCount = keys;
      params.keysPerRequest = keys > 1 ? 2 : 1;
      params.hotKeyCount = 0;
      const auto footprints = makeServiceWorkload(params).footprints();
      const std::size_t n = footprints.size();
      const SharingMatrix full = SharingMatrix::compute(footprints);
      ASSERT_LT(full.classCount(), n / 8);
      for (const std::size_t threads : {1u, 8u}) {
        setParallelThreadCount(threads);
        Rng rng(0x7a1f + keys * 31 + requests + threads);
        SharingMatrix m = SharingMatrix::inactive(n);
        std::vector<bool> active(n, false);
        std::vector<std::size_t> activeIds;
        for (int step = 0; step < 120; ++step) {
          if (activeIds.size() < n &&
              (activeIds.empty() || rng.below(10) < 6)) {
            std::size_t p = static_cast<std::size_t>(rng.index(n));
            while (active[p]) p = (p + 1) % n;
            active[p] = true;
            activeIds.push_back(p);
            m.addProcess(footprints, p);
          } else {
            const std::size_t i = rng.index(activeIds.size());
            const std::size_t p = activeIds[i];
            activeIds.erase(activeIds.begin() +
                            static_cast<std::ptrdiff_t>(i));
            active[p] = false;
            m.removeProcess(p);
          }
          expectMatchesMasked(m, full, active);
          for (std::size_t p = 0; p < n; ++p) {
            const std::span<const std::int64_t> row = m.row(p);
            std::int64_t sum = 0;
            for (std::size_t q = 0; q < n; ++q) sum += q != p ? row[q] : 0;
            ASSERT_EQ(m.rowSum(p), sum) << "process " << p << " step " << step;
          }
          ASSERT_NO_THROW(m.auditInvariants()) << "step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace laps
