/// \file sharing_differential_test.cpp
/// \brief laps::SharingMatrix (class table) vs the dense reference
/// (tests/region/reference_sharing.h).
///
/// Both matrices see the same events. After every one of them, every
/// read — at, rowSum, isActive, activeCount, classOf, classCount and
/// row — must agree for every process and pair, at analysis thread
/// counts {1, 8}. The inputs: seeded arrival/exit churn on keyed
/// service universes (many processes per class), compute() on suite
/// mixes (singleton classes) and service universes, and exited
/// anchors, whose cells must read 0. compute() intersects only the
/// class pairs that touch a common array; its work count is pinned on
/// the Fig. 7 mix at |T| = 48, and edge cases cover co-touching pairs
/// with disjoint elements and arrays one process touches alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/laps.h"
#include "reference_sharing.h"
#include "util/parallel.h"

namespace laps {
namespace {

/// Restores automatic thread-count resolution when a test exits.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { setParallelThreadCount(0); }
};

/// Every read of \p m equals the reference's.
void expectSameReads(const SharingMatrix& m,
                     const reference::SharingMatrix& ref,
                     const std::string& where) {
  ASSERT_EQ(m.size(), ref.size()) << where;
  ASSERT_EQ(m.activeCount(), ref.activeCount()) << where;
  ASSERT_EQ(m.classCount(), ref.classCount()) << where;
  const std::size_t n = ref.size();
  for (std::size_t p = 0; p < n; ++p) {
    ASSERT_EQ(m.isActive(p), ref.isActive(p)) << where << ", process " << p;
    ASSERT_EQ(m.classOf(p), ref.classOf(p)) << where << ", process " << p;
    ASSERT_EQ(m.rowSum(p), ref.rowSum(p)) << where << ", process " << p;
    const std::span<const std::int64_t> expected = ref.row(p);
    const std::span<const std::int64_t> row = m.row(p);
    ASSERT_EQ(row.size(), n) << where;
    for (std::size_t q = 0; q < n; ++q) {
      // Every cell is compared; the assertion machinery runs only on a
      // mismatch (per cell it dominated the churn tests under TSan).
      if (m.at(p, q) != expected[q] || row[q] != expected[q]) {
        ASSERT_EQ(m.at(p, q), expected[q])
            << where << ", cell (" << p << ", " << q << ")";
        ASSERT_EQ(row[q], expected[q])
            << where << ", row " << p << " at " << q;
      }
    }
  }
}

/// Applies one event to both matrices.
void addBoth(SharingMatrix& m, reference::SharingMatrix& ref,
             std::span<const Footprint> footprints, std::size_t p) {
  m.addProcess(footprints, p);
  ref.addProcess(footprints, p);
}
void removeBoth(SharingMatrix& m, reference::SharingMatrix& ref,
                std::size_t p) {
  m.removeProcess(p);
  ref.removeProcess(p);
}

/// Seeded churn: arrivals (60%, while anything is inactive) and exits
/// of uniformly drawn processes, compared after every event. An exited
/// process's row and column must read 0 at once.
void churnAndCompare(SharingMatrix& m, reference::SharingMatrix& ref,
                     std::span<const Footprint> footprints, Rng& rng,
                     int steps, const std::string& where) {
  const std::size_t n = footprints.size();
  std::vector<std::size_t> activeIds;
  for (std::size_t p = 0; p < n; ++p) {
    if (ref.isActive(p)) activeIds.push_back(p);
  }
  for (int step = 0; step < steps; ++step) {
    const std::string at = where + ", step " + std::to_string(step);
    if (activeIds.size() < n && (activeIds.empty() || rng.below(10) < 6)) {
      std::size_t p = rng.index(n);
      while (ref.isActive(p)) p = (p + 1) % n;
      activeIds.push_back(p);
      addBoth(m, ref, footprints, p);
    } else {
      const std::size_t i = rng.index(activeIds.size());
      const std::size_t p = activeIds[i];
      activeIds.erase(activeIds.begin() + static_cast<std::ptrdiff_t>(i));
      removeBoth(m, ref, p);
      for (std::size_t q = 0; q < n; ++q) {
        ASSERT_EQ(m.at(p, q), 0) << at << ", exited " << p;
        ASSERT_EQ(m.at(q, p), 0) << at << ", exited " << p;
      }
    }
    expectSameReads(m, ref, at);
    ASSERT_NO_THROW(m.auditInvariants()) << at;
  }
}

std::vector<Footprint> serviceFootprints(std::size_t keys,
                                         std::size_t requests,
                                         std::uint64_t seed) {
  ServiceWorkloadParams params;
  params.seed = seed;
  params.requestCount = requests;
  params.keyCount = keys;
  params.keysPerRequest = keys > 1 ? 2 : 1;
  params.hotKeyCount = keys >= 8 ? 4 : 0;
  return makeServiceWorkload(params).footprints();
}

TEST(SharingDifferential, ServiceChurnMatchesDenseAfterEveryEvent) {
  const ThreadCountGuard guard;
  for (const std::size_t keys : {1u, 2u, 3u, 8u, 48u}) {
    const auto footprints = serviceFootprints(keys, 160, 11 + keys);
    for (const std::size_t threads : {1u, 8u}) {
      setParallelThreadCount(threads);
      const std::string where = std::to_string(keys) + " keys, " +
                                std::to_string(threads) + " threads";
      Rng rng(0xd1ff + keys * 131 + threads);
      SharingMatrix m = SharingMatrix::inactive(footprints.size());
      reference::SharingMatrix ref =
          reference::SharingMatrix::inactive(footprints.size());
      expectSameReads(m, ref, where + ", before the first arrival");
      churnAndCompare(m, ref, footprints, rng, 150, where);
      ASSERT_LT(m.classCount(), footprints.size()) << where;
    }
  }
}

TEST(SharingDifferential, ComputeOnSuiteMixesMatchesDense) {
  // Suite mixes hold (almost) singleton classes: the class table is
  // the dense matrix plus the inactive slot. |T| = 12 (330 processes)
  // puts reference::SharingMatrix::addProcess on its parallel path.
  const ThreadCountGuard guard;
  for (const std::size_t apps : {1u, 12u}) {
    const auto footprints =
        concurrentScenario(standardSuite(), apps).footprints();
    for (const std::size_t threads : {1u, 8u}) {
      setParallelThreadCount(threads);
      const std::string where = std::to_string(apps) + " apps, " +
                                std::to_string(threads) + " threads";
      SharingMatrix m = SharingMatrix::compute(footprints);
      reference::SharingMatrix ref =
          reference::SharingMatrix::compute(footprints);
      expectSameReads(m, ref, where);
      Rng rng(0xc0de + apps + threads);
      churnAndCompare(m, ref, footprints, rng, apps == 1 ? 60 : 12, where);
    }
  }
}

/// The Fig. 7 mix of \p count applications cycled through the suite,
/// merged in a seeded shuffled order (the end-to-end closed-lsm input
/// at count 48, seed 1).
std::vector<Footprint> shuffledMixFootprints(std::size_t count,
                                             std::uint64_t seed) {
  const std::vector<Application> suite = standardSuite();
  std::vector<Application> mix;
  for (std::size_t i = 0; i < count; ++i) {
    mix.push_back(suite[i % suite.size()]);
  }
  Rng rng(seed);
  for (std::size_t i = mix.size() - 1; i > 0; --i) {
    std::swap(mix[i], mix[rng.below(i + 1)]);
  }
  return concurrentScenario(mix, count).footprints();
}

TEST(SharingDifferential, ComputeMatchesDenseOnMixesAndServiceUniverses) {
  // compute() intersects only the class pairs whose reps touch a common
  // array; the dense reference intersects every pair.
  const ThreadCountGuard guard;
  std::vector<std::pair<std::string, std::vector<Footprint>>> inputs;
  for (const std::size_t apps : {6u, 12u}) {
    for (const std::uint64_t seed : {1u, 7u}) {
      inputs.emplace_back(std::to_string(apps) + " apps, seed " +
                              std::to_string(seed),
                          shuffledMixFootprints(apps, seed));
    }
  }
  for (const std::size_t keys : {1u, 8u, 48u}) {
    inputs.emplace_back(std::to_string(keys) + " keys",
                        serviceFootprints(keys, 256, 21 + keys));
  }
  for (const auto& [name, footprints] : inputs) {
    const reference::SharingMatrix ref =
        reference::SharingMatrix::compute(footprints);
    for (const std::size_t threads : {1u, 8u}) {
      setParallelThreadCount(threads);
      const SharingMatrix m = SharingMatrix::compute(footprints);
      expectSameReads(m, ref,
                      name + ", " + std::to_string(threads) + " threads");
      ASSERT_NO_THROW(m.auditInvariants()) << name;
    }
  }
}

TEST(SharingDifferential, ComputeIntersectsOnlyCoTouchingPairs) {
  // The closed-lsm input: 1320 singleton classes, 870,540 pairs. 15,728
  // of them touch a common array and are intersected; 8,984 share
  // elements. Every pair that touches no common array reads 0, and
  // every rowSum (summed over the intersected pairs alone) equals the
  // sum of its row's cells, at threads {1, 8}.
  const ThreadCountGuard guard;
  const std::vector<Footprint> footprints = shuffledMixFootprints(48, 1);
  const std::size_t n = footprints.size();
  ASSERT_EQ(n, 1320u);
  std::vector<SharingMatrix> matrices;
  for (const std::size_t threads : {1u, 8u}) {
    setParallelThreadCount(threads);
    matrices.push_back(SharingMatrix::compute(footprints));
  }
  std::vector<std::vector<ArrayId>> arrays(n);
  for (std::size_t p = 0; p < n; ++p) arrays[p] = footprints[p].arrays();
  std::uint64_t coTouching = 0;
  std::vector<std::uint64_t> nonzero(matrices.size(), 0);
  std::vector<std::vector<std::int64_t>> sums(
      matrices.size(), std::vector<std::int64_t>(n, 0));
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = p + 1; q < n; ++q) {
      bool common = false;
      for (const ArrayId a : arrays[p]) {
        common = common || std::binary_search(arrays[q].begin(),
                                              arrays[q].end(), a);
      }
      coTouching += common ? 1 : 0;
      const std::int64_t expected =
          common ? footprints[p].sharedElements(footprints[q]) : 0;
      for (std::size_t i = 0; i < matrices.size(); ++i) {
        const SharingMatrix& m = matrices[i];
        nonzero[i] += m.at(p, q) != 0 ? 1 : 0;
        ASSERT_EQ(m.at(p, q), expected)
            << "matrix " << i << ", pair (" << p << ", " << q << ")";
        sums[i][p] += m.at(p, q);
        sums[i][q] += m.at(q, p);
      }
    }
  }
  for (std::size_t i = 0; i < matrices.size(); ++i) {
    const SharingMatrix& m = matrices[i];
    ASSERT_EQ(m.classCount(), n) << "matrix " << i;
    EXPECT_EQ(m.intersections(), 15728u) << "matrix " << i;
    EXPECT_EQ(coTouching, m.intersections()) << "matrix " << i;
    EXPECT_EQ(nonzero[i], 8984u) << "matrix " << i;
    for (std::size_t p = 0; p < n; ++p) {
      ASSERT_EQ(m.rowSum(p), sums[i][p]) << "matrix " << i << ", row " << p;
    }
    ASSERT_NO_THROW(m.auditInvariants()) << "matrix " << i;
  }
}

TEST(SharingDifferential, CopiesAndMovesReadLikeTheOriginal) {
  // The class table's unwritten cells read zero without being stored
  // (calloc'd storage); a copy or a move must read every cell, written
  // or not, like the original.
  const auto mix = shuffledMixFootprints(6, 1);
  const reference::SharingMatrix ref = reference::SharingMatrix::compute(mix);
  const SharingMatrix computed = SharingMatrix::compute(mix);
  const SharingMatrix copied(computed);
  expectSameReads(copied, ref, "copy of compute()");
  expectSameReads(computed, ref, "compute() after its copy");
  SharingMatrix source = SharingMatrix::compute(mix);
  const SharingMatrix moved(std::move(source));
  expectSameReads(moved, ref, "move of compute()");
  ASSERT_NO_THROW(moved.auditInvariants());

  // An interned inactive(n) matrix (kUnknown cells not yet intersected)
  // copied mid-churn keeps maintaining like the original.
  const auto footprints = serviceFootprints(8, 80, 5);
  SharingMatrix open = SharingMatrix::inactive(footprints.size());
  reference::SharingMatrix openRef =
      reference::SharingMatrix::inactive(footprints.size());
  for (std::size_t p = 0; p < footprints.size(); p += 3) {
    addBoth(open, openRef, footprints, p);
  }
  SharingMatrix openCopy(open);
  expectSameReads(openCopy, openRef, "copy of inactive(n)");
  Rng rng(0xc0b1);
  churnAndCompare(openCopy, openRef, footprints, rng, 40, "copy churned");
}

TEST(SharingDifferential, ComputeEdgeCases) {
  // p0 and p1 touch array 0 on disjoint elements: listed, intersected,
  // 0. Array 1 is p0's alone. p3 (a private array) and p4 (nothing)
  // touch no shared array: one class, intra value 0, no pairs.
  std::vector<Footprint> footprints(5);
  footprints[0].add(0, IntervalSet::range(0, 10));
  footprints[0].add(1, IntervalSet::range(0, 5));
  footprints[1].add(0, IntervalSet::range(20, 30));
  footprints[2].add(0, IntervalSet::range(5, 25));
  footprints[3].add(2, IntervalSet::range(0, 4));
  const ThreadCountGuard guard;
  const reference::SharingMatrix ref =
      reference::SharingMatrix::compute(footprints);
  for (const std::size_t threads : {1u, 8u}) {
    setParallelThreadCount(threads);
    const SharingMatrix m = SharingMatrix::compute(footprints);
    expectSameReads(m, ref, std::to_string(threads) + " threads");
    EXPECT_EQ(m.classCount(), 4u);
    EXPECT_EQ(m.at(0, 1), 0);
    EXPECT_EQ(m.at(0, 2), 5);
    EXPECT_EQ(m.at(1, 2), 5);
    EXPECT_EQ(m.at(3, 4), 0);
    EXPECT_EQ(m.at(0, 0), 15);
    // Three co-touching pairs plus the intra value of {p3, p4}.
    EXPECT_EQ(m.intersections(), 4u);
  }
}

TEST(SharingDifferential, ExitedAnchorsReadZero) {
  // DLS and OLS score against a core's previous process, which may have
  // exited: every cell of an exited anchor reads 0, including the ones
  // with its classmates, and a re-arrival restores them exactly.
  const auto footprints = serviceFootprints(2, 40, 9);
  const std::size_t n = footprints.size();
  SharingMatrix m = SharingMatrix::inactive(n);
  reference::SharingMatrix ref = reference::SharingMatrix::inactive(n);
  for (std::size_t p = 0; p < n; ++p) addBoth(m, ref, footprints, p);
  const std::size_t anchor = 6;
  const std::int64_t before = m.at(anchor, anchor + 1);
  removeBoth(m, ref, anchor);
  for (std::size_t q = 0; q < n; ++q) {
    EXPECT_EQ(m.at(anchor, q), 0) << q;
    EXPECT_EQ(m.at(q, anchor), 0) << q;
  }
  EXPECT_EQ(m.rowSum(anchor), 0);
  expectSameReads(m, ref, "anchor exited");
  // Its whole class leaves, then the anchor returns alone.
  for (std::size_t q = 0; q < n; ++q) {
    if (q != anchor && m.classOf(q) == m.classOf(anchor)) {
      removeBoth(m, ref, q);
    }
  }
  expectSameReads(m, ref, "class exited");
  addBoth(m, ref, footprints, anchor);
  expectSameReads(m, ref, "anchor back");
  if (!ref.isActive(anchor + 1)) addBoth(m, ref, footprints, anchor + 1);
  EXPECT_EQ(m.at(anchor, anchor + 1), before);
  expectSameReads(m, ref, "neighbour back");
}

}  // namespace
}  // namespace laps
