#include "region/sharing.h"

#include <gtest/gtest.h>

#include "../../bench/synthetic_overhead.h"
#include "core/laps.h"
#include "sharing_builder.h"
#include "util/audit.h"
#include "util/error.h"
#include "util/parallel.h"

namespace laps {
namespace {

/// Builds the paper's Prog1 per-process footprints (8 processes).
std::vector<Footprint> prog1Footprints() {
  ArrayTable arrays;
  const ArrayId a = arrays.add("A", {10000, 16}, 4);
  const ArrayAccess access{
      a, AffineMap{AffineExpr({1000, 1}, 0), AffineExpr::constant(5)},
      AccessKind::Read};
  const auto space = IterationSpace::box({{0, 8}, {0, 3000}});
  std::vector<Footprint> fps(8);
  for (std::int64_t k = 0; k < 8; ++k) {
    fps[static_cast<std::size_t>(k)].add(
        a, accessFootprint(space.fixDim(0, k), access, arrays.at(a)));
  }
  return fps;
}

TEST(SharingMatrix, PaperFigure2aGolden) {
  // Fig. 2(a): neighbors share 2000 elements, distance-2 pairs share 1000,
  // farther pairs share nothing.
  const auto fps = prog1Footprints();
  const SharingMatrix m = SharingMatrix::compute(fps);
  ASSERT_EQ(m.size(), 8u);
  for (std::size_t k = 0; k < 8; ++k) {
    for (std::size_t p = 0; p < 8; ++p) {
      const auto dist = k > p ? k - p : p - k;
      std::int64_t expected = 0;
      if (dist == 0) expected = 3000;  // own footprint on the diagonal
      if (dist == 1) expected = 2000;
      if (dist == 2) expected = 1000;
      EXPECT_EQ(m.at(k, p), expected) << "k=" << k << " p=" << p;
    }
  }
}

/// Every pair reads the same both ways, and no process shares more with
/// another than its own footprint holds.
void expectSymmetricAndDiagonalDominant(const SharingMatrix& m,
                                        const std::string& where) {
  for (std::size_t p = 0; p < m.size(); ++p) {
    for (std::size_t q = 0; q < m.size(); ++q) {
      if (m.at(p, q) != m.at(q, p) || m.at(p, p) < m.at(p, q)) {
        FAIL() << where << ": cell (" << p << ", " << q << ") reads "
               << m.at(p, q) << ", (" << q << ", " << p << ") "
               << m.at(q, p) << ", diagonal " << m.at(p, p);
      }
    }
  }
}

TEST(SharingMatrix, SymmetricByConstruction) {
  // Symmetry is what lets the planner read a class row in place of the
  // column Fig. 3 reads (sched/locality.h). Inputs: the paper's Prog1,
  // an open matrix over a keyed service universe under seeded
  // arrival/exit churn (checked after every event), and the banded
  // synthetic matrix of the policy-overhead benches.
  expectSymmetricAndDiagonalDominant(SharingMatrix::compute(prog1Footprints()),
                                     "Prog1");
  ServiceWorkloadParams params;
  params.requestCount = 48;
  params.keyCount = 6;
  params.keysPerRequest = 2;
  const std::vector<Footprint> fps = makeServiceWorkload(params).footprints();
  SharingMatrix open = SharingMatrix::inactive(fps.size());
  Rng rng(0x5e11);
  for (int step = 0; step < 200; ++step) {
    const std::size_t p = rng.index(fps.size());
    if (open.isActive(p)) {
      open.removeProcess(p);
    } else {
      open.addProcess(fps, p);
    }
    expectSymmetricAndDiagonalDominant(open, "churn step " +
                                                 std::to_string(step));
  }
  expectSymmetricAndDiagonalDominant(synth::makeBandedSharing(200, 16),
                                     "banded");
}

TEST(SharingMatrix, DisjointProcessesGiveDiagonalMatrix) {
  std::vector<Footprint> fps(3);
  fps[0].add(0, IntervalSet::range(0, 10));
  fps[1].add(0, IntervalSet::range(10, 20));
  fps[2].add(1, IntervalSet::range(0, 10));
  const SharingMatrix m = SharingMatrix::compute(fps);
  EXPECT_EQ(m.at(0, 1), 0);
  EXPECT_EQ(m.at(0, 2), 0);
  EXPECT_EQ(m.at(1, 2), 0);
}

TEST(SharingMatrix, NonDiagonalDetected) {
  std::vector<Footprint> fps(2);
  fps[0].add(0, IntervalSet::range(0, 10));
  fps[1].add(0, IntervalSet::range(5, 15));
  const SharingMatrix m = SharingMatrix::compute(fps);
  EXPECT_EQ(m.at(0, 1), 5);
  EXPECT_EQ(m.at(1, 0), 5);
}

TEST(SharingMatrix, RowSumAllAndRestricted) {
  // Row 0 shares 10 with 1, 20 with 2, 30 with 3.
  const SharingMatrix m = test::SharingBuilder(4)
                              .pair(0, 1, 10)
                              .pair(0, 2, 20)
                              .pair(0, 3, 30)
                              .pad(0, 939)
                              .build();
  EXPECT_EQ(m.at(0, 0), 999);  // the diagonal must be excluded
  EXPECT_EQ(m.rowSum(0), 60);
  EXPECT_EQ(m.rowSum(3), 30);
}

TEST(SharingMatrix, EmptyMatrix) {
  const SharingMatrix m = SharingMatrix::compute({});
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.classCount(), 0u);
}

TEST(SharingMatrix, OutOfRangeThrows) {
  const SharingMatrix m = test::SharingBuilder(2).pair(0, 1, 3).build();
  EXPECT_THROW(static_cast<void>(m.at(2, 0)), Error);
  EXPECT_THROW(static_cast<void>(m.at(0, 2)), Error);
  EXPECT_THROW(static_cast<void>(m.row(2)), Error);
}

// --- audit layer (docs/ARCHITECTURE.md §11) ------------------------------

TEST(SharingAudit, ComputedMatrixPassesInvariants) {
  const SharingMatrix m = SharingMatrix::compute(prog1Footprints());
  EXPECT_NO_THROW(m.auditInvariants());
}

TEST(SharingAudit, InjectedAsymmetryTrips) {
  SharingMatrix m = SharingMatrix::compute(prog1Footprints());
  // One half of a symmetric pair, written with no upkeep.
  m.corruptCellForTest(1, 2, m.at(1, 2) + 1);
  EXPECT_THROW(m.auditInvariants(), AuditError);
}

TEST(SharingAudit, NegativeDiagonalTrips) {
  SharingMatrix m = SharingMatrix::compute(prog1Footprints());
  m.corruptCellForTest(1, 1, -5);  // a footprint size cannot be negative
  EXPECT_THROW(m.auditInvariants(), AuditError);
}

TEST(SharingAudit, InactiveRowMustStayZero) {
  SharingMatrix m = SharingMatrix::inactive(3);
  EXPECT_NO_THROW(m.auditInvariants());
  // Every inactive process reads the inactive slot, so this one write
  // lands in rows 0 and 1 and columns 0 and 1 alike: symmetric (the
  // symmetry clause cannot catch it) but still a contract violation.
  m.corruptCellForTest(0, 1, 7);
  EXPECT_EQ(m.at(1, 0), 7);
  EXPECT_THROW(m.auditInvariants(), AuditError);
  // The seam itself rejects unknown processes.
  EXPECT_THROW(m.corruptCellForTest(0, 3, 1), Error);
}

TEST(SharingAudit, ActiveSetAgreementAcceptsMatchingSets) {
  const auto fps = prog1Footprints();
  SharingMatrix m = SharingMatrix::inactive(fps.size());
  m.addProcess(fps, 2);
  m.addProcess(fps, 5);
  std::vector<bool> arrived(fps.size(), false);
  std::vector<bool> exited(fps.size(), false);
  arrived[2] = arrived[5] = true;
  EXPECT_NO_THROW(audit::activeSetAgreement(m, arrived, exited, 2));
}

TEST(SharingAudit, ActiveSetAgreementCatchesDisagreements) {
  const auto fps = prog1Footprints();
  SharingMatrix m = SharingMatrix::inactive(fps.size());
  m.addProcess(fps, 2);
  std::vector<bool> arrived(fps.size(), false);
  std::vector<bool> exited(fps.size(), false);
  arrived[2] = true;

  // Wrong live count.
  EXPECT_THROW(audit::activeSetAgreement(m, arrived, exited, 2), AuditError);

  // A process the engine thinks is live but the matrix deactivated.
  arrived[5] = true;
  EXPECT_THROW(audit::activeSetAgreement(m, arrived, exited, 2), AuditError);

  // A process the engine retired but the matrix kept active.
  arrived[5] = false;
  exited[2] = true;
  EXPECT_THROW(audit::activeSetAgreement(m, arrived, exited, 0), AuditError);
}

TEST(SharingAudit, InjectedRowSumTrips) {
  SharingMatrix m = SharingMatrix::compute(prog1Footprints());
  EXPECT_NO_THROW(m.auditInvariants());
  // A stale stored sum with every cell intact: symmetric, zero outside
  // the active set, so only the row-sum clause can catch it.
  m.corruptRowSumForTest(3, m.rowSum(3) + 1);
  EXPECT_THROW(m.auditInvariants(), AuditError);
  // An inactive process's stored sum must be zero too.
  SharingMatrix open = SharingMatrix::inactive(3);
  open.corruptRowSumForTest(1, 5);
  EXPECT_THROW(open.auditInvariants(), AuditError);
  // The seam itself rejects unknown processes.
  EXPECT_THROW(open.corruptRowSumForTest(3, 0), Error);
}

/// Restores automatic thread-count resolution when a test exits.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { setParallelThreadCount(0); }
};

TEST(SharingAudit, IncrementalMaintenanceStaysCleanThroughChurn) {
  // Inputs: the paper's Prog1 and a 330-process suite mix, each at
  // thread counts {1, 8}. After every addProcess and removeProcess,
  // each stored row sum must equal a brute-force sum of its row.
  const ThreadCountGuard guard;
  const std::vector<std::vector<Footprint>> inputs{
      prog1Footprints(),
      concurrentScenario(standardSuite(), 12).footprints()};
  for (const auto& fps : inputs) {
    for (const std::size_t threads : {1u, 8u}) {
      setParallelThreadCount(threads);
      SharingMatrix m = SharingMatrix::inactive(fps.size());
      std::vector<bool> arrived(fps.size(), false);
      std::vector<bool> exited(fps.size(), false);
      std::size_t live = 0;
      const auto checkAll = [&] {
        m.auditInvariants();
        audit::activeSetAgreement(m, arrived, exited, live);
        for (std::size_t p = 0; p < m.size(); ++p) {
          const std::span<const std::int64_t> row = m.row(p);
          std::int64_t expected = 0;
          for (std::size_t q = 0; q < row.size(); ++q) {
            if (q != p) expected += row[q];
          }
          ASSERT_EQ(m.rowSum(p), expected)
              << "process " << p << " of " << m.size() << " at " << threads
              << " threads";
        }
      };
      for (std::size_t p = 0; p < fps.size(); ++p) {
        m.addProcess(fps, p);
        arrived[p] = true;
        ++live;
        EXPECT_NO_THROW(checkAll());
      }
      for (std::size_t p = 0; p < fps.size(); p += 2) {
        m.removeProcess(p);
        exited[p] = true;
        --live;
        EXPECT_NO_THROW(checkAll());
      }
    }
  }
}

TEST(SharingMatrix, ToTableShape) {
  const auto fps = prog1Footprints();
  const SharingMatrix m = SharingMatrix::compute(fps);
  const Table t = m.toTable();
  EXPECT_EQ(t.rowCount(), 8u);
  EXPECT_EQ(t.headers().size(), 9u);  // label column + 8 processes
  EXPECT_NE(t.ascii().find("2000"), std::string::npos);
}

/// Hand-built footprints for the class rules: P0 and P1 touch only
/// private arrays, P2 and P3 the same elements of one shared array, P4
/// other elements of it, P5 P2's elements plus a private array, and P6
/// and P7 the same elements of an array only the two of them touch.
std::vector<Footprint> classFootprints() {
  std::vector<Footprint> fps(8);
  fps[0].add(0, IntervalSet::range(0, 10));
  fps[1].add(1, IntervalSet::range(0, 20));
  fps[2].add(2, IntervalSet::range(0, 8));
  fps[3].add(2, IntervalSet::range(0, 8));
  fps[4].add(2, IntervalSet::range(4, 12));
  fps[5].add(2, IntervalSet::range(0, 8));
  fps[5].add(3, IntervalSet::range(0, 5));
  fps[6].add(4, IntervalSet::range(0, 3));
  fps[7].add(4, IntervalSet::range(0, 3));
  return fps;
}

TEST(SharingClasses, PrivateArraysDropOut) {
  // Arrays 0, 1 and 3 have one toucher each, so they leave the key:
  // P0 and P1 (empty keys) share a class, as do P2, P3 and P5 (same
  // elements of array 2); P4 touches other elements of it. Array 4 has
  // two touchers, so it stays: P6 and P7 are a class of their own.
  // Classes are numbered by smallest member.
  const SharingMatrix m = SharingMatrix::compute(classFootprints());
  EXPECT_EQ(m.classCount(), 4u);
  const std::vector<std::size_t> expected{0, 0, 1, 1, 2, 1, 3, 3};
  for (std::size_t p = 0; p < expected.size(); ++p) {
    EXPECT_EQ(m.classOf(p), expected[p]) << "process " << p;
  }
  // The contract the classes stand for: rows agree off the pair, and
  // the intra pairs hold one value.
  EXPECT_EQ(m.at(2, 4), m.at(3, 4));
  EXPECT_EQ(m.at(5, 4), m.at(3, 4));
  EXPECT_EQ(m.at(2, 3), m.at(2, 5));
  EXPECT_EQ(m.at(3, 5), m.at(2, 5));
  EXPECT_NO_THROW(m.auditInvariants());
}

TEST(SharingClasses, ServiceRequestsWithOneKeySetShareAClass) {
  // Each request touches its private scratch plus its key's value
  // array, so with keysPerRequest = 1 the class is the key.
  ServiceWorkloadParams params;
  params.requestCount = 64;
  params.keyCount = 3;
  params.keysPerRequest = 1;
  params.hotKeyCount = 0;
  const std::vector<Footprint> fps = makeServiceWorkload(params).footprints();
  const SharingMatrix m = SharingMatrix::compute(fps);
  EXPECT_EQ(m.classCount(), 3u);
  for (std::size_t p = 0; p < fps.size(); ++p) {
    for (std::size_t q = p + 1; q < fps.size(); ++q) {
      // Same class iff the requests share a value array.
      EXPECT_EQ(m.classOf(p) == m.classOf(q), m.at(p, q) > 0);
    }
  }
}

TEST(SharingClasses, OpenMatrixInternsOnFirstArrival) {
  // Before its first addProcess an open matrix has one class per
  // process; the first arrival interns the classes of the universe.
  const auto fps = classFootprints();
  EXPECT_THROW((void)SharingMatrix::compute(fps).classOf(8), Error);
  SharingMatrix open = SharingMatrix::inactive(fps.size());
  EXPECT_EQ(open.classCount(), fps.size());
  open.addProcess(fps, 4);
  EXPECT_EQ(open.classCount(), 4u);
}

TEST(SharingAudit, BrokenClassContractTrips) {
  const auto fps = classFootprints();
  SharingMatrix m = SharingMatrix::compute(fps);
  EXPECT_NO_THROW(m.auditInvariants());
  // P4 claims P2's class, whose member list, count and slot do not
  // have it.
  m.corruptClassForTest(4, m.classOf(2));
  EXPECT_THROW(m.auditInvariants(), AuditError);
  // The same on an open matrix, after the smallest member of
  // {2, 3, 5} (the rep whose footprint the class's cells came from)
  // left.
  SharingMatrix open = SharingMatrix::inactive(fps.size());
  for (std::size_t p = 0; p < fps.size(); ++p) open.addProcess(fps, p);
  open.removeProcess(2);
  EXPECT_NO_THROW(open.auditInvariants());
  open.corruptClassForTest(3, open.classOf(0));
  EXPECT_THROW(open.auditInvariants(), AuditError);
  // The seam itself rejects unknown processes and classes.
  EXPECT_THROW(m.corruptClassForTest(8, 0), Error);
  EXPECT_THROW(m.corruptClassForTest(0, 4), Error);
}

}  // namespace
}  // namespace laps
