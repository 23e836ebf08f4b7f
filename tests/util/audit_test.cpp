// Tests of the audit-mode invariant layer (docs/ARCHITECTURE.md §11).
//
// Two obligations, both independent of the build configuration:
//  * LAPS_AUDIT macro semantics — the wrapped statement executes exactly
//    when the build was configured with -DLAPSCHED_AUDIT=ON;
//  * every generic checker is live — it accepts the invariant-holding
//    case and throws laps::AuditError on the violated one. Checkers are
//    compiled in every configuration precisely so this suite can prove
//    them in every configuration.

#include "util/audit.h"

#include <gtest/gtest.h>

namespace laps {
namespace {

TEST(AuditMacro, ExecutesIffAuditBuild) {
  bool ran = false;
  LAPS_AUDIT(ran = true);
  EXPECT_EQ(ran, audit::enabled());
}

TEST(AuditMacro, DisabledStatementStillTypeChecks) {
  // Multiple statements and a checker call all compile inside the
  // macro; with audit off none of it runs, so the throwing checker
  // below is safe to wrap unconditionally.
  int counter = 0;
  LAPS_AUDIT(++counter; audit::require(counter == 1, "macro sequencing"));
  EXPECT_EQ(counter, audit::enabled() ? 1 : 0);
}

TEST(AuditRequire, ThrowsAuditErrorWithPrefix) {
  EXPECT_NO_THROW(audit::require(true, "fine"));
  try {
    audit::require(false, "invariant text");
    FAIL() << "require(false) must throw";
  } catch (const AuditError& e) {
    EXPECT_NE(std::string(e.what()).find("audit: "), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("invariant text"), std::string::npos);
  }
}

TEST(AuditRequire, AuditErrorIsAnError) {
  // A top-level harness catching laps::Error must also stop on a broken
  // contract.
  EXPECT_THROW(audit::require(false, "x"), Error);
}

// The engine's EventSource ordinals, in their declared equal-cycle
// drain order (docs/ARCHITECTURE.md §13).
constexpr int kArrival = 0;
constexpr int kRetry = 1;
constexpr int kRecovery = 2;
constexpr int kInjection = 3;
constexpr int kCore = 4;

TEST(AuditEventOrder, AcceptsForwardTimeAndDeclaredTieOrder) {
  EXPECT_NO_THROW(audit::eventOrder(0, kArrival, 0, kArrival));
  EXPECT_NO_THROW(audit::eventOrder(10, kCore, 10, kCore));
  EXPECT_NO_THROW(audit::eventOrder(10, kCore, 11, kArrival));
  EXPECT_NO_THROW(audit::eventOrder(5, kArrival, 5, kRetry));
  EXPECT_NO_THROW(audit::eventOrder(5, kRetry, 5, kRecovery));
  EXPECT_NO_THROW(audit::eventOrder(5, kRecovery, 5, kInjection));
  EXPECT_NO_THROW(audit::eventOrder(5, kInjection, 5, kCore));
  EXPECT_NO_THROW(audit::eventOrder(5, kArrival, 6, kArrival));
}

TEST(AuditEventOrder, RejectsBackwardTime) {
  EXPECT_THROW(audit::eventOrder(11, kArrival, 10, kCore), AuditError);
  EXPECT_THROW(audit::eventOrder(11, kCore, 10, kCore), AuditError);
}

TEST(AuditEventOrder, RejectsDueArrivalLeftPending) {
  // An arrival due at or before a core event's cycle must already have
  // been drained (arrivals first at equal cycles).
  EXPECT_THROW(audit::eventOrder(5, kCore, 5, kArrival), AuditError);
  EXPECT_THROW(audit::eventOrder(5, kCore, 4, kArrival), AuditError);
}

TEST(AuditEventOrder, RejectsEarlierFaultLeftPending) {
  EXPECT_THROW(audit::eventOrder(5, kCore, 4, kInjection), AuditError);
}

TEST(AuditEventOrder, RejectsEqualCycleInjectionAfterCore) {
  // A fault injected at t must land on the segment ending at t, so it
  // pops before that core event, never after it.
  EXPECT_THROW(audit::eventOrder(5, kCore, 5, kInjection), AuditError);
}

TEST(AuditEventOrder, RejectsEqualCycleSourcesOutOfOrder) {
  EXPECT_THROW(audit::eventOrder(5, kRetry, 5, kArrival), AuditError);
  EXPECT_THROW(audit::eventOrder(5, kRecovery, 5, kRetry), AuditError);
  EXPECT_THROW(audit::eventOrder(5, kInjection, 5, kRecovery), AuditError);
}

TEST(AuditAdmissionIdentity, AcceptsExactPartition) {
  EXPECT_NO_THROW(audit::admissionIdentity(0, 0, 0, 0));
  EXPECT_NO_THROW(audit::admissionIdentity(7, 3, 0, 10));
  EXPECT_NO_THROW(audit::admissionIdentity(6, 3, 1, 10));
}

TEST(AuditAdmissionIdentity, RejectsLostProcesses) {
  EXPECT_THROW(audit::admissionIdentity(6, 3, 0, 10), AuditError);
  EXPECT_THROW(audit::admissionIdentity(8, 3, 0, 10), AuditError);
  EXPECT_THROW(audit::admissionIdentity(7, 3, 1, 10), AuditError);
}

TEST(AuditDepartureConservation, AcceptsExactPartition) {
  EXPECT_NO_THROW(audit::departureConservation(0, 0, 0, 0, 0));
  EXPECT_NO_THROW(audit::departureConservation(10, 5, 2, 2, 1));
}

TEST(AuditDepartureConservation, RejectsMisaccountedDeparture) {
  EXPECT_THROW(audit::departureConservation(9, 5, 2, 2, 1), AuditError);
  EXPECT_THROW(audit::departureConservation(11, 5, 2, 2, 1), AuditError);
}

TEST(AuditCoreUpForDispatch, AcceptsUpCore) {
  EXPECT_NO_THROW(audit::coreUpForDispatch(false, 3));
}

TEST(AuditCoreUpForDispatch, RejectsDownCoreDispatch) {
  EXPECT_THROW(audit::coreUpForDispatch(true, 3), AuditError);
}

TEST(AuditPercentileOrdering, AcceptsOrderedPercentiles) {
  EXPECT_NO_THROW(audit::percentileOrdering(0, 0, 0, 0));
  EXPECT_NO_THROW(audit::percentileOrdering(10, 10, 10, 1));
  EXPECT_NO_THROW(audit::percentileOrdering(10, 20, 30, 5));
}

TEST(AuditPercentileOrdering, RejectsInvertedPercentiles) {
  EXPECT_THROW(audit::percentileOrdering(20, 10, 30, 5), AuditError);
  EXPECT_THROW(audit::percentileOrdering(10, 30, 20, 5), AuditError);
}

TEST(AuditPercentileOrdering, RejectsNonZeroPercentilesWithoutSamples) {
  EXPECT_THROW(audit::percentileOrdering(1, 1, 1, 0), AuditError);
}

}  // namespace
}  // namespace laps
