/// \file bus_test.cpp
/// \brief BusyTimeline calendar semantics and the bounded MemoryBus.

#include "cache/bus.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/audit.h"
#include "util/error.h"

namespace laps {
namespace {

TEST(BusyTimeline, FreeResourceStartsImmediately) {
  BusyTimeline t;
  EXPECT_EQ(t.reserve(100, 10), 100);
  EXPECT_EQ(t.reserve(110, 10), 110);  // back-to-back, no wait
}

TEST(BusyTimeline, QueuesBehindBusyInterval) {
  BusyTimeline t;
  EXPECT_EQ(t.reserve(100, 10), 100);  // busy [100, 110)
  EXPECT_EQ(t.reserve(105, 10), 110);  // overlaps: pushed to 110
  EXPECT_EQ(t.reserve(105, 10), 120);  // and again behind the second
}

TEST(BusyTimeline, FillsEarlierGapsLeftByOutOfOrderRequests) {
  // A far-ahead segment books late; a later-simulated request with an
  // earlier issue time must slot into the untouched past, not queue
  // behind the future reservation.
  BusyTimeline t;
  EXPECT_EQ(t.reserve(1000, 10), 1000);
  EXPECT_EQ(t.reserve(0, 10), 0);
  // A gap exactly as large as the duration is usable.
  EXPECT_EQ(t.reserve(985, 10), 985);
  // The gap [10, 985) shrank from both ends; a request needing more room
  // than what is left before 985 lands after the 1000-block.
  EXPECT_EQ(t.reserve(980, 10), 1010);
}

TEST(BusyTimeline, CoalescesAdjacentIntervals) {
  BusyTimeline t;
  t.reserve(0, 10);
  t.reserve(10, 10);
  t.reserve(20, 10);
  EXPECT_EQ(t.intervalCount(), 1u);  // one blob [0, 30)
  t.reserve(40, 10);
  EXPECT_EQ(t.intervalCount(), 2u);
  t.reserve(30, 10);  // bridges the hole
  EXPECT_EQ(t.intervalCount(), 1u);
}

TEST(BusyTimeline, RetireBeforeDropsOnlyUnreachableIntervals) {
  BusyTimeline t;
  t.reserve(0, 10);
  t.reserve(100, 10);
  t.retireBefore(50);
  EXPECT_EQ(t.intervalCount(), 1u);
  // The retired past no longer blocks (nor serves) anything; the
  // remaining interval still queues requests.
  EXPECT_EQ(t.reserve(100, 10), 110);
}

TEST(BusyTimeline, RejectsNonPositiveDuration) {
  BusyTimeline t;
  EXPECT_THROW(t.reserve(0, 0), Error);
}

TEST(BusConfig, OccupancyIsLatencyPlusTransfer) {
  BusConfig cfg;
  cfg.latencyCycles = 75;
  cfg.widthBytes = 8;
  EXPECT_EQ(cfg.occupancyCycles(32), 75 + 4);
  cfg.widthBytes = 16;
  EXPECT_EQ(cfg.occupancyCycles(32), 75 + 2);
  cfg.widthBytes = 3;  // non-dividing width rounds the transfer up
  EXPECT_EQ(cfg.occupancyCycles(32), 75 + 11);
}

TEST(BusConfig, ValidateRejectsNonPositiveFields) {
  BusConfig cfg;
  cfg.maxOutstanding = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = BusConfig{};
  cfg.widthBytes = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = BusConfig{};
  cfg.latencyCycles = 0;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(MemoryBus, UncontendedDemandCostsOccupancy) {
  BusConfig cfg;
  cfg.maxOutstanding = 2;
  cfg.latencyCycles = 75;
  cfg.widthBytes = 8;
  MemoryBus bus(cfg, 32);
  EXPECT_EQ(bus.demandAccess(0), 79);
  EXPECT_EQ(bus.stats().transactions, 1u);
  EXPECT_EQ(bus.stats().waitCycles, 0u);
}

TEST(MemoryBus, BoundedOutstandingQueuesTheOverflow) {
  BusConfig cfg;
  cfg.maxOutstanding = 2;
  cfg.latencyCycles = 75;
  cfg.widthBytes = 8;  // occupancy 79
  MemoryBus bus(cfg, 32);
  EXPECT_EQ(bus.demandAccess(0), 79);       // slot 0: [0, 79)
  EXPECT_EQ(bus.demandAccess(0), 79);       // slot 1: [0, 79)
  EXPECT_EQ(bus.demandAccess(0), 79 + 79);  // waits 79, then 79 more
  EXPECT_EQ(bus.stats().waitCycles, 79u);
  EXPECT_EQ(bus.stats().transactions, 3u);
}

// --- audit layer (docs/ARCHITECTURE.md §11) ------------------------------

TEST(TimelineAudit, AcceptsDisjointCoalescedCalendar) {
  std::vector<BusyInterval> busy;
  EXPECT_NO_THROW(audit::timelineDisjoint(busy));  // empty
  busy = {{0, 10}, {20, 30}};
  EXPECT_NO_THROW(audit::timelineDisjoint(busy));
}

TEST(TimelineAudit, RejectsOverlappingIntervals) {
  const std::vector<BusyInterval> busy = {{0, 10}, {5, 15}};  // overlap
  EXPECT_THROW(audit::timelineDisjoint(busy), AuditError);
}

TEST(TimelineAudit, RejectsAbuttingUncoalescedIntervals) {
  // [10, 20) abuts [0, 10): a booking should have coalesced these.
  const std::vector<BusyInterval> busy = {{0, 10}, {10, 20}};
  EXPECT_THROW(audit::timelineDisjoint(busy), AuditError);
}

TEST(TimelineAudit, RejectsEmptyOrInvertedInterval) {
  std::vector<BusyInterval> busy = {{5, 5}};
  EXPECT_THROW(audit::timelineDisjoint(busy), AuditError);
  busy = {{5, 3}};
  EXPECT_THROW(audit::timelineDisjoint(busy), AuditError);
}

TEST(TimelineAudit, InjectedCorruptionTripsTheAuditedBooking) {
  // Proves the in-situ LAPS_AUDIT call after a booking fires: corrupt the
  // calendar behind the invariant maintenance, then book next to the
  // corruption (a booking audits the interval it changed and its two
  // neighbours). Only observable in an audit build — otherwise the
  // check is compiled out and the booking must succeed untouched.
  BusyTimeline t;
  t.reserve(0, 10);                       // [0, 10)
  t.auditInjectIntervalForTest(5, 15);    // overlaps, bypassing reserve
  if (audit::enabled()) {
    // Extends [5, 15) to [5, 20), whose neighbour [0, 10) overlaps it.
    EXPECT_THROW(t.reserve(15, 5), AuditError);
  } else {
    EXPECT_NO_THROW(t.reserve(15, 5));
  }
}

TEST(MemoryBus, PostedTrafficOccupiesButNeverWaitsTheRequester) {
  BusConfig cfg;
  cfg.maxOutstanding = 1;
  cfg.latencyCycles = 75;
  cfg.widthBytes = 8;  // occupancy 79
  MemoryBus bus(cfg, 32);
  bus.postedAccess(0);  // write-back holds the only slot until 79
  EXPECT_EQ(bus.stats().transactions, 1u);
  EXPECT_EQ(bus.stats().waitCycles, 0u);  // nobody stalled for it...
  EXPECT_EQ(bus.demandAccess(0), 79 + 79);  // ...but demand queues behind
  EXPECT_EQ(bus.stats().waitCycles, 79u);
}

TEST(HorizonAudit, AcceptsIssueAtOrAfterTheHorizon) {
  EXPECT_NO_THROW(audit::issuedAtOrAfterHorizon(100, 100));
  EXPECT_NO_THROW(audit::issuedAtOrAfterHorizon(101, 100));
  EXPECT_THROW(audit::issuedAtOrAfterHorizon(99, 100), AuditError);
}

TEST(HorizonAudit, BookingBehindTheBusHorizonTripsTheAudit) {
  // Proves the in-situ LAPS_AUDIT call at the bus's booking fires:
  // retire ahead, then issue a request behind the horizon — the one
  // case in which retirement could change a start. Only observable in
  // an audit build; otherwise the request books untouched.
  MemoryBus bus(BusConfig{}, 32);
  bus.retireBefore(1000);
  EXPECT_NO_THROW(bus.demandAccess(1000));
  if (audit::enabled()) {
    EXPECT_THROW(bus.demandAccess(10), AuditError);
    EXPECT_THROW(bus.postedAccess(10), AuditError);
  } else {
    EXPECT_NO_THROW(bus.demandAccess(10));
    EXPECT_NO_THROW(bus.postedAccess(10));
  }
}

TEST(MemoryBus, LazyRetirementKeepsEveryStart) {
  // Retiring at the horizon must not move any start a request at or
  // after it books: the same stream, with and without retirement.
  BusConfig cfg;
  cfg.maxOutstanding = 2;
  MemoryBus retired(cfg, 32);
  MemoryBus kept(cfg, 32);
  std::int64_t horizon = 0;
  for (std::int64_t i = 0; i < 200; ++i) {
    // Out of order within a window of 300 cycles above the horizon.
    const std::int64_t now = horizon + (i * 137) % 300;
    EXPECT_EQ(retired.demandAccess(now), kept.demandAccess(now)) << i;
    if (i % 10 == 9) {
      horizon += 40;
      retired.retireBefore(horizon);
    }
  }
  EXPECT_EQ(retired.stats().waitCycles, kept.stats().waitCycles);
}

}  // namespace
}  // namespace laps
