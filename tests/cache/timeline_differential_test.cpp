/// \file timeline_differential_test.cpp
/// \brief BusyTimelineDifferential: the flat calendar (src/cache/bus.h)
/// against the map-based reference (reference_timeline.h) on seeded
/// random operation streams — out-of-order reserve, earliestStart +
/// bookAt, eager retirement and the owners' lazy horizon-then-book —
/// asserting identical starts and identical live intervals after every
/// step. A third, never-retired reference proves the retire premise:
/// with every request at or after the horizon, retirement changes no
/// start.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/bus.h"
#include "reference_timeline.h"
#include "util/error.h"
#include "util/rng.h"

namespace laps {
namespace {

/// How often each calendar path was exercised by one stream.
struct Coverage {
  int outOfOrder = 0;  ///< requests issued before an earlier one
  int isolated = 0;    ///< bookings that insert a new interval
  int prevOnly = 0;    ///< bookings extending their predecessor
  int nextOnly = 0;    ///< bookings extending their successor
  int bridges = 0;     ///< bookings merging predecessor and successor
  int halfRetires = 0;  ///< retirements dropping over half the live span
};

void expectSameIntervals(const BusyTimeline& flat,
                         const reference::BusyTimeline& oracle, int step) {
  const auto expected = oracle.intervals();
  const auto live = flat.intervals();
  ASSERT_EQ(std::vector<BusyInterval>(live.begin(), live.end()), expected)
      << "step " << step;
  ASSERT_EQ(flat.intervalCount(), expected.size()) << "step " << step;
}

/// Classifies the booking [start, start + duration) against the
/// calendar it is about to enter.
void tallyCoalesce(const reference::BusyTimeline& oracle, std::int64_t start,
                   std::int64_t duration, Coverage& cov) {
  bool prev = false;
  bool next = false;
  for (const auto& [lo, hi] : oracle.intervals()) {
    prev = prev || hi == start;
    next = next || lo == start + duration;
  }
  if (prev && next) {
    ++cov.bridges;
  } else if (prev) {
    ++cov.prevOnly;
  } else if (next) {
    ++cov.nextOnly;
  } else {
    ++cov.isolated;
  }
}

Coverage runStream(std::uint64_t seed, int steps) {
  Rng rng(seed);
  BusyTimeline flat;
  reference::BusyTimeline oracle;
  reference::BusyTimeline unretired;
  Coverage cov;
  std::int64_t horizon = 0;  // no request is issued before it
  std::int64_t latest = 0;   // latest issue cycle so far
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op == 0) {
      // Advance the horizon without touching any calendar — what an
      // owner's retireBefore does; a later lazy booking applies it.
      horizon += rng.range(0, 80);
      continue;
    }
    if (op == 1) {
      // Eager retirement, occasionally past most of the live span.
      if (rng.below(8) == 0) horizon += rng.range(200, 2000);
      const std::size_t before = oracle.intervals().size();
      flat.retireBefore(horizon);
      oracle.retireBefore(horizon);
      const std::size_t dropped = before - oracle.intervals().size();
      if (dropped * 2 > before) ++cov.halfRetires;
      expectSameIntervals(flat, oracle, step);
      if (::testing::Test::HasFatalFailure()) return cov;
      continue;
    }
    // A booking, issued out of order within a window above the horizon.
    // Aligned cycles and durations make exact fits (and hence every
    // coalescing case) common; the odd ones keep the gaps irregular.
    const bool aligned = rng.below(4) != 0;
    const std::int64_t now =
        horizon + (aligned ? 4 * rng.range(0, 600) : rng.range(0, 2400));
    const std::int64_t duration =
        aligned ? 4 * rng.range(1, 3) : rng.range(1, 13);
    if (now < latest) ++cov.outOfOrder;
    if (now > latest) latest = now;
    if (rng.below(2) == 0) {
      // Lazy horizon-then-book, as MemoryBus and SharedL2 do.
      flat.retireBefore(horizon);
      oracle.retireBefore(horizon);
    }
    const std::int64_t expected = oracle.earliestStart(now, duration);
    tallyCoalesce(oracle, expected, duration, cov);
    if (op < 6) {
      EXPECT_EQ(flat.reserve(now, duration), expected) << "step " << step;
      oracle.reserve(now, duration);
    } else {
      const std::int64_t start = flat.earliestStart(now, duration);
      EXPECT_EQ(start, expected) << "step " << step;
      flat.bookAt(start, duration);
      oracle.bookAt(expected, duration);
    }
    EXPECT_EQ(unretired.reserve(now, duration), expected) << "step " << step;
    expectSameIntervals(flat, oracle, step);
    if (::testing::Test::HasFatalFailure()) return cov;
  }
  return cov;
}

TEST(BusyTimelineDifferential, FlatCalendarMatchesTheMapReference) {
  for (const std::uint64_t seed : {1u, 2u, 7u, 42u, 1234u, 99991u}) {
    SCOPED_TRACE(seed);
    const Coverage cov = runStream(seed, 6000);
    ASSERT_FALSE(::testing::Test::HasFailure());
    // Every calendar path the model relies on was exercised.
    EXPECT_GT(cov.outOfOrder, 100);
    EXPECT_GT(cov.isolated, 100);
    EXPECT_GT(cov.prevOnly, 100);
    EXPECT_GT(cov.nextOnly, 20);
    EXPECT_GT(cov.bridges, 20);
    EXPECT_GT(cov.halfRetires, 5);
  }
}

TEST(BusyTimelineDifferential, RetiringEverythingThenRebookingMatches) {
  // Compaction down to an empty vector, then growth from scratch.
  BusyTimeline flat;
  reference::BusyTimeline oracle;
  for (std::int64_t round = 0; round < 4; ++round) {
    const std::int64_t base = round * 1000;
    for (std::int64_t i = 0; i < 50; ++i) {
      const std::int64_t now = base + (i * 37) % 400;
      EXPECT_EQ(flat.reserve(now, 3), oracle.reserve(now, 3));
    }
    expectSameIntervals(flat, oracle, static_cast<int>(round));
    flat.retireBefore(base + 1000);
    oracle.retireBefore(base + 1000);
    EXPECT_EQ(flat.intervalCount(), 0u);
    expectSameIntervals(flat, oracle, static_cast<int>(round));
  }
}

TEST(BusyTimelineDifferential, BookAtRejectsABusyStart) {
  BusyTimeline t;
  t.reserve(0, 10);
  EXPECT_THROW(t.bookAt(5, 10), Error);
  EXPECT_THROW(t.bookAt(-5, 10), Error);
  EXPECT_NO_THROW(t.bookAt(10, 5));  // abuts: coalesces into [0, 15)
  EXPECT_EQ(t.intervalCount(), 1u);
}

}  // namespace
}  // namespace laps
