/// \file link_calendar_test.cpp
/// \brief LinkCalendar (src/cache/noc.h), the tagged-word ring that
/// books NoC links: LinkCalendarDifferential replays seeded streams
/// through it and through the map-based reference calendar
/// (reference_timeline.h), asserting identical starts at every step and
/// running the consistency audit after each booking; LinkCalendarAudit
/// proves that audit fires on each corruption it names.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "cache/noc.h"
#include "reference_timeline.h"
#include "util/audit.h"
#include "util/rng.h"

namespace laps {
namespace {

constexpr std::int64_t kWordCycles = 64;
constexpr std::int64_t kRingCycles =
    kWordCycles * static_cast<std::int64_t>(LinkCalendar::kSlots);

std::int64_t wordOf(std::int64_t cycle) { return cycle >> 6; }

/// How often each calendar path was exercised by one stream. A booking
/// counts once per word it touches, classified against the calendar
/// just before it books.
struct Coverage {
  int ringHits = 0;        ///< the word already owns its slot
  int deadClaims = 0;      ///< the word takes over a slot a dead word held
  int overflowInserts = 0;  ///< the word, or a live occupant it displaces,
                            ///< enters the overflow
  int overflowHits = 0;    ///< the word is already in the overflow
  int multiWord = 0;       ///< bookings spanning a word boundary
  int waits = 0;           ///< bookings starting after their issue cycle
};

void tallyWord(const LinkCalendar& link, std::int64_t word,
               std::int64_t horizonWord, Coverage& cov) {
  if (link.ring().empty()) return;  // first booking: a fresh ring
  const LinkWord& slot =
      link.ring()[static_cast<std::size_t>(word) % LinkCalendar::kSlots];
  const auto overflow = link.overflow();
  const bool inOverflow =
      std::any_of(overflow.begin(), overflow.end(),
                  [&](const LinkWord& w) { return w.word == word; });
  if (slot.word == word) {
    ++cov.ringHits;
  } else if (inOverflow) {
    ++cov.overflowHits;
  } else if (slot.word > word || slot.word >= horizonWord) {
    ++cov.overflowInserts;  // w below a live occupant, or displacing it
  } else if (slot.word != std::numeric_limits<std::int64_t>::min()) {
    ++cov.deadClaims;
  }
}

void tallyBooking(const LinkCalendar& link, std::int64_t now,
                  std::int64_t start, std::int64_t duration,
                  std::int64_t horizon, Coverage& cov) {
  const std::int64_t first = wordOf(start);
  const std::int64_t last = wordOf(start + duration - 1);
  for (std::int64_t w = first; w <= last; ++w) {
    tallyWord(link, w, wordOf(horizon), cov);
  }
  if (last > first) ++cov.multiWord;
  if (start > now) ++cov.waits;
}

Coverage runStream(std::uint64_t seed, int steps) {
  Rng rng(seed);
  LinkCalendar link;
  reference::BusyTimeline oracle;
  Coverage cov;
  std::int64_t horizon = 0;  // no request is issued before it
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = rng.below(16);
    if (op == 0) {
      horizon += rng.range(0, 120);
      oracle.retireBefore(horizon);
      continue;
    }
    if (op == 1 && rng.below(16) == 0) {
      // A jump past most of the ring: its slots die, and the words
      // booked next reuse them.
      horizon += rng.range(kRingCycles / 2, 2 * kRingCycles);
      oracle.retireBefore(horizon);
      continue;
    }
    // Out-of-order requests in a window above the horizon; now and then
    // one past the ring span, which collides with a live word. Mostly
    // one-cycle bookings (a 32 B line on a 32 B link), some short ones
    // and some longer than a word.
    const std::int64_t now =
        horizon + (rng.below(24) == 0 ? rng.range(kRingCycles, 3 * kRingCycles)
                                      : rng.range(0, 2400));
    const std::uint64_t kind = rng.below(10);
    const std::int64_t duration = kind < 6   ? 1
                                  : kind < 9 ? rng.range(2, 13)
                                             : rng.range(60, 150);
    const std::int64_t expected = oracle.reserve(now, duration);
    tallyBooking(link, now, expected, duration, horizon, cov);
    EXPECT_EQ(link.reserve(now, duration, horizon), expected)
        << "step " << step;
    audit::linkCalendarConsistent(link, horizon);
    if (::testing::Test::HasFailure()) return cov;
  }
  return cov;
}

TEST(LinkCalendarDifferential, MatchesTheMapReference) {
  for (const std::uint64_t seed : {1u, 2u, 7u, 42u, 1234u, 99991u}) {
    SCOPED_TRACE(seed);
    const Coverage cov = runStream(seed, 8000);
    ASSERT_FALSE(::testing::Test::HasFailure());
    // Every calendar path was exercised (each minimum is about half the
    // smallest count over these seeds).
    EXPECT_GT(cov.ringHits, 2500);
    EXPECT_GT(cov.deadClaims, 800);
    EXPECT_GT(cov.overflowInserts, 120);
    EXPECT_GT(cov.overflowHits, 300);
    EXPECT_GT(cov.multiWord, 450);
    EXPECT_GT(cov.waits, 2000);
  }
}

TEST(LinkCalendarDifferential, OverflowDrainsOnceTheHorizonPassesIt) {
  // Words one ring span apart share a slot: the larger keeps it and the
  // others queue in the overflow until the horizon passes them.
  LinkCalendar link;
  for (std::int64_t k = 3; k >= 0; --k) {
    EXPECT_EQ(link.reserve(k * kRingCycles, 1, 0), k * kRingCycles);
  }
  EXPECT_EQ(link.overflow().size(), 3u);
  EXPECT_EQ(link.ring()[0].word, wordOf(3 * kRingCycles));
  EXPECT_EQ(link.reserve(kRingCycles, 1, 0), kRingCycles + 1);  // busy
  EXPECT_EQ(link.reserve(3 * kRingCycles, 2, 3 * kRingCycles),
            3 * kRingCycles + 1);
  EXPECT_TRUE(link.overflow().empty());
}

TEST(LinkCalendarDifferential, LongBookingsSpanWords) {
  LinkCalendar link;
  reference::BusyTimeline oracle;
  for (const auto& [now, duration] :
       {std::pair<std::int64_t, std::int64_t>{60, 70}, {0, 61}, {0, 200},
        {125, 3}, {130, 1}, {0, 1}}) {
    EXPECT_EQ(link.reserve(now, duration, 0), oracle.reserve(now, duration))
        << now << "+" << duration;
  }
}

// --- audit layer (docs/ARCHITECTURE.md §11) ------------------------------

/// A calendar whose slot 0 holds word 256 with words 0 and 128 in the
/// overflow, all live at horizon 0.
LinkCalendar collidingCalendar() {
  LinkCalendar link;
  link.reserve(0, 1, 0);
  link.reserve(kRingCycles, 1, 0);
  link.reserve(2 * kRingCycles, 1, 0);
  return link;
}

TEST(LinkCalendarAudit, AcceptsAConsistentCalendar) {
  EXPECT_NO_THROW(audit::linkCalendarConsistent(LinkCalendar{}, 0));
  const LinkCalendar link = collidingCalendar();
  ASSERT_EQ(link.overflow().size(), 2u);
  EXPECT_NO_THROW(audit::linkCalendarConsistent(link, 0));
}

TEST(LinkCalendarAudit, RejectsAnUnsortedOverflow) {
  LinkCalendar link = collidingCalendar();
  // Collides with slot 0's live word 256 like the others, but sorts
  // before them.
  link.auditInjectOverflowWordForTest({wordOf(-kRingCycles), 1});
  EXPECT_THROW(audit::linkCalendarConsistent(link, 0), AuditError);
}

TEST(LinkCalendarAudit, RejectsAWordInBothRingAndOverflow) {
  LinkCalendar link = collidingCalendar();
  link.auditInjectOverflowWordForTest({wordOf(2 * kRingCycles), 2});
  EXPECT_THROW(audit::linkCalendarConsistent(link, 0), AuditError);
}

TEST(LinkCalendarAudit, RejectsAnOverflowWordWithoutALiveLargerSlot) {
  LinkCalendar link;
  link.reserve(0, 1, 0);  // slot 0 holds word 0; slot 1 is unused
  link.auditInjectOverflowWordForTest({1, 1});
  EXPECT_THROW(audit::linkCalendarConsistent(link, 0), AuditError);
  // Once the horizon passes slot 0's word, its overflow words are
  // orphans too.
  LinkCalendar dead = collidingCalendar();
  EXPECT_THROW(audit::linkCalendarConsistent(dead, 2 * kRingCycles + 64),
               AuditError);
}

TEST(LinkCalendarAudit, InjectedCorruptionTripsTheAuditedBooking) {
  // Proves the in-situ LAPS_AUDIT call after a booking fires: corrupt
  // the overflow behind the upkeep, then book into the corrupted word
  // (a booking audits the words it writes and their overflow
  // neighbours). Only observable in an audit build; otherwise the
  // booking must succeed untouched.
  LinkCalendar link = collidingCalendar();
  link.auditInjectOverflowWordForTest({wordOf(2 * kRingCycles), 2});
  if (audit::enabled()) {
    EXPECT_THROW(link.reserve(2 * kRingCycles + 5, 1, 0), AuditError);
  } else {
    EXPECT_NO_THROW(link.reserve(2 * kRingCycles + 5, 1, 0));
  }
}

}  // namespace
}  // namespace laps
