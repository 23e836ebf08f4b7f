#pragma once
/// \file bus.h
/// \brief Off-chip bus model: bounded outstanding transactions with
/// queueing delay.
///
/// The paper's platform charges a fixed 75-cycle off-chip latency per
/// miss, independent of what the other cores are doing. MemoryBus
/// replaces that constant with a contended resource: at most
/// BusConfig::maxOutstanding transactions are in flight at any cycle,
/// each occupying its slot for the DRAM latency plus the line transfer
/// time, and a request issued while every slot is busy queues until one
/// frees. A miss's latency therefore depends on the other cores' miss
/// traffic — the effect the contention-aware scheduling ablations
/// measure.
///
/// The simulator executes one scheduling segment at a time, so requests
/// arrive with absolute cycle stamps that are monotone within a segment
/// but not across segments (a long segment is simulated to completion
/// before a concurrent one that started later in wall order). Each slot
/// therefore keeps a *calendar* of busy intervals (BusyTimeline) and a
/// request books the earliest gap at or after its issue cycle — a
/// later-simulated request slots into the past gaps a far-ahead segment
/// left open, instead of queueing behind reservations made for its
/// future. Adjacent intervals coalesce, so under saturation a timeline
/// is a handful of blobs.
///
/// The calendar is one flat sorted vector of [start, end) pairs behind
/// a retired-head cursor: the gap search is a binary search over the
/// live span plus a short walk, a booking extends a neighbour in place
/// (or bridges two) and only an isolated booking inserts, and
/// retirement advances the cursor, compacting once the dead prefix
/// passes half the vector. Owners (MemoryBus, SharedL2) retire lazily:
/// their retireBefore() only records a *horizon*, which each applies to
/// the one calendar it is about to book. That is exact because no
/// request is issued before the horizon (audited by
/// audit::issuedAtOrAfterHorizon), so an interval ending at or before
/// it can never delay one. NoC links book one-cycle transfers, which
/// coalesce poorly, and use the occupancy-bitmap LinkCalendar of
/// cache/noc.h instead (docs/ARCHITECTURE.md §7).

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace laps {

/// Off-chip bus configuration. Disabled (see MpsocConfig) the platform
/// keeps the paper's fixed memory latency.
struct BusConfig {
  std::int64_t maxOutstanding = 2;  ///< transactions in flight at once
  std::int64_t widthBytes = 8;      ///< data width (transfer = line/width)
  std::int64_t latencyCycles = 75;  ///< DRAM access latency per transaction

  /// Slot occupancy of one transaction moving \p lineBytes.
  [[nodiscard]] std::int64_t occupancyCycles(std::int64_t lineBytes) const;

  /// Throws laps::Error when a field is non-positive.
  void validate() const;
};

/// Counters accumulated by the bus.
struct BusStats {
  std::uint64_t transactions = 0;  ///< demand fills + posted write-backs
  std::uint64_t waitCycles = 0;    ///< summed queueing delay (demand only)
};

/// One busy interval [first, second) of a calendar.
using BusyInterval = std::pair<std::int64_t, std::int64_t>;

namespace audit {
/// Audit checker (docs/ARCHITECTURE.md §11): a busy calendar must hold
/// strictly ordered, non-overlapping, coalesced intervals with positive
/// extent — overlap would mean two transactions occupy one resource
/// slot at once and every latency derived from the calendar is wrong.
/// Throws laps::AuditError on violation. Under LAPSCHED_AUDIT,
/// BusyTimeline runs it after every booking on the booked interval and
/// its two neighbours, and the owners (MemoryBus, SharedL2) on every
/// live interval of their calendars at each retireBefore, once per
/// segment start; tests call it directly with violating interval sets
/// to prove it fires.
void timelineDisjoint(std::span<const BusyInterval> busy);

/// Audit checker (docs/ARCHITECTURE.md §11): a calendar booking
/// requested at \p issue must not precede its owner's retire
/// \p horizon. It is the one premise that makes retirement — eager or
/// lazy — exact: an interval ending at or before the horizon can only
/// delay a request issued before it. Owners run it at every booking
/// under LAPSCHED_AUDIT.
void issuedAtOrAfterHorizon(std::int64_t issue, std::int64_t horizon);
}  // namespace audit

/// Calendar of busy intervals of one resource (a bus slot or an L2
/// bank). Intervals are disjoint and coalesced; reserve() books
/// the earliest gap at or after the request cycle.
class BusyTimeline {
 public:
  /// Books \p duration cycles at the earliest feasible start >= \p now;
  /// returns the booked start cycle (== now when the resource is free).
  std::int64_t reserve(std::int64_t now, std::int64_t duration);

  /// Earliest feasible start >= \p now for \p duration cycles, without
  /// booking.
  [[nodiscard]] std::int64_t earliestStart(std::int64_t now,
                                           std::int64_t duration) const;

  /// Books \p duration cycles at \p start, which the caller obtained
  /// from earliestStart() with no intervening booking (lets a
  /// multi-slot owner compare candidate starts before committing to
  /// one). Throws laps::Error when [start, start + duration) is busy.
  void bookAt(std::int64_t start, std::int64_t duration);

  /// Drops intervals ending at or before \p cycle. Safe once no future
  /// request can be issued before \p cycle. O(1) when nothing retires.
  void retireBefore(std::int64_t cycle) {
    if (head_ < busy_.size() && busy_[head_].second <= cycle) {
      retireLive(cycle);
    }
  }

  /// Booked intervals currently retained, in start order. The view is
  /// valid until the next booking or retirement.
  [[nodiscard]] std::span<const BusyInterval> intervals() const {
    return std::span<const BusyInterval>(busy_).subspan(head_);
  }

  /// Number of intervals currently retained (tests and diagnostics).
  [[nodiscard]] std::size_t intervalCount() const {
    return busy_.size() - head_;
  }

  /// Audit test hook: inserts a raw interval at its sorted position,
  /// bypassing the coalescing and gap-search invariant maintenance, so
  /// a subsequent audited booking can prove the timelineDisjoint check
  /// fires. Never called by model code.
  void auditInjectIntervalForTest(std::int64_t start, std::int64_t end);

 private:
  /// Where a gap walk landed: the earliest feasible start and the index
  /// of the first live interval after it.
  struct Gap {
    std::int64_t start = 0;
    std::size_t next = 0;
  };

  /// The one gap walk: binary search for the first live interval
  /// starting after \p now, then step past every interval that leaves
  /// too little room before it.
  [[nodiscard]] Gap findGap(std::int64_t now, std::int64_t duration) const;

  /// Books [lo, hi) into the gap before index \p next, coalescing with
  /// abutting neighbours.
  void place(std::size_t next, std::int64_t lo, std::int64_t hi);

  /// retireBefore()'s slow path: advances the head past every interval
  /// ending at or before \p cycle and compacts past half.
  void retireLive(std::int64_t cycle);

  std::vector<BusyInterval> busy_;  ///< sorted, disjoint from head_ on
  std::size_t head_ = 0;            ///< first live (unretired) interval
};

/// The bounded off-chip bus: maxOutstanding parallel slots, each a
/// BusyTimeline.
class MemoryBus {
 public:
  explicit MemoryBus(const BusConfig& config, std::int64_t lineBytes);

  /// One demand transaction (miss fill) issued at \p now. Books the
  /// best slot and returns the total latency: queueing wait + DRAM
  /// latency + line transfer.
  std::int64_t demandAccess(std::int64_t now);

  /// One posted transaction (write-back) issued at \p now: occupies a
  /// slot — delaying later demand traffic — but the requester does not
  /// stall, so no latency is returned or accounted as wait.
  void postedAccess(std::int64_t now);

  /// Raises the retire horizon: no later request is issued before
  /// \p cycle. Each slot calendar is pruned to it lazily, when booked.
  void retireBefore(std::int64_t cycle);

  [[nodiscard]] const BusStats& stats() const { return stats_; }
  void resetStats() { stats_ = BusStats{}; }

  [[nodiscard]] const BusConfig& config() const { return config_; }

 private:
  /// Books the slot with the earliest feasible start; returns that start.
  std::int64_t reserveBestSlot(std::int64_t now);

  BusConfig config_;
  std::int64_t occupancyCycles_;
  std::vector<BusyTimeline> slots_;
  std::int64_t horizon_ = std::numeric_limits<std::int64_t>::min();
  BusStats stats_;
};

}  // namespace laps
