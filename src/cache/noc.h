#pragma once
/// \file noc.h
/// \brief On-chip interconnect model: mesh / crossbar topology with
/// integer per-hop latency and per-link contention calendars.
///
/// The paper's platform (and this library's Bus extension) treats every
/// core as equidistant from the shared levels: a miss costs the same
/// from any tile. Real MPSoCs route traffic over a network-on-chip —
/// per-hop latency, per-link bandwidth, and congestion that depends on
/// which tiles are talking. This file models that in the spirit of
/// McSimA+'s crossbar/directory timing cores, split in two:
///
///  * NocTopology — the pure geometry oracle: hop distances (Manhattan
///    on a mesh, 0/1 on a crossbar) and the center-out spiral tile
///    order the region-growing initial mapping walks. Stateless and
///    integer-only, so the schedulers can consult it at decision time
///    without touching simulation state;
///  * NocFabric — the timed network: one LinkCalendar per directed
///    link, XY dimension-order routing on the mesh, one output port per
///    destination on the crossbar. A demand transfer books every link
///    on its route and returns hop latency plus queueing wait; a posted
///    transfer (write-back, invalidation) occupies links without
///    stalling its requester — exactly the bus's demand/posted split.
///
/// A link calendar answers the same question as the bus's BusyTimeline
/// (the earliest free gap at or after a request) with the same answers,
/// but is shaped for link traffic: bookings are ceil(line / link width)
/// cycles — one cycle on the committed meshes — almost always free at
/// their issue cycle, and within a few thousand cycles of the retire
/// horizon. It is a direct-mapped ring of tagged 64-cycle occupancy
/// words, so such a booking costs one load, one tag compare and one bit
/// test, and retirement costs nothing: a slot tagged below the
/// horizon's word is dead and reads as free. Of two live words sharing
/// a slot, the smaller goes to a small sorted overflow vector
/// (docs/ARCHITECTURE.md §7, §14).
///
/// Disabled-equivalence: with hopCycles == 0 and linkWidthBytes == 0
/// (the defaults) every transfer is free and bookless, so a platform
/// with a zero-cost NoC is bit-identical to the flat one — the
/// differential tests in tests/cache/noc_test.cpp pin it, like PR 3's
/// hierarchy differentials.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace laps {

/// Interconnect geometry kinds a NocTopology can take. The platform
/// descriptor (cache/platform.h) selects one via InterconnectKind.
enum class NocTopologyKind {
  Mesh,  ///< 2D mesh, XY routing, Manhattan hop distance
  Xbar,  ///< single-stage crossbar: every pair one hop apart
};

/// On-chip network configuration. All-zero timing (the default) makes
/// every transfer free: the NoC adds no latency and books no link, so
/// results are bit-identical to the flat platform.
struct NocConfig {
  /// Mesh columns; 0 derives the squarest grid holding every node
  /// (integer ceil-sqrt). Ignored by the crossbar.
  std::int64_t meshCols = 0;
  /// Latency of one link traversal. 0 = free routing.
  std::int64_t hopCycles = 0;
  /// Link data width; a transfer occupies each route link for
  /// ceil(lineBytes / linkWidthBytes) cycles. 0 = infinite bandwidth
  /// (no calendars, no queueing).
  std::int64_t linkWidthBytes = 0;
  /// Resume penalty per hop between the tile a process last ran on and
  /// the tile resuming it (its warm state moves across the die),
  /// charged by the engine outside the quantum like switch overhead.
  /// 0 = migrations stay free, the pre-NoC behavior.
  std::int64_t migrationHopCycles = 0;

  /// Throws laps::Error on negative fields or a column count that
  /// cannot tile \p nodeCount nodes.
  void validate(std::int64_t nodeCount) const;
};

/// Pure geometry oracle of one interconnect instance (see file
/// comment). Copyable and cheap; safe to hand to schedulers.
class NocTopology {
 public:
  NocTopology(NocTopologyKind kind, std::int64_t nodeCount,
              std::int64_t meshCols = 0);

  [[nodiscard]] NocTopologyKind kind() const { return kind_; }
  [[nodiscard]] std::int64_t nodeCount() const { return nodeCount_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }
  [[nodiscard]] std::int64_t rows() const { return rows_; }

  /// Hop distance between nodes \p a and \p b: Manhattan on the mesh,
  /// 0/1 on the crossbar. Symmetric; obeys the triangle inequality
  /// (property-tested in tests/cache/noc_test.cpp).
  [[nodiscard]] std::int64_t hops(std::int64_t a, std::int64_t b) const;

  /// Network diameter: the maximum hops() over any node pair.
  [[nodiscard]] std::int64_t maxHops() const;

  /// Total hop distance from \p node to every node — the centrality
  /// measure the region-growing mapping prefers small values of.
  [[nodiscard]] std::int64_t eccentricity(std::int64_t node) const;

  /// Center-out spiral visiting order of every node (a permutation of
  /// [0, nodeCount)): the walk the region-growing initial mapping of
  /// buildLocalityPlan takes, so early (hot) placements land on central
  /// tiles with small average distance to everything. The crossbar is
  /// distance-degenerate: id order.
  [[nodiscard]] std::vector<std::int64_t> spiralOrder() const;

 private:
  NocTopologyKind kind_;
  std::int64_t nodeCount_;
  std::int64_t cols_ = 1;
  std::int64_t rows_ = 1;
};

/// One 64-cycle word of a link calendar: bit i of \p bits set means
/// cycle word * 64 + i is busy. A never-used ring slot carries the
/// lowest word, which every horizon treats as dead.
struct LinkWord {
  std::int64_t word = std::numeric_limits<std::int64_t>::min();
  std::uint64_t bits = 0;
};

class LinkCalendar;

namespace audit {
/// Audit checker (docs/ARCHITECTURE.md §11): the overflow of \p link is
/// strictly ascending, and each of its words collides with a live ring
/// slot (tagged at or after \p horizon's word) holding a larger word —
/// so no word lives in both places, and a lookup that finds its slot
/// tagged at or below the word it wants may skip the overflow. Checks
/// the overflow words in [\p fromWord, \p toWord] and one neighbour on
/// each side (default: the whole overflow). Throws laps::AuditError on
/// violation. Under LAPSCHED_AUDIT, LinkCalendar::reserve runs it on
/// every word a booking writes, and NocFabric::retireBefore on every
/// link's whole overflow once per segment start.
void linkCalendarConsistent(
    const LinkCalendar& link, std::int64_t horizon,
    std::int64_t fromWord = std::numeric_limits<std::int64_t>::min(),
    std::int64_t toWord = std::numeric_limits<std::int64_t>::max());
}  // namespace audit

/// Busy calendar of one directed NoC link (see file comment): every
/// start reserve() returns equals BusyTimeline::reserve's on the same
/// request stream. Memory is the fixed ring, allocated on the first
/// booking, plus the live colliding words.
class LinkCalendar {
 public:
  /// Ring slots: 128 words span 8,192 cycles ahead of the horizon.
  static constexpr std::size_t kSlots = 128;

  /// Books \p duration cycles at the earliest free start >= \p now and
  /// returns it. \p horizon is the owner's retire horizon: no request
  /// is issued before it, so every word below its word is dead.
  std::int64_t reserve(std::int64_t now, std::int64_t duration,
                       std::int64_t horizon);

  /// The ring (empty before the first booking), indexed by word mod
  /// kSlots; slots may hold dead words.
  [[nodiscard]] std::span<const LinkWord> ring() const { return ring_; }

  /// Words whose ring slot holds a live, larger word, ascending.
  [[nodiscard]] std::span<const LinkWord> overflow() const {
    return overflow_;
  }

  /// Audit test hook: appends a raw overflow word, bypassing ordering
  /// and collision upkeep, so a subsequent audited booking can prove
  /// the linkCalendarConsistent check fires. Never called by model code.
  void auditInjectOverflowWordForTest(LinkWord word);

 private:
  /// Occupancy bits of \p word (0 when it is booked nowhere).
  [[nodiscard]] std::uint64_t bitsOf(std::int64_t word) const;
  /// The word walk: earliest start >= \p now with \p duration free
  /// cycles.
  [[nodiscard]] std::int64_t findStart(std::int64_t now,
                                       std::int64_t duration) const;
  /// ORs \p bits into \p word, claiming or sharing its slot. Returns
  /// the live occupant it moved to the overflow, else \p word.
  std::int64_t setBits(std::int64_t word, std::uint64_t bits,
                       std::int64_t horizonWord);
  /// Inserts (or merges) \p entry at its sorted overflow position.
  void addOverflow(LinkWord entry);

  std::vector<LinkWord> ring_;
  std::vector<LinkWord> overflow_;
};

/// Counters accumulated by the fabric.
struct NocStats {
  std::uint64_t transfers = 0;        ///< demand transfers routed
  std::uint64_t postedTransfers = 0;  ///< posted transfers routed
  std::uint64_t hopCycles = 0;        ///< summed per-hop latency (demand)
  std::uint64_t linkWaitCycles = 0;   ///< summed link queueing (demand)
};

/// The timed network: per-directed-link LinkCalendars over a
/// NocTopology (see file comment).
class NocFabric {
 public:
  /// \p lineBytes sizes one transfer (a cache line or its request).
  NocFabric(const NocConfig& config, std::int64_t nodeCount,
            std::int64_t lineBytes, NocTopologyKind kind);

  /// Routes one demand transfer \p src -> \p dst issued at \p now:
  /// books every link on the route and returns the total latency
  /// (hops * hopCycles + queueing wait). 0 when src == dst.
  std::int64_t demandTransfer(std::int64_t src, std::int64_t dst,
                              std::int64_t now);

  /// Routes one posted transfer (write-back, targeted invalidation):
  /// occupies the route's links — delaying later demand traffic — but
  /// the requester does not stall, so no latency is returned.
  void postedTransfer(std::int64_t src, std::int64_t dst, std::int64_t now);

  /// Raises the retire horizon: no later transfer is issued before
  /// \p cycle. Calendar words before it read as dead from then on.
  void retireBefore(std::int64_t cycle);

  [[nodiscard]] const NocStats& stats() const { return stats_; }
  void resetStats() { stats_ = NocStats{}; }

  [[nodiscard]] const NocTopology& topology() const { return topology_; }
  [[nodiscard]] const NocConfig& config() const { return config_; }

 private:
  /// Shared routing core of both transfer kinds; returns the latency.
  std::int64_t route(std::int64_t src, std::int64_t dst, std::int64_t now,
                     bool demand);
  /// Books one link hop at \p t; returns the cycle the head moves on.
  std::int64_t traverseLink(std::size_t linkId, std::int64_t t,
                            std::int64_t* wait);

  NocConfig config_;
  NocTopology topology_;
  std::int64_t occupancyCycles_ = 0;  ///< per-link cycles of one transfer
  /// Mesh: 4 directed links per node (E, W, S, N); crossbar: one output
  /// port per destination node. Unused edge links allocate no ring.
  std::vector<LinkCalendar> links_;
  std::int64_t horizon_ = std::numeric_limits<std::int64_t>::min();
  NocStats stats_;
};

}  // namespace laps
