#pragma once
/// \file plan_index.h
/// \brief Indexed planner core: the data structure behind the Fig. 3
/// greedy argmax, shared by buildLocalityPlan, the OLS replanner and
/// LS's online max-sharing dispatch rule.
///
/// Fig. 3 as written answers "which schedulable process shares the
/// most with this core's previous pick?" by scanning all |T| candidates
/// and walking each one's predecessor list. PlanIndex answers the same
/// question from two cached structures:
///
///  * cached indegrees (planner mode) — the count of unplaced in-subset
///    predecessors per candidate. Placing a process decrements its
///    successors' counters; a counter hitting zero marks the successor
///    ready. No predecessor walk ever runs per candidate;
///  * a compact ready set — a dense array of ready ids plus a position
///    map, so markReady and markUnready are O(1) (append, swap-remove).
///
/// A pick is one linear argmax over the ready set through keyFor: the
/// raw sharing(anchor, q), or on NoC platforms (enableDistance) the
/// hop-weighted LocalityScore::key over it and q's home core. The order
///   (key > best) || (key == best && id < bestId)
/// is independent of the array order, and equals Fig. 3's ascending
/// scan with strict `>` (smallest id among the maximal keys). Keys are
/// class cells read at pick time — the anchor's row of the live class
/// table (SharingMatrix::slotRow) at each candidate's slot, a ready
/// anchor's own key its diagonal — so arrivals, exits and home changes
/// need no invalidation. Cost: O(ready) per decision
/// (docs/ARCHITECTURE.md §12).
///
/// Planner mode buckets the ready set by class-table slot
/// (SharingMatrix::slotOf): same-class ready processes have the same
/// key against any anchor outside the class and against an anchor in
/// it (the anchor is placed, never ready), and every inactive process
/// sits in the zero slot. Each bucket keeps its ready members as an
/// ascending run in its range of one shared array — a push inserts at
/// its sorted position (an ascending push appends), a pop advances the
/// run's start — so the argmax runs over the non-empty buckets'
/// smallest members, O(classes) per placement, and reads each key as
/// the anchor's class-table row at the bucket's slot (in the anchor's
/// own class, the intra value). Most placements skip that scan: a
/// bucket whose intra value is strictly larger than its row's cell at
/// every other bucket of the plan is dominant, and when the anchor's
/// own bucket is live and dominant its smallest member wins outright —
/// a strictly larger key beats every other candidate whatever the
/// tie-break, and the flag, computed once per bucket per plan at its
/// first anchored pick, covers a superset of the live buckets.
/// candidatesRead() counts the argmax work: a scan adds its length, an
/// own-class pick 1.
///
/// Planner state is sized by the universe but reset by the entries the
/// previous plan touched (its pending ids and its ready set), so an
/// index reused across plans (buildLocalityPlan's planner overload, the
/// OLS rebuild) costs O(pending) per plan, not O(n).
/// Differential tests
/// (tests/sched/plan_index_test.cpp) pin the equality on random DAGs;
/// under -DLAPSCHED_AUDIT=ON popBest samples a consistency check of the
/// ready set (PlanIndex::auditReadySet).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "region/sharing.h"
#include "sched/locality_score.h"
#include "taskgraph/graph.h"

namespace laps {

/// The planner's sharing classes over an ascending id list: two ids
/// share a group iff they share a class-table slot
/// (SharingMatrix::slotOf) — both active in one class, or both
/// inactive. The inactive group is exact: its members' cells, intra
/// value and rowSum are all zero, and its front is its smallest id.
/// Groups are numbered in order of their smallest member; O(|ids|)
/// plain loads plus the slot → group table.
struct ClassGroups {
  std::size_t count = 0;               ///< number of groups
  std::vector<std::uint32_t> groupOf;  ///< group of each id, parallel to it
  std::vector<std::uint32_t> start;    ///< CSR offsets, count + 1
  std::vector<ProcessId> members;      ///< ascending within a group
  /// Group of each class-table slot (classCount() + 1 entries),
  /// 0xffffffff where no id sits.
  std::vector<std::uint32_t> groupOfSlot;
};

/// Groups \p ids (ascending) by planner class; see ClassGroups.
[[nodiscard]] ClassGroups groupByClass(const SharingMatrix& sharing,
                                       std::span<const ProcessId> ids);

/// Ready-set index with a linear argmax (see file comment).
///
/// Two modes:
///  * planner mode (beginPlanner): the index owns DAG readiness —
///    cached indegrees over the pending subset, place() releases
///    successors — and buckets the ready set by sharing class unless
///    every group (groupByClass) is a singleton. Used by
///    buildLocalityPlan;
///  * dispatch mode (beginDispatch): readiness is announced externally
///    (markReady), as the simulation engine drives policies. Used by
///    LocalityScheduler and OnlineLocalityScheduler at pick time.
class PlanIndex {
 public:
  PlanIndex() = default;

  /// Planner mode over \p pending, the unplaced subset members in
  /// ascending id order. A pending process waits only on pending
  /// predecessors — one outside the subset, or already placed, is
  /// satisfied — so the cached indegrees count pending predecessors
  /// only, and every pending process with counter zero is ready
  /// immediately. This is Fig. 3's schedulable() predicate, evaluated
  /// once instead of per candidate per round. O(|pending| + their
  /// predecessor edges) when the index planned over the same universe
  /// before.
  void beginPlanner(const ExtendedProcessGraph& graph,
                    const SharingMatrix& sharing, std::size_t coreCount,
                    std::span<const ProcessId> pending);

  /// Dispatch mode: \p n processes, nothing ready until markReady.
  void beginDispatch(const SharingMatrix& sharing, std::size_t n,
                     std::size_t coreCount);

  /// Announces readiness (dispatch mode, or tests). Idempotent. With
  /// class buckets (planner mode), only pending processes.
  void markReady(ProcessId process);

  /// Withdraws readiness without placing (dispatch take, exit of a
  /// ready process). Idempotent.
  void markUnready(ProcessId process);

  [[nodiscard]] bool isReady(ProcessId process) const;
  [[nodiscard]] std::size_t readyCount() const { return ready_.size(); }

  /// Hop-weighted keys (NoC platforms): every key becomes
  /// score->key(sharing(anchor, q), core, home(q)) instead of the raw
  /// sharing term — still one int64, so the strict-> argmax order is
  /// untouched. \p score is non-owning and must stay configured for the
  /// index's lifetime; a null or distance-blind score keeps the raw
  /// sharing keys bit-identically (the pre-NoC arithmetic). Cleared by
  /// beginPlanner/beginDispatch — call after them.
  void enableDistance(const LocalityScore* score);

  /// Declares \p process's cache-warm home core (where it last ran), or
  /// withdraws it with nullopt. The next pick scores the process
  /// against the new home. Distance-blind indexes ignore homes.
  void setHome(ProcessId process, std::optional<std::size_t> home);

  /// \p process's current home core (setHome), nullopt when none.
  [[nodiscard]] std::optional<std::size_t> homeOf(ProcessId process) const;

  /// Extracts the best ready candidate for \p core: maximum
  /// sharing(anchor, q), smallest id on ties; without an anchor, the
  /// smallest ready id (the ascending scan's s = 0 degenerate case).
  /// nullopt when nothing is ready. The winner is marked unready.
  [[nodiscard]] std::optional<ProcessId> popBest(
      std::size_t core, std::optional<ProcessId> anchor);

  /// Argmax candidates read since the last beginPlanner/beginDispatch:
  /// each scan adds the candidates it compares (ready processes, or
  /// live buckets), each own-class pick 1. Deterministic, so a plan's
  /// count can be baselined exactly.
  [[nodiscard]] std::uint64_t candidatesRead() const {
    return candidatesRead_;
  }

  /// Planner mode: records \p process as placed — its pending flag
  /// clears and each pending successor's indegree drops; counters
  /// reaching zero mark the successor ready. The caller pops the
  /// process first (popBest) or calls markUnready itself.
  void place(ProcessId process);

  /// Audit checker (docs/ARCHITECTURE.md §12): the ready set must be
  /// consistent — every listed process's position map entry points
  /// back at its slot, and exactly readyCount() processes are flagged
  /// ready, so every flagged process is listed. With class buckets,
  /// every ready process must sit in exactly its class's bucket (the
  /// one whose slot its current SharingMatrix class gives it, the zero
  /// slot while inactive), each bucket's run must be strictly
  /// ascending, and the buckets must hold readyCount() processes in
  /// all. Throws laps::AuditError on violation. popBest
  /// samples it under LAPS_AUDIT every kAuditSampleEvery pops; tests
  /// break the position map (corruptSlotForTest) or a class
  /// (SharingMatrix::corruptClassForTest) to prove it fires.
  void auditReadySet() const;

  /// Test seam for the audit path: overwrites \p process's position
  /// map entry with \p slot (kNotReady unflags it), bypassing the
  /// ready-set maintenance. beginDispatch clears every entry again.
  void corruptSlotForTest(ProcessId process, std::uint32_t slot);

  /// Pops between sampled audit checks in popBest (1 = every pop).
  static constexpr std::uint64_t kAuditSampleEvery = 16;

  /// Position map entry of a process that is not ready.
  static constexpr std::uint32_t kNotReady = 0xffffffffU;

 private:
  /// Clears the previous state: for a \p planner after a plan over the
  /// same universe, only the entries that plan touched; else all of it.
  void reset(const SharingMatrix& sharing, std::size_t n,
             std::size_t coreCount, bool planner);
  /// The one key function: distance-blind, the raw sharing term
  /// (sharing(anchor, q), or 0 anchorless); distance-aware,
  /// LocalityScore::key over it and \p q's home.
  [[nodiscard]] std::int64_t keyFor(std::size_t core, ProcessId q,
                                    std::int64_t sharingTerm) const;
  /// Buckets the pending processes by class (beginPlanner), unless
  /// every group is a singleton.
  void bucketByClass();
  /// Class buckets: add a ready process, remove one.
  void pushBucket(ProcessId process);
  void eraseBucket(ProcessId process);
  /// True when bucket \p b's intra value is strictly larger than its
  /// slot row's cell at every other bucket's slot (computed once).
  bool dominant(std::uint32_t b);
  /// popBest over the class buckets (planner mode, raw sharing keys, a
  /// placed anchor). Out of line: inlined, it slowed the plain scan.
  ProcessId popBucketed(std::optional<ProcessId> anchor);

  const ExtendedProcessGraph* graph_ = nullptr;  // planner mode only
  const SharingMatrix* sharing_ = nullptr;
  std::size_t coreCount_ = 0;
  std::vector<ProcessId> ready_;       ///< dense ready set, any order
  std::vector<std::uint32_t> slot_;    ///< index into ready_, or kNotReady
  std::vector<char> pending_;              // planner mode, per process
  std::vector<std::uint32_t> indegree_;    // planner mode, per process
  std::vector<ProcessId> pendingIds_;      // planner mode, ascending
  std::uint64_t popCount_ = 0;  // audit sampling counter
  std::uint64_t candidatesRead_ = 0;
  /// Distance hook (enableDistance); null or distance-blind = raw
  /// sharing keys, the pre-NoC arithmetic.
  const LocalityScore* score_ = nullptr;
  std::vector<std::int32_t> home_;  ///< home core per process; -1 = none
  // Planner-mode class buckets over the pending processes (bucketed_).
  // A bucket's cells are those of its members' class-table slot
  // (SharingMatrix::slotRow); its ready members are the ascending run
  // run_[head, end) inside its range [start[b], start[b + 1]).
  struct LiveBucket {
    ProcessId top;       ///< smallest ready member
    std::uint32_t slot;  ///< the members' class-table slot
    std::uint32_t bucket;
  };
  bool bucketed_ = false;
  std::vector<std::uint32_t> bucketOf_;     ///< per process; kNotReady = none
  std::vector<std::uint32_t> bucketOfSlot_; ///< per slot; kNotReady = none
  std::vector<std::uint32_t> bucketStart_;  ///< CSR ranges in run_
  std::vector<std::uint32_t> bucketHead_;   ///< run start per bucket
  std::vector<std::uint32_t> bucketEnd_;    ///< run end per bucket
  std::vector<std::uint32_t> bucketSlot_;   ///< the members' slot
  std::vector<std::uint8_t> dominant_;      ///< 0 unknown, 1 no, 2 yes
  std::vector<ProcessId> run_;              ///< per-bucket ascending runs
  std::vector<LiveBucket> live_;            ///< non-empty buckets, any order
  std::vector<std::uint32_t> liveSlot_;     ///< index into live_
};

}  // namespace laps
