#pragma once
/// \file replay.h
/// \brief Run-length trace replay: the simulator's segment loop.
///
/// Touching the cache model once per trace step is the simulation
/// bottleneck with thousands of concurrent processes.
/// replaySegmentRunLength consumes TraceRuns instead
/// (ProcessTraceCursor::peekRun/consume) and replays each run in chunks:
/// the iterations during which every co-stream (a stream whose stride
/// is below the line size) keeps its current cache line. A chunk's
/// first iteration runs per event; one step loop commits the rest, the
/// co-stream accesses as known hits in bulk. A stream that jumps a line
/// every iteration (a transposed read) is replayed per event inside
/// that loop: co-stream stamps are restored where a jumper miss could
/// read them, a jumper miss that removes a co-stream line sends the
/// chunk back to per-event replay, and the miss classifier's shadow LRU
/// is replayed and kept within capacity. Without a jumper, the whole
/// iterations below the quantum are committed at once. The result is
/// guaranteed bit-identical to
/// replaying one step at a time — same cycles, cache statistics, LRU
/// order, miss classification and preemption points — because every
/// analytical shortcut is guarded by an exact residency check and falls
/// back to per-step execution when the claim could fail (see
/// docs/ARCHITECTURE.md §6 for the equivalence argument; the per-event
/// oracle lives in tests/sim/per_event_replay.h).

#include <cstdint>
#include <optional>

#include "cache/hierarchy.h"
#include "trace/cursor.h"

namespace laps {

/// Executes one scheduling segment of \p cursor's process against
/// \p mem: replays trace runs until the process finishes or the
/// accumulated work cycles reach \p quantum (nullopt = non-preemptive).
/// Returns the segment's work cycles; the cursor is left exactly where
/// a one-step-at-a-time replay would leave it.
///
/// \p segmentStartCycle is the absolute cycle the segment begins at; it
/// only matters on a contended hierarchy (shared L2 / bus), where every
/// miss issues at segmentStartCycle + the work cycles accumulated so
/// far — exactly the per-event timing. Bulk-committed steps are
/// guaranteed L1 hits and never reach the shared levels, so the
/// bit-identity survives contention.
std::int64_t replaySegmentRunLength(ProcessTraceCursor& cursor,
                                    MemorySystem& mem,
                                    std::optional<std::int64_t> quantum,
                                    std::int64_t segmentStartCycle = 0);

}  // namespace laps
