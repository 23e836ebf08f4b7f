#pragma once
/// \file per_event_replay.h
/// \brief Test-only per-event trace replay: the oracle the engine's
/// run-length replay (sim/replay.h) is differenced against.
///
/// One cache-model access per trace step, straight off
/// ProcessTraceCursor::next — the simulator's segment loop before
/// run-length replay replaced it. tests/sim/replay_test.cpp runs both
/// replays segment by segment over twin memory hierarchies and asserts
/// identical state after every segment.

#include <cstdint>
#include <optional>

#include "cache/hierarchy.h"
#include "trace/cursor.h"

namespace laps {

/// Executes one scheduling segment of \p cursor's process against
/// \p mem, one trace step at a time, until the process finishes or the
/// accumulated work cycles reach \p quantum (nullopt = non-preemptive).
/// Every access issues at \p segmentStartCycle plus the work cycles
/// accumulated so far. Returns the segment's work cycles — the contract
/// of replaySegmentRunLength.
std::int64_t replaySegmentPerEvent(ProcessTraceCursor& cursor,
                                   MemorySystem& mem,
                                   std::optional<std::int64_t> quantum,
                                   std::int64_t segmentStartCycle = 0);

}  // namespace laps
