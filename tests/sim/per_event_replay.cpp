#include "per_event_replay.h"

#include "trace/trace.h"

namespace laps {

std::int64_t replaySegmentPerEvent(ProcessTraceCursor& cursor,
                                   MemorySystem& mem,
                                   std::optional<std::int64_t> quantum,
                                   std::int64_t segmentStartCycle) {
  const std::int64_t iHit = mem.config().l1i.hitLatencyCycles;
  std::int64_t cycles = 0;
  TraceStep step;
  while (cursor.next(step)) {
    // Fetch hits are pipelined (hidden); only the miss penalty stalls.
    const std::int64_t iLat =
        mem.instrFetch(step.instrAddr, segmentStartCycle + cycles);
    if (iLat > iHit) cycles += iLat - iHit;
    if (step.isRef) {
      cycles += mem.dataAccess(step.dataAddr, step.isWrite,
                               segmentStartCycle + cycles);
    }
    cycles += step.computeCycles;
    if (quantum && cycles >= *quantum && !cursor.done()) break;
  }
  return cycles;
}

}  // namespace laps
