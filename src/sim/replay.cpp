#include "sim/replay.h"

#include <algorithm>
#include <vector>

#include "trace/trace.h"

namespace laps {
namespace {

/// A data stream's position while a run executes.
struct StreamState {
  std::uint64_t addr = 0;
  std::int64_t stride = 0;
  bool isWrite = false;
};

}  // namespace

std::int64_t replaySegmentRunLength(ProcessTraceCursor& cursor,
                                    MemorySystem& mem,
                                    std::optional<std::int64_t> quantum,
                                    std::int64_t segmentStartCycle) {
  const MemoryConfig& cfg = mem.config();
  const bool modelI = cfg.modelICache;
  const std::int64_t iHit = cfg.l1i.hitLatencyCycles;
  const std::int64_t dHit = cfg.l1d.hitLatencyCycles;
  const std::int64_t dLine = cfg.l1d.lineBytes;

  std::int64_t cycles = 0;
  bool overQuantum = false;
  TraceRun run;
  std::vector<StreamState> pos;
  // Nest whose code body is verified fully resident in the I-cache; while
  // it stays the current nest, every fetch is a guaranteed hit (only this
  // process's fetches touch the I-cache within a segment), so fetch
  // accounting can be deferred and committed arithmetically per chunk.
  std::optional<std::size_t> warmNest;

  while (!overQuantum && cursor.peekRun(run)) {
    const auto K = static_cast<std::int64_t>(run.streams.size());
    const std::int64_t compute = run.computeCyclesPerIter;
    std::int64_t consumed = 0;  // trace steps consumed of this run

    // When fetchDeferred (warm body), doStep skips its instruction fetch
    // — a known hit with zero stall — and commitFetches accounts the
    // chunk's fetches in bulk instead.
    bool fetchDeferred = false;

    // Commits the deferred instruction fetches of steps
    // [fromStep, consumed) of this run: all hits (warm body), with exact
    // per-event stamps. The fetch stream cycles through the body's P
    // slots, so the last min(S, P) fetches carry every slot's final
    // stamp.
    const auto commitFetches = [&](std::int64_t fromStep) {
      if (!fetchDeferred) return;
      const std::int64_t steps = consumed - fromStep;
      if (steps <= 0) return;
      const std::uint64_t iclock0 = mem.instrClock();
      const auto slots = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(run.bodyBytes) / kInstrFetchBytes);
      const std::uint64_t phase =
          (run.bodyCursor +
           static_cast<std::uint64_t>(fromStep) * kInstrFetchBytes) %
          static_cast<std::uint64_t>(run.bodyBytes) / kInstrFetchBytes;
      const std::int64_t touched = std::min(steps, slots);
      for (std::int64_t t = steps - touched; t < steps; ++t) {
        const std::uint64_t slot = (phase + static_cast<std::uint64_t>(t)) %
                                   static_cast<std::uint64_t>(slots);
        mem.instrTouch(run.bodyBase + slot * kInstrFetchBytes,
                       iclock0 + static_cast<std::uint64_t>(t) + 1);
      }
      mem.instrBulkHits(steps);
    };

    // One trace step, per-event style: instruction fetch (hits are
    // pipelined; only the miss penalty stalls), data access for stream j
    // (j < 0 = pure-compute step), compute cycles on the iteration's last
    // step, then the quantum check — exactly the per-event oracle's loop.
    const auto doStep = [&](std::int64_t j, std::uint64_t dataAddr,
                            bool isWrite) {
      if (modelI && !fetchDeferred) {
        const std::uint64_t fetchAddr =
            run.bodyBase +
            (run.bodyCursor +
             static_cast<std::uint64_t>(consumed) * kInstrFetchBytes) %
                static_cast<std::uint64_t>(run.bodyBytes);
        const std::int64_t iLat =
            mem.instrFetch(fetchAddr, segmentStartCycle + cycles);
        if (iLat > iHit) cycles += iLat - iHit;
      }
      if (j >= 0) {
        cycles += mem.dataAccess(dataAddr, isWrite,
                                 segmentStartCycle + cycles);
      }
      if (j < 0 || j == K - 1) cycles += compute;
      ++consumed;
      if (quantum && cycles >= *quantum) overQuantum = true;
    };

    if (run.partialIteration) {
      for (std::int64_t j = 0; j < K && !overQuantum; ++j) {
        doStep(j, run.streams[j].baseAddr, run.streams[j].isWrite);
      }
      cursor.consume(consumed);
      continue;
    }

    pos.clear();
    for (const RunStream& s : run.streams) {
      pos.push_back(StreamState{s.baseAddr, s.strideBytes, s.isWrite});
    }
    std::int64_t itersLeft = run.iterations;

    // One full iteration per-event at the current stream positions.
    const auto doIteration = [&]() {
      if (K == 0) {
        doStep(-1, 0, false);
      } else {
        for (std::int64_t j = 0; j < K && !overQuantum; ++j) {
          doStep(j, pos[static_cast<std::size_t>(j)].addr,
                 pos[static_cast<std::size_t>(j)].isWrite);
        }
      }
      if (overQuantum) return;
      --itersLeft;
      for (StreamState& s : pos) {
        s.addr += static_cast<std::uint64_t>(s.stride);
      }
    };

    // If any stream jumps to a new line every iteration, it caps every
    // chunk at one iteration and the chunk machinery is pure overhead:
    // run the whole run per-event in a tight loop instead (with fetch
    // accounting still deferred once the body is warm).
    bool jumper = false;
    for (const StreamState& s : pos) {
      if (s.stride >= dLine || s.stride <= -dLine) {
        jumper = true;
        break;
      }
    }

    while (itersLeft > 0 && !overQuantum) {
      // Is this nest's body warm in the I-cache? (Probe once; fetches
      // cannot evict it afterwards, so the answer is sticky per nest.)
      bool iWarm = !modelI;
      if (modelI) {
        if (warmNest == std::optional<std::size_t>{run.nestIndex}) {
          iWarm = true;
        } else {
          iWarm = true;
          for (std::int64_t b = 0; b < run.bodyBytes;
               b += static_cast<std::int64_t>(kInstrFetchBytes)) {
            if (!mem.icache().probe(run.bodyBase +
                                    static_cast<std::uint64_t>(b))) {
              iWarm = false;
              break;
            }
          }
          if (iWarm) warmNest = run.nestIndex;
        }
      }
      fetchDeferred = modelI && iWarm;
      const std::int64_t chunkStart = consumed;

      if (jumper) {
        while (itersLeft > 0 && !overQuantum) doIteration();
        commitFetches(chunkStart);
        break;
      }

      // Chunk: the iterations whose accesses all stay in their current
      // cache lines. After the first (per-event) iteration establishes
      // those lines, the rest of the chunk cannot miss or evict.
      std::int64_t chunk = itersLeft;
      for (const StreamState& s : pos) {
        chunk = std::min(chunk, lineRunLength(s.addr, s.stride, dLine));
      }

      const std::uint64_t missesBefore = mem.dcache().stats().misses;
      doIteration();
      if (overQuantum) {
        commitFetches(chunkStart);
        break;
      }
      std::int64_t rest = chunk - 1;
      if (rest == 0) {
        commitFetches(chunkStart);
        continue;
      }

      // The bulk shortcut needs every fetch to hit (warm body) and every
      // stream's line to have survived the first iteration. A hit leaves
      // its line resident and a miss fills it, so only a first-iteration
      // miss — which may have evicted another stream's line from a shared
      // set — makes the probes necessary.
      bool resident = iWarm;
      if (resident && K > 1 &&
          mem.dcache().stats().misses != missesBefore) {
        for (const StreamState& s : pos) {
          if (!mem.dcache().probe(s.addr -
                                  static_cast<std::uint64_t>(s.stride))) {
            resident = false;
            break;
          }
        }
      }
      if (!resident) {
        while (rest-- > 0 && !overQuantum) doIteration();
        commitFetches(chunkStart);
        continue;
      }

      // How much of the chunk's remainder does the quantum allow? A bulk
      // iteration's steps cost dHit each, plus the compute cycles on its
      // last step (everything hits). Find the exact step on which the
      // per-event loop would stop.
      std::int64_t takeIters = rest;  // complete iterations to commit
      std::int64_t takeExtra = 0;     // steps of one further partial iteration
      const std::int64_t stepsPerIter = std::max<std::int64_t>(K, 1);
      const std::int64_t perIter = K * dHit + compute;
      if (quantum && perIter > 0) {
        const std::int64_t budget = *quantum - cycles;  // >= 1 here
        const std::int64_t fullBelow = (budget - 1) / perIter;
        if (fullBelow < rest) {
          const std::int64_t gap = budget - fullBelow * perIter;
          std::int64_t within = stepsPerIter;
          if (K > 0 && dHit > 0) {
            within = std::min<std::int64_t>(K, (gap + dHit - 1) / dHit);
          }
          if (within >= stepsPerIter) {
            takeIters = fullBelow + 1;
            takeExtra = 0;
          } else {
            takeIters = fullBelow;
            takeExtra = within;
          }
          overQuantum = true;
        }
      }

      const std::int64_t bulkSteps = takeIters * stepsPerIter + takeExtra;
      if (bulkSteps > 0) {
        cycles += takeIters * perIter + takeExtra * dHit;

        if (K > 0) {
          if (quantum) {
            // Exact per-event LRU stamps: bulk access (q, j) — iteration
            // q, stream j — is the (q*K + j + 1)-th data access after the
            // current clock. A partial final iteration (takeExtra) can
            // reorder streams' final stamps, so each line is re-stamped
            // explicitly.
            const std::uint64_t dclock0 = mem.dataClock();
            for (std::int64_t j = 0; j < K; ++j) {
              const std::int64_t lastIter =
                  j < takeExtra ? takeIters : takeIters - 1;
              if (lastIter < 0) continue;  // stream has no bulk access
              const StreamState& s = pos[static_cast<std::size_t>(j)];
              mem.dataTouch(
                  s.addr - static_cast<std::uint64_t>(s.stride), s.isWrite,
                  dclock0 + static_cast<std::uint64_t>(lastIter * K + j + 1));
            }
          }
          // Without a quantum the chunk commits whole iterations, so the
          // streams' final per-event stamps are ordered exactly like the
          // first-iteration stamps they already carry (by stream index),
          // and dirty bits were set by the first iteration's real
          // accesses. LRU decisions compare stamps only within a set and
          // only by order, so advancing the clock alone is behaviorally
          // exact — every later access still outranks the chunk's lines.
          mem.dataBulkHits(takeIters * K + takeExtra);
          // The skipped accesses are no-ops for the miss classifier as
          // long as they cycle the shadow LRU's MRU block completely; a
          // partial final iteration is not a complete cycle, so replay
          // exactly those accesses into the shadow to leave it in the
          // per-event order (they are shadow hits — nothing is counted).
          for (std::int64_t j = 0; j < takeExtra; ++j) {
            const StreamState& s = pos[static_cast<std::size_t>(j)];
            mem.dataShadowTouch(s.addr - static_cast<std::uint64_t>(s.stride));
          }
        }

        consumed += bulkSteps;
        itersLeft -= takeIters;
        for (StreamState& s : pos) {
          s.addr += static_cast<std::uint64_t>(s.stride * takeIters);
        }
      }
      commitFetches(chunkStart);
    }

    cursor.consume(consumed);
  }
  return cycles;
}

}  // namespace laps
