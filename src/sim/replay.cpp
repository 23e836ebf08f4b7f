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
  bool jumps = false;           ///< |stride| >= line: a new line per iteration
  std::uint64_t chunkBase = 0;  ///< address in the chunk's first iteration
  std::uint64_t set = 0;        ///< L1 set of the chunk's line
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
  const std::int64_t shadowLines = mem.dataShadowLines();  // 0: no shadow

  std::int64_t cycles = 0;
  bool overQuantum = false;
  TraceRun run;
  std::vector<StreamState> pos;
  // Nest whose code body is verified fully resident in the I-cache; while
  // it stays the current nest, every fetch is a guaranteed hit (only this
  // process's fetches touch the I-cache within a segment), so fetch
  // accounting can be deferred and committed arithmetically.
  std::optional<std::size_t> warmNest;

  // Deferred instruction fetches: `deferred` consecutive fetches of the
  // warm body at deferBase, the first one at slot deferSlot. They stay
  // off the I-cache until a real fetch, another body's deferral or the
  // segment's end, since nothing else reads the I-cache meanwhile.
  std::int64_t deferred = 0;
  std::uint64_t deferBase = 0;
  std::int64_t deferSlots = 0;
  std::int64_t deferSlot = 0;

  // Commits the deferred fetches: all hits, with exact per-event stamps.
  // The fetch stream cycles through the body's slots, so the last
  // min(deferred, slots) fetches carry every slot's final stamp.
  const auto commitFetches = [&]() {
    if (deferred == 0) return;
    const std::uint64_t iclock0 = mem.instrClock();
    const std::int64_t touched = std::min(deferred, deferSlots);
    std::int64_t slot = (deferSlot + deferred - touched) % deferSlots;
    for (std::int64_t t = deferred - touched; t < deferred; ++t) {
      mem.instrTouch(deferBase + static_cast<std::uint64_t>(slot) *
                                     kInstrFetchBytes,
                     iclock0 + static_cast<std::uint64_t>(t) + 1);
      if (++slot == deferSlots) slot = 0;
    }
    mem.instrBulkHits(deferred);
    deferred = 0;
  };

  while (!overQuantum && cursor.peekRun(run)) {
    const auto K = static_cast<std::int64_t>(run.streams.size());
    const std::int64_t compute = run.computeCyclesPerIter;
    std::int64_t consumed = 0;  // trace steps consumed of this run

    // When fetchDeferred (warm body), doStep skips its instruction fetch
    // — a known hit with zero stall — and deferFetches accounts it later.
    bool fetchDeferred = false;

    // Adds steps [fromStep, consumed) of this run to the deferred fetches.
    const auto deferFetches = [&](std::int64_t fromStep) {
      if (!fetchDeferred || consumed == fromStep) return;
      if (deferred == 0) {
        deferBase = run.bodyBase;
        deferSlots =
            run.bodyBytes / static_cast<std::int64_t>(kInstrFetchBytes);
        deferSlot = static_cast<std::int64_t>(
            (run.bodyCursor +
             static_cast<std::uint64_t>(fromStep) * kInstrFetchBytes) %
            static_cast<std::uint64_t>(run.bodyBytes) / kInstrFetchBytes);
      }
      deferred += consumed - fromStep;
    };

    // One trace step, per-event style: instruction fetch (hits are
    // pipelined; only the miss penalty stalls), data access for stream j
    // (j < 0 = pure-compute step), compute cycles on the iteration's last
    // step, then the quantum check — exactly the per-event oracle's loop.
    const auto doStep = [&](std::int64_t j, std::uint64_t dataAddr,
                            bool isWrite) {
      if (modelI && !fetchDeferred) {
        commitFetches();
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

    // A stream whose |stride| reaches the line size ("jumper") moves to a
    // new line every iteration; the others ("co-streams") stay in theirs
    // for a while and set the chunk length.
    pos.clear();
    std::int64_t jumpers = 0;
    for (const RunStream& s : run.streams) {
      const bool jumps = s.strideBytes >= dLine || s.strideBytes <= -dLine;
      pos.emplace_back(s.baseAddr, s.strideBytes, s.isWrite, jumps);
      jumpers += jumps ? 1 : 0;
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

    // True when every co-stream's line of the current chunk is resident.
    const auto coStreamsResident = [&]() {
      for (const StreamState& s : pos) {
        if (!s.jumps && !mem.dcache().probe(s.chunkBase)) return false;
      }
      return true;
    };

    // Iterations 1..chunk-1 of a resident chunk, after its first
    // iteration ran per event (docs/ARCHITECTURE.md §6). A co-stream
    // access is a known hit that adds dHit cycles and one clock tick;
    // jumper accesses go through dataAccess at their exact clock and cycle.
    // Step (q, j) — iteration q of the chunk, stream j — is data access
    // dclock0 + q*K + j + 1, so a co-stream's stamp follows from its
    // index; its line is re-stamped only where a stamp can be read: in
    // the jumper's set before a jumper access, and when the chunk ends.
    const auto commitChunk = [&](std::int64_t chunk, std::uint64_t dclock0) {
      // Re-stamps the co-stream lines \p wanted selects with their last
      // access before step (q, j) (touch keeps a newer stamp).
      const auto restamp = [&](std::int64_t q, std::int64_t j, auto&& wanted) {
        for (std::int64_t c = 0; c < K; ++c) {
          const StreamState& s = pos[static_cast<std::size_t>(c)];
          if (s.jumps || !wanted(s)) continue;
          const std::int64_t iter = c < j ? q : q - 1;
          mem.dataTouch(s.chunkBase, s.isWrite,
                        dclock0 + static_cast<std::uint64_t>(iter * K + c) + 1);
        }
      };
      const auto addrOf = [&](const StreamState& s, std::int64_t q) {
        return s.chunkBase + static_cast<std::uint64_t>(s.stride * q);
      };

      std::int64_t ticked = K;  // steps whose clock ticks the L1 holds
      bool fellBack = false;    // a jumper miss removed a co-stream line
      std::int64_t q = 1;       // the next step is (q, j)
      std::int64_t j = 0;
      if (jumpers > 0) {
        for (StreamState& s : pos) {
          s.set = mem.dcache().setIndexOf(s.chunkBase);
        }
      } else {
        // Every step hits: the whole iterations that stay below the
        // quantum commit at once, and the step loop only finishes the
        // iteration the quantum cuts.
        const std::int64_t perIter = K * dHit + compute;
        std::int64_t whole = chunk - 1;
        if (quantum && perIter > 0) {
          whole = std::min(whole, (*quantum - cycles - 1) / perIter);
        }
        q += whole;
        cycles += whole * perIter;
        consumed += whole * K;
      }
      while (q < chunk && !overQuantum && !fellBack) {
        const StreamState& s = pos[static_cast<std::size_t>(j)];
        if (!s.jumps) {
          cycles += dHit;
          if (j == K - 1) cycles += compute;
          ++consumed;
          if (quantum && cycles >= *quantum) overQuantum = true;
        } else {
          const std::int64_t t = q * K + j;
          const std::uint64_t addr = addrOf(s, q);
          mem.dataBulkHits(t - ticked);
          ticked = t + 1;
          // A miss picks its victim by the LRU order of its set.
          const std::uint64_t set = mem.dcache().setIndexOf(addr);
          restamp(q, j, [&](const StreamState& c) { return c.set == set; });
          const std::uint64_t misses = mem.dcache().stats().misses;
          cycles += mem.dataAccess(addr, s.isWrite, segmentStartCycle + cycles);
          if (j == K - 1) cycles += compute;
          ++consumed;
          if (quantum && cycles >= *quantum) overQuantum = true;
          // A fill or an inclusion recall may have taken a co-stream line.
          fellBack = mem.dcache().stats().misses != misses &&
                     !coStreamsResident();
        }
        if (++j == K) {
          j = 0;
          ++q;
        }
      }
      if (jumpers > 0) mem.countJumperChunk(fellBack);
      mem.dataBulkHits(q * K + j - ticked);
      // Whole iterations without a jumper keep the first iteration's
      // stamp order in every set and cycle the shadow LRU's MRU block
      // completely: only the clock advances. A jumper or a cut
      // mid-iteration needs the exact stamps and the shadow replay.
      if (jumpers > 0 || j > 0) {
        restamp(q, j, [&](const StreamState& c) {
          return !fellBack || mem.dcache().probe(c.chunkBase);
        });
        if (shadowLines > 0) {
          // The K steps before (q, j) hold every stream's last access:
          // replay them into the shadow LRU in per-event order.
          for (std::int64_t u = j; u < K + j; ++u) {
            const bool inQ = u >= K;  // step (q, u - K), else (q - 1, u)
            const StreamState& s =
                pos[static_cast<std::size_t>(inQ ? u - K : u)];
            mem.dataShadowTouch(addrOf(s, inQ ? q : q - 1));
          }
        }
      }
      // After a fallback the iteration finishes per event.
      for (; fellBack && j > 0 && j < K && !overQuantum; ++j) {
        const StreamState& s = pos[static_cast<std::size_t>(j)];
        doStep(j, addrOf(s, q), s.isWrite);
      }
      // Complete iterations beyond the first (j == K: the fallback
      // finished iteration q).
      const std::int64_t iters = j == K ? q : q - 1;
      itersLeft -= iters;
      for (StreamState& s : pos) {
        s.addr += static_cast<std::uint64_t>(s.stride * iters);
      }
    };

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
      // Deferred fetches of another body are committed first.
      if (fetchDeferred && deferred > 0 && deferBase != run.bodyBase) {
        commitFetches();
      }
      const std::int64_t chunkStart = consumed;

      // Chunk: the iterations whose co-stream accesses all stay in their
      // current cache lines. After the first (per-event) iteration
      // establishes those lines, no co-stream access of the rest can miss.
      std::int64_t chunk = itersLeft;
      for (const StreamState& s : pos) {
        if (!s.jumps) {
          chunk = std::min(chunk, lineRunLength(s.addr, s.stride, dLine));
        }
      }
      if (jumpers > 0 && shadowLines > 0 &&
          (chunk - 1) * jumpers > shadowLines - K) {
        // The classifier's shadow LRU must keep every co-stream line while
        // only jumper accesses reach it: at most shadowLines - K of them.
        chunk = 1 + std::max<std::int64_t>(shadowLines - K, 0) / jumpers;
      }
      for (StreamState& s : pos) s.chunkBase = s.addr;

      const std::uint64_t dclock0 = mem.dataClock();
      const std::uint64_t missesBefore = mem.dcache().stats().misses;
      doIteration();
      // The step loop needs every fetch to hit (warm body) and every
      // co-stream's line to have survived the first iteration. A hit
      // leaves its line resident and a miss fills it, so only a
      // first-iteration miss — which may have evicted another stream's
      // line from a shared set — makes the probes necessary.
      if (!overQuantum && chunk > 1) {
        if (K > 0 && iWarm &&
            (K == 1 || mem.dcache().stats().misses == missesBefore ||
             coStreamsResident())) {
          commitChunk(chunk, dclock0);
        } else {
          while (--chunk > 0 && !overQuantum) doIteration();
        }
      }
      deferFetches(chunkStart);
    }

    cursor.consume(consumed);
  }
  commitFetches();
  return cycles;
}

}  // namespace laps
