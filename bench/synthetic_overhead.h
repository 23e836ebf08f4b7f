#pragma once
/// \file synthetic_overhead.h
/// \brief Shared synthetic instances for the policy-overhead benches.
///
/// The scheduler-overhead measurements (bench_policy_overhead and the
/// large-|T| BM_LocalityPlan rows of bench_micro) need instances whose
/// size can be dialed to thousands of processes without paying trace
/// generation or cache simulation. Two deterministic generators:
///
///  * a layered DAG of fixed width (process i depends on i - width) —
///    the root layer stays `width` wide, so the Fig. 3 initial round
///    trims a bounded candidate set while the greedy rounds still walk
///    every process;
///  * a banded sharing matrix, computed from footprints like every
///    other: processes whose ids fall in the same band share a
///    synthetic (id-derived, integer) element count, so the greedy
///    argmax has real structure to chase instead of a constant row.
///
/// Everything is a pure function of (n, width/band): no clocks, no
/// randomness — the same inputs produce byte-identical instances, which
/// is what lets bench_policy_overhead commit dispatch checksums as a
/// baseline.

#include <algorithm>
#include <string>
#include <vector>

#include "region/sharing.h"
#include "taskgraph/graph.h"

namespace laps::synth {

/// Layered DAG: n empty-trace processes, process i depending on
/// i - width (so every layer has exactly \p width independents).
inline Workload makeLayeredWorkload(std::size_t n, std::size_t width) {
  Workload workload;
  for (std::size_t i = 0; i < n; ++i) {
    ProcessSpec spec;
    spec.task = static_cast<TaskId>(i / width);
    spec.name = "synth" + std::to_string(i);
    workload.graph.addProcess(std::move(spec));
  }
  for (std::size_t i = width; i < n; ++i) {
    workload.graph.addDependence(static_cast<ProcessId>(i - width),
                                 static_cast<ProcessId>(i));
  }
  return workload;
}

/// Banded sharing: processes p and q share iff they sit in the same
/// \p band -sized id block. Each band owns one array, and each in-band
/// pair q < p its own range of (p·7 + q·3) mod 97 + 1 elements of it,
/// touched by both. So the shared count is a small id-derived integer
/// (never zero), ties are rare and the argmax is exercised; a
/// process's own footprint is the sum of its pairs.
inline SharingMatrix makeBandedSharing(std::size_t n, std::size_t band) {
  std::vector<Footprint> footprints(n);
  for (std::size_t lo = 0; lo < n; lo += band) {
    const auto array = static_cast<ArrayId>(lo / band);
    std::int64_t next = 0;  // the band array's first unused element
    for (std::size_t p = lo; p < std::min(lo + band, n); ++p) {
      for (std::size_t q = lo; q < p; ++q) {
        const std::int64_t shared =
            static_cast<std::int64_t>((p * 7 + q * 3) % 97) + 1;
        const IntervalSet range = IntervalSet::range(next, next + shared);
        footprints[p].add(array, range);
        footprints[q].add(array, range);
        next += shared;
      }
    }
  }
  return SharingMatrix::compute(footprints);
}

}  // namespace laps::synth
