#pragma once
/// \file validate.h
/// \brief Whole-workload consistency checks.
///
/// Run once per scenario (tests and the experiment harness do) to catch
/// malformed workloads early: out-of-bounds accesses, unknown arrays,
/// dependence cycles.

#include "taskgraph/graph.h"

namespace laps {

/// Throws laps::Error with a descriptive message when \p workload is
/// inconsistent:
///  * a process has more than kMaxNestsPerProcess loop nests (its code
///    bodies would alias the next task's),
///  * a process references an array id not in the table,
///  * an access's footprint falls outside its array's bounds (checked
///    on accessFootprintBounds, O(rank) per access, never enumerating),
///  * an access's footprint would exceed the enumeration budget
///    (the error accessFootprint throws),
///  * the dependence graph has a cycle.
void validateWorkload(const Workload& workload);

}  // namespace laps
