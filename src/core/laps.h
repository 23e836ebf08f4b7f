#pragma once
/// \file laps.h
/// \brief Umbrella header: the complete public API of lapsched.
///
/// lapsched reproduces "Locality-Aware Process Scheduling for Embedded
/// MPSoCs" (Kandemir & Chen, DATE 2005). Typical use (this program is
/// extracted verbatim and compiled as the core_doc_example test —
/// keep it a complete translation unit):
///
/// \code
/// #include <iostream>
///
/// #include "core/laps.h"
///
/// int main() {
///   using namespace laps;
///
///   const auto suite = standardSuite();
///   const Workload mix = concurrentScenario(suite, 3);
///   const auto results = compareSchedulers(mix, paperSchedulers());
///   for (const auto& r : results) {
///     std::cout << r.schedulerName << ": " << r.sim.seconds << " s\n";
///   }
/// }
/// \endcode

// Region algebra (paper §2)
#include "region/access.h"
#include "region/affine.h"
#include "region/array.h"
#include "region/footprint.h"
#include "region/interval.h"
#include "region/interval_set.h"
#include "region/iteration_space.h"
#include "region/sharing.h"
#include "region/strided_interval.h"

// Task and process graphs (paper §3)
#include "taskgraph/builder.h"
#include "taskgraph/graph.h"
#include "taskgraph/process.h"
#include "taskgraph/validate.h"

// Cache models (platform substrate)
#include "cache/bus.h"
#include "cache/cache.h"
#include "cache/config.h"
#include "cache/hierarchy.h"
#include "cache/miss_class.h"
#include "cache/noc.h"
#include "cache/platform.h"
#include "cache/shared_l2.h"

// Data layout and re-mapping (paper §3, Figs. 4-5)
#include "layout/address_space.h"
#include "layout/conflict.h"
#include "layout/relayout.h"
#include "layout/transform.h"

// Trace generation
#include "trace/cursor.h"
#include "trace/trace.h"

// Schedulers (paper §4 strategies + extensions)
#include "sched/basic.h"
#include "sched/dynamic_locality.h"
#include "sched/factory.h"
#include "sched/locality.h"
#include "sched/locality_score.h"
#include "sched/online_locality.h"
#include "sched/scheduler.h"

// MPSoC simulator (Simics substitute)
#include "sim/admission.h"
#include "sim/arrivals.h"
#include "sim/config.h"
#include "sim/energy.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/result.h"

// The six applications of Table 1
#include "workloads/apps.h"
#include "workloads/service.h"

// Experiment harness
#include "core/experiment.h"

// Utilities
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
