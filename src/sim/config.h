#pragma once
/// \file config.h
/// \brief MPSoC platform configuration (paper Table 2 defaults).

#include <cstddef>
#include <cstdint>
#include <optional>

#include "cache/hierarchy.h"
#include "cache/platform.h"
#include "sim/admission.h"
#include "sim/arrivals.h"
#include "sim/faults.h"

namespace laps {

/// The simulated platform. Defaults reproduce Table 2 of the paper:
/// 8 processors, 8 KB 2-way data/instruction caches, 2-cycle cache
/// access, 75-cycle off-chip access, 200 MHz cores — and the default
/// platform descriptor (flat interconnect, no shared L2), so the default
/// miss path is the paper's fixed latency, bit-identical to the
/// pre-hierarchy simulator.
struct MpsocConfig {
  std::size_t coreCount = 8;
  MemoryConfig memory{};            ///< replicated per core (private L1s)

  /// The shared-level topology in one composable descriptor
  /// (cache/platform.h): interconnect {Flat, Bus, Mesh, Xbar} ×
  /// coherence {Broadcast, Directory} × optional shared L2, validated
  /// eagerly in one place. Unset = the default descriptor, the paper's
  /// platform (resolvedPlatform()).
  std::optional<PlatformConfig> platform;

  /// Optional open-workload arrival schedule (docs/ARCHITECTURE.md
  /// §§9-10): work arrives at seeded inter-arrival distances — whole
  /// task cohorts or individual processes, uniform / geometric /
  /// heavy-tailed gaps — and an optional lifetime retires overstaying
  /// processes. Disabled = the paper's closed workload (everything
  /// resident at cycle 0), bit-identical to the pre-arrival simulator.
  std::optional<ArrivalSchedule> arrivals;

  /// Optional deterministic fault injection (docs/ARCHITECTURE.md §13):
  /// seeded permanent core failures, transient core outages and process
  /// crashes with retry/backoff, interleaved into the event loop.
  /// Requires an arrival schedule (crash retries re-enter as arrivals).
  /// Absent — or present with every class mean zero — the engine takes
  /// the exact fault-free path, bit-identical to the pre-fault
  /// simulator.
  std::optional<FaultPlan> faults;

  /// Admission control for open workloads (docs/ARCHITECTURE.md §10):
  /// consulted once per arriving process, before the scheduling policy
  /// hears anything. The default AdmitAll keeps PR 5 semantics
  /// bit-identical; ignored entirely in closed workloads.
  AdmissionConfig admission{};

  /// Table 2: 200 MHz. Only consumed by cyclesToSeconds below — the
  /// simulation itself is pure integer cycles.
  // LINT-ALLOW(no-float): cycle-to-seconds readout only; the model never reads it
  double clockHz = 200e6;
  std::int64_t switchCycles = 400;  ///< context-switch overhead per switch
  bool flushOnSwitch = false;       ///< ablation: cold caches after switch

  /// Reporting conversion of a final integer cycle count; never feeds
  /// back into simulation state.
  // LINT-ALLOW(no-float): presentation-only conversion of final cycle counts
  [[nodiscard]] double cyclesToSeconds(std::int64_t cycles) const {
    // LINT-ALLOW(no-float): presentation-only conversion of final cycle counts
    return static_cast<double>(cycles) / clockHz;
  }

  /// The effective platform descriptor: `platform` when set, otherwise
  /// the default one (flat interconnect, broadcast recalls, no L2).
  [[nodiscard]] PlatformConfig resolvedPlatform() const {
    return platform.value_or(PlatformConfig{});
  }
};

}  // namespace laps
