#pragma once
/// \file audit.h
/// \brief The audit-mode invariant layer (docs/ARCHITECTURE.md §11).
///
/// Every published result rests on the determinism contract: identical
/// inputs produce bit-identical SimResults on every platform, compiler
/// and thread count. The static side of the contract is enforced by
/// tools/determinism_lint.py; this header is the dynamic side — runtime
/// invariant checks compiled into the hot layers when the build is
/// configured with -DLAPSCHED_AUDIT=ON (./ci.sh audit).
///
/// Mechanics:
///  * every checker is an ordinary function that throws laps::AuditError
///    on violation. Checkers are compiled in *every* configuration so
///    tests can prove each one fires (no bit-rot behind an #ifdef);
///  * hot-path call sites are wrapped in LAPS_AUDIT(...). With
///    LAPSCHED_AUDIT=OFF (the default) the wrapped statement is placed
///    behind `if (false)`: it still type-checks — an audit call can
///    never silently rot — but is dead-code-eliminated, so the default
///    build is unchanged (the committed CSV baselines and
///    BENCH_micro.json stay byte-identical);
///  * with LAPSCHED_AUDIT=ON the statement executes inline, and a
///    violated invariant aborts the run with an AuditError naming the
///    broken contract.
///
/// Generic checkers (engine event ordering, admission identity,
/// percentile ordering) live here; checkers needing layer types live
/// next to their layer (cache/bus.h: timelineDisjoint, cache/noc.h:
/// linkCalendarConsistent, region/sharing.h:
/// SharingMatrix::auditInvariants + activeSetAgreement, cache/hierarchy.h:
/// MemoryHierarchy::auditInclusion).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/error.h"

#ifndef LAPS_AUDIT_ENABLED
#define LAPS_AUDIT_ENABLED 0
#endif

namespace laps {

/// Thrown by every audit checker on a violated invariant. Distinct from
/// plain laps::Error so tests (and a top-level harness) can tell a
/// broken *contract* from ordinary API misuse.
class AuditError : public Error {
 public:
  explicit AuditError(const std::string& what) : Error("audit: " + what) {}
};

namespace audit {

/// True when LAPS_AUDIT(...) statements execute at runtime (the build
/// was configured with -DLAPSCHED_AUDIT=ON).
constexpr bool enabled() { return LAPS_AUDIT_ENABLED != 0; }

/// Throws AuditError with \p message when \p condition is false. The
/// primitive every checker funnels through.
void require(bool condition, std::string_view message);

/// Engine event queue: popped events never run backwards in
/// (cycle, source) order. Simulated time is monotone, and at equal
/// cycles the sources drain in the engine's declared order (arrival,
/// retry, recovery, injection, core — docs/ARCHITECTURE.md §13), so a
/// core freeing at t sees every arrival, retry and recovery at t, and a
/// fault injected at t lands on the segment ending at t. \p previous*
/// describe the event popped before \p cycle / \p source; sources are
/// the ordinals of that declared order.
void eventOrder(std::int64_t previousCycle, int previousSource,
                std::int64_t cycle, int source);

/// Open-workload accounting identity: every process of the run is
/// either a ranked sojourn sample, was rejected at admission, or was
/// permanently failed by fault injection —
/// samples + rejected + failed == processes.
void admissionIdentity(std::size_t samples, std::size_t rejected,
                       std::size_t failed, std::size_t processes);

/// Departure conservation (docs/ARCHITECTURE.md §13): every process
/// that terminally left the system did so for exactly one reason —
/// departed == completed + rejected + retired + failed. Checked after
/// every departure, so a double-departure or a departure that skips
/// its accounting fires at the event, not at the end of the run.
void departureConservation(std::size_t departed, std::size_t completed,
                           std::size_t rejected, std::size_t retired,
                           std::size_t failed);

/// Fault engine: a segment may only be dispatched on a core that is up
/// (\p coreDown false). The engine's offer path skips down cores; this
/// checker is the compiled-in proof that no other path can slip work
/// onto one.
void coreUpForDispatch(bool coreDown, std::size_t core);

/// Order statistics sanity: p50 <= p95 <= p99, and all three are zero
/// while no sample was recorded.
void percentileOrdering(std::int64_t p50, std::int64_t p95, std::int64_t p99,
                        std::size_t samples);

}  // namespace audit
}  // namespace laps

#if LAPS_AUDIT_ENABLED
/// Executes the wrapped checker statement(s); a violated invariant
/// throws laps::AuditError.
#define LAPS_AUDIT(...) \
  do {                  \
    __VA_ARGS__;        \
  } while (0)
#else
/// Audit disabled: the statement still type-checks (so audit calls
/// cannot rot) but is dead code — the default build's behavior and
/// codegen-visible semantics are unchanged.
#define LAPS_AUDIT(...) \
  do {                  \
    if (false) {        \
      __VA_ARGS__;      \
    }                   \
  } while (0)
#endif
