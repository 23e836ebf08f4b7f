#pragma once
/// \file cursor.h
/// \brief Resumable per-process trace generation.
///
/// A ProcessTraceCursor walks a process's loop nests and yields one
/// TraceStep per data reference (or per iteration for pure-compute
/// nests). The cursor's state is a loop index vector plus counters, so it
/// is cheap to copy and can be suspended/resumed at any step — exactly
/// what preemptive scheduling (RRS) needs, including migration of a
/// half-finished process to another core.
///
/// Instruction stream model: each (task, nest-index) pair owns a small
/// synthetic loop body in the code segment; every step fetches the next
/// line of that body, wrapping around. Processes of the same task and
/// stage therefore share instruction cache lines (they run the same
/// code), and a context switch naturally cools the I-cache. Nest n of
/// task t fetches from kCodeSegmentBase + (kMaxNestsPerProcess·t + n) ·
/// kCodeBodyStride.
///
/// Address plans: the constructor compiles every access of every nest
/// once against the address space — byte coefficients per loop
/// dimension, constant byte term, array base, layout transform,
/// innermost byte stride, store flag — so describing a run is a short
/// dot product per access plus the Fig. 4 transform arithmetic, with no
/// table lookups.

#include <cstdint>
#include <vector>

#include "layout/address_space.h"
#include "region/footprint.h"
#include "taskgraph/process.h"
#include "trace/trace.h"

namespace laps {

/// One past the code bodies of every task whose id is below
/// \p taskCount. The data segment must start at or above it, or code
/// and data lines alias (MpsocSimulator checks at construction).
[[nodiscard]] constexpr std::uint64_t codeSegmentEnd(std::uint64_t taskCount) {
  return kCodeSegmentBase + taskCount * kMaxNestsPerProcess * kCodeBodyStride;
}

/// Generates the reference trace of one process under a given data layout.
class ProcessTraceCursor {
 public:
  /// \p spec and \p arrays and \p space must outlive the cursor.
  /// Precondition: \p space is final — the cursor compiles its address
  /// plans from the bases and transforms \p space holds now, so a
  /// setTransform after construction would replay a stale layout. Under
  /// LAPSCHED_AUDIT, peekRun and next check it (auditLayoutUnchanged).
  ProcessTraceCursor(const ProcessSpec& spec, const ArrayTable& arrays,
                     const AddressSpace& space);

  /// Produces the next step. Returns false (and leaves \p step untouched)
  /// when the process has finished.
  bool next(TraceStep& step);

  /// Describes the remainder of the current innermost-loop sweep as a
  /// run-length-encoded TraceRun without advancing the cursor; returns
  /// false when the process has finished. Runs are clipped so every
  /// stream's addresses form an exact arithmetic sequence: at the sweep
  /// end, and — for re-laid-out arrays — at the LayoutTransform's
  /// half-page chunk boundaries, inside which the transform is affine.
  /// A cursor suspended mid-iteration (see consume) yields a
  /// partialIteration run covering the iteration's tail.
  bool peekRun(TraceRun& run) const;

  /// Advances the cursor past the first \p steps steps of the run
  /// peekRun describes (0 <= steps <= run.steps()); the remaining steps
  /// are re-described by the next peekRun. Together with peekRun this is
  /// the bulk-replay twin of next(): consuming N steps leaves the cursor
  /// in exactly the state N next() calls would.
  void consume(std::int64_t steps);

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] ProcessId processId() const { return spec_->id; }

  /// Steps generated so far (for tests and progress accounting).
  [[nodiscard]] std::uint64_t stepsEmitted() const { return stepsEmitted_; }

  /// Audit checker (docs/ARCHITECTURE.md §11): the address space's
  /// generation is still the one the plans were compiled at. Throws
  /// laps::AuditError otherwise.
  void auditLayoutUnchanged() const;

 private:
  /// One access compiled against the address space. Its element's byte
  /// address at loop point p is
  ///   base + transform(constantBytes + Σ_d coeffBytes[d] · p[d]).
  struct AccessPlan {
    std::uint64_t base = 0;          ///< array base address
    std::int64_t constantBytes = 0;  ///< natural byte offset, constant term
    std::int64_t strideBytes = 0;    ///< natural byte step per innermost iteration
    LayoutTransform transform;       ///< Fig. 4 interleave (half page, phase)
    bool isWrite = false;
  };

  struct NestState {
    std::vector<AccessPlan> plans;         ///< one per access
    std::vector<std::int64_t> coeffBytes;  ///< rank per access, access-major
    std::uint64_t codeBase = 0;
    std::int64_t bodyBytes = 0;
  };

  /// Natural (untransformed) byte offset of access \p a of \p state at
  /// the current point.
  [[nodiscard]] std::int64_t naturalOffset(const NestState& state,
                                           std::size_t a) const {
    const std::int64_t* coeff = state.coeffBytes.data() + a * point_.size();
    std::int64_t offset = state.plans[a].constantBytes;
    for (std::size_t d = 0; d < point_.size(); ++d) {
      offset += coeff[d] * point_[d];
    }
    return offset;
  }

  [[nodiscard]] static std::uint64_t addressOf(const AccessPlan& plan,
                                               std::int64_t natural) {
    return plan.base + static_cast<std::uint64_t>(plan.transform.apply(natural));
  }

  /// Positions the cursor at the start of the first non-empty nest at or
  /// after nestIdx_; sets done_ when none remains.
  void seekRunnableNest();

  /// Advances the iteration odometer of the current nest; returns false
  /// when the nest is exhausted.
  bool advanceIteration();

  /// Iterations left in the current innermost-loop sweep (the current one
  /// included); 1 for rank-0 nests.
  [[nodiscard]] std::int64_t innermostRemaining() const;

  [[nodiscard]] std::uint64_t nextInstrAddr();

  const ProcessSpec* spec_;
  const AddressSpace* space_;
  std::uint64_t layoutGeneration_;
  std::vector<NestState> nestStates_;

  std::size_t nestIdx_ = 0;
  std::size_t accIdx_ = 0;
  std::vector<std::int64_t> point_;
  std::uint64_t stepsEmitted_ = 0;
  std::uint64_t bodyCursor_ = 0;
  bool done_ = false;
};

}  // namespace laps
