#include "trace/cursor.h"

#include <algorithm>

#include "util/audit.h"
#include "util/error.h"
#include "util/stride.h"

namespace laps {

ProcessTraceCursor::ProcessTraceCursor(const ProcessSpec& spec,
                                       const ArrayTable& arrays,
                                       const AddressSpace& space)
    : spec_(&spec), space_(&space), layoutGeneration_(space.generation()) {
  check(spec.nests.size() <= kMaxNestsPerProcess,
        "ProcessTraceCursor: process has more than kMaxNestsPerProcess "
        "loop nests");
  nestStates_.reserve(spec.nests.size());
  for (std::size_t n = 0; n < spec.nests.size(); ++n) {
    const LoopNest& nest = spec.nests[n];
    const std::size_t rank = nest.space.rank();
    NestState state;
    state.plans.reserve(nest.accesses.size());
    state.coeffBytes.reserve(nest.accesses.size() * rank);
    for (const ArrayAccess& access : nest.accesses) {
      const ArrayInfo& info = arrays.at(access.array);
      const std::int64_t elemSize = info.elemSize;
      const AffineExpr linear = linearizeAccess(access, info);
      check(nest.space.empty() || linear.rank() <= rank,
            "ProcessTraceCursor: access depends on more loops than its "
            "nest has");
      for (std::size_t d = 0; d < rank; ++d) {
        state.coeffBytes.push_back(linear.coeff(d) * elemSize);
      }
      state.plans.push_back(AccessPlan{
          space.baseOf(access.array), linear.constantTerm() * elemSize,
          rank == 0 ? 0
                    : linear.coeff(rank - 1) * nest.space.dim(rank - 1).step *
                          elemSize,
          space.transformOf(access.array),
          access.kind == AccessKind::Write});
    }
    // Loop bodies are keyed by (task, nest index) so sibling processes of
    // one task run the same code.
    state.codeBase = kCodeSegmentBase +
                     (static_cast<std::uint64_t>(spec.task) *
                          kMaxNestsPerProcess +
                      n) *
                         kCodeBodyStride;
    const std::int64_t wanted =
        32 * static_cast<std::int64_t>(nest.accesses.size() + 1);
    state.bodyBytes = std::clamp<std::int64_t>(wanted, 64, 2048);
    nestStates_.push_back(std::move(state));
  }
  seekRunnableNest();
}

void ProcessTraceCursor::auditLayoutUnchanged() const {
  audit::require(space_->generation() == layoutGeneration_,
                 "ProcessTraceCursor: the address space changed after the "
                 "cursor compiled its address plans");
}

void ProcessTraceCursor::seekRunnableNest() {
  while (nestIdx_ < spec_->nests.size() &&
         spec_->nests[nestIdx_].space.empty()) {
    ++nestIdx_;
  }
  if (nestIdx_ >= spec_->nests.size()) {
    done_ = true;
    return;
  }
  const IterationSpace& space = spec_->nests[nestIdx_].space;
  point_.resize(space.rank());
  for (std::size_t d = 0; d < space.rank(); ++d) {
    point_[d] = space.dim(d).lo;
  }
  accIdx_ = 0;
  bodyCursor_ = 0;
}

bool ProcessTraceCursor::advanceIteration() {
  const std::vector<LoopDim>& dims = spec_->nests[nestIdx_].space.dims();
  std::size_t d = dims.size();
  for (;;) {
    if (d == 0) return false;  // exhausted this nest
    --d;
    point_[d] += dims[d].step;
    if (point_[d] < dims[d].hi) return true;
    point_[d] = dims[d].lo;
  }
}

std::uint64_t ProcessTraceCursor::nextInstrAddr() {
  const NestState& state = nestStates_[nestIdx_];
  const std::uint64_t addr =
      state.codeBase + bodyCursor_ % static_cast<std::uint64_t>(state.bodyBytes);
  bodyCursor_ += kInstrFetchBytes;
  return addr;
}

bool ProcessTraceCursor::next(TraceStep& step) {
  LAPS_AUDIT(auditLayoutUnchanged());
  if (done_) return false;
  const LoopNest& nest = spec_->nests[nestIdx_];
  const NestState& state = nestStates_[nestIdx_];

  step.instrAddr = nextInstrAddr();
  if (state.plans.empty()) {
    // Pure-compute nest: one step per iteration.
    step.isRef = false;
    step.isWrite = false;
    step.dataAddr = 0;
    step.computeCycles = nest.computeCyclesPerIter;
    if (!advanceIteration()) {
      ++nestIdx_;
      seekRunnableNest();
    }
  } else {
    const AccessPlan& plan = state.plans[accIdx_];
    step.isRef = true;
    step.isWrite = plan.isWrite;
    step.dataAddr = addressOf(plan, naturalOffset(state, accIdx_));
    // Compute cycles are attributed to the last reference of an iteration.
    const bool lastInIteration = accIdx_ + 1 == state.plans.size();
    step.computeCycles = lastInIteration ? nest.computeCyclesPerIter : 0;
    if (lastInIteration) {
      accIdx_ = 0;
      if (!advanceIteration()) {
        ++nestIdx_;
        seekRunnableNest();
      }
    } else {
      ++accIdx_;
    }
  }
  ++stepsEmitted_;
  return true;
}

bool ProcessTraceCursor::peekRun(TraceRun& run) const {
  LAPS_AUDIT(auditLayoutUnchanged());
  if (done_) return false;
  const NestState& state = nestStates_[nestIdx_];

  run.nestIndex = nestIdx_;
  run.bodyBase = state.codeBase;
  run.bodyBytes = state.bodyBytes;
  run.bodyCursor = bodyCursor_;
  run.computeCyclesPerIter = spec_->nests[nestIdx_].computeCyclesPerIter;
  run.streams.clear();

  if (state.plans.empty()) {
    run.partialIteration = false;
    run.iterations = innermostRemaining();
    return true;
  }

  if (accIdx_ != 0) {
    // Suspended mid-iteration: describe the iteration's tail so the
    // replayer can realign to an iteration boundary.
    run.partialIteration = true;
    run.iterations = 1;
    for (std::size_t a = accIdx_; a < state.plans.size(); ++a) {
      const AccessPlan& plan = state.plans[a];
      run.streams.push_back(RunStream{
          addressOf(plan, naturalOffset(state, a)), 0, plan.isWrite});
    }
    return true;
  }

  run.partialIteration = false;
  std::int64_t iters = innermostRemaining();
  for (std::size_t a = 0; a < state.plans.size(); ++a) {
    const AccessPlan& plan = state.plans[a];
    const std::int64_t natural = naturalOffset(state, a);
    if (!plan.transform.isIdentity() && plan.strideBytes != 0) {
      // The interleave transform is affine within one half-page chunk of
      // natural offsets; clip the run so the stream stays inside its
      // chunk and its transformed addresses keep the natural stride.
      iters = std::min(iters,
                       strideRunLength(static_cast<std::uint64_t>(natural),
                                       plan.strideBytes,
                                       plan.transform.pageBytes() / 2));
    }
    run.streams.push_back(
        RunStream{addressOf(plan, natural), plan.strideBytes, plan.isWrite});
  }
  run.iterations = iters;
  return true;
}

void ProcessTraceCursor::consume(std::int64_t steps) {
  check(steps >= 0, "ProcessTraceCursor::consume: negative step count");
  if (steps == 0) return;
  check(!done_, "ProcessTraceCursor::consume: process already finished");

  const std::vector<LoopDim>& dims = spec_->nests[nestIdx_].space.dims();
  const std::size_t rank = dims.size();
  const auto accessCount = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(nestStates_[nestIdx_].plans.size()));
  const std::int64_t pos = static_cast<std::int64_t>(accIdx_) + steps;
  const std::int64_t fullIters = pos / accessCount;
  const std::int64_t newAccIdx = pos % accessCount;

  bodyCursor_ += static_cast<std::uint64_t>(steps) * kInstrFetchBytes;
  stepsEmitted_ += static_cast<std::uint64_t>(steps);

  const std::int64_t remaining = innermostRemaining();
  check(fullIters < remaining || (fullIters == remaining && newAccIdx == 0),
        "ProcessTraceCursor::consume: step count crosses the current "
        "innermost sweep");

  accIdx_ = static_cast<std::size_t>(newAccIdx);
  if (fullIters == remaining) {
    if (rank > 0) {
      point_[rank - 1] += (fullIters - 1) * dims[rank - 1].step;
    }
    if (!advanceIteration()) {
      ++nestIdx_;
      seekRunnableNest();
    }
  } else if (rank > 0) {
    point_[rank - 1] += fullIters * dims[rank - 1].step;
  }
}

std::int64_t ProcessTraceCursor::innermostRemaining() const {
  const std::vector<LoopDim>& dims = spec_->nests[nestIdx_].space.dims();
  if (dims.empty()) return 1;
  const LoopDim& inner = dims.back();
  const std::int64_t left = inner.hi - point_.back();
  return inner.step == 1 ? left : (left + inner.step - 1) / inner.step;
}

}  // namespace laps
