#pragma once
/// \file timed_policy.h
/// \brief A SchedulerPolicy decorator that times every hook the engine
/// calls and records the open-workload arrival/exit order.
///
/// It forwards every virtual to the wrapped policy unchanged, so a run
/// through it makes exactly the decisions of a run without it; only the
/// benchmark's own clocks are read.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host seconds between two clock readings.
inline double secondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// One arrival (true) or exit (false) of a process, in engine order.
struct LiveSetEvent {
  laps::ProcessId process = 0;
  bool arrival = false;
};

class TimedPolicy final : public laps::SchedulerPolicy {
 public:
  explicit TimedPolicy(laps::SchedulerPolicy& inner) : inner_(inner) {}

  void reset(const laps::SchedContext& context) override {
    const Clock::time_point start = Clock::now();
    inner_.reset(context);
    resetEnd_ = Clock::now();
    resetSeconds_ += secondsBetween(start, resetEnd_);
  }
  void onReady(laps::ProcessId process) override {
    Timer t(*this);
    inner_.onReady(process);
  }
  std::optional<laps::ProcessId> pickNext(
      std::size_t core, std::optional<laps::ProcessId> previous) override {
    const Clock::time_point start = Clock::now();
    const std::optional<laps::ProcessId> pick = inner_.pickNext(core, previous);
    pickSeconds_ += secondsBetween(start, Clock::now());
    ++pickCalls_;
    return pick;
  }
  void onPreempt(laps::ProcessId process) override {
    Timer t(*this);
    inner_.onPreempt(process);
  }
  void onComplete(laps::ProcessId process) override {
    Timer t(*this);
    inner_.onComplete(process);
  }
  void onArrival(laps::ProcessId process) override {
    {
      Timer t(*this);
      inner_.onArrival(process);
    }
    liveSet_.push_back({process, true});
  }
  void onExit(laps::ProcessId process) override {
    {
      Timer t(*this);
      inner_.onExit(process);
    }
    liveSet_.push_back({process, false});
  }
  void onCoreDown(std::size_t core) override {
    Timer t(*this);
    inner_.onCoreDown(core);
  }
  void onCoreUp(std::size_t core) override {
    Timer t(*this);
    inner_.onCoreUp(core);
  }
  [[nodiscard]] std::optional<std::int64_t> quantum() const override {
    return inner_.quantum();
  }
  [[nodiscard]] laps::PolicyStats stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] const laps::LocalityScore* localityScore() const override {
    return inner_.localityScore();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] double resetSeconds() const { return resetSeconds_; }
  [[nodiscard]] double pickSeconds() const { return pickSeconds_; }
  [[nodiscard]] std::uint64_t pickCalls() const { return pickCalls_; }
  [[nodiscard]] double eventSeconds() const { return eventSeconds_; }
  [[nodiscard]] std::uint64_t eventCalls() const { return eventCalls_; }
  /// When the last reset() returned: the first simulated cycle follows.
  [[nodiscard]] Clock::time_point resetEnd() const { return resetEnd_; }
  /// Every onArrival/onExit, in the order the engine issued them.
  [[nodiscard]] const std::vector<LiveSetEvent>& liveSetEvents() const {
    return liveSet_;
  }

 private:
  /// Times one event hook (everything but reset and pickNext).
  class Timer {
   public:
    explicit Timer(TimedPolicy& owner) : owner_(owner), start_(Clock::now()) {}
    ~Timer() {
      owner_.eventSeconds_ += secondsBetween(start_, Clock::now());
      ++owner_.eventCalls_;
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    TimedPolicy& owner_;
    Clock::time_point start_;
  };

  laps::SchedulerPolicy& inner_;
  double resetSeconds_ = 0.0;
  double pickSeconds_ = 0.0;
  std::uint64_t pickCalls_ = 0;
  double eventSeconds_ = 0.0;
  std::uint64_t eventCalls_ = 0;
  Clock::time_point resetEnd_{};
  std::vector<LiveSetEvent> liveSet_;
};

}  // namespace perfbench
