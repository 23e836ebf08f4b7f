#include "reference_timeline.h"

#include <iterator>

#include "util/error.h"

namespace laps::reference {

std::int64_t BusyTimeline::earliestStart(std::int64_t now,
                                         std::int64_t duration) const {
  std::int64_t cursor = now;
  auto it = busy_.upper_bound(now);
  if (it != busy_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > cursor) cursor = prev->second;
  }
  for (; it != busy_.end(); ++it) {
    if (it->first - cursor >= duration) break;  // gap fits
    if (it->second > cursor) cursor = it->second;
  }
  return cursor;
}

std::int64_t BusyTimeline::reserve(std::int64_t now, std::int64_t duration) {
  const std::int64_t start = earliestStart(now, duration);
  bookAt(start, duration);
  return start;
}

void BusyTimeline::bookAt(std::int64_t start, std::int64_t duration) {
  check(duration > 0, "BusyTimeline: duration must be positive");
  std::int64_t lo = start;
  std::int64_t hi = start + duration;
  auto next = busy_.lower_bound(lo);
  if (next != busy_.begin()) {
    auto prev = std::prev(next);
    if (prev->second == lo) {
      lo = prev->first;
      busy_.erase(prev);
    }
  }
  next = busy_.lower_bound(lo);
  if (next != busy_.end() && next->first == hi) {
    hi = next->second;
    busy_.erase(next);
  }
  busy_.emplace(lo, hi);
}

void BusyTimeline::retireBefore(std::int64_t cycle) {
  for (auto it = busy_.begin(); it != busy_.end() && it->second <= cycle;) {
    it = busy_.erase(it);
  }
}

std::vector<std::pair<std::int64_t, std::int64_t>> BusyTimeline::intervals()
    const {
  return {busy_.begin(), busy_.end()};
}

}  // namespace laps::reference
