#include "cache/bus.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>

#include "util/audit.h"
#include "util/error.h"

namespace laps {

namespace audit {

void timelineDisjoint(std::span<const BusyInterval> busy) {
  std::int64_t prevEnd = std::numeric_limits<std::int64_t>::min();
  for (const auto& [start, end] : busy) {
    require(end > start, "BusyTimeline: interval [" + std::to_string(start) +
                             ", " + std::to_string(end) +
                             ") has non-positive extent");
    // Strict: abutting intervals (start == prevEnd) must have coalesced.
    require(start > prevEnd,
            "BusyTimeline: interval starting at " + std::to_string(start) +
                " overlaps or abuts the interval ending at " +
                std::to_string(prevEnd));
    prevEnd = end;
  }
}

void issuedAtOrAfterHorizon(std::int64_t issue, std::int64_t horizon) {
  require(issue >= horizon,
          "calendar booking requested at cycle " + std::to_string(issue) +
              " precedes the retire horizon " + std::to_string(horizon));
}

}  // namespace audit

std::int64_t BusConfig::occupancyCycles(std::int64_t lineBytes) const {
  const std::int64_t transfer =
      (lineBytes + widthBytes - 1) / widthBytes;  // ceil
  return latencyCycles + transfer;
}

void BusConfig::validate() const {
  check(maxOutstanding >= 1, "BusConfig: maxOutstanding must be >= 1");
  check(widthBytes >= 1, "BusConfig: widthBytes must be >= 1");
  check(latencyCycles >= 1, "BusConfig: latencyCycles must be >= 1");
}

BusyTimeline::Gap BusyTimeline::findGap(std::int64_t now,
                                        std::int64_t duration) const {
  const auto live = busy_.begin() + static_cast<std::ptrdiff_t>(head_);
  auto it = std::upper_bound(
      live, busy_.end(), now,
      [](std::int64_t t, const BusyInterval& iv) { return t < iv.first; });
  std::int64_t cursor = now;
  if (it != live && std::prev(it)->second > cursor) {
    cursor = std::prev(it)->second;
  }
  for (; it != busy_.end(); ++it) {
    if (it->first - cursor >= duration) break;  // gap fits
    cursor = std::max(cursor, it->second);
  }
  return {cursor, static_cast<std::size_t>(it - busy_.begin())};
}

std::int64_t BusyTimeline::earliestStart(std::int64_t now,
                                         std::int64_t duration) const {
  return findGap(now, duration).start;
}

std::int64_t BusyTimeline::reserve(std::int64_t now, std::int64_t duration) {
  check(duration > 0, "BusyTimeline: duration must be positive");
  const Gap gap = findGap(now, duration);
  place(gap.next, gap.start, gap.start + duration);
  return gap.start;
}

void BusyTimeline::bookAt(std::int64_t start, std::int64_t duration) {
  check(duration > 0, "BusyTimeline: duration must be positive");
  const Gap gap = findGap(start, duration);
  check(gap.start == start, "BusyTimeline: bookAt start is not free");
  place(gap.next, start, start + duration);
}

void BusyTimeline::place(std::size_t next, std::int64_t lo, std::int64_t hi) {
  // Coalesce with an abutting predecessor and/or successor so saturated
  // periods collapse into single intervals; only an isolated booking
  // grows the vector.
  const bool joinsPrev = next > head_ && busy_[next - 1].second == lo;
  const bool joinsNext = next < busy_.size() && busy_[next].first == hi;
  if (joinsPrev && joinsNext) {
    busy_[next - 1].second = busy_[next].second;
    busy_.erase(busy_.begin() + static_cast<std::ptrdiff_t>(next));
  } else if (joinsPrev) {
    busy_[next - 1].second = hi;
  } else if (joinsNext) {
    busy_[next].first = lo;
  } else {
    busy_.insert(busy_.begin() + static_cast<std::ptrdiff_t>(next), {lo, hi});
  }
  // Every booking funnels through here (reserve and bookAt) and changes
  // one interval: audit it with its two neighbours. The owners audit
  // whole calendars once per segment start (retireBefore).
  const std::size_t at = joinsPrev ? next - 1 : next;
  const std::size_t from = at > head_ ? at - 1 : at;
  const std::size_t to = std::min(at + 2, busy_.size());
  LAPS_AUDIT(audit::timelineDisjoint(
      std::span<const BusyInterval>(busy_).subspan(from, to - from)));
}

void BusyTimeline::retireLive(std::int64_t cycle) {
  // Intervals are disjoint and sorted, so their ends ascend too: the
  // retired ones form a prefix of the live span.
  while (head_ < busy_.size() && busy_[head_].second <= cycle) ++head_;
  if (head_ * 2 > busy_.size()) {
    busy_.erase(busy_.begin(),
                busy_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void BusyTimeline::auditInjectIntervalForTest(std::int64_t start,
                                              std::int64_t end) {
  const auto it = std::lower_bound(
      busy_.begin() + static_cast<std::ptrdiff_t>(head_), busy_.end(), start,
      [](const BusyInterval& iv, std::int64_t t) { return iv.first < t; });
  if (it != busy_.end() && it->first == start) {
    it->second = end;
  } else {
    busy_.insert(it, {start, end});
  }
}

MemoryBus::MemoryBus(const BusConfig& config, std::int64_t lineBytes)
    : config_(config), occupancyCycles_(config.occupancyCycles(lineBytes)) {
  config_.validate();
  check(lineBytes >= 1, "MemoryBus: lineBytes must be >= 1");
  slots_.resize(static_cast<std::size_t>(config_.maxOutstanding));
}

std::int64_t MemoryBus::reserveBestSlot(std::int64_t now) {
  std::size_t best = 0;
  std::int64_t bestStart = std::numeric_limits<std::int64_t>::max();
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const std::int64_t start = slots_[s].earliestStart(now, occupancyCycles_);
    if (start < bestStart) {
      bestStart = start;
      best = s;
      if (start == now) break;  // cannot do better than no wait
    }
  }
  LAPS_AUDIT(audit::issuedAtOrAfterHorizon(now, horizon_));
  slots_[best].retireBefore(horizon_);
  slots_[best].bookAt(bestStart, occupancyCycles_);
  return bestStart;
}

std::int64_t MemoryBus::demandAccess(std::int64_t now) {
  const std::int64_t start = reserveBestSlot(now);
  ++stats_.transactions;
  stats_.waitCycles += static_cast<std::uint64_t>(start - now);
  return (start - now) + occupancyCycles_;
}

void MemoryBus::postedAccess(std::int64_t now) {
  reserveBestSlot(now);
  ++stats_.transactions;
}

void MemoryBus::retireBefore(std::int64_t cycle) {
  horizon_ = std::max(horizon_, cycle);
  LAPS_AUDIT(for (const BusyTimeline& slot : slots_) {
    audit::timelineDisjoint(slot.intervals());
  });
}

}  // namespace laps
