#include "reference_cache.h"

#include <algorithm>

#include "util/error.h"

namespace laps::reference {

SetAssocCache::SetAssocCache(const CacheConfig& config) : config_(config) {
  config_.validate();
  sets_.assign(static_cast<std::size_t>(config_.numSets()),
               std::vector<Way>(static_cast<std::size_t>(config_.assoc)));
}

SetAssocCache::Way* SetAssocCache::find(std::uint64_t addr) {
  std::vector<Way>& set =
      sets_[static_cast<std::size_t>(config_.setIndexOf(addr))];
  for (Way& way : set) {
    if (way.valid && way.tag == config_.tagOf(addr)) return &way;
  }
  return nullptr;
}

AccessOutcome SetAssocCache::access(std::uint64_t addr, bool isWrite,
                                    EvictionInfo* evicted) {
  ++clock_;
  ++stats_.accesses;
  if (Way* way = find(addr)) {
    ++stats_.hits;
    way->lastUse = clock_;
    way->dirty = way->dirty || isWrite;
    return AccessOutcome::Hit;
  }
  ++stats_.misses;
  const std::int64_t set = config_.setIndexOf(addr);
  std::vector<Way>& ways = sets_[static_cast<std::size_t>(set)];
  // Victim: the first invalid way; with none, the least recently used
  // (the first of equals).
  auto victim = std::find_if(ways.begin(), ways.end(),
                             [](const Way& w) { return !w.valid; });
  if (victim == ways.end()) {
    victim = std::min_element(ways.begin(), ways.end(),
                              [](const Way& a, const Way& b) {
                                return a.lastUse < b.lastUse;
                              });
    ++stats_.evictions;
    if (victim->dirty) ++stats_.dirtyEvictions;
    if (evicted != nullptr) {
      evicted->evicted = true;
      evicted->dirty = victim->dirty;
      const std::uint64_t line =
          victim->tag * static_cast<std::uint64_t>(config_.numSets()) +
          static_cast<std::uint64_t>(set);
      evicted->lineAddr = line * static_cast<std::uint64_t>(config_.lineBytes);
    }
  }
  *victim = Way{true, isWrite, config_.tagOf(addr), clock_};
  return AccessOutcome::Miss;
}

void SetAssocCache::bulkHits(std::int64_t count) {
  clock_ += static_cast<std::uint64_t>(count);
  stats_.accesses += static_cast<std::uint64_t>(count);
  stats_.hits += static_cast<std::uint64_t>(count);
}

void SetAssocCache::touch(std::uint64_t addr, bool isWrite,
                          std::uint64_t lastUseStamp) {
  Way* way = find(addr);
  check(way != nullptr, "reference::SetAssocCache::touch: not resident");
  way->lastUse = std::max(way->lastUse, lastUseStamp);
  way->dirty = way->dirty || isWrite;
}

void SetAssocCache::flush() {
  for (std::vector<Way>& set : sets_) {
    for (Way& way : set) {
      if (way.valid) {
        ++stats_.invalidations;
        if (way.dirty) ++stats_.dirtyEvictions;
      }
      way = Way{};
    }
  }
}

bool SetAssocCache::invalidateLine(std::uint64_t addr) {
  Way* way = find(addr);
  if (way == nullptr) return false;
  const bool dirty = way->dirty;
  ++stats_.invalidations;
  if (dirty) ++stats_.dirtyEvictions;
  *way = Way{};
  return dirty;
}

bool SetAssocCache::probe(std::uint64_t addr) const {
  const std::vector<Way>& set =
      sets_[static_cast<std::size_t>(config_.setIndexOf(addr))];
  return std::any_of(set.begin(), set.end(), [&](const Way& w) {
    return w.valid && w.tag == config_.tagOf(addr);
  });
}

std::vector<laps::SetAssocCache::ResidentLine>
SetAssocCache::residentLineStates() const {
  std::vector<laps::SetAssocCache::ResidentLine> lines;
  const auto numSets = static_cast<std::uint64_t>(config_.numSets());
  for (std::uint64_t s = 0; s < sets_.size(); ++s) {
    for (const Way& way : sets_[s]) {
      if (way.valid) {
        lines.push_back({(way.tag * numSets + s) *
                             static_cast<std::uint64_t>(config_.lineBytes),
                         way.lastUse, way.dirty});
      }
    }
  }
  return lines;
}

}  // namespace laps::reference
