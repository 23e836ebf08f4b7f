#include "cache/hierarchy.h"

#include <bit>
#include <string>

#include "util/audit.h"
#include "util/error.h"

namespace laps {

void MemoryHierarchy::auditInclusion() const {
  if (!l2_) return;
  for (std::size_t c = 0; c < l1DataCaches_.size(); ++c) {
    if (l1DataCaches_[c] == nullptr) continue;
    for (const SetAssocCache::ResidentLine& line :
         l1DataCaches_[c]->residentLineStates()) {
      audit::require(l2_->probe(line.addr),
                     "inclusion violated: L1 data cache " + std::to_string(c) +
                         " holds line " + std::to_string(line.addr) +
                         " that is not L2-resident");
      if (directory_) {
        audit::require((l2_->sharersOf(line.addr) >> c & 1) != 0,
                       "sharer mask misses a holder: L1 data cache " +
                           std::to_string(c) + " holds line " +
                           std::to_string(line.addr) +
                           " but its L2 mask lacks bit " + std::to_string(c));
      }
    }
  }
}

void MemoryHierarchy::auditLineAbsent(std::uint64_t lineAddr) const {
  for (std::size_t c = 0; c < l1DataCaches_.size(); ++c) {
    audit::require(l1DataCaches_[c] == nullptr ||
                       !l1DataCaches_[c]->probe(lineAddr),
                   "back-invalidation incomplete: L1 data cache " +
                       std::to_string(c) + " still holds evicted line " +
                       std::to_string(lineAddr));
  }
}

void MemoryHierarchy::clearSharersForTest(std::uint64_t lineAddr) {
  check(directory_, "MemoryHierarchy::clearSharersForTest: no directory");
  l2_->clearSharersForTest(lineAddr);
}

MemoryHierarchy::MemoryHierarchy(std::int64_t memLatencyCycles)
    : memLatencyCycles_(memLatencyCycles) {}

MemoryHierarchy::MemoryHierarchy(std::int64_t memLatencyCycles,
                                 const PlatformConfig& platform,
                                 std::size_t coreCount, std::int64_t lineBytes)
    : memLatencyCycles_(memLatencyCycles) {
  platform.validate(coreCount);
  // Directory coherence keeps its sharer masks in the L2's ways; the
  // platform check guarantees the L2 and at most 64 cores (mask bits).
  directory_ = platform.coherence == CoherenceKind::Directory;
  if (platform.sharedL2) {
    check(platform.sharedL2->lineBytes == lineBytes,
          "MemoryHierarchy: shared L2 line size must match the L1s");
    l2_.emplace(*platform.sharedL2, /*trackSharers=*/directory_);
  }
  if (platform.busEnabled()) {
    bus_.emplace(platform.bus, lineBytes);
  }
  if (platform.nocEnabled()) {
    noc_.emplace(platform.noc, static_cast<std::int64_t>(coreCount),
                 lineBytes, platform.nocKind());
  }
  if (directory_) l1DataCaches_.resize(coreCount);
}

std::int64_t MemoryHierarchy::bankHomeNode(std::int64_t bank) const {
  return bank % noc_->topology().nodeCount();
}

void MemoryHierarchy::registerDataCache(SetAssocCache* l1d,
                                        std::size_t core) {
  // Directory platforms size the slots to the core count (mask bits).
  check(!directory_ || core < l1DataCaches_.size(),
        "MemoryHierarchy: core index out of range for the sharer masks");
  if (core >= l1DataCaches_.size()) l1DataCaches_.resize(core + 1);
  check(l1DataCaches_[core] == nullptr,
        "MemoryHierarchy: core already has a registered L1 data cache");
  l1DataCaches_[core] = l1d;
}

void MemoryHierarchy::unregisterDataCache(std::size_t core) {
  if (core < l1DataCaches_.size()) l1DataCaches_[core] = nullptr;
}

std::int64_t MemoryHierarchy::missLatency(std::uint64_t addr,
                                          std::int64_t now, std::size_t core,
                                          bool dataFill) {
  const std::int64_t node = static_cast<std::int64_t>(core);
  if (!l2_) {
    // The memory controller sits at NoC node 0.
    std::int64_t latency = noc_ ? noc_->demandTransfer(node, 0, now) : 0;
    latency += bus_ ? bus_->demandAccess(now + latency) : memLatencyCycles_;
    return latency;
  }

  // The request first travels to the accessed bank's home tile.
  const std::int64_t home =
      noc_ ? bankHomeNode(l2_->bankOf(addr)) : 0;
  std::int64_t latency = noc_ ? noc_->demandTransfer(node, home, now) : 0;

  // A data fill's L1 copy joins the line's sharer mask.
  std::uint64_t sharer = 0;
  if (directory_ && dataFill) {
    check(core < l1DataCaches_.size(),
          "MemoryHierarchy: core index out of range for the sharer masks");
    sharer = std::uint64_t{1} << core;
  }
  const L2AccessResult l2 = l2_->access(addr, now + latency, sharer);
  latency += l2.bankWaitCycles + l2_->config().hitLatencyCycles;

  // Inclusion: the evicted line may live on in L1 data caches — drop
  // those copies before anything else observes the L2 state. With a
  // directory, only the victim's sharers are probed; the recall rides
  // the NoC as posted invalidations (home tile -> sharer tile).
  bool victimDirty = l2.evictedLineDirty;
  if (l2.evictedLineAddr) {
    bool l1Dirty = false;
    if (directory_) {
      std::uint64_t sent = 0;
      for (std::uint64_t m = l2.evictedSharers; m != 0; m &= m - 1) {
        const auto c = static_cast<std::size_t>(std::countr_zero(m));
        SetAssocCache* l1 = l1DataCaches_[c];
        if (l1 == nullptr) continue;  // that core's L1 is gone
        l1Dirty |= l1->invalidateLine(*l2.evictedLineAddr);
        if (noc_) {
          noc_->postedTransfer(home, static_cast<std::int64_t>(c),
                               now + latency);
        }
        ++sent;
      }
      // A broadcast would have probed every core.
      directoryStats_.invalidationsSent += sent;
      directoryStats_.invalidationsFiltered += l1DataCaches_.size() - sent;
    } else {
      for (SetAssocCache* l1 : l1DataCaches_) {
        if (l1 != nullptr) l1Dirty |= l1->invalidateLine(*l2.evictedLineAddr);
      }
    }
    // A dirty L1 copy whose L2 entry was clean still leaves the chip;
    // count it so the energy model sees every off-chip write.
    if (l1Dirty && !victimDirty) ++inclusionWritebacks_;
    victimDirty |= l1Dirty;
    LAPS_AUDIT(auditLineAbsent(*l2.evictedLineAddr));
  }

  if (l2.outcome == AccessOutcome::Miss) {
    // The fill continues from the bank's home tile to the memory
    // controller at node 0, then off chip.
    std::int64_t fill =
        noc_ ? noc_->demandTransfer(home, 0, now + latency) : 0;
    fill += bus_ ? bus_->demandAccess(now + latency + fill)
                 : memLatencyCycles_;
    latency += fill;
  }

  // The victim's write-back is posted *after* the demand fill resolves
  // (a write buffer drains behind the fill): it occupies the bus,
  // delaying later traffic, but never stalls its own requester.
  if (victimDirty && bus_) {
    bus_->postedAccess(now + latency);
  }
  if (victimDirty && noc_) {
    noc_->postedTransfer(home, 0, now + latency);
  }
  return latency;
}

bool MemoryHierarchy::absorbL1Writeback(std::uint64_t lineAddr) {
  return l2_ && l2_->writeback(lineAddr);
}

void MemoryHierarchy::postL1Writeback(std::int64_t now) {
  // With an L2 present this write bypassed it (the line was already
  // gone), so no L2 counter will ever see it leave the chip.
  if (l2_) ++inclusionWritebacks_;
  if (bus_) bus_->postedAccess(now);
}

void MemoryHierarchy::resetStats() {
  if (l2_) l2_->resetStats();
  if (bus_) bus_->resetStats();
  if (noc_) noc_->resetStats();
  directoryStats_ = DirectoryStats{};
  inclusionWritebacks_ = 0;
}

void MemoryHierarchy::retireBefore(std::int64_t cycle) {
  if (l2_) l2_->retireBefore(cycle);
  if (bus_) bus_->retireBefore(cycle);
  if (noc_) noc_->retireBefore(cycle);
  // Segment boundary: the natural cadence for the full inclusion scan
  // (the per-miss auditLineAbsent covers the mutation points between).
  LAPS_AUDIT(auditInclusion());
}

MemorySystem::MemorySystem(const MemoryConfig& config,
                           std::shared_ptr<MemoryHierarchy> shared,
                           std::size_t coreIndex)
    : config_(config),
      hierarchy_(shared ? std::move(shared)
                        : std::make_shared<MemoryHierarchy>(
                              config.memLatencyCycles)),
      coreIndex_(coreIndex),
      dcache_(config.l1d),
      icache_(config.l1i) {
  if (config_.classifyMisses) {
    classifier_.emplace(config_.l1d);
  }
  hierarchy_->registerDataCache(&dcache_, coreIndex_);
}

MemorySystem::~MemorySystem() { hierarchy_->unregisterDataCache(coreIndex_); }

std::int64_t MemorySystem::missBeyondL1(std::uint64_t addr,
                                        const EvictionInfo& evicted,
                                        std::int64_t issueCycle) {
  const bool dirtyVictim = evicted.evicted && evicted.dirty;
  const bool absorbed =
      dirtyVictim && hierarchy_->absorbL1Writeback(evicted.lineAddr);
  const std::int64_t latency = hierarchy_->missLatency(
      addr, issueCycle, coreIndex_, /*dataFill=*/true);
  if (dirtyVictim && !absorbed) {
    hierarchy_->postL1Writeback(issueCycle + latency);
  }
  return latency;
}

void MemorySystem::flushAll() {
  dcache_.flush();
  icache_.flush();
  if (classifier_) classifier_->flushShadow();
}

MissBreakdown MemorySystem::dataMissBreakdown() const {
  return classifier_ ? classifier_->breakdown() : MissBreakdown{};
}

void MemorySystem::resetStats() {
  dcache_.resetStats();
  replay_ = ReplayPathStats{};
  icache_.resetStats();
  if (classifier_) classifier_->resetStats();
}

}  // namespace laps
