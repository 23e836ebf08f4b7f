#pragma once
/// \file address_space.h
/// \brief Main-memory placement of arrays (the paper's addr(.) function).
///
/// The AddressSpace assigns every array a base address and applies the
/// per-array LayoutTransform, yielding the byte address of any element —
/// the composition map(addr'(.)) of §3 is then evaluated by the cache
/// model. Bases are aligned so the Fig. 4 no-conflict guarantee holds.

#include <cstdint>
#include <vector>

#include "layout/transform.h"
#include "region/array.h"
#include "region/interval_set.h"

namespace laps {

/// Placement options.
struct AddressSpaceOptions {
  /// Base of the data segment (code lives below; see trace module).
  std::uint64_t dataBase = 0x1000'0000;
  /// Minimum alignment of every array base. The default is MMU-page
  /// alignment, as embedded allocators give large arrays — which is why
  /// hot arrays of different applications tend to collide in the same
  /// cache sets (the paper's premise). Transformed arrays are
  /// additionally aligned to their cache page.
  std::int64_t alignBytes = 4096;
};

/// Assigns array base addresses and applies layout transforms.
class AddressSpace {
 public:
  /// Lays out every array of \p arrays consecutively with identity
  /// transforms.
  explicit AddressSpace(const ArrayTable& arrays,
                        AddressSpaceOptions options = {});

  /// Installs \p transform for \p array and re-packs all bases
  /// (transformed arrays consume ~2x address span and page alignment).
  /// Bumps generation().
  void setTransform(ArrayId array, const LayoutTransform& transform);

  /// Layout version: starts at 0 and grows with every setTransform.
  /// Consumers that snapshot bases and transforms (ProcessTraceCursor)
  /// record it to detect a layout change behind their back.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  [[nodiscard]] const LayoutTransform& transformOf(ArrayId array) const;

  /// Byte address of the element at row-major offset \p linearElem.
  [[nodiscard]] std::uint64_t elementAddress(ArrayId array,
                                             std::int64_t linearElem) const {
    const Slot& slot = slots_.at(array);
    const std::int64_t natural = linearElem * slot.elemSize;
    return slot.base + static_cast<std::uint64_t>(slot.transform.apply(natural));
  }

  [[nodiscard]] std::uint64_t baseOf(ArrayId array) const;

  /// Address span [base, base+span) reserved for \p array.
  [[nodiscard]] std::int64_t spanOf(ArrayId array) const;

  /// Converts an element-offset footprint into the byte-address intervals
  /// the array occupies under the current layout (exact; used by the
  /// conflict analyzer).
  [[nodiscard]] IntervalSet byteIntervals(ArrayId array,
                                          const IntervalSet& elements) const;

  /// One past the highest assigned address.
  [[nodiscard]] std::uint64_t end() const { return end_; }

  [[nodiscard]] std::size_t arrayCount() const { return slots_.size(); }

 private:
  struct Slot {
    std::uint64_t base = 0;
    std::int64_t naturalBytes = 0;
    std::int64_t elemSize = 4;
    LayoutTransform transform;
  };

  void repack();

  AddressSpaceOptions options_;
  std::vector<Slot> slots_;  // indexed by ArrayId
  std::uint64_t end_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace laps
