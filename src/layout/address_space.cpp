#include "layout/address_space.h"

#include "util/error.h"

namespace laps {
namespace {

std::uint64_t alignUp(std::uint64_t value, std::int64_t align) {
  const auto a = static_cast<std::uint64_t>(align);
  return (value + a - 1) / a * a;
}

}  // namespace

AddressSpace::AddressSpace(const ArrayTable& arrays,
                           AddressSpaceOptions options)
    : options_(options) {
  check(options_.alignBytes > 0, "AddressSpace: alignBytes must be positive");
  slots_.reserve(arrays.size());
  for (const ArrayInfo& info : arrays.all()) {
    Slot slot;
    slot.naturalBytes = info.sizeBytes();
    slot.elemSize = info.elemSize;
    slots_.push_back(slot);
  }
  repack();
}

void AddressSpace::repack() {
  std::uint64_t cursor = options_.dataBase;
  for (Slot& slot : slots_) {
    std::int64_t align = options_.alignBytes;
    if (!slot.transform.isIdentity()) {
      // Fig. 4 requires page-aligned bases for the phase guarantee.
      align = std::max(align, slot.transform.pageBytes());
    }
    cursor = alignUp(cursor, align);
    slot.base = cursor;
    cursor += static_cast<std::uint64_t>(
        slot.transform.spanBytes(slot.naturalBytes));
  }
  end_ = cursor;
}

void AddressSpace::setTransform(ArrayId array, const LayoutTransform& transform) {
  check(array < slots_.size(), "AddressSpace::setTransform: unknown array");
  slots_[array].transform = transform;
  repack();
  ++generation_;
}

const LayoutTransform& AddressSpace::transformOf(ArrayId array) const {
  check(array < slots_.size(), "AddressSpace::transformOf: unknown array");
  return slots_[array].transform;
}

std::uint64_t AddressSpace::baseOf(ArrayId array) const {
  check(array < slots_.size(), "AddressSpace::baseOf: unknown array");
  return slots_[array].base;
}

std::int64_t AddressSpace::spanOf(ArrayId array) const {
  check(array < slots_.size(), "AddressSpace::spanOf: unknown array");
  return slots_[array].transform.spanBytes(slots_[array].naturalBytes);
}

IntervalSet AddressSpace::byteIntervals(ArrayId array,
                                        const IntervalSet& elements) const {
  check(array < slots_.size(), "AddressSpace::byteIntervals: unknown array");
  const Slot& slot = slots_[array];
  const auto base = static_cast<std::int64_t>(slot.base);
  IntervalSet::Builder builder(elements.pieceCount());
  for (const Interval& iv : elements.pieces()) {
    const std::int64_t loByte = iv.lo * slot.elemSize;
    const std::int64_t hiByte = iv.hi * slot.elemSize;
    if (slot.transform.isIdentity()) {
      builder.add(base + loByte, base + hiByte);
      continue;
    }
    // The transform is affine within each half-page chunk: split the byte
    // range at chunk boundaries and shift each piece.
    const std::int64_t half = slot.transform.pageBytes() / 2;
    std::int64_t cursor = loByte;
    while (cursor < hiByte) {
      const std::int64_t chunk = cursor / half;
      const std::int64_t chunkEnd = (chunk + 1) * half;
      const std::int64_t pieceEnd = std::min(hiByte, chunkEnd);
      const std::int64_t shifted = slot.transform.apply(cursor);
      builder.add(base + shifted, base + shifted + (pieceEnd - cursor));
      cursor = pieceEnd;
    }
  }
  return builder.build();
}

}  // namespace laps
