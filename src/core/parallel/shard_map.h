// Deterministic work partitioning for the parallel sweeps.
//
// A ShardMap splits an ordered worklist of `items` entries into `shards`
// contiguous ranges, balanced to within one item (the first items %
// shards ranges get the extra element). Because ranges are contiguous
// over an already-ordered worklist, visiting shard 0..K-1 and, within a
// shard, its items in sequence order reproduces the original worklist
// order exactly — the property the per-shard result concatenation
// relies on for shard-count-invariant results.
#pragma once

#include <cstddef>

#include "util/assert.h"
#include "util/contracts.h"

namespace p2pex::parallel {

/// One contiguous half-open worklist slice [begin, end).
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin == end; }

  friend constexpr bool operator==(ShardRange, ShardRange) = default;
};

/// Deterministic contiguous partition of `items` worklist slots into
/// `shards` balanced ranges.
class ShardMap {
 public:
  ShardMap(std::size_t items, std::size_t shards)
      : items_(items), shards_(shards) {
    P2PEX_ASSERT_MSG(shards > 0, "a shard map needs at least one shard");
  }

  [[nodiscard]] std::size_t items() const { return items_; }
  [[nodiscard]] std::size_t shards() const { return shards_; }

  /// The slice shard `s` owns. Ranges tile [0, items) in shard order;
  /// trailing shards may be empty when shards > items.
  [[nodiscard]] ShardRange range(std::size_t s) const {
    P2PEX_INVARIANT(s < shards_);
    const std::size_t base = items_ / shards_;
    const std::size_t extra = items_ % shards_;
    const std::size_t begin = s * base + (s < extra ? s : extra);
    return ShardRange{begin, begin + base + (s < extra ? 1 : 0)};
  }

  /// The shard owning worklist slot `i` (inverse of range()).
  [[nodiscard]] std::size_t shard_of(std::size_t i) const {
    P2PEX_INVARIANT(i < items_);
    const std::size_t base = items_ / shards_;
    const std::size_t extra = items_ % shards_;
    const std::size_t pivot = extra * (base + 1);
    if (i < pivot) return i / (base + 1);
    return extra + (i - pivot) / base;
  }

 private:
  std::size_t items_;
  std::size_t shards_;
};

}  // namespace p2pex::parallel
