// Miss Status Holding Registers: the structure that makes a cache
// non-blocking. Each entry tracks one in-flight block fill plus the demand
// accesses (targets) coalesced onto it. Entry and target counts are the
// "MSHR numbers" knob of Table I.
//
// Costs follow the traffic in flight, not the entry count:
//   * the compact tag array is the only record of which block an entry
//     holds (kNoBlock = free); find() scans it only up to the highest
//     occupied index;
//   * free and unissued entries are bitmasks, so allocation takes the
//     lowest free index with a count-trailing-zeros and the cache visits
//     only unissued entries, in index order (the order that fixes which
//     fill goes downstream first).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/request.hpp"
#include "util/types.hpp"

namespace lpm::mem {

struct MshrTarget {
  RequestId id = kNoRequest;
  CoreId core = kNoCore;
  AccessKind kind = AccessKind::kRead;
  ResponseSink* reply_to = nullptr;
  Cycle miss_start = 0;  ///< when the access became an outstanding miss
};

/// Per-entry metadata. Which block the entry holds, whether it is in use
/// and whether its fill went downstream live in MshrFile, not here.
struct MshrEntry {
  bool is_prefetch = false;   ///< allocated by the prefetcher (may have no targets)
  CoreId core = kNoCore;      ///< originating core (prefetch attribution)
  RequestId fill_id = kNoRequest;  ///< id of the fill request sent downstream
  Cycle allocated = 0;
  std::vector<MshrTarget> targets;
};

/// Fixed-size MSHR file with block coalescing.
class MshrFile {
 public:
  /// Tag of a free entry; never a block-aligned address.
  static constexpr Addr kNoBlock = ~Addr{0};

  MshrFile(std::uint32_t entries, std::uint32_t max_targets);

  /// Index of the entry currently filling `block_addr`, if any.
  [[nodiscard]] std::optional<std::uint32_t> find(Addr block_addr) const {
    for (std::uint32_t i = 0; i < limit_; ++i) {
      if (tags_[i] == block_addr) return i;
    }
    return std::nullopt;
  }

  /// True when a new entry can be allocated.
  [[nodiscard]] bool can_allocate() const { return free_ > 0; }

  /// True when entry `idx` can take one more coalesced target.
  [[nodiscard]] bool can_add_target(std::uint32_t idx) const;

  /// Allocates the lowest free entry for `block_addr` with one initial
  /// target. Requires can_allocate().
  std::uint32_t allocate(Addr block_addr, const MshrTarget& target, Cycle now);

  /// Allocates a targetless prefetch entry (lowest free index). Requires
  /// can_allocate().
  std::uint32_t allocate_prefetch(Addr block_addr, Cycle now,
                                  CoreId core = kNoCore);

  /// Adds a coalesced target. Requires can_add_target(idx).
  void add_target(std::uint32_t idx, const MshrTarget& target);

  /// Releases entry `idx`, returning its targets for completion.
  std::vector<MshrTarget> release(std::uint32_t idx);

  /// Allocation-free variant: swaps entry `idx`'s targets into `out`
  /// (clearing `out`'s previous contents) and frees the entry. The entry
  /// inherits `out`'s old storage, so in steady state no release or
  /// subsequent coalescing allocates.
  void release_into(std::uint32_t idx, std::vector<MshrTarget>& out);

  [[nodiscard]] MshrEntry& entry(std::uint32_t idx);
  [[nodiscard]] const MshrEntry& entry(std::uint32_t idx) const;

  /// Whether entry `idx` is allocated.
  [[nodiscard]] bool valid(std::uint32_t idx) const {
    return tags_.at(idx) != kNoBlock;
  }
  /// Block held by entry `idx` (kNoBlock when free).
  [[nodiscard]] Addr block(std::uint32_t idx) const { return tags_.at(idx); }

  /// Whether entry `idx`'s fill request was accepted by the lower level.
  [[nodiscard]] bool issued(std::uint32_t idx) const;
  /// Records that entry `idx`'s fill, request `fill_id`, went downstream.
  void mark_issued(std::uint32_t idx, RequestId fill_id);
  /// True while some valid entry's fill has not been sent downstream.
  [[nodiscard]] bool any_unissued() const { return unissued_count_ > 0; }

  /// Calls `fn(idx)` for each valid, unissued entry in ascending index
  /// order. `fn` may mark the entry issued; entries allocated during the
  /// walk may or may not be visited.
  template <typename Fn>
  void for_each_unissued(Fn&& fn) const {
    for (std::size_t w = 0; w < unissued_.size(); ++w) {
      for (std::uint64_t bits = unissued_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
  }

  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(tags_.size());
  }
  [[nodiscard]] std::uint32_t in_use() const { return capacity() - free_; }
  [[nodiscard]] std::uint32_t max_targets() const { return max_targets_; }

  /// Total demand accesses currently waiting across all entries.
  [[nodiscard]] std::uint32_t outstanding_targets() const;

  /// Entries currently held by `core` (kNoCore-owned entries are uncounted).
  /// Backs the memory-parallelism-partition feature (per-core MSHR quotas).
  [[nodiscard]] std::uint32_t in_use_by(CoreId core) const;

  /// Indices of valid entries. Allocates the returned vector — test and
  /// diagnostic use only.
  [[nodiscard]] std::vector<std::uint32_t> valid_entries() const;

 private:
  static void set_bit(std::vector<std::uint64_t>& bits, std::uint32_t idx) {
    bits[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  static void clear_bit(std::vector<std::uint64_t>& bits, std::uint32_t idx) {
    bits[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }

  std::vector<Addr> tags_;  // block per entry; kNoBlock = free
  std::vector<MshrEntry> entries_;
  std::vector<std::uint64_t> free_bits_;      // set = entry free
  std::vector<std::uint64_t> unissued_;       // set = valid, fill not sent
  std::uint32_t max_targets_;
  std::uint32_t free_;
  std::uint32_t unissued_count_ = 0;
  std::uint32_t limit_ = 0;  // 1 + highest valid index (0 when empty)
};

}  // namespace lpm::mem
