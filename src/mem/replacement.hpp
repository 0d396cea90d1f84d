// Cache replacement policies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace lpm::mem {

enum class ReplacementPolicy : std::uint8_t {
  kLru,     ///< least recently used (exact, per-set timestamps)
  kFifo,    ///< first in, first out (insertion order)
  kRandom,  ///< uniform random victim
  kPlru,    ///< tree pseudo-LRU (power-of-two associativity; else falls back to LRU)
  kSrrip,   ///< static RRIP (2-bit re-reference prediction): scan-resistant
            ///< "selective replacement" (paper SVII future work)
};

[[nodiscard]] const char* to_string(ReplacementPolicy p);

/// Parses "lru" / "fifo" / "random" / "plru" (throws util::LpmError).
[[nodiscard]] ReplacementPolicy replacement_from_string(const std::string& s);

/// Replacement state of a whole cache in flat arrays: one allocation per
/// array the policy reads (LRU timestamps, FIFO fill order, PLRU tree bits
/// or SRRIP predictions), indexed set-major. The policy only sees set and
/// way indices and touch/fill events, never tags.
class ReplacementTable {
 public:
  ReplacementTable(ReplacementPolicy policy, std::uint32_t ways,
                   std::uint64_t sets);

  /// Records a use of `way` in `set` (hit or fill).
  void touch(std::uint64_t set, std::uint32_t way, std::uint64_t tick) {
    util::require(way < ways_, "ReplacementTable::touch: bad way");
    const std::uint64_t slot = set * ways_ + way;
    switch (kind_) {
      case Kind::kLru:
        last_use_[slot] = tick;
        break;
      case Kind::kTree:
        plru_touch(set, way);
        break;
      case Kind::kRrip:
        rrpv_[slot] = 0;  // re-referenced: predict near reuse
        break;
      case Kind::kFifo:
      case Kind::kRandom:
        break;
    }
  }

  /// Records that `way` in `set` was (re)filled.
  void fill(std::uint64_t set, std::uint32_t way, std::uint64_t tick);

  /// Chooses the victim way of `set` among valid ways (the cache prefers
  /// invalid ways before asking). SRRIP ages the set while it searches.
  [[nodiscard]] std::uint32_t victim(std::uint64_t set, util::Rng& rng);

 private:
  // The policy as implemented: kPlru on a non-power-of-two (or 1-way)
  // set is kLru.
  enum class Kind : std::uint8_t { kLru, kFifo, kRandom, kTree, kRrip };

  void plru_touch(std::uint64_t set, std::uint32_t way);
  [[nodiscard]] std::uint32_t plru_victim(std::uint64_t set) const;
  [[nodiscard]] std::uint32_t srrip_victim(std::uint64_t set);
  [[nodiscard]] static std::uint32_t oldest(const std::uint64_t* stamps,
                                            std::uint32_t ways);

  Kind kind_ = Kind::kLru;
  std::uint32_t ways_;
  std::vector<std::uint64_t> last_use_;  // LRU timestamps
  std::vector<std::uint64_t> fill_seq_;  // FIFO order
  std::vector<std::uint8_t> plru_bits_;  // tree bits, ways-1 per set
  std::vector<std::uint8_t> rrpv_;       // SRRIP 2-bit predictions
};

/// One set's replacement state: a single-set ReplacementTable, for code
/// that models one set on its own.
class ReplacementState {
 public:
  ReplacementState(ReplacementPolicy policy, std::uint32_t ways)
      : table_(policy, ways, 1) {}

  /// Records a use of `way` (hit or fill).
  void touch(std::uint32_t way, std::uint64_t tick) { table_.touch(0, way, tick); }

  /// Records that `way` was (re)filled.
  void fill(std::uint32_t way, std::uint64_t tick) { table_.fill(0, way, tick); }

  /// Chooses the victim way among valid ways.
  [[nodiscard]] std::uint32_t victim(util::Rng& rng) { return table_.victim(0, rng); }

 private:
  ReplacementTable table_;
};

}  // namespace lpm::mem
