#include "mem/replacement.hpp"

#include "util/error.hpp"

namespace lpm::mem {

const char* to_string(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru: return "lru";
    case ReplacementPolicy::kFifo: return "fifo";
    case ReplacementPolicy::kRandom: return "random";
    case ReplacementPolicy::kPlru: return "plru";
    case ReplacementPolicy::kSrrip: return "srrip";
  }
  return "?";
}

ReplacementPolicy replacement_from_string(const std::string& s) {
  if (s == "lru") return ReplacementPolicy::kLru;
  if (s == "fifo") return ReplacementPolicy::kFifo;
  if (s == "random") return ReplacementPolicy::kRandom;
  if (s == "plru") return ReplacementPolicy::kPlru;
  if (s == "srrip") return ReplacementPolicy::kSrrip;
  throw util::LpmError("unknown replacement policy: " + s);
}

ReplacementTable::ReplacementTable(ReplacementPolicy policy, std::uint32_t ways,
                                   std::uint64_t sets)
    : ways_(ways) {
  util::require(ways >= 1, "ReplacementTable: ways must be >= 1");
  util::require(sets >= 1, "ReplacementTable: sets must be >= 1");
  const bool tree_usable = ways >= 2 && (ways & (ways - 1)) == 0;
  switch (policy) {
    case ReplacementPolicy::kLru: kind_ = Kind::kLru; break;
    case ReplacementPolicy::kFifo: kind_ = Kind::kFifo; break;
    case ReplacementPolicy::kRandom: kind_ = Kind::kRandom; break;
    case ReplacementPolicy::kPlru:
      kind_ = tree_usable ? Kind::kTree : Kind::kLru;
      break;
    case ReplacementPolicy::kSrrip: kind_ = Kind::kRrip; break;
  }
  const std::uint64_t lines = sets * ways;
  switch (kind_) {
    case Kind::kLru: last_use_.assign(lines, 0); break;
    case Kind::kFifo: fill_seq_.assign(lines, 0); break;
    case Kind::kTree: plru_bits_.assign(sets * (ways - 1), 0); break;
    case Kind::kRrip: rrpv_.assign(lines, 3); break;  // empty ways look distant
    case Kind::kRandom: break;
  }
}

void ReplacementTable::fill(std::uint64_t set, std::uint32_t way,
                            std::uint64_t tick) {
  util::require(way < ways_, "ReplacementTable::fill: bad way");
  if (kind_ == Kind::kFifo) fill_seq_[set * ways_ + way] = tick;
  touch(set, way, tick);
  if (kind_ == Kind::kRrip) {
    rrpv_[set * ways_ + way] = 2;  // inserted with long re-reference
                                   // prediction: a line must prove reuse
                                   // before it outranks resident ones
  }
}

void ReplacementTable::plru_touch(std::uint64_t set, std::uint32_t way) {
  // Walk root->leaf; set each node bit to point *away* from this way.
  std::uint8_t* bits = &plru_bits_[set * (ways_ - 1)];
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = ways_;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const bool right = way >= mid;
    bits[node] = right ? 0 : 1;  // bit points to the cold side
    node = 2 * node + (right ? 2 : 1);
    if (right) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
}

std::uint32_t ReplacementTable::plru_victim(std::uint64_t set) const {
  const std::uint8_t* bits = &plru_bits_[set * (ways_ - 1)];
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = ways_;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    // touch() stores 1 when the cold half is the right one.
    const bool right = bits[node] == 1;
    node = 2 * node + (right ? 2 : 1);
    if (right) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint32_t ReplacementTable::srrip_victim(std::uint64_t set) {
  // Find a distant-re-reference way; age everyone until one appears.
  std::uint8_t* rrpv = &rrpv_[set * ways_];
  for (;;) {
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (rrpv[w] >= 3) return w;
    }
    for (std::uint32_t w = 0; w < ways_; ++w) ++rrpv[w];
  }
}

std::uint32_t ReplacementTable::oldest(const std::uint64_t* stamps,
                                       std::uint32_t ways) {
  // First minimum, like std::min_element.
  std::uint32_t best = 0;
  for (std::uint32_t w = 1; w < ways; ++w) {
    if (stamps[w] < stamps[best]) best = w;
  }
  return best;
}

std::uint32_t ReplacementTable::victim(std::uint64_t set, util::Rng& rng) {
  switch (kind_) {
    case Kind::kRandom:
      return static_cast<std::uint32_t>(rng.next_below(ways_));
    case Kind::kFifo:
      return oldest(&fill_seq_[set * ways_], ways_);
    case Kind::kRrip:
      return srrip_victim(set);
    case Kind::kTree:
      return plru_victim(set);
    case Kind::kLru:
      return oldest(&last_use_[set * ways_], ways_);
  }
  return 0;
}

}  // namespace lpm::mem
