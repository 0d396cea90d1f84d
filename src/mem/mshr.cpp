#include "mem/mshr.hpp"

#include "util/error.hpp"

namespace lpm::mem {

MshrFile::MshrFile(std::uint32_t entries, std::uint32_t max_targets)
    : tags_(entries, kNoBlock),
      entries_(entries),
      free_bits_((entries + 63) / 64, 0),
      unissued_((entries + 63) / 64, 0),
      max_targets_(max_targets),
      free_(entries) {
  util::require(entries >= 1, "MshrFile: need at least one entry");
  util::require(max_targets >= 1, "MshrFile: need at least one target per entry");
  for (std::uint32_t i = 0; i < entries; ++i) set_bit(free_bits_, i);
  for (auto& e : entries_) {
    e.targets.reserve(max_targets);
  }
}

bool MshrFile::can_add_target(std::uint32_t idx) const {
  return valid(idx) && entries_[idx].targets.size() < max_targets_;
}

std::uint32_t MshrFile::allocate(Addr block_addr, const MshrTarget& target, Cycle now) {
  const std::uint32_t i = allocate_prefetch(block_addr, now, target.core);
  entries_[i].is_prefetch = false;
  entries_[i].targets.push_back(target);
  return i;
}

std::uint32_t MshrFile::allocate_prefetch(Addr block_addr, Cycle now, CoreId core) {
  util::require(can_allocate(), "MshrFile::allocate without free entry");
  util::require(block_addr != kNoBlock, "MshrFile::allocate: invalid block address");
  util::require(!find(block_addr).has_value(),
                "MshrFile::allocate: duplicate entry for block");
  std::size_t w = 0;
  while (free_bits_[w] == 0) ++w;  // free_ > 0 guarantees a set bit
  const auto i = static_cast<std::uint32_t>(
      w * 64 + static_cast<std::size_t>(std::countr_zero(free_bits_[w])));
  clear_bit(free_bits_, i);
  set_bit(unissued_, i);
  ++unissued_count_;
  tags_[i] = block_addr;
  MshrEntry& e = entries_[i];
  e.is_prefetch = true;
  e.core = core;
  e.fill_id = kNoRequest;
  e.allocated = now;
  e.targets.clear();
  --free_;
  if (i >= limit_) limit_ = i + 1;
  return i;
}

void MshrFile::add_target(std::uint32_t idx, const MshrTarget& target) {
  util::require(can_add_target(idx), "MshrFile::add_target on full/invalid entry");
  entries_[idx].targets.push_back(target);
}

bool MshrFile::issued(std::uint32_t idx) const {
  util::require(valid(idx), "MshrFile::issued on invalid entry");
  return (unissued_[idx >> 6] & (std::uint64_t{1} << (idx & 63))) == 0;
}

void MshrFile::mark_issued(std::uint32_t idx, RequestId fill_id) {
  util::require(!issued(idx), "MshrFile::mark_issued twice");
  clear_bit(unissued_, idx);
  --unissued_count_;
  entries_[idx].fill_id = fill_id;
}

std::vector<MshrTarget> MshrFile::release(std::uint32_t idx) {
  std::vector<MshrTarget> out;
  release_into(idx, out);
  return out;
}

void MshrFile::release_into(std::uint32_t idx, std::vector<MshrTarget>& out) {
  util::require(valid(idx), "MshrFile::release on invalid entry");
  if (!issued(idx)) {
    clear_bit(unissued_, idx);
    --unissued_count_;
  }
  tags_[idx] = kNoBlock;
  set_bit(free_bits_, idx);
  while (limit_ > 0 && tags_[limit_ - 1] == kNoBlock) --limit_;
  MshrEntry& e = entries_[idx];
  out.clear();
  out.swap(e.targets);  // entry inherits out's old storage
  e.is_prefetch = false;
  e.core = kNoCore;
  e.fill_id = kNoRequest;
  e.allocated = 0;
  e.targets.reserve(max_targets_);
  ++free_;
}

MshrEntry& MshrFile::entry(std::uint32_t idx) { return entries_.at(idx); }
const MshrEntry& MshrFile::entry(std::uint32_t idx) const { return entries_.at(idx); }

std::uint32_t MshrFile::in_use_by(CoreId core) const {
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < limit_; ++i) {
    if (tags_[i] != kNoBlock && entries_[i].core == core) ++n;
  }
  return n;
}

std::uint32_t MshrFile::outstanding_targets() const {
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < limit_; ++i) {
    if (tags_[i] != kNoBlock) n += static_cast<std::uint32_t>(entries_[i].targets.size());
  }
  return n;
}

std::vector<std::uint32_t> MshrFile::valid_entries() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < limit_; ++i) {
    if (tags_[i] != kNoBlock) out.push_back(i);
  }
  return out;
}

}  // namespace lpm::mem
