#include "mem/mshr.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace lpm::mem {
namespace {

MshrTarget target(RequestId id) {
  MshrTarget t;
  t.id = id;
  t.kind = AccessKind::kRead;
  return t;
}

TEST(Mshr, AllocateFindRelease) {
  MshrFile f(2, 4);
  EXPECT_TRUE(f.can_allocate());
  const auto idx = f.allocate(0x1000, target(1), 5);
  EXPECT_EQ(f.in_use(), 1u);
  ASSERT_TRUE(f.find(0x1000).has_value());
  EXPECT_EQ(*f.find(0x1000), idx);
  EXPECT_FALSE(f.find(0x2000).has_value());
  const auto targets = f.release(idx);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0].id, 1u);
  EXPECT_EQ(f.in_use(), 0u);
  EXPECT_FALSE(f.find(0x1000).has_value());
}

TEST(Mshr, CoalescingUpToTargetLimit) {
  MshrFile f(1, 3);
  const auto idx = f.allocate(0x40, target(1), 0);
  EXPECT_TRUE(f.can_add_target(idx));
  f.add_target(idx, target(2));
  f.add_target(idx, target(3));
  EXPECT_FALSE(f.can_add_target(idx));
  EXPECT_THROW(f.add_target(idx, target(4)), util::LpmError);
  EXPECT_EQ(f.outstanding_targets(), 3u);
}

TEST(Mshr, ExhaustionBlocksAllocation) {
  MshrFile f(2, 2);
  f.allocate(0x0, target(1), 0);
  f.allocate(0x40, target(2), 0);
  EXPECT_FALSE(f.can_allocate());
  EXPECT_THROW(f.allocate(0x80, target(3), 0), util::LpmError);
}

TEST(Mshr, DuplicateBlockAllocationThrows) {
  MshrFile f(2, 2);
  f.allocate(0x40, target(1), 0);
  EXPECT_THROW(f.allocate(0x40, target(2), 0), util::LpmError);
}

TEST(Mshr, ReleaseRecyclesEntries) {
  MshrFile f(1, 2);
  const auto a = f.allocate(0x0, target(1), 0);
  f.release(a);
  EXPECT_TRUE(f.can_allocate());
  const auto b = f.allocate(0x40, target(2), 1);
  EXPECT_TRUE(f.find(0x40).has_value());
  EXPECT_EQ(f.entry(b).allocated, 1u);
}

TEST(Mshr, ValidEntriesEnumerates) {
  MshrFile f(4, 2);
  f.allocate(0x0, target(1), 0);
  f.allocate(0x40, target(2), 0);
  const auto v = f.valid_entries();
  EXPECT_EQ(v.size(), 2u);
}

TEST(Mshr, IssueFlagPersists) {
  MshrFile f(2, 2);
  const auto idx = f.allocate(0x0, target(1), 0);
  EXPECT_FALSE(f.issued(idx));
  f.mark_issued(idx, 42);
  EXPECT_TRUE(f.issued(idx));
  EXPECT_EQ(f.entry(idx).fill_id, 42u);
  f.release(idx);
  const auto idx2 = f.allocate(0x80, target(2), 1);
  EXPECT_FALSE(f.issued(idx2));  // reset on reallocation
  EXPECT_EQ(f.entry(idx2).fill_id, kNoRequest);
}

TEST(Mshr, AllocatesLowestFreeIndex) {
  // The cache sends fills downstream in index order, so the allocation
  // order is part of the timing model.
  MshrFile f(130, 1);
  for (std::uint32_t i = 0; i < 130; ++i) {
    EXPECT_EQ(f.allocate(0x40 * (i + 1), target(i), 0), i);
  }
  f.release(70);
  f.release(3);
  f.release(129);
  EXPECT_EQ(f.allocate(0x100000, target(200), 1), 3u);
  EXPECT_EQ(f.allocate(0x100040, target(201), 1), 70u);
  EXPECT_EQ(f.allocate(0x100080, target(202), 1), 129u);
  EXPECT_FALSE(f.can_allocate());
}

TEST(Mshr, TagArrayIsTheOnlyRecordOfHeldBlocks) {
  MshrFile f(4, 1);
  const auto a = f.allocate(0x40, target(1), 0);
  const auto b = f.allocate(0x80, target(2), 0);
  EXPECT_TRUE(f.valid(a));
  EXPECT_EQ(f.block(b), 0x80u);
  f.release(a);
  EXPECT_FALSE(f.valid(a));
  EXPECT_EQ(f.block(a), MshrFile::kNoBlock);
  EXPECT_FALSE(f.find(0x40).has_value());
  ASSERT_TRUE(f.find(0x80).has_value());
  EXPECT_EQ(*f.find(0x80), b);
  // A released block can be allocated again, and only once.
  const auto c = f.allocate(0x40, target(3), 1);
  EXPECT_EQ(c, a);
  EXPECT_THROW(f.allocate(0x40, target(4), 1), util::LpmError);
}

TEST(Mshr, UnissuedWalkIsInIndexOrderAndSkipsIssued) {
  MshrFile f(70, 1);
  for (std::uint32_t i = 0; i < 70; ++i) f.allocate(0x40 * (i + 1), target(i), 0);
  f.mark_issued(1, 1);
  f.mark_issued(65, 2);
  f.release(2);
  std::vector<std::uint32_t> seen;
  f.for_each_unissued([&](std::uint32_t idx) { seen.push_back(idx); });
  ASSERT_EQ(seen.size(), 67u);
  for (std::size_t k = 1; k < seen.size(); ++k) EXPECT_LT(seen[k - 1], seen[k]);
  EXPECT_EQ(seen[0], 0u);
  EXPECT_EQ(seen[1], 3u);
  EXPECT_TRUE(f.any_unissued());
  // Marking inside the walk, as the cache does when a fill is accepted.
  f.for_each_unissued([&](std::uint32_t idx) {
    if (idx % 2 == 0) f.mark_issued(idx, 100 + idx);
  });
  std::uint32_t left = 0;
  f.for_each_unissued([&](std::uint32_t idx) {
    EXPECT_EQ(idx % 2, 1u);
    f.mark_issued(idx, 100 + idx);
    ++left;
  });
  EXPECT_EQ(left, 33u);
  EXPECT_FALSE(f.any_unissued());
  EXPECT_THROW(f.mark_issued(0, 7), util::LpmError);
}

TEST(Mshr, InvalidConstructionThrows) {
  EXPECT_THROW(MshrFile(0, 1), util::LpmError);
  EXPECT_THROW(MshrFile(1, 0), util::LpmError);
}

TEST(Mshr, ReleaseInvalidThrows) {
  MshrFile f(2, 2);
  EXPECT_THROW(f.release(0), util::LpmError);
}

}  // namespace
}  // namespace lpm::mem
