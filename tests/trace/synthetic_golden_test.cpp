// Golden pins for live trace synthesis. The differential oracle cannot see
// generator drift (both simulators consume the same SyntheticTrace and
// util::Rng), so the exact streams are pinned here: the LPM2 content
// checksum of the first 50k ops of every SPEC profile and of a burst
// profile, and a raw Rng::next_below stream over bounds that cover the
// power-of-two and rejection-sampling paths. Any change to these values is
// a change to every simulated result and every trace fingerprint.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "trace/lpm2.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace lpm::trace {
namespace {

constexpr std::uint64_t kOps = 50'000;

/// The LPM2 content checksum of `profile`'s stream (what record_trace_v2
/// would write into the header), computed without touching the disk.
std::uint64_t content_checksum(const WorkloadProfile& profile) {
  SyntheticTrace source(profile);
  std::vector<MicroOp> ops(4096);
  std::vector<unsigned char> buf(ops.size() * kLpm2RecordBytes);
  util::Checksum64 checksum;
  while (const std::size_t got = source.fill(ops.data(), ops.size())) {
    for (std::size_t i = 0; i < got; ++i) {
      encode_record(ops[i], buf.data() + i * kLpm2RecordBytes);
    }
    checksum.update(buf.data(), got * kLpm2RecordBytes);
  }
  return checksum.digest();
}

TEST(SyntheticGolden, SpecProfileChecksumsArePinned) {
  const std::array<std::uint64_t, 16> expected = {
      0x1edba5e65199742fULL, 0x9960e3630d08daceULL,
      0x97fe30b9dce7b159ULL, 0x03ebdde9fc164378ULL,
      0x5920cf0b43006a2cULL, 0x74678b2aeec488f3ULL,
      0x4ef298278fa2a2a6ULL, 0x32af228dc9071a2bULL,
      0x80f0872699f47674ULL, 0x305942edff256153ULL,
      0x2a6e70c75aaa3626ULL, 0xbf5a3d7f4fd23f06ULL,
      0x64f403d1adc4a9f1ULL, 0xade2723ca1f1b914ULL,
      0x268dfbeef3cf4ba6ULL, 0x8130fc5b454d5ebaULL};
  const auto& benchmarks = all_spec_benchmarks();
  ASSERT_EQ(benchmarks.size(), expected.size());
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const WorkloadProfile p = spec_profile(benchmarks[i], kOps, /*seed=*/1);
    EXPECT_EQ(content_checksum(p), expected[i]) << spec_name(benchmarks[i]);
  }
}

TEST(SyntheticGolden, BurstProfileChecksumIsPinned) {
  const WorkloadProfile p =
      burst_profile(/*phase_length=*/2000, /*burst_duty=*/0.3, kOps, /*seed=*/1);
  EXPECT_EQ(content_checksum(p), 0x09e025fdf2e6570dULL);
}

TEST(SyntheticGolden, NextBelowStreamIsPinned) {
  // Eight draws per bound, bounds interleaved so a change in how many raw
  // words one bound consumes also shifts every later value.
  const std::array<std::uint64_t, 8> bounds = {
      1, 2, 3, 7, 8, 64, 1000, std::uint64_t{1} << 40};
  const std::array<std::uint64_t, 64> expected = {
      0, 0, 2, 6, 3, 34, 286, 877376170141,
      0, 0, 1, 1, 1, 53, 191, 116050203429,
      0, 1, 1, 2, 1, 57, 177, 885314929474,
      0, 0, 2, 1, 5, 47, 49, 454084432364,
      0, 1, 2, 0, 4, 62, 71, 240982917545,
      0, 1, 2, 2, 5, 51, 708, 929925723963,
      0, 1, 1, 2, 7, 55, 392, 864205433458,
      0, 0, 0, 6, 3, 33, 883, 317334199578};
  util::Rng rng(1);
  std::size_t k = 0;
  for (int round = 0; round < 8; ++round) {
    for (const std::uint64_t bound : bounds) {
      EXPECT_EQ(rng.next_below(bound), expected[k]) << "draw " << k;
      ++k;
    }
  }
  // The stream position after the draws is pinned too.
  EXPECT_EQ(rng.next_u64(), 0x9436a47fa3eb824bULL);
}

}  // namespace
}  // namespace lpm::trace
