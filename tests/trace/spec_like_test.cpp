#include "trace/spec_like.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace lpm::trace {
namespace {

TEST(SpecLike, CatalogHasSixteenDistinctBenchmarks) {
  const auto& all = all_spec_benchmarks();
  EXPECT_EQ(all.size(), 16u);
  std::set<std::string> names;
  for (const auto b : all) names.insert(spec_name(b));
  EXPECT_EQ(names.size(), 16u);
}

TEST(SpecLike, AllProfilesValidate) {
  for (const auto b : all_spec_benchmarks()) {
    EXPECT_NO_THROW(spec_profile(b).validate()) << spec_name(b);
  }
}

TEST(SpecLike, ProfileNamesMatchBenchmarkNames) {
  for (const auto b : all_spec_benchmarks()) {
    EXPECT_EQ(spec_profile(b).name, spec_name(b));
  }
}

TEST(SpecLike, LengthAndSeedPropagate) {
  const auto p = spec_profile(SpecBenchmark::kGcc, 12345, 99);
  EXPECT_EQ(p.length, 12345u);
  EXPECT_EQ(p.seed, 99u);
}

TEST(SpecLike, QualitativeCharacterisations) {
  // bzip2's hot set fits a 4 KB L1; gcc needs much more.
  EXPECT_LE(spec_profile(SpecBenchmark::kBzip2).working_set_bytes, 4u * 1024);
  EXPECT_GT(spec_profile(SpecBenchmark::kGcc).working_set_bytes, 32u * 1024);
  // mcf chases pointers; bwaves streams.
  EXPECT_GT(spec_profile(SpecBenchmark::kMcf).pointer_chase_fraction, 0.5);
  EXPECT_GT(spec_profile(SpecBenchmark::kBwaves).seq_fraction, 0.7);
  EXPECT_GE(spec_profile(SpecBenchmark::kBwaves).num_streams, 4u);
  // milc's footprint dwarfs any L1.
  EXPECT_GT(spec_profile(SpecBenchmark::kMilc).working_set_bytes, 1u << 23);
  // compute-bound codes have low fmem.
  EXPECT_LT(spec_profile(SpecBenchmark::kNamd).fmem, 0.3);
  EXPECT_LT(spec_profile(SpecBenchmark::kGromacs).fmem, 0.3);
}

TEST(SpecLike, MakeTraceProducesWorkingSource) {
  const auto p = spec_profile(SpecBenchmark::kBwaves, 1000);
  auto t = make_trace(p);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(materialize(*t, 1001).size(), 1000u);
  EXPECT_EQ(t->name(), "410.bwaves");
}

TEST(SpecLike, BurstProfileHasPhases) {
  const auto p = burst_profile(64, 0.3);
  EXPECT_EQ(p.phase_length, 64u);
  EXPECT_DOUBLE_EQ(p.burst_duty, 0.3);
  EXPECT_GT(p.burst_fmem, p.fmem);
  EXPECT_NO_THROW(p.validate());
}

TEST(SpecLike, DifferentSeedsGiveDifferentStreams) {
  auto t1 = make_trace(spec_profile(SpecBenchmark::kSoplex, 1000, 1));
  auto t2 = make_trace(spec_profile(SpecBenchmark::kSoplex, 1000, 2));
  const std::vector<MicroOp> a = materialize(*t1, 1000);
  const std::vector<MicroOp> b = materialize(*t2, 1000);
  ASSERT_EQ(a.size(), b.size());
  int diffs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].addr != b[i].addr) ++diffs;
  }
  EXPECT_GT(diffs, 100);
}

}  // namespace
}  // namespace lpm::trace
