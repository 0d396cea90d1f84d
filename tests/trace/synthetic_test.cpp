#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/error.hpp"

namespace lpm::trace {
namespace {

WorkloadProfile small_profile() {
  WorkloadProfile p;
  p.name = "test";
  p.fmem = 0.4;
  p.working_set_bytes = 64 * 1024;
  p.length = 20000;
  p.seed = 5;
  return p;
}

/// Every op the trace still holds (asks for one more than the profile
/// length, so an over-long stream shows up as a size mismatch).
std::vector<MicroOp> drain(SyntheticTrace& t) {
  return materialize(t, t.profile().length + 1);
}

TEST(SyntheticTrace, EmitsExactlyLengthOps) {
  SyntheticTrace t(small_profile());
  EXPECT_EQ(drain(t).size(), small_profile().length);
  MicroOp op;
  EXPECT_EQ(t.fill(&op, 1), 0u);  // stays exhausted
}

TEST(SyntheticTrace, ResetReplaysIdenticalStream) {
  SyntheticTrace t(small_profile());
  const std::vector<MicroOp> first = drain(t);
  t.reset();
  const std::vector<MicroOp> again = drain(t);
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(again[i].type, first[i].type);
    EXPECT_EQ(again[i].addr, first[i].addr);
    EXPECT_EQ(again[i].dep_dist, first[i].dep_dist);
    EXPECT_EQ(again[i].dep_dist2, first[i].dep_dist2);
  }
}

TEST(SyntheticTrace, FmemMatchesProfile) {
  auto p = small_profile();
  p.fmem = 0.35;
  p.length = 50000;
  SyntheticTrace t(p);
  std::uint64_t mem = 0;
  std::uint64_t total = 0;
  for (const MicroOp& op : drain(t)) {
    ++total;
    if (is_memory(op.type)) ++mem;
  }
  EXPECT_NEAR(static_cast<double>(mem) / total, 0.35, 0.01);
}

TEST(SyntheticTrace, StoreFractionRespected) {
  auto p = small_profile();
  p.store_fraction = 0.25;
  p.length = 50000;
  SyntheticTrace t(p);
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  for (const MicroOp& op : drain(t)) {
    if (op.type == OpType::kLoad) ++loads;
    if (op.type == OpType::kStore) ++stores;
  }
  EXPECT_NEAR(static_cast<double>(stores) / (loads + stores), 0.25, 0.02);
}

TEST(SyntheticTrace, AddressesStayInWorkingSet) {
  auto p = small_profile();
  p.working_set_bytes = 4096;
  SyntheticTrace t(p);
  for (const MicroOp& op : drain(t)) {
    if (is_memory(op.type)) {
      EXPECT_LT(op.addr, p.working_set_bytes);
    }
  }
}

TEST(SyntheticTrace, PointerChaseCreatesLoadDeps) {
  auto p = small_profile();
  p.pointer_chase_fraction = 1.0;
  p.seq_fraction = 0.0;
  p.store_fraction = 0.0;
  p.length = 5000;
  SyntheticTrace t(p);
  std::uint64_t idx = 0;
  std::uint64_t last_load = ~std::uint64_t{0};
  std::uint64_t chained = 0;
  std::uint64_t loads_after_first = 0;
  for (const MicroOp& op : drain(t)) {
    if (op.type == OpType::kLoad) {
      if (last_load != ~std::uint64_t{0}) {
        ++loads_after_first;
        if (op.dep_dist == idx - last_load) ++chained;
      }
      last_load = idx;
    }
    ++idx;
  }
  EXPECT_GT(loads_after_first, 0u);
  EXPECT_EQ(chained, loads_after_first);  // every load chains to the previous
}

TEST(SyntheticTrace, NoPointerChaseMeansIndependentLoads) {
  auto p = small_profile();
  p.pointer_chase_fraction = 0.0;
  p.load_use_fraction = 0.0;
  SyntheticTrace t(p);
  for (const MicroOp& op : drain(t)) {
    if (op.type == OpType::kLoad) EXPECT_EQ(op.dep_dist, 0u);
  }
}

TEST(SyntheticTrace, SequentialStreamsAdvanceByStride) {
  auto p = small_profile();
  p.seq_fraction = 1.0;
  p.num_streams = 1;
  p.stride_bytes = 64;
  p.fmem = 1.0;
  p.store_fraction = 0.0;
  p.length = 100;
  SyntheticTrace t(p);
  Addr prev = 0;
  bool first = true;
  for (const MicroOp& op : drain(t)) {
    if (!first) {
      const Addr expect = (prev + 64) % p.working_set_bytes;
      EXPECT_EQ(op.addr, expect);
    }
    prev = op.addr;
    first = false;
  }
}

TEST(SyntheticTrace, BurstPhaseGroundTruthIsDeterministic) {
  auto p = small_profile();
  p.phase_length = 100;
  p.burst_duty = 0.4;
  int bursts = 0;
  for (std::uint64_t ph = 0; ph < 200; ++ph) {
    const bool a = SyntheticTrace::is_burst_phase(p, ph);
    const bool b = SyntheticTrace::is_burst_phase(p, ph);
    EXPECT_EQ(a, b);
    if (a) ++bursts;
  }
  EXPECT_NEAR(bursts / 200.0, 0.4, 0.12);
}

TEST(SyntheticTrace, NoPhasesMeansNoBursts) {
  auto p = small_profile();
  p.phase_length = 0;
  EXPECT_FALSE(SyntheticTrace::is_burst_phase(p, 0));
  EXPECT_FALSE(SyntheticTrace::is_burst_phase(p, 5));
}

TEST(SyntheticTrace, BurstPhasesAreMoreMemoryIntense) {
  auto p = small_profile();
  p.fmem = 0.1;
  p.phase_length = 500;
  p.burst_duty = 0.5;
  p.burst_fmem = 0.9;
  p.length = 100000;
  SyntheticTrace t(p);
  std::uint64_t idx = 0;
  std::uint64_t burst_mem = 0, burst_total = 0, calm_mem = 0, calm_total = 0;
  for (const MicroOp& op : drain(t)) {
    const bool burst = SyntheticTrace::is_burst_phase(p, idx / p.phase_length);
    if (burst) {
      ++burst_total;
      if (is_memory(op.type)) ++burst_mem;
    } else {
      ++calm_total;
      if (is_memory(op.type)) ++calm_mem;
    }
    ++idx;
  }
  ASSERT_GT(burst_total, 0u);
  ASSERT_GT(calm_total, 0u);
  EXPECT_GT(static_cast<double>(burst_mem) / burst_total, 0.8);
  EXPECT_LT(static_cast<double>(calm_mem) / calm_total, 0.2);
}

TEST(WorkloadProfile, ValidationCatchesBadFields) {
  auto p = small_profile();
  p.fmem = 1.5;
  EXPECT_THROW(p.validate(), util::LpmError);
  p = small_profile();
  p.working_set_bytes = 8;
  EXPECT_THROW(p.validate(), util::LpmError);
  p = small_profile();
  p.num_streams = 0;
  EXPECT_THROW(p.validate(), util::LpmError);
  p = small_profile();
  p.length = 0;
  EXPECT_THROW(p.validate(), util::LpmError);
  p = small_profile();
  p.zipf_skew = -0.1;
  EXPECT_THROW(p.validate(), util::LpmError);
}

TEST(WorkloadProfile, ValidationRejectsNanProbabilities) {
  // The generator turns each probability into an integer threshold once
  // (util::Rng::chance), which has no meaning for NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double WorkloadProfile::*field :
       {&WorkloadProfile::fmem, &WorkloadProfile::store_fraction,
        &WorkloadProfile::seq_fraction, &WorkloadProfile::pointer_chase_fraction,
        &WorkloadProfile::load_use_fraction, &WorkloadProfile::alu_dep_fraction,
        &WorkloadProfile::burst_fmem, &WorkloadProfile::burst_seq_fraction}) {
    auto p = small_profile();
    p.*field = nan;
    EXPECT_THROW(p.validate(), util::LpmError);
  }
  auto p = small_profile();
  p.burst_seq_fraction = 1.5;
  EXPECT_THROW(p.validate(), util::LpmError);
}

TEST(VectorTrace, ReplaysAndResets) {
  std::vector<MicroOp> ops(3);
  ops[0].type = OpType::kAlu;
  ops[1].type = OpType::kLoad;
  ops[1].addr = 64;
  ops[2].type = OpType::kStore;
  VectorTrace t("vec", ops);
  MicroOp op;
  EXPECT_EQ(t.fill(&op, 1), 1u);
  EXPECT_EQ(op.type, OpType::kAlu);
  EXPECT_EQ(t.fill(&op, 1), 1u);
  EXPECT_EQ(op.addr, 64u);
  EXPECT_EQ(t.fill(&op, 1), 1u);
  EXPECT_EQ(t.fill(&op, 1), 0u);
  t.reset();
  EXPECT_EQ(t.fill(&op, 1), 1u);
  EXPECT_EQ(t.name(), "vec");
}

}  // namespace
}  // namespace lpm::trace
