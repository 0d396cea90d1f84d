#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace lpm::sim {
namespace {

std::vector<trace::TraceSourcePtr> one_trace(const trace::WorkloadProfile& p) {
  std::vector<trace::TraceSourcePtr> v;
  v.push_back(std::make_unique<trace::SyntheticTrace>(p));
  return v;
}

trace::WorkloadProfile small_workload(std::uint64_t length = 20000) {
  auto p = trace::spec_profile(trace::SpecBenchmark::kGcc, length, 11);
  return p;
}

TEST(MachineConfig, DefaultsValidate) {
  EXPECT_NO_THROW(MachineConfig::single_core_default().validate());
  EXPECT_NO_THROW(MachineConfig::nuca16().validate());
}

TEST(MachineConfig, Nuca16Topology) {
  const auto m = MachineConfig::nuca16();
  EXPECT_EQ(m.num_cores, 16u);
  ASSERT_EQ(m.l1_size_per_core.size(), 16u);
  EXPECT_EQ(m.l1_size_per_core[0], 4u * 1024);
  EXPECT_EQ(m.l1_size_per_core[4], 16u * 1024);
  EXPECT_EQ(m.l1_size_per_core[8], 32u * 1024);
  EXPECT_EQ(m.l1_size_per_core[15], 64u * 1024);
}

TEST(MachineConfig, MismatchedOverrideThrows) {
  auto m = MachineConfig::single_core_default();
  m.l1_size_per_core = {4096, 8192};
  EXPECT_THROW(m.validate(), util::LpmError);
}

TEST(System, RequiresOneTracePerCore) {
  auto m = MachineConfig::single_core_default();
  std::vector<trace::TraceSourcePtr> none;
  EXPECT_THROW(System(m, std::move(none)), util::LpmError);
}

TEST(System, SingleCoreRunCompletes) {
  auto m = MachineConfig::single_core_default();
  System sys(m, one_trace(small_workload()));
  const SystemResult r = sys.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.cores[0].instructions, 20000u);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.cores[0].ipc(), 0.0);
}

TEST(System, DeterministicAcrossRuns) {
  auto m = MachineConfig::single_core_default();
  System a(m, one_trace(small_workload()));
  System b(m, one_trace(small_workload()));
  const SystemResult ra = a.run();
  const SystemResult rb = b.run();
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.l1[0].accesses, rb.l1[0].accesses);
  EXPECT_EQ(ra.l1[0].misses, rb.l1[0].misses);
  EXPECT_EQ(ra.l2.accesses, rb.l2.accesses);
  EXPECT_EQ(ra.dram_stats.reads, rb.dram_stats.reads);
  EXPECT_EQ(ra.cores[0].data_stall_cycles, rb.cores[0].data_stall_cycles);
}

TEST(System, L1MissesFlowToL2AndDram) {
  auto m = MachineConfig::single_core_default();
  auto p = small_workload();
  p.working_set_bytes = 8 << 20;  // far beyond L1 and L2
  p.zipf_skew = 0.0;
  p.seq_fraction = 0.0;
  System sys(m, one_trace(p));
  const SystemResult r = sys.run();
  EXPECT_GT(r.l1_cache[0].misses, 0u);
  // Every L2 demand access is either an L1 demand fill (one per MSHR
  // allocation: misses minus coalesced) or an L1 prefetch fill.
  EXPECT_EQ(r.l2.accesses, r.l1_cache[0].misses - r.l1_cache[0].mshr_coalesced +
                               r.l1_cache[0].prefetches_issued);
  EXPECT_GT(r.dram_stats.reads, 0u);
}

TEST(System, TinyWorkingSetMostlyHitsInL1) {
  auto m = MachineConfig::single_core_default();
  auto p = small_workload();
  p.working_set_bytes = 2048;  // fits easily in 32 KB L1
  System sys(m, one_trace(p));
  const SystemResult r = sys.run();
  EXPECT_LT(r.mr1(0), 0.05);
}

TEST(System, MultiCoreRunCompletes) {
  auto m = MachineConfig::nuca16();
  m.num_cores = 4;
  m.l1_size_per_core = {4096, 16384, 32768, 65536};
  m.l1.num_cores = 4;
  m.l2.num_cores = 4;
  std::vector<trace::TraceSourcePtr> traces;
  for (int i = 0; i < 4; ++i) {
    auto p = trace::spec_profile(trace::SpecBenchmark::kBzip2, 8000,
                                 static_cast<std::uint64_t>(i) + 1);
    traces.push_back(std::make_unique<trace::SyntheticTrace>(p));
  }
  System sys(m, std::move(traces));
  const SystemResult r = sys.run();
  EXPECT_TRUE(r.completed);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r.cores[i].instructions, 8000u) << "core " << i;
  }
  // Per-core attribution sums to aggregate L2 accesses.
  std::uint64_t sum = 0;
  for (const auto a : r.l2_cache.core_accesses) sum += a;
  EXPECT_EQ(sum, r.l2_cache.accesses);
}

TEST(System, MaxCyclesGuardReturnsIncomplete) {
  auto m = MachineConfig::single_core_default();
  m.max_cycles = 50;  // far too few
  System sys(m, one_trace(small_workload()));
  const SystemResult r = sys.run();
  EXPECT_FALSE(r.completed);
  EXPECT_LE(r.cycles, 50u);
}

TEST(MeasureCpiExe, PerfectCacheBeatsRealRuns) {
  auto m = MachineConfig::single_core_default();
  trace::SyntheticTrace calib(small_workload());
  const CpiExeResult c = measure_cpi_exe(m, calib);
  EXPECT_GT(c.cpi_exe, 0.0);
  EXPECT_NEAR(c.fmem, 0.40, 0.03);

  System sys(m, one_trace(small_workload()));
  const SystemResult r = sys.run();
  EXPECT_GE(r.cores[0].cpi(), c.cpi_exe);
}

TEST(MeasureCpiExe, TraceIsResetForReuse) {
  auto m = MachineConfig::single_core_default();
  trace::SyntheticTrace t(small_workload());
  (void)measure_cpi_exe(m, t);
  trace::MicroOp op;
  EXPECT_EQ(t.fill(&op, 1), 1u);  // positioned at the start again
}

}  // namespace
}  // namespace lpm::sim
