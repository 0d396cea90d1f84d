// The engine's calibration memo: jobs that share a core and a workload run
// sim::measure_cpi_exe once per engine, at any thread count; a memoized
// calibration equals a fresh one; a failed build is never stored, and a
// caller that waited on it builds the key itself; cache_enabled=false turns
// the memo off.
#include "exp/calibration_memo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment_engine.hpp"
#include "obs/metrics.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace lpm::exp {
namespace {

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().snapshot().counter_or_zero(name);
}

/// Counter deltas across one scope.
struct Deltas {
  std::uint64_t sim0 = counter("sim.calibrations");
  std::uint64_t hits0 = counter("exp.calibration_hits");
  std::uint64_t failed0 = counter("exp.jobs.failed");
  [[nodiscard]] std::uint64_t sim() const { return counter("sim.calibrations") - sim0; }
  [[nodiscard]] std::uint64_t hits() const {
    return counter("exp.calibration_hits") - hits0;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return counter("exp.jobs.failed") - failed0;
  }
};

trace::WorkloadProfile workload() {
  return trace::spec_profile(trace::SpecBenchmark::kBwaves, 8'000, 5);
}

/// `n` calibrating jobs on one core and one workload that differ only in
/// their L1 size: n distinct points, one distinct calibration.
std::vector<SimJob> same_core_jobs(int n, sim::MachineConfig machine =
                                              sim::MachineConfig::single_core_default()) {
  std::vector<SimJob> jobs;
  for (int i = 0; i < n; ++i) {
    machine.l1.size_bytes = (8u * 1024u) << (i % 5);
    machine.l1.mshr_entries = 4u + static_cast<std::uint32_t>(i / 5);
    jobs.push_back(SimJob::solo(machine, workload(), /*calibrate=*/true,
                                "same-core-" + std::to_string(i)));
  }
  return jobs;
}

ExperimentEngine make_engine(unsigned threads, bool cache = true) {
  return ExperimentEngine(
      ExperimentEngine::Options::builder().threads(threads).cache(cache).build());
}

class CalibrationMemoThreads : public ::testing::TestWithParam<unsigned> {};

INSTANTIATE_TEST_SUITE_P(Engine, CalibrationMemoThreads, ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST_P(CalibrationMemoThreads, JobsSharingACoreCalibrateOnce) {
  ExperimentEngine engine = make_engine(GetParam());
  const std::vector<SimJob> jobs = same_core_jobs(8);
  const Deltas d;
  const auto results = engine.run_batch(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  EXPECT_EQ(engine.simulations_executed(), jobs.size());
  EXPECT_EQ(d.sim(), 1u);
  EXPECT_EQ(d.hits(), jobs.size() - 1);
  for (const auto& r : results) {
    ASSERT_EQ(r->calib.size(), 1u);
    EXPECT_EQ(r->calib[0].cycles, results[0]->calib[0].cycles);
  }

  // A later batch on the same engine reuses it too.
  const Deltas later;
  (void)engine.run_batch(same_core_jobs(10));  // 8 cached points + 2 new
  EXPECT_EQ(later.sim(), 0u);
  EXPECT_EQ(later.hits(), 2u);
}

TEST_P(CalibrationMemoThreads, DistinctCoresEachCalibrateOnce) {
  ExperimentEngine engine = make_engine(GetParam());
  std::vector<SimJob> jobs;
  for (const std::uint32_t rob : {32u, 64u, 96u}) {
    sim::MachineConfig m = sim::MachineConfig::single_core_default();
    m.core.rob_size = rob;
    m.core.iw_size = rob / 2;
    for (SimJob& j : same_core_jobs(3, m)) jobs.push_back(std::move(j));
  }
  const Deltas d;
  (void)engine.run_batch(jobs);
  EXPECT_EQ(d.sim(), 3u);
  EXPECT_EQ(d.hits(), 6u);
}

TEST(CalibrationMemo, MemoizedEqualsFresh) {
  ExperimentEngine engine = make_engine(4);
  const std::vector<SimJob> jobs = same_core_jobs(4);
  const auto results = engine.run_batch(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const trace::TraceSourcePtr t = trace::make_trace(jobs[i].workloads[0]);
    const sim::CpiExeResult fresh = sim::measure_cpi_exe(jobs[i].machine, *t);
    const sim::CpiExeResult& memo = results[i]->calib.at(0);
    EXPECT_EQ(memo.cpi_exe, fresh.cpi_exe) << i;
    EXPECT_EQ(memo.fmem, fresh.fmem) << i;
    EXPECT_EQ(memo.instructions, fresh.instructions) << i;
    EXPECT_EQ(memo.cycles, fresh.cycles) << i;
  }
}

TEST(CalibrationMemo, KeyIsWhatTheCalibrationReads) {
  const sim::MachineConfig base = sim::MachineConfig::single_core_default();
  const trace::WorkloadProfile wl = workload();
  const std::uint64_t k = CalibrationMemo::key(base, wl);

  // Caches other than the L1's hit latency, and the core id, do not enter.
  sim::MachineConfig same = base;
  same.l1.size_bytes *= 4;
  same.l1.mshr_entries += 4;
  same.l2.size_bytes *= 2;
  same.core.id = 3;
  EXPECT_EQ(CalibrationMemo::key(same, wl), k);

  sim::MachineConfig other = base;
  other.core.rob_size += 8;
  EXPECT_NE(CalibrationMemo::key(other, wl), k);
  other = base;
  other.l1.hit_latency += 1;
  EXPECT_NE(CalibrationMemo::key(other, wl), k);
  other = base;
  other.max_cycles += 1;
  EXPECT_NE(CalibrationMemo::key(other, wl), k);
  trace::WorkloadProfile other_wl = wl;
  other_wl.seed += 1;
  EXPECT_NE(CalibrationMemo::key(base, other_wl), k);
}

TEST(CalibrationMemo, CacheDisabledRecomputesEveryJob) {
  ExperimentEngine engine = make_engine(4, /*cache=*/false);
  const std::vector<SimJob> jobs = same_core_jobs(5);
  const Deltas d;
  (void)engine.run_batch(jobs);
  EXPECT_EQ(d.sim(), jobs.size());
  EXPECT_EQ(d.hits(), 0u);
}

TEST(CalibrationMemo, ClearCacheDropsCalibrations) {
  ExperimentEngine engine = make_engine(1);
  const Deltas d;
  (void)engine.run_batch(same_core_jobs(2));
  engine.clear_cache();
  (void)engine.run_batch(same_core_jobs(2));
  EXPECT_EQ(d.sim(), 2u);
}

sim::CpiExeResult fake_result(std::uint64_t cycles) {
  sim::CpiExeResult r;
  r.cycles = cycles;
  r.instructions = 100;
  r.cpi_exe = static_cast<double>(cycles) / 100.0;
  return r;
}

TEST(CalibrationMemo, FailedBuildIsNotStored) {
  CalibrationMemo memo;
  // A watchdog timeout and an injected fault inside the build.
  EXPECT_THROW((void)memo.get(7, nullptr,
                              []() -> sim::CpiExeResult {
                                throw util::TimeoutError("cancelled by watchdog");
                              }),
               util::TimeoutError);
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_THROW((void)memo.get(7, nullptr,
                              []() -> sim::CpiExeResult {
                                throw util::SimError("injected fault: throw");
                              }),
               util::SimError);
  EXPECT_EQ(memo.size(), 0u);

  int builds = 0;
  bool hit = true;
  const sim::CpiExeResult r = memo.get(
      7, nullptr, [&] { ++builds; return fake_result(500); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(r.cycles, 500u);
  EXPECT_EQ(memo.size(), 1u);
  (void)memo.get(7, nullptr, [&] { ++builds; return fake_result(1); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(builds, 1);
}

TEST(CalibrationMemo, WaiterBuildsItselfAfterAFailedBuild) {
  CalibrationMemo memo;
  std::atomic<bool> building{false};
  std::atomic<int> builds{0};
  std::string first_error;
  std::thread first([&] {
    try {
      (void)memo.get(9, nullptr, [&]() -> sim::CpiExeResult {
        ++builds;
        building = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw util::SimError("first build failed");
      });
    } catch (const util::SimError& e) {
      first_error = e.what();
    }
  });
  while (!building) std::this_thread::yield();
  // Arrives while the first build runs, so it waits on it; when that build
  // fails it must build the key itself, not inherit the error.
  bool hit = true;
  const sim::CpiExeResult r = memo.get(
      9, nullptr, [&] { ++builds; return fake_result(42); }, &hit);
  first.join();
  EXPECT_EQ(first_error, "first build failed");
  EXPECT_FALSE(hit);
  EXPECT_EQ(r.cycles, 42u);
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(CalibrationMemo, CancelledWaiterTimesOut) {
  CalibrationMemo memo;
  std::atomic<bool> building{false};
  std::atomic<bool> release{false};
  std::thread builder([&] {
    (void)memo.get(11, nullptr, [&] {
      building = true;
      while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return fake_result(7);
    });
  });
  while (!building) std::this_thread::yield();
  sim::RunGuard guard;
  guard.cancel = true;
  EXPECT_THROW((void)memo.get(11, &guard, [] { return fake_result(8); }),
               util::TimeoutError);
  release = true;
  builder.join();
  EXPECT_EQ(memo.get(11, nullptr, [] { return fake_result(9); }).cycles, 7u);
}

TEST_P(CalibrationMemoThreads, FailedEngineCalibrationIsRecomputed) {
  // max_cycles too small for the calibration to finish: the run returns
  // incomplete, the calibration throws. Every job must fail on its own
  // calibration, not on a stored or inherited error; nothing is stored.
  sim::MachineConfig m = sim::MachineConfig::single_core_default();
  m.max_cycles = 500;
  ExperimentEngine engine = make_engine(GetParam());
  std::vector<SimJob> jobs = same_core_jobs(2, m);
  const Deltas d;
  const auto outcomes =
      engine.run_batch_outcomes(jobs, BatchOptions{FailurePolicy::kCollect});
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& o : outcomes) {
    EXPECT_FALSE(o.ok());
    EXPECT_NE(o.error_message.find("measure_cpi_exe"), std::string::npos)
        << o.error_message;
  }
  EXPECT_EQ(d.failed(), 2u);
  EXPECT_EQ(d.sim(), 0u);
  EXPECT_EQ(d.hits(), 0u);

  // Later jobs with the same calibration key build it again: the two
  // failed points (not in the job memo either) and one new point.
  const Deltas later;
  (void)engine.run_batch_outcomes(same_core_jobs(3, m),
                                  BatchOptions{FailurePolicy::kCollect});
  EXPECT_EQ(later.failed(), 3u);
  EXPECT_EQ(later.sim(), 0u);
  EXPECT_EQ(later.hits(), 0u);
}

}  // namespace
}  // namespace lpm::exp
