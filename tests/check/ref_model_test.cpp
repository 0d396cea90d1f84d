// Differential equality of the reference model (check::RefSystem) and the
// optimized simulator (sim::System) on curated machines and workloads: the
// two implementations must produce bit-identical SystemResults. Where the
// fuzzer sweeps random machines, these cases pin the named configurations a
// reviewer will reach for first.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/diff.hpp"
#include "check/ref_system.hpp"
#include "check/replay.hpp"
#include "core/design_space.hpp"
#include "sim/machine_config.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_source.hpp"

namespace lpm::check {
namespace {

std::vector<trace::MicroOp> spec_ops(trace::SpecBenchmark b, std::uint64_t len,
                                     std::uint64_t seed) {
  trace::SyntheticTrace source(trace::spec_profile(b, len, seed));
  return trace::materialize(source, len);
}

ReplayCase make_case(sim::MachineConfig machine,
                     std::vector<std::vector<trace::MicroOp>> ops) {
  ReplayCase c;
  c.machine = std::move(machine);
  c.ops = std::move(ops);
  return c;
}

void expect_identical(const ReplayCase& c) {
  const sim::SystemResult opt = run_optimized(c);
  const sim::SystemResult ref = run_reference(c);
  EXPECT_EQ(opt, ref) << describe_divergence(opt, ref);
}

TEST(RefModel, SingleCoreDefaultMachineMatches) {
  auto machine = sim::MachineConfig::single_core_default();
  expect_identical(make_case(
      machine, {spec_ops(trace::SpecBenchmark::kMcf, 5000, 11)}));
}

TEST(RefModel, ComputeBoundWorkloadMatches) {
  auto machine = sim::MachineConfig::single_core_default();
  expect_identical(make_case(
      machine, {spec_ops(trace::SpecBenchmark::kGamess, 5000, 12)}));
}

TEST(RefModel, ThreeLevelMachineMatches) {
  auto machine = sim::MachineConfig::three_level_default();
  expect_identical(make_case(
      machine, {spec_ops(trace::SpecBenchmark::kMilc, 5000, 13)}));
}

TEST(RefModel, MultiCoreSharedL2Matches) {
  auto machine = sim::MachineConfig::single_core_default();
  machine.num_cores = 4;
  expect_identical(make_case(
      machine, {spec_ops(trace::SpecBenchmark::kMcf, 3000, 21),
                spec_ops(trace::SpecBenchmark::kBwaves, 3000, 22),
                spec_ops(trace::SpecBenchmark::kGcc, 3000, 23),
                spec_ops(trace::SpecBenchmark::kLibquantum, 3000, 24)}));
}

TEST(RefModel, HeterogeneousL1SizesMatch) {
  auto machine = sim::MachineConfig::single_core_default();
  machine.num_cores = 2;
  machine.l1_size_per_core = {4 * 1024, 64 * 1024};
  expect_identical(make_case(
      machine, {spec_ops(trace::SpecBenchmark::kMcf, 3000, 31),
                spec_ops(trace::SpecBenchmark::kMcf, 3000, 32)}));
}

TEST(RefModel, PrefetcherAndRandomReplacementMatch) {
  // Stresses the stochastic and adaptive paths: random victims must come
  // from the same seeded stream, prefetch accuracy windows must adapt at
  // the same instants.
  auto machine = sim::MachineConfig::single_core_default();
  machine.l1.replacement = mem::ReplacementPolicy::kRandom;
  machine.l1.prefetch_degree = 4;
  machine.l1.prefetch_accuracy_window = 32;
  machine.l2.replacement = mem::ReplacementPolicy::kSrrip;
  expect_identical(make_case(
      machine, {spec_ops(trace::SpecBenchmark::kBwaves, 5000, 41)}));
}

TEST(RefModel, TinyCacheThrashingMatches) {
  // A 4-set direct-mapped L1 with a 1-entry write buffer maximizes the
  // eviction / deferred-fill / MSHR-wait traffic where the optimized
  // fast paths are most aggressive.
  auto machine = sim::MachineConfig::single_core_default();
  machine.l1.size_bytes = 256;
  machine.l1.associativity = 1;
  machine.l1.writeback_capacity = 1;
  machine.l1.mshr_entries = 2;
  machine.l1.mshr_targets = 2;
  expect_identical(make_case(
      machine, {spec_ops(trace::SpecBenchmark::kMcf, 5000, 51)}));
}

TEST(RefModel, StepByStepStateAgrees) {
  // Lockstep stepping: the systems must agree at every cycle, not only at
  // the end (catches transient divergence that happens to cancel out).
  auto machine = sim::MachineConfig::single_core_default();
  const auto ops = spec_ops(trace::SpecBenchmark::kGcc, 1000, 61);
  const ReplayCase c = make_case(machine, {ops});

  sim::System opt(c.machine, c.make_traces());
  RefSystem ref(c.machine, c.make_traces());
  for (int i = 0; i < 200; ++i) {
    const bool opt_stepped = opt.step();
    const bool ref_stepped = ref.step();
    ASSERT_EQ(opt_stepped, ref_stepped) << "at step " << i;
    if (!opt_stepped) break;
  }
  EXPECT_EQ(opt.now(), ref.now());
}

// The shapes the LPM walk reaches are far wider than the fuzzer's draws
// (2-16 MSHRs, 1-2 banks, DRAM queues of 8-32, ROBs of at most 64), so the
// wide MSHR files, heavily banked L2s and deep DRAM queues get curated
// cases of their own.
TEST(RefModel, TableIConfigsMatchOnBwaves) {
  const core::ArchKnobs columns[] = {
      core::ArchKnobs::config_a(), core::ArchKnobs::config_b(),
      core::ArchKnobs::config_c(), core::ArchKnobs::config_d(),
      core::ArchKnobs::config_e()};
  std::uint64_t seed = 71;
  for (const core::ArchKnobs& knobs : columns) {
    SCOPED_TRACE(knobs.label());
    const sim::MachineConfig machine =
        knobs.apply(sim::MachineConfig::single_core_default());
    expect_identical(make_case(
        machine, {spec_ops(trace::SpecBenchmark::kBwaves, 5000, seed++)}));
  }
}

TEST(RefModel, OverProvisionedWalkStartMatches) {
  // The top of every knob's range: issue 16, 256-entry window and ROB, 16
  // L1 ports, 64 L1 MSHRs (128 at L2) and L2 interleave 512.
  const core::ArchKnobs top{16, 256, 256, 16, 64, 512};
  const sim::MachineConfig machine =
      top.apply(sim::MachineConfig::single_core_default());
  ASSERT_EQ(machine.l2.mshr_entries, 128u);
  expect_identical(make_case(
      machine, {spec_ops(trace::SpecBenchmark::kBwaves, 8000, 81)}));
}

TEST(RefModel, Nuca16SixteenAppsMatch) {
  // Sixteen cores contending for a 16-bank LLC with 64 MSHRs and a DRAM
  // controller with a 256-entry queue issuing 8 commands per cycle.
  const sim::MachineConfig machine = sim::MachineConfig::nuca16();
  ASSERT_EQ(machine.dram.queue_capacity, 256u);
  std::vector<std::vector<trace::MicroOp>> ops;
  std::uint64_t seed = 91;
  for (const trace::SpecBenchmark b : trace::all_spec_benchmarks()) {
    ops.push_back(spec_ops(b, 2000, seed++));
  }
  ASSERT_EQ(ops.size(), machine.num_cores);
  expect_identical(make_case(machine, std::move(ops)));
}

}  // namespace
}  // namespace lpm::check
