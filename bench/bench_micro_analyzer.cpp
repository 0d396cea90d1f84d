// Microbenchmarks (google-benchmark): the C-AMAT analyzer is meant to be a
// set of lightweight counters (paper Fig. 4); these benches quantify its
// per-cycle cost and the simulator's end-to-end throughput.
#include <benchmark/benchmark.h>

#include <memory>

#include "camat/analyzer.hpp"
#include "sim/system.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace lpm;

void BM_AnalyzerCycleActivity(benchmark::State& state) {
  camat::Analyzer a("bench");
  // A steady mix: four accesses in flight, one outstanding miss.
  a.on_access(1, 0, false);
  a.on_miss(1, 1);
  Cycle cycle = 2;
  for (auto _ : state) {
    a.on_cycle_activity(cycle++, 4);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AnalyzerCycleActivity);

void BM_AnalyzerMissLifecycle(benchmark::State& state) {
  camat::Analyzer a("bench");
  Cycle cycle = 0;
  RequestId id = 1;
  for (auto _ : state) {
    a.on_access(id, cycle, false);
    a.on_miss(id, cycle + 3);
    a.on_cycle_activity(cycle + 4, 0);
    a.on_miss_done(id, cycle + 20);
    ++id;
    cycle += 5;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AnalyzerMissLifecycle);

void BM_SystemThroughput(benchmark::State& state) {
  const auto workload = trace::spec_profile(
      trace::SpecBenchmark::kGcc, static_cast<std::uint64_t>(state.range(0)), 3);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    auto machine = sim::MachineConfig::single_core_default();
    std::vector<trace::TraceSourcePtr> traces;
    traces.push_back(std::make_unique<trace::SyntheticTrace>(workload));
    sim::System system(machine, std::move(traces));
    const auto r = system.run();
    benchmark::DoNotOptimize(r.cycles);
    instructions += r.cores[0].instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
  state.SetLabel("simulated instructions/s");
}
BENCHMARK(BM_SystemThroughput)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
  const auto workload =
      trace::spec_profile(trace::SpecBenchmark::kBwaves, 1u << 20, 5);
  trace::SyntheticTrace t(workload);
  trace::MicroOp op;
  std::uint64_t n = 0;
  for (auto _ : state) {
    if (t.fill(&op, 1) == 0) t.reset();
    benchmark::DoNotOptimize(op.addr);
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TraceGeneration);

}  // namespace

BENCHMARK_MAIN();
