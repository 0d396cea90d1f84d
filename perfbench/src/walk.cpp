// `walk`: the three cycle-backend LPM walks of bench_lpm_convergence
// (410.bwaves, 400k ops, traces synthesized live) on one engine with a
// fixed worker count.
#include <set>
#include <unordered_set>

#include "bench.hpp"

namespace perfbench {

using namespace lpm;

namespace {

/// Forwards every LpmTunable call to the explorer inside a span, so the
/// walk's calls into core:: nest under the facade's run_lpm_walk span.
class SpannedTunable final : public core::LpmTunable {
 public:
  explicit SpannedTunable(core::DesignSpaceExplorer& ex) : ex_(ex) {}
  core::LpmObservation measure() override {
    Span s("core.measure");
    return ex_.measure();
  }
  bool optimize_l1() override {
    Span s("core.optimize_l1");
    return ex_.optimize_l1();
  }
  bool optimize_l2() override {
    Span s("core.optimize_l2");
    return ex_.optimize_l2();
  }
  bool reduce_overprovision() override {
    Span s("core.reduce_overprovision");
    return ex_.reduce_overprovision();
  }
  void prefetch_candidates() override {
    Span s("core.prefetch_candidates");
    ex_.prefetch_candidates();
  }

 private:
  core::DesignSpaceExplorer& ex_;
};

struct WalkPlan {
  const char* name;
  core::ArchKnobs start;
  double delta;
};

std::vector<WalkPlan> walk_plans() {
  core::ArchKnobs fat;  // Case III: the over-provisioned start
  fat.issue_width = 8;
  fat.iw_size = 256;
  fat.rob_size = 256;
  fat.l1_ports = 8;
  fat.mshr_entries = 64;
  fat.l2_interleave = 16;
  return {{"coarse-A", core::ArchKnobs::config_a(), core::kCoarseGrainedDelta},
          {"fine-A", core::ArchKnobs::config_a(), core::kFineGrainedDelta},
          {"coarse-trim", fat, core::kCoarseGrainedDelta}};
}

}  // namespace

void run_walk(const Options& opt, Report& rep) {
  const sim::MachineConfig base = sim::MachineConfig::single_core_default();
  const std::vector<WalkPlan> plans = walk_plans();

  // Set-up: the workload profile, the engine's pool start and the three
  // explorers. One set-up takes about 0.1 ms, so set-ups are timed in
  // blocks, each torn down before the next, and the median block is
  // reported per set-up. The last set-up runs the walks.
  constexpr int kBlocks = 9, kSetupsPerBlock = 25;
  trace::WorkloadProfile workload;
  std::unique_ptr<exp::ExperimentEngine> engine;
  std::vector<std::unique_ptr<core::DesignSpaceExplorer>> explorers;
  std::vector<double> setups;
  for (int block = 0; block < kBlocks; ++block) {
    const Clock::time_point t0 = Clock::now();
    for (int k = 0; k < kSetupsPerBlock; ++k) {
      explorers.clear();
      engine.reset();
      workload = trace::spec_profile(trace::SpecBenchmark::kBwaves,
                                     opt.smoke ? 20'000 : 400'000, opt.seed);
      {
        Span s("facade.make_engine");
        engine = make_engine({.threads = opt.workers});
      }
      for (const WalkPlan& plan : plans) {
        Span s("core.DesignSpaceExplorer");
        explorers.push_back(std::make_unique<core::DesignSpaceExplorer>(
            base, workload, core::KnobLevels::standard(), plan.start, plan.delta,
            engine.get(), exp::kCycleBackend));
      }
    }
    setups.push_back(seconds_since(t0) / kSetupsPerBlock);
  }
  rep.setup_s = percentile(setups, 50);

  std::vector<core::LpmOutcome> outcomes;
  std::vector<double> walk_s;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t w = 0; w < plans.size(); ++w) {
    const Clock::time_point w0 = Clock::now();
    core::LpmAlgorithmConfig cfg;
    cfg.delta_percent = plans[w].delta;
    cfg.max_iterations = 24;
    cfg.trim_overprovision = true;
    cfg.margin_fraction = 0.5;
    SpannedTunable tunable(*explorers[w]);
    {
      Span s("facade.run_lpm_walk");
      outcomes.push_back(run_lpm_walk(tunable, cfg));
    }
    walk_s.push_back(seconds_since(w0));
  }
  rep.run_s = seconds_since(t0);

  // Everything below reads memoized results; nothing is simulated again.
  std::unordered_set<std::uint64_t> seen;
  std::set<core::ArchKnobs> configs;
  std::set<std::string> on_path;
  std::vector<const sim::SystemResult*> runs;
  double busy_ms = 0.0;
  std::uint64_t steps = 0;
  std::vector<exp::SimJob> points;
  std::vector<exp::SimResultPtr> point_results;
  for (std::size_t w = 0; w < explorers.size(); ++w) {
    core::DesignSpaceExplorer& ex = *explorers[w];
    const core::LpmOutcome& out = outcomes[w];
    const std::string name = plans[w].name;
    steps += out.steps.size();
    rep.op(!out.steps.empty() && !out.final_observation.config_label.empty(),
           name + ": walk took no steps");
    rep.outcome.push_back(name + " -> " + ex.current().label() +
                          (out.converged ? " converged" : " exhausted") +
                          " steps=" + std::to_string(out.steps.size()));
    for (const core::LpmStep& st : out.steps) on_path.insert(st.observation.config_label);
    on_path.insert(out.final_observation.config_label);
    for (const core::ArchKnobs& k : ex.visited()) {
      configs.insert(k);
      const model::LayerEstimates& est = ex.estimate(k);
      const exp::SimJobResult& r = *est.result;
      if (!seen.insert(r.fingerprint).second) continue;
      points.push_back(exp::SimJob::solo(k.apply(base), workload, true));
      point_results.push_back(est.result);
      std::string why = check_result(r.run);
      if (points.back().fingerprint() != r.fingerprint) why = "job reconstruction differs";
      rep.op(why.empty(), name + " " + k.label() + ": " + why);
      rep.digest.add(r.run);
      rep.instructions += committed_instructions(r);
      busy_ms += r.duration_ms;
      runs.push_back(&r.run);
    }
  }
  for (const std::string& line : rep.outcome) rep.digest.add(line);

  const std::uint64_t executed = engine->simulations_executed();
  const std::uint64_t hits = engine->cache_hits();
  rep.op(seen.size() == executed,
         "engine executed " + std::to_string(executed) + " jobs but the walks hold " +
             std::to_string(seen.size()) + " distinct results");
  rep.configs = configs.size();
  rep.jobs = executed + hits;
  rep.counts["exp.jobs_executed"] = static_cast<double>(executed);
  rep.counts["exp.cache_hits"] = static_cast<double>(hits);
  rep.counts["core.walk_steps"] = static_cast<double>(steps);
  rep.counts["core.configs_on_path"] = static_cast<double>(on_path.size());
  add_result_counts(runs, rep);

  if (!opt.traced) return;
  double walk_total = 0.0;
  for (const double s : walk_s) walk_total += s;
  double explorer_calls = 0.0;
  for (const char* n : {"core.measure", "core.optimize_l1", "core.optimize_l2",
                        "core.reduce_overprovision", "core.prefetch_candidates"}) {
    explorer_calls += Tracer::total_seconds(n);
  }
  rep.layers["core.walk_s"] = walk_total;
  rep.layers["exp.batch_wait_s"] = explorer_calls;
  rep.layers["exp.worker_busy_ratio"] =
      busy_ms / (1000.0 * opt.workers * rep.run_s);
  rep.layers["exp.spec_useful_ratio"] =
      executed ? static_cast<double>(on_path.size()) / static_cast<double>(executed) : 0.0;

  LayerInputs in;
  in.solo_machine = explorers.front()->current().apply(base);
  in.synthetic = {workload};
  // Walk configurations differ in their cores, so each analytic estimate
  // needs its own 400k-op calibration: the model phase takes the first 16.
  points.resize(std::min<std::size_t>(points.size(), 16));
  point_results.resize(points.size());
  in.cycle_points = std::move(points);
  in.cycle_results = std::move(point_results);
  measure_layers(in, rep);
}

}  // namespace perfbench
