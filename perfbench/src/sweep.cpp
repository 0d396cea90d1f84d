// `sweep`: Case Study II end to end. Set-up records the 16 SPEC-like
// traces to LPM2 files; the run profiles 16 apps x 4 L1 sizes as one engine
// batch (replayed through mmap), screens the same 64 points with `rdh`,
// schedules with NUCA-SA (1 % and 10 %), Round Robin and three Random
// placements, and co-runs every schedule on the 16-core NUCA CMP.
#include <cmath>
#include <filesystem>
#include <unordered_set>

#include "bench.hpp"

namespace perfbench {

using namespace lpm;

namespace {

const std::vector<std::uint64_t> kL1Sizes = {4096, 16384, 32768, 65536};

/// The single-core machine sched::Profiler derives from the CMP.
sim::MachineConfig profiler_machine(sim::MachineConfig m) {
  m.num_cores = 1;
  m.l1_size_per_core.clear();
  m.l1.num_cores = 1;
  m.l2.num_cores = 1;
  return m;
}

/// The 64 profiling jobs exactly as sched::Profiler::profile_many builds
/// them (calibration on each app's first size), at `backend` fidelity.
std::vector<exp::SimJob> grid_jobs(const sim::MachineConfig& cmp,
                                   const std::vector<trace::WorkloadProfile>& apps,
                                   const std::string& backend) {
  std::vector<exp::SimJob> jobs;
  for (const auto& wl : apps) {
    for (std::size_t s = 0; s < kL1Sizes.size(); ++s) {
      sim::MachineConfig m = profiler_machine(cmp);
      m.l1.size_bytes = kL1Sizes[s];
      exp::SimJob job = exp::SimJob::solo(std::move(m), wl, s == 0);
      job.backend = backend;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// The co-run job sched::evaluate_schedules builds for one placement.
exp::SimJob corun_job(const sim::MachineConfig& cmp,
                      const std::vector<sched::AppProfile>& apps,
                      const sched::Schedule& schedule) {
  exp::SimJob job;
  job.machine = cmp;
  job.workloads.resize(apps.size());
  for (std::size_t app = 0; app < apps.size(); ++app) {
    trace::WorkloadProfile wl = apps[app].workload;
    wl.addr_base = (static_cast<std::uint64_t>(app) + 1) << 30;
    job.workloads[schedule[app]] = std::move(wl);
  }
  return job;
}

struct Recorded {
  std::vector<trace::WorkloadProfile> synthetic;
  std::vector<trace::WorkloadProfile> files;
};

/// Records the 16 apps into `dir`. Each app's footprint sits in its own
/// 1 GiB slice, so the co-run's replayed traces never share pages.
Recorded record_apps(const std::string& dir, std::uint64_t length,
                     std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  Recorded out;
  const auto& benches = trace::all_spec_benchmarks();
  for (std::size_t i = 0; i < benches.size(); ++i) {
    trace::WorkloadProfile wl = trace::spec_profile(benches[i], length, seed);
    wl.addr_base = (static_cast<std::uint64_t>(i) + 1) << 30;
    const std::string path = dir + "/app" + std::to_string(i) + ".lpm2";
    trace::SyntheticTrace source(wl);
    trace::record_trace_v2(source, path);
    out.files.push_back(trace::trace_file_profile(path, wl.name));
    out.synthetic.push_back(std::move(wl));
  }
  return out;
}

}  // namespace

void run_sweep(const Options& opt, Report& rep) {
  const sim::MachineConfig cmp = sim::MachineConfig::nuca16();
  const std::uint64_t length = opt.smoke ? 4'000 : 40'000;

  // Set-up, three times over; the last engine and recording are kept.
  std::unique_ptr<exp::ExperimentEngine> engine;
  Recorded rec;
  std::vector<double> setups, records;
  for (int trial = 0; trial < 3; ++trial) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    {
      Span s("facade.make_engine");
      engine = make_engine({.threads = opt.workers});
    }
    model::register_analytic_executors();
    const Clock::time_point r0 = Clock::now();
    {
      Span s("trace.record_trace_v2");
      rec = record_apps("traces" + std::to_string(trial), length, opt.seed);
    }
    records.push_back(seconds_since(r0));
    setups.push_back(seconds_since(t0));
  }
  rep.setup_s = percentile(setups, 50);

  const Clock::time_point t0 = Clock::now();
  std::vector<sched::AppProfile> apps;
  {
    Span s("sched.profile_many");
    apps = sched::Profiler(cmp, engine.get()).profile_many(rec.files, kL1Sizes);
  }
  // The rdh screen builds each app's reuse profile and CPIexe calibration
  // on first touch, outside the model cache's lock, so two workers touching
  // one app at once would both build it. The first batch holds one point per
  // app (the calibrating one) and the second the rest, so every app is built
  // exactly once on every run.
  const obs::MetricsSnapshot model_before = obs::MetricsRegistry::global().snapshot();
  const std::vector<exp::SimJob> screen_jobs =
      grid_jobs(cmp, rec.files, model::kRdhBackend);
  std::vector<exp::SimJobOutcome> screen(screen_jobs.size());
  for (const bool first_touch : {true, false}) {
    std::vector<exp::SimJob> batch;
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < screen_jobs.size(); ++i) {
      if ((i % kL1Sizes.size() == 0) == first_touch) {
        batch.push_back(screen_jobs[i]);
        slots.push_back(i);
      }
    }
    Span s("exp.run_batch_outcomes");
    auto outcomes = engine->run_batch_outcomes(batch, {exp::FailurePolicy::kCollect, false});
    for (std::size_t k = 0; k < slots.size(); ++k) screen[slots[k]] = std::move(outcomes[k]);
  }
  const obs::MetricsSnapshot model_after = obs::MetricsRegistry::global().snapshot();
  sched::NucaSaScheduler fg(core::kFineGrainedDelta);
  sched::NucaSaScheduler cg(core::kCoarseGrainedDelta);
  sched::RoundRobinScheduler rr;
  sched::RandomScheduler rnd(opt.seed);
  // Random is the paper's baseline averaged over placements; three of them
  // make six co-runs, two full rounds on the fixed three-worker pool.
  std::vector<sched::ScheduleCandidate> candidates;
  std::vector<double> assign_s;
  for (sched::Scheduler* s :
       std::initializer_list<sched::Scheduler*>{&fg, &cg, &rr, &rnd, &rnd, &rnd}) {
    const Clock::time_point a0 = Clock::now();
    Span span("sched.assign");
    candidates.push_back({s->assign(apps, cmp.l1_size_per_core), s->name()});
    assign_s.push_back(seconds_since(a0));
  }
  std::vector<sched::EvalResult> evals;
  {
    Span s("sched.evaluate_schedules");
    evals = sched::evaluate_schedules(cmp, apps, candidates, engine.get());
  }
  rep.run_s = seconds_since(t0);
  const std::uint64_t executed = engine->simulations_executed();
  const std::uint64_t hits = engine->cache_hits();

  // Fetch the cycle results back from the engine's memo cache: every one
  // must be a hit, or the reconstruction above does not match the run.
  const std::vector<exp::SimJob> profile_jobs = grid_jobs(cmp, rec.files, exp::kCycleBackend);
  std::vector<exp::SimJob> corun_jobs;
  for (const auto& c : candidates) corun_jobs.push_back(corun_job(cmp, apps, c.schedule));
  const auto profiled = engine->run_batch_outcomes(profile_jobs, {exp::FailurePolicy::kCollect, false});
  const auto coruns = engine->run_batch_outcomes(corun_jobs, {exp::FailurePolicy::kCollect, false});

  std::unordered_set<std::uint64_t> seen;
  std::vector<const sim::SystemResult*> cycle_runs;
  double busy_ms = 0.0;
  const auto take = [&](const exp::SimJobOutcome& o, const std::string& what, bool cycle) {
    if (!o.ok()) {
      rep.op(false, what + ": " + o.error_message);
      return;
    }
    std::string why = check_result(o.result->run);
    if (cycle && !o.from_cache) why = "re-simulated after the run (job mismatch)";
    rep.op(why.empty(), what + ": " + why);
    rep.digest.add(o.result->run);
    if (!seen.insert(o.result->fingerprint).second) return;
    busy_ms += o.result->duration_ms;
    if (!cycle) return;
    cycle_runs.push_back(&o.result->run);
    rep.instructions += committed_instructions(*o.result);
  };
  for (std::size_t i = 0; i < profile_jobs.size(); ++i) {
    const std::string what = profile_jobs[i].workloads[0].name + " L1=" +
                             std::to_string(kL1Sizes[i % kL1Sizes.size()] / 1024) + "KB";
    take(profiled[i], what, true);
    take(screen[i], what + " rdh", false);
    // The screen's calibrations (one per app, on its first point) are
    // simulated; its estimates are not.
    if (screen[i].ok()) {
      for (const auto& c : screen[i].result->calib) rep.instructions += c.instructions;
    }
    if (profiled[i].ok() && screen[i].ok()) {
      rep.op(profiled[i].result->run.mr1(0) > 0.0 && screen[i].result->run.mr1(0) > 0.0,
             what + ": zero L1 miss rate");
    }
  }
  for (std::size_t i = 0; i < coruns.size(); ++i) {
    take(coruns[i], "co-run " + candidates[i].scheduler, true);
    char hsp[64];
    std::snprintf(hsp, sizeof hsp, " hsp=%.4f", evals[i].hsp);
    std::string placement;
    for (const std::size_t c : candidates[i].schedule) placement += std::to_string(c) + ",";
    rep.outcome.push_back(candidates[i].scheduler + " [" + placement + "]" + hsp);
    rep.op(evals[i].hsp > 0.0, candidates[i].scheduler + ": zero Hsp");
  }
  for (const std::string& line : rep.outcome) rep.digest.add(line);
  for (const char* counter : {"model.backend.calibrations", "model.backend.profile_builds"}) {
    const std::uint64_t built = counter_delta(model_before, model_after, counter);
    rep.op(built == rec.files.size(), std::string(counter) + " grew by " +
                                          std::to_string(built) + ", not once per app");
  }
  rep.op(seen.size() == executed,
         "engine executed " + std::to_string(executed) + " jobs, the sweep holds " +
             std::to_string(seen.size()) + " distinct results");
  rep.configs = seen.size();
  rep.jobs = executed + hits;
  rep.counts["exp.jobs_executed"] = static_cast<double>(executed);
  rep.counts["exp.cache_hits"] = static_cast<double>(hits);
  add_result_counts(cycle_runs, rep);

  if (!opt.traced) return;
  double assign_total = 0.0;
  for (const double s : assign_s) assign_total += s;
  rep.layers["sched.profile_s"] = Tracer::total_seconds("sched.profile_many");
  rep.layers["sched.assign_us"] = 1e6 * assign_total / static_cast<double>(assign_s.size());
  rep.layers["sched.corun_s"] = Tracer::total_seconds("sched.evaluate_schedules");
  rep.layers["exp.batch_wait_s"] = rep.layers["sched.profile_s"] +
                                   rep.layers["sched.corun_s"] +
                                   Tracer::total_seconds("exp.run_batch_outcomes");
  rep.layers["exp.worker_busy_ratio"] = busy_ms / (1000.0 * opt.workers * rep.run_s);
  rep.layers["exp.spec_useful_ratio"] =
      executed ? static_cast<double>(seen.size()) / static_cast<double>(executed) : 0.0;

  LayerInputs in;
  in.solo_machine = profiler_machine(cmp);
  in.solo_machine.l1.size_bytes = kL1Sizes[2];
  in.synthetic = rec.synthetic;
  for (const auto& f : rec.files) in.recorded.push_back(f.trace_path);
  in.record_s = percentile(records, 50);
  in.cycle_points = profile_jobs;
  for (const auto& o : profiled) in.cycle_results.push_back(o.result);
  in.coruns = {corun_jobs.front()};
  measure_layers(in, rep);
}

}  // namespace perfbench
