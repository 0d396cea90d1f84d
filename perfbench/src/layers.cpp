// Standalone per-layer phases of a traced run. Layers hidden inside
// sim::System::run cannot be timed from outside, so each is replayed on
// its own over the workload's own inputs: trace generation and mmap
// decode, the OoO core against PerfectMemory, an L1 -> L2 -> DRAM chain
// fed the workload's addresses, whole-system runs, and the analytic model.
#include <cmath>
#include <map>

#include "bench.hpp"

namespace perfbench {

using namespace lpm;

namespace {

constexpr std::size_t kChunk = 4096;

/// Drains `source` through fill(); returns ops produced, appending them
/// to `keep` when non-null.
std::uint64_t drain(trace::TraceSource& source, std::vector<trace::MicroOp>* keep) {
  std::vector<trace::MicroOp> buf(kChunk);
  std::uint64_t total = 0;
  while (true) {
    const std::size_t got = source.fill(buf.data(), buf.size());
    if (keep != nullptr) keep->insert(keep->end(), buf.begin(), buf.begin() + got);
    total += got;
    if (got < buf.size()) return total;
  }
}

struct CountingSink final : mem::ResponseSink {
  std::uint64_t responses = 0;
  void on_response(const mem::MemResponse&) override { ++responses; }
};

/// Feeds the loads and stores of `ops` into a standalone L1 -> L2 -> DRAM
/// chain built from `m`, as fast as the L1 accepts them, until drained.
/// Returns the number of accesses issued.
std::uint64_t run_mem_chain(const sim::MachineConfig& m,
                            const std::vector<trace::MicroOp>& ops) {
  mem::Dram dram(m.dram);
  mem::CacheConfig l2cfg = m.l2;
  l2cfg.num_cores = 1;
  mem::Cache l2(l2cfg, &dram, /*id_space=*/1000);
  mem::CacheConfig l1cfg = m.l1;
  l1cfg.num_cores = 1;
  mem::Cache l1(l1cfg, &l2, /*id_space=*/100);
  CountingSink sink;
  Cycle now = 0;
  std::size_t i = 0;
  std::uint64_t issued = 0;
  while (i < ops.size() || l1.busy() || l2.busy() || dram.busy()) {
    util::require(now < 1'000'000'000, "mem chain did not drain");
    dram.tick(now);
    l2.tick(now);
    l1.tick(now);
    for (std::uint32_t port = 0; port < l1cfg.ports && i < ops.size();) {
      const trace::MicroOp& op = ops[i];
      if (!trace::is_memory(op.type)) {
        ++i;
        continue;
      }
      mem::MemRequest req;
      req.id = issued + 1;
      req.core = 0;
      req.addr = op.addr;
      req.kind = op.type == trace::OpType::kStore ? mem::AccessKind::kWrite
                                                  : mem::AccessKind::kRead;
      req.created = now;
      req.reply_to = &sink;
      if (!l1.try_access(req)) break;
      ++issued;
      ++port;
      ++i;
    }
    ++now;
  }
  return issued;
}

double ns_per(double seconds, std::uint64_t n) {
  return n == 0 ? 0.0 : 1e9 * seconds / static_cast<double>(n);
}

}  // namespace

void measure_layers(const LayerInputs& in, Report& rep) {
  // trace: synthesis, then (recording and) mmap decode of the same streams.
  std::vector<std::vector<trace::MicroOp>> streams(in.synthetic.size());
  double gen_s = 0.0;
  std::uint64_t gen_ops = 0;
  for (std::size_t i = 0; i < in.synthetic.size(); ++i) {
    trace::SyntheticTrace source(in.synthetic[i]);
    const Clock::time_point t0 = Clock::now();
    gen_ops += drain(source, &streams[i]);
    gen_s += seconds_since(t0);
  }
  rep.layers["trace.gen_ns_per_op"] = ns_per(gen_s, gen_ops);

  std::vector<std::string> files = in.recorded;
  double record_s = in.record_s;
  if (files.empty()) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < in.synthetic.size(); ++i) {
      trace::SyntheticTrace source(in.synthetic[i]);
      files.push_back("layer" + std::to_string(i) + ".lpm2");
      trace::record_trace_v2(source, files.back());
    }
    record_s = seconds_since(t0);
  }
  rep.layers["trace.record_s"] = record_s;
  double mmap_s = 0.0;
  std::uint64_t mmap_ops = 0;
  for (const std::string& path : files) {
    trace::MmapTrace source(path);
    const Clock::time_point t0 = Clock::now();
    mmap_ops += drain(source, nullptr);
    mmap_s += seconds_since(t0);
  }
  rep.layers["trace.mmap_ns_per_op"] = ns_per(mmap_s, mmap_ops);

  // cpu and sim: pre-generated streams, so neither phase pays for traces.
  double cpu_s = 0.0, sim_s = 0.0, mem_s = 0.0;
  std::uint64_t cpu_instr = 0, cpu_cycles = 0, sim_instr = 0, accesses = 0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    trace::VectorTrace cpu_trace(in.synthetic[i].name, streams[i]);
    Clock::time_point t0 = Clock::now();
    const sim::CpiExeResult calib = sim::measure_cpi_exe(in.solo_machine, cpu_trace);
    cpu_s += seconds_since(t0);
    cpu_instr += calib.instructions;
    cpu_cycles += calib.cycles;

    std::vector<trace::TraceSourcePtr> traces;
    traces.push_back(std::make_unique<trace::VectorTrace>(in.synthetic[i].name, streams[i]));
    sim::System system(in.solo_machine, std::move(traces));
    t0 = Clock::now();
    const sim::SystemResult r = system.run();
    sim_s += seconds_since(t0);
    for (const auto& c : r.cores) sim_instr += c.instructions;

    t0 = Clock::now();
    accesses += run_mem_chain(in.solo_machine, streams[i]);
    mem_s += seconds_since(t0);
  }
  rep.layers["cpu.ns_per_instr"] = ns_per(cpu_s, cpu_instr);
  rep.layers["cpu.ns_per_cycle"] = ns_per(cpu_s, cpu_cycles);
  rep.layers["sim.ns_per_instr"] = ns_per(sim_s, sim_instr);
  rep.layers["sim.residual_ns_per_instr"] =
      rep.layers["sim.ns_per_instr"] - rep.layers["cpu.ns_per_instr"];
  rep.layers["mem.ns_per_access"] = ns_per(mem_s, accesses);

  double corun_s = 0.0;
  std::uint64_t corun_instr = 0;
  for (const exp::SimJob& job : in.coruns) {
    std::vector<trace::TraceSourcePtr> traces;
    for (const auto& wl : job.workloads) {
      auto source = trace::make_trace(wl);
      traces.push_back(std::make_unique<trace::VectorTrace>(
          wl.name, trace::materialize(*source, wl.length)));
    }
    sim::System system(job.machine, std::move(traces));
    const Clock::time_point t0 = Clock::now();
    const sim::SystemResult r = system.run();
    corun_s += seconds_since(t0);
    for (const auto& c : r.cores) corun_instr += c.instructions;
  }
  rep.layers["sim.corun_ns_per_instr"] = ns_per(corun_s, corun_instr);

  // model: one reuse profile per distinct workload, then the analytic
  // estimate of every cycle point once profiles and calibrations are warm.
  std::map<std::string, trace::WorkloadProfile> workloads;
  for (const exp::SimJob& job : in.cycle_points) {
    workloads.emplace(job.workloads.at(0).name, job.workloads.at(0));
  }
  double profile_s = 0.0;
  for (const auto& [name, wl] : workloads) {
    const Clock::time_point t0 = Clock::now();
    const model::ReuseProfile p = model::build_reuse_profile(wl);
    profile_s += seconds_since(t0);
    rep.op(p.micro_ops > 0, name + ": empty reuse profile");
  }
  rep.layers["model.profile_s"] =
      workloads.empty() ? 0.0 : profile_s / static_cast<double>(workloads.size());

  // The first pass builds every calibration the points need (one per core
  // configuration and workload); only the second, closed-form pass is timed.
  std::vector<exp::SimJob> rdh_jobs = in.cycle_points;
  for (exp::SimJob& job : rdh_jobs) job.backend = model::kRdhBackend;
  for (const exp::SimJob& job : rdh_jobs) (void)model::evaluate_analytic(job);
  double err_sum = 0.0;
  std::size_t err_n = 0;
  const Clock::time_point t0 = Clock::now();
  std::vector<double> rdh_mr1;
  for (const exp::SimJob& job : rdh_jobs) {
    rdh_mr1.push_back(model::evaluate_analytic(job).run.mr1(0));
  }
  const double analytic_s = seconds_since(t0);
  rep.layers["model.us_per_config"] =
      rdh_jobs.empty() ? 0.0 : 1e6 * analytic_s / static_cast<double>(rdh_jobs.size());
  for (std::size_t i = 0; i < rdh_mr1.size() && i < in.cycle_results.size(); ++i) {
    const double cyc = in.cycle_results[i]->run.mr1(0);
    if (cyc <= 0.0) continue;
    err_sum += std::fabs(rdh_mr1[i] - cyc) / cyc;
    ++err_n;
  }
  rep.layers["model.mr1_err_mean"] = err_n ? err_sum / static_cast<double>(err_n) : 0.0;
}

}  // namespace perfbench
