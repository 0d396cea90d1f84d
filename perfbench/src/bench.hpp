// Shared pieces of the lpm_perfbench binary: options, the per-repetition
// report, the output digest, the output checks, and the span tracer that
// times the benchmark's own calls into each library layer.
//
// One lpm_perfbench process runs one repetition of one workload (walk,
// sweep or serve) and prints its report as a single JSON line; run.py
// spawns repetitions in fresh processes and aggregates them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lpm.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Engine worker count; fixed by run.py, never 0 (auto).
  unsigned workers = 2;
  /// Record spans and run the standalone per-layer phases.
  bool traced = false;
  /// Shrunken inputs for the benchmark's own tests; never used for metrics.
  bool smoke = false;
};

/// 64-bit FNV-1a over simulated counters, in a canonical order, so two
/// commits that simulate the same thing print the same digest.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  void add(const lpm::sim::SystemResult& r);
  [[nodiscard]] std::string hex() const;

 private:
  void byte(unsigned char b);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What one repetition measured. Counts are the exactness figures run.py
/// requires to repeat; layers are the per-layer metrics of a traced run.
struct Report {
  double setup_s = 0.0;
  double run_s = 0.0;
  /// Committed cycle-backend instructions, calibration runs included.
  std::uint64_t instructions = 0;
  /// Distinct points (machine, workloads, fidelity) evaluated.
  std::uint64_t configs = 0;
  /// Operations completed: engine jobs (walk, sweep) or requests (serve).
  std::uint64_t jobs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  Digest digest;
  std::map<std::string, double> counts;
  /// The workload's decisions (walk final configs, sweep schedules);
  /// must not depend on the worker count.
  std::vector<std::string> outcome;
  std::map<std::string, double> layers;
  /// Per-request latency samples by class (serve only).
  std::map<std::string, std::vector<double>> samples_ms;

  /// Records one operation; `ok` false counts it failed with `why`.
  void op(bool ok, const std::string& why);
  [[nodiscard]] std::string to_json() const;
};

/// Empty when `r` passes the output checks: a completed run, nonzero
/// instructions and L1 accesses on every core, and Eq. 2 equal to the
/// measured C-AMAT (Eq. 3) on every active layer.
[[nodiscard]] std::string check_result(const lpm::sim::SystemResult& r);

/// Committed instructions of one engine result: the run plus calibrations.
[[nodiscard]] std::uint64_t committed_instructions(const lpm::exp::SimJobResult& r);

/// Totals over a set of cycle results for the mem/sim/camat count metrics.
void add_result_counts(const std::vector<const lpm::sim::SystemResult*>& runs,
                       Report& rep);

/// Linear-interpolated percentile (p in [0,100]) of unsorted samples.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Span tracer. Spans are kept in memory and written once, at exit. A span
/// opened on a thread becomes the parent of spans opened inside it on the
/// same thread. Disabled (and free) unless enable() was called.
class Tracer {
 public:
  static void enable(std::string run_id);
  /// Writes every span as one JSON array to `path`.
  static void write(const std::string& path);
  /// Self time per layer (name prefix before the first '.'): each span's
  /// duration minus the time its direct children cover.
  [[nodiscard]] static std::map<std::string, double> self_seconds();
  /// Summed duration of the spans called exactly `name`.
  [[nodiscard]] static double total_seconds(const std::string& name);
};

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::int64_t id_ = -1;
  std::int64_t parent_ = -1;
  Clock::time_point start_;
};

/// Inputs the standalone per-layer phases replay: the workload's own
/// traces and machines (traced runs only).
struct LayerInputs {
  /// Single-core machine for the cpu, mem and solo sim phases.
  lpm::sim::MachineConfig solo_machine;
  /// The workload's synthetic trace profiles.
  std::vector<lpm::trace::WorkloadProfile> synthetic;
  /// LPM2 files the workload replays; empty = record them here.
  std::vector<std::string> recorded;
  double record_s = 0.0;
  /// Solo cycle jobs the workload evaluated and their results, for the
  /// analytic-model phase.
  std::vector<lpm::exp::SimJob> cycle_points;
  std::vector<lpm::exp::SimResultPtr> cycle_results;
  /// Multi-core co-run the workload evaluated (sweep), or none.
  std::vector<lpm::exp::SimJob> coruns;
};

/// Runs the standalone trace / cpu / mem / sim / model phases over
/// `in` and writes their metrics into rep.layers.
void measure_layers(const LayerInputs& in, Report& rep);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Delta of the process-wide registry counters between two snapshots.
[[nodiscard]] std::uint64_t counter_delta(const lpm::obs::MetricsSnapshot& before,
                                          const lpm::obs::MetricsSnapshot& after,
                                          const std::string& name);

/// Workload entry points; each fills `rep` and returns normally even when
/// checks fail (failures are data in rep).
void run_walk(const Options& opt, Report& rep);
void run_sweep(const Options& opt, Report& rep);
void run_serve(const Options& opt, Report& rep);

}  // namespace perfbench
