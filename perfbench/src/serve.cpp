// `serve`: an in-process srv::Server on a Unix socket in the repetition's
// work directory, journal on, driven as a closed loop by a fixed set of
// client connections with a fixed request mix:
//   * fresh `rdh` simulates — the write path (journal appends, model work);
//   * repeats of the same client's completed specs under new ids — memo
//     store hits, the read path;
//   * short cycle simulates and a few `rdh` sweeps.
// Every job sets degrade_ok=false; a refusal or degradation is a failure.
// The shares of the kinds are synthetic (see README.md).
#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>

#include "bench.hpp"
#include "srv/client.hpp"
#include "srv/job_spec.hpp"
#include "srv/server.hpp"
#include "util/flat_json.hpp"

namespace perfbench {

using namespace lpm;

namespace {

constexpr unsigned kClients = 2;
/// In-flight requests per client; far below per_client_max and the
/// degradation watermark, so admission never pushes back.
constexpr std::size_t kWindow = 2;
/// Each client opens with this many fresh simulates, one per workload of
/// its own half of the 16 (the first touches), and a repeat refers to a
/// fresh spec submitted at least this many requests earlier.
constexpr std::size_t kRepeatLag = 8;
constexpr std::size_t kCheckEvery = 10;

enum class Kind { kFresh, kRepeat, kCycle, kSweep };

struct Request {
  Kind kind = Kind::kFresh;
  srv::JobSpec spec;
  std::size_t repeat_of = 0;
  std::size_t points = 1;
};

struct Outcome {
  Clock::time_point submitted, acked, finished;
  bool done = false;
  bool ok = false;
  std::string error;
  std::optional<util::FlatJson> terminal;
  std::vector<util::FlatJson> points;
};

template <typename T>
void shuffle(std::vector<T>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
}

/// lpmd executors: the engine worker count, less what keeps executors and
/// client threads together within the CPUs this process may use.
unsigned executor_count(unsigned workers) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::max(1, std::min(static_cast<int>(workers), cpus - static_cast<int>(kClients)));
}

/// Fixed per-client request sequences. The count of each kind is fixed and
/// the fresh specs walk the 16 workloads in turn, so the work barely
/// depends on the seed; the seed picks the traces, orders the kinds and
/// picks each rdh spec's cache geometry. Fresh specs never repeat within a
/// run: each workload hands out its geometries without replacement.
std::vector<std::vector<Request>> make_mix(std::uint64_t seed, std::size_t per_client,
                                           std::uint64_t length) {
  struct Geometry {
    std::uint32_t l1_kb, mshr, l2_kb;
  };
  std::vector<std::string> workloads;
  for (const auto b : trace::all_spec_benchmarks()) workloads.push_back(trace::spec_name(b));
  util::require(workloads.size() == kClients * kRepeatLag,
                "serve mix: the opening requests must touch every workload once");
  util::Rng rng(seed);
  // Per workload: rdh simulate geometries and sweep MSHR values, drawn in
  // seeded order. Cycle simulates cost more on some geometries than others,
  // so they cycle through one fixed list instead.
  const std::vector<Geometry> kCycleGeometries = {
      {32, 4, 512}, {16, 8, 1024}, {64, 2, 2048}, {8, 16, 256}};
  std::vector<std::vector<Geometry>> rdh_geo(workloads.size()),
      cycle_geo(workloads.size(), kCycleGeometries);
  std::vector<std::vector<std::uint32_t>> sweep_mshr(workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (const std::uint32_t mshr : {2, 4, 8, 16}) {
      sweep_mshr[w].push_back(mshr);
      for (const std::uint32_t l1 : {4, 8, 16, 32, 64, 128}) {
        for (const std::uint32_t l2 : {256, 512, 1024, 2048}) {
          rdh_geo[w].push_back({l1, mshr, l2});
        }
      }
    }
    shuffle(rdh_geo[w], rng);
    shuffle(sweep_mshr[w], rng);
  }
  std::vector<std::size_t> rdh_used(workloads.size()), cycle_used(workloads.size()),
      sweep_used(workloads.size());
  const auto draw = [](auto& pool, std::vector<std::size_t>& used, std::size_t w) {
    util::require(used[w] < pool[w].size(), "serve mix: fresh spec pool exhausted");
    return pool[w][used[w]++];
  };
  const auto spec_of = [&](std::size_t w, const Geometry& g, const char* backend) {
    srv::JobSpec s;
    s.workload = workloads[w];
    s.length = length;
    s.seed = seed;
    s.l1_kb = g.l1_kb;
    s.mshr = g.mshr;
    s.l2_kb = g.l2_kb;
    s.backend = backend;
    s.degrade_ok = false;
    return s;
  };

  std::vector<std::vector<Request>> mix(kClients);
  std::size_t n_cycle = 0, n_sweep = 0;  // across clients
  for (unsigned c = 0; c < kClients; ++c) {
    // Client c's fresh specs start at its own half of the workloads.
    std::size_t n_rdh = c * kRepeatLag;
    // Kind sequence: kRepeatLag fresh requests, then a shuffled multiset
    // of 4 % cycle simulates, 2 % sweeps, 40 % repeats, the rest fresh.
    std::vector<Kind> kinds(per_client - kRepeatLag, Kind::kFresh);
    const std::size_t n_c = per_client / 25, n_s = per_client / 50, n_r = per_client * 2 / 5;
    std::fill_n(kinds.begin(), n_c, Kind::kCycle);
    std::fill_n(kinds.begin() + n_c, n_s, Kind::kSweep);
    std::fill_n(kinds.begin() + n_c + n_s, n_r, Kind::kRepeat);
    shuffle(kinds, rng);
    kinds.insert(kinds.begin(), kRepeatLag, Kind::kFresh);

    std::vector<std::size_t> simulates;  // fresh simulate indices, ascending
    for (std::size_t i = 0; i < per_client; ++i) {
      Request req;
      req.kind = kinds[i];
      if (req.kind == Kind::kCycle) {
        const std::size_t w = n_cycle++ % workloads.size();
        req.spec = spec_of(w, draw(cycle_geo, cycle_used, w), exp::kCycleBackend);
      } else if (req.kind == Kind::kSweep) {
        const std::size_t w = n_sweep++ % workloads.size();
        req.spec = spec_of(w, {0, draw(sweep_mshr, sweep_used, w), 4096}, model::kRdhBackend);
        req.spec.kind = "sweep";
        req.spec.sweep_knob = "l1_kb";
        req.spec.sweep_values = "4,8,16,32,64,128";
        req.points = 6;
      } else if (req.kind == Kind::kRepeat) {
        const auto eligible = static_cast<std::size_t>(
            std::upper_bound(simulates.begin(), simulates.end(), i - kRepeatLag) -
            simulates.begin());
        req.repeat_of = simulates[rng.next_below(eligible)];
        req.spec = mix[c][req.repeat_of].spec;
      } else {
        const std::size_t w = n_rdh++ % workloads.size();
        req.spec = spec_of(w, draw(rdh_geo, rdh_used, w), model::kRdhBackend);
      }
      if (req.kind == Kind::kFresh || req.kind == Kind::kCycle) simulates.push_back(i);
      mix[c].push_back(std::move(req));
    }
  }
  return mix;
}

/// Closed loop of one client over requests [begin, end): at most kWindow
/// requests in flight; a repeat waits until its target has completed.
void drive(srv::Client& client, const std::vector<Request>& reqs, std::size_t begin,
           std::size_t end, std::vector<Outcome>& out) {
  std::size_t next = begin, finished = begin, inflight = 0;
  const auto index_of = [&](const util::FlatJson& f) -> std::optional<std::size_t> {
    const auto id = f.get_string("id");
    if (!id || id->size() < 2 || (*id)[0] != 'r') return std::nullopt;
    const std::size_t i = std::stoul(id->substr(1));
    return i < reqs.size() ? std::optional<std::size_t>(i) : std::nullopt;
  };
  const auto finish = [&](std::size_t i, bool ok, std::string error) {
    if (out[i].done) return;
    out[i].done = true;
    out[i].ok = ok;
    out[i].error = std::move(error);
    out[i].finished = Clock::now();
    ++finished;
    --inflight;
  };
  while (finished < end) {
    while (inflight < kWindow && next < end) {
      const Request& r = reqs[next];
      if (r.kind == Kind::kRepeat && !out[r.repeat_of].done) break;
      out[next].submitted = Clock::now();
      {
        Span s("srv.Client.submit");
        if (!client.submit("r" + std::to_string(next), r.spec)) {
          throw util::IoError("serve: connection lost on submit");
        }
      }
      ++inflight;
      ++next;
    }
    std::optional<util::FlatJson> frame;
    {
      Span s("srv.Client.poll");
      frame = client.poll(60'000);
    }
    if (!frame) throw util::IoError("serve: no frame from the server within 60 s");
    const std::string op = frame->get_string("op").value_or("");
    const auto idx = index_of(*frame);
    if (!idx) continue;
    Outcome& o = out[*idx];
    if (op == "ack") {
      o.acked = Clock::now();
      if (frame->get_bool("degraded").value_or(false)) finish(*idx, false, "degraded");
      if (frame->get_string("status").value_or("") != "queued") {
        finish(*idx, false, "ack status " + frame->get_string("status").value_or(""));
      }
    } else if (op == "point") {
      o.points.push_back(*frame);
    } else if (op == "done") {
      const bool degraded = frame->get_bool("degraded").value_or(false);
      o.terminal = *frame;
      finish(*idx, !degraded, degraded ? "degraded" : "");
    } else {  // error, retry_after: refused or failed
      finish(*idx, false, op + " " + frame->get_string("code").value_or("") + " " +
                              frame->get_string("message").value_or(""));
    }
  }
}

const char* const kResultNumbers[] = {"cycles", "cores", "instructions", "ipc", "mr1",
                                      "mr2",    "camat1", "camat2",      "cpi_exe"};

void digest_frame(Digest& d, const util::FlatJson& f) {
  d.add(f.get_string("backend").value_or(""));
  for (const char* k : kResultNumbers) d.add(f.get_number(k).value_or(-1.0));
  d.add(f.get_number("points_ok").value_or(-1.0));
}

/// Empty when the server's done frame matches an in-process evaluation.
std::string compare(const util::FlatJson& served, const exp::SimJob& job,
                    const exp::SimJobOutcome& local) {
  if (!local.ok()) return "in-process evaluation failed: " + local.error_message;
  const exp::ResultRecord rec = exp::ResultRecord::make(job, *local.result, false);
  srv::JsonWriter w;
  w.str("backend", rec.backend)
      .num_u64("cycles", rec.cycles)
      .num_u64("cores", rec.cores)
      .num_u64("instructions", rec.instructions)
      .num("ipc", rec.ipc)
      .num("mr1", rec.mr1)
      .num("mr2", rec.mr2)
      .num("camat1", rec.camat1)
      .num("camat2", rec.camat2)
      .num("cpi_exe", rec.cpi_exe);
  const util::FlatJson mine = util::FlatJson::parse(w.finish());
  if (mine.get_string("backend") != served.get_string("backend")) return "backend differs";
  for (const char* k : kResultNumbers) {
    if (mine.get_number(k) != served.get_number(k)) return std::string(k) + " differs";
  }
  return {};
}

double histogram_p50(const obs::HistogramSnapshot& h) {
  if (h.count == 0) return 0.0;
  const double target = 0.5 * static_cast<double>(h.count);
  double below = 0.0, lo = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double n = static_cast<double>(h.counts[i]);
    const double hi = i < h.bounds.size() ? h.bounds[i] : lo;
    if (below + n >= target && n > 0) return lo + (hi - lo) * (target - below) / n;
    below += n;
    lo = hi;
  }
  return lo;
}

struct Stack {
  std::unique_ptr<srv::Server> server;
  std::vector<std::unique_ptr<srv::Client>> clients;
};

Stack start_stack(const std::string& dir, unsigned executors) {
  std::filesystem::remove_all(dir);  // a left-over journal would replay old jobs
  std::filesystem::create_directories(dir);
  srv::Server::Options so;
  so.endpoint = "unix:" + dir + "/lpmd.sock";
  so.journal_path = dir + "/journal";
  so.workers = executors;
  so.memo_bytes = 64u << 20;  // every result of a run fits: no evictions
  so.idle_timeout_ms = 600'000;
  Stack st;
  {
    Span s("srv.Server.start");
    st.server = std::make_unique<srv::Server>(so);
    st.server->start();
  }
  for (unsigned c = 0; c < kClients; ++c) {
    Span s("srv.Client.connect");
    st.clients.push_back(std::make_unique<srv::Client>(so.endpoint, "c" + std::to_string(c)));
    st.clients.back()->connect();
  }
  return st;
}

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  const std::uint64_t length = opt.smoke ? 2'000 : 20'000;
  const auto mix = make_mix(opt.seed, opt.smoke ? 50 : 800, length);

  // Set-up (server bind + journal open + client connects), five times over;
  // the last stack serves the run.
  Stack stack;
  std::vector<double> setups;
  for (int trial = 0; trial < 5; ++trial) {
    for (auto& c : stack.clients) c->disconnect();
    if (stack.server) stack.server->stop();
    const Clock::time_point t0 = Clock::now();
    stack = start_stack("srv" + std::to_string(trial), executor_count(opt.workers));
    setups.push_back(seconds_since(t0));
  }
  rep.setup_s = percentile(setups, 50);
  const std::string dir = "srv4";

  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  std::vector<std::vector<Outcome>> outcomes(kClients);
  for (unsigned c = 0; c < kClients; ++c) outcomes[c].resize(mix[c].size());
  std::vector<std::string> errors(kClients);
  const Clock::time_point t0 = Clock::now();
  // The model builds a workload's reuse profile and calibration on first
  // touch, outside its cache's lock. The opening requests touch the 16
  // workloads once each, and every one completes before the rest start, so
  // nothing is built twice and every run does the same model work.
  for (const bool opening : {true, false}) {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c, opening] {
        try {
          drive(*stack.clients[c], mix[c], opening ? 0 : kRepeatLag,
                opening ? kRepeatLag : mix[c].size(), outcomes[c]);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  rep.run_s = seconds_since(t0);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::global().snapshot();
  for (const std::string& e : errors) {
    if (!e.empty()) throw util::IoError(e);
  }

  std::uint64_t executed = 0;
  stack.clients[0]->request_stats();
  while (auto f = stack.clients[0]->poll(10'000)) {
    if (f->get_string("op") == "stats") {
      executed = static_cast<std::uint64_t>(f->get_number("simulations_executed").value_or(0));
      break;
    }
  }
  for (auto& c : stack.clients) c->disconnect();
  stack.server->stop();
  const double journal_bytes =
      static_cast<double>(std::filesystem::file_size(dir + "/journal"));

  // In-process evaluation: every cycle simulate and every kCheckEvery-th
  // other simulate, as one batch on the benchmark's own engine.
  auto engine = make_engine({.threads = opt.workers});
  struct Check {
    unsigned client;
    std::size_t index;
    exp::SimJob job;
  };
  std::vector<Check> checks;
  for (unsigned c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < mix[c].size(); ++i) {
      const Request& r = mix[c][i];
      if (r.kind == Kind::kSweep) continue;
      if (r.kind == Kind::kCycle || i % kCheckEvery == 0) {
        checks.push_back({c, i, r.spec.expand("check").at(0)});
      }
    }
  }
  std::vector<exp::SimJob> check_jobs;
  for (const Check& ch : checks) check_jobs.push_back(ch.job);
  std::vector<exp::SimJobOutcome> local;
  {
    Span s("exp.run_batch_outcomes");
    local = engine->run_batch_outcomes(check_jobs, {exp::FailurePolicy::kCollect, false});
  }
  std::vector<std::vector<std::string>> mismatch(kClients);
  for (unsigned c = 0; c < kClients; ++c) mismatch[c].resize(mix[c].size());
  std::vector<const sim::SystemResult*> cycle_runs;
  LayerInputs in;
  for (std::size_t k = 0; k < checks.size(); ++k) {
    const Outcome& o = outcomes[checks[k].client][checks[k].index];
    if (o.terminal) mismatch[checks[k].client][checks[k].index] = compare(*o.terminal, checks[k].job, local[k]);
    if (!local[k].ok() || checks[k].job.backend != exp::kCycleBackend) continue;
    const std::string why = check_result(local[k].result->run);
    if (!why.empty()) mismatch[checks[k].client][checks[k].index] = why;
    cycle_runs.push_back(&local[k].result->run);
    in.cycle_points.push_back(checks[k].job);
    in.cycle_results.push_back(local[k].result);
  }

  std::size_t points = 0, degraded = 0, refused = 0;
  for (unsigned c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < mix[c].size(); ++i) {
      const Request& r = mix[c][i];
      const Outcome& o = outcomes[c][i];
      points += r.points;
      if (o.error == "degraded") ++degraded;
      if (o.error.rfind("retry_after", 0) == 0 || o.error.find("overload") != std::string::npos) {
        ++refused;
      }
      std::string why = o.ok ? mismatch[c][i] : o.error;
      if (o.ok && r.kind == Kind::kSweep &&
          o.terminal->get_number("points_ok").value_or(0) != static_cast<double>(r.points)) {
        why = "sweep points failed";
      }
      rep.op(why.empty(), "c" + std::to_string(c) + "/r" + std::to_string(i) + ": " + why);
      rep.digest.add(static_cast<std::uint64_t>(r.kind));
      if (o.terminal) digest_frame(rep.digest, *o.terminal);
      for (const util::FlatJson& p : o.points) digest_frame(rep.digest, p);

      const double total_ms = 1e3 * std::chrono::duration<double>(o.finished - o.submitted).count();
      rep.samples_ms["all"].push_back(total_ms);
      if (o.acked != Clock::time_point{}) {
        rep.samples_ms["ack"].push_back(
            1e3 * std::chrono::duration<double>(o.acked - o.submitted).count());
      }
      if (r.kind == Kind::kFresh) rep.samples_ms["fresh"].push_back(total_ms);
      if (r.kind == Kind::kRepeat) rep.samples_ms["memo"].push_back(total_ms);
    }
  }

  const std::uint64_t requests = rep.attempted;
  // System runs as the server counted them, plus one calibration per cycle
  // spec and the analytic model's calibrations, one per rdh workload.
  std::set<std::string> rdh_workloads;
  std::uint64_t cycle_specs = 0;
  for (const auto& reqs : mix) {
    for (const Request& r : reqs) {
      if (r.kind == Kind::kCycle) ++cycle_specs;
      if (r.kind == Kind::kFresh || r.kind == Kind::kSweep) rdh_workloads.insert(r.spec.workload);
    }
  }
  const std::uint64_t calibrations = counter_delta(before, after, "model.backend.calibrations");
  for (const std::uint64_t built :
       {calibrations, counter_delta(before, after, "model.backend.profile_builds")}) {
    rep.op(built == rdh_workloads.size(),
           "the model built " + std::to_string(built) + " calibrations or profiles for " +
               std::to_string(rdh_workloads.size()) + " rdh workloads");
  }
  rep.instructions = counter_delta(before, after, "sim.instructions") +
                     (cycle_specs + calibrations) * length;
  rep.configs = executed;  // every executed point is a distinct spec
  rep.jobs = requests;
  rep.counts["exp.jobs_executed"] = static_cast<double>(executed);
  rep.counts["exp.cache_hits"] = 0.0;  // lpmd's engine runs uncached
  rep.counts["srv.memo_hit_ratio"] =
      points ? 1.0 - static_cast<double>(executed) / static_cast<double>(points) : 0.0;
  rep.counts["srv.degraded"] = static_cast<double>(degraded);
  rep.counts["srv.refused"] = static_cast<double>(refused);
  add_result_counts(cycle_runs, rep);
  rep.counts["sim.instructions"] = static_cast<double>(counter_delta(before, after, "sim.instructions"));
  rep.counts["sim.cycles"] = static_cast<double>(counter_delta(before, after, "sim.cycles"));

  if (!opt.traced) return;
  rep.layers["srv.journal_bytes_per_job"] = journal_bytes / static_cast<double>(requests);
  rep.layers["srv.queue_wait_p50_ms"] =
      histogram_p50(after.histograms.at("srv.job.queue_wait_ms"));
  rep.layers["srv.service_p50_ms"] = histogram_p50(after.histograms.at("srv.job.service_ms"));
  rep.layers["exp.batch_wait_s"] = Tracer::total_seconds("exp.run_batch_outcomes");
  double busy_ms = 0.0;
  std::set<std::uint64_t> executed_points;  // a batch runs duplicates once
  for (const auto& o : local) {
    if (o.ok() && executed_points.insert(o.result->fingerprint).second) {
      busy_ms += o.result->duration_ms;
    }
  }
  rep.layers["exp.worker_busy_ratio"] =
      busy_ms / (1000.0 * opt.workers * std::max(1e-9, rep.layers["exp.batch_wait_s"]));
  rep.layers["exp.spec_useful_ratio"] = 1.0;  // no speculation on the request path

  in.solo_machine = srv::JobSpec{}.machine_config();
  for (const auto b : trace::all_spec_benchmarks()) {
    in.synthetic.push_back(trace::spec_profile(b, length, opt.seed));
  }
  measure_layers(in, rep);
}

}  // namespace perfbench
