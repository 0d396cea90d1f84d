// lpm_perfbench: runs one repetition of one benchmark workload and prints
// its report as one JSON line on stdout. run.py is the user-facing entry
// point; it builds this binary, runs each repetition in a fresh process
// inside a fresh work directory (its working directory), and aggregates.
//
//   lpm_perfbench --workload walk|sweep|serve --seed N --workers W
//                 [--trace 0|1] [--smoke]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lpm_perfbench: %s\nusage: lpm_perfbench --workload walk|sweep|serve "
               "--seed N --workers W [--trace 0|1] [--smoke]\n",
               why);
  std::exit(64);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--workers") {
      opt.workers = static_cast<unsigned>(std::stoul(value()));
    } else if (a == "--trace") {
      opt.traced = value() == "1";
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload != "walk" && opt.workload != "sweep" && opt.workload != "serve") {
    usage("--workload must be walk, sweep or serve");
  }
  if (opt.workers == 0) usage("--workers must be at least 1");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Report rep;
  try {
    if (opt.traced) {
      perfbench::Tracer::enable(opt.workload + "-" + std::to_string(opt.seed));
    }
    if (opt.workload == "walk") {
      perfbench::run_walk(opt, rep);
    } else if (opt.workload == "sweep") {
      perfbench::run_sweep(opt, rep);
    } else {
      perfbench::run_serve(opt, rep);
    }
    // Every engine, server and client the workload made is gone by now, so
    // only this thread may be left; a live ExperimentEngine::shared() pool
    // would show here. A joined thread can stay listed for a moment while
    // the kernel releases it, hence the short grace period.
    long threads = 0;
    for (int wait_ms = 0; wait_ms < 1000; ++wait_ms) {
      threads = std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                              std::filesystem::directory_iterator{});
      if (threads == 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rep.op(threads == 1, std::to_string(threads) + " threads alive after the workload");
    if (opt.traced) {
      const auto self = perfbench::Tracer::self_seconds();
      for (const char* layer :
           {"facade", "core", "exp", "sched", "trace", "srv"}) {
        const auto it = self.find(layer);
        rep.layers[std::string(layer) + ".self_s"] = it == self.end() ? 0.0 : it->second;
      }
      perfbench::Tracer::write("spans.json");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lpm_perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }
  std::printf("%s\n", rep.to_json().c_str());
  return 0;
}
