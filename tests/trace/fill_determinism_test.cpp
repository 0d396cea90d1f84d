// The fill() contract: the op stream must not depend on the chunk sizes it
// is requested in — batching is purely a throughput change. Covered per
// source (synthetic incl. burst phases, vector, file, mmap in both delivery
// modes) at chunk sizes 1, 7, 100 and 4096, and end-to-end: a System fed
// one op per fill() call produces the exact SystemResult of the batched
// path, and a System replaying a recorded LPM2 file produces the exact
// SystemResult of the live synthetic stream on all 16 profiles.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/system.hpp"
#include "trace/lpm2.hpp"
#include "trace/mmap_trace.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_source.hpp"

namespace lpm::trace {
namespace {

// ctest runs each test as its own process, in parallel: a fixed temp name
// lets one process remove or rewrite a file another has mapped.
std::string temp_path(const std::string& leaf) {
  return testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + leaf;
}

std::vector<MicroOp> drain_with_fill(TraceSource& src, std::size_t chunk) {
  std::vector<MicroOp> ops;
  std::vector<MicroOp> buf(chunk);
  while (true) {
    const std::size_t got = src.fill(buf.data(), chunk);
    ops.insert(ops.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(got));
    if (got < chunk) break;
  }
  return ops;
}

void expect_same_stream(const std::vector<MicroOp>& a,
                        const std::vector<MicroOp>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].type, b[i].type) << "op " << i;
    ASSERT_EQ(a[i].addr, b[i].addr) << "op " << i;
    ASSERT_EQ(a[i].dep_dist, b[i].dep_dist) << "op " << i;
    ASSERT_EQ(a[i].dep_dist2, b[i].dep_dist2) << "op " << i;
    ASSERT_EQ(a[i].exec_latency, b[i].exec_latency) << "op " << i;
  }
}

/// Drains a fresh source from `make` one op per fill() call, then again at
/// chunk sizes around and away from the core's batch size (including a
/// non-divisor of the trace length), expecting the same stream each time.
template <typename MakeSource>
void expect_chunk_size_invariant(MakeSource make) {
  auto reference = make();
  const std::vector<MicroOp> expected = drain_with_fill(reference, 1);
  for (const std::size_t chunk : {7ul, 100ul, 4096ul}) {
    auto src = make();
    SCOPED_TRACE(chunk);
    expect_same_stream(expected, drain_with_fill(src, chunk));
  }
}

TEST(FillDeterminism, SyntheticIsChunkSizeInvariant) {
  for (const auto& profile : {spec_profile(SpecBenchmark::kBwaves, 5000, 17),
                              spec_profile(SpecBenchmark::kMcf, 5000, 3)}) {
    expect_chunk_size_invariant([&] { return SyntheticTrace(profile); });
  }
}

TEST(FillDeterminism, BurstProfileIsChunkSizeInvariant) {
  // Phase boundaries exercise the mid-stream profile switches.
  const auto profile = burst_profile(500, 0.5, 6000, 7);
  expect_chunk_size_invariant([&] { return SyntheticTrace(profile); });
}

TEST(FillDeterminism, VectorTraceIsChunkSizeInvariant) {
  SyntheticTrace gen(spec_profile(SpecBenchmark::kGcc, 3000, 5));
  const std::vector<MicroOp> ops = materialize(gen, 3000);
  expect_chunk_size_invariant([&] { return VectorTrace("v", ops); });
}

TEST(FillDeterminism, FileTraceIsChunkSizeInvariant) {
  const std::string path = temp_path("lpm_fill_determinism.bin");
  SyntheticTrace gen(spec_profile(SpecBenchmark::kSoplex, 3000, 11));
  record_trace(gen, path);
  expect_chunk_size_invariant([&] { return FileTrace(path); });
  std::remove(path.c_str());
}

/// Hands the wrapped source's ops out one per fill() call, whatever the
/// request size — the unbatched path the core sees from a source that
/// cannot produce more than one op at a time.
class OneOpPerFillProxy final : public TraceSource {
 public:
  explicit OneOpPerFillProxy(TraceSourcePtr inner) : inner_(std::move(inner)) {}
  std::size_t fill(MicroOp* dst, std::size_t n) override {
    return n == 0 ? 0 : inner_->fill(dst, 1);
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  TraceSourcePtr inner_;
};

/// Runs one source through a single-core default System.
sim::SystemResult run_system(TraceSourcePtr src) {
  std::vector<TraceSourcePtr> traces;
  traces.push_back(std::move(src));
  sim::System sys(sim::MachineConfig::single_core_default(), std::move(traces));
  return sys.run();
}

/// Field-wise identity of the counters a divergence would surface in (the
/// structs carry no operator==; this mirrors the differential oracle's
/// counter set for a single-core run).
void expect_same_system_result(const sim::SystemResult& a,
                               const sim::SystemResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.cycles, b.cycles);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  EXPECT_EQ(a.cores[0].instructions, b.cores[0].instructions);
  EXPECT_EQ(a.cores[0].mem_ops, b.cores[0].mem_ops);
  EXPECT_EQ(a.cores[0].data_stall_cycles, b.cores[0].data_stall_cycles);
  EXPECT_EQ(a.cores[0].overlap_cycles, b.cores[0].overlap_cycles);
  ASSERT_EQ(a.l1_cache.size(), b.l1_cache.size());
  EXPECT_EQ(a.l1_cache[0].accesses, b.l1_cache[0].accesses);
  EXPECT_EQ(a.l1_cache[0].misses, b.l1_cache[0].misses);
  EXPECT_EQ(a.l2_cache.accesses, b.l2_cache.accesses);
  EXPECT_EQ(a.l2_cache.misses, b.l2_cache.misses);
  EXPECT_EQ(a.dram_stats.reads, b.dram_stats.reads);
  EXPECT_EQ(a.l1[0].pure_miss_cycles, b.l1[0].pure_miss_cycles);
  EXPECT_EQ(a.l2.pure_miss_cycles, b.l2.pure_miss_cycles);
}

TEST(FillDeterminism, SystemResultIdenticalBatchedVsUnbatched) {
  const auto profile = spec_profile(SpecBenchmark::kBwaves, 20000, 17);
  const sim::SystemResult a =
      run_system(std::make_unique<SyntheticTrace>(profile));
  const sim::SystemResult b = run_system(std::make_unique<OneOpPerFillProxy>(
      std::make_unique<SyntheticTrace>(profile)));
  expect_same_system_result(a, b);
}

// --- recorded LPM2 replay: the mmap path joins the determinism net ----------

/// One recorded LPM2 file per fixture run, shared by the mmap tests below.
class Lpm2Determinism : public testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("lpm_fill_determinism.lpm2");
    profile_ = spec_profile(SpecBenchmark::kGcc, 5000, 23);
    SyntheticTrace gen(profile_);
    record_trace_v2(gen, path_);
    SyntheticTrace live(profile_);
    expected_ = drain_with_fill(live, 1);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  [[nodiscard]] MmapTraceOptions mode(bool pipeline) const {
    // A chunk much smaller than the trace so the pipelined drain cycles
    // both slots many times instead of finishing in one handoff.
    return MmapTraceOptions{.pipeline = pipeline, .chunk_ops = 512};
  }

  std::string path_;
  WorkloadProfile profile_;
  std::vector<MicroOp> expected_;
};

TEST_F(Lpm2Determinism, MmapMatchesSyntheticAtEveryChunkSize) {
  for (const bool pipeline : {false, true}) {
    // Chunk sizes below, straddling, and far above the pipeline slot size —
    // including single-op pulls and a non-divisor of the trace length.
    for (const std::size_t chunk : {1ul, 7ul, 64ul, 4096ul}) {
      MmapTrace by_fill(path_, "by-fill", mode(pipeline));
      expect_same_stream(expected_, drain_with_fill(by_fill, chunk));
    }
  }
}

TEST_F(Lpm2Determinism, MidStreamResetReplaysTheIdenticalStream) {
  for (const bool pipeline : {false, true}) {
    MmapTrace src(path_, "reset", mode(pipeline));
    // Consume a prefix that ends mid-chunk, then rewind: the full replay
    // must match the untouched stream exactly.
    std::vector<MicroOp> prefix(expected_.size() / 3 + 5);
    ASSERT_EQ(src.fill(prefix.data(), prefix.size()), prefix.size());
    src.reset();
    expect_same_stream(expected_, drain_with_fill(src, 100));
    // And a reset after full exhaustion replays again too.
    src.reset();
    expect_same_stream(expected_, drain_with_fill(src, 1));
  }
}

TEST_F(Lpm2Determinism, V1ResidentAndV2StreamingReplayIdentically) {
  const std::string v1_path = temp_path("lpm_fill_determinism.lpmt");
  SyntheticTrace gen(profile_);
  record_trace(gen, v1_path);

  FileTrace resident(v1_path);
  expect_same_stream(expected_, drain_with_fill(resident, 64));
  MmapTrace streaming(path_, "v2", mode(true));
  expect_same_stream(expected_, drain_with_fill(streaming, 64));
  std::remove(v1_path.c_str());
}

TEST(FillDeterminism, MmapReplayMatchesLiveSyntheticOnAllSpecProfiles) {
  // The record → mmap-replay → simulate path must be bit-identical to
  // simulating the live generator, for every profile in the catalog.
  // Alternate delivery modes across profiles so both are load-bearing.
  const std::string path = temp_path("lpm_fill_det_profiles.lpm2");
  std::size_t i = 0;
  for (const SpecBenchmark bench : all_spec_benchmarks()) {
    const auto profile = spec_profile(bench, 4000, 29 + i);
    {
      SyntheticTrace gen(profile);
      record_trace_v2(gen, path);
    }
    const sim::SystemResult live =
        run_system(std::make_unique<SyntheticTrace>(profile));
    const sim::SystemResult replay = run_system(std::make_unique<MmapTrace>(
        path, spec_name(bench),
        MmapTraceOptions{.pipeline = (i % 2 == 0), .chunk_ops = 512}));
    SCOPED_TRACE(spec_name(bench));
    expect_same_system_result(live, replay);
    ++i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lpm::trace
