// Core-level differential test: the event-driven cpu::OooCore against the
// scan-based check::RefCore it replaced. Both cores run one program against
// one kind of memory level, and must agree on every CoreStats counter and on
// the exact stream of L1 access attempts (cycle, id, address, kind,
// accepted). The shapes cover the CoreProperty sweep plus the corners of the
// wakeup machinery: an in-order core, an instruction window smaller than
// the ROB, ROB sizes that are not powers of two (the ready bitmap spans the
// rounded-up ring), twin dependences on one producer, dependences that
// reach past the ROB head, stores that wake their consumers mid-scan,
// L1 port rejections in the middle of an issue scan, and the ALU completion
// wheel at its edges: latency 0 (due the next cycle), latency 255 (the
// longest a uint8_t holds) and a 1-255 spread that wraps the wheel.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "check/ref_core.hpp"
#include "cpu/ooo_core.hpp"
#include "mem/cache.hpp"
#include "mem/perfect_memory.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace lpm::check {
namespace {

struct Shape {
  const char* name;
  std::uint32_t issue;
  std::uint32_t iw;
  std::uint32_t rob;
  std::uint32_t lsq;
};

// Test names print the parameter; print the shape's name rather than its
// bytes (which hold a pointer).
void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }

cpu::CoreConfig shape_config(const Shape& s) {
  if (s.rob == 1) return cpu::CoreConfig::in_order();
  cpu::CoreConfig cfg;
  cfg.issue_width = s.issue;
  cfg.dispatch_width = s.issue;
  cfg.commit_width = s.issue;
  cfg.iw_size = s.iw;
  cfg.rob_size = s.rob;
  cfg.lsq_size = s.lsq;
  return cfg;
}

/// One L1 access attempt as the memory level saw it.
struct Attempt {
  Cycle cycle;
  RequestId id;
  Addr addr;
  mem::AccessKind kind;
  bool accepted;
  friend bool operator==(const Attempt&, const Attempt&) = default;
};

/// Forwards to the real level and logs every attempt. Sitting in front of
/// a Cache it also forces both cores onto the MemoryLevel vtable path.
class Recorder final : public mem::MemoryLevel {
 public:
  explicit Recorder(mem::MemoryLevel* inner) : inner_(inner) {}
  bool try_access(const mem::MemRequest& req) override {
    const bool ok = inner_->try_access(req);
    log.push_back({req.created, req.id, req.addr, req.kind, ok});
    return ok;
  }
  void tick(Cycle now) override { inner_->tick(now); }
  void finalize(Cycle end) override { inner_->finalize(end); }
  [[nodiscard]] bool busy() const override { return inner_->busy(); }

  std::vector<Attempt> log;

 private:
  mem::MemoryLevel* inner_;
};

enum class Memory { kPerfect, kPerfectOnePort, kCache, kCacheFastPath };

const char* memory_name(Memory m) {
  switch (m) {
    case Memory::kPerfect: return "perfect";
    case Memory::kPerfectOnePort: return "perfect1port";
    case Memory::kCache: return "cache";
    case Memory::kCacheFastPath: return "cachefast";
  }
  return "?";
}

void PrintTo(Memory m, std::ostream* os) { *os << memory_name(m); }

struct RunResult {
  cpu::CoreStats stats;
  std::vector<Attempt> attempts;
  mem::CacheStats cache;
  bool finished = false;
};

/// Runs `Core` over `program` against `memory`, ticking the hierarchy
/// bottom-up like sim::System.
template <typename Core>
RunResult run_core(const cpu::CoreConfig& cfg,
                   const std::vector<trace::MicroOp>& program, Memory memory) {
  trace::VectorTrace trace("diff", program);
  RunResult out;
  // A small, 2-way L1 with few MSHRs and one port over a slow perfect
  // memory: misses, MSHR-full stalls and port rejections all happen.
  mem::PerfectMemory backing(memory == Memory::kPerfectOnePort ? 9 : 40,
                             memory == Memory::kPerfectOnePort ? 1 : 0);
  std::unique_ptr<mem::Cache> cache;
  mem::MemoryLevel* top = &backing;
  if (memory == Memory::kCache || memory == Memory::kCacheFastPath) {
    mem::CacheConfig l1;
    l1.size_bytes = 2 * 1024;
    l1.associativity = 2;
    l1.ports = 1;
    l1.mshr_entries = 2;
    l1.mshr_targets = 2;
    cache = std::make_unique<mem::Cache>(l1, &backing, /*id_space=*/100);
    top = cache.get();
  }
  Recorder recorder(top);
  mem::MemoryLevel* l1 = memory == Memory::kCacheFastPath
                             ? top
                             : static_cast<mem::MemoryLevel*>(&recorder);
  Core core(cfg, &trace, l1, /*id_space=*/1);
  Cycle now = 0;
  while (!core.finished() && now < 2'000'000) {
    backing.tick(now);
    if (cache != nullptr) cache->tick(now);
    core.tick(now);
    ++now;
  }
  out.finished = core.finished();
  out.stats = core.stats();
  out.attempts = std::move(recorder.log);
  if (cache != nullptr) out.cache = cache->stats();
  return out;
}

struct Program {
  int n = 4000;
  double mem_fraction = 0.4;
  double store_share = 0.25;  ///< of memory ops
  std::uint64_t addr_span = 64 * 1024;
  std::uint32_t max_dist = 8;
  std::uint32_t max_dist2 = 16;
  double twin_fraction = 0.0;  ///< dep_dist2 := dep_dist
  std::uint32_t min_latency = 1;  ///< ALU latencies drawn from
  std::uint32_t max_latency = 4;  ///< [min_latency, max_latency]
};

/// A seeded program with the dependence structure `p` describes.
std::vector<trace::MicroOp> make_program(std::uint64_t seed, const Program& p) {
  util::Rng rng(seed);
  std::vector<trace::MicroOp> ops;
  ops.reserve(static_cast<std::size_t>(p.n));
  for (int i = 0; i < p.n; ++i) {
    trace::MicroOp op;
    if (rng.next_bool(p.mem_fraction)) {
      op.type = rng.next_bool(p.store_share) ? trace::OpType::kStore
                                             : trace::OpType::kLoad;
      op.addr = rng.next_below(p.addr_span) & ~Addr{7};
    } else {
      op.type = trace::OpType::kAlu;
      op.exec_latency = static_cast<std::uint8_t>(
          p.min_latency + rng.next_below(p.max_latency - p.min_latency + 1));
    }
    if (i > 0 && rng.next_bool(0.5)) {
      op.dep_dist = static_cast<std::uint32_t>(
          1 + rng.next_below(std::min<std::uint64_t>(p.max_dist, i)));
    }
    if (i > 1 && rng.next_bool(0.3)) {
      op.dep_dist2 = static_cast<std::uint32_t>(
          1 + rng.next_below(std::min<std::uint64_t>(p.max_dist2, i)));
    }
    if (op.dep_dist != 0 && rng.next_bool(p.twin_fraction)) {
      op.dep_dist2 = op.dep_dist;
    }
    ops.push_back(op);
  }
  return ops;
}

void expect_same(const cpu::CoreConfig& cfg,
                 const std::vector<trace::MicroOp>& program, Memory memory) {
  const RunResult fast = run_core<cpu::OooCore>(cfg, program, memory);
  const RunResult ref = run_core<RefCore>(cfg, program, memory);
  ASSERT_TRUE(ref.finished) << memory_name(memory);
  ASSERT_TRUE(fast.finished) << memory_name(memory);
  EXPECT_EQ(fast.stats, ref.stats) << memory_name(memory);
  EXPECT_EQ(fast.cache, ref.cache) << memory_name(memory);
  ASSERT_EQ(fast.attempts.size(), ref.attempts.size()) << memory_name(memory);
  EXPECT_TRUE(fast.attempts == ref.attempts)
      << memory_name(memory) << ": the L1 access streams differ";
  EXPECT_EQ(fast.stats.instructions, program.size());
}

const Shape kShapes[] = {
    // The CoreProperty sweep.
    {"i1_r1_l1", 1, 1, 1, 1},
    {"i1_r8_l4", 1, 8, 8, 4},
    {"i2_r16_l8", 2, 16, 16, 8},
    {"i4_r32_l16", 4, 32, 32, 16},
    {"i8_r128_l64", 8, 128, 128, 64},
    {"i16_r256_l128", 16, 256, 256, 128},
    // Instruction window smaller than the ROB.
    {"i4_iw16_r64", 4, 16, 64, 16},
    {"i8_iw32_r192", 8, 32, 192, 32},
    // ROB sizes that are not powers of two.
    {"i4_r48", 4, 48, 48, 16},
    {"i4_r96", 4, 96, 96, 32},
    {"i6_r160", 6, 160, 160, 48},
    {"i8_r192", 8, 192, 192, 64},
};

class RefCoreDiff
    : public ::testing::TestWithParam<std::tuple<Shape, Memory>> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, RefCoreDiff,
    ::testing::Combine(::testing::ValuesIn(kShapes),
                       ::testing::Values(Memory::kPerfect,
                                         Memory::kPerfectOnePort,
                                         Memory::kCache,
                                         Memory::kCacheFastPath)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             memory_name(std::get<1>(info.param));
    });

TEST_P(RefCoreDiff, RandomProgramsAgree) {
  const auto& [shape, memory] = GetParam();
  const cpu::CoreConfig cfg = shape_config(shape);
  expect_same(cfg, make_program(shape.rob * 31 + 7, Program{}), memory);
}

TEST_P(RefCoreDiff, TwinDependencesAgree) {
  // dep_dist == dep_dist2 on half the dependent ops: one producer, counted
  // once by the wakeup logic and twice by the scan.
  const auto& [shape, memory] = GetParam();
  Program p;
  p.twin_fraction = 0.5;
  expect_same(shape_config(shape), make_program(shape.rob * 13 + 1, p), memory);
}

TEST_P(RefCoreDiff, DependencesPastTheRobHeadAgree) {
  // Distances up to four ROBs back: most producers have retired by
  // dispatch, some are still in flight at the head.
  const auto& [shape, memory] = GetParam();
  Program p;
  p.max_dist = 4 * shape.rob + 3;
  p.max_dist2 = 2 * shape.rob + 1;
  expect_same(shape_config(shape), make_program(shape.rob * 7 + 3, p), memory);
}

TEST_P(RefCoreDiff, StoreChainsAgree) {
  // Store-heavy code whose consumers hang off stores: an accepted store
  // becomes kDone inside the issue scan and must wake a younger consumer
  // in time for the same scan to issue it.
  const auto& [shape, memory] = GetParam();
  Program p;
  p.mem_fraction = 0.6;
  p.store_share = 0.7;
  p.max_dist = 3;
  p.max_dist2 = 2;
  expect_same(shape_config(shape), make_program(shape.rob * 5 + 11, p), memory);
}

TEST_P(RefCoreDiff, ZeroLatencyAluAgrees) {
  // Latency-0 ALU ops complete the cycle after they issue, as in the scan
  // core, not in the bucket already drained this cycle.
  const auto& [shape, memory] = GetParam();
  Program p;
  p.min_latency = 0;
  p.max_latency = 0;
  expect_same(shape_config(shape), make_program(shape.rob * 17 + 5, p), memory);
}

TEST_P(RefCoreDiff, MaxLatencyAluAgrees) {
  // Every ALU op is due 255 cycles after issue: the bucket just behind the
  // one being drained.
  const auto& [shape, memory] = GetParam();
  Program p;
  p.n = 1500;
  p.min_latency = 255;
  p.max_latency = 255;
  expect_same(shape_config(shape), make_program(shape.rob * 19 + 9, p), memory);
}

TEST_P(RefCoreDiff, MixedLatencyAluAgrees) {
  // Latencies spread over 1-255: many buckets in use at once, and the
  // wheel wraps many times over the run.
  const auto& [shape, memory] = GetParam();
  Program p;
  p.n = 2000;
  p.min_latency = 1;
  p.max_latency = 255;
  expect_same(shape_config(shape), make_program(shape.rob * 23 + 2, p), memory);
}

TEST(RefCoreDiffCases, StoreWakesConsumerInTheSameCycle) {
  // store; alu(dep 1 on the store); load(dep 1 on the alu) on a 4-wide
  // core. The store is accepted in the first issue scan, and the ALU that
  // waits on it issues in that same scan. A core that only woke it the
  // next cycle would take one cycle longer.
  std::vector<trace::MicroOp> ops(3);
  ops[0].type = trace::OpType::kStore;
  ops[0].addr = 64;
  ops[1].type = trace::OpType::kAlu;
  ops[1].dep_dist = 1;
  ops[2].type = trace::OpType::kLoad;
  ops[2].addr = 128;
  ops[2].dep_dist = 2;  // on the store too
  cpu::CoreConfig cfg;
  const RunResult fast = run_core<cpu::OooCore>(cfg, ops, Memory::kPerfect);
  const RunResult ref = run_core<RefCore>(cfg, ops, Memory::kPerfect);
  EXPECT_EQ(fast.stats, ref.stats);
  ASSERT_EQ(fast.attempts.size(), 2u);
  EXPECT_TRUE(fast.attempts == ref.attempts);
  // Both memory ops issue in the same cycle: the load's producer (the
  // store) was accepted earlier in the same scan.
  EXPECT_EQ(fast.attempts[0].cycle, fast.attempts[1].cycle);
}

TEST(RefCoreDiffCases, PortRejectionMidScanAgrees) {
  // Independent loads and ALU ops on a wide core against a one-port
  // memory: every scan issues one load, bounces the next (the port is
  // taken), then keeps issuing ALU ops behind it.
  std::vector<trace::MicroOp> ops;
  for (int i = 0; i < 600; ++i) {
    trace::MicroOp op;
    if (i % 3 == 2) {
      op.type = trace::OpType::kAlu;
      op.dep_dist = (i % 6 == 2) ? 1 : 0;
    } else {
      op.type = trace::OpType::kLoad;
      op.addr = static_cast<Addr>(i) * 64;
    }
    ops.push_back(op);
  }
  cpu::CoreConfig cfg;
  cfg.issue_width = 8;
  cfg.dispatch_width = 8;
  cfg.commit_width = 8;
  cfg.iw_size = 64;
  cfg.rob_size = 96;
  cfg.lsq_size = 32;
  for (Memory memory : {Memory::kPerfectOnePort, Memory::kCache}) {
    const RunResult fast = run_core<cpu::OooCore>(cfg, ops, memory);
    const RunResult ref = run_core<RefCore>(cfg, ops, memory);
    EXPECT_GT(ref.stats.l1_rejections, 0u) << memory_name(memory);
    EXPECT_EQ(fast.stats, ref.stats) << memory_name(memory);
    EXPECT_TRUE(fast.attempts == ref.attempts) << memory_name(memory);
  }
}

TEST(RefCoreDiffCases, SpecLikeStreamAgrees) {
  // A generated SPEC-like stream (410.bwaves, the walk's workload) on the
  // default core against the small cache.
  const trace::WorkloadProfile wl =
      trace::spec_profile(trace::SpecBenchmark::kBwaves, 20'000, 3);
  trace::SyntheticTrace gen(wl);
  std::vector<trace::MicroOp> ops;
  trace::MicroOp chunk[256];
  while (const std::size_t got = gen.fill(chunk, 256)) {
    ops.insert(ops.end(), chunk, chunk + got);
  }
  expect_same(cpu::CoreConfig{}, ops, Memory::kCache);
  expect_same(cpu::CoreConfig{}, ops, Memory::kPerfect);
}

}  // namespace
}  // namespace lpm::check
