// DRAM-level differential test: the single-pass mem::Dram against the
// three-pass check::RefDram it replaced. Both controllers see the same
// random request stream, offered cycle by cycle, and must agree on which
// requests they accept, on every DramStats counter, on the exact probe
// event stream and on the order and timing of responses. The shapes cover
// the walk's wide controller (queue 256, 8 issues per cycle), a narrow one
// that rejects often, a single bank, and starvation thresholds from "every
// request is starved" to "never"; the streams mix row hits, row misses and
// row conflicts.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <ostream>
#include <tuple>
#include <vector>

#include "check/ref_dram.hpp"
#include "mem/dram.hpp"
#include "mem/probe.hpp"
#include "util/rng.hpp"

namespace lpm::check {
namespace {

/// One probe callback or response, in arrival order.
struct Event {
  char what;  // a = access, h = hit, c = cycle activity, r = response
  std::uint64_t id;
  Cycle cycle;
  std::uint64_t value;
  friend bool operator==(const Event&, const Event&) = default;
};

void PrintTo(const Event& e, std::ostream* os) {
  *os << e.what << " id=" << e.id << " cycle=" << e.cycle << " v=" << e.value;
}

class Recorder final : public mem::AccessProbe, public mem::ResponseSink {
 public:
  void on_cycle_activity(Cycle cycle, std::uint32_t hit_active) override {
    log.push_back({'c', 0, cycle, hit_active});
  }
  void on_access(RequestId id, Cycle start, bool is_write) override {
    log.push_back({'a', id, start, is_write ? 1u : 0u});
  }
  void on_hit(RequestId id, Cycle done) override { log.push_back({'h', id, done, 0}); }
  void on_miss(RequestId id, Cycle start) override { log.push_back({'m', id, start, 0}); }
  void on_miss_done(RequestId id, Cycle done) override {
    log.push_back({'d', id, done, 0});
  }
  void on_response(const mem::MemResponse& rsp) override {
    log.push_back({'r', rsp.id, rsp.completed, rsp.addr});
  }
  std::vector<Event> log;
};

struct Shape {
  const char* name;
  std::uint32_t banks;
  std::uint32_t queue;
  std::uint32_t issue;
  std::uint32_t starvation;
};

struct Stream {
  const char* name;
  std::uint32_t rows;      ///< distinct rows per bank the stream touches
  std::uint32_t offer;     ///< max requests offered per cycle
  double write_fraction;   ///< fire-and-forget writes (no reply sink)
};

void PrintTo(const std::tuple<Shape, Stream>& p, std::ostream* os) {
  *os << std::get<0>(p).name << "/" << std::get<1>(p).name;
}

mem::DramConfig shape_config(const Shape& s) {
  mem::DramConfig cfg;
  cfg.banks = s.banks;
  cfg.row_bytes = 2048;
  cfg.interleave_bytes = 64;
  cfg.queue_capacity = s.queue;
  cfg.max_issue_per_cycle = s.issue;
  cfg.starvation_threshold = s.starvation;
  return cfg;
}

struct Outcome {
  std::vector<Event> log;
  std::vector<bool> accepted;  ///< per offered request, in offer order
  mem::DramStats stats;
  Cycle end = 0;
};

/// Drives `dram` with the stream drawn from `seed`: each cycle ticks the
/// controller, then offers up to stream.offer requests (retrying rejected
/// ones first, in order) until `requests` have been accepted, then drains.
template <typename Dram>
Outcome drive(Dram& dram, Recorder& rec, const mem::DramConfig& cfg,
              const Stream& stream, std::uint64_t seed, std::uint32_t requests) {
  dram.set_probe(&rec);
  util::Rng rng(seed);
  Outcome out;
  std::deque<mem::MemRequest> backlog;
  std::uint32_t made = 0;
  std::uint32_t done = 0;
  Cycle now = 0;
  const std::uint64_t row_span = cfg.row_bytes * cfg.banks;
  while (done < requests || dram.busy()) {
    dram.tick(now);
    const std::uint64_t offers = rng.next_below(stream.offer + 1);
    for (std::uint64_t k = 0; k < offers && done < requests; ++k) {
      if (backlog.empty()) {
        mem::MemRequest req;
        req.id = ++made;
        const std::uint64_t bank = rng.next_below(cfg.banks);
        const std::uint64_t row = rng.next_below(stream.rows);
        const std::uint64_t column = rng.next_below(cfg.row_bytes / 64);
        req.addr = row * row_span + column * 64 * cfg.banks + bank * 64;
        req.created = now;
        if (rng.next_bool(stream.write_fraction)) {
          req.kind = mem::AccessKind::kWrite;
        } else {
          req.kind = mem::AccessKind::kRead;
          req.reply_to = &rec;
        }
        backlog.push_back(req);
      }
      const bool ok = dram.try_access(backlog.front());
      out.accepted.push_back(ok);
      if (!ok) break;  // the queue is full this cycle
      backlog.pop_front();
      ++done;
    }
    ++now;
    if (now > 2'000'000) break;
  }
  dram.finalize(now - 1);
  out.log = rec.log;
  out.stats = dram.stats();
  out.end = now;
  return out;
}

class DramDiff : public ::testing::TestWithParam<std::tuple<Shape, Stream>> {};

TEST_P(DramDiff, OptimizedMatchesReference) {
  const auto& [shape, stream] = GetParam();
  const mem::DramConfig cfg = shape_config(shape);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    mem::Dram fast(cfg);
    Recorder fast_rec;
    const Outcome a = drive(fast, fast_rec, cfg, stream, seed, 1500);
    RefDram ref(cfg);
    Recorder ref_rec;
    const Outcome b = drive(ref, ref_rec, cfg, stream, seed, 1500);
    EXPECT_EQ(a.stats, b.stats) << "seed " << seed;
    EXPECT_EQ(a.accepted, b.accepted) << "seed " << seed;
    EXPECT_EQ(a.end, b.end) << "seed " << seed;
    ASSERT_EQ(a.log.size(), b.log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.log.size(); ++i) {
      ASSERT_EQ(a.log[i], b.log[i]) << "seed " << seed << " event " << i;
    }
    // The stream reached the controller and the row-buffer outcomes the
    // stream is meant to produce.
    EXPECT_GT(a.stats.reads, 0u);
    if (stream.rows > 1) {
      EXPECT_GT(a.stats.row_conflicts, 0u);
    }
    EXPECT_GT(a.stats.row_hits + a.stats.row_misses, 0u);
  }
}

const Shape kShapes[] = {
    {"wide_q256_x8", 8, 256, 8, 200},
    {"wide_q256_x8_starve20", 8, 256, 8, 20},
    {"narrow_q4_x1", 4, 4, 1, 200},
    {"one_bank_q32_x2", 1, 32, 2, 50},
    {"fcfs_q64_x4", 8, 64, 4, 0},
    {"no_starvation_q128_x8", 2, 128, 8, 1'000'000},
};

const Stream kStreams[] = {
    {"row_local", 1, 4, 0.2},
    {"two_rows", 2, 6, 0.3},
    {"scattered", 64, 8, 0.25},
    {"flood", 4, 16, 0.1},
};

INSTANTIATE_TEST_SUITE_P(Shapes, DramDiff,
                         ::testing::Combine(::testing::ValuesIn(kShapes),
                                            ::testing::ValuesIn(kStreams)));

/// A row-hit stream to bank 0 with one conflicting request accepted early:
/// the age cap must pull the conflict ahead of younger row hits, at the
/// same cycle in both controllers.
template <typename Dram>
Cycle conflict_done(std::uint32_t starvation, std::vector<Event>* log) {
  mem::DramConfig cfg;
  cfg.banks = 1;
  cfg.queue_capacity = 64;
  cfg.starvation_threshold = starvation;
  Dram dram(cfg);
  Recorder rec;
  dram.set_probe(&rec);
  RequestId next = 1;
  const auto read = [&](Addr addr) {
    mem::MemRequest r;
    r.id = next++;
    r.addr = addr;
    r.reply_to = &rec;
    return r;
  };
  Cycle now = 0;
  dram.tick(now++);
  EXPECT_TRUE(dram.try_access(read(0)));         // opens row 0
  EXPECT_TRUE(dram.try_access(read(1u << 20)));  // id 2: row conflict
  for (int i = 0; i < 40; ++i) EXPECT_TRUE(dram.try_access(read(64u * (i + 1))));
  while (dram.busy()) dram.tick(now++);
  *log = rec.log;
  for (const Event& e : rec.log) {
    if (e.what == 'r' && e.id == 2) return e.cycle;
  }
  return kNoCycle;
}

TEST(DramDiff, StarvationCapOvertakesRowHits) {
  std::vector<Event> fast_log;
  std::vector<Event> ref_log;
  const Cycle capped = conflict_done<mem::Dram>(30, &fast_log);
  EXPECT_EQ(capped, conflict_done<RefDram>(30, &ref_log));
  EXPECT_EQ(fast_log, ref_log);
  const Cycle uncapped = conflict_done<mem::Dram>(1'000'000, &fast_log);
  EXPECT_EQ(uncapped, conflict_done<RefDram>(1'000'000, &ref_log));
  EXPECT_EQ(fast_log, ref_log);
  // Without the cap the conflict waits for every row hit; with it, not.
  EXPECT_LT(capped, uncapped);
}

}  // namespace
}  // namespace lpm::check
