#include "mem/perfect_memory.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace lpm::mem {
namespace {

class TestSink final : public ResponseSink {
 public:
  void on_response(const MemResponse& rsp) override {
    responses.push_back(rsp);
    by_id[rsp.id] = rsp;
  }
  [[nodiscard]] bool got(RequestId id) const { return by_id.count(id) > 0; }
  std::vector<MemResponse> responses;
  std::map<RequestId, MemResponse> by_id;
};

MemRequest read(RequestId id, Addr addr, ResponseSink* sink, Cycle now = 0) {
  MemRequest r;
  r.id = id;
  r.core = 0;
  r.addr = addr;
  r.kind = AccessKind::kRead;
  r.created = now;
  r.reply_to = sink;
  return r;
}

TEST(PerfectMemory, CompletesAfterFixedLatency) {
  PerfectMemory mem(5);
  TestSink sink;
  mem.tick(0);
  ASSERT_TRUE(mem.try_access(read(1, 0x40, &sink)));
  EXPECT_TRUE(mem.busy());
  for (Cycle c = 1; c <= 4; ++c) {
    mem.tick(c);
    EXPECT_FALSE(sink.got(1)) << "completed early at cycle " << c;
  }
  mem.tick(5);
  ASSERT_TRUE(sink.got(1));
  EXPECT_EQ(sink.by_id[1].completed, 5u);
  EXPECT_EQ(sink.by_id[1].addr, 0x40u);
  EXPECT_FALSE(mem.busy());
}

TEST(PerfectMemory, ZeroLatencyCompletesOnTheNextTick) {
  PerfectMemory mem(0);
  TestSink sink;
  mem.tick(0);
  ASSERT_TRUE(mem.try_access(read(1, 0, &sink)));
  mem.tick(1);  // done_at == 0 <= 1
  EXPECT_TRUE(sink.got(1));
}

TEST(PerfectMemory, PortLimitIsPerCycle) {
  PerfectMemory mem(3, /*ports=*/2);
  TestSink sink;
  mem.tick(0);
  EXPECT_TRUE(mem.try_access(read(1, 0x00, &sink)));
  EXPECT_TRUE(mem.try_access(read(2, 0x40, &sink)));
  EXPECT_FALSE(mem.try_access(read(3, 0x80, &sink)))
      << "third access in one cycle must bounce off the port limit";
  mem.tick(1);  // the counter resets with the new cycle
  EXPECT_TRUE(mem.try_access(read(3, 0x80, &sink)));
  for (Cycle c = 2; c <= 5; ++c) mem.tick(c);
  EXPECT_EQ(sink.responses.size(), 3u);
  EXPECT_EQ(mem.accesses(), 3u);
}

TEST(PerfectMemory, ZeroPortsMeansUnlimited) {
  PerfectMemory mem(1, /*ports=*/0);
  TestSink sink;
  mem.tick(0);
  for (RequestId id = 1; id <= 64; ++id) {
    ASSERT_TRUE(mem.try_access(read(id, id * 64, &sink)));
  }
  mem.tick(1);
  EXPECT_EQ(sink.responses.size(), 64u);
}

TEST(PerfectMemory, FireAndForgetLeavesNothingInFlight) {
  // Writebacks travel with reply_to == nullptr: counted, never replied to.
  PerfectMemory mem(10);
  mem.tick(0);
  ASSERT_TRUE(mem.try_access(read(7, 0x40, nullptr)));
  EXPECT_FALSE(mem.busy());
  EXPECT_EQ(mem.accesses(), 1u);
}

TEST(PerfectMemory, ResponsesArriveInRequestOrder) {
  PerfectMemory mem(4);
  TestSink sink;
  mem.tick(0);
  ASSERT_TRUE(mem.try_access(read(10, 0x000, &sink)));
  mem.tick(1);
  ASSERT_TRUE(mem.try_access(read(11, 0x040, &sink)));
  mem.tick(2);
  ASSERT_TRUE(mem.try_access(read(12, 0x080, &sink)));
  for (Cycle c = 3; c <= 8; ++c) mem.tick(c);
  ASSERT_EQ(sink.responses.size(), 3u);
  EXPECT_EQ(sink.responses[0].id, 10u);
  EXPECT_EQ(sink.responses[1].id, 11u);
  EXPECT_EQ(sink.responses[2].id, 12u);
  EXPECT_EQ(sink.responses[0].completed, 4u);
  EXPECT_EQ(sink.responses[1].completed, 5u);
  EXPECT_EQ(sink.responses[2].completed, 6u);
}

TEST(PerfectMemory, InFlightQueueGrowsWhileWrapped) {
  // 40 requests drain at cycle 3; the next 40 then wrap around the end of
  // the in-flight ring, and 40 more force it to grow while wrapped. Every
  // response still arrives once, in request order, with its own id, core
  // and address, `latency` cycles after acceptance.
  PerfectMemory mem(3);
  TestSink sink;
  RequestId next = 1;
  std::map<RequestId, Cycle> accepted_at;
  const std::map<Cycle, RequestId> batches = {{0, 40}, {3, 40}, {4, 40}, {5, 7}};
  for (Cycle c = 0; c < 12; ++c) {
    mem.tick(c);
    const auto batch = batches.find(c);
    if (batch == batches.end()) continue;
    for (RequestId i = 0; i < batch->second; ++i, ++next) {
      MemRequest r = read(next, next * 64, &sink, c);
      r.core = static_cast<CoreId>(next % 3);
      ASSERT_TRUE(mem.try_access(r));
      accepted_at[next] = c;
    }
  }
  EXPECT_FALSE(mem.busy());
  ASSERT_EQ(sink.responses.size(), next - 1);
  for (std::size_t i = 0; i < sink.responses.size(); ++i) {
    const MemResponse& rsp = sink.responses[i];
    EXPECT_EQ(rsp.id, i + 1);
    EXPECT_EQ(rsp.addr, rsp.id * 64);
    EXPECT_EQ(rsp.core, static_cast<CoreId>(rsp.id % 3));
    EXPECT_EQ(rsp.completed, accepted_at[rsp.id] + 3);
  }
}

}  // namespace
}  // namespace lpm::mem
