// Replay file format: op-string and whole-case round trips must be
// lossless (a repro that mutates in transit is worse than none), and
// malformed input must be rejected with a diagnostic, not misparsed.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/replay.hpp"
#include "sim/machine_config.hpp"
#include "util/error.hpp"

namespace lpm::check {
namespace {

TEST(Replay, OpsRoundTrip) {
  std::vector<trace::MicroOp> ops;
  ops.push_back({trace::OpType::kAlu, 0, 0, 0, 3});
  ops.push_back({trace::OpType::kLoad, 0xdeadbeef, 2, 0, 1});
  ops.push_back({trace::OpType::kStore, 0xffff'ffff'ffff'ffc0ULL, 7, 3, 1});
  ops.push_back({trace::OpType::kLoad, 0, 1, 1, 1});

  const std::string text = encode_ops(ops);
  EXPECT_EQ(decode_ops(text), ops);
}

TEST(Replay, EmptyOpsEncodeToEmptyString) {
  EXPECT_EQ(encode_ops({}), "");
  EXPECT_TRUE(decode_ops("").empty());
}

TEST(Replay, CaseRoundTripPreservesMachineAndOps) {
  // A fuzzer-generated case exercises the full key set (random caches,
  // DRAM, core widths); the round trip must reproduce it field for field.
  Fuzzer fuzzer;
  const ReplayCase c = fuzzer.generate(5);

  const std::string text = replay_to_json(c);
  const ReplayCase back = replay_from_json(text);

  EXPECT_EQ(back.ops, c.ops);
  // MachineConfig has no operator==; a second serialization being
  // byte-identical proves every field the format carries survived.
  EXPECT_EQ(replay_to_json(back), text);
}

TEST(Replay, PrivateL2AndHeterogeneousL1Survive) {
  auto machine = sim::MachineConfig::three_level_default();
  ReplayCase c;
  c.machine = machine;
  c.ops.push_back(decode_ops("l40:0:0:1;a0:1:0:2;sbeef00:2:0:1"));

  const std::string text = replay_to_json(c);
  const ReplayCase back = replay_from_json(text);
  EXPECT_TRUE(back.machine.use_private_l2);
  EXPECT_EQ(replay_to_json(back), text);

  auto hetero = sim::MachineConfig::single_core_default();
  hetero.num_cores = 2;
  hetero.l1_size_per_core = {4 * 1024, 64 * 1024};
  ReplayCase h;
  h.machine = hetero;
  h.ops = {decode_ops("l0:0:0:1"), decode_ops("s40:0:0:1")};
  const ReplayCase hback = replay_from_json(replay_to_json(h));
  EXPECT_EQ(hback.machine.l1_size_per_core,
            (std::vector<std::uint64_t>{4 * 1024, 64 * 1024}));
  EXPECT_EQ(hback.ops, h.ops);
}

TEST(Replay, SixtyFourBitValuesSurviveAsStrings) {
  // Seeds and cycle budgets above 2^53 would be mangled by the double-typed
  // JSON number path; the format routes them through strings instead.
  auto machine = sim::MachineConfig::single_core_default();
  machine.max_cycles = 0xfedc'ba98'7654'3210ULL;
  machine.l1.seed = (1ULL << 63) | 12345;
  ReplayCase c;
  c.machine = machine;
  c.ops.push_back(decode_ops("a0:0:0:1"));

  const ReplayCase back = replay_from_json(replay_to_json(c));
  EXPECT_EQ(back.machine.max_cycles, 0xfedc'ba98'7654'3210ULL);
  EXPECT_EQ(back.machine.l1.seed, (1ULL << 63) | 12345);
}

TEST(Replay, MakeTracesReplaysTheOpsVerbatim) {
  ReplayCase c;
  c.machine = sim::MachineConfig::single_core_default();
  c.ops.push_back(decode_ops("l40:0:0:1;a0:1:0:2;s80:0:0:1"));

  auto traces = c.make_traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(trace::materialize(*traces[0], c.ops[0].size() + 1), c.ops[0]);
}

TEST(Replay, RejectsMalformedInput) {
  EXPECT_THROW((void)replay_from_json("not json"), util::LpmError);
  EXPECT_THROW((void)replay_from_json("{\"format\": \"something-else\"}"),
               util::LpmError);
  // Right tag but a required key missing.
  EXPECT_THROW((void)replay_from_json("{\"format\": \"lpm-replay-v1\"}"),
               util::LpmError);
  EXPECT_THROW((void)decode_ops("x40:0:0:1"), util::LpmError);  // bad op type
  EXPECT_THROW((void)decode_ops("l"), util::LpmError);          // truncated
  EXPECT_THROW((void)decode_ops("l40:0"), util::LpmError);      // short token
}

TEST(Replay, SaveLoadRoundTripsThroughDisk) {
  Fuzzer fuzzer;
  const ReplayCase c = fuzzer.generate(9);
  const std::string path = "replay_roundtrip_test.json";
  save_replay(c, path);
  const ReplayCase back = load_replay(path);
  EXPECT_EQ(back.ops, c.ops);
  EXPECT_EQ(replay_to_json(back), replay_to_json(c));
  std::remove(path.c_str());

  EXPECT_THROW((void)load_replay("does-not-exist.json"), util::LpmError);
}

}  // namespace
}  // namespace lpm::check
