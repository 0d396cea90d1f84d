#include "trace/trace_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace lpm::trace {
namespace {

std::string temp_path(const std::string& tag) {
  return testing::TempDir() + "/lpm_trace_" + tag + ".bin";
}

TEST(TraceFile, RoundTripPreservesEveryField) {
  const auto path = temp_path("roundtrip");
  auto profile = spec_profile(SpecBenchmark::kMcf, 2000, 3);
  SyntheticTrace src(profile);
  const std::uint64_t written = record_trace(src, path);
  EXPECT_EQ(written, 2000u);

  src.reset();
  const auto loaded = load_trace(path);
  const auto expected = materialize(src, 2001);
  ASSERT_EQ(loaded.size(), 2000u);
  ASSERT_EQ(expected.size(), loaded.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].type, expected[i].type);
    EXPECT_EQ(loaded[i].addr, expected[i].addr);
    EXPECT_EQ(loaded[i].dep_dist, expected[i].dep_dist);
    EXPECT_EQ(loaded[i].dep_dist2, expected[i].dep_dist2);
    EXPECT_EQ(loaded[i].exec_latency, expected[i].exec_latency);
  }
  std::remove(path.c_str());
}

TEST(TraceFile, FileTraceReplaysAndResets) {
  const auto path = temp_path("filetrace");
  auto profile = spec_profile(SpecBenchmark::kHmmer, 500, 9);
  SyntheticTrace src(profile);
  record_trace(src, path);

  FileTrace ft(path, "hmmer-file");
  EXPECT_EQ(ft.size(), 500u);
  EXPECT_EQ(ft.name(), "hmmer-file");
  EXPECT_EQ(materialize(ft, 501).size(), 500u);
  ft.reset();
  MicroOp op;
  EXPECT_EQ(ft.fill(&op, 1), 1u);
  std::remove(path.c_str());
}

TEST(TraceFile, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/trace.bin"), util::LpmError);
}

TEST(TraceFile, BadMagicThrows) {
  const auto path = temp_path("badmagic");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE garbage";
  }
  EXPECT_THROW(load_trace(path), util::LpmError);
  std::remove(path.c_str());
}

TEST(TraceFile, TruncatedFileThrows) {
  const auto path = temp_path("trunc");
  auto profile = spec_profile(SpecBenchmark::kSjeng, 100, 1);
  SyntheticTrace src(profile);
  record_trace(src, path);
  // Chop off the tail.
  {
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  EXPECT_THROW(load_trace(path), util::LpmError);
  std::remove(path.c_str());
}

TEST(TraceFile, CorruptCountFailsTypedBeforeAllocation) {
  const auto path = temp_path("bigcount");
  auto profile = spec_profile(SpecBenchmark::kGcc, 10, 1);
  SyntheticTrace src(profile);
  record_trace(src, path);
  // Overwrite the u64 count at offset 8 with a ludicrous value. The loader
  // must compare it against the bytes actually present and throw a typed
  // IoError — not reserve() petabytes and die on allocation.
  {
    std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(8);
    const unsigned char huge[8] = {0xff, 0xff, 0xff, 0xff,
                                   0xff, 0xff, 0xff, 0x7f};
    out.write(reinterpret_cast<const char*>(huge), sizeof(huge));
  }
  EXPECT_THROW(load_trace(path), util::IoError);
  std::remove(path.c_str());
}

TEST(TraceFile, EmptyTraceIsValid) {
  const auto path = temp_path("empty");
  VectorTrace empty("none", {});
  EXPECT_EQ(record_trace(empty, path), 0u);
  EXPECT_TRUE(load_trace(path).empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lpm::trace
