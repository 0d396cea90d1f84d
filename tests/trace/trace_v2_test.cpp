// The LPM2 on-disk format's safety net: every truncation (at every byte
// offset) and every single-bit flip of the header, the checksum, and the
// record payload must surface as a typed util::IoError — never UB, an OOM,
// or a silently short MicroOp stream. Plus the units underneath: the
// streaming content checksum, the record codec, open_trace() dispatch and
// its env knobs, the file-backed profile/fingerprint identity, and the
// materialize() fill-contract enforcement.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "trace/lpm2.hpp"
#include "trace/mmap_trace.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_source.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"

namespace lpm::trace {
namespace {

// --- helpers ----------------------------------------------------------------

// ctest runs every test of this file as its own process, possibly in
// parallel; a directory per process keeps one process from truncating a
// file another has mapped, and keeps the leaf name (some tests check it).
// The directory is removed when the process exits.
std::string temp_path(const std::string& leaf) {
  static const struct ProcessDir {
    std::string path = testing::TempDir() + "/lpm2_test_" + std::to_string(::getpid());
    ProcessDir() { std::filesystem::create_directories(path); }
    ~ProcessDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  return dir.path + "/" + leaf;
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const unsigned char* data,
                std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(size));
  ASSERT_TRUE(out.good()) << path;
}

/// A small deterministic op list that exercises every record field,
/// including the extremes the codec must carry losslessly.
std::vector<MicroOp> sample_ops(std::size_t n) {
  std::vector<MicroOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    MicroOp op;
    op.type = static_cast<OpType>(i % 3);
    op.addr = (i == 1) ? ~0ull : i * 0x9e3779b9ull;
    op.dep_dist = static_cast<std::uint32_t>(i % 9);
    op.dep_dist2 = (i == 2) ? ~0u : static_cast<std::uint32_t>(i % 4);
    op.exec_latency = static_cast<std::uint8_t>(1 + i % 7);
    ops.push_back(op);
  }
  return ops;
}

/// Full drain through MmapTrace with a tiny chunk so the pipelined mode
/// cycles both slots several times. Throws whatever the source throws.
std::vector<MicroOp> drain_mmap(const std::string& path, bool pipeline) {
  MmapTrace src(path, "torture", MmapTraceOptions{.pipeline = pipeline,
                                                  .chunk_ops = 8});
  std::vector<MicroOp> ops;
  std::vector<MicroOp> buf(5);
  for (;;) {
    const std::size_t got = src.fill(buf.data(), buf.size());
    ops.insert(ops.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(got));
    if (got < buf.size()) break;
  }
  return ops;
}

/// The torture contract: `fn` must raise util::IoError — any other outcome
/// (no exception = a silently short/garbage stream, or an untyped/wrong
/// exception) is the bug this net exists to catch.
testing::AssertionResult raises_io_error(const std::function<void()>& fn) {
  try {
    fn();
    return testing::AssertionFailure() << "completed without an error";
  } catch (const util::IoError&) {
    return testing::AssertionSuccess();
  } catch (const std::exception& e) {
    return testing::AssertionFailure() << "raised a non-IoError: " << e.what();
  }
}

/// Asserts that a mutated file fails typed everywhere it can be consumed:
/// the offline verifier and a full replay drain in both delivery modes.
testing::AssertionResult fails_everywhere_typed(const std::string& path) {
  if (auto r = raises_io_error([&] { (void)verify_trace(path); }); !r) {
    return testing::AssertionFailure() << "verify_trace: " << r.message();
  }
  if (auto r = raises_io_error([&] { (void)drain_mmap(path, false); }); !r) {
    return testing::AssertionFailure() << "direct drain: " << r.message();
  }
  if (auto r = raises_io_error([&] { (void)drain_mmap(path, true); }); !r) {
    return testing::AssertionFailure() << "pipelined drain: " << r.message();
  }
  return testing::AssertionSuccess();
}

// --- Checksum64 -------------------------------------------------------------

TEST(Checksum64, IncrementalMatchesOneShot) {
  std::vector<unsigned char> data(257);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  util::Checksum64 whole;
  whole.update(data.data(), data.size());

  // Every split point, including ones that land mid-word and force the
  // tail buffer to carry bytes across updates.
  for (const std::size_t cut : {0ul, 1ul, 7ul, 8ul, 9ul, 63ul, 256ul, 257ul}) {
    util::Checksum64 split;
    split.update(data.data(), cut);
    split.update(data.data() + cut, data.size() - cut);
    EXPECT_EQ(split.digest(), whole.digest()) << "cut at " << cut;
  }
}

TEST(Checksum64, DigestIsNonDestructiveAndNeverZero) {
  util::Checksum64 empty;
  EXPECT_NE(empty.digest(), 0u);
  EXPECT_EQ(empty.digest(), empty.digest());

  util::Checksum64 c;
  const unsigned char byte = 0;
  c.update(&byte, 1);
  const std::uint64_t first = c.digest();
  EXPECT_NE(first, 0u);
  // digest() must not consume state: more input still lands on top.
  c.update(&byte, 1);
  EXPECT_NE(c.digest(), first);
}

TEST(Checksum64, DistinguishesContentOrderAndLength) {
  const unsigned char a[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const unsigned char b[] = {1, 2, 3, 4, 5, 6, 7, 9, 8};
  util::Checksum64 ca;
  util::Checksum64 cb;
  util::Checksum64 cshort;
  ca.update(a, sizeof(a));
  cb.update(b, sizeof(b));
  cshort.update(a, sizeof(a) - 1);
  EXPECT_NE(ca.digest(), cb.digest());
  EXPECT_NE(ca.digest(), cshort.digest());
}

// --- record codec -----------------------------------------------------------

TEST(Lpm2Codec, RoundTripsEveryField) {
  for (const MicroOp& op : sample_ops(16)) {
    unsigned char buf[kLpm2RecordBytes];
    encode_record(op, buf);
    EXPECT_EQ(decode_record(buf), op);
  }
}

TEST(Lpm2Codec, RejectsInvalidTypeByte) {
  unsigned char buf[kLpm2RecordBytes] = {};
  encode_record(MicroOp{}, buf);
  buf[0] = static_cast<unsigned char>(OpType::kStore) + 1;
  EXPECT_THROW((void)decode_record(buf), util::IoError);
  buf[0] = 0xff;
  EXPECT_THROW((void)decode_record(buf), util::IoError);
}

// --- format round trip ------------------------------------------------------

TEST(Lpm2Format, RecordInspectVerifyAgree) {
  const std::string path = temp_path("lpm2_roundtrip.lpm2");
  const std::vector<MicroOp> ops = sample_ops(100);
  VectorTrace src("sample", ops);
  const std::uint64_t recorded = record_trace_v2(src, path);
  EXPECT_NE(recorded, 0u);

  const TraceFileInfo inspected = inspect_trace(path);
  EXPECT_EQ(inspected.version, kLpm2Version);
  EXPECT_EQ(inspected.count, ops.size());
  EXPECT_EQ(inspected.checksum, recorded);
  EXPECT_EQ(inspected.file_bytes,
            kLpm2HeaderBytes + ops.size() * kLpm2RecordBytes);

  const TraceFileInfo verified = verify_trace(path);
  EXPECT_EQ(verified.checksum, recorded);

  // And the replayed stream is the recorded stream, both delivery modes.
  EXPECT_EQ(drain_mmap(path, false), ops);
  EXPECT_EQ(drain_mmap(path, true), ops);
  std::remove(path.c_str());
}

TEST(Lpm2Format, V1AndV2RecordingsShareTheContentChecksum) {
  // The two formats carry the same record layout, so the same stream must
  // hash identically — that is what lets fingerprints key on content alone.
  const std::string v1 = temp_path("lpm2_same_v1.lpmt");
  const std::string v2 = temp_path("lpm2_same_v2.lpm2");
  const auto profile = spec_profile(SpecBenchmark::kGcc, 2000, 9);
  {
    SyntheticTrace gen(profile);
    record_trace(gen, v1);
  }
  SyntheticTrace gen(profile);
  const std::uint64_t recorded = record_trace_v2(gen, v2);

  const TraceFileInfo i1 = inspect_trace(v1);
  const TraceFileInfo i2 = inspect_trace(v2);
  EXPECT_EQ(i1.version, 1u);
  EXPECT_EQ(i2.version, 2u);
  EXPECT_EQ(i1.count, i2.count);
  EXPECT_EQ(i1.checksum, recorded);
  EXPECT_EQ(i2.checksum, recorded);
  std::remove(v1.c_str());
  std::remove(v2.c_str());
}

TEST(Lpm2Format, EmptyRecordingVerifiesButProfileRejectsIt) {
  const std::string path = temp_path("lpm2_empty.lpm2");
  const std::vector<MicroOp> none;
  VectorTrace src("empty", none);
  record_trace_v2(src, path);

  EXPECT_EQ(verify_trace(path).count, 0u);
  EXPECT_TRUE(drain_mmap(path, false).empty());
  // Nothing to simulate: the profile constructor refuses it loudly.
  EXPECT_THROW((void)trace_file_profile(path), util::ConfigError);
  std::remove(path.c_str());
}

// --- corruption torture -----------------------------------------------------

class Lpm2Torture : public testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("lpm2_torture.lpm2");
    mutant_ = temp_path("lpm2_torture_mutant.lpm2");
    ops_ = sample_ops(24);
    VectorTrace src("torture", ops_);
    record_trace_v2(src, path_);
    bytes_ = read_file(path_);
    ASSERT_EQ(bytes_.size(), kLpm2HeaderBytes + ops_.size() * kLpm2RecordBytes);
    // Control: the unmutated file is clean everywhere — without this, the
    // EXPECT_THROWs below could pass vacuously against a broken writer.
    ASSERT_EQ(verify_trace(path_).count, ops_.size());
    ASSERT_EQ(drain_mmap(path_, false), ops_);
    ASSERT_EQ(drain_mmap(path_, true), ops_);
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutant_.c_str());
  }

  std::string path_;
  std::string mutant_;
  std::vector<MicroOp> ops_;
  std::vector<unsigned char> bytes_;
};

TEST_F(Lpm2Torture, TruncationAtEveryByteOffsetIsTypedIoError) {
  // A valid file's size is exactly header + count * record_bytes, so every
  // prefix — empty file, partial header, partial record, and even an exact
  // record boundary — must be rejected at open, before any decode.
  for (std::size_t len = 0; len < bytes_.size(); ++len) {
    write_file(mutant_, bytes_.data(), len);
    EXPECT_TRUE(raises_io_error([&] { (void)inspect_trace(mutant_); }))
        << "inspect_trace at length " << len;
    EXPECT_TRUE(raises_io_error([&] { (void)verify_trace(mutant_); }))
        << "verify_trace at length " << len;
    EXPECT_TRUE(raises_io_error([&] { MmapTrace t(mutant_); }))
        << "MmapTrace at length " << len;
    EXPECT_TRUE(raises_io_error([&] { (void)open_trace(mutant_); }))
        << "open_trace at length " << len;
  }
  // ...and so must a file with bytes appended past the declared count.
  std::vector<unsigned char> grown = bytes_;
  grown.push_back(0);
  write_file(mutant_, grown.data(), grown.size());
  EXPECT_TRUE(raises_io_error([&] { (void)inspect_trace(mutant_); }));
}

TEST_F(Lpm2Torture, EveryHeaderBitFlipIsTypedIoError) {
  // Magic, version, count, record size, and reserved flips die at parse
  // time; checksum flips survive the open and must instead fail the
  // verifier and both replay drains at end-of-stream.
  for (std::size_t offset = 0; offset < kLpm2HeaderBytes; ++offset) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::vector<unsigned char> mutated = bytes_;
      mutated[offset] ^= static_cast<unsigned char>(1u << bit);
      write_file(mutant_, mutated.data(), mutated.size());
      EXPECT_TRUE(fails_everywhere_typed(mutant_))
          << "header offset " << offset << " bit " << bit;
    }
  }
}

TEST_F(Lpm2Torture, EveryRecordBitFlipIsTypedIoError) {
  // A type-byte flip may produce an out-of-range type (caught at decode) or
  // a different valid op; every other byte silently changes the payload. In
  // all cases the content checksum no longer matches the header, so the
  // verifier and both full drains must raise — a replay that "succeeds"
  // with different ops would poison every consumer downstream.
  for (std::size_t offset = kLpm2HeaderBytes; offset < bytes_.size(); ++offset) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::vector<unsigned char> mutated = bytes_;
      mutated[offset] ^= static_cast<unsigned char>(1u << bit);
      write_file(mutant_, mutated.data(), mutated.size());
      EXPECT_TRUE(fails_everywhere_typed(mutant_))
          << "record offset " << offset << " bit " << bit;
    }
  }
}

TEST_F(Lpm2Torture, CorruptionFailureIsStickyUntilReset) {
  // Flip one checksum byte: the file opens (the header parses) but the
  // drain must fail at end-of-stream, stay failed on further calls, and —
  // because replay is deterministic — fail the same way again after reset().
  std::vector<unsigned char> mutated = bytes_;
  mutated[16] ^= 0x01;
  write_file(mutant_, mutated.data(), mutated.size());

  for (const bool pipeline : {false, true}) {
    MmapTrace src(mutant_, "sticky",
                  MmapTraceOptions{.pipeline = pipeline, .chunk_ops = 8});
    std::vector<MicroOp> buf(ops_.size() + 1);
    EXPECT_THROW((void)src.fill(buf.data(), buf.size()), util::IoError)
        << "pipeline=" << pipeline;
    MicroOp op;
    EXPECT_THROW((void)src.fill(&op, 1), util::IoError) << "sticky";
    src.reset();
    EXPECT_THROW((void)src.fill(buf.data(), buf.size()), util::IoError)
        << "after reset";
  }
}

// --- MmapTrace behavior at the edges ----------------------------------------

TEST(MmapTraceEdges, ZeroFillAndExactExhaustion) {
  const std::string path = temp_path("lpm2_edges.lpm2");
  const std::vector<MicroOp> ops = sample_ops(10);
  VectorTrace src("edges", ops);
  record_trace_v2(src, path);

  for (const bool pipeline : {false, true}) {
    MmapTrace t(path, "edges", MmapTraceOptions{.pipeline = pipeline,
                                                .chunk_ops = 4});
    std::vector<MicroOp> buf(ops.size());
    EXPECT_EQ(t.fill(buf.data(), 0), 0u);
    // An exact-size request drains everything; the next call reports EOF.
    ASSERT_EQ(t.fill(buf.data(), buf.size()), ops.size());
    EXPECT_EQ(buf, ops);
    EXPECT_EQ(t.fill(buf.data(), buf.size()), 0u);
    MicroOp op;
    EXPECT_EQ(t.fill(&op, 1), 0u);
  }
  std::remove(path.c_str());
}

// --- open_trace dispatch + env knobs ----------------------------------------

/// Sets an environment variable for the enclosing scope, restoring the
/// previous state on destruction so tests cannot leak knobs at each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

class OpenTraceDispatch : public testing::Test {
 protected:
  void SetUp() override {
    v1_ = temp_path("open_dispatch.lpmt");
    v2_ = temp_path("open_dispatch.lpm2");
    const auto profile = spec_profile(SpecBenchmark::kMcf, 300, 5);
    {
      SyntheticTrace gen(profile);
      record_trace(gen, v1_);
    }
    SyntheticTrace gen(profile);
    record_trace_v2(gen, v2_);
  }
  void TearDown() override {
    std::remove(v1_.c_str());
    std::remove(v2_.c_str());
  }

  std::string v1_;
  std::string v2_;
};

TEST_F(OpenTraceDispatch, SniffsMagicAndRejectsGarbage) {
  const TraceSourcePtr legacy = open_trace(v1_);
  EXPECT_NE(dynamic_cast<FileTrace*>(legacy.get()), nullptr);

  const TraceSourcePtr streaming = open_trace(v2_);
  auto* mmap = dynamic_cast<MmapTrace*>(streaming.get());
  ASSERT_NE(mmap, nullptr);
  // 300 records is far below the 8 MiB auto threshold: direct mode.
  EXPECT_FALSE(mmap->pipelined());

  EXPECT_THROW((void)open_trace(temp_path("open_dispatch_missing.lpm2")),
               util::IoError);
  const std::string junk = temp_path("open_dispatch_junk.bin");
  const unsigned char garbage[] = {'J', 'U', 'N', 'K', 0, 0, 0, 0};
  write_file(junk, garbage, sizeof(garbage));
  EXPECT_THROW((void)open_trace(junk), util::IoError);
  std::remove(junk.c_str());
}

TEST_F(OpenTraceDispatch, ExplicitOptionsBeatTheAutoThreshold) {
  OpenTraceOptions on;
  on.pipeline = OpenTraceOptions::Pipeline::kOn;
  const TraceSourcePtr forced = open_trace(v2_, "", on);
  auto* forced_mmap = dynamic_cast<MmapTrace*>(forced.get());
  ASSERT_NE(forced_mmap, nullptr);
  EXPECT_TRUE(forced_mmap->pipelined());

  // A one-byte threshold makes auto mode pick the pipeline for any file.
  OpenTraceOptions tiny;
  tiny.pipeline_threshold_bytes = 1;
  const TraceSourcePtr autod = open_trace(v2_, "", tiny);
  auto* autod_mmap = dynamic_cast<MmapTrace*>(autod.get());
  ASSERT_NE(autod_mmap, nullptr);
  EXPECT_TRUE(autod_mmap->pipelined());
}

TEST_F(OpenTraceDispatch, EnvKnobsSteerTheAutoMode) {
  {
    ScopedEnv env("LPM_TRACE_PIPELINE", "on");
    const TraceSourcePtr t = open_trace(v2_);
    auto* mmap = dynamic_cast<MmapTrace*>(t.get());
    ASSERT_NE(mmap, nullptr);
    EXPECT_TRUE(mmap->pipelined());
  }
  {
    ScopedEnv env("LPM_TRACE_PIPELINE", "off");
    ScopedEnv thr("LPM_TRACE_PIPELINE_THRESHOLD", "1");  // would auto-engage
    const TraceSourcePtr t = open_trace(v2_);
    auto* mmap = dynamic_cast<MmapTrace*>(t.get());
    ASSERT_NE(mmap, nullptr);
    EXPECT_FALSE(mmap->pipelined());
  }
  {
    ScopedEnv env("LPM_TRACE_PIPELINE_THRESHOLD", "1");
    const TraceSourcePtr t = open_trace(v2_);
    auto* mmap = dynamic_cast<MmapTrace*>(t.get());
    ASSERT_NE(mmap, nullptr);
    EXPECT_TRUE(mmap->pipelined());
  }
  {
    // Malformed knobs warn and fall back instead of throwing or misreading.
    ScopedEnv env("LPM_TRACE_PIPELINE", "sideways");
    ScopedEnv chunk("LPM_TRACE_CHUNK_OPS", "not-a-number");
    const TraceSourcePtr t = open_trace(v2_);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(materialize(*t, 301).size(), 300u);
  }
}

// --- materialize(): the fill() contract is enforced, not trusted ------------

/// Claims more ops than were requested — the "scribbled past the buffer"
/// bug materialize() must refuse to propagate. (It writes only the legal
/// region; the lie is in the return value.)
class OverReportingSource final : public TraceSource {
 public:
  std::size_t fill(MicroOp* dst, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) dst[i] = MicroOp{};
    return n + 1;
  }
  void reset() override {}
  [[nodiscard]] std::string name() const override { return "over-reporter"; }
};

/// Returns one op per call forever — a short count that never reaches zero.
/// Under the fill() contract a short count means EOF, so materialize() must
/// stop after the first one instead of spinning on the source.
class DribblingSource final : public TraceSource {
 public:
  std::size_t fill(MicroOp* dst, std::size_t n) override {
    ++calls_;
    if (n == 0) return 0;
    dst[0] = MicroOp{};
    return 1;
  }
  void reset() override {}
  [[nodiscard]] std::string name() const override { return "dribbler"; }
  [[nodiscard]] std::size_t calls() const { return calls_; }

 private:
  std::size_t calls_ = 0;
};

TEST(Materialize, OverReportingSourceThrowsSimError) {
  OverReportingSource src;
  EXPECT_THROW((void)materialize(src, 64), util::SimError);
}

TEST(Materialize, ShortReturningSourceTerminatesAfterOneCall) {
  DribblingSource src;
  const std::vector<MicroOp> ops = materialize(src, 1000);
  EXPECT_EQ(ops.size(), 1u);
  EXPECT_EQ(src.calls(), 1u);
}

TEST(Materialize, ExhaustedSourceYieldsEmpty) {
  const std::vector<MicroOp> empty_ops;
  VectorTrace src("empty", empty_ops);
  EXPECT_TRUE(materialize(src, 100).empty());
}

// --- file-backed profiles + fingerprint identity ----------------------------

TEST(FileBackedProfile, ProbesTheHeaderAndValidates) {
  const std::string path = temp_path("profile_probe.lpm2");
  SyntheticTrace gen(spec_profile(SpecBenchmark::kSoplex, 400, 21));
  const std::uint64_t recorded = record_trace_v2(gen, path);

  const WorkloadProfile wl = trace_file_profile(path);
  EXPECT_TRUE(wl.file_backed());
  EXPECT_EQ(wl.trace_path, path);
  EXPECT_EQ(wl.trace_checksum, recorded);
  EXPECT_EQ(wl.length, 400u);
  EXPECT_EQ(wl.name, "profile_probe.lpm2");  // basename default
  wl.validate();

  // A file-backed profile cannot drive the synthetic generator.
  EXPECT_THROW(SyntheticTrace reject(wl), util::ConfigError);
  std::remove(path.c_str());
}

TEST(FileBackedProfile, FingerprintKeysOnContentNotPath) {
  // The same stream recorded at two paths — and in the two formats — must
  // fingerprint identically (memo caches key on what the bytes replay, not
  // where they sit); a different stream must not.
  const std::string a = temp_path("fp_a.lpm2");
  const std::string b = temp_path("fp_b.lpmt");
  const std::string c = temp_path("fp_c.lpm2");
  const auto profile = spec_profile(SpecBenchmark::kLeslie3d, 600, 13);
  {
    SyntheticTrace gen(profile);
    record_trace_v2(gen, a);
  }
  {
    SyntheticTrace gen(profile);
    record_trace(gen, b);  // v1 resident format, same stream
  }
  {
    SyntheticTrace gen(spec_profile(SpecBenchmark::kLeslie3d, 600, 14));
    record_trace_v2(gen, c);
  }
  const std::uint64_t fa = util::fingerprint(trace_file_profile(a, "same"));
  const std::uint64_t fb = util::fingerprint(trace_file_profile(b, "same"));
  const std::uint64_t fc = util::fingerprint(trace_file_profile(c, "same"));
  EXPECT_EQ(fa, fb);
  EXPECT_NE(fa, fc);
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(c.c_str());
}

TEST(FileBackedProfile, MakeTraceReplaysAndGuardsAgainstFileChanges) {
  const std::string path = temp_path("make_trace_guard.lpm2");
  const auto profile = spec_profile(SpecBenchmark::kMilc, 500, 3);
  std::vector<MicroOp> expected;
  {
    SyntheticTrace gen(profile);
    expected = materialize(gen, profile.length);
  }
  {
    SyntheticTrace gen(profile);
    record_trace_v2(gen, path);
  }
  const WorkloadProfile wl = trace_file_profile(path);

  const TraceSourcePtr replay = make_trace(wl);
  EXPECT_EQ(materialize(*replay, expected.size() + 1), expected);

  // Overwrite the file with a different recording: the profile's checksum
  // no longer matches what is on disk, so make_trace must refuse — this is
  // the guard that keeps checksum-keyed memo caches honest.
  SyntheticTrace other(spec_profile(SpecBenchmark::kMilc, 500, 4));
  record_trace_v2(other, path);
  EXPECT_THROW((void)make_trace(wl), util::IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lpm::trace
