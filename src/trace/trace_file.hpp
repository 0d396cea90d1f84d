// Binary trace file format v1 ("LPMT"): record a TraceSource once, replay
// it from disk — the *resident* tier of the two-tier ingestion story.
//
// Layout (little-endian):
//   magic "LPMT" | u32 version | u64 count | count * packed MicroOp records
// Record: u8 type | u8 exec_latency | u32 dep_dist | u32 dep_dist2 | u64 addr
//
// Memory contract, by tier:
//   v1 (this header)  — the whole trace is materialized into one
//     std::vector<MicroOp> at load and stays resident for the lifetime of
//     the FileTrace (~24 B per record on LP64). Simple and fast for traces
//     that fit comfortably in memory; it cannot replay a trace larger than
//     RAM, and it stores no content checksum.
//   v2 "LPM2" (lpm2.hpp + mmap_trace.hpp) — streaming: the file is mmap()ed
//     read-only and decoded in place, so resident cost is bounded (page
//     cache + at most two pipeline chunks), independent of trace size, and
//     the payload is integrity-checked by a content checksum at end of
//     stream. Prefer it for anything new; `lpm_trace convert` and
//     record_trace_v2() migrate v1 recordings.
//
// open_trace() (mmap_trace.hpp) sniffs the magic and picks the right tier,
// so consumers do not dispatch on format themselves. Both formats share the
// record layout, and a v1 file's content checksum (computed on inspection)
// equals the v2 checksum of the same stream — file-backed workload
// fingerprints are format-independent.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "trace/trace_source.hpp"

namespace lpm::trace {

/// Writes every op of `source` (from its current position to exhaustion) to
/// `path`. Returns the number of ops written. Throws util::LpmError on I/O
/// failure.
std::uint64_t record_trace(TraceSource& source, const std::string& path);

/// Loads a recorded trace fully into memory.
///
/// Memory contract: the entire trace is materialized as a single
/// std::vector<MicroOp> (sizeof(MicroOp) per record, ~24 B on LP64), so a
/// trace of N ops costs ~24*N bytes of resident memory for the lifetime of
/// the vector — there is no streaming replay path. The header's `count`
/// field is validated against the file's actual size before any allocation:
/// a corrupt or hostile count larger than the bytes present throws a typed
/// util::IoError instead of driving an uncontrolled reserve().
///
/// Throws util::IoError on corrupt headers/counts and util::LpmError
/// (ConfigError) on other malformed content.
[[nodiscard]] std::vector<MicroOp> load_trace(const std::string& path);

/// A TraceSource replaying a file loaded via load_trace(). Inherits that
/// function's memory contract: the whole trace stays resident in ops_.
class FileTrace final : public TraceSource {
 public:
  explicit FileTrace(const std::string& path, std::string name = "file-trace")
      : name_(std::move(name)), ops_(load_trace(path)) {}

  std::size_t fill(MicroOp* dst, std::size_t n) override {
    const std::size_t take = std::min(n, ops_.size() - pos_);
    std::copy_n(ops_.begin() + static_cast<std::ptrdiff_t>(pos_), take, dst);
    pos_ += take;
    return take;
  }
  void reset() override { pos_ = 0; }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }

 private:
  std::string name_;
  std::vector<MicroOp> ops_;
  std::size_t pos_ = 0;
};

}  // namespace lpm::trace
