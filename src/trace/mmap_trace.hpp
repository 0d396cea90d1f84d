// MmapTrace: zero-copy streaming replay of LPM2 trace files.
//
// The file is mmap()ed read-only once and records are decoded in place from
// the mapped bytes, so resident cost is bounded by the kernel's page cache
// policy (madvise(MADV_SEQUENTIAL) tells it to read ahead and drop behind),
// not by the trace size — a terabyte trace replays in a fixed memory
// footprint. Two delivery modes share one decode loop:
//
//   direct    — fill() decodes straight from the map into the caller's
//               buffer. No threads, no staging memory. Best for warm files
//               (already in page cache) and small traces.
//   pipelined — a background decoder thread fills two fixed MicroOp chunks
//               (double buffering: the consumer drains one slot while the
//               decoder refills the other), overlapping page-in + decode
//               with simulation. Resident cost: 2 * chunk_ops * sizeof(
//               MicroOp), ~3 MiB at the default chunk. Best for cold files.
//
// Both modes enforce the fill() contract exactly: fill() returns the full
// request unless the trace is exhausted, reset() replays an identical
// stream, and the content checksum is verified when the last record is
// consumed — a corrupt tail surfaces as util::IoError at the end of the
// drain, never as a silently short stream.
//
// open_trace() is the format-sniffing entry point: v1 "LPMT" files go to
// the legacy resident FileTrace, v2 "LPM2" files to MmapTrace, with the
// pipeline engaged automatically for files above a size threshold. Env
// knobs (documented in EXPERIMENTS.md): LPM_TRACE_PIPELINE=on|off|auto,
// LPM_TRACE_CHUNK_OPS, LPM_TRACE_PIPELINE_THRESHOLD (bytes).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/lpm2.hpp"
#include "trace/trace_source.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace lpm::trace {

struct MmapTraceOptions {
  bool pipeline = false;             ///< decode on a background thread
  std::size_t chunk_ops = 1u << 16;  ///< ops per pipeline slot
};

class MmapTrace final : public TraceSource {
 public:
  using Options = MmapTraceOptions;

  /// Maps `path` (must be LPM2; v1 files load via FileTrace) and validates
  /// its header. Throws util::IoError on open/map failure or a corrupt
  /// header. `name` defaults to "mmap:<path>".
  explicit MmapTrace(const std::string& path, std::string name = "",
                     Options opts = Options());
  ~MmapTrace() override;

  MmapTrace(const MmapTrace&) = delete;
  MmapTrace& operator=(const MmapTrace&) = delete;

  std::size_t fill(MicroOp* dst, std::size_t n) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] std::uint64_t size() const { return count_; }
  [[nodiscard]] std::uint64_t checksum() const { return header_checksum_; }
  [[nodiscard]] bool pipelined() const { return opts_.pipeline; }

 private:
  // One pipeline buffer. The decoder owns a slot while state == kFree and
  // publishes it with kReady; the consumer drains it and hands it back.
  struct Slot {
    std::vector<MicroOp> ops;
    std::size_t count = 0;     ///< decoded ops in this chunk
    std::size_t consumed = 0;  ///< consumer's cursor within the chunk
    bool ready = false;        ///< decoder has published, consumer may read
    bool last = false;         ///< chunk contains the final record (or error)
    util::ErrorCode error = util::ErrorCode::kNone;
    std::string error_message;
  };

  std::size_t fill_direct(MicroOp* dst, std::size_t n);
  std::size_t fill_pipelined(MicroOp* dst, std::size_t n);
  void verify_stream_checksum(std::uint64_t computed) const;
  void start_decoder();
  void stop_decoder();
  void decoder_main();
  [[noreturn]] void rethrow_failure() const;

  std::string path_;
  std::string name_;
  Options opts_;

  const unsigned char* map_ = nullptr;  ///< whole file, read-only
  std::size_t map_bytes_ = 0;
  const unsigned char* records_ = nullptr;  ///< first record byte
  std::uint64_t count_ = 0;
  std::uint64_t header_checksum_ = 0;

  // Direct-mode cursor + running content hash (verified at end-of-trace).
  std::uint64_t pos_ = 0;
  util::Checksum64 running_;
  bool verified_ = false;

  // Sticky failure: after a corruption throw, later calls rethrow the same
  // typed error instead of continuing into an inconsistent stream.
  util::ErrorCode failure_ = util::ErrorCode::kNone;
  std::string failure_message_;

  // Pipeline state (only touched when opts_.pipeline).
  std::mutex mu_;
  std::condition_variable slot_ready_cv_;   ///< decoder -> consumer
  std::condition_variable slot_free_cv_;    ///< consumer -> decoder
  Slot slots_[2];
  std::size_t consumer_slot_ = 0;
  bool stop_ = false;
  bool eof_ = false;
  std::thread decoder_;
};

/// Pipeline/chunk selection for open_trace(). Zero-valued fields fall back
/// to the LPM_TRACE_* environment knobs, then to built-in defaults.
struct OpenTraceOptions {
  enum class Pipeline { kAuto, kOn, kOff };
  Pipeline pipeline = Pipeline::kAuto;
  std::size_t chunk_ops = 0;                 ///< 0 = env or 65536
  std::uint64_t pipeline_threshold_bytes = 0;  ///< 0 = env or 8 MiB
};

/// Opens a recorded trace of either format: sniffs the magic and returns a
/// FileTrace (v1 "LPMT", fully resident) or an MmapTrace (v2 "LPM2",
/// streaming). For v2, the decode pipeline engages when the file size is at
/// or above the threshold (auto mode). Throws util::IoError for missing
/// files or unrecognized content.
[[nodiscard]] TraceSourcePtr open_trace(const std::string& path,
                                        std::string name = "",
                                        OpenTraceOptions opts = {});

}  // namespace lpm::trace
