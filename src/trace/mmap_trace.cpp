#include "trace/mmap_trace.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "trace/trace_file.hpp"
#include "util/log.hpp"

namespace lpm::trace {

namespace {

constexpr std::size_t kDefaultChunkOps = 1u << 16;          // ~1.5 MiB/slot
constexpr std::uint64_t kDefaultPipelineThreshold = 8u << 20;  // 8 MiB

[[noreturn]] void fail_io(const std::string& what, const std::string& path) {
  throw util::IoError(what + " in " + path);
}

/// Parses an unsigned env knob; returns `fallback` (warning once per call)
/// when the variable is unset, empty, or not a positive integer.
std::uint64_t env_uint_or(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (errno != 0 || end == raw || *end != '\0' || v == 0) {
    util::log_warn() << name << "='" << raw << "' is not a positive integer; using "
                     << fallback;
    return fallback;
  }
  return v;
}

OpenTraceOptions::Pipeline env_pipeline_or(OpenTraceOptions::Pipeline fallback) {
  const char* raw = std::getenv("LPM_TRACE_PIPELINE");
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::string v(raw);
  if (v == "on" || v == "1" || v == "true") return OpenTraceOptions::Pipeline::kOn;
  if (v == "off" || v == "0" || v == "false") return OpenTraceOptions::Pipeline::kOff;
  if (v == "auto") return OpenTraceOptions::Pipeline::kAuto;
  util::log_warn() << "LPM_TRACE_PIPELINE='" << v << "' is not on/off/auto; using auto";
  return fallback;
}

}  // namespace

MmapTrace::MmapTrace(const std::string& path, std::string name, Options opts)
    : path_(path),
      name_(name.empty() ? "mmap:" + path : std::move(name)),
      opts_(opts) {
  if (opts_.chunk_ops == 0) opts_.chunk_ops = kDefaultChunkOps;

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail_io("mmap trace: cannot open (" + std::string(std::strerror(errno)) + ")", path);

  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    const int err = errno;
    ::close(fd);
    fail_io("mmap trace: fstat failed (" + std::string(std::strerror(err)) + ")", path);
  }
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < kLpm2HeaderBytes) {
    ::close(fd);
    fail_io("trace: file too small for an LPM2 header", path);
  }

  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (map == MAP_FAILED) {
    fail_io("mmap trace: mmap failed (" + std::string(std::strerror(errno)) + ")", path);
  }
  map_ = static_cast<const unsigned char*>(map);
  map_bytes_ = file_bytes;
  // Advisory only: tells the kernel to read ahead aggressively and drop
  // pages behind the cursor, which is what bounds resident cost on traces
  // larger than memory. A failure is harmless.
  (void)::madvise(map, file_bytes, MADV_SEQUENTIAL);

  TraceFileInfo info;
  try {
    info = parse_lpm2_header(map_, file_bytes, path);
  } catch (...) {
    ::munmap(const_cast<unsigned char*>(map_), map_bytes_);
    map_ = nullptr;
    throw;
  }
  records_ = map_ + kLpm2HeaderBytes;
  count_ = info.count;
  header_checksum_ = info.checksum;

  if (opts_.pipeline) start_decoder();
}

MmapTrace::~MmapTrace() {
  stop_decoder();
  if (map_ != nullptr) ::munmap(const_cast<unsigned char*>(map_), map_bytes_);
}

void MmapTrace::rethrow_failure() const {
  util::throw_error(failure_, failure_message_);
}

std::size_t MmapTrace::fill(MicroOp* dst, std::size_t n) {
  if (failure_ != util::ErrorCode::kNone) rethrow_failure();
  if (n == 0) return 0;
  return opts_.pipeline ? fill_pipelined(dst, n) : fill_direct(dst, n);
}

void MmapTrace::verify_stream_checksum(std::uint64_t computed) const {
  if (computed != header_checksum_) {
    throw util::IoError("trace: content checksum mismatch in " + path_ +
                        " (header says " + std::to_string(header_checksum_) +
                        ", records hash to " + std::to_string(computed) +
                        ") — corrupt record payload");
  }
}

std::size_t MmapTrace::fill_direct(MicroOp* dst, std::size_t n) {
  const std::uint64_t remaining = count_ - pos_;
  const auto take = static_cast<std::size_t>(
      std::min<std::uint64_t>(n, remaining));
  const unsigned char* src = records_ + pos_ * kLpm2RecordBytes;
  try {
    for (std::size_t i = 0; i < take; ++i) {
      dst[i] = decode_record(src + i * kLpm2RecordBytes);
    }
    running_.update(src, take * kLpm2RecordBytes);
    pos_ += take;
    if (pos_ == count_ && !verified_) {
      verified_ = true;
      verify_stream_checksum(running_.digest());
    }
  } catch (const util::LpmError& e) {
    failure_ = e.code();
    failure_message_ = e.what();
    throw;
  }
  return take;
}

std::size_t MmapTrace::fill_pipelined(MicroOp* dst, std::size_t n) {
  std::size_t produced = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (produced < n && !eof_) {
    Slot& slot = slots_[consumer_slot_];
    slot_ready_cv_.wait(lk, [&] { return slot.ready; });
    const std::size_t take = std::min(slot.count - slot.consumed, n - produced);
    std::copy_n(slot.ops.data() + slot.consumed, take, dst + produced);
    slot.consumed += take;
    produced += take;
    if (slot.consumed == slot.count) {
      if (slot.error != util::ErrorCode::kNone) {
        // The decoder hit corruption (bad record or checksum mismatch at
        // end-of-stream). Deliveries stop here: surface the typed error on
        // the consuming thread and stay failed.
        failure_ = slot.error;
        failure_message_ = slot.error_message;
        eof_ = true;
        lk.unlock();
        rethrow_failure();
      }
      if (slot.last) {
        eof_ = true;
        break;
      }
      slot.ready = false;
      slot.consumed = 0;
      slot.count = 0;
      consumer_slot_ ^= 1u;
      slot_free_cv_.notify_one();
    }
  }
  return produced;
}

void MmapTrace::start_decoder() {
  for (Slot& slot : slots_) {
    slot.ops.resize(opts_.chunk_ops);
    slot.count = 0;
    slot.consumed = 0;
    slot.ready = false;
    slot.last = false;
    slot.error = util::ErrorCode::kNone;
    slot.error_message.clear();
  }
  consumer_slot_ = 0;
  stop_ = false;
  eof_ = false;
  decoder_ = std::thread(&MmapTrace::decoder_main, this);
}

void MmapTrace::stop_decoder() {
  if (!decoder_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  slot_free_cv_.notify_all();
  decoder_.join();
}

void MmapTrace::decoder_main() {
  std::uint64_t cursor = 0;
  util::Checksum64 checksum;
  std::size_t produce_slot = 0;
  bool done = false;
  while (!done) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      slot_free_cv_.wait(lk, [&] { return stop_ || !slots_[produce_slot].ready; });
      if (stop_) return;
    }
    // The slot is owned by this thread while !ready, so decode outside the
    // lock — this is the overlap the pipeline exists for.
    Slot& slot = slots_[produce_slot];
    const std::uint64_t remaining = count_ - cursor;
    const auto batch = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, opts_.chunk_ops));
    std::size_t decoded = 0;
    util::ErrorCode error = util::ErrorCode::kNone;
    std::string error_message;
    try {
      const unsigned char* src = records_ + cursor * kLpm2RecordBytes;
      for (; decoded < batch; ++decoded) {
        slot.ops[decoded] = decode_record(src + decoded * kLpm2RecordBytes);
      }
      checksum.update(src, batch * kLpm2RecordBytes);
      cursor += batch;
      if (cursor == count_) verify_stream_checksum(checksum.digest());
    } catch (const util::LpmError& e) {
      error = e.code();
      error_message = e.what();
    } catch (const std::exception& e) {
      error = util::ErrorCode::kSim;
      error_message = std::string("trace decoder: ") + e.what();
    }
    done = cursor == count_ || error != util::ErrorCode::kNone;
    {
      std::lock_guard<std::mutex> lk(mu_);
      slot.count = decoded;
      slot.consumed = 0;
      slot.error = error;
      slot.error_message = std::move(error_message);
      slot.last = done;
      slot.ready = true;
    }
    slot_ready_cv_.notify_one();
    produce_slot ^= 1u;
  }
}

void MmapTrace::reset() {
  stop_decoder();
  pos_ = 0;
  running_ = util::Checksum64();
  verified_ = false;
  // A rewind clears sticky failure: the replay is deterministic, so a
  // corrupt file simply fails at the same record again.
  failure_ = util::ErrorCode::kNone;
  failure_message_.clear();
  eof_ = false;
  if (opts_.pipeline) start_decoder();
}

TraceSourcePtr open_trace(const std::string& path, std::string name,
                          OpenTraceOptions opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) fail_io("trace: cannot open", path);
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in.good()) fail_io("trace: file too small for a magic", path);
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  if (end < 0) fail_io("trace: cannot size file", path);
  const auto file_bytes = static_cast<std::uint64_t>(end);
  in.close();

  if (std::memcmp(magic, "LPMT", 4) == 0) {
    // Legacy resident path: the whole trace is materialized in memory.
    return name.empty() ? std::make_unique<FileTrace>(path)
                        : std::make_unique<FileTrace>(path, std::move(name));
  }
  if (std::memcmp(magic, "LPM2", 4) == 0) {
    OpenTraceOptions::Pipeline mode = opts.pipeline;
    if (mode == OpenTraceOptions::Pipeline::kAuto) {
      mode = env_pipeline_or(OpenTraceOptions::Pipeline::kAuto);
    }
    const std::uint64_t threshold =
        opts.pipeline_threshold_bytes != 0
            ? opts.pipeline_threshold_bytes
            : env_uint_or("LPM_TRACE_PIPELINE_THRESHOLD", kDefaultPipelineThreshold);
    const std::size_t chunk_ops =
        opts.chunk_ops != 0
            ? opts.chunk_ops
            : static_cast<std::size_t>(
                  env_uint_or("LPM_TRACE_CHUNK_OPS", kDefaultChunkOps));
    MmapTrace::Options mopts;
    mopts.chunk_ops = chunk_ops;
    switch (mode) {
      case OpenTraceOptions::Pipeline::kOn: mopts.pipeline = true; break;
      case OpenTraceOptions::Pipeline::kOff: mopts.pipeline = false; break;
      case OpenTraceOptions::Pipeline::kAuto:
        mopts.pipeline = file_bytes >= threshold;
        break;
    }
    return std::make_unique<MmapTrace>(path, std::move(name), mopts);
  }
  fail_io("trace: unrecognized magic (not LPMT or LPM2)", path);
}

}  // namespace lpm::trace
