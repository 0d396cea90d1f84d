// Reference out-of-order core: the oracle counterpart of cpu::OooCore.
//
// This is the scan-based core the optimized one replaced, kept unchanged
// apart from its name: every cycle do_issue() walks the ROB from the head
// and re-evaluates each dispatched entry's operands through dep_done(). The
// optimized core instead counts unfinished producers at dispatch and wakes
// consumers through a ready bitmap (DESIGN.md "The OoO core"). Both must
// produce bit-identical CoreStats and the identical memory-request stream
// for any trace and any memory level below them
// (tests/check/ref_core_test.cpp); RefSystem uses this core, so the
// system-level diff covers the core too.
#pragma once

#include <array>
#include <vector>

#include "cpu/core_config.hpp"
#include "mem/request.hpp"
#include "trace/trace_source.hpp"
#include "util/ring_buffer.hpp"

namespace lpm::mem {
class Cache;
}

namespace lpm::check {

class RefCore final : public mem::ResponseSink {
 public:
  /// `l1` and `source` are non-owning and must outlive the core. `id_space`
  /// partitions request-id space among cores sharing a hierarchy.
  RefCore(cpu::CoreConfig cfg, trace::TraceSource* source, mem::MemoryLevel* l1,
          std::uint64_t id_space);

  /// Advances one cycle. Call after the memory hierarchy's tick for the
  /// same cycle (bottom-up ticking).
  void tick(Cycle now);

  /// True once the trace is exhausted, the ROB is empty, and no memory
  /// operation is in flight.
  [[nodiscard]] bool finished() const;

  void on_response(const mem::MemResponse& rsp) override;

  [[nodiscard]] const cpu::CoreStats& stats() const { return stats_; }
  [[nodiscard]] const cpu::CoreConfig& config() const { return cfg_; }

  /// In-flight accepted memory accesses (test hook).
  [[nodiscard]] std::size_t in_flight_mem() const { return lsq_occupancy_; }

 private:
  enum class State : std::uint8_t {
    kDispatched,  ///< in ROB + IW, waiting for operands / issue slot
    kExecuting,   ///< ALU busy or memory op in flight
    kMemWaiting,  ///< memory op accepted, waiting for response
    kDone,        ///< ready to commit
  };
  struct RobEntry {
    trace::MicroOp op;
    std::uint64_t index = 0;  ///< dynamic instruction number
    State state = State::kDispatched;
    Cycle done_at = kNoCycle;     ///< ALU completion time
    RequestId mem_id = kNoRequest;
  };

  /// Micro-ops pulled per TraceSource::fill call: one virtual call amortized
  /// over a whole chunk instead of one per dispatched instruction.
  static constexpr std::size_t kTraceChunk = 256;

  /// Memory-request ids carry the ROB sequence number in their low bits
  /// (the id space tag sits above). Sequence numbers are unique for the
  /// lifetime of a core, so no in-flight map is needed to route responses.
  static constexpr std::uint64_t kSeqBits = 48;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

  [[nodiscard]] bool deps_ready(const RobEntry& e) const;
  [[nodiscard]] bool dep_done(std::uint64_t index, std::uint32_t dist) const;
  void do_commit(Cycle now);
  void do_complete(Cycle now);
  void do_issue(Cycle now);
  void do_dispatch(Cycle now);
  /// Pulls the next chunk from the trace; false = source exhausted.
  bool refill_trace();
  /// L1 access through the devirtualized fast path when the level below is
  /// a concrete mem::Cache (the common case; Cache is final, so the call
  /// resolves statically), else through the MemoryLevel vtable.
  [[nodiscard]] bool l1_try_access(const mem::MemRequest& req);

  cpu::CoreConfig cfg_;
  trace::TraceSource* source_;   // non-owning
  mem::MemoryLevel* l1_;         // non-owning
  mem::Cache* l1_cache_ = nullptr;  // == l1_ when it is a Cache; non-owning
  // Trace chunk buffer: fill() writes straight into it, dispatch reads it
  // back out; refilled only when drained, so no wraparound bookkeeping.
  std::array<trace::MicroOp, kTraceChunk> trace_chunk_;
  std::size_t chunk_pos_ = 0;
  std::size_t chunk_len_ = 0;
  util::RingBuffer<RobEntry> rob_;
  std::uint64_t next_index_ = 0;           ///< next dynamic instruction number
  std::uint64_t iw_occupancy_ = 0;         ///< dispatched-not-issued entries
  std::uint64_t lsq_occupancy_ = 0;        ///< memory ops issued-not-completed
  RequestId id_base_;                      ///< id_space tag above the seq bits
  std::vector<std::uint64_t> executing_;   ///< ROB seqs of in-flight ALU ops
  util::RingBuffer<mem::MemResponse> responses_{1};  // sized to LSQ in ctor
  bool trace_done_ = false;
  std::uint64_t committed_this_cycle_ = 0;
  cpu::CoreStats stats_;
};

}  // namespace lpm::check
