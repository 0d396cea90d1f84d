// Trace-driven out-of-order core model.
//
// The model captures exactly the memory-side behaviour the LPM paper needs
// from gem5's O3 CPU: a reorder buffer bounding in-flight work, an
// instruction window bounding the scheduler, an LSQ bounding outstanding
// memory operations, multi-issue, and commit-side stall/overlap accounting
// (Eq. 7/8). Simplifications (no branch mispredictions, no store-to-load
// forwarding, stores retire at L1 acceptance) are documented in DESIGN.md.
//
// Issue is event-driven. At dispatch an entry counts its unfinished
// producers and links itself into their consumer lists; when a producer
// becomes kDone (ALU completion, load response, store acceptance) it
// decrements each consumer's count, and a consumer reaching zero sets its
// bit in a ready bitmap over the ROB slots. do_issue() walks only that
// bitmap, oldest first, instead of rescanning the ROB and re-checking
// operands every cycle. An issued ALU op joins the bucket of its due cycle
// on a completion wheel, so completion visits only the ops due now.
// check::RefCore keeps the scan-based core this replaced; the two are
// bit-identical (tests/check/ref_core_test.cpp).
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

namespace lpm::cpu {

class OooCore final : public mem::ResponseSink {
 public:
  /// `l1` and `source` are non-owning and must outlive the core. `id_space`
  /// partitions request-id space among cores sharing a hierarchy.
  OooCore(CoreConfig cfg, trace::TraceSource* source, mem::MemoryLevel* l1,
          std::uint64_t id_space);

  /// Advances one cycle. Call once for every cycle in increasing order,
  /// after the memory hierarchy's tick for the same cycle (bottom-up
  /// ticking).
  void tick(Cycle now);

  /// True once the trace is exhausted, the ROB is empty, and no memory
  /// operation is in flight.
  [[nodiscard]] bool finished() const;

  void on_response(const mem::MemResponse& rsp) override;

  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  [[nodiscard]] const CoreConfig& config() const { return cfg_; }

  /// In-flight accepted memory accesses (test hook).
  [[nodiscard]] std::size_t in_flight_mem() const { return lsq_occupancy_; }

 private:
  enum class State : std::uint8_t {
    kDispatched,  ///< in ROB + IW, waiting for operands / issue slot
    kExecuting,   ///< ALU busy or memory op in flight
    kMemWaiting,  ///< memory op accepted, waiting for response
    kDone,        ///< ready to commit
  };
  /// "No entry" marker for consumer-edge and completion-wheel links.
  static constexpr std::uint32_t kNoEdge = 0xffffffffu;
  /// What issue, completion and commit read of one in-flight instruction.
  /// Dispatch writes it straight into its ROB slot; the dependence
  /// distances are read from the trace chunk there and not kept. The
  /// dynamic instruction number is the slot's sequence number
  /// (RingBuffer::seq_of_slot).
  struct RobEntry {
    Addr addr;                  ///< byte address (memory ops)
    trace::OpType type;
    State state;
    std::uint8_t pending;       ///< producers not yet kDone
    std::uint8_t exec_latency;  ///< ALU busy cycles
    /// Head of this entry's consumer list. Edge `2*slot + k` is dependence
    /// k of the consumer in ROB slot `slot`; its link is that consumer's
    /// next_edge[k]. A consumer is younger than its producer, so it cannot
    /// retire (and its slot cannot be reused) before the producer's list
    /// has been walked.
    std::uint32_t consumers;
    std::array<std::uint32_t, 2> next_edge;
    /// Next ROB slot in the same completion-wheel bucket (kExecuting ALU
    /// ops only).
    std::uint32_t wheel_next;
  };
  static_assert(sizeof(RobEntry) <= 32, "RobEntry spans more than 32 bytes");

  /// Completion wheel: an ALU op issued at cycle t is due at
  /// max(t + 1, t + exec_latency), and exec_latency < kWheelSize, so one
  /// bucket per cycle modulo kWheelSize never mixes two due cycles.
  static constexpr std::size_t kWheelSize = 256;
  static_assert(kWheelSize > 0xff, "the wheel must cover every uint8_t latency");

  /// Micro-ops pulled per TraceSource::fill call: one virtual call amortized
  /// over a whole chunk instead of one per dispatched instruction.
  static constexpr std::size_t kTraceChunk = 256;

  /// Memory-request ids carry the ROB sequence number in their low bits
  /// (the id space tag sits above). Sequence numbers are unique for the
  /// lifetime of a core, so no in-flight map is needed to route responses.
  static constexpr std::uint64_t kSeqBits = 48;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

  /// Links entry `e` (instruction `seq`, in ROB slot `slot`) as a consumer
  /// of the producer `dist` instructions back, if that producer is still
  /// unfinished. A distance of 0 or beyond the first instruction, and a
  /// producer that has retired, count as done.
  void add_producer(RobEntry& e, std::uint64_t seq, std::size_t slot, unsigned k,
                    std::uint32_t dist);
  /// Marks `e` kDone and wakes its consumers.
  void mark_done(RobEntry& e);
  void set_ready(std::size_t slot) {
    ready_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  void clear_ready(std::size_t slot) {
    ready_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  /// First ready slot in [from, to), or `to`.
  [[nodiscard]] std::size_t next_ready(std::size_t from, std::size_t to) const;

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

  CoreConfig cfg_;
  trace::TraceSource* source_;   // non-owning
  mem::MemoryLevel* l1_;         // non-owning
  mem::Cache* l1_cache_ = nullptr;  // == l1_ when it is a Cache; non-owning
  // Trace chunk buffer: fill() writes straight into it, dispatch reads it
  // back out; refilled only when drained, so no wraparound bookkeeping.
  std::array<trace::MicroOp, kTraceChunk> trace_chunk_;
  std::size_t chunk_pos_ = 0;
  std::size_t chunk_len_ = 0;
  util::RingBuffer<RobEntry> rob_;
  /// One bit per ROB slot: set while the entry is kDispatched with no
  /// unfinished producer.
  std::vector<std::uint64_t> ready_;
  std::uint64_t next_index_ = 0;           ///< next dynamic instruction number
  std::uint64_t iw_occupancy_ = 0;         ///< dispatched-not-issued entries
  std::uint64_t lsq_occupancy_ = 0;        ///< memory ops issued-not-completed
  RequestId id_base_;                      ///< id_space tag above the seq bits
  /// Completion wheel: bucket `c % kWheelSize` heads the list (linked
  /// through RobEntry::wheel_next) of ALU ops due at cycle c.
  std::array<std::uint32_t, kWheelSize> wheel_;
  util::RingBuffer<mem::MemResponse> responses_{1};  // sized to LSQ in ctor
  bool trace_done_ = false;
  std::uint64_t committed_this_cycle_ = 0;
  CoreStats stats_;
};

}  // namespace lpm::cpu
