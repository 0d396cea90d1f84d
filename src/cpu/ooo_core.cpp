#include "cpu/ooo_core.hpp"

#include <algorithm>
#include <bit>

#include "mem/cache.hpp"
#include "util/error.hpp"

namespace lpm::cpu {

void CoreConfig::validate() const {
  using util::require;
  require(issue_width >= 1, name, ": issue_width must be >= 1");
  require(dispatch_width >= 1, name, ": dispatch_width must be >= 1");
  require(commit_width >= 1, name, ": commit_width must be >= 1");
  require(iw_size >= 1, name, ": iw_size must be >= 1");
  require(rob_size >= 1, name, ": rob_size must be >= 1");
  require(lsq_size >= 1, name, ": lsq_size must be >= 1");
  require(iw_size <= rob_size, name, ": IW cannot exceed the ROB");
}

CoreConfig CoreConfig::in_order(CoreId id) {
  CoreConfig cfg;
  cfg.name = "inorder";
  cfg.id = id;
  cfg.issue_width = 1;
  cfg.dispatch_width = 1;
  cfg.commit_width = 1;
  cfg.iw_size = 1;
  cfg.rob_size = 1;
  cfg.lsq_size = 1;
  return cfg;
}

OooCore::OooCore(CoreConfig cfg, trace::TraceSource* source, mem::MemoryLevel* l1,
                 std::uint64_t id_space)
    : cfg_(std::move(cfg)),
      source_(source),
      l1_(l1),
      rob_(cfg_.rob_size),
      ready_((rob_.slot_count() + 63) / 64, 0),
      id_base_(id_space << kSeqBits) {
  cfg_.validate();
  util::require(source_ != nullptr, cfg_.name, ": trace source must exist");
  util::require(l1_ != nullptr, cfg_.name, ": L1 must exist");
  l1_cache_ = dynamic_cast<mem::Cache*>(l1_);
  wheel_.fill(kNoEdge);
  // A response is only in flight for an accepted memory op, so the LSQ depth
  // bounds the response queue.
  responses_ = util::RingBuffer<mem::MemResponse>(cfg_.lsq_size);
}

bool OooCore::l1_try_access(const mem::MemRequest& req) {
  return l1_cache_ != nullptr ? l1_cache_->try_access(req)
                              : l1_->try_access(req);
}

bool OooCore::refill_trace() {
  chunk_len_ = source_->fill(trace_chunk_.data(), kTraceChunk);
  chunk_pos_ = 0;
  return chunk_len_ > 0;
}

void OooCore::add_producer(RobEntry& e, std::uint64_t seq, std::size_t slot,
                           unsigned k, std::uint32_t dist) {
  if (dist == 0 || static_cast<std::uint64_t>(dist) > seq) return;
  const std::uint64_t dep = seq - dist;
  if (dep < rob_.head_seq()) return;  // already retired
  RobEntry& producer = rob_.at_seq(dep);
  if (producer.state == State::kDone) return;
  ++e.pending;
  e.next_edge[k] = producer.consumers;
  producer.consumers = static_cast<std::uint32_t>(2 * slot + k);
}

void OooCore::mark_done(RobEntry& e) {
  e.state = State::kDone;
  for (std::uint32_t edge = e.consumers; edge != kNoEdge;) {
    const std::size_t slot = edge >> 1;
    RobEntry& consumer = rob_.at_slot(slot);
    edge = consumer.next_edge[edge & 1];
    if (--consumer.pending == 0) set_ready(slot);
  }
  e.consumers = kNoEdge;
}

std::size_t OooCore::next_ready(std::size_t from, std::size_t to) const {
  while (from < to) {
    const std::uint64_t bits = ready_[from >> 6] >> (from & 63);
    if (bits != 0) return std::min(to, from + std::countr_zero(bits));
    from = (from | 63) + 1;
  }
  return to;
}

void OooCore::on_response(const mem::MemResponse& rsp) { responses_.push(rsp); }

void OooCore::tick(Cycle now) {
  if (finished()) return;  // stop accounting once this program is done

  committed_this_cycle_ = 0;

  // (1) Absorb memory responses (possibly generated earlier this cycle by
  // the hierarchy, which ticks before the core). The ROB sequence number is
  // recovered straight from the response id (see kSeqBits).
  while (!responses_.empty()) {
    const mem::MemResponse rsp = responses_.front();
    responses_.pop();
    const std::uint64_t seq = rsp.id & kSeqMask;
    util::require((rsp.id & ~kSeqMask) == id_base_ && seq < next_index_,
                  "OooCore: response for unknown request");
    util::require(lsq_occupancy_ > 0, "OooCore: LSQ underflow");
    --lsq_occupancy_;
    if (rob_.contains_seq(seq)) {
      RobEntry& e = rob_.at_seq(seq);
      if (e.state == State::kMemWaiting) mark_done(e);
    }
    // Stores may already have retired (they commit at L1 acceptance).
  }

  do_complete(now);
  do_commit(now);
  do_issue(now);
  do_dispatch(now);

  // (2) Cycle accounting (Eq. 7/8 definitions; see DESIGN.md). A data-stall
  // cycle is one where the processor is *blocked* waiting for data: nothing
  // commits and the ROB head is an incomplete memory operation. Every other
  // memory-active cycle counts as computation/memory overlap, so stall and
  // overlap exactly partition the memory-active cycles (making Eq. 7 an
  // identity).
  ++stats_.cycles;
  const bool mem_active = lsq_occupancy_ > 0;
  bool head_blocked_on_mem = false;
  if (committed_this_cycle_ == 0 && !rob_.empty()) {
    const RobEntry& head = rob_.front();
    head_blocked_on_mem =
        trace::is_memory(head.type) && head.state != State::kDone;
    if (head_blocked_on_mem) ++stats_.head_mem_stall_cycles;
  }
  if (committed_this_cycle_ > 0) ++stats_.commit_cycles;
  if (mem_active) {
    ++stats_.mem_active_cycles;
    if (head_blocked_on_mem) {
      ++stats_.data_stall_cycles;
    } else {
      ++stats_.overlap_cycles;
    }
  }
}

void OooCore::do_complete(Cycle now) {
  // The bucket of this cycle holds exactly the ALU ops due now (ticks are
  // consecutive). An executing entry can neither commit nor be squashed, so
  // its slot stays valid until it is drained. Completion order within a
  // cycle is immaterial: every due entry is marked, and its consumers
  // woken, before commit/issue run.
  std::uint32_t& bucket = wheel_[now % kWheelSize];
  for (std::uint32_t slot = bucket; slot != kNoEdge;) {
    RobEntry& e = rob_.at_slot(slot);
    slot = e.wheel_next;
    mark_done(e);
  }
  bucket = kNoEdge;
}

void OooCore::do_commit(Cycle /*now*/) {
  // Counted in locals and added once: the op type feeds sums, not a branch
  // per retired op.
  std::uint64_t n = 0, loads = 0, stores = 0;
  while (committed_this_cycle_ + n < cfg_.commit_width && !rob_.empty()) {
    const RobEntry& e = rob_.front();
    if (e.state != State::kDone) break;
    loads += e.type == trace::OpType::kLoad;
    stores += e.type == trace::OpType::kStore;
    rob_.pop();
    ++n;
  }
  stats_.instructions += n;
  stats_.loads += loads;
  stats_.stores += stores;
  stats_.mem_ops += loads + stores;
  committed_this_cycle_ += n;
}

void OooCore::do_issue(Cycle now) {
  std::uint32_t issued = 0;
  bool mem_port_blocked = false;
  // Ready slots in program order: from the head's slot to the end of the
  // ring, then from slot 0 up to the head. next_ready() re-reads the live
  // bitmap, so a consumer that an accepted store wakes later in this scan
  // still issues this cycle.
  const std::size_t head = rob_.slot_of(rob_.head_seq());
  for (int pass = 0; pass < 2 && issued < cfg_.issue_width; ++pass) {
    const std::size_t end = pass == 0 ? rob_.slot_count() : head;
    for (std::size_t slot = next_ready(pass == 0 ? head : 0, end);
         slot < end && issued < cfg_.issue_width;
         slot = next_ready(slot + 1, end)) {
      RobEntry& e = rob_.at_slot(slot);
      if (e.type == trace::OpType::kAlu) {
        e.state = State::kExecuting;
        // Due at max(now + 1, now + latency): completion runs before issue
        // in a tick, so a latency-0 op completes next cycle.
        const Cycle due = now + std::max<Cycle>(1, e.exec_latency);
        std::uint32_t& bucket = wheel_[due % kWheelSize];
        e.wheel_next = bucket;
        bucket = static_cast<std::uint32_t>(slot);
        clear_ready(slot);
        --iw_occupancy_;
        ++issued;
        continue;
      }

      // Memory op: needs an LSQ slot and an L1 port.
      if (mem_port_blocked || lsq_occupancy_ >= cfg_.lsq_size) continue;
      mem::MemRequest req;
      req.id = id_base_ | rob_.seq_of_slot(slot);
      req.core = cfg_.id;
      req.addr = e.addr;
      req.kind = e.type == trace::OpType::kStore ? mem::AccessKind::kWrite
                                                 : mem::AccessKind::kRead;
      req.created = now;
      req.reply_to = this;
      if (!l1_try_access(req)) {
        ++stats_.l1_rejections;
        mem_port_blocked = true;  // further memory issues would also bounce
        continue;
      }
      ++lsq_occupancy_;
      --iw_occupancy_;
      ++issued;
      clear_ready(slot);
      // Stores retire at acceptance (store-buffer semantics); loads wait for
      // their data.
      if (e.type == trace::OpType::kStore) {
        mark_done(e);
      } else {
        e.state = State::kMemWaiting;
      }
    }
  }
}

void OooCore::do_dispatch(Cycle /*now*/) {
  std::uint32_t dispatched = 0;
  while (dispatched < cfg_.dispatch_width && !rob_.full() &&
         iw_occupancy_ < cfg_.iw_size && !trace_done_) {
    if (chunk_pos_ >= chunk_len_ && !refill_trace()) {
      trace_done_ = true;
      break;
    }
    const trace::MicroOp& op = trace_chunk_[chunk_pos_++];
    const std::size_t slot = rob_.slot_of(next_index_);
    RobEntry& d = rob_.push_slot();
    util::require(rob_.head_seq() + rob_.size() == next_index_ + 1,
                  "OooCore: ROB sequence drift");
    d.addr = op.addr;
    d.type = op.type;
    d.state = State::kDispatched;
    d.pending = 0;
    d.exec_latency = op.exec_latency;
    d.consumers = kNoEdge;
    add_producer(d, next_index_, slot, 0, op.dep_dist);
    // Two dependences on one producer are one wait.
    if (op.dep_dist2 != op.dep_dist) {
      add_producer(d, next_index_, slot, 1, op.dep_dist2);
    }
    if (d.pending == 0) set_ready(slot);
    ++next_index_;
    ++iw_occupancy_;
    ++dispatched;
  }
}

bool OooCore::finished() const {
  return trace_done_ && rob_.empty() && lsq_occupancy_ == 0;
}

}  // namespace lpm::cpu
