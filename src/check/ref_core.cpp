#include "check/ref_core.hpp"

#include "mem/cache.hpp"
#include "util/error.hpp"

namespace lpm::check {

RefCore::RefCore(cpu::CoreConfig cfg, trace::TraceSource* source,
                 mem::MemoryLevel* l1, std::uint64_t id_space)
    : cfg_(std::move(cfg)),
      source_(source),
      l1_(l1),
      rob_(cfg_.rob_size),
      id_base_(id_space << kSeqBits) {
  cfg_.validate();
  util::require(source_ != nullptr, cfg_.name, ": trace source must exist");
  util::require(l1_ != nullptr, cfg_.name, ": L1 must exist");
  l1_cache_ = dynamic_cast<mem::Cache*>(l1_);
  executing_.reserve(cfg_.rob_size);  // executing ALU ops are ROB-bounded
  // A response is only in flight for an accepted memory op, so the LSQ depth
  // bounds the response queue.
  responses_ = util::RingBuffer<mem::MemResponse>(cfg_.lsq_size);
}

bool RefCore::l1_try_access(const mem::MemRequest& req) {
  return l1_cache_ != nullptr ? l1_cache_->try_access(req)
                              : l1_->try_access(req);
}

bool RefCore::refill_trace() {
  chunk_len_ = source_->fill(trace_chunk_.data(), kTraceChunk);
  chunk_pos_ = 0;
  return chunk_len_ > 0;
}

bool RefCore::dep_done(std::uint64_t index, std::uint32_t dist) const {
  if (dist == 0 || static_cast<std::uint64_t>(dist) > index) return true;
  const std::uint64_t dep = index - dist;
  if (dep < rob_.head_seq()) return true;  // already retired
  if (!rob_.contains_seq(dep)) return true;  // beyond tail cannot happen; be safe
  return rob_.at_seq(dep).state == State::kDone;
}

bool RefCore::deps_ready(const RobEntry& e) const {
  return dep_done(e.index, e.op.dep_dist) && dep_done(e.index, e.op.dep_dist2);
}

void RefCore::on_response(const mem::MemResponse& rsp) { responses_.push(rsp); }

void RefCore::tick(Cycle now) {
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
                  "RefCore: response for unknown request");
    util::require(lsq_occupancy_ > 0, "RefCore: LSQ underflow");
    --lsq_occupancy_;
    if (rob_.contains_seq(seq)) {
      RobEntry& e = rob_.at_seq(seq);
      if (e.state == State::kMemWaiting) e.state = State::kDone;
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
        trace::is_memory(head.op.type) && head.state != State::kDone;
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

void RefCore::do_complete(Cycle now) {
  // Only ALU ops pass through kExecuting, and an executing entry can neither
  // commit nor be squashed, so its seq stays valid until completion; scanning
  // this compact list replaces a full ROB sweep. Removal order within a cycle
  // is immaterial: every due entry is marked before commit/issue run.
  for (std::size_t i = 0; i < executing_.size();) {
    RobEntry& e = rob_.at_seq(executing_[i]);
    if (e.done_at <= now) {
      e.state = State::kDone;
      executing_[i] = executing_.back();
      executing_.pop_back();
    } else {
      ++i;
    }
  }
}

void RefCore::do_commit(Cycle /*now*/) {
  while (committed_this_cycle_ < cfg_.commit_width && !rob_.empty() &&
         rob_.front().state == State::kDone) {
    const RobEntry& e = rob_.front();
    ++stats_.instructions;
    switch (e.op.type) {
      case trace::OpType::kLoad:
        ++stats_.mem_ops;
        ++stats_.loads;
        break;
      case trace::OpType::kStore:
        ++stats_.mem_ops;
        ++stats_.stores;
        break;
      case trace::OpType::kAlu:
        break;
    }
    rob_.pop();
    ++committed_this_cycle_;
  }
}

void RefCore::do_issue(Cycle now) {
  std::uint32_t issued = 0;
  bool mem_port_blocked = false;
  // iw_occupancy_ counts the kDispatched entries; once the scan has seen
  // them all, the rest of the ROB holds nothing issuable.
  std::uint64_t unseen = iw_occupancy_;
  for (std::size_t i = 0;
       i < rob_.size() && issued < cfg_.issue_width && unseen > 0; ++i) {
    RobEntry& e = rob_.at_offset(i);
    if (e.state != State::kDispatched) continue;
    --unseen;
    if (!deps_ready(e)) continue;

    if (e.op.type == trace::OpType::kAlu) {
      e.state = State::kExecuting;
      e.done_at = now + e.op.exec_latency;
      executing_.push_back(e.index);
      --iw_occupancy_;
      ++issued;
      continue;
    }

    // Memory op: needs an LSQ slot and an L1 port.
    if (mem_port_blocked || lsq_occupancy_ >= cfg_.lsq_size) continue;
    mem::MemRequest req;
    req.id = id_base_ | e.index;
    req.core = cfg_.id;
    req.addr = e.op.addr;
    req.kind = e.op.type == trace::OpType::kStore ? mem::AccessKind::kWrite
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
    e.mem_id = req.id;
    // Stores retire at acceptance (store-buffer semantics); loads wait for
    // their data.
    e.state = e.op.type == trace::OpType::kStore ? State::kDone
                                                 : State::kMemWaiting;
  }
}

void RefCore::do_dispatch(Cycle /*now*/) {
  std::uint32_t dispatched = 0;
  while (dispatched < cfg_.dispatch_width && !rob_.full() &&
         iw_occupancy_ < cfg_.iw_size && !trace_done_) {
    if (chunk_pos_ >= chunk_len_ && !refill_trace()) {
      trace_done_ = true;
      break;
    }
    RobEntry e;
    e.op = trace_chunk_[chunk_pos_++];
    e.state = State::kDispatched;
    const std::size_t seq = rob_.push(e);
    rob_.at_seq(seq).index = seq;
    util::require(seq == next_index_, "RefCore: ROB sequence drift");
    ++next_index_;
    ++iw_occupancy_;
    ++dispatched;
  }
}

bool RefCore::finished() const {
  return trace_done_ && rob_.empty() && lsq_occupancy_ == 0;
}

}  // namespace lpm::check
