#include "check/ref_dram.hpp"

#include <utility>

namespace lpm::check {

RefDram::RefDram(mem::DramConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  banks_.assign(cfg_.banks, Bank{});
  queue_.reserve(cfg_.queue_capacity);
}

std::uint32_t RefDram::bank_of(Addr addr) const {
  return static_cast<std::uint32_t>((addr / cfg_.interleave_bytes) & (cfg_.banks - 1));
}

std::uint64_t RefDram::row_of(Addr addr) const {
  // Rows are striped across banks: drop the interleave bits belonging to the
  // bank index, then divide by the row size.
  return addr / (cfg_.row_bytes * cfg_.banks);
}

bool RefDram::try_access(const mem::MemRequest& req) {
  if (queue_.size() >= cfg_.queue_capacity) {
    ++stats_.rejected_full;
    return false;
  }
  Pending p;
  p.req = req;
  p.accepted = accept_cycle_;
  queue_.push_back(p);
  if (req.reply_to != nullptr) {
    ++demand_in_queue_;
    if (probe_ != nullptr) {
      probe_->on_access(req.id, accept_cycle_, req.kind == mem::AccessKind::kWrite);
    }
  }
  return true;
}

void RefDram::sample_activity(Cycle cycle) {
  if (!queue_.empty()) ++stats_.busy_cycles;
  if (probe_ == nullptr) return;
  // Last level: all residency counts as hit activity (see class comment).
  // Fire-and-forget writes are bandwidth, not demand accesses; excluded by
  // demand_in_queue_, which tracks exactly the replied-to residents. A DRAM
  // probe never sees on_miss, so once one zero-demand cycle is delivered,
  // further idle samples are metric-neutral and can be skipped.
  if (demand_in_queue_ == 0 && probe_quiesced_) return;
  probe_->on_cycle_activity(cycle, demand_in_queue_);
  probe_quiesced_ = demand_in_queue_ == 0;
}

void RefDram::tick(Cycle now) {
  if (now > 0) sample_activity(now - 1);
  accept_cycle_ = now;
  if (queue_.empty()) return;  // idle fast path: nothing to complete or issue

  complete_finished(now);
  issue_commands(now);
}

void RefDram::issue_commands(Cycle now) {
  std::uint32_t issued = 0;
  // FR-FCFS with an age cap: row hits first (oldest row hit), then oldest
  // request - but a request that has waited past the starvation threshold
  // is served FCFS ahead of younger row hits.
  while (issued < cfg_.max_issue_per_cycle) {
    std::size_t pick = queue_.size();
    // Pass 0: starved ready request (oldest first).
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Pending& p = queue_[i];
      if (p.in_service) continue;
      if (now - p.accepted < cfg_.starvation_threshold) continue;
      if (banks_[bank_of(p.req.addr)].busy_until <= now) {
        pick = i;
        break;
      }
    }
    // Pass 1: oldest ready row hit.
    for (std::size_t i = 0; pick == queue_.size() && i < queue_.size(); ++i) {
      const Pending& p = queue_[i];
      if (p.in_service) continue;
      const Bank& b = banks_[bank_of(p.req.addr)];
      if (b.busy_until > now) continue;
      if (b.row_open && b.open_row == row_of(p.req.addr)) {
        pick = i;
      }
    }
    // Pass 2: oldest ready request of any kind.
    if (pick == queue_.size()) {
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Pending& p = queue_[i];
        if (p.in_service) continue;
        if (banks_[bank_of(p.req.addr)].busy_until <= now) {
          pick = i;
          break;
        }
      }
    }
    if (pick == queue_.size()) break;  // nothing schedulable this cycle

    Pending& p = queue_[pick];
    Bank& b = banks_[bank_of(p.req.addr)];
    const std::uint64_t row = row_of(p.req.addr);
    std::uint32_t latency = 0;
    if (b.row_open && b.open_row == row) {
      latency = cfg_.t_cl + cfg_.t_burst;
      ++stats_.row_hits;
    } else if (!b.row_open) {
      latency = cfg_.t_rcd + cfg_.t_cl + cfg_.t_burst;
      ++stats_.row_misses;
    } else {
      latency = cfg_.t_rp + cfg_.t_rcd + cfg_.t_cl + cfg_.t_burst;
      ++stats_.row_conflicts;
    }
    b.row_open = true;
    b.open_row = row;
    b.busy_until = now + latency;
    p.in_service = true;
    p.done_at = now + latency + cfg_.frontend_latency;
    ++issued;
  }
}

void RefDram::complete_finished(Cycle now) {
  for (std::size_t i = 0; i < queue_.size();) {
    Pending& p = queue_[i];
    if (p.in_service && p.done_at <= now) {
      if (p.req.kind == mem::AccessKind::kRead) {
        ++stats_.reads;
        stats_.total_read_latency += now - p.accepted;
      } else {
        ++stats_.writes;
      }
      if (probe_ != nullptr && p.req.reply_to != nullptr) {
        probe_->on_hit(p.req.id, now);
      }
      if (p.req.reply_to != nullptr) {
        p.req.reply_to->on_response(
            mem::MemResponse{p.req.id, p.req.core, p.req.addr, now});
        --demand_in_queue_;
      }
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void RefDram::finalize(Cycle end_cycle) { sample_activity(end_cycle); }

bool RefDram::busy() const { return !queue_.empty(); }

}  // namespace lpm::check
