#include "mem/dram.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace lpm::mem {

namespace {
[[nodiscard]] bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

void DramConfig::validate() const {
  using util::require;
  require(banks >= 1 && is_pow2(banks), name, ": banks must be a power of two");
  require(is_pow2(row_bytes), name, ": row_bytes must be a power of two");
  require(is_pow2(interleave_bytes), name, ": interleave must be a power of two");
  require(row_bytes >= interleave_bytes, name, ": row must cover the interleave unit");
  require(t_burst >= 1, name, ": t_burst must be >= 1");
  require(queue_capacity >= 1, name, ": queue_capacity must be >= 1");
  require(max_issue_per_cycle >= 1, name, ": max_issue_per_cycle must be >= 1");
}

Dram::Dram(DramConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  banks_.assign(cfg_.banks, Bank{});
  queue_.reserve(cfg_.queue_capacity);
  // Rows are striped across banks: the row index drops the interleave bits
  // belonging to the bank index along with the row offset.
  bank_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.interleave_bytes));
  row_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.row_bytes) +
                                     std::countr_zero(cfg_.banks));
}

bool Dram::try_access(const MemRequest& req) {
  if (queue_.size() >= cfg_.queue_capacity) {
    ++stats_.rejected_full;
    return false;
  }
  Pending p;
  p.req = req;
  p.accepted = accept_cycle_;
  p.bank = static_cast<std::uint32_t>((req.addr >> bank_shift_) & (cfg_.banks - 1));
  p.row = req.addr >> row_shift_;
  queue_.push_back(p);
  ++waiting_;
  if (req.reply_to != nullptr) {
    ++demand_in_queue_;
    if (probe_ != nullptr) {
      probe_->on_access(req.id, accept_cycle_, req.kind == AccessKind::kWrite);
    }
  }
  return true;
}

void Dram::sample_activity(Cycle cycle) {
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

void Dram::tick(Cycle now) {
  if (now > 0) sample_activity(now - 1);
  accept_cycle_ = now;
  if (queue_.empty()) return;  // idle fast path: nothing to complete or issue

  complete_finished(now);
  issue_commands(now);
}

std::size_t Dram::pick(Cycle now) const {
  // FR-FCFS with an age cap, in one pass over the age-ordered queue: a
  // ready request that has waited past the starvation threshold is served
  // first (oldest first), then the oldest ready row hit, then the oldest
  // ready request. Acceptance times never decrease along the queue, so the
  // starved requests form a prefix: the first ready row hit that is not
  // starved ends the search.
  const std::size_t n = queue_.size();
  std::size_t oldest_ready = n;
  for (std::size_t i = 0; i < n; ++i) {
    const Pending& p = queue_[i];
    if (p.in_service) continue;
    const Bank& b = banks_[p.bank];
    if (b.busy_until > now) continue;
    if (now - p.accepted >= cfg_.starvation_threshold) return i;
    if (b.row_open && b.open_row == p.row) return i;
    if (oldest_ready == n) oldest_ready = i;
  }
  return oldest_ready;
}

void Dram::issue_commands(Cycle now) {
  for (std::uint32_t issued = 0;
       issued < cfg_.max_issue_per_cycle && waiting_ > 0; ++issued) {
    const std::size_t i = pick(now);
    if (i == queue_.size()) break;  // nothing schedulable this cycle

    Pending& p = queue_[i];
    Bank& b = banks_[p.bank];
    std::uint32_t latency = 0;
    if (b.row_open && b.open_row == p.row) {
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
    b.open_row = p.row;
    b.busy_until = now + latency;
    p.in_service = true;
    p.done_at = now + latency + cfg_.frontend_latency;
    next_done_ = std::min(next_done_, p.done_at);
    --waiting_;
  }
}

void Dram::complete_finished(Cycle now) {
  if (now < next_done_) return;
  // Respond in queue (age) order and compact the survivors in place.
  Cycle next_done = kNoCycle;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    Pending& p = queue_[i];
    if (p.in_service && p.done_at <= now) {
      if (p.req.kind == AccessKind::kRead) {
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
            MemResponse{p.req.id, p.req.core, p.req.addr, now});
        --demand_in_queue_;
      }
      continue;
    }
    if (p.in_service) next_done = std::min(next_done, p.done_at);
    if (kept != i) queue_[kept] = p;
    ++kept;
  }
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(kept), queue_.end());
  next_done_ = next_done;
}

void Dram::finalize(Cycle end_cycle) { sample_activity(end_cycle); }

bool Dram::busy() const { return !queue_.empty(); }

}  // namespace lpm::mem
