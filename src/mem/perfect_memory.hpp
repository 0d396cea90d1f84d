// A memory level that satisfies every request after a fixed latency.
//
// Two uses: (1) as the "magic" L1 replacement when calibrating CPIexe (the
// processor's perfect-cache cycles-per-instruction, the denominator of every
// LPMR); (2) as a test double underneath a cache under unit test.
#pragma once

#include <vector>

#include "mem/request.hpp"

namespace lpm::mem {

class PerfectMemory final : public MemoryLevel {
 public:
  /// Every accepted request completes `latency` cycles later; up to
  /// `ports` requests accepted per cycle (0 = unlimited).
  explicit PerfectMemory(std::uint32_t latency, std::uint32_t ports = 0)
      : latency_(latency), ports_(ports) {}

  bool try_access(const MemRequest& req) override {
    if (ports_ != 0 && accepted_this_cycle_ >= ports_) return false;
    ++accepted_this_cycle_;
    ++accesses_;
    if (req.reply_to != nullptr) {
      if (size_ == ring_.size()) grow();
      ring_[(head_ + size_++) & (ring_.size() - 1)] =
          Pending{req.id, req.addr, req.reply_to, now_ + latency_, req.core};
    }
    return true;
  }

  void tick(Cycle now) override {
    now_ = now;
    accepted_this_cycle_ = 0;
    // One latency for all: requests complete in acceptance order.
    while (size_ > 0 && ring_[head_].done_at <= now) {
      const Pending p = ring_[head_];
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
      p.reply_to->on_response(MemResponse{p.id, p.core, p.addr, now});
    }
  }

  void finalize(Cycle) override {}
  [[nodiscard]] bool busy() const override { return size_ > 0; }
  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }

 private:
  struct Pending {
    RequestId id;
    Addr addr;
    ResponseSink* reply_to;
    Cycle done_at;
    CoreId core;
  };
  /// Doubles the ring, unwrapping the live requests to its front.
  void grow() {
    std::vector<Pending> bigger(ring_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(bigger);
    head_ = 0;
  }
  std::uint32_t latency_;
  std::uint32_t ports_;
  Cycle now_ = 0;
  std::uint32_t accepted_this_cycle_ = 0;
  std::uint64_t accesses_ = 0;
  // In-flight requests, oldest at head_: a ring whose size is a power of
  // two, grown on demand (the requesters' queues bound it).
  std::vector<Pending> ring_ = std::vector<Pending>(64);
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lpm::mem
