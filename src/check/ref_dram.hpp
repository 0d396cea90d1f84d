// Reference DRAM: the oracle counterpart of mem::Dram.
//
// This is the three-pass FR-FCFS controller the optimized one replaced,
// kept unchanged apart from its name: every issue slot rescans the whole
// queue up to three times (starved ready request, oldest ready row hit,
// oldest ready request) and recomputes each entry's bank and row on every
// visit. The optimized controller computes bank and row once at accept
// time and makes the same pick in one pass (DESIGN.md "DRAM"). Both must
// produce bit-identical DramStats, probe events and response order for any
// request stream (tests/check/ref_dram_test.cpp); RefSystem uses this
// model, so the system-level diff covers the DRAM scheduler too.
#pragma once

#include <vector>

#include "mem/dram.hpp"
#include "mem/probe.hpp"
#include "mem/request.hpp"

namespace lpm::check {

class RefDram final : public mem::MemoryLevel {
 public:
  explicit RefDram(mem::DramConfig cfg);

  void set_probe(mem::AccessProbe* probe) { probe_ = probe; }

  bool try_access(const mem::MemRequest& req) override;
  void tick(Cycle now) override;
  void finalize(Cycle end_cycle) override;
  [[nodiscard]] bool busy() const override;

  [[nodiscard]] const mem::DramStats& stats() const { return stats_; }
  [[nodiscard]] const mem::DramConfig& config() const { return cfg_; }

 private:
  struct Bank {
    bool row_open = false;
    std::uint64_t open_row = 0;
    Cycle busy_until = 0;
  };
  struct Pending {
    mem::MemRequest req;
    Cycle accepted = 0;
    bool in_service = false;
    Cycle done_at = kNoCycle;
  };

  [[nodiscard]] std::uint32_t bank_of(Addr addr) const;
  [[nodiscard]] std::uint64_t row_of(Addr addr) const;
  void sample_activity(Cycle cycle);
  void issue_commands(Cycle now);
  void complete_finished(Cycle now);

  mem::DramConfig cfg_;
  mem::AccessProbe* probe_ = nullptr;  // non-owning
  std::vector<Bank> banks_;
  std::vector<Pending> queue_;
  Cycle accept_cycle_ = 0;
  std::uint32_t demand_in_queue_ = 0;  // queued requests with a reply sink
  bool probe_quiesced_ = false;  // probe already saw a zero-demand cycle
  mem::DramStats stats_;
};

}  // namespace lpm::check
