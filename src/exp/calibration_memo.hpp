// Per-engine memo of CPIexe calibrations (sim::measure_cpi_exe).
//
// Every cycle-backend job with `calibrate` re-runs its core against a
// perfect memory to get the Eq. 5 denominator. Along an LPM walk most
// configurations differ only in their caches, so the same core meets the
// same workload again and again; this memo runs each distinct calibration
// once per engine. It sits beside the engine's job memo (same lifetime, same
// `cache_enabled` switch), not in model::ProfileCache, whose counters count
// the analytic model's own calibrations.
//
// Build-once semantics: the first caller of a key builds it while later
// callers of the same key wait. A build that throws (a watchdog timeout, an
// injected fault, a simulation error) stores nothing and its exception goes
// to its own caller only; each waiter then claims the key again, so one of
// them builds it afresh instead of inheriting another job's error.
//
// Thread safety: all methods are safe from any thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "sim/machine_config.hpp"
#include "sim/system.hpp"
#include "trace/workload_profile.hpp"

namespace lpm::exp {

class CalibrationMemo {
 public:
  /// Key of one calibration: exactly what measure_cpi_exe reads — the core
  /// config (with the id the call forces to 0), the L1 hit latency,
  /// max_cycles, and the workload's fingerprint.
  [[nodiscard]] static std::uint64_t key(const sim::MachineConfig& machine,
                                         const trace::WorkloadProfile& wl);

  /// The memoized calibration for `key`, or build()'s result (then stored).
  /// `*hit` (optional) reports which. A wait on another caller's build
  /// polls `guard` (may be null) and throws util::TimeoutError once it is
  /// cancelled.
  template <typename Build>
  sim::CpiExeResult get(std::uint64_t key, const sim::RunGuard* guard,
                        Build&& build, bool* hit = nullptr) {
    if (std::optional<sim::CpiExeResult> value = claim(key, guard)) {
      if (hit != nullptr) *hit = true;
      return *value;
    }
    if (hit != nullptr) *hit = false;
    sim::CpiExeResult value;
    try {
      value = build();
    } catch (...) {
      abandon(key);
      throw;
    }
    publish(key, value);
    return value;
  }

  /// Drops every finished calibration (builds in flight still publish).
  void clear();
  /// Finished calibrations held.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Slot {
    bool ready = false;  ///< false while its builder runs
    sim::CpiExeResult value;
  };

  /// The stored value, or nullopt after reserving `key` for the caller to
  /// build. Waits while another caller builds it.
  std::optional<sim::CpiExeResult> claim(std::uint64_t key,
                                         const sim::RunGuard* guard);
  void publish(std::uint64_t key, const sim::CpiExeResult& value);
  void abandon(std::uint64_t key);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, Slot> slots_;
};

}  // namespace lpm::exp
