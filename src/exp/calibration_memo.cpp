#include "exp/calibration_memo.hpp"

#include <chrono>

#include "util/error.hpp"
#include "util/fingerprint.hpp"

namespace lpm::exp {

std::uint64_t CalibrationMemo::key(const sim::MachineConfig& machine,
                                   const trace::WorkloadProfile& wl) {
  cpu::CoreConfig core = machine.core;
  core.id = 0;
  util::Fingerprint f;
  f.mix("Calibration/v1");
  f.mix_u64(util::fingerprint(core));
  f.mix(machine.l1.hit_latency);
  f.mix(machine.max_cycles);
  f.mix_u64(util::fingerprint(wl));
  return f.value();
}

std::optional<sim::CpiExeResult> CalibrationMemo::claim(
    std::uint64_t key, const sim::RunGuard* guard) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto [it, inserted] = slots_.try_emplace(key);
    if (inserted) return std::nullopt;  // the caller builds it
    if (it->second.ready) return it->second.value;
    // Another caller is building it. The bounded wait lets a cancelled
    // job leave instead of outliving its watchdog deadline.
    cv_.wait_for(lock, std::chrono::milliseconds(5));
    if (guard != nullptr && guard->cancel.load(std::memory_order_relaxed)) {
      throw util::TimeoutError(
          "cancelled by watchdog while waiting for a calibration");
    }
  }
}

void CalibrationMemo::publish(std::uint64_t key,
                              const sim::CpiExeResult& value) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = slots_[key];
    slot.ready = true;
    slot.value = value;
  }
  cv_.notify_all();
}

void CalibrationMemo::abandon(std::uint64_t key) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_.erase(key);
  }
  cv_.notify_all();
}

void CalibrationMemo::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(slots_, [](const auto& kv) { return kv.second.ready; });
}

std::size_t CalibrationMemo::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, slot] : slots_) n += slot.ready ? 1 : 0;
  return n;
}

}  // namespace lpm::exp
