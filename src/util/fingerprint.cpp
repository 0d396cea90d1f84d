#include "util/fingerprint.hpp"

#include <cstdio>

#include "cpu/core_config.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/machine_config.hpp"
#include "trace/workload_profile.hpp"

namespace lpm::util {

namespace {

void mix_core(Fingerprint& f, const cpu::CoreConfig& c) {
  f.mix("CoreConfig/v1")
      .mix(c.name)
      .mix(c.id)
      .mix(c.issue_width)
      .mix(c.dispatch_width)
      .mix(c.commit_width)
      .mix(c.iw_size)
      .mix(c.rob_size)
      .mix(c.lsq_size);
}

void mix_cache(Fingerprint& f, const mem::CacheConfig& c) {
  f.mix("CacheConfig/v1")
      .mix(c.name)
      .mix(c.size_bytes)
      .mix(c.block_bytes)
      .mix(c.associativity)
      .mix(c.hit_latency)
      .mix(c.ports)
      .mix(c.banks)
      .mix(c.interleave_bytes)
      .mix(c.mshr_entries)
      .mix(c.mshr_targets)
      .mix(c.writeback_capacity)
      .mix(c.prefetch_degree)
      .mix(c.prefetch_accuracy_window)
      .mix(c.mshr_quota_per_core)
      .mix(c.replacement)
      .mix(c.num_cores)
      .mix(c.seed);
}

void mix_dram(Fingerprint& f, const mem::DramConfig& c) {
  f.mix("DramConfig/v1")
      .mix(c.name)
      .mix(c.banks)
      .mix(c.row_bytes)
      .mix(c.interleave_bytes)
      .mix(c.t_rcd)
      .mix(c.t_cl)
      .mix(c.t_rp)
      .mix(c.t_burst)
      .mix(c.frontend_latency)
      .mix(c.queue_capacity)
      .mix(c.max_issue_per_cycle)
      .mix(c.starvation_threshold);
}

}  // namespace

std::uint64_t fingerprint(const cpu::CoreConfig& cfg) {
  Fingerprint f;
  mix_core(f, cfg);
  return f.value();
}

std::uint64_t fingerprint(const mem::CacheConfig& cfg) {
  Fingerprint f;
  mix_cache(f, cfg);
  return f.value();
}

std::uint64_t fingerprint(const mem::DramConfig& cfg) {
  Fingerprint f;
  mix_dram(f, cfg);
  return f.value();
}

std::uint64_t fingerprint(const sim::MachineConfig& cfg) {
  Fingerprint f;
  f.mix("MachineConfig/v1").mix(cfg.num_cores);
  mix_core(f, cfg.core);
  mix_cache(f, cfg.l1);
  mix_cache(f, cfg.l2);
  mix_dram(f, cfg.dram);
  f.mix(cfg.use_private_l2);
  mix_cache(f, cfg.private_l2);
  f.mix(cfg.l1_size_per_core.size());
  for (const std::uint64_t s : cfg.l1_size_per_core) f.mix(s);
  f.mix(cfg.max_cycles);
  return f.value();
}

std::uint64_t fingerprint(const trace::WorkloadProfile& wl) {
  Fingerprint f;
  if (wl.file_backed()) {
    // A recorded trace IS its content: fold in the stream checksum, never
    // the path or display name, so renaming/moving a file (or recording the
    // same stream twice) hits the same memo-cache and sweep-journal keys,
    // while any content change misses them.
    f.mix("WorkloadProfile/file/v1").mix(wl.trace_checksum);
    return f.value();
  }
  f.mix("WorkloadProfile/v1")
      .mix(wl.name)
      .mix(wl.fmem)
      .mix(wl.store_fraction)
      .mix(wl.alu_latency)
      .mix(wl.alu_dep_fraction)
      .mix(wl.working_set_bytes)
      .mix(wl.zipf_skew)
      .mix(wl.seq_fraction)
      .mix(wl.num_streams)
      .mix(wl.stride_bytes)
      .mix(wl.pointer_chase_fraction)
      .mix(wl.load_use_fraction)
      .mix(wl.phase_length)
      .mix(wl.burst_duty)
      .mix(wl.burst_fmem)
      .mix(wl.burst_seq_fraction)
      .mix(wl.length)
      .mix(wl.seed)
      .mix(wl.addr_base);
  return f.value();
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp));
  return std::string(buf);
}

}  // namespace lpm::util
