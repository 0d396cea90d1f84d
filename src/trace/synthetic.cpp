#include "trace/synthetic.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lpm::trace {

namespace {

constexpr std::uint64_t kBlockBytes = 64;  ///< granule of the popularity pool

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

void WorkloadProfile::validate() const {
  using util::require;
  if (file_backed()) {
    // Replayed from disk: the synthetic knobs are ignored, so only the
    // replay identity matters. The checksum is mandatory — it is the
    // fingerprint component that keeps memoization and journal resume
    // correct when a path is renamed or a file is swapped.
    require(trace_checksum != 0, name,
            ": file-backed profile needs a content checksum "
            "(build it via trace_file_profile)");
    require(length >= 1, name, ": recorded trace must hold at least one op");
    return;
  }
  require(fmem >= 0.0 && fmem <= 1.0, name, ": fmem must be in [0,1]");
  require(store_fraction >= 0.0 && store_fraction <= 1.0,
          name, ": store_fraction must be in [0,1]");
  require(working_set_bytes >= kBlockBytes,
          name, ": working set must be at least one block");
  require(zipf_skew >= 0.0, name, ": zipf_skew must be non-negative");
  require(seq_fraction >= 0.0 && seq_fraction <= 1.0,
          name, ": seq_fraction must be in [0,1]");
  require(num_streams >= 1, name, ": num_streams must be >= 1");
  require(stride_bytes >= 1, name, ": stride_bytes must be >= 1");
  require(pointer_chase_fraction >= 0.0 && pointer_chase_fraction <= 1.0,
          name, ": pointer_chase_fraction must be in [0,1]");
  require(load_use_fraction >= 0.0 && load_use_fraction <= 1.0,
          name, ": load_use_fraction must be in [0,1]");
  require(alu_dep_fraction >= 0.0 && alu_dep_fraction <= 1.0,
          name, ": alu_dep_fraction must be in [0,1]");
  require(burst_duty >= 0.0 && burst_duty <= 1.0,
          name, ": burst_duty must be in [0,1]");
  require(burst_fmem >= 0.0 && burst_fmem <= 1.0,
          name, ": burst_fmem must be in [0,1]");
  require(burst_seq_fraction >= 0.0 && burst_seq_fraction <= 1.0,
          name, ": burst_seq_fraction must be in [0,1]");
  require(length >= 1, name, ": length must be >= 1");
  require(alu_latency >= 1, name, ": alu_latency must be >= 1");
}

SyntheticTrace::SyntheticTrace(WorkloadProfile profile)
    : profile_(std::move(profile)),
      rng_(profile_.seed),
      block_sampler_(
          std::max<std::size_t>(1, profile_.working_set_bytes / kBlockBytes),
          profile_.zipf_skew) {
  profile_.validate();
  util::require(!profile_.file_backed(), profile_.name,
                ": SyntheticTrace cannot replay a file-backed profile "
                "(route through make_trace/open_trace)");
  using util::Rng;
  normal_ = {Rng::chance(profile_.fmem), Rng::chance(profile_.seq_fraction)};
  burst_ = {Rng::chance(profile_.burst_fmem),
            Rng::chance(profile_.burst_seq_fraction)};
  store_ = Rng::chance(profile_.store_fraction);
  pointer_chase_ = Rng::chance(profile_.pointer_chase_fraction);
  load_use_ = Rng::chance(profile_.load_use_fraction);
  alu_dep_ = Rng::chance(profile_.alu_dep_fraction);
  reset();
}

void SyntheticTrace::reset() {
  rng_.reseed(profile_.seed);
  emitted_ = 0;
  last_load_index_ = ~std::uint64_t{0};
  stride_mod_ = profile_.stride_bytes % profile_.working_set_bytes;
  stream_pos_.assign(profile_.num_streams, 0);
  // Spread stream starting points across the working set deterministically.
  for (std::uint32_t s = 0; s < profile_.num_streams; ++s) {
    stream_pos_[s] =
        (profile_.working_set_bytes / profile_.num_streams) * s & ~(kBlockBytes - 1);
  }
}

bool SyntheticTrace::is_burst_phase(const WorkloadProfile& profile,
                                    std::uint64_t phase_idx) {
  if (profile.phase_length == 0 || profile.burst_duty <= 0.0) return false;
  // Deterministic hash of (seed, phase) -> uniform [0,1).
  const std::uint64_t h = mix64(profile.seed * 0x9e3779b97f4a7c15ULL + phase_idx);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < profile.burst_duty;
}

const SyntheticTrace::PhaseParams& SyntheticTrace::current_phase_params() const {
  if (profile_.phase_length > 0) {
    const std::uint64_t phase_idx = emitted_ / profile_.phase_length;
    if (is_burst_phase(profile_, phase_idx)) return burst_;
  }
  return normal_;
}

Addr SyntheticTrace::sample_address(util::Rng::Chance seq_fraction) {
  if (rng_.hit(seq_fraction)) {
    const std::size_t s =
        profile_.num_streams == 1 ? 0 : rng_.next_below(profile_.num_streams);
    const Addr addr = stream_pos_[s];
    Addr next = addr + stride_mod_;
    if (next >= profile_.working_set_bytes) next -= profile_.working_set_bytes;
    stream_pos_[s] = next;
    return profile_.addr_base + addr;
  }
  const std::uint64_t block = block_sampler_.sample(rng_);
  const std::uint64_t offset = rng_.next_below(kBlockBytes / 8) * 8;
  return profile_.addr_base + block * kBlockBytes + offset;
}

std::size_t SyntheticTrace::fill(MicroOp* dst, std::size_t n) {
  const std::uint64_t left = profile_.length - emitted_;
  const std::size_t take = static_cast<std::size_t>(
      std::min<std::uint64_t>(n, left));
  for (std::size_t i = 0; i < take; ++i) generate(dst[i]);
  return take;
}

void SyntheticTrace::generate(MicroOp& op) {
  const PhaseParams& phase = current_phase_params();
  op = MicroOp{};

  if (rng_.hit(phase.fmem)) {
    const bool is_store = rng_.hit(store_);
    op.type = is_store ? OpType::kStore : OpType::kLoad;
    op.addr = sample_address(phase.seq_fraction);
    if (!is_store) {
      // Pointer chasing: this load's address depends on the previous load,
      // serializing the two in the pipeline (kills memory-level parallelism).
      if (last_load_index_ != ~std::uint64_t{0} &&
          rng_.hit(pointer_chase_)) {
        const std::uint64_t dist = emitted_ - last_load_index_;
        op.dep_dist = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(dist, ~std::uint32_t{0}));
      }
      last_load_index_ = emitted_;
    } else if (last_load_index_ != ~std::uint64_t{0} &&
               rng_.hit(load_use_)) {
      // Stores frequently write a recently loaded value.
      const std::uint64_t dist = emitted_ - last_load_index_;
      op.dep_dist = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(dist, ~std::uint32_t{0}));
    }
  } else {
    op.type = OpType::kAlu;
    op.exec_latency = profile_.alu_latency;
    if (rng_.hit(alu_dep_) && emitted_ > 0) {
      op.dep_dist = 1;
    }
    if (last_load_index_ != ~std::uint64_t{0} &&
        rng_.hit(load_use_)) {
      const std::uint64_t dist = emitted_ - last_load_index_;
      op.dep_dist2 = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(dist, ~std::uint32_t{0}));
    }
  }

  ++emitted_;
}

}  // namespace lpm::trace
