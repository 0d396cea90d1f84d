// Deterministic synthetic instruction stream driven by a WorkloadProfile.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace/trace_source.hpp"
#include "trace/workload_profile.hpp"
#include "util/rng.hpp"

namespace lpm::trace {

/// Generates micro-ops with controlled temporal locality (Zipf block
/// popularity), spatial locality (sequential streams), dependence structure
/// (pointer chasing, load-use, ALU chains) and periodic burst phases.
/// Fully deterministic: reset() replays the identical stream.
class SyntheticTrace final : public TraceSource {
 public:
  explicit SyntheticTrace(WorkloadProfile profile);

  std::size_t fill(MicroOp* dst, std::size_t n) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return profile_.name; }

  [[nodiscard]] const WorkloadProfile& profile() const { return profile_; }

  /// Number of micro-ops emitted since the last reset.
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

  /// True when phase `phase_idx` of this profile is a burst phase. Pure
  /// function of (seed, phase_idx): benches use it as ground truth for the
  /// interval-sensitivity experiment.
  [[nodiscard]] static bool is_burst_phase(const WorkloadProfile& profile,
                                           std::uint64_t phase_idx);

 private:
  /// Bernoulli thresholds (util::Rng::chance) of one parameter set.
  struct PhaseParams {
    util::Rng::Chance fmem;
    util::Rng::Chance seq_fraction;
  };

  [[nodiscard]] const PhaseParams& current_phase_params() const;
  [[nodiscard]] Addr sample_address(util::Rng::Chance seq_fraction);
  /// Emits one micro-op.
  void generate(MicroOp& op);

  WorkloadProfile profile_;
  util::Rng rng_;
  // The profile's probabilities as thresholds, computed once: the normal
  // and burst parameter sets and the per-op-kind fractions.
  PhaseParams normal_;
  PhaseParams burst_;
  util::Rng::Chance store_;
  util::Rng::Chance pointer_chase_;
  util::Rng::Chance load_use_;
  util::Rng::Chance alu_dep_;
  // Streams advance by stride_bytes modulo the working set; every position
  // stays below working_set_bytes, so adding the reduced stride needs at
  // most one subtraction instead of a per-op division.
  std::vector<Addr> stream_pos_;
  std::uint64_t stride_mod_ = 0;  // stride_bytes % working_set_bytes
  util::ZipfSampler block_sampler_;
  std::uint64_t emitted_ = 0;
  std::uint64_t last_load_index_ = ~std::uint64_t{0};
};

/// A trace that replays a fixed vector of micro-ops; handy for unit tests
/// and for the Fig. 1 replay example.
class VectorTrace final : public TraceSource {
 public:
  VectorTrace(std::string name, std::vector<MicroOp> ops)
      : name_(std::move(name)), ops_(std::move(ops)) {}

  std::size_t fill(MicroOp* dst, std::size_t n) override {
    const std::size_t take = std::min(n, ops_.size() - pos_);
    std::copy_n(ops_.begin() + static_cast<std::ptrdiff_t>(pos_), take, dst);
    pos_ += take;
    return take;
  }
  void reset() override { pos_ = 0; }
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] const std::vector<MicroOp>& ops() const { return ops_; }

 private:
  std::string name_;
  std::vector<MicroOp> ops_;
  std::size_t pos_ = 0;
};

}  // namespace lpm::trace
