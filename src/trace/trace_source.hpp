// Abstract instruction stream consumed by a core model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/instruction.hpp"
#include "util/error.hpp"

namespace lpm::trace {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Produces up to `n` micro-ops into `dst`, returning how many were
  /// written; the only way to read a trace. A short count (including 0)
  /// means end-of-trace. The stream is independent of how it is chunked:
  /// any sequence of request sizes concatenates to the same ops, so
  /// consumers pick chunk sizes purely for throughput.
  virtual std::size_t fill(MicroOp* dst, std::size_t n) = 0;

  /// Rewinds to the beginning; the re-played stream must be identical.
  virtual void reset() = 0;

  /// Human-readable workload name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

using TraceSourcePtr = std::unique_ptr<TraceSource>;

/// Drains up to `max_ops` micro-ops into a vector. The materialized list
/// replayed through a VectorTrace is stream-identical to the source (fill()
/// contract), which is what lets the differential oracle delta-debug a
/// divergent trace op by op.
///
/// Termination is guaranteed by *enforcing* the fill() contract rather than
/// trusting it: a source that over-reports (got > requested) throws
/// SimError immediately (it just scribbled past the buffer we handed it —
/// fail loudly, not later), and any short count — zero or not — is taken as
/// end-of-trace, so a buggy source repeatedly returning short can stall the
/// drain at most once instead of spinning it forever.
[[nodiscard]] inline std::vector<MicroOp> materialize(TraceSource& source,
                                                      std::size_t max_ops) {
  std::vector<MicroOp> ops(max_ops);
  std::size_t total = 0;
  while (total < max_ops) {
    const std::size_t want = max_ops - total;
    const std::size_t got = source.fill(ops.data() + total, want);
    if (got > want) {
      throw util::SimError("materialize: trace source '" + source.name() +
                           "' violated the fill() contract: returned " +
                           std::to_string(got) + " ops for a request of " +
                           std::to_string(want));
    }
    total += got;
    if (got < want) break;  // fill() contract: a short count means end-of-trace
  }
  ops.resize(total);
  return ops;
}

}  // namespace lpm::trace
