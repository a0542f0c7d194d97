#pragma once
/// \file metrics.hpp
/// Work counters collected while executing simulated kernels. Every SpGEMM
/// implementation in this repository (AC-SpGEMM and all baselines) charges
/// its memory traffic and compute work to one of these counter sets; the
/// cost model (cost_model.hpp) converts them into simulated kernel time.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace acs::sim {

struct MetricCounters {
  /// Bytes moved to/from global memory with a coalesced access pattern.
  std::uint64_t global_bytes_coalesced = 0;
  /// Bytes moved with scattered access (charged at scatter_efficiency).
  std::uint64_t global_bytes_scattered = 0;
  /// Scratchpad (shared-memory) accesses, in elements.
  std::uint64_t scratch_ops = 0;
  /// Radix-sort work: sum over sorts of (#keys × #4-bit passes). This is
  /// where the paper's dynamic bit reduction shows up: fewer bits → fewer
  /// passes → less work.
  std::uint64_t sort_pass_elements = 0;
  /// Elements pushed through block-wide scans (prefix/max/compaction scans).
  std::uint64_t scan_elements = 0;
  /// Hash-table probe steps (baselines only).
  std::uint64_t hash_probes = 0;
  /// Global atomic operations (chunk allocation, row counters, list heads).
  std::uint64_t atomic_ops = 0;
  /// Useful floating-point work (2 per intermediate product).
  std::uint64_t flops = 0;
  /// Generic per-element ALU work not covered above (merges, binary search).
  std::uint64_t compute_ops = 0;

  MetricCounters& operator+=(const MetricCounters& other);
  friend bool operator==(const MetricCounters&,
                         const MetricCounters&) = default;
  [[nodiscard]] MetricCounters operator+(const MetricCounters& other) const;
};

/// Split an aggregate counter set into `count` near-identical per-block
/// shares whose field-wise sum equals `total` exactly: every field hands
/// each block total/count and distributes the remainder one unit at a time
/// over the first (total % count) blocks. Used for uniform utility kernels
/// (load balancing, scans, chunk copy) where only the aggregate is known.
[[nodiscard]] std::vector<MetricCounters> uniform_block_split(
    std::size_t count, const MetricCounters& total);

}  // namespace acs::sim
