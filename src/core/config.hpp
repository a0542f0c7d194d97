#pragma once
/// \file config.hpp
/// Tuning parameters of AC-SpGEMM. Defaults follow the paper's evaluation
/// setup: blocks of 256 threads handling 256 non-zeros of A, 8 sorted
/// elements per thread, up to 4 retained elements per thread between local
/// ESC iterations, a 1.2× chunk-pool estimate with a 100 MB lower bound.

#include <cstddef>

#include "arch/arch_id.hpp"
#include "matrix/types.hpp"
#include "sim/device_config.hpp"

namespace acs::trace {
class TraceSession;
}

namespace acs {

class AllocationPolicy;  // core/chunk.hpp

/// Initial chunk-pool sizing strategy (see `estimate_chunk_pool_bytes`).
enum class PoolSizing {
  /// The paper's closed-form uniform-collision guess
  /// S ≈ nA·b·(1-(1-p_b)^a)/p_b, scaled by `pool_estimate_factor`.
  kClosedForm = 0,
  /// Sampled per-row estimator (src/estimate): a strided B-row-length
  /// sample sized in bytes of actual chunk layout, with a quantile-based
  /// safety margin. Ignores `pool_estimate_factor`; still respects
  /// `pool_override_bytes` and `pool_lower_bound_bytes`. Pure function of
  /// the operands' structure, so serve decision streams stay replayable.
  kSampled,
};

struct Config {
  /// Threads per simulated block.
  int threads = 256;
  /// Non-zeros of A assigned to each block by global load balancing
  /// (paper: "block size of 256/512 non-zeros").
  int nnz_per_block = 256;
  /// Temporary products sorted per thread per ESC iteration (paper: 8).
  int elements_per_thread = 8;
  /// Compacted elements retained per thread between iterations (paper: up
  /// to 4). Set to 0 to ablate multi-iteration ESC: every iteration then
  /// flushes to global memory, the prior-work behaviour of Dalton et al.
  int retain_per_thread = 4;
  /// Dynamic sort-bit reduction (row dictionary + min/max column tracking,
  /// Section 3.2.3). Off = static key width, the ablation baseline.
  bool dynamic_bits = true;
  /// Special handling of long rows of B (Section 3.4).
  bool long_row_handling = true;
  /// Rows of B at least this long become pointer chunks; 0 = auto
  /// (= temp_capacity()).
  index_t long_row_threshold = 0;
  /// Path Merge handles rows with up to this many chunks; beyond that,
  /// Search Merge takes over (Section 3.3).
  int path_merge_max_chunks = 8;
  /// How the initial chunk pool is sized when no plan is available:
  /// closed-form guess (default, the paper's setup) or the sampled
  /// estimator of src/estimate.
  PoolSizing pool_sizing = PoolSizing::kClosedForm;
  /// Chunk-pool estimate multiplier (paper: 1.2 for metadata/divergence).
  /// Closed-form sizing only; the sampled estimator's margin is
  /// `pool_estimate_quantile`.
  double pool_estimate_factor = 1.2;
  /// Sampled sizing: quantile of the sampled B-row-length distribution
  /// charged per unsampled entry of A (the estimator's safety margin).
  double pool_estimate_quantile = 0.9;
  /// Sampled sizing: inspect every N-th non-zero of A (clamped so at least
  /// `pool_min_samples` entries are inspected when A has that many).
  std::size_t pool_sample_stride = 8;
  std::size_t pool_min_samples = 512;
  /// Lower bound on the initial chunk pool (paper: 100 MB).
  std::size_t pool_lower_bound_bytes = std::size_t{100} << 20;
  /// Exact pool size override; 0 = use the estimate. Used by the restart
  /// experiments of Section 4.3.
  std::size_t pool_override_bytes = 0;
  /// Pool growth per restart round as a multiple of the current capacity
  /// (2.0 = doubling). Geometric growth makes a badly undersized pool
  /// converge in O(log deficit) restarts instead of O(deficit / initial);
  /// must be > 1.
  double pool_growth_factor = 2.0;
  /// Cap on a single growth step so a huge pool cannot double into an
  /// absurd allocation; growth degrades to linear beyond it.
  std::size_t pool_growth_max_step_bytes = std::size_t{1} << 30;
  /// Fault-injection hook installed on the run's chunk pool (non-owning;
  /// must outlive the multiplication and be safe to call from
  /// `scheduler_threads` concurrent blocks). Null (default) = no injection.
  /// Denied allocations are indistinguishable from real exhaustion: the
  /// affected block restarts and the output stays bit-identical (the
  /// injection sweep in tests/test_fault.cpp proves it per allocation site).
  AllocationPolicy* alloc_policy = nullptr;
  /// Host threads executing simulated blocks. 1 (default) is fully
  /// deterministic including restart counts; >1 keeps results bit-identical
  /// but the restart count may vary with interleaving.
  unsigned scheduler_threads = 1;
  /// Check the CSR invariants of both operands before multiplying (costs a
  /// full pass; off by default like the GPU original).
  bool validate_inputs = false;
  /// Observability sink (non-owning; must outlive the multiplication). When
  /// set, the pipeline records stage spans and counters into the session;
  /// null (default) disables tracing — the hooks then cost one pointer test
  /// and results/stats are byte-for-byte unaffected (test_trace.cpp proves
  /// it). The session may be shared by concurrent multiplications.
  trace::TraceSession* trace = nullptr;
  /// Simulated device.
  sim::DeviceConfig device{};
  /// Whether kernels are priced with the cost model (arch backend
  /// selection, normally set by the runtime engine from
  /// `EngineConfig::arch`). Read only where a kernel's block counters are
  /// recorded: `kSimulated` (default) prices them with the cost model of
  /// `device` into stage and simulated times; `kNative` skips pricing and
  /// records zero simulated time. Blocks, counters and results are the
  /// same either way — the ESC/merge geometry still comes from `device`, so
  /// keep `device` at the arch's values (docs/BACKENDS.md).
  arch::ExecKind exec = arch::ExecKind::kSimulated;

  /// Temporary products held per block per ESC iteration.
  [[nodiscard]] constexpr int temp_capacity() const {
    return threads * elements_per_thread;
  }
  /// Maximum compacted elements carried to the next iteration.
  [[nodiscard]] constexpr int retain_capacity() const {
    return threads * retain_per_thread;
  }
  [[nodiscard]] constexpr index_t effective_long_row_threshold() const {
    return long_row_threshold > 0 ? long_row_threshold
                                  : static_cast<index_t>(temp_capacity());
  }
};

}  // namespace acs
