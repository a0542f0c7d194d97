#pragma once
/// \file arch_id.hpp
/// Runtime identifiers of the compiled-in backends. This header is the
/// bottom of the arch layer: plain enums with no dependencies, so that
/// core/config.hpp can carry an execution-kind field and the runtime can
/// key plan caches by architecture without pulling in the tag types
/// (arch.hpp) or the simulated device description.
///
/// The numeric values are part of the persistent tune-cache format
/// (runtime/tune_persist.hpp) and of serialized fingerprints — never
/// renumber an existing entry, only append.

#include <cstdint>

namespace acs::arch {

/// One compiled-in backend. Each id maps 1:1 to a tag type in arch.hpp.
enum class ArchId : std::uint32_t {
  /// The paper's evaluation device, simulated (Titan Xp: 30 SMs, 48 KiB
  /// scratchpad per block). Bit-compatible with the pre-arch pipeline and
  /// the default everywhere.
  kSimTitanXp = 0,
  /// A simulated device with twice the scratchpad (96 KiB) and more SMs;
  /// block shapes the Titan Xp must prune (e.g. nnz_per_block = 1024 with
  /// double values) are feasible here, so the tuner's grid widens.
  kSimBigDevice = 1,
  /// Native CPU execution: the same blocks run on the host thread pool for
  /// wall-clock throughput, with cost-model pricing switched off. Block
  /// geometry mirrors SimTitanXp, so outputs and work counters are
  /// bit-identical to the simulated backend.
  kNativeCpu = 2,
};

/// Whether a backend prices its kernels with the cost model (selected per
/// job via `Config::exec`). Every kind runs the same block code and charges
/// the same work counters; only the pricing differs.
enum class ExecKind : std::uint32_t {
  /// Price every kernel's block counters with the simulated device cost
  /// model (sim::schedule_blocks); stats report simulated kernel times.
  kSimulated = 0,
  /// Skip the cost model; stats report zero simulated time.
  kNative = 1,
};

/// Stable lowercase name of an arch ("sim-titan-xp", "sim-big-device",
/// "native-cpu"); "?" for values outside the enum.
[[nodiscard]] const char* to_string(ArchId id);

[[nodiscard]] const char* to_string(ExecKind kind);

/// Parse a name produced by `to_string(ArchId)` back into an id. Returns
/// false (leaving `out` untouched) for unknown names.
[[nodiscard]] bool parse_arch(const char* name, ArchId& out);

}  // namespace acs::arch
