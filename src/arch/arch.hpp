#pragma once
/// \file arch.hpp
/// Compile-time architecture tags (catlass-style): each backend is a tag
/// struct whose constexpr constants describe the device the pipeline
/// compiles against — scratchpad budget, SM count, block geometry and the
/// execution kind. Code that needs per-arch behaviour is templated on the
/// tag (e.g. the invariant banks in arch/invariants.hpp prove per-arch
/// feasibility at compile time); code that selects a backend at run time
/// goes through `ArchId` + `arch_info` / `dispatch_arch`.
///
/// The contract a tag must provide is documented in docs/BACKENDS.md
/// ("adding your own arch in 5 steps"); SimBigDevice below is the worked
/// example.

#include <array>

#include "arch/arch_id.hpp"
#include "sim/device_config.hpp"

namespace acs::arch {

/// The paper's test platform, simulated — NVIDIA Titan Xp. The constants
/// mirror sim::DeviceConfig's defaults exactly (arch/invariants.hpp proves
/// it), so selecting this tag is bit- and cost-model-compatible with the
/// pre-arch pipeline.
struct SimTitanXp {
  static constexpr ArchId kId = ArchId::kSimTitanXp;
  static constexpr ExecKind kExec = ExecKind::kSimulated;
  static constexpr const char* kName = "sim-titan-xp";

  static constexpr int kNumSms = 30;
  static constexpr int kBlocksPerSm = 2;
  static constexpr double kClockGhz = 1.58;
  static constexpr double kMemBandwidthGb = 547.0;
  static constexpr double kScatterEfficiency = 0.125;
  static constexpr int kScratchpadBytes = 48 * 1024;
  static constexpr int kWarpSize = 32;
  static constexpr int kThreadsPerBlock = 256;
  static constexpr double kKernelLaunchUs = 8.0;
  static constexpr double kBlockOverheadUs = 0.3;
  static constexpr double kOpsPerClockPerSm = 8.0;
  static constexpr double kAtomicNs = 2.0;
  /// Host threads driving simulated blocks when the engine applies the
  /// arch; 1 = the fully deterministic default (Config::scheduler_threads).
  static constexpr unsigned kDefaultSchedulerThreads = 1;
};

/// A simulated large device (Volta-class): twice the per-block scratchpad
/// and many more SMs. The point of this tag is the widened feasible region:
/// nnz_per_block = 1024 with double values needs 49160 B of scratchpad —
/// 8 bytes over the Titan Xp's 48 KiB, comfortably inside 96 KiB — so the
/// per-arch tuner grid extends to block shapes the Titan Xp must prune.
struct SimBigDevice {
  static constexpr ArchId kId = ArchId::kSimBigDevice;
  static constexpr ExecKind kExec = ExecKind::kSimulated;
  static constexpr const char* kName = "sim-big-device";

  static constexpr int kNumSms = 80;
  static constexpr int kBlocksPerSm = 2;
  static constexpr double kClockGhz = 1.38;
  static constexpr double kMemBandwidthGb = 900.0;
  static constexpr double kScatterEfficiency = 0.125;
  static constexpr int kScratchpadBytes = 96 * 1024;
  static constexpr int kWarpSize = 32;
  static constexpr int kThreadsPerBlock = 256;
  static constexpr double kKernelLaunchUs = 8.0;
  static constexpr double kBlockOverheadUs = 0.3;
  static constexpr double kOpsPerClockPerSm = 8.0;
  static constexpr double kAtomicNs = 2.0;
  static constexpr unsigned kDefaultSchedulerThreads = 1;
};

/// Native CPU execution. Every device constant mirrors SimTitanXp — the
/// block geometry (threads, scratchpad budget, 15-bit counters) bounds the
/// ESC working set, and keeping it identical keeps outputs bit-identical
/// to the simulated backend (arch/invariants.hpp pins the equality; the
/// differential sweep in tests/test_arch.cpp observes it). What changes is
/// the execution kind: blocks run on the host thread pool and the cost
/// model does not price them.
struct NativeCpu {
  static constexpr ArchId kId = ArchId::kNativeCpu;
  static constexpr ExecKind kExec = ExecKind::kNative;
  static constexpr const char* kName = "native-cpu";

  static constexpr int kNumSms = SimTitanXp::kNumSms;
  static constexpr int kBlocksPerSm = SimTitanXp::kBlocksPerSm;
  static constexpr double kClockGhz = SimTitanXp::kClockGhz;
  static constexpr double kMemBandwidthGb = SimTitanXp::kMemBandwidthGb;
  static constexpr double kScatterEfficiency = SimTitanXp::kScatterEfficiency;
  static constexpr int kScratchpadBytes = SimTitanXp::kScratchpadBytes;
  static constexpr int kWarpSize = SimTitanXp::kWarpSize;
  static constexpr int kThreadsPerBlock = SimTitanXp::kThreadsPerBlock;
  static constexpr double kKernelLaunchUs = SimTitanXp::kKernelLaunchUs;
  static constexpr double kBlockOverheadUs = SimTitanXp::kBlockOverheadUs;
  static constexpr double kOpsPerClockPerSm = SimTitanXp::kOpsPerClockPerSm;
  static constexpr double kAtomicNs = SimTitanXp::kAtomicNs;
  /// 0 = one scheduler thread per hardware thread (resolved by the engine).
  static constexpr unsigned kDefaultSchedulerThreads = 0;
};

/// The simulated-device description a tag's constants induce. This is the
/// single point where tag constants become a sim::DeviceConfig, so a tag
/// cannot drift from the device the pipeline actually runs against.
template <class Arch>
[[nodiscard]] constexpr sim::DeviceConfig device_config() {
  sim::DeviceConfig d{};
  d.num_sms = Arch::kNumSms;
  d.blocks_per_sm = Arch::kBlocksPerSm;
  d.clock_ghz = Arch::kClockGhz;
  d.mem_bandwidth_gb = Arch::kMemBandwidthGb;
  d.scatter_efficiency = Arch::kScatterEfficiency;
  d.scratchpad_bytes = Arch::kScratchpadBytes;
  d.warp_size = Arch::kWarpSize;
  d.threads_per_block = Arch::kThreadsPerBlock;
  d.kernel_launch_us = Arch::kKernelLaunchUs;
  d.block_overhead_us = Arch::kBlockOverheadUs;
  d.ops_per_clock_per_sm = Arch::kOpsPerClockPerSm;
  d.atomic_ns = Arch::kAtomicNs;
  return d;
}

/// Runtime view of one tag (for config plumbing, benches and docs tables).
struct ArchInfo {
  ArchId id = ArchId::kSimTitanXp;
  ExecKind exec = ExecKind::kSimulated;
  const char* name = "";
  sim::DeviceConfig device{};
  unsigned default_scheduler_threads = 1;
};

/// Invoke `f` with the tag type matching `id` (as a value-initialized tag
/// argument): `dispatch_arch(id, [](auto tag) { use decltype(tag); })`.
/// Unknown ids dispatch as SimTitanXp, the bit-compatible default.
template <class F>
constexpr decltype(auto) dispatch_arch(ArchId id, F&& f) {
  switch (id) {
    case ArchId::kSimBigDevice: return f(SimBigDevice{});
    case ArchId::kNativeCpu: return f(NativeCpu{});
    case ArchId::kSimTitanXp: break;
  }
  return f(SimTitanXp{});
}

/// Runtime description of `id` (unknown ids fold to SimTitanXp, matching
/// dispatch_arch).
[[nodiscard]] constexpr ArchInfo arch_info(ArchId id) {
  return dispatch_arch(id, [](auto tag) {
    using Arch = decltype(tag);
    ArchInfo info;
    info.id = Arch::kId;
    info.exec = Arch::kExec;
    info.name = Arch::kName;
    info.device = device_config<Arch>();
    info.default_scheduler_threads = Arch::kDefaultSchedulerThreads;
    return info;
  });
}

/// Every compiled-in backend, in ArchId order. tools/check_docs.py keeps
/// docs/BACKENDS.md in sync with this list (via the tag names under
/// src/arch/).
[[nodiscard]] const std::array<ArchInfo, 3>& all_arch_infos();

}  // namespace acs::arch
