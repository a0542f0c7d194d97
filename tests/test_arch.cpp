/// \file test_arch.cpp
/// The arch layer's contracts (docs/BACKENDS.md):
///  * tag sanity — every compiled-in tag round-trips through ArchId,
///    to_string/parse_arch, arch_info and dispatch_arch, and SimTitanXp's
///    induced device equals the pre-arch simulator defaults exactly;
///  * the block primitives both lanes run are drop-in equivalents of the
///    simulated kernel's: the radix sort has the stable-sort permutation,
///    and the single-pass compaction reproduces the Algorithm 3 scan's
///    layout and left-to-right value association;
///  * the NativeCpu backend is bit-identical to the simulated pipeline on
///    a full differential generator sweep — float and double, one and many
///    scheduler threads, long rows, shrunken block shapes;
///  * `apply_arch` resolves EngineConfig backends into runnable Configs,
///    and an Engine on NativeCpu produces bit-identical results with zero
///    simulated time;
///  * SimBigDevice's widened tuner grid selects block shapes SimTitanXp's
///    feasibility check must reject (the point of the per-arch grids).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "core/acspgemm.hpp"
#include "core/compaction.hpp"
#include "core/sort_key.hpp"
#include "matrix/generators.hpp"
#include "runtime/engine.hpp"
#include "sim/block_primitives.hpp"
#include "tune/features.hpp"
#include "tune/tuner.hpp"

namespace acs {
namespace {

// --- Tag sanity -----------------------------------------------------------

TEST(ArchTags, EveryTagRoundTripsThroughIdNameAndInfo) {
  const auto& infos = arch::all_arch_infos();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].id, arch::ArchId::kSimTitanXp);
  EXPECT_EQ(infos[1].id, arch::ArchId::kSimBigDevice);
  EXPECT_EQ(infos[2].id, arch::ArchId::kNativeCpu);

  for (const arch::ArchInfo& info : infos) {
    EXPECT_STREQ(arch::to_string(info.id), info.name);
    arch::ArchId parsed{};
    ASSERT_TRUE(arch::parse_arch(info.name, parsed)) << info.name;
    EXPECT_EQ(parsed, info.id) << info.name;
    // arch_info agrees with the tag the id dispatches to.
    const arch::ArchInfo direct = arch::arch_info(info.id);
    EXPECT_EQ(direct.exec, info.exec);
    EXPECT_EQ(direct.device, info.device);
  }

  arch::ArchId out = arch::ArchId::kNativeCpu;
  EXPECT_FALSE(arch::parse_arch("no-such-backend", out));
  EXPECT_FALSE(arch::parse_arch(nullptr, out));
  EXPECT_EQ(out, arch::ArchId::kNativeCpu);  // untouched on failure

  EXPECT_STREQ(arch::to_string(arch::ExecKind::kSimulated), "simulated");
  EXPECT_STREQ(arch::to_string(arch::ExecKind::kNative), "native");
}

TEST(ArchTags, SimTitanXpIsBitCompatibleWithPreArchDefaults) {
  // The default tag must induce exactly the simulator's default device —
  // this is what keeps pre-arch fingerprints, plans and cost predictions
  // stable after the refactor.
  EXPECT_EQ(arch::device_config<arch::SimTitanXp>(), sim::DeviceConfig{});
  EXPECT_EQ(Config{}.exec, arch::ExecKind::kSimulated);
}

TEST(ArchTags, NativeCpuMirrorsTitanGeometryAndBigDeviceWidens) {
  // NativeCpu: same block geometry as the titan (bit-identity depends on
  // it), different execution kind.
  EXPECT_EQ(arch::device_config<arch::NativeCpu>(),
            arch::device_config<arch::SimTitanXp>());
  EXPECT_EQ(arch::NativeCpu::kExec, arch::ExecKind::kNative);
  // SimBigDevice: double the scratchpad, more SMs — the widened feasible
  // region the per-arch tuner grid exploits.
  EXPECT_EQ(arch::SimBigDevice::kScratchpadBytes, 96 * 1024);
  EXPECT_GT(arch::SimBigDevice::kNumSms, arch::SimTitanXp::kNumSms);
}

TEST(ArchTags, UnknownIdsDispatchAsTheDefaultBackend) {
  const auto unknown = static_cast<arch::ArchId>(0xdeadu);
  const arch::ArchInfo info = arch::arch_info(unknown);
  EXPECT_EQ(info.id, arch::ArchId::kSimTitanXp);
  EXPECT_STREQ(arch::to_string(unknown), "?");
}

// --- Native primitive equivalence -----------------------------------------

TEST(NativePrimitives, RadixSortMatchesSimPermutationIncludingStability) {
  // Both lanes run sim::block_radix_sort; the permutation the simulated
  // kernel defines is that of a stable sort on the low `bits` key bits, so
  // the host sort must match std::stable_sort element for element.
  std::mt19937_64 rng(42);
  for (const int bits : {1, 4, 11, 13, 22, 31}) {
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    std::vector<std::uint64_t> keys(777);
    // Payloads are unique, so stable sorts of duplicate-heavy keys must
    // agree element-for-element, not just key-for-key.
    std::vector<double> vals(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = rng() & mask & 0xff;  // few distinct keys -> many duplicates
      vals[i] = static_cast<double>(i);
    }
    std::vector<std::size_t> order(keys.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return (keys[x] & mask) < (keys[y] & mask);
                     });
    std::vector<std::uint64_t> ref_keys;
    std::vector<double> ref_vals;
    for (std::size_t i : order) {
      ref_keys.push_back(keys[i]);
      ref_vals.push_back(vals[i]);
    }

    sim::RadixSortScratch<std::uint64_t, double> scratch;
    sim::block_radix_sort(std::span(keys), std::span(vals), bits, scratch);
    EXPECT_EQ(keys, ref_keys) << "bits=" << bits;
    EXPECT_EQ(vals, ref_vals) << "bits=" << bits;
  }
}

TEST(NativePrimitives, CompactionMatchesSimLayoutAndAssociation) {
  // Rows of varying duplication, sorted, compacted by both paths.
  const KeyCodec codec = KeyCodec::make(0, 30, 0, 1000, true, 255, 1023);
  std::vector<std::uint64_t> keys;
  std::vector<double> vals;
  std::mt19937_64 rng(7);
  for (index_t row = 0; row <= 30; ++row) {
    index_t col = 0;
    while (col < 900) {
      const int dups = 1 + static_cast<int>(rng() % 5);
      for (int d = 0; d < dups; ++d) {
        keys.push_back(codec.encode(row, col));
        // 0.1 is not exactly representable: any change in association or
        // combine order shows up in the low mantissa bits.
        vals.push_back(0.1 * static_cast<double>(rng() % 97) + 0.1);
      }
      col += 1 + static_cast<index_t>(rng() % 200);
    }
  }

  sim::MetricCounters m;
  const CompactionOutput<double> simc = compact_sorted<double>(
      std::span<const std::uint64_t>(keys), std::span<const double>(vals),
      codec, m);
  CompactionOutput<double> natc;
  compact_sorted_into(std::span<const std::uint64_t>(keys),
                      std::span<const double>(vals), codec, natc);
  EXPECT_EQ(natc.keys, simc.keys);
  EXPECT_EQ(natc.vals, simc.vals);  // element-exact: same association
  EXPECT_EQ(natc.rows, simc.rows);

  // The output is reused across iterations: a second call starts clean.
  compact_sorted_into(std::span<const std::uint64_t>(keys),
                      std::span<const double>(vals), codec, natc);
  EXPECT_EQ(natc.keys, simc.keys);
  EXPECT_EQ(natc.rows, simc.rows);
}

TEST(NativePrimitives, CompactionEnforcesTheSameCounterBound) {
  const KeyCodec codec = KeyCodec::make(0, 0, 0, 0, false, 255, 1 << 20);
  std::vector<std::uint64_t> keys(compaction_detail::kCounterMask + 1);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = codec.encode(0, static_cast<index_t>(i));
  const std::vector<double> vals(keys.size(), 1.0);
  CompactionOutput<double> out;
  EXPECT_THROW(compact_sorted_into(std::span<const std::uint64_t>(keys),
                                   std::span<const double>(vals), codec, out),
               std::length_error);
}

// --- NativeCpu differential sweep -----------------------------------------

/// Multiply under the simulated default and under NativeCpu (one and four
/// scheduler threads); all three results must be bit-identical. No
/// quantization: the native backend promises the exact same floating-point
/// program, so even untamed values must match to the last bit.
template <class T>
void expect_native_matches_sim(const Csr<T>& a, const Csr<T>& b, Config cfg,
                               const std::string& label) {
  const Csr<T> sim_out = multiply(a, b, cfg);

  Config nat = cfg;
  nat.exec = arch::ExecKind::kNative;
  nat.device = arch::device_config<arch::NativeCpu>();
  const Csr<T> nat1 = multiply(a, b, nat);
  EXPECT_TRUE(nat1.equals_exact(sim_out)) << label << ": native-1 vs sim";

  nat.scheduler_threads = 4;
  const Csr<T> nat4 = multiply(a, b, nat);
  EXPECT_TRUE(nat4.equals_exact(sim_out)) << label << ": native-4 vs sim";
}

TEST(NativeBackend, GeneratorSweepDoubleIsBitIdentical) {
  struct Case {
    std::string name;
    Csr<double> a;
  };
  std::vector<Case> cases;
  cases.push_back({"uniform", gen_uniform_random<double>(300, 300, 6.0, 2.0, 201)});
  cases.push_back({"local", gen_uniform_local<double>(300, 300, 8.0, 2.0, 40, 202)});
  cases.push_back({"powerlaw", gen_powerlaw<double>(300, 300, 5.0, 1.6, 120, 203)});
  cases.push_back({"banded", gen_banded<double>(256, 4, 204)});
  cases.push_back({"stencil2d", gen_stencil_2d<double>(20, 20, 205)});
  cases.push_back({"stencil3d", gen_stencil_3d<double>(8, 8, 8, 206)});
  cases.push_back({"blockdense", gen_block_dense<double>(200, 200, 12, 2, 207)});
  for (const auto& c : cases)
    expect_native_matches_sim(c.a, c.a, Config{}, c.name + " A*A");
}

TEST(NativeBackend, GeneratorSweepFloatIsBitIdentical) {
  const auto u = gen_uniform_random<float>(250, 250, 5.0, 1.0, 211);
  const auto p = gen_powerlaw<float>(250, 250, 4.0, 1.5, 80, 212);
  expect_native_matches_sim(u, u, Config{}, "uniform float A*A");
  expect_native_matches_sim(p, p, Config{}, "powerlaw float A*A");
}

TEST(NativeBackend, SmallBlocksAndLongRowsStayBitIdentical) {
  // Shrunken block resources force multi-chunk rows, carries and restarts
  // through the Path/Search merge paths; long rows of B exercise the
  // pointer-chunk special case. The native pipeline must track every one.
  const auto a = gen_powerlaw<double>(300, 300, 6.0, 1.5, 120, 221);
  for (int nnz_per_block : {32, 64}) {
    Config cfg;
    cfg.nnz_per_block = nnz_per_block;
    expect_native_matches_sim(a, a, cfg,
                              "nnz_per_block=" + std::to_string(nnz_per_block));
  }
  const auto base = gen_uniform_random<double>(200, 200, 4.0, 1.0, 222);
  const auto lr = inject_long_rows(base, 3, 1200, 223);
  expect_native_matches_sim(lr, lr, Config{}, "long rows");
}

// --- apply_arch and the engine --------------------------------------------

TEST(ApplyArch, DefaultArchLeavesTheConfigUntouched) {
  runtime::EngineConfig ec;  // arch = kSimTitanXp
  Config cfg;
  cfg.nnz_per_block = 512;
  const Config before = cfg;
  runtime::apply_arch(cfg, ec);
  EXPECT_EQ(cfg.exec, before.exec);
  EXPECT_EQ(cfg.device, before.device);
  EXPECT_EQ(cfg.nnz_per_block, 512);
}

TEST(ApplyArch, NativeCpuResolvesExecAndThreads) {
  runtime::EngineConfig ec;
  ec.arch = arch::ArchId::kNativeCpu;
  ec.native_threads = 3;
  Config cfg;
  runtime::apply_arch(cfg, ec);
  EXPECT_EQ(cfg.exec, arch::ExecKind::kNative);
  EXPECT_EQ(cfg.device, arch::device_config<arch::NativeCpu>());
  EXPECT_EQ(cfg.scheduler_threads, 3u);

  // native_threads = 0: resolved from the host (never left at zero).
  ec.native_threads = 0;
  Config auto_cfg;
  runtime::apply_arch(auto_cfg, ec);
  EXPECT_GE(auto_cfg.scheduler_threads, 1u);
}

TEST(ApplyArch, SimBigDeviceSwapsTheSimulatedDevice) {
  runtime::EngineConfig ec;
  ec.arch = arch::ArchId::kSimBigDevice;
  Config cfg;
  runtime::apply_arch(cfg, ec);
  EXPECT_EQ(cfg.exec, arch::ExecKind::kSimulated);
  EXPECT_EQ(cfg.device, arch::device_config<arch::SimBigDevice>());
  EXPECT_EQ(cfg.scheduler_threads, 1u);  // simulated default untouched
}

TEST(Engine, NativeCpuEngineIsBitIdenticalWithZeroSimulatedTime) {
  const auto a = gen_powerlaw<double>(300, 300, 5.0, 1.5, 120, 231);
  const auto b = gen_uniform_random<double>(300, 300, 4.0, 1.0, 232);
  std::vector<std::pair<Csr<double>, Csr<double>>> pairs;
  pairs.emplace_back(a, a);
  pairs.emplace_back(a, b);
  pairs.emplace_back(a, a);  // repeat fingerprint: warm plan on the native side too

  runtime::Engine<double> sim_engine;
  const auto sim_res = sim_engine.multiply_batch(pairs);

  runtime::EngineConfig nat_ec;
  nat_ec.arch = arch::ArchId::kNativeCpu;
  nat_ec.native_threads = 2;
  runtime::Engine<double> nat_engine(nat_ec);
  const auto nat_res = nat_engine.multiply_batch(pairs);

  ASSERT_EQ(nat_res.size(), sim_res.size());
  for (std::size_t i = 0; i < nat_res.size(); ++i) {
    ASSERT_FALSE(nat_res[i].failed()) << "job " << i;
    EXPECT_TRUE(nat_res[i].c.equals_exact(sim_res[i].c)) << "job " << i;
    EXPECT_EQ(nat_res[i].stats.sim_time_s, 0.0) << "job " << i;
    EXPECT_GT(sim_res[i].stats.sim_time_s, 0.0) << "job " << i;
  }
  EXPECT_TRUE(nat_res[2].plan_hit);  // repeat hit the native arch's entry
}

// --- SimBigDevice tuner ----------------------------------------------------

TEST(BigDeviceTuner, SelectsBlockShapesTitanMustReject) {
  // On the big device the widened grid wins with nnz_per_block >= 1024 —
  // a shape whose double-width ESC working set exceeds the Titan Xp's
  // 48 KiB scratchpad, so its feasibility check must prune it.
  const auto a = gen_uniform_random<double>(600, 600, 12.0, 3.0, 241);
  const auto f = tune::extract_features(a, a);

  Config big_base;
  big_base.device = arch::device_config<arch::SimBigDevice>();
  const tune::AutoTuner big_tuner(
      tune::default_tuner_options(arch::ArchId::kSimBigDevice));
  const TunedParams winner = big_tuner.choose(f, big_base, sizeof(double));
  ASSERT_TRUE(winner.valid);
  EXPECT_GE(winner.nnz_per_block, 1024);

  // The winning overlay fits the big device but not the titan.
  Config on_big = big_base;
  winner.apply(on_big);
  EXPECT_TRUE(tune::fits_device(on_big, sizeof(double)));
  Config on_titan;
  on_titan.device = arch::device_config<arch::SimTitanXp>();
  winner.apply(on_titan);
  EXPECT_FALSE(tune::fits_device(on_titan, sizeof(double)));

  // And the titan's own default grid never offers that shape: its best
  // candidate under the same features stays feasible on the titan.
  const tune::AutoTuner titan_tuner(
      tune::default_tuner_options(arch::ArchId::kSimTitanXp));
  const TunedParams titan_winner = titan_tuner.choose(f, Config{}, sizeof(double));
  ASSERT_TRUE(titan_winner.valid);
  Config titan_cfg;
  titan_winner.apply(titan_cfg);
  EXPECT_TRUE(tune::fits_device(titan_cfg, sizeof(double)));
}

}  // namespace
}  // namespace acs
