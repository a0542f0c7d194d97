/// \file bench_micro_primitives.cpp
/// google-benchmark microbenchmarks of the block primitives the ESC and
/// merge kernels run, supporting the Section 3.2.3 argument that radix-sort
/// work scales with the sorted bit width (the basis of the dynamic
/// bit-reduction optimization) and quantifying the compaction and
/// work-distribution costs per element.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/compaction.hpp"
#include "core/sort_key.hpp"
#include "core/work_distribution.hpp"
#include "sim/block_primitives.hpp"

namespace {

using namespace acs;

void BM_BlockRadixSortBits(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> keys(2048);
  std::vector<double> vals(2048);
  const std::uint64_t mask = bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  for (auto& k : keys) k = rng() & mask;
  sim::RadixSortScratch<std::uint64_t, double> scratch;
  std::vector<std::uint64_t> kcopy;
  std::vector<double> vcopy;
  for (auto _ : state) {
    kcopy = keys;
    vcopy = vals;
    sim::block_radix_sort(std::span(kcopy), std::span(vcopy), bits, scratch);
    benchmark::DoNotOptimize(kcopy.data());
  }
  state.counters["sim_sort_work_per_iter"] =
      static_cast<double>(sim::radix_sort_work(keys.size(), bits));
}
BENCHMARK(BM_BlockRadixSortBits)->Arg(9)->Arg(16)->Arg(23)->Arg(32)->Arg(48);

/// The Algorithm 3 scan (the reference the packed-word proofs certify)
/// against the single-pass compaction the pipeline runs.
void BM_CompactionScan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto codec = KeyCodec::make(0, 255, 0, 4095, true, 255, 1 << 20);
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> keys(n);
  std::vector<double> vals(n, 1.0);
  for (auto& k : keys)
    k = codec.encode(static_cast<index_t>(rng() % 64),
                     static_cast<index_t>(rng() % 512));
  std::sort(keys.begin(), keys.end());
  sim::MetricCounters m;
  for (auto _ : state) {
    auto out = compact_sorted<double>(std::span(keys), std::span(vals), codec, m);
    benchmark::DoNotOptimize(out.keys.data());
  }
}
BENCHMARK(BM_CompactionScan)->Arg(256)->Arg(1024)->Arg(2048);

void BM_CompactionSinglePass(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto codec = KeyCodec::make(0, 255, 0, 4095, true, 255, 1 << 20);
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> keys(n);
  std::vector<double> vals(n, 1.0);
  for (auto& k : keys)
    k = codec.encode(static_cast<index_t>(rng() % 64),
                     static_cast<index_t>(rng() % 512));
  std::sort(keys.begin(), keys.end());
  CompactionOutput<double> out;
  for (auto _ : state) {
    compact_sorted_into(std::span<const std::uint64_t>(keys),
                        std::span<const double>(vals), codec, out);
    benchmark::DoNotOptimize(out.keys.data());
  }
}
BENCHMARK(BM_CompactionSinglePass)->Arg(256)->Arg(1024)->Arg(2048);

void BM_WorkDistributionReceive(benchmark::State& state) {
  std::mt19937_64 rng(13);
  std::vector<offset_t> counts(256);
  for (auto& c : counts) c = static_cast<offset_t>(rng() % 40);
  sim::MetricCounters m;
  for (auto _ : state) {
    WorkDistribution wd(counts, m);
    while (wd.size() > 0) {
      offset_t drawn = 0;
      wd.receive_visit_segments(
          std::min<offset_t>(2048, wd.size()), m,
          [&](index_t, index_t b_lo, index_t b_hi) { drawn += b_hi - b_lo; });
      benchmark::DoNotOptimize(drawn);
    }
  }
}
BENCHMARK(BM_WorkDistributionReceive);

}  // namespace
