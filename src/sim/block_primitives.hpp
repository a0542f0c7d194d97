#pragma once
/// \file block_primitives.hpp
/// The block-wide stable radix sort the paper's ESC and merge kernels are
/// built on (CUB's BlockRadixSort), with the work it is charged: the cost
/// model sees radix-sort cost proportional to the sorted bit width — the
/// basis of the paper's dynamic bit-reduction optimization. The host sort
/// and its charge are separate: the sort picks host-friendly digit widths,
/// the charge counts the GPU's 4-bit passes over the bits the kernel would
/// sort.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace acs::sim {

/// Number of 4-bit radix passes needed to sort keys of `bits` significant
/// bits (the quantity the paper's bit reduction minimizes).
constexpr int radix_passes(int bits) { return (bits + 3) / 4; }

/// Sort work charged to MetricCounters::sort_pass_elements for a block sort
/// of `n` keys over `bits` bits: #keys × #4-bit passes.
constexpr std::uint64_t radix_sort_work(std::size_t n, int bits) {
  return static_cast<std::uint64_t>(n) *
         static_cast<std::uint64_t>(std::max(radix_passes(bits), 0));
}

/// Reusable double-buffers for block_radix_sort. Capacity persists across
/// calls, so a caller that keeps one instance (the ESC and merge workspaces
/// keep one per thread) sorts without touching the allocator.
template <class K, class V>
struct RadixSortScratch {
  std::vector<K> kbuf;
  std::vector<V> vbuf;
};

/// Widest radix digit a single pass may consume. 11 bits = 2048 counters
/// (16 KiB on the stack) — past that, zeroing and re-walking the histogram
/// costs more than it saves on the block-sized inputs ESC produces.
inline constexpr int kMaxDigitBits = 11;

/// Stable LSD radix sort of (key, payload) pairs over the low `bits` key
/// bits, ascending. The permutation of a stable sort is unique, so the
/// digit width does not change the result; it is the smallest width that
/// achieves the minimum pass count `ceil(bits / kMaxDigitBits)`, keeping
/// the histogram as small as the pass budget allows. Charges nothing:
/// callers charge `radix_sort_work` for the bits the kernel sorts.
template <class K, class V>
void block_radix_sort(std::span<K> keys, std::span<V> payload, int bits,
                      RadixSortScratch<K, V>& scratch) {
  const std::size_t n = keys.size();
  if (n <= 1 || bits <= 0) return;
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (bits + passes - 1) / passes;
  const std::uint64_t digit_mask = (std::uint64_t{1} << digit_bits) - 1;
  const std::size_t buckets = std::size_t{1} << digit_bits;

  if (scratch.kbuf.size() < n) scratch.kbuf.resize(n);
  if (scratch.vbuf.size() < n) scratch.vbuf.resize(n);
  K* ksrc = keys.data();
  V* vsrc = payload.data();
  K* kdst = scratch.kbuf.data();
  V* vdst = scratch.vbuf.data();

  for (int p = 0; p < passes; ++p) {
    const int shift = p * digit_bits;
    std::size_t count[std::size_t{1} << kMaxDigitBits];
    std::fill(count, count + buckets, 0);
    for (std::size_t i = 0; i < n; ++i)
      count[(static_cast<std::uint64_t>(ksrc[i]) >> shift) & digit_mask]++;
    std::size_t run = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::size_t d = count[b];
      count[b] = run;
      run += d;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto d =
          (static_cast<std::uint64_t>(ksrc[i]) >> shift) & digit_mask;
      kdst[count[d]] = ksrc[i];
      vdst[count[d]] = vsrc[i];
      ++count[d];
    }
    std::swap(ksrc, kdst);
    std::swap(vsrc, vdst);
  }
  if (ksrc != keys.data()) {
    std::copy(ksrc, ksrc + n, keys.data());
    std::copy(vsrc, vsrc + n, payload.data());
  }
}

/// Significant bits of a non-negative value (0 → 0 bits).
constexpr int bits_for(std::uint64_t max_value) {
  int b = 0;
  while (max_value > 0) {
    ++b;
    max_value >>= 1;
  }
  return b;
}

}  // namespace acs::sim
