#include "sim/block_primitives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

namespace acs::sim {
namespace {

/// Reference: std::stable_sort of (key, payload) pairs on the low `bits`
/// key bits — the order CUB's BlockRadixSort defines.
template <class V>
void reference_sort(std::vector<std::uint64_t>& keys, std::vector<V>& payload,
                    int bits) {
  const std::uint64_t mask =
      bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::vector<std::size_t> idx(keys.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t x, std::size_t y) {
    return (keys[x] & mask) < (keys[y] & mask);
  });
  std::vector<std::uint64_t> k;
  std::vector<V> p;
  for (std::size_t i : idx) {
    k.push_back(keys[i]);
    p.push_back(payload[i]);
  }
  keys = std::move(k);
  payload = std::move(p);
}

TEST(BlockPrimitives, RadixPasses) {
  EXPECT_EQ(radix_passes(0), 0);
  EXPECT_EQ(radix_passes(1), 1);
  EXPECT_EQ(radix_passes(4), 1);
  EXPECT_EQ(radix_passes(5), 2);
  EXPECT_EQ(radix_passes(32), 8);
}

TEST(BlockPrimitives, BitsFor) {
  EXPECT_EQ(bits_for(0), 0);
  EXPECT_EQ(bits_for(1), 1);
  EXPECT_EQ(bits_for(255), 8);
  EXPECT_EQ(bits_for(256), 9);
}

TEST(BlockPrimitives, RadixSortSortsAndCarriesPayload) {
  std::vector<std::uint64_t> keys{9, 3, 7, 3, 1};
  std::vector<int> payload{0, 1, 2, 3, 4};
  RadixSortScratch<std::uint64_t, int> scratch;
  block_radix_sort(std::span(keys), std::span(payload), 4, scratch);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 3, 3, 7, 9}));
  EXPECT_EQ(payload, (std::vector<int>{4, 1, 3, 2, 0}));
}

TEST(BlockPrimitives, RadixSortIsStable) {
  // Equal keys must keep their input order — the property AC-SpGEMM's
  // bit-stability rests on. Payloads are unique, so the sort must agree
  // with std::stable_sort element for element, at every digit width.
  std::mt19937_64 rng(42);
  for (const int bits : {1, 2, 4, 11, 13, 22, 31}) {
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    std::vector<std::uint64_t> keys(777);
    std::vector<double> vals(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = rng() & mask & 0xff;  // few distinct keys -> many duplicates
      vals[i] = static_cast<double>(i);
    }
    auto expect_keys = keys;
    auto expect_vals = vals;
    reference_sort(expect_keys, expect_vals, bits);
    RadixSortScratch<std::uint64_t, double> scratch;
    block_radix_sort(std::span(keys), std::span(vals), bits, scratch);
    EXPECT_EQ(keys, expect_keys) << "bits=" << bits;
    EXPECT_EQ(vals, expect_vals) << "bits=" << bits;
  }
}

TEST(BlockPrimitives, RadixSortOrdersOnlyTheLowBits) {
  // Bits above `bits` do not take part: keys equal in their low bits keep
  // their input order even when their high bits differ.
  std::vector<std::uint64_t> keys{0x102, 0x001, 0x202, 0x101};
  std::vector<int> payload{0, 1, 2, 3};
  auto expect_keys = keys;
  auto expect_payload = payload;
  reference_sort(expect_keys, expect_payload, 8);
  RadixSortScratch<std::uint64_t, int> scratch;
  block_radix_sort(std::span(keys), std::span(payload), 8, scratch);
  EXPECT_EQ(keys, expect_keys);
  EXPECT_EQ(payload, (std::vector<int>{1, 3, 0, 2}));
}

TEST(BlockPrimitives, RadixSortWorkScalesWithBits) {
  // The charge is the GPU's 4-bit passes over the sorted bits, whatever
  // digit width the host sort uses: narrow keys cost fewer passes.
  EXPECT_EQ(radix_sort_work(256, 8), 256u * 2);
  EXPECT_EQ(radix_sort_work(256, 32), 256u * 8);
  EXPECT_EQ(radix_sort_work(256, 9), 256u * 3);
  EXPECT_EQ(radix_sort_work(0, 32), 0u);
  EXPECT_EQ(radix_sort_work(1, 32), 8u);  // a lone key still streams
  EXPECT_EQ(radix_sort_work(256, 0), 0u);

  // Sorting narrow and wide keys gives the same order.
  std::vector<std::uint64_t> keys(256);
  std::vector<int> payload(256);
  std::iota(keys.rbegin(), keys.rend(), 0);
  RadixSortScratch<std::uint64_t, int> scratch;
  auto k1 = keys;
  auto p1 = payload;
  block_radix_sort(std::span(k1), std::span(p1), 8, scratch);
  auto k2 = keys;
  auto p2 = payload;
  block_radix_sort(std::span(k2), std::span(p2), 32, scratch);
  EXPECT_EQ(k1, k2);
}

TEST(BlockPrimitives, RadixSortRandomAgainstStdSort) {
  std::mt19937_64 rng(77);
  std::vector<std::uint64_t> keys(1000);
  for (auto& k : keys) k = rng() & 0xFFFFF;
  std::vector<int> payload(1000, 0);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  RadixSortScratch<std::uint64_t, int> scratch;
  block_radix_sort(std::span(keys), std::span(payload), 20, scratch);
  EXPECT_EQ(keys, expect);
  // The scratch is reused: a second, smaller sort needs no new capacity.
  const std::size_t cap = scratch.kbuf.capacity();
  std::vector<std::uint64_t> small{3, 1, 2};
  std::vector<int> sp{0, 1, 2};
  block_radix_sort(std::span(small), std::span(sp), 2, scratch);
  EXPECT_EQ(small, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(scratch.kbuf.capacity(), cap);
}

TEST(BlockPrimitives, RadixSortHandlesTinyInputs) {
  RadixSortScratch<std::uint64_t, int> scratch;
  std::vector<std::uint64_t> empty;
  std::vector<int> payload;
  block_radix_sort(std::span(empty), std::span(payload), 10, scratch);
  std::vector<std::uint64_t> one{5};
  std::vector<int> p1{0};
  block_radix_sort(std::span(one), std::span(p1), 10, scratch);
  EXPECT_EQ(one[0], 5u);
  // bits = 0: every key compares equal, so the order is untouched.
  std::vector<std::uint64_t> keys{3, 1, 2};
  std::vector<int> p3{0, 1, 2};
  block_radix_sort(std::span(keys), std::span(p3), 0, scratch);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{3, 1, 2}));
  EXPECT_EQ(p3, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace acs::sim
