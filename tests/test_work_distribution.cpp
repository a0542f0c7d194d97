#include "core/work_distribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace acs {
namespace {

std::vector<offset_t> counts(std::initializer_list<offset_t> c) { return c; }

/// One drawn product: the block's A entry and the offset into its row of B.
struct Drawn {
  index_t a_idx;
  index_t b_off;
};

/// Draw `consume` products and expand the segment visits into the
/// per-product (A entry, B offset) sequence, in consumption order.
std::vector<Drawn> draw(WorkDistribution& wd, offset_t consume,
                        sim::MetricCounters& m, int* segments = nullptr) {
  std::vector<Drawn> out;
  wd.receive_visit_segments(consume, m, [&](index_t a, index_t lo, index_t hi) {
    EXPECT_LT(lo, hi) << "empty segment visit";
    if (segments) ++*segments;
    for (index_t off = hi; off-- > lo;) out.push_back({a, off});
  });
  return out;
}

TEST(WorkDistribution, SizeIsTotalCount) {
  sim::MetricCounters m;
  const auto c = counts({5, 3, 4, 4, 5, 3});  // the paper's Fig. 3 example
  WorkDistribution wd(c, m);
  EXPECT_EQ(wd.size(), 24);
}

TEST(WorkDistribution, PaperFigure3FirstDraw) {
  // Fig. 3(b): taking 10 elements must cover entries 0 (5 products),
  // 1 (3 products) and 2 (first 2 of 4 products, from the row's end).
  sim::MetricCounters m;
  const auto c = counts({5, 3, 4, 4, 5, 3});
  WorkDistribution wd(c, m);
  int segments = 0;
  const auto items = draw(wd, 10, m, &segments);
  ASSERT_EQ(items.size(), 10u);
  EXPECT_EQ(segments, 3);  // one visit per A entry touched
  // Entry 0 contributes offsets 4..0 (reverse), entry 1 offsets 2..0,
  // entry 2 offsets 3,2 (the tail of its 4 products).
  EXPECT_EQ(items[0].a_idx, 0);
  EXPECT_EQ(items[0].b_off, 4);
  EXPECT_EQ(items[4].a_idx, 0);
  EXPECT_EQ(items[4].b_off, 0);
  EXPECT_EQ(items[5].a_idx, 1);
  EXPECT_EQ(items[5].b_off, 2);
  EXPECT_EQ(items[8].a_idx, 2);
  EXPECT_EQ(items[8].b_off, 3);
  EXPECT_EQ(items[9].a_idx, 2);
  EXPECT_EQ(items[9].b_off, 2);
  // Fig. 3(c): 14 elements remain.
  EXPECT_EQ(wd.size(), 14);
}

TEST(WorkDistribution, SplitRowActsShorterNextIteration) {
  // After a partial draw, the next draw of the same entry must continue
  // with the remaining (lower) offsets.
  sim::MetricCounters m;
  const auto c = counts({6});
  WorkDistribution wd(c, m);
  EXPECT_EQ(draw(wd, 4, m).back().b_off, 2);
  const auto items = draw(wd, 2, m);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].b_off, 1);
  EXPECT_EQ(items[1].b_off, 0);
  EXPECT_EQ(wd.size(), 0);
}

TEST(WorkDistribution, EveryProductDeliveredExactlyOnce) {
  sim::MetricCounters m;
  const auto c = counts({3, 0, 7, 1, 0, 2});
  WorkDistribution wd(c, m);
  std::vector<std::vector<bool>> seen;
  for (offset_t n : c) seen.emplace_back(static_cast<std::size_t>(n), false);
  while (wd.size() > 0) {
    for (auto [a, b] : draw(wd, std::min<offset_t>(4, wd.size()), m)) {
      ASSERT_FALSE(seen[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]);
      seen[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = true;
    }
  }
  for (const auto& row : seen)
    for (bool s : row) EXPECT_TRUE(s);
}

TEST(WorkDistribution, ZeroCountEntriesAreSkipped) {
  sim::MetricCounters m;
  const auto c = counts({0, 0, 2, 0});
  WorkDistribution wd(c, m);
  const auto items = draw(wd, 2, m);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].a_idx, 2);
  EXPECT_EQ(items[1].a_idx, 2);
}

TEST(WorkDistribution, FastForwardMatchesReceive) {
  // Restart contract: fast_forward(k) must leave the distribution in the
  // same state as drawing k products.
  sim::MetricCounters m;
  const auto c = counts({4, 2, 6, 1});
  WorkDistribution wd1(c, m), wd2(c, m);
  draw(wd1, 7, m);
  wd2.fast_forward(7, m);
  EXPECT_EQ(wd1.size(), wd2.size());
  const auto i1 = draw(wd1, wd1.size(), m);
  const auto i2 = draw(wd2, wd2.size(), m);
  ASSERT_EQ(i1.size(), i2.size());
  for (std::size_t i = 0; i < i1.size(); ++i) {
    EXPECT_EQ(i1[i].a_idx, i2[i].a_idx);
    EXPECT_EQ(i1[i].b_off, i2[i].b_off);
  }
}

TEST(WorkDistribution, ConsumedTracksTotal) {
  sim::MetricCounters m;
  const auto c = counts({5, 5});
  WorkDistribution wd(c, m);
  wd.fast_forward(3, m);
  draw(wd, 4, m);
  EXPECT_EQ(wd.consumed(), 7);
  EXPECT_EQ(wd.size(), 3);
}

TEST(WorkDistribution, DrawChargesTheAssignmentInClosedForm) {
  // Marker scatter, max scan and blocked->striped exchange touch every
  // drawn slot; the reduction touches every state entry.
  const auto c = counts({5, 3, 4, 4, 5, 3});
  sim::MetricCounters built;
  WorkDistribution wd(c, built);
  EXPECT_EQ(built.scan_elements, 6u);
  EXPECT_EQ(built.scratch_ops, 6u);
  sim::MetricCounters m;
  draw(wd, 10, m);
  EXPECT_EQ(m.scan_elements, 10u);
  EXPECT_EQ(m.scratch_ops, 3u * 10 + 7);
}

TEST(WorkDistribution, EmptyDistribution) {
  sim::MetricCounters m;
  const std::vector<offset_t> c;
  WorkDistribution wd(c, m);
  EXPECT_EQ(wd.size(), 0);
}

}  // namespace
}  // namespace acs
