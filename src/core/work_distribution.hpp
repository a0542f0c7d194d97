#pragma once
/// \file work_distribution.hpp
/// The paper's local work distribution (Algorithm 2): a per-block structure
/// that hands out temporary products to exactly fill the block's scratchpad
/// resources each ESC iteration. `WDState` holds an inclusive prefix sum of
/// the *remaining* products per entry of A; `receive_visit_segments` maps
/// output slots to (A entry, B offset) pairs and then subtracts the consumed
/// count from all state entries (Algorithm 2 line 36). Offsets count down
/// from the end of each row of B, so a split row simply "acts like the row
/// is shorter in the next iteration".

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "matrix/types.hpp"
#include "sim/metrics.hpp"

namespace acs {

class WorkDistribution {
 public:
  /// placework: `counts[i]` = products generated by the block's i-th A
  /// entry. Performs the block prefix sum of Algorithm 2 lines 3-6.
  WorkDistribution(std::span<const offset_t> counts, sim::MetricCounters& m);

  /// size(): products still to be processed.
  [[nodiscard]] offset_t size() const { return state_.back(); }

  /// receivework: draw `consume` products (consume <= size()) and reduce
  /// the state. The drawn products are visited as one callback per A entry:
  /// `visit(a_idx, b_lo, b_hi)` covers the B offsets (an offset from the
  /// *start* of the referenced row of B) b_hi - 1 down to b_lo, in
  /// consumption order — output slot c belongs to the A entry whose state
  /// range contains c, and offsets count down from the remaining end. A
  /// visit is one B-row segment, so the ESC loop hoists the per-A-entry
  /// loads (value, B row base) out of the per-product loop and streams one
  /// row of B; the number of visits is the number of segments the GPU's
  /// coalesced loads start.
  ///
  /// Charges the GPU-side cost of the assignment: the marker scatter, max
  /// scan (Algorithm 2 lines 16-29) and blocked->striped exchange each
  /// touch `consume` slots, and the reduction touches every state entry.
  template <class F>
  void receive_visit_segments(offset_t consume, sim::MetricCounters& m,
                              F&& visit) {
    assert(consume <= size());
    std::size_t a = 0;
    offset_t c = 0;
    while (c < consume) {
      while (state_[a + 1] <= c) ++a;
      const offset_t run_end = std::min<offset_t>(state_[a + 1], consume);
      visit(static_cast<index_t>(a),
            static_cast<index_t>(state_[a + 1] - run_end),
            static_cast<index_t>(state_[a + 1] - c));
      c = run_end;
    }
    m.scan_elements += static_cast<std::uint64_t>(consume);
    m.scratch_ops += 3 * static_cast<std::uint64_t>(consume);
    reduce(consume, m);
  }

  /// Restart support: drop `count` products without visiting them — the
  /// paper's "execute line 36 with the stored count" on block relaunch.
  void fast_forward(offset_t count, sim::MetricCounters& m);

  /// First A entry with remaining products (requires size() > 0) — the
  /// entry the next `receive_visit_segments` sweep starts from. The ESC
  /// loop uses it to fix the iteration's key row base before encoding.
  [[nodiscard]] index_t first_pending() const {
    std::size_t a = 0;
    while (state_[a + 1] <= 0) ++a;
    return static_cast<index_t>(a);
  }

  /// Total products drawn (including fast-forwarded ones).
  [[nodiscard]] offset_t consumed() const { return consumed_; }

 private:
  void reduce(offset_t consume, sim::MetricCounters& m);

  /// Inclusive prefix: state_[0] = 0, state_[i+1] = remaining products of
  /// entries 0..i (the paper's WDState array, kept in scratchpad).
  std::vector<offset_t> state_;
  offset_t consumed_ = 0;
};

}  // namespace acs
