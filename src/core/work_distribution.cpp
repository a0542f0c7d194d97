#include "core/work_distribution.hpp"

#include <algorithm>
#include <cassert>

namespace acs {

WorkDistribution::WorkDistribution(std::span<const offset_t> counts,
                                   sim::MetricCounters& m) {
  state_.resize(counts.size() + 1);
  state_[0] = 0;
  for (std::size_t i = 0; i < counts.size(); ++i)
    state_[i + 1] = state_[i] + counts[i];
  m.scan_elements += counts.size();
  m.scratch_ops += counts.size();
}

void WorkDistribution::fast_forward(offset_t count, sim::MetricCounters& m) {
  assert(count <= size());
  reduce(count, m);
}

void WorkDistribution::reduce(offset_t consume, sim::MetricCounters& m) {
  for (auto& s : state_) s = std::max<offset_t>(0, s - consume);
  m.scratch_ops += state_.size();
  consumed_ += consume;
}

}  // namespace acs
