// Historical profiles: per-node averages of traffic measurements at each
// time-of-day slot, computed over the training days while respecting the
// missingness mask. These profiles feed both the timeline partitioner
// (hourly granularity, paper §III-D) and the temporal-graph construction
// (per-interval node series whose pairwise DTW distances define adjacency).
#pragma once

#include <cstddef>
#include <span>

#include "tensor/matrix.hpp"

namespace rihgcn::ts {

/// Per-slot historical averages of one feature across days.
///
/// Input layout matches the rest of the library: `values[t]` and `mask[t]`
/// are N x D matrices for timestep t; `steps_per_day` slots tile the
/// timeline. Slots with no observation anywhere fall back to the node's
/// global observed mean (or 0 if the node never reports).
class HistoricalProfile {
 public:
  /// Reads `values` and `mask` in place: pass a dataset's training prefix
  /// as a span, with no copy.
  HistoricalProfile(std::span<const Matrix> values,
                    std::span<const Matrix> mask, std::size_t steps_per_day,
                    std::size_t feature = 0);

  /// N x steps_per_day matrix of per-slot averages.
  [[nodiscard]] const Matrix& node_profiles() const noexcept {
    return profiles_;
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return profiles_.rows();
  }
  [[nodiscard]] std::size_t steps_per_day() const noexcept {
    return profiles_.cols();
  }

  /// Aggregate to a coarser grid (e.g. 5-min slots -> 24 hourly slots),
  /// returned TRANSPOSED as (coarse_slots x N) — the layout the
  /// TimelinePartitioner expects (rows = time).
  [[nodiscard]] Matrix day_profile(std::size_t coarse_slots) const;

  /// Per-node series restricted to slot range [s0, s1): N x (s1-s0).
  /// This is H_i of the paper — the input to temporal-graph DTW distances.
  /// s1 <= s0 selects the WRAPPING range [s0, end) ++ [0, s1), which circular
  /// partitions (paper's future-work extension) produce.
  [[nodiscard]] Matrix interval_series(std::size_t s0, std::size_t s1) const;

 private:
  Matrix profiles_;  // N x steps_per_day
};

}  // namespace rihgcn::ts
