// The canonical in-memory traffic dataset: a complete ground-truth series
// (synthetic generators know the truth), an observation mask describing what
// a deployed system would actually have seen, and the road-network geometry
// needed to build the geographic graph.
//
// Layout convention used across the library: time-major vectors of N x D
// matrices — values[t](i, d) is feature d of node i at timestep t, matching
// the paper's X ∈ R^{N x D x T} tensor (Fig. 1).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace rihgcn::data {

using rihgcn::Matrix;

struct TrafficDataset {
  std::string name;
  /// Ground-truth measurements; complete (synthetic generators know truth).
  std::vector<Matrix> truth;  ///< T entries of N x D
  /// Observation mask: 1 = the sensor reported this entry, 0 = missing.
  std::vector<Matrix> mask;  ///< T entries of N x D
  /// Node coordinates (N x 2, km in a local projection).
  Matrix coords;
  /// Road-network distances between nodes (N x N, km). May exceed Euclidean
  /// distance (roads are not straight lines).
  Matrix geo_distances;
  /// Timeline resolution.
  std::size_t steps_per_day = 288;  // 5-minute bins by default

  [[nodiscard]] std::size_t num_timesteps() const noexcept {
    return truth.size();
  }
  [[nodiscard]] std::size_t num_nodes() const {
    return truth.empty() ? 0 : truth.front().rows();
  }
  [[nodiscard]] std::size_t num_features() const {
    return truth.empty() ? 0 : truth.front().cols();
  }

  /// What a model is allowed to see: truth ⊙ mask (zeros where missing).
  [[nodiscard]] Matrix observed(std::size_t t) const;
  /// Fraction of entries with mask == 0 over the whole series.
  [[nodiscard]] double missing_rate() const;
  /// Time-of-day slot of timestep t.
  [[nodiscard]] std::size_t slot_of(std::size_t t) const {
    return t % steps_per_day;
  }

  /// Throws std::invalid_argument if shapes are inconsistent, a mask entry
  /// is not 0/1, or truth, coords or geo_distances hold a non-finite value.
  void validate() const;
};

/// Per-feature Z-score normalization fitted on OBSERVED entries of a prefix
/// of the series (the training split), per the paper's preprocessing.
class ZScoreNormalizer {
 public:
  /// Fit on observed entries of timesteps [0, fit_end).
  ZScoreNormalizer(const TrafficDataset& ds, std::size_t fit_end);

  /// Normalize every truth matrix in place (mask untouched).
  void normalize(TrafficDataset& ds) const;
  /// Invert on a single matrix whose columns are dataset features.
  [[nodiscard]] Matrix denormalize(const Matrix& m) const;
  /// Invert a scalar of feature d.
  [[nodiscard]] double denormalize(double v, std::size_t feature) const;
  [[nodiscard]] double normalize_value(double v, std::size_t feature) const;

  [[nodiscard]] const std::vector<double>& means() const noexcept {
    return mean_;
  }
  [[nodiscard]] const std::vector<double>& stds() const noexcept {
    return std_;
  }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace rihgcn::data
