#include "data/dataset.hpp"

#include <cmath>
#include <stdexcept>

namespace rihgcn::data {

Matrix TrafficDataset::observed(std::size_t t) const {
  return hadamard(truth.at(t), mask.at(t));
}

double TrafficDataset::missing_rate() const {
  if (truth.empty()) return 0.0;
  double missing = 0.0, total = 0.0;
  for (const Matrix& m : mask) {
    total += static_cast<double>(m.size());
    missing += static_cast<double>(m.size()) - m.sum();
  }
  return total > 0.0 ? missing / total : 0.0;
}

void TrafficDataset::validate() const {
  if (truth.size() != mask.size()) {
    throw std::invalid_argument("TrafficDataset: truth/mask length differ");
  }
  if (truth.empty()) return;
  const std::size_t n = truth.front().rows();
  const std::size_t d = truth.front().cols();
  for (std::size_t t = 0; t < truth.size(); ++t) {
    if (truth[t].rows() != n || truth[t].cols() != d) {
      throw std::invalid_argument("TrafficDataset: ragged truth shapes");
    }
    if (!truth[t].same_shape(mask[t])) {
      throw std::invalid_argument("TrafficDataset: mask shape mismatch");
    }
    if (truth[t].has_non_finite()) {
      throw std::invalid_argument("TrafficDataset: non-finite truth values");
    }
    for (std::size_t i = 0; i < mask[t].size(); ++i) {
      const double v = mask[t].data()[i];
      if (v != 0.0 && v != 1.0) {
        throw std::invalid_argument("TrafficDataset: mask must be 0/1");
      }
    }
  }
  if (coords.rows() != n && coords.rows() != 0) {
    throw std::invalid_argument("TrafficDataset: coords row count mismatch");
  }
  if (coords.has_non_finite()) {
    throw std::invalid_argument("TrafficDataset: non-finite coords");
  }
  if (geo_distances.rows() != geo_distances.cols() ||
      (geo_distances.rows() != n && geo_distances.rows() != 0)) {
    throw std::invalid_argument("TrafficDataset: geo_distances shape");
  }
  if (geo_distances.has_non_finite()) {
    throw std::invalid_argument("TrafficDataset: non-finite geo_distances");
  }
  if (steps_per_day == 0) {
    throw std::invalid_argument("TrafficDataset: steps_per_day == 0");
  }
}

ZScoreNormalizer::ZScoreNormalizer(const TrafficDataset& ds,
                                   std::size_t fit_end) {
  if (fit_end == 0 || fit_end > ds.num_timesteps()) {
    throw std::invalid_argument("ZScoreNormalizer: bad fit range");
  }
  const std::size_t d = ds.num_features();
  mean_.assign(d, 0.0);
  std_.assign(d, 1.0);
  std::vector<double> sum(d, 0.0), sum2(d, 0.0), count(d, 0.0);
  for (std::size_t t = 0; t < fit_end; ++t) {
    const Matrix& x = ds.truth[t];
    const Matrix& m = ds.mask[t];
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t f = 0; f < d; ++f) {
        if (m(i, f) > 0.5) {
          sum[f] += x(i, f);
          sum2[f] += x(i, f) * x(i, f);
          count[f] += 1.0;
        }
      }
    }
  }
  for (std::size_t f = 0; f < d; ++f) {
    if (count[f] > 0.0) {
      mean_[f] = sum[f] / count[f];
      const double var = std::max(0.0, sum2[f] / count[f] - mean_[f] * mean_[f]);
      std_[f] = var > 1e-12 ? std::sqrt(var) : 1.0;
    }
  }
}

void ZScoreNormalizer::normalize(TrafficDataset& ds) const {
  for (Matrix& x : ds.truth) {
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t f = 0; f < x.cols(); ++f) {
        x(i, f) = (x(i, f) - mean_[f]) / std_[f];
      }
    }
  }
}

Matrix ZScoreNormalizer::denormalize(const Matrix& m) const {
  Matrix out = m;
  for (std::size_t i = 0; i < out.rows(); ++i) {
    for (std::size_t f = 0; f < out.cols(); ++f) {
      out(i, f) = out(i, f) * std_[f % std_.size()] + mean_[f % mean_.size()];
    }
  }
  return out;
}

double ZScoreNormalizer::denormalize(double v, std::size_t feature) const {
  return v * std_.at(feature) + mean_.at(feature);
}

double ZScoreNormalizer::normalize_value(double v, std::size_t feature) const {
  return (v - mean_.at(feature)) / std_.at(feature);
}

}  // namespace rihgcn::data
