#include "data/missing.hpp"

#include <stdexcept>

namespace rihgcn::data {

namespace {

void check_rate(double rate) {
  if (!(rate >= 0.0 && rate < 1.0)) {  // NaN fails every comparison
    throw std::invalid_argument("missing rate must be in [0, 1)");
  }
}

}  // namespace

void inject_mcar(TrafficDataset& ds, double rate, Rng& rng) {
  check_rate(rate);
  for (Matrix& m : ds.mask) {
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (m.data()[i] > 0.5 && rng.bernoulli(rate)) m.data()[i] = 0.0;
    }
  }
}

void inject_mcar_readings(TrafficDataset& ds, double rate, Rng& rng) {
  check_rate(rate);
  for (Matrix& m : ds.mask) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      if (!rng.bernoulli(rate)) continue;
      for (std::size_t f = 0; f < m.cols(); ++f) m(i, f) = 0.0;
    }
  }
}

void inject_block_missing(TrafficDataset& ds, double rate,
                          std::size_t mean_block_len, Rng& rng) {
  check_rate(rate);
  if (mean_block_len == 0) {
    throw std::invalid_argument("mean_block_len must be >= 1");
  }
  const std::size_t t_total = ds.num_timesteps();
  const std::size_t n = ds.num_nodes();
  const std::size_t d = ds.num_features();
  // Episode start probability p solves: p * mean_len / (1 + p * mean_len)
  // ≈ rate  =>  p = rate / (mean_len * (1 - rate)).
  const double p_start =
      rate / (static_cast<double>(mean_block_len) * (1.0 - rate));
  const double p_end = 1.0 / static_cast<double>(mean_block_len);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < d; ++f) {
      bool failing = false;
      for (std::size_t t = 0; t < t_total; ++t) {
        if (failing) {
          if (rng.bernoulli(p_end)) failing = false;
        } else if (rng.bernoulli(p_start)) {
          failing = true;
        }
        if (failing) ds.mask[t](i, f) = 0.0;
      }
    }
  }
}

std::vector<Matrix> make_imputation_holdout(TrafficDataset& ds,
                                            double fraction, Rng& rng) {
  check_rate(fraction);
  std::vector<Matrix> holdout;
  holdout.reserve(ds.mask.size());
  for (Matrix& m : ds.mask) {
    Matrix h(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (m.data()[i] > 0.5 && rng.bernoulli(fraction)) {
        m.data()[i] = 0.0;
        h.data()[i] = 1.0;
      }
    }
    holdout.push_back(std::move(h));
  }
  return holdout;
}

}  // namespace rihgcn::data
