#include "baselines/classical.hpp"

#include <span>
#include <stdexcept>

#include "tensor/linalg.hpp"

namespace rihgcn::baselines {

namespace {

/// Non-trainable models still satisfy the interface; their "loss" is a
/// constant so calling the trainer on them is a harmless no-op.
ad::Var zero_loss(ad::Tape& tape) { return tape.constant(Matrix(1, 1)); }

/// The first `n` steps of a dataset series, read in place.
std::span<const Matrix> prefix(const std::vector<Matrix>& series,
                               std::size_t n) {
  if (n > series.size()) {
    throw std::invalid_argument(
        "HistoricalAverageModel: train_end past the end of the dataset");
  }
  return std::span(series).first(n);
}

}  // namespace

// ---- HistoricalAverageModel ------------------------------------------------

HistoricalAverageModel::HistoricalAverageModel(const data::TrafficDataset& ds,
                                               std::size_t train_end,
                                               std::size_t lookback,
                                               std::size_t horizon,
                                               std::size_t target_feature)
    : profile_(prefix(ds.truth, train_end), prefix(ds.mask, train_end),
               ds.steps_per_day, target_feature),
      steps_per_day_(ds.steps_per_day),
      lookback_(lookback),
      horizon_(horizon) {}

ad::Var HistoricalAverageModel::training_loss(ad::Tape& tape,
                                              const data::Window&) {
  return zero_loss(tape);
}

Matrix HistoricalAverageModel::predict_on(ad::Tape&, const data::Window& w) {
  const std::size_t n = profile_.num_nodes();
  Matrix out(n, horizon_);
  for (std::size_t h = 0; h < horizon_; ++h) {
    const std::size_t slot = (w.start + lookback_ + h) % steps_per_day_;
    for (std::size_t i = 0; i < n; ++i) {
      out(i, h) = profile_.node_profiles()(i, slot);
    }
  }
  return out;
}

// ---- VarModel --------------------------------------------------------------

VarModel::VarModel(const data::TrafficDataset& ds, std::size_t train_end,
                   std::size_t lookback, std::size_t horizon, std::size_t lags,
                   double ridge, std::size_t target_feature)
    : lags_(lags),
      lookback_(lookback),
      horizon_(horizon),
      target_feature_(target_feature) {
  if (lags == 0 || lookback < lags) {
    throw std::invalid_argument("VarModel: need 1 <= lags <= lookback");
  }
  if (train_end <= lags || train_end > ds.num_timesteps()) {
    throw std::invalid_argument("VarModel: bad train_end");
  }
  const std::size_t n = ds.num_nodes();
  // Zero-filled series (z-scored data => zero == feature mean).
  std::vector<Matrix> filled(train_end, Matrix(n, 1));
  for (std::size_t t = 0; t < train_end; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      if (ds.mask[t](i, target_feature) > 0.5) {
        filled[t](i, 0) = ds.truth[t](i, target_feature);
      }
    }
  }
  const std::size_t samples = train_end - lags;
  Matrix design(samples, n * lags + 1);
  Matrix targets(samples, n);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t t = s + lags;
    for (std::size_t l = 0; l < lags; ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        design(s, l * n + i) = filled[t - 1 - l](i, 0);
      }
    }
    design(s, n * lags) = 1.0;  // intercept
    for (std::size_t i = 0; i < n; ++i) targets(s, i) = filled[t](i, 0);
  }
  coef_ = ridge_least_squares(design, targets, ridge);
}

ad::Var VarModel::training_loss(ad::Tape& tape, const data::Window&) {
  return zero_loss(tape);
}

Matrix VarModel::predict_on(ad::Tape&, const data::Window& w) {
  const std::size_t n = coef_.cols();
  // Rolling state: most recent `lags` vectors, zero-filled at missing.
  std::vector<Matrix> recent;
  recent.reserve(lags_);
  for (std::size_t l = 0; l < lags_; ++l) {
    const std::size_t t = w.x_obs.size() - lags_ + l;
    Matrix v(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      v(i, 0) = w.x_obs[t](i, target_feature_);  // already truth ⊙ mask
    }
    recent.push_back(std::move(v));
  }
  Matrix out(n, horizon_);
  Matrix row(1, n * lags_ + 1);
  for (std::size_t h = 0; h < horizon_; ++h) {
    for (std::size_t l = 0; l < lags_; ++l) {
      const Matrix& v = recent[recent.size() - 1 - l];
      for (std::size_t i = 0; i < n; ++i) row(0, l * n + i) = v(i, 0);
    }
    row(0, n * lags_) = 1.0;
    const Matrix pred = matmul(row, coef_);  // 1 x N
    Matrix next(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      out(i, h) = pred(0, i);
      next(i, 0) = pred(0, i);
    }
    recent.erase(recent.begin());
    recent.push_back(std::move(next));
  }
  return out;
}

}  // namespace rihgcn::baselines
