#include "core/model.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace rihgcn::core {

namespace {

/// Denormalize every column of a node x horizon target matrix with the
/// target feature's statistics (feature 0 by library convention).
Matrix denorm_target(const Matrix& m, const data::ZScoreNormalizer* nz) {
  if (nz == nullptr) return m;
  Matrix out = m;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = nz->denormalize(out.data()[i], 0);
  }
  return out;
}

/// Denormalize an N x D matrix column-by-column with per-feature stats.
Matrix denorm_features(const Matrix& m, const data::ZScoreNormalizer* nz) {
  if (nz == nullptr) return m;
  Matrix out = m;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = nz->denormalize(out(r, c), c);
    }
  }
  return out;
}

}  // namespace

EvalResult evaluate_prediction(ForecastModel& model,
                               const data::WindowSampler& sampler,
                               const std::vector<std::size_t>& indices,
                               const data::ZScoreNormalizer* normalizer,
                               std::size_t horizon_prefix,
                               std::size_t max_windows) {
  metrics::ErrorAccumulator acc;
  const std::size_t horizon = sampler.horizon();
  const std::size_t k =
      horizon_prefix == 0 ? horizon : std::min(horizon_prefix, horizon);
  std::size_t used = 0;
  for (const std::size_t idx : indices) {
    if (max_windows != 0 && used >= max_windows) break;
    ++used;
    const data::Window w = sampler.make_window(idx);
    Matrix pred = model.predict(w);  // N x horizon
    // Targets are ground truth (synthetic data gives exact truth).
    Matrix truth(pred.rows(), horizon);
    for (std::size_t t = 0; t < horizon; ++t) truth.set_cols(t, w.y[t]);
    pred = denorm_target(pred, normalizer);
    truth = denorm_target(truth, normalizer);
    acc.add(pred.slice_cols(0, k), truth.slice_cols(0, k));
  }
  if (acc.empty()) return {-1.0, -1.0};
  return {acc.mae(), acc.rmse()};
}

EvalResult evaluate_imputation(ForecastModel& model,
                               const data::WindowSampler& sampler,
                               const std::vector<std::size_t>& indices,
                               const std::vector<Matrix>& holdout,
                               const data::ZScoreNormalizer* normalizer,
                               std::size_t max_windows, std::size_t stride) {
  metrics::ErrorAccumulator acc;
  if (holdout.size() != sampler.dataset().num_timesteps()) {
    throw std::invalid_argument(
        "evaluate_imputation: holdout must cover every timestep");
  }
  if (stride == 0) stride = 1;
  std::size_t used = 0;
  for (std::size_t pos = 0; pos < indices.size(); pos += stride) {
    if (max_windows != 0 && used >= max_windows) break;
    const std::size_t idx = indices[pos];
    const data::Window w = sampler.make_window(idx);
    const std::vector<Matrix> imputed = model.impute(w);
    if (imputed.empty()) return {-1.0, -1.0};
    ++used;
    for (std::size_t t = 0; t < imputed.size(); ++t) {
      const Matrix& weight = holdout.at(w.start + t);
      const Matrix pred = denorm_features(imputed[t], normalizer);
      const Matrix truth = denorm_features(w.x_truth[t], normalizer);
      acc.add(pred, truth, weight);
    }
  }
  if (acc.empty()) return {-1.0, -1.0};
  return {acc.mae(), acc.rmse()};
}

std::string model_summary(ForecastModel& model) {
  std::ostringstream os;
  os << "Model: " << model.name() << "\n";
  os << std::left << std::setw(28) << "parameter" << std::setw(12) << "shape"
     << std::right << std::setw(10) << "count" << "\n";
  os << std::string(50, '-') << "\n";
  std::size_t total = 0;
  for (const ad::Parameter* p : model.parameters()) {
    std::ostringstream shape;
    shape << p->value().rows() << "x" << p->value().cols();
    os << std::left << std::setw(28)
       << (p->name().empty() ? "<unnamed>" : p->name()) << std::setw(12)
       << shape.str() << std::right << std::setw(10) << p->size() << "\n";
    total += p->size();
  }
  os << std::string(50, '-') << "\n";
  os << std::left << std::setw(40) << "total" << std::right << std::setw(10)
     << total << "\n";
  return os.str();
}

}  // namespace rihgcn::core
