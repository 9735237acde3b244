// The common interface every trainable forecaster implements (RIHGCN and all
// neural baselines), plus evaluation helpers shared by tests, examples and
// the bench harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "autodiff/tape.hpp"
#include "data/dataset.hpp"
#include "data/windows.hpp"
#include "metrics/metrics.hpp"

namespace rihgcn::core {

/// A model that predicts the target feature over the horizon from a
/// lookback window with missing values.
class ForecastModel {
 public:
  virtual ~ForecastModel() = default;
  ForecastModel() = default;
  ForecastModel(const ForecastModel&) = delete;
  ForecastModel& operator=(const ForecastModel&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Trainable parameters (empty for classical baselines wrapped in this
  /// interface).
  [[nodiscard]] virtual std::vector<ad::Parameter*> parameters() = 0;

  /// Build the full training loss for one window on the given tape.
  /// Returns a scalar Var suitable for Tape::backward().
  [[nodiscard]] virtual ad::Var training_loss(ad::Tape& tape,
                                              const data::Window& w) = 0;

  /// Predict the target feature: N x horizon matrix in the dataset's
  /// (normalized) units.
  [[nodiscard]] virtual Matrix predict(const data::Window& w) = 0;

  /// Reconstructed lookback values (complement matrices X̃_t), one N x D
  /// matrix per lookback step — used for imputation evaluation. Models with
  /// no imputation mechanism return an empty vector.
  [[nodiscard]] virtual std::vector<Matrix> impute(const data::Window& w) {
    (void)w;
    return {};
  }
};

/// Optional capability for partitioned (Cluster-GCN-style) training
/// (DESIGN.md §13): the model cuts its graph into C node clusters and
/// exposes a per-(window, cluster) training loss over each cluster's
/// sub-graph. Halo (1-hop boundary) nodes propagate features into the
/// cluster but carry zero loss weight, so every gradient belongs to exactly
/// one cluster. The trainer detects this interface with dynamic_cast when
/// TrainConfig::num_clusters > 1.
class ClusterTrainable {
 public:
  virtual ~ClusterTrainable() = default;

  /// Build the cluster decomposition: `num_clusters` clusters grown by a
  /// deterministic seeded partition. Called once before training; calling
  /// again replaces the decomposition. num_clusters <= 1 clears it.
  virtual void prepare_clusters(std::size_t num_clusters,
                                std::uint64_t seed) = 0;
  /// Clusters currently prepared (0 = full-graph mode).
  [[nodiscard]] virtual std::size_t num_clusters() const = 0;
  /// Training loss of one (window, cluster) mini-batch item: the model's
  /// full loss restricted to the cluster's owned nodes.
  [[nodiscard]] virtual ad::Var cluster_training_loss(ad::Tape& tape,
                                                      const data::Window& w,
                                                      std::size_t cluster) = 0;
};

/// Prediction metrics over a set of windows. If `normalizer` is non-null
/// the errors are computed in original units (the paper reports mph /
/// seconds). `horizon_prefix` restricts to the first k horizon steps
/// (0 = full horizon) — this is how the "15 min / 30 min / ..." columns of
/// Tables I-II are produced. Errors are measured against ground truth.
struct EvalResult {
  double mae = 0.0;
  double rmse = 0.0;
};

[[nodiscard]] EvalResult evaluate_prediction(
    ForecastModel& model, const data::WindowSampler& sampler,
    const std::vector<std::size_t>& indices,
    const data::ZScoreNormalizer* normalizer, std::size_t horizon_prefix = 0,
    std::size_t max_windows = 0);

/// Imputation metrics on held-out entries. `holdout[t]` marks entries that
/// were observed in reality but hidden from the model
/// (data::make_imputation_holdout). Models that cannot impute yield
/// an empty optional-like result: mae/rmse = -1.
[[nodiscard]] EvalResult evaluate_imputation(
    ForecastModel& model, const data::WindowSampler& sampler,
    const std::vector<std::size_t>& indices,
    const std::vector<Matrix>& holdout,
    const data::ZScoreNormalizer* normalizer, std::size_t max_windows = 0,
    std::size_t stride = 1);

/// Human-readable parameter inventory of a model (name, shape, count),
/// ending with the total — the "model summary" every DL framework grows.
[[nodiscard]] std::string model_summary(ForecastModel& model);

}  // namespace rihgcn::core
