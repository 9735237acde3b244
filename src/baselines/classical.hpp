// Classical forecasting baselines from the paper's Table I/II:
// Historical Average (HA) and Vector Autoregression (VAR, 3 lags).
// Both wrap the core::ForecastModel interface so the bench harness treats
// every method uniformly; neither has trainable autodiff parameters.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/dataset.hpp"
#include "timeseries/profile.hpp"

namespace rihgcn::baselines {

/// HA: the prediction for a future timestep is the node's historical
/// average at that time-of-day slot, computed from the training prefix.
class HistoricalAverageModel final : public core::ForecastModel {
 public:
  HistoricalAverageModel(const data::TrafficDataset& ds, std::size_t train_end,
                         std::size_t lookback, std::size_t horizon,
                         std::size_t target_feature = 0);

  [[nodiscard]] std::string name() const override { return "HA"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override {
    return {};
  }
  [[nodiscard]] ad::Var training_loss(ad::Tape& tape,
                                      const data::Window& w) override;
  [[nodiscard]] Matrix predict_on(ad::Tape& tape,
                                  const data::Window& w) override;

 private:
  ts::HistoricalProfile profile_;
  std::size_t steps_per_day_;
  std::size_t lookback_;
  std::size_t horizon_;
};

/// VAR(p): each node's next value is a linear function of the last p values
/// of every node (feature 0), fitted with ridge least squares on the
/// zero-filled (== mean-filled after z-scoring) training prefix. Forecasts
/// roll forward recursively over the horizon.
class VarModel final : public core::ForecastModel {
 public:
  VarModel(const data::TrafficDataset& ds, std::size_t train_end,
           std::size_t lookback, std::size_t horizon, std::size_t lags = 3,
           double ridge = 1e-3, std::size_t target_feature = 0);

  [[nodiscard]] std::string name() const override { return "VAR"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override {
    return {};
  }
  [[nodiscard]] ad::Var training_loss(ad::Tape& tape,
                                      const data::Window& w) override;
  [[nodiscard]] Matrix predict_on(ad::Tape& tape,
                                  const data::Window& w) override;

  [[nodiscard]] std::size_t lags() const noexcept { return lags_; }

 private:
  Matrix coef_;  ///< (N*lags + 1) x N
  std::size_t lags_;
  std::size_t lookback_;
  std::size_t horizon_;
  std::size_t target_feature_;
};

}  // namespace rihgcn::baselines
