// Quickstart: the smallest complete RIHGCN workflow.
//
//   1. generate a synthetic PeMS-like highway dataset,
//   2. hide 40% of the values (the paper's MCAR protocol),
//   3. build the heterogeneous graphs from the training prefix,
//   4. train RIHGCN for a few epochs,
//   5. report prediction + imputation error against a mean-fill baseline.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "baselines/neural.hpp"
#include "core/rihgcn.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"

using namespace rihgcn;

int main() {
  // ---- 1. Data -------------------------------------------------------------
  data::PemsLikeConfig data_cfg;
  data_cfg.num_nodes = 16;
  data_cfg.num_days = 8;
  data_cfg.steps_per_day = 96;  // 15-minute bins keep the demo fast
  data::TrafficDataset ds = generate_pems_like(data_cfg);
  std::printf("dataset: %zu nodes, %zu timesteps, %zu features\n",
              ds.num_nodes(), ds.num_timesteps(), ds.num_features());

  // ---- 2. Missingness + holdout -------------------------------------------
  Rng rng(1);
  data::inject_mcar(ds, 0.4, rng);
  const std::vector<Matrix> holdout = data::make_imputation_holdout(ds, 0.1, rng);
  std::printf("missing rate after injection: %.1f%%\n",
              100.0 * ds.missing_rate());

  // ---- 3. Normalization, windows, graphs ----------------------------------
  const std::size_t train_end =
      static_cast<std::size_t>(0.7 * static_cast<double>(ds.num_timesteps()));
  const data::ZScoreNormalizer normalizer(ds, train_end);
  normalizer.normalize(ds);
  const data::WindowSampler sampler(ds, /*lookback=*/12, /*horizon=*/6);
  const data::SplitIndices split = sampler.split();

  core::HeteroGraphsConfig graph_cfg;
  graph_cfg.num_temporal_graphs = 4;
  const core::HeterogeneousGraphs graphs(ds, train_end, graph_cfg, rng);
  std::printf("heterogeneous graphs: 1 geographic + %zu temporal\n",
              graphs.num_temporal());

  // ---- 4. Train RIHGCN ------------------------------------------------------
  core::RihgcnConfig model_cfg;
  model_cfg.lookback = 12;
  model_cfg.horizon = 6;
  model_cfg.gcn_dim = 12;
  model_cfg.lstm_dim = 24;
  core::RihgcnModel model(graphs, ds.num_nodes(), ds.num_features(),
                          model_cfg);

  core::TrainConfig train_cfg;
  train_cfg.max_epochs = 6;
  train_cfg.max_train_windows = 160;
  train_cfg.max_val_windows = 60;
  train_cfg.verbose = true;
  const core::TrainReport report =
      core::train_model(model, sampler, split, train_cfg);
  std::printf("trained %zu epochs, best val MAE %.4f (normalized)\n",
              report.epochs_run, report.best_val_mae);

  // ---- 5. Evaluate ------------------------------------------------------------
  const core::EvalResult pred = core::evaluate_prediction(
      model, sampler, split.test, &normalizer, /*horizon_prefix=*/0,
      /*max_windows=*/60);
  std::printf("RIHGCN test prediction:  MAE %.3f mph, RMSE %.3f mph\n",
              pred.mae, pred.rmse);

  const core::EvalResult imp = core::evaluate_imputation(
      model, sampler, split.test, holdout, &normalizer, /*max_windows=*/40);
  std::printf("RIHGCN imputation:       MAE %.3f mph, RMSE %.3f mph\n",
              imp.mae, imp.rmse);

  // Context: an untrained mean-fill GCN-LSTM for comparison.
  baselines::NeuralBaselineConfig base_cfg;
  base_cfg.lookback = 12;
  base_cfg.horizon = 6;
  base_cfg.hidden = 24;
  baselines::GcnLstmModel baseline(graphs.geographic_scaled_laplacian_csr(),
                                   ds.num_features(), base_cfg);
  const core::TrainReport base_report =
      core::train_model(baseline, sampler, split, train_cfg);
  (void)base_report;
  const core::EvalResult base_pred = core::evaluate_prediction(
      baseline, sampler, split.test, &normalizer, 0, 60);
  std::printf("GCN-LSTM (mean-fill):    MAE %.3f mph, RMSE %.3f mph\n",
              base_pred.mae, base_pred.rmse);
  return 0;
}
