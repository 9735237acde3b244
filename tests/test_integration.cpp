// End-to-end integration tests: small but real training runs asserting the
// paper's qualitative claims on synthetic data — joint imputation helps
// under missingness, imputation beats naive filling, and the full pipeline
// (generate -> mask -> normalize -> graphs -> train -> evaluate) holds
// together on both dataset families.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/imputers.hpp"
#include "baselines/neural.hpp"
#include "core/rihgcn.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "metrics/metrics.hpp"

namespace rihgcn {
namespace {

struct Pipeline {
  data::TrafficDataset ds;
  std::size_t train_end = 0;
  std::unique_ptr<data::ZScoreNormalizer> normalizer;
  std::unique_ptr<data::WindowSampler> sampler;
  data::SplitIndices split;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  std::vector<Matrix> holdout;

  static Pipeline pems(double missing_rate, std::uint64_t seed) {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 10;
    cfg.num_days = 6;
    cfg.steps_per_day = 96;
    cfg.seed = seed;
    Pipeline p;
    p.ds = data::generate_pems_like(cfg);
    Rng rng(seed + 1);
    data::inject_mcar(p.ds, missing_rate, rng);
    p.holdout = data::make_imputation_holdout(p.ds, 0.15, rng);
    p.finish(rng);
    return p;
  }

  static Pipeline stampede(std::uint64_t seed) {
    data::StampedeLikeConfig cfg;
    cfg.num_days = 6;
    cfg.steps_per_day = 96;
    cfg.seed = seed;
    Pipeline p;
    p.ds = data::generate_stampede_like(cfg);
    Rng rng(seed + 1);
    p.holdout = data::make_imputation_holdout(p.ds, 0.15, rng);
    p.finish(rng);
    return p;
  }

  void finish(Rng& rng) {
    train_end = ds.num_timesteps() * 7 / 10;
    normalizer = std::make_unique<data::ZScoreNormalizer>(ds, train_end);
    normalizer->normalize(ds);
    sampler = std::make_unique<data::WindowSampler>(ds, 8, 4);
    split = sampler->split();
    core::HeteroGraphsConfig gcfg;
    gcfg.num_temporal_graphs = 3;
    graphs = std::make_unique<core::HeterogeneousGraphs>(ds, train_end, gcfg,
                                                         rng);
  }

  core::TrainConfig quick_train() const {
    core::TrainConfig cfg;
    cfg.max_epochs = 5;
    cfg.max_train_windows = 100;
    cfg.max_val_windows = 40;
    return cfg;
  }

  core::RihgcnConfig model_config() const {
    core::RihgcnConfig mc;
    mc.lookback = 8;
    mc.horizon = 4;
    mc.gcn_dim = 8;
    mc.lstm_dim = 12;
    return mc;
  }
};

TEST(Integration, TrainingImprovesRihgcnOnPems) {
  Pipeline p = Pipeline::pems(0.4, 31);
  core::RihgcnModel model(*p.graphs, p.ds.num_nodes(), p.ds.num_features(),
                          p.model_config());
  const core::EvalResult before = core::evaluate_prediction(
      model, *p.sampler, p.split.test, nullptr, 0, 40);
  core::train_model(model, *p.sampler, p.split, p.quick_train());
  const core::EvalResult after = core::evaluate_prediction(
      model, *p.sampler, p.split.test, nullptr, 0, 40);
  EXPECT_LT(after.mae, before.mae);
  EXPECT_LT(after.rmse, before.rmse);
}

TEST(Integration, RihgcnImputationBeatsMeanFill) {
  // Paper RQ2: the learned recurrent imputation must beat naive filling.
  Pipeline p = Pipeline::pems(0.5, 33);
  core::RihgcnModel model(*p.graphs, p.ds.num_nodes(), p.ds.num_features(),
                          p.model_config());
  core::train_model(model, *p.sampler, p.split, p.quick_train());
  const core::EvalResult learned = core::evaluate_imputation(
      model, *p.sampler, p.split.test, p.holdout, p.normalizer.get(), 30);

  // Mean fill in normalized space = 0; evaluate the same held-out cells.
  metrics::ErrorAccumulator zero_fill;
  std::size_t used = 0;
  for (const std::size_t idx : p.split.test) {
    if (used++ >= 30) break;
    const data::Window w = p.sampler->make_window(idx);
    for (std::size_t t = 0; t < w.x_truth.size(); ++t) {
      Matrix zeros(w.x_truth[t].rows(), w.x_truth[t].cols());
      zero_fill.add(p.normalizer->denormalize(zeros),
                    p.normalizer->denormalize(w.x_truth[t]),
                    p.holdout[w.start + t]);
    }
  }
  ASSERT_FALSE(zero_fill.empty());
  EXPECT_LT(learned.mae, zero_fill.mae());
}

TEST(Integration, RihgcnCompetitiveWithMeanFilledBaselineAtHighMissingness) {
  // Paper RQ1 at 60% missing: RIHGCN's imputation-aware training beats the
  // mean-filled GCN-LSTM at paper scale (see bench_table1_missing_rate).
  // At unit-test scale (10 nodes, ~100 windows, 8 epochs) the margin is
  // seed noise, so this test only pins down "same ballpark" — a regression
  // that broke the imputation path would blow this bound immediately.
  Pipeline p = Pipeline::pems(0.6, 35);
  core::RihgcnModel rihgcn(*p.graphs, p.ds.num_nodes(), p.ds.num_features(),
                           p.model_config());
  baselines::NeuralBaselineConfig bcfg;
  bcfg.lookback = 8;
  bcfg.horizon = 4;
  bcfg.hidden = 12;
  baselines::GcnLstmModel baseline(
      p.graphs->geographic_scaled_laplacian_csr(), p.ds.num_features(), bcfg);
  core::TrainConfig tcfg = p.quick_train();
  tcfg.max_epochs = 8;  // RIHGCN has ~4x the parameters; give both a fair run
  core::train_model(rihgcn, *p.sampler, p.split, tcfg);
  core::train_model(baseline, *p.sampler, p.split, tcfg);
  const core::EvalResult r_rihgcn = core::evaluate_prediction(
      rihgcn, *p.sampler, p.split.test, p.normalizer.get(), 0, 50);
  const core::EvalResult r_base = core::evaluate_prediction(
      baseline, *p.sampler, p.split.test, p.normalizer.get(), 0, 50);
  EXPECT_LT(r_rihgcn.mae, r_base.mae * 1.5);
  EXPECT_LT(r_base.mae, r_rihgcn.mae * 1.5);
}

TEST(Integration, StampedePipelineEndToEnd) {
  Pipeline p = Pipeline::stampede(37);
  EXPECT_GT(p.ds.missing_rate(), 0.5);
  core::RihgcnConfig mc = p.model_config();
  core::RihgcnModel model(*p.graphs, p.ds.num_nodes(), p.ds.num_features(),
                          mc);
  const core::TrainReport report =
      core::train_model(model, *p.sampler, p.split, p.quick_train());
  EXPECT_GT(report.epochs_run, 0u);
  const core::EvalResult r = core::evaluate_prediction(
      model, *p.sampler, p.split.test, p.normalizer.get(), 0, 40);
  EXPECT_GT(r.mae, 0.0);
  EXPECT_TRUE(std::isfinite(r.rmse));
  // Sanity: predictions in seconds should be in a plausible range once
  // denormalized (the generator produces ~100-600 s travel times).
  const data::Window w = p.sampler->make_window(p.split.test.front());
  const Matrix pred = model.predict(w);
  const double denormed = p.normalizer->denormalize(pred(0, 0), 0);
  EXPECT_GT(denormed, -200.0);
  EXPECT_LT(denormed, 2000.0);
}

TEST(Integration, ClassicalImputersWorkOnStampedeData) {
  Pipeline p = Pipeline::stampede(39);
  const baselines::LastObservedImputer last;
  std::vector<Matrix> obs;
  obs.reserve(p.ds.num_timesteps());
  for (std::size_t t = 0; t < p.ds.num_timesteps(); ++t) {
    obs.push_back(p.ds.observed(t));
  }
  const auto filled = last.impute(obs, p.ds.mask);
  metrics::ErrorAccumulator acc;
  for (std::size_t t = 0; t < filled.size(); ++t) {
    acc.add(filled[t], p.ds.truth[t], p.holdout[t]);
  }
  ASSERT_FALSE(acc.empty());
  // Last-observed on quasi-periodic travel times: errors bounded (normalized
  // units; ~1 std would be uninformative).
  EXPECT_LT(acc.mae(), 1.5);
}

TEST(Integration, HigherMissingnessHurtsPrediction) {
  // Monotonicity sanity behind Table I's row trend.
  auto run = [](double rate) {
    Pipeline p = Pipeline::pems(rate, 41);
    baselines::NeuralBaselineConfig bcfg;
    bcfg.lookback = 8;
    bcfg.horizon = 4;
    bcfg.hidden = 10;
    baselines::FcLstmIModel model(p.ds.num_features(), bcfg);
    core::train_model(model, *p.sampler, p.split, p.quick_train());
    return core::evaluate_prediction(model, *p.sampler, p.split.test,
                                     nullptr, 0, 40)
        .mae;
  };
  const double low = run(0.2);
  const double high = run(0.8);
  EXPECT_LT(low, high);
}

}  // namespace
}  // namespace rihgcn
