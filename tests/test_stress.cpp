// Stress and cross-validation tests:
//  * fuzzed autodiff DAGs checked against numerical differentiation,
//  * DTW dynamic program cross-checked against the exponential recursive
//    definition on tiny series,
//  * the air-quality generator (the conclusion's generalization claim),
//  * end-to-end determinism of the full training pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "baselines/neural.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "graph/graph.hpp"
#include "tensor/rng.hpp"
#include "timeseries/distance.hpp"

namespace rihgcn {
namespace {

// ---- Autodiff fuzzing -------------------------------------------------------

/// Build a random DAG of tape ops over two parameters and return the scalar
/// loss. The op sequence is driven by `rng`, so each seed is a distinct
/// program; re-running with the same seed rebuilds the identical graph.
ad::Var random_graph(ad::Tape& tape, std::vector<ad::Var> pool, Rng rng,
                     std::size_t depth) {
  for (std::size_t step = 0; step < depth; ++step) {
    const std::size_t a = rng.uniform_index(pool.size());
    const std::size_t b = rng.uniform_index(pool.size());
    ad::Var va = pool[a];
    ad::Var vb = pool[b];
    switch (rng.uniform_index(7)) {
      case 0:
        pool.push_back(tape.add(va, vb));
        break;
      case 1:
        pool.push_back(tape.sub(va, vb));
        break;
      case 2:
        pool.push_back(tape.mul(va, vb));
        break;
      case 3:
        pool.push_back(tape.tanh(va));
        break;
      case 4:
        pool.push_back(tape.sigmoid(va));
        break;
      case 5:
        pool.push_back(tape.scale(va, rng.uniform(-2.0, 2.0)));
        break;
      default:
        pool.push_back(tape.add_scalar(va, rng.uniform(-1.0, 1.0)));
        break;
    }
  }
  ad::Var acc = pool.front();
  for (std::size_t i = 1; i < pool.size(); ++i) acc = tape.add(acc, pool[i]);
  return tape.mean_all(acc);
}

class AutodiffFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AutodiffFuzzTest, RandomGraphGradientsMatchNumeric) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng init(seed);
  std::vector<ad::Parameter> params;
  params.emplace_back(init.normal_matrix(2, 3, 0.5), "a");
  params.emplace_back(init.normal_matrix(2, 3, 0.5), "b");
  auto build = [&](ad::Tape& tape) {
    std::vector<ad::Var> pool{tape.leaf(params[0]), tape.leaf(params[1])};
    return random_graph(tape, std::move(pool), Rng(seed * 31 + 1), 12);
  };
  for (auto& p : params) p.zero_grad();
  {
    ad::Tape tape;
    tape.backward(build(tape));
  }
  auto loss_value = [&] {
    ad::Tape tape;
    return tape.value(build(tape))(0, 0);
  };
  for (auto& p : params) {
    EXPECT_LT(ad::gradient_check(p, loss_value, p.grad(), 1e-6), 1e-4)
        << "fuzz seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutodiffFuzzTest,
                         ::testing::Range(1, 13));  // 12 random programs

TEST(AutodiffStress, VeryDeepChainStaysStable) {
  ad::Parameter w(Matrix{{0.9}}, "w");
  ad::Tape tape;
  ad::Var x = tape.leaf(w);
  for (int i = 0; i < 500; ++i) x = tape.tanh(x);
  ad::Var loss = tape.mean_all(x);
  tape.backward(loss);
  EXPECT_TRUE(std::isfinite(w.grad()(0, 0)));
  EXPECT_GE(tape.num_nodes(), 500u);
}

// ---- DTW brute-force cross-check --------------------------------------------

/// Exponential-time recursive DTW straight from the definition.
double dtw_brute(std::span<const double> a, std::span<const double> b,
                 std::size_t i, std::size_t j) {
  const double cost = std::abs(a[i] - b[j]);
  if (i == 0 && j == 0) return cost;
  double best = 1e300;
  if (i > 0) best = std::min(best, dtw_brute(a, b, i - 1, j));
  if (j > 0) best = std::min(best, dtw_brute(a, b, i, j - 1));
  if (i > 0 && j > 0) best = std::min(best, dtw_brute(a, b, i - 1, j - 1));
  return cost + best;
}

TEST(DtwCrossCheck, MatchesRecursiveDefinitionOnTinySeries) {
  Rng rng(2);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(6);
    const std::size_t m = 1 + rng.uniform_index(6);
    std::vector<double> a(n), b(m);
    for (auto& x : a) x = rng.normal();
    for (auto& x : b) x = rng.normal();
    EXPECT_NEAR(ts::dtw(a, b), dtw_brute(a, b, n - 1, m - 1), 1e-12);
  }
}

// ---- Air-quality generator --------------------------------------------------

data::AirQualityConfig small_aq() {
  data::AirQualityConfig cfg;
  cfg.num_stations = 12;
  cfg.num_days = 14;
  cfg.seed = 3;
  return cfg;
}

TEST(AirQuality, ShapesAndRanges) {
  const data::TrafficDataset ds = data::generate_air_quality_like(small_aq());
  EXPECT_EQ(ds.num_nodes(), 12u);
  EXPECT_EQ(ds.num_features(), 2u);
  EXPECT_EQ(ds.num_timesteps(), 14u * 24u);
  for (const Matrix& x : ds.truth) {
    EXPECT_GE(x.min(), 2.0);
    EXPECT_LT(x.max(), 500.0);
  }
  EXPECT_DOUBLE_EQ(ds.missing_rate(), 0.0);
}

TEST(AirQuality, Pm10TracksPm25) {
  const data::TrafficDataset ds = data::generate_air_quality_like(small_aq());
  double corr = 0.0, v1 = 0.0, v2 = 0.0, m1 = 0.0, m2 = 0.0;
  const std::size_t samples = ds.num_timesteps();
  for (std::size_t t = 0; t < samples; ++t) {
    m1 += ds.truth[t](0, 0);
    m2 += ds.truth[t](0, 1);
  }
  m1 /= static_cast<double>(samples);
  m2 /= static_cast<double>(samples);
  for (std::size_t t = 0; t < samples; ++t) {
    const double a = ds.truth[t](0, 0) - m1;
    const double b = ds.truth[t](0, 1) - m2;
    corr += a * b;
    v1 += a * a;
    v2 += b * b;
  }
  EXPECT_GT(corr / std::sqrt(v1 * v2), 0.85);
}

TEST(AirQuality, MorningPeakExists) {
  const data::TrafficDataset ds = data::generate_air_quality_like(small_aq());
  double peak = 0.0, pre_dawn = 0.0;
  for (std::size_t day = 0; day < 5; ++day) {  // weekdays
    for (std::size_t i = 0; i < ds.num_nodes(); ++i) {
      peak += ds.truth[day * 24 + 8](i, 0);
      pre_dawn += ds.truth[day * 24 + 4](i, 0);
    }
  }
  EXPECT_GT(peak, pre_dawn);
}

TEST(AirQuality, EpisodesRaiseMultiDayAverages) {
  // With vs without episodes: long-window maxima must differ notably.
  data::AirQualityConfig with = small_aq();
  data::AirQualityConfig without = small_aq();
  without.episodes = 0.0;
  const auto ds_with = data::generate_air_quality_like(with);
  const auto ds_without = data::generate_air_quality_like(without);
  double max_with = 0.0, max_without = 0.0;
  for (std::size_t t = 0; t < ds_with.num_timesteps(); ++t) {
    max_with = std::max(max_with, ds_with.truth[t].col_mean()(0, 0));
    max_without = std::max(max_without, ds_without.truth[t].col_mean()(0, 0));
  }
  EXPECT_GT(max_with, max_without + 5.0);
}

TEST(AirQuality, TrainableEndToEnd) {
  // The conclusion's generalization claim: the same pipeline handles AQ
  // data with missing values.
  data::TrafficDataset ds = data::generate_air_quality_like(small_aq());
  Rng rng(4);
  data::inject_mcar_readings(ds, 0.4, rng);
  const std::size_t train_end = ds.num_timesteps() * 7 / 10;
  const data::ZScoreNormalizer nz(ds, train_end);
  nz.normalize(ds);
  const data::WindowSampler sampler(ds, 8, 4);
  const data::SplitIndices split = sampler.split();
  const CsrMatrix lap =
      graph::scaled_laplacian_from_distances(ds.geo_distances);
  baselines::NeuralBaselineConfig cfg;
  cfg.lookback = 8;
  cfg.horizon = 4;
  cfg.hidden = 8;
  baselines::FcGcnIModel model(lap, ds.num_features(), cfg);
  core::TrainConfig tc;
  tc.max_epochs = 4;
  tc.max_train_windows = 60;
  tc.max_val_windows = 24;
  const core::EvalResult before =
      core::evaluate_prediction(model, sampler, split.test, nullptr, 0, 30);
  core::train_model(model, sampler, split, tc);
  const core::EvalResult after =
      core::evaluate_prediction(model, sampler, split.test, nullptr, 0, 30);
  EXPECT_LT(after.mae, before.mae);
}

// ---- Determinism ------------------------------------------------------------

TEST(Determinism, FullPipelineReproducesExactly) {
  auto run = [] {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 5;
    cfg.num_days = 3;
    cfg.steps_per_day = 48;
    cfg.seed = 77;
    data::TrafficDataset ds = data::generate_pems_like(cfg);
    Rng rng(78);
    data::inject_mcar(ds, 0.4, rng);
    const std::size_t train_end = ds.num_timesteps() * 7 / 10;
    const data::ZScoreNormalizer nz(ds, train_end);
    nz.normalize(ds);
    const data::WindowSampler sampler(ds, 6, 3);
    const CsrMatrix lap =
        graph::scaled_laplacian_from_distances(ds.geo_distances);
    baselines::NeuralBaselineConfig bcfg;
    bcfg.lookback = 6;
    bcfg.horizon = 3;
    bcfg.hidden = 6;
    bcfg.seed = 99;
    baselines::GcnLstmModel model(lap, 4, bcfg);
    core::TrainConfig tc;
    tc.max_epochs = 2;
    tc.max_train_windows = 20;
    tc.max_val_windows = 10;
    tc.seed = 5;
    core::train_model(model, sampler, sampler.split(), tc);
    return model.predict(sampler.make_window(40));
  };
  const Matrix a = run();
  const Matrix b = run();
  EXPECT_TRUE(allclose(a, b, 0.0));  // bit-identical
}

}  // namespace
}  // namespace rihgcn
