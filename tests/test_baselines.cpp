#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/classical.hpp"
#include "baselines/neural.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "graph/graph.hpp"

#include <set>

namespace rihgcn::baselines {
namespace {

struct Fixture {
  data::TrafficDataset ds;
  std::size_t train_end;
  Matrix lap;
  std::unique_ptr<data::WindowSampler> sampler;
  data::SplitIndices split;

  Fixture() {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 6;
    cfg.num_days = 4;
    cfg.steps_per_day = 48;
    cfg.seed = 13;
    ds = data::generate_pems_like(cfg);
    Rng rng(14);
    data::inject_mcar(ds, 0.4, rng);
    train_end = ds.num_timesteps() * 7 / 10;
    const data::ZScoreNormalizer nz(ds, train_end);
    nz.normalize(ds);
    lap = graph::scaled_laplacian_from_distances(ds.geo_distances);
    sampler = std::make_unique<data::WindowSampler>(ds, 6, 3);
    split = sampler->split();
  }

  NeuralBaselineConfig nb_config() const {
    NeuralBaselineConfig c;
    c.lookback = 6;
    c.horizon = 3;
    c.hidden = 6;
    c.cheb_order = 2;
    return c;
  }
};

// ---- Classical -------------------------------------------------------------

TEST(HistoricalAverage, PredictsSlotProfile) {
  Fixture f;
  HistoricalAverageModel ha(f.ds, f.train_end, 6, 3);
  const data::Window w = f.sampler->make_window(10);
  const Matrix pred = ha.predict(w);
  EXPECT_EQ(pred.rows(), 6u);
  EXPECT_EQ(pred.cols(), 3u);
  EXPECT_FALSE(pred.has_non_finite());
  // The prediction for a slot equals the profile value at that slot, so
  // predicting the same slot from different days gives identical values.
  const data::Window w2 = f.sampler->make_window(10 + f.ds.steps_per_day);
  EXPECT_TRUE(allclose(pred, ha.predict(w2), 1e-12));
}

TEST(HistoricalAverage, NoTrainableParameters) {
  Fixture f;
  HistoricalAverageModel ha(f.ds, f.train_end, 6, 3);
  EXPECT_TRUE(ha.parameters().empty());
  ad::Tape tape;
  EXPECT_DOUBLE_EQ(tape.value(ha.training_loss(tape, f.sampler->make_window(0)))(0, 0), 0.0);
}

TEST(Var, RecoversSimpleAutoregressiveStructure) {
  // x_t = 0.8 x_{t-1} + noise on 3 independent nodes: the fitted VAR should
  // forecast a decay toward 0, much better than predicting a constant far
  // off.
  data::TrafficDataset ds;
  ds.name = "ar";
  ds.steps_per_day = 48;
  Rng rng(15);
  Matrix x(3, 1);
  for (std::size_t i = 0; i < 3; ++i) x(i, 0) = rng.normal();
  for (std::size_t t = 0; t < 600; ++t) {
    Matrix next(3, 1);
    for (std::size_t i = 0; i < 3; ++i) {
      next(i, 0) = 0.8 * x(i, 0) + rng.normal(0.0, 0.1);
    }
    ds.truth.push_back(next);
    ds.mask.emplace_back(3, 1, 1.0);
    x = next;
  }
  ds.coords = Matrix(3, 2);
  ds.geo_distances = Matrix(3, 3);
  VarModel var(ds, 500, /*lookback=*/6, /*horizon=*/3, /*lags=*/3);
  const data::WindowSampler sampler(ds, 6, 3);
  const data::Window w = sampler.make_window(520);
  const Matrix pred = var.predict(w);
  // One-step-ahead should be close to 0.8 * last value.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(pred(i, 0), 0.8 * w.x_obs[5](i, 0), 0.25);
  }
}

TEST(Var, ArgumentValidation) {
  Fixture f;
  EXPECT_THROW(VarModel(f.ds, f.train_end, 6, 3, 0), std::invalid_argument);
  EXPECT_THROW(VarModel(f.ds, f.train_end, 2, 3, 3), std::invalid_argument);
  EXPECT_THROW(VarModel(f.ds, 2, 6, 3, 3), std::invalid_argument);
}

// ---- Neural baselines: shared contract ---------------------------------------

std::unique_ptr<core::ForecastModel> make_model(const std::string& kind,
                                                const Fixture& f) {
  const NeuralBaselineConfig c = f.nb_config();
  if (kind == "FC-LSTM") return std::make_unique<FcLstmModel>(4, c);
  if (kind == "FC-GCN") return std::make_unique<FcGcnModel>(f.lap, 4, c);
  if (kind == "GCN-LSTM") return std::make_unique<GcnLstmModel>(f.lap, 4, c);
  if (kind == "FC-LSTM-I") return std::make_unique<FcLstmIModel>(4, c);
  if (kind == "FC-GCN-I") return std::make_unique<FcGcnIModel>(f.lap, 4, c);
  if (kind == "ASTGCN") return std::make_unique<AstGcnModel>(f.lap, 4, c);
  return std::make_unique<GraphWaveNetModel>(6, 4, c);
}

class NeuralBaselineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NeuralBaselineTest, PredictShapeAndName) {
  Fixture f;
  auto model = make_model(GetParam(), f);
  EXPECT_EQ(model->name(), GetParam());
  const Matrix pred = model->predict(f.sampler->make_window(0));
  EXPECT_EQ(pred.rows(), 6u);
  EXPECT_EQ(pred.cols(), 3u);
  EXPECT_FALSE(pred.has_non_finite());
}

TEST_P(NeuralBaselineTest, LossIsFiniteAndBackpropagates) {
  Fixture f;
  auto model = make_model(GetParam(), f);
  for (ad::Parameter* p : model->parameters()) p->zero_grad();
  ad::Tape tape;
  ad::Var loss = model->training_loss(tape, f.sampler->make_window(2));
  EXPECT_TRUE(std::isfinite(tape.value(loss)(0, 0)));
  tape.backward(loss);
  double grad_norm = 0.0;
  for (ad::Parameter* p : model->parameters()) grad_norm += p->grad().norm();
  EXPECT_GT(grad_norm, 0.0);
}

TEST_P(NeuralBaselineTest, ParametersAreUniquePointers) {
  Fixture f;
  auto model = make_model(GetParam(), f);
  auto params = model->parameters();
  std::set<ad::Parameter*> uniq(params.begin(), params.end());
  EXPECT_EQ(uniq.size(), params.size());
  EXPECT_GT(params.size(), 0u);
}

TEST_P(NeuralBaselineTest, FewAdamStepsReduceLoss) {
  Fixture f;
  auto model = make_model(GetParam(), f);
  const data::Window w = f.sampler->make_window(1);
  nn::AdamOptimizer::Config cfg;
  cfg.lr = 5e-3;
  nn::AdamOptimizer opt(model->parameters(), cfg);
  double first = 0.0, last = 0.0;
  for (int it = 0; it < 30; ++it) {
    opt.zero_grad();
    ad::Tape tape;
    ad::Var loss = model->training_loss(tape, w);
    if (it == 0) first = tape.value(loss)(0, 0);
    last = tape.value(loss)(0, 0);
    tape.backward(loss);
    opt.step();
  }
  EXPECT_LT(last, first);
}

// A window one step short, in the inputs or in the targets, is refused by
// name before any model reads past it.
TEST_P(NeuralBaselineTest, RejectsWindowOfWrongLength) {
  Fixture f;
  auto model = make_model(GetParam(), f);
  const data::Window w = f.sampler->make_window(0);
  const auto expect_rejected = [&](const data::Window& bad, bool predict) {
    try {
      ad::Tape tape;
      if (predict) {
        (void)model->predict(bad);
      } else {
        (void)model->training_loss(tape, bad);
      }
      ADD_FAILURE() << "window accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(GetParam() + ": window"),
                std::string::npos)
          << e.what();
    }
  };
  data::Window short_inputs = w;
  short_inputs.x_obs.pop_back();
  short_inputs.x_mask.pop_back();
  expect_rejected(short_inputs, /*predict=*/true);
  expect_rejected(short_inputs, /*predict=*/false);
  data::Window short_targets = w;
  short_targets.y.pop_back();
  short_targets.y_mask.pop_back();
  expect_rejected(short_targets, /*predict=*/false);
}

INSTANTIATE_TEST_SUITE_P(AllModels, NeuralBaselineTest,
                         ::testing::Values("FC-LSTM", "FC-GCN", "GCN-LSTM",
                                           "FC-LSTM-I", "FC-GCN-I", "ASTGCN",
                                           "GraphWaveNet"));

TEST(MeanFilledModels, DoNotImpute) {
  Fixture f;
  auto model = make_model("FC-LSTM", f);
  EXPECT_TRUE(model->impute(f.sampler->make_window(0)).empty());
}

TEST(GraphWaveNet, AdaptiveAdjacencyIsTrainable) {
  Fixture f;
  GraphWaveNetModel model(6, 4, f.nb_config());
  for (ad::Parameter* p : model.parameters()) p->zero_grad();
  ad::Tape tape;
  tape.backward(model.training_loss(tape, f.sampler->make_window(0)));
  bool emb_has_grad = false;
  for (ad::Parameter* p : model.parameters()) {
    if (p->name() == "gwn.emb1" && p->grad().abs_max() > 0.0) {
      emb_has_grad = true;
    }
  }
  EXPECT_TRUE(emb_has_grad);
}

}  // namespace
}  // namespace rihgcn::baselines
