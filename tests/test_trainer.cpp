#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include "baselines/neural.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "graph/graph.hpp"

namespace rihgcn::core {
namespace {

struct Fixture {
  data::TrafficDataset ds;
  Matrix lap;
  std::unique_ptr<data::WindowSampler> sampler;
  data::SplitIndices split;

  Fixture() {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 5;
    cfg.num_days = 5;
    cfg.steps_per_day = 48;
    cfg.seed = 21;
    ds = data::generate_pems_like(cfg);
    Rng rng(22);
    data::inject_mcar(ds, 0.3, rng);
    const std::size_t train_end = ds.num_timesteps() * 7 / 10;
    const data::ZScoreNormalizer nz(ds, train_end);
    nz.normalize(ds);
    lap = graph::scaled_laplacian_from_distances(ds.geo_distances);
    sampler = std::make_unique<data::WindowSampler>(ds, 6, 3);
    split = sampler->split();
  }

  baselines::NeuralBaselineConfig nb_config() const {
    baselines::NeuralBaselineConfig c;
    c.lookback = 6;
    c.horizon = 3;
    c.hidden = 8;
    c.cheb_order = 2;
    return c;
  }
};

TEST(Trainer, ImprovesValidationMae) {
  Fixture f;
  baselines::GcnLstmModel model(f.lap, 4, f.nb_config());
  const EvalResult before =
      evaluate_prediction(model, *f.sampler, f.split.val, nullptr, 0, 40);
  TrainConfig cfg;
  cfg.max_epochs = 5;
  cfg.max_train_windows = 80;
  cfg.max_val_windows = 40;
  const TrainReport report = train_model(model, *f.sampler, f.split, cfg);
  EXPECT_EQ(report.val_maes.size(), report.epochs_run);
  EXPECT_LT(report.best_val_mae, before.mae);
}

TEST(Trainer, TrainLossesRecordedPerEpoch) {
  Fixture f;
  baselines::FcLstmModel model(4, f.nb_config());
  TrainConfig cfg;
  cfg.max_epochs = 3;
  cfg.max_train_windows = 40;
  cfg.max_val_windows = 20;
  const TrainReport report = train_model(model, *f.sampler, f.split, cfg);
  EXPECT_EQ(report.train_losses.size(), 3u);
  EXPECT_EQ(report.epochs_run, 3u);
  for (const double l : report.train_losses) EXPECT_GT(l, 0.0);
}

TEST(Trainer, EarlyStoppingTriggersOnPlateau) {
  // HA-style zero-parameter model can't improve => stop after `patience`.
  Fixture f;
  class FrozenModel final : public ForecastModel {
   public:
    explicit FrozenModel(std::size_t horizon) : horizon_(horizon) {}
    [[nodiscard]] std::string name() const override { return "frozen"; }
    [[nodiscard]] std::vector<ad::Parameter*> parameters() override {
      return {&dummy_};
    }
    [[nodiscard]] ad::Var training_loss(ad::Tape& tape,
                                        const data::Window&) override {
      // Loss independent of the parameter: validation never improves.
      return tape.constant(Matrix(1, 1, 1.0));
    }
    [[nodiscard]] Matrix predict(const data::Window& w) override {
      return Matrix(w.x_obs.front().rows(), horizon_, 0.5);
    }

   private:
    std::size_t horizon_;
    ad::Parameter dummy_{Matrix(1, 1), "dummy"};
  };
  FrozenModel model(3);
  TrainConfig cfg;
  cfg.max_epochs = 50;
  cfg.patience = 3;
  cfg.max_train_windows = 10;
  cfg.max_val_windows = 10;
  const TrainReport report = train_model(model, *f.sampler, f.split, cfg);
  EXPECT_TRUE(report.early_stopped);
  EXPECT_LE(report.epochs_run, 5u);  // 1 best + 3 bad + margin
}

TEST(Trainer, RestoresBestParameters) {
  Fixture f;
  baselines::FcGcnModel model(f.lap, 4, f.nb_config());
  TrainConfig cfg;
  cfg.max_epochs = 6;
  cfg.max_train_windows = 60;
  cfg.max_val_windows = 30;
  cfg.restore_best = true;
  const TrainReport report = train_model(model, *f.sampler, f.split, cfg);
  // After restore, evaluating on the val subsample reproduces ~best MAE.
  // (Same windows: the subsample is deterministic for a given seed.)
  double best = 1e300;
  for (const double v : report.val_maes) best = std::min(best, v);
  EXPECT_NEAR(report.best_val_mae, best, 1e-12);
}

TEST(Trainer, EmptyTrainSplitThrows) {
  Fixture f;
  baselines::FcLstmModel model(4, f.nb_config());
  data::SplitIndices empty;
  TrainConfig cfg;
  EXPECT_THROW((void)train_model(model, *f.sampler, empty, cfg),
               std::invalid_argument);
}

TEST(Trainer, ZeroBatchSizeRejected) {
  Fixture f;
  baselines::FcLstmModel model(4, f.nb_config());
  TrainConfig cfg;
  cfg.batch_size = 0;
  EXPECT_THROW((void)train_model(model, *f.sampler, f.split, cfg),
               std::invalid_argument);
  // Zero epochs is refused the same way, instead of returning a report
  // whose best_val_mae is the early-stopping sentinel.
  cfg = TrainConfig{};
  cfg.max_epochs = 0;
  EXPECT_THROW((void)train_model(model, *f.sampler, f.split, cfg),
               std::invalid_argument);
}

TEST(Trainer, ZeroThreadsRejected) {
  Fixture f;
  baselines::FcLstmModel model(4, f.nb_config());
  TrainConfig cfg;
  cfg.num_threads = 0;
  EXPECT_THROW((void)train_model(model, *f.sampler, f.split, cfg),
               std::invalid_argument);
}

TEST(Trainer, ResumeWithoutCheckpointPathRejected) {
  Fixture f;
  baselines::FcLstmModel model(4, f.nb_config());
  TrainConfig cfg;
  cfg.resume = true;
  EXPECT_THROW((void)train_model(model, *f.sampler, f.split, cfg),
               std::invalid_argument);
}

TEST(Trainer, EmptyValSplitDegradesToFixedEpochs) {
  // No validation data: all epochs run, no early stop, final params kept,
  // val_maes mirror the train loss (documented in trainer.hpp).
  Fixture f;
  baselines::FcLstmModel model(4, f.nb_config());
  data::SplitIndices split = f.split;
  split.val.clear();
  TrainConfig cfg;
  cfg.max_epochs = 3;
  cfg.patience = 1;  // would stop instantly if early stopping were active
  cfg.max_train_windows = 24;
  const TrainReport report = train_model(model, *f.sampler, split, cfg);
  EXPECT_EQ(report.epochs_run, 3u);
  EXPECT_FALSE(report.early_stopped);
  ASSERT_EQ(report.val_maes.size(), 3u);
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(report.val_maes[e], report.train_losses[e]);
  }
  EXPECT_EQ(report.best_val_mae, report.train_losses.back());
}

TEST(Trainer, SubsampleCapsRespected) {
  Fixture f;
  baselines::FcLstmModel model(4, f.nb_config());
  TrainConfig cfg;
  cfg.max_epochs = 1;
  cfg.max_train_windows = 8;
  cfg.batch_size = 4;
  cfg.max_val_windows = 5;
  const TrainReport report = train_model(model, *f.sampler, f.split, cfg);
  EXPECT_EQ(report.epochs_run, 1u);  // and it completes quickly
}

// ---- Evaluation helpers ---------------------------------------------------

TEST(Evaluate, PredictionErrorsOfPerfectModelAreZero) {
  Fixture f;
  class OracleModel final : public ForecastModel {
   public:
    explicit OracleModel(std::size_t horizon) : horizon_(horizon) {}
    [[nodiscard]] std::string name() const override { return "oracle"; }
    [[nodiscard]] std::vector<ad::Parameter*> parameters() override {
      return {};
    }
    [[nodiscard]] ad::Var training_loss(ad::Tape& tape,
                                        const data::Window&) override {
      return tape.constant(Matrix(1, 1));
    }
    [[nodiscard]] Matrix predict(const data::Window& w) override {
      Matrix out(w.y.front().rows(), horizon_);
      for (std::size_t t = 0; t < horizon_; ++t) out.set_cols(t, w.y[t]);
      return out;
    }

   private:
    std::size_t horizon_;
  };
  OracleModel oracle(3);
  const EvalResult r =
      evaluate_prediction(oracle, *f.sampler, f.split.test, nullptr);
  EXPECT_DOUBLE_EQ(r.mae, 0.0);
  EXPECT_DOUBLE_EQ(r.rmse, 0.0);
}

TEST(Evaluate, HorizonPrefixRestricts) {
  Fixture f;
  class StepwiseModel final : public ForecastModel {
   public:
    [[nodiscard]] std::string name() const override { return "step"; }
    [[nodiscard]] std::vector<ad::Parameter*> parameters() override {
      return {};
    }
    [[nodiscard]] ad::Var training_loss(ad::Tape& tape,
                                        const data::Window&) override {
      return tape.constant(Matrix(1, 1));
    }
    [[nodiscard]] Matrix predict(const data::Window& w) override {
      // Perfect at step 0, off by 1 at later steps.
      Matrix out(w.y.front().rows(), 3);
      for (std::size_t t = 0; t < 3; ++t) {
        Matrix col = w.y[t];
        if (t > 0) col.apply([](double v) { return v + 1.0; });
        out.set_cols(t, col);
      }
      return out;
    }
  };
  StepwiseModel model;
  const EvalResult first =
      evaluate_prediction(model, *f.sampler, f.split.test, nullptr, 1);
  const EvalResult all =
      evaluate_prediction(model, *f.sampler, f.split.test, nullptr, 0);
  EXPECT_DOUBLE_EQ(first.mae, 0.0);
  EXPECT_NEAR(all.mae, 2.0 / 3.0, 1e-12);
}

TEST(Evaluate, ImputationReturnsMinusOneForNonImputingModel) {
  Fixture f;
  baselines::FcLstmModel model(4, f.nb_config());
  const std::vector<Matrix> holdout(f.ds.num_timesteps(),
                                    Matrix(5, 4, 0.0));
  const EvalResult r = evaluate_imputation(model, *f.sampler, f.split.test,
                                           holdout, nullptr);
  EXPECT_EQ(r.mae, -1.0);
}

TEST(Evaluate, EmptyIndicesGiveMinusOne) {
  Fixture f;
  baselines::FcLstmModel model(4, f.nb_config());
  const EvalResult r =
      evaluate_prediction(model, *f.sampler, {}, nullptr);
  EXPECT_EQ(r.mae, -1.0);
}

}  // namespace
}  // namespace rihgcn::core
