// One contract suite for every model that runs the recurrent-imputation
// recipe (core/recurrent_imputation.hpp, paper §III-E): RIHGCN, GCN-LSTM-I
// (RihgcnModel on zero temporal graphs), FC-LSTM-I and FC-GCN-I.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/neural.hpp"
#include "core/rihgcn.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "graph/graph.hpp"

namespace rihgcn::core {
namespace {

/// The recipe's switches; the -I baselines expose only lambda and
/// bidirectional (their estimates are always trainable and consistent).
struct Variant {
  double lambda = 1.0;
  bool bidirectional = true;
  bool consistency = true;
  bool trainable = true;
};

class RecurrentImputationTest : public ::testing::TestWithParam<std::string> {
 protected:
  RecurrentImputationTest() {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 6;
    cfg.num_days = 4;
    cfg.steps_per_day = 48;
    cfg.seed = 3;
    ds_ = data::generate_pems_like(cfg);
    Rng rng(4);
    data::inject_mcar(ds_, 0.4, rng);
    const std::size_t train_end = ds_.num_timesteps() * 7 / 10;
    data::ZScoreNormalizer(ds_, train_end).normalize(ds_);
    sampler_ = std::make_unique<data::WindowSampler>(ds_, 6, 3);
    HeteroGraphsConfig gcfg;
    gcfg.partition_slots = 24;
    gcfg.num_temporal_graphs = GetParam() == "RIHGCN" ? 2 : 0;
    graphs_ =
        std::make_unique<HeterogeneousGraphs>(ds_, train_end, gcfg, rng);
    lap_ = graph::scaled_laplacian_from_distances(ds_.geo_distances);
  }

  [[nodiscard]] bool is_rihgcn() const {
    return GetParam() == "RIHGCN" || GetParam() == "GCN-LSTM-I";
  }

  /// Builds the parameterized model with `v`, seeded identically every
  /// call; null if the model has no such switch.
  [[nodiscard]] std::unique_ptr<ForecastModel> make(const Variant& v) const {
    if (is_rihgcn()) {
      RihgcnConfig mc;
      mc.lookback = 6;
      mc.horizon = 3;
      mc.gcn_dim = 5;
      mc.lstm_dim = 7;
      mc.cheb_order = 2;
      mc.lambda = v.lambda;
      mc.bidirectional = v.bidirectional;
      mc.use_consistency = v.consistency;
      mc.trainable_imputation = v.trainable;
      mc.display_name = GetParam();
      return std::make_unique<RihgcnModel>(*graphs_, 6, 4, mc);
    }
    if (!v.consistency || !v.trainable) return nullptr;
    baselines::NeuralBaselineConfig c;
    c.lookback = 6;
    c.horizon = 3;
    c.hidden = 6;
    c.cheb_order = 2;
    c.lambda = v.lambda;
    c.bidirectional = v.bidirectional;
    if (GetParam() == "FC-LSTM-I") {
      return std::make_unique<baselines::FcLstmIModel>(4, c);
    }
    return std::make_unique<baselines::FcGcnIModel>(lap_, 4, c);
  }

  /// Name of the forward (or backward) estimator's weight parameter.
  [[nodiscard]] std::string estimator_weight(bool backward) const {
    if (is_rihgcn()) return backward ? "est_bwd.weight" : "est_fwd.weight";
    const std::string prefix = GetParam() == "FC-LSTM-I" ? "fclstmi" : "fcgcni";
    return prefix + (backward ? ".est_b.weight" : ".est_f.weight");
  }

  [[nodiscard]] static double loss_of(ForecastModel& model,
                                      const data::Window& w) {
    ad::Tape tape;
    return tape.value(model.training_loss(tape, w))(0, 0);
  }

  /// Gradient of the parameter named `name` after one backward pass of the
  /// training loss; fails the test if the model has no such parameter.
  [[nodiscard]] static Matrix grad_of(ForecastModel& model,
                                      const data::Window& w,
                                      const std::string& name) {
    for (ad::Parameter* p : model.parameters()) p->zero_grad();
    ad::Tape tape;
    tape.backward(model.training_loss(tape, w));
    for (ad::Parameter* p : model.parameters()) {
      if (p->name() == name) return p->grad();
    }
    ADD_FAILURE() << "no parameter " << name;
    return Matrix();
  }

  data::TrafficDataset ds_;
  std::unique_ptr<data::WindowSampler> sampler_;
  std::unique_ptr<HeterogeneousGraphs> graphs_;
  Matrix lap_;
};

TEST_P(RecurrentImputationTest, ImputeKeepsObserved) {
  auto model = make({});
  const data::Window w = sampler_->make_window(3);
  const std::vector<Matrix> imputed = model->impute(w);
  ASSERT_EQ(imputed.size(), 6u);
  for (std::size_t t = 0; t < imputed.size(); ++t) {
    ASSERT_TRUE(imputed[t].same_shape(w.x_truth[t]));
    EXPECT_FALSE(imputed[t].has_non_finite());
    for (std::size_t i = 0; i < imputed[t].size(); ++i) {
      if (w.x_mask[t].data()[i] > 0.5) {
        EXPECT_EQ(imputed[t].data()[i], w.x_truth[t].data()[i]);
      }
    }
  }
}

// λ = 0 leaves exactly the prediction term L_c; λ = 1 adds L_m on top.
TEST_P(RecurrentImputationTest, LambdaZeroDropsImputationTerm) {
  const data::Window w = sampler_->make_window(0);
  auto without = make({.lambda = 0.0});
  ad::Tape tape;
  const double prediction_only = tape.value(
      joint_loss(tape, w, tape.constant(without->predict(w))))(0, 0);
  EXPECT_EQ(loss_of(*without, w), prediction_only);
  auto with = make({.lambda = 1.0});
  EXPECT_GT(loss_of(*with, w), prediction_only);
}

// §III-E: X̂ stays trainable, so with no imputation loss at all the forward
// estimator still learns, through the complements of later steps. Detaching
// X̂ (RIHGCN's trainable_imputation = false) cuts exactly that path.
TEST_P(RecurrentImputationTest, DelayedGradientReachesForwardEstimator) {
  const data::Window w = sampler_->make_window(1);
  auto joint = make({.lambda = 0.0});
  EXPECT_GT(grad_of(*joint, w, estimator_weight(false)).abs_max(), 0.0);
  auto detached = make({.lambda = 0.0, .trainable = false});
  if (detached == nullptr) return;  // the -I baselines always train X̂
  EXPECT_EQ(grad_of(*detached, w, estimator_weight(false)).abs_max(), 0.0);
}

TEST_P(RecurrentImputationTest, UnidirectionalRunsOnePassWithoutConsistency) {
  const data::Window w = sampler_->make_window(2);
  auto bi = make({});
  auto uni = make({.bidirectional = false});
  EXPECT_LT(uni->parameters().size(), bi->parameters().size());
  for (ad::Parameter* p : uni->parameters()) {
    EXPECT_NE(p->name(), estimator_weight(true));
  }
  // Only the backward pass estimates the first step.
  EXPECT_EQ(uni->impute(w).front(), w.x_obs.front());
  EXPECT_NE(bi->impute(w).front(), w.x_obs.front());
  // The consistency switch changes the bidirectional loss only.
  auto bi_plain = make({.consistency = false});
  if (bi_plain == nullptr) return;  // the -I baselines always keep the term
  EXPECT_NE(loss_of(*bi_plain, w), loss_of(*bi, w));
  auto uni_plain = make({.bidirectional = false, .consistency = false});
  EXPECT_EQ(loss_of(*uni_plain, w), loss_of(*uni, w));
}

INSTANTIATE_TEST_SUITE_P(AllImputingModels, RecurrentImputationTest,
                         ::testing::Values("RIHGCN", "GCN-LSTM-I", "FC-LSTM-I",
                                           "FC-GCN-I"));

}  // namespace
}  // namespace rihgcn::core
