#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "nn/optim.hpp"
#include "tensor/parallel.hpp"

namespace rihgcn::core {
namespace {

struct Fixture {
  data::TrafficDataset ds;
  std::size_t train_end;
  std::unique_ptr<data::WindowSampler> sampler;
  std::unique_ptr<HeterogeneousGraphs> graphs;

  explicit Fixture(std::size_t m_graphs = 2, double missing = 0.4) {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 6;
    cfg.num_days = 4;
    cfg.steps_per_day = 48;  // 30-min bins keep everything tiny
    cfg.seed = 3;
    ds = data::generate_pems_like(cfg);
    Rng rng(4);
    data::inject_mcar(ds, missing, rng);
    train_end = ds.num_timesteps() * 7 / 10;
    const data::ZScoreNormalizer nz(ds, train_end);
    nz.normalize(ds);
    sampler = std::make_unique<data::WindowSampler>(ds, 6, 3);
    HeteroGraphsConfig gcfg;
    gcfg.num_temporal_graphs = m_graphs;
    gcfg.partition_slots = 24;
    graphs = std::make_unique<HeterogeneousGraphs>(ds, train_end, gcfg, rng);
  }

  RihgcnConfig model_config() const {
    RihgcnConfig mc;
    mc.lookback = 6;
    mc.horizon = 3;
    mc.gcn_dim = 5;
    mc.lstm_dim = 7;
    mc.cheb_order = 2;
    return mc;
  }
};

// ---- HeterogeneousGraphs ------------------------------------------------------

TEST(HeteroGraphs, BuildsRequestedTemporalGraphs) {
  Fixture f(3);
  EXPECT_EQ(f.graphs->num_temporal(), 3u);
  EXPECT_EQ(f.graphs->num_nodes(), 6u);
  EXPECT_EQ(f.graphs->partition().num_intervals(), 3u);
}

TEST(HeteroGraphs, ZeroTemporalGraphsIsGeoOnly) {
  Fixture f(0);
  EXPECT_EQ(f.graphs->num_temporal(), 0u);
  EXPECT_EQ(f.graphs->geographic().num_nodes(), 6u);
}

TEST(HeteroGraphs, TemporalGraphsDifferFromGeographic) {
  Fixture f(2);
  // DTW-based adjacency should generally differ from road-distance adjacency.
  bool any_diff = false;
  for (std::size_t m = 0; m < f.graphs->num_temporal(); ++m) {
    if (!allclose(f.graphs->temporal(m).adjacency(),
                  f.graphs->geographic().adjacency(), 1e-6)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(HeteroGraphs, IntervalWeightsFormDistribution) {
  Fixture f(4);
  for (const std::size_t slot : {0u, 10u, 24u, 47u}) {
    const auto w = f.graphs->interval_weights(slot);
    ASSERT_EQ(w.size(), f.graphs->num_temporal());
    double sum = 0.0;
    for (const double x : w) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(HeteroGraphs, ContainingIntervalDominates) {
  Fixture f(4);
  // A slot inside interval m gets zero time distance => the largest weight.
  const auto& part = f.graphs->partition();
  const std::size_t spd = f.ds.steps_per_day;
  const std::size_t pslots = 24;
  for (std::size_t m = 0; m < part.num_intervals(); ++m) {
    const auto [c0, c1] = part.slot_range(m);
    const std::size_t mid_coarse = (c0 + c1) / 2;
    const std::size_t fine_slot = mid_coarse * spd / pslots;
    const auto w = f.graphs->interval_weights(fine_slot);
    for (std::size_t other = 0; other < w.size(); ++other) {
      EXPECT_GE(w[m], w[other] - 1e-12);
    }
  }
}

TEST(HeteroGraphs, BadArgsThrow) {
  Fixture f(1);
  HeteroGraphsConfig cfg;
  Rng rng(1);
  EXPECT_THROW(HeterogeneousGraphs(f.ds, 0, cfg, rng), std::invalid_argument);
  cfg.partition_slots = 0;
  EXPECT_THROW(HeterogeneousGraphs(f.ds, f.train_end, cfg, rng),
               std::invalid_argument);
}

TEST(HeteroGraphs, DenseModeCsrAccessorsMatchFromDense) {
  // Dense-mode graphs answer the CSR accessors with the tol-0 CSR of the
  // matrices they built: the one form every GCN consumes.
  Fixture f(2);
  const HeterogeneousGraphs& g = *f.graphs;
  ASSERT_FALSE(g.sparse_mode());
  const auto expect_csr_of = [](const CsrMatrix& got, const Matrix& dense) {
    const CsrMatrix want = CsrMatrix::from_dense(dense);
    EXPECT_EQ(got.rows(), dense.rows());
    EXPECT_EQ(got.row_ptr(), want.row_ptr());
    EXPECT_EQ(got.col_idx(), want.col_idx());
    EXPECT_EQ(got.values(), want.values());
  };
  expect_csr_of(g.geographic_adjacency_csr(), g.geographic().adjacency());
  expect_csr_of(g.geographic_scaled_laplacian_csr(),
                g.geographic().scaled_laplacian());
  ASSERT_EQ(g.num_temporal(), 2u);
  for (std::size_t m = 0; m < g.num_temporal(); ++m) {
    expect_csr_of(g.temporal_scaled_laplacian_csr(m),
                  g.temporal(m).scaled_laplacian());
  }
  EXPECT_THROW((void)g.temporal_scaled_laplacian_csr(2), std::out_of_range);
}

// ---- HgcnBlock ------------------------------------------------------------------

TEST(HgcnBlock, OutputShapeAndMixing) {
  Fixture f(2);
  Rng rng(5);
  HgcnBlock block(*f.graphs, 4, 8, 2, rng);
  const HgcnBlock::Laps laps = block.make_laps();
  ad::Tape tape;
  ad::Var x = tape.constant(Matrix(6, 4, 0.3));
  ad::Var y = block.forward(tape, x, /*slot=*/10, laps);
  EXPECT_EQ(tape.value(y).rows(), 6u);
  EXPECT_EQ(tape.value(y).cols(), 8u);
  // Different slots weight the temporal GCNs differently => outputs differ.
  ad::Var y2 = block.forward(tape, x, /*slot=*/40, laps);
  EXPECT_FALSE(allclose(tape.value(y), tape.value(y2), 1e-9));
}

TEST(HgcnBlock, ParameterCountScalesWithGraphs) {
  Fixture f2(2), f4(4);
  Rng rng(6);
  HgcnBlock b2(*f2.graphs, 4, 8, 2, rng);
  HgcnBlock b4(*f4.graphs, 4, 8, 2, rng);
  EXPECT_GT(b4.num_parameters(), b2.num_parameters());
  // geo + M temporal layers, each with K theta matrices + bias.
  EXPECT_EQ(b2.parameters().size(), (2u + 1u) * 3u);
}

TEST(HgcnBlock, GradientFlowsThroughAllLayers) {
  Fixture f(2);
  Rng rng(7);
  HgcnBlock block(*f.graphs, 4, 3, 2, rng);
  const HgcnBlock::Laps laps = block.make_laps();
  for (ad::Parameter* p : block.parameters()) p->zero_grad();
  ad::Tape tape;
  ad::Var x = tape.constant(Rng(8).normal_matrix(6, 4, 1.0));
  ad::Var loss = tape.mean_all(block.forward(tape, x, 5, laps));
  tape.backward(loss);
  // Every layer participates for an in-interval slot (weights > 0).
  std::size_t touched = 0;
  for (ad::Parameter* p : block.parameters()) {
    if (p->grad().abs_max() > 0.0) ++touched;
  }
  EXPECT_GT(touched, block.parameters().size() / 2);
}

// ---- RihgcnModel ----------------------------------------------------------------

TEST(Rihgcn, PredictShape) {
  Fixture f;
  RihgcnModel model(*f.graphs, 6, 4, f.model_config());
  const data::Window w = f.sampler->make_window(0);
  const Matrix pred = model.predict(w);
  EXPECT_EQ(pred.rows(), 6u);
  EXPECT_EQ(pred.cols(), 3u);
  EXPECT_FALSE(pred.has_non_finite());
}

TEST(Rihgcn, TrainingLossFiniteAndPositive) {
  Fixture f;
  RihgcnModel model(*f.graphs, 6, 4, f.model_config());
  ad::Tape tape;
  ad::Var loss = model.training_loss(tape, f.sampler->make_window(3));
  EXPECT_TRUE(std::isfinite(tape.value(loss)(0, 0)));
  EXPECT_GT(tape.value(loss)(0, 0), 0.0);
}

TEST(Rihgcn, ImputePreservesObservedEntries) {
  Fixture f;
  RihgcnModel model(*f.graphs, 6, 4, f.model_config());
  const data::Window w = f.sampler->make_window(5);
  const auto imputed = model.impute(w);
  ASSERT_EQ(imputed.size(), 6u);
  for (std::size_t t = 0; t < imputed.size(); ++t) {
    for (std::size_t i = 0; i < imputed[t].size(); ++i) {
      if (w.x_mask[t].data()[i] > 0.5) {
        EXPECT_DOUBLE_EQ(imputed[t].data()[i], w.x_truth[t].data()[i]);
      }
    }
  }
}

TEST(Rihgcn, GradientCheckEndToEnd) {
  // Full RIHGCN training loss vs numeric differentiation on a few params —
  // this exercises recurrent imputation, HGCN, LSTM, the head and both loss
  // terms at once.
  Fixture f;
  RihgcnConfig mc = f.model_config();
  mc.gcn_dim = 3;
  mc.lstm_dim = 3;
  RihgcnModel model(*f.graphs, 6, 4, mc);
  const data::Window w = f.sampler->make_window(2);
  auto params = model.parameters();
  for (ad::Parameter* p : params) p->zero_grad();
  {
    ad::Tape tape;
    tape.backward(model.training_loss(tape, w));
  }
  auto loss_value = [&] {
    ad::Tape tape;
    return tape.value(model.training_loss(tape, w))(0, 0);
  };
  // Check a few representative parameters (full sweep would be slow).
  std::size_t checked = 0;
  for (ad::Parameter* p : params) {
    if (p->name() == "hgcn.geo.theta0" || p->name() == "lstm_fwd.w_ih" ||
        p->name() == "est_bwd.weight" || p->name() == "head.bias") {
      EXPECT_LT(ad::gradient_check(*p, loss_value, p->grad(), 1e-6), 2e-4)
          << p->name();
      ++checked;
    }
  }
  EXPECT_EQ(checked, 4u);
}

TEST(Rihgcn, DetachedImputationChangesGradients) {
  // With trainable_imputation=false the delayed-gradient path through the
  // complement is cut; estimator gradients must differ.
  Fixture f;
  RihgcnConfig joint_cfg = f.model_config();
  RihgcnConfig detached_cfg = f.model_config();
  detached_cfg.trainable_imputation = false;
  RihgcnModel joint(*f.graphs, 6, 4, joint_cfg);
  RihgcnModel detached(*f.graphs, 6, 4, detached_cfg);
  const data::Window w = f.sampler->make_window(1);
  auto grad_of = [&w](RihgcnModel& m) {
    for (ad::Parameter* p : m.parameters()) p->zero_grad();
    ad::Tape tape;
    tape.backward(m.training_loss(tape, w));
    for (ad::Parameter* p : m.parameters()) {
      if (p->name() == "est_fwd.weight") return p->grad();
    }
    return Matrix();
  };
  const Matrix g_joint = grad_of(joint);
  const Matrix g_detached = grad_of(detached);
  // Same init (same seed) => any difference comes from the cut path.
  EXPECT_FALSE(allclose(g_joint, g_detached, 1e-12));
}

TEST(Rihgcn, UnidirectionalHasFewerParameters) {
  Fixture f;
  RihgcnConfig bi = f.model_config();
  RihgcnConfig uni = f.model_config();
  uni.bidirectional = false;
  RihgcnModel m_bi(*f.graphs, 6, 4, bi);
  RihgcnModel m_uni(*f.graphs, 6, 4, uni);
  EXPECT_GT(m_bi.parameters().size(), m_uni.parameters().size());
  // Both still produce valid predictions.
  const data::Window w = f.sampler->make_window(0);
  EXPECT_FALSE(m_uni.predict(w).has_non_finite());
}

TEST(Rihgcn, AttentionHeadWorks) {
  Fixture f;
  RihgcnConfig mc = f.model_config();
  mc.head = RihgcnConfig::Head::kAttention;
  RihgcnModel model(*f.graphs, 6, 4, mc);
  const data::Window w = f.sampler->make_window(0);
  const Matrix pred = model.predict(w);
  EXPECT_EQ(pred.cols(), 3u);
  EXPECT_FALSE(pred.has_non_finite());
}

TEST(Rihgcn, LambdaZeroDropsImputationLoss) {
  Fixture f;
  RihgcnConfig with = f.model_config();
  RihgcnConfig without = f.model_config();
  without.lambda = 0.0;
  RihgcnModel m1(*f.graphs, 6, 4, with);
  RihgcnModel m2(*f.graphs, 6, 4, without);
  const data::Window w = f.sampler->make_window(0);
  ad::Tape t1, t2;
  const double l1 = t1.value(m1.training_loss(t1, w))(0, 0);
  const double l2 = t2.value(m2.training_loss(t2, w))(0, 0);
  EXPECT_GT(l1, l2);  // imputation term adds on top
}

TEST(Rihgcn, DisplayNameOverride) {
  Fixture f(0);
  RihgcnConfig mc = f.model_config();
  mc.display_name = "GCN-LSTM-I";
  RihgcnModel model(*f.graphs, 6, 4, mc);
  EXPECT_EQ(model.name(), "GCN-LSTM-I");
}

TEST(Rihgcn, NodeCountMismatchThrows) {
  Fixture f;
  EXPECT_THROW(RihgcnModel(*f.graphs, 7, 4, f.model_config()),
               std::invalid_argument);
  // Zero sizes are refused by RihgcnModel itself, before any module (whose
  // own checks would name Linear or build an empty HGCN) is constructed.
  const auto expect_rejected = [&f](RihgcnConfig mc) {
    try {
      RihgcnModel model(*f.graphs, 6, 4, mc);
      ADD_FAILURE() << "config accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("RihgcnModel: ", 0), 0u)
          << e.what();
    }
  };
  for (std::size_t RihgcnConfig::*size :
       {&RihgcnConfig::lookback, &RihgcnConfig::horizon,
        &RihgcnConfig::gcn_dim, &RihgcnConfig::lstm_dim,
        &RihgcnConfig::cheb_order, &RihgcnConfig::hgcn_layers}) {
    RihgcnConfig mc = f.model_config();
    mc.*size = 0;
    expect_rejected(mc);
  }
  RihgcnConfig three_layers = f.model_config();
  three_layers.hgcn_layers = 3;
  expect_rejected(three_layers);
}

TEST(Rihgcn, RejectsWindowOfWrongLength) {
  Fixture f;
  RihgcnModel model(*f.graphs, 6, 4, f.model_config());
  data::Window w = f.sampler->make_window(0);
  w.x_obs.pop_back();
  w.x_mask.pop_back();
  try {
    (void)model.predict(w);
    ADD_FAILURE() << "window accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("RIHGCN: window", 0), 0u)
        << e.what();
  }
}

TEST(Rihgcn, SaveLoadRoundTripKeepsPredictions) {
  Fixture f;
  RihgcnModel model(*f.graphs, 6, 4, f.model_config());
  const data::Window w = f.sampler->make_window(4);
  const Matrix before = model.predict(w);
  std::stringstream ss;
  nn::save_parameters(ss, model.parameters());
  // Perturb every parameter, then restore from the checkpoint.
  for (ad::Parameter* p : model.parameters()) p->value() *= 1.7;
  EXPECT_FALSE(allclose(model.predict(w), before, 1e-9));
  nn::load_parameters(ss, model.parameters());
  EXPECT_TRUE(allclose(model.predict(w), before, 1e-12));
}

// Forward output consistency: complement equals obs where observed.
TEST(Rihgcn, ForwardComplementStructure) {
  Fixture f;
  RihgcnModel model(*f.graphs, 6, 4, f.model_config());
  const data::Window w = f.sampler->make_window(2);
  ad::Tape tape;
  const auto out = model.forward(tape, w);
  EXPECT_TRUE(out.imputation_loss.valid());
  EXPECT_EQ(out.complement.size(), 6u);
  EXPECT_EQ(tape.value(out.prediction).cols(), 3u);
  EXPECT_GE(tape.value(out.imputation_loss)(0, 0), 0.0);
}

// ---- Sparse graph backend (DESIGN.md §9) ----------------------------------

// Forces threaded paths on tiny inputs and pins the pool width (same idiom
// as test_parallel.cpp); restores defaults on destruction.
class BackendGuard {
 public:
  explicit BackendGuard(std::size_t threads) {
    ParallelTuning::min_elems = 1;
    ParallelTuning::elem_grain = 4;
    ParallelTuning::min_matmul_flops = 1;
    ParallelTuning::matmul_row_grain = 2;
    ThreadPool::set_global_threads(threads);
  }
  ~BackendGuard() {
    ParallelTuning::reset();
    ThreadPool::set_global_threads(0);
  }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

// Whole-model training through the CSR Laplacians is kernel-pool
// deterministic: the loss trace and a prediction after the updates are
// bitwise equal at 1 and 4 kernel threads, with the thresholds forced low
// so the pool really engages.
TEST(Rihgcn, TrainingBitwiseIdenticalAcrossKernelThreads) {
  Fixture f;
  auto train_trace = [&] {
    RihgcnModel model(*f.graphs, 6, 4, f.model_config());
    nn::AdamOptimizer opt(model.parameters());
    std::vector<double> trace;
    for (std::size_t step = 0; step < 4; ++step) {
      const data::Window w = f.sampler->make_window(step);
      opt.zero_grad();
      ad::Tape tape;
      ad::Var loss = model.training_loss(tape, w);
      tape.backward(loss);
      opt.step();
      trace.push_back(tape.value(loss)(0, 0));
    }
    const Matrix pred = model.predict(f.sampler->make_window(5));
    trace.insert(trace.end(), pred.data(), pred.data() + pred.size());
    return trace;
  };
  std::vector<double> serial;
  {
    BackendGuard guard(1);
    serial = train_trace();
  }
  BackendGuard guard(4);
  EXPECT_EQ(train_trace(), serial);
}

// ---- model_summary ---------------------------------------------------------

TEST(ModelSummary, ListsParametersAndTotal) {
  Fixture f;
  RihgcnModel model(*f.graphs, 6, 4, f.model_config());
  const std::string summary = model_summary(model);
  EXPECT_NE(summary.find("RIHGCN"), std::string::npos);
  EXPECT_NE(summary.find("hgcn.geo.theta0"), std::string::npos);
  EXPECT_NE(summary.find("total"), std::string::npos);
  // Total in the text equals the real count.
  std::size_t total = 0;
  for (ad::Parameter* p : model.parameters()) total += p->size();
  EXPECT_NE(summary.find(std::to_string(total)), std::string::npos);
}

}  // namespace
}  // namespace rihgcn::core
