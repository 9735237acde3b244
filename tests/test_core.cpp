#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "graph_reference.hpp"
#include "nn/optim.hpp"
#include "tensor/parallel.hpp"
#include "timeseries/profile.hpp"

namespace rihgcn::core {
namespace {

struct Fixture {
  data::TrafficDataset ds;
  std::size_t train_end;
  std::unique_ptr<data::WindowSampler> sampler;
  std::unique_ptr<HeterogeneousGraphs> graphs;

  // 48 steps per day: 30-min bins keep everything tiny.
  explicit Fixture(std::size_t m_graphs = 2, double missing = 0.4,
                   std::size_t steps_per_day = 48) {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 6;
    cfg.num_days = 4;
    cfg.steps_per_day = steps_per_day;
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
  EXPECT_EQ(f.graphs->num_nodes(), 6u);
  EXPECT_EQ(f.graphs->geographic_adjacency_csr().rows(), 6u);
}

TEST(HeteroGraphs, TemporalGraphsDifferFromGeographic) {
  Fixture f(2);
  // DTW-based adjacency should generally differ from road-distance adjacency.
  const Matrix geo = f.graphs->geographic_adjacency_csr().to_dense();
  bool any_diff = false;
  for (std::size_t m = 0; m < f.graphs->num_temporal(); ++m) {
    if (!allclose(f.graphs->temporal_adjacency_csr(m).to_dense(), geo,
                  1e-6)) {
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

using graph::reference::expect_same_csr;

/// Temporal graph m rebuilt with the dense reference formulas from the fine
/// slots its coarse interval [c0, c1) covers: fine slot s belongs to coarse
/// slot ⌊s·P/S⌋, the binning the partition was searched on.
graph::reference::CsrGraph reference_temporal_graph(const Fixture& f,
                                                    std::size_t m,
                                                    std::size_t pslots) {
  const std::size_t spd = f.ds.steps_per_day;
  const auto first_fine_slot = [&](std::size_t c) {
    std::size_t s = 0;
    while (s < spd && s * pslots / spd < c) ++s;
    return s;
  };
  const auto end = static_cast<std::ptrdiff_t>(f.train_end);
  const ts::HistoricalProfile profile(
      std::vector<Matrix>(f.ds.truth.begin(), f.ds.truth.begin() + end),
      std::vector<Matrix>(f.ds.mask.begin(), f.ds.mask.begin() + end), spd);
  const auto [c0, c1] = f.graphs->partition().slot_range(m);
  return graph::reference::graph_from_distances(ts::pairwise_series_distance(
      profile.interval_series(first_fine_slot(c0), first_fine_slot(c1))));
}

TEST(HeteroGraphs, DenseModeCsrAccessorsMatchFromDense) {
  // All-pairs graphs equal the dense reference pipeline handed over as
  // tol-0 CSR, bit for bit: the one form every GCN consumes.
  Fixture f(2);
  const HeterogeneousGraphs& g = *f.graphs;
  const graph::reference::CsrGraph geo =
      graph::reference::graph_from_distances(f.ds.geo_distances);
  expect_same_csr(g.geographic_adjacency_csr(), geo.adjacency);
  expect_same_csr(g.geographic_scaled_laplacian_csr(), geo.scaled_laplacian);
  ASSERT_EQ(g.num_temporal(), 2u);
  for (std::size_t m = 0; m < g.num_temporal(); ++m) {
    const graph::reference::CsrGraph want = reference_temporal_graph(f, m, 24);
    expect_same_csr(g.temporal_adjacency_csr(m), want.adjacency);
    expect_same_csr(g.temporal_scaled_laplacian_csr(m), want.scaled_laplacian);
  }
  EXPECT_THROW((void)g.temporal_scaled_laplacian_csr(2), std::out_of_range);
  EXPECT_THROW((void)g.temporal_adjacency_csr(2), std::out_of_range);
}

TEST(HeteroGraphs, TemporalGraphsReadEveryFineSlotOfTheirInterval) {
  // 30 fine slots per day over 24 coarse ones: coarse slot c spans fine
  // slots [⌈1.25c⌉, ⌈1.25(c+1)⌉), so every fine slot feeds exactly the
  // graph whose interval the partition (and interval_weights) assign it.
  Fixture f(4, 0.4, 30);
  ASSERT_EQ(f.graphs->num_temporal(), 4u);
  for (std::size_t m = 0; m < f.graphs->num_temporal(); ++m) {
    const graph::reference::CsrGraph want = reference_temporal_graph(f, m, 24);
    expect_same_csr(f.graphs->temporal_adjacency_csr(m), want.adjacency);
    expect_same_csr(f.graphs->temporal_scaled_laplacian_csr(m),
                    want.scaled_laplacian);
  }
}

TEST(HeteroGraphs, AllPairsModeNeedsGeoDistances) {
  // A dataset without its N x N road distances (geo_distances 0 0 in a
  // dataset file) is refused up front, naming the missing block, instead
  // of building a 0-node geographic graph that fails later.
  Fixture f(1);
  data::TrafficDataset ds = f.ds;
  ds.geo_distances = Matrix();
  HeteroGraphsConfig cfg;
  Rng rng(1);
  try {
    HeterogeneousGraphs g(ds, f.train_end, cfg, rng);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("geo_distances"), std::string::npos)
        << e.what();
  }
  // k-NN mode still falls back to the coordinates.
  cfg.knn = 3;
  EXPECT_EQ(HeterogeneousGraphs(ds, f.train_end, cfg, rng).num_nodes(), 6u);
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
