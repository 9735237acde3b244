// Tests for the extension features beyond the paper's core method:
// GRU cell, circular timeline partitioning (the paper's stated future work),
// stacked HGCN, data-parallel training, MAPE, dataset (de)serialization and
// the gradient-sink backward path they all rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/rihgcn.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"
#include "data/missing.hpp"
#include "metrics/metrics.hpp"
#include "timeseries/partition.hpp"
#include "timeseries/profile.hpp"

namespace rihgcn {
namespace {

// ---- GruCell ------------------------------------------------------------------

TEST(Gru, StepShapesAndStateMirrorsH) {
  Rng rng(1);
  nn::GruCell gru(4, 6, rng);
  ad::Tape tape;
  auto state = gru.initial_state(tape, 3);
  state = gru.step(tape, tape.constant(Matrix(3, 4, 0.5)), state);
  EXPECT_EQ(tape.value(state.h).rows(), 3u);
  EXPECT_EQ(tape.value(state.h).cols(), 6u);
  // GRU has no cell lane: c mirrors h.
  EXPECT_TRUE(allclose(tape.value(state.h), tape.value(state.c), 0.0));
}

TEST(Gru, InputDimMismatchThrows) {
  Rng rng(2);
  nn::GruCell gru(4, 6, rng);
  ad::Tape tape;
  auto state = gru.initial_state(tape, 2);
  EXPECT_THROW((void)gru.step(tape, tape.constant(Matrix(2, 5)), state),
               ShapeError);
  EXPECT_THROW(nn::GruCell(0, 3, rng), std::invalid_argument);
}

TEST(Gru, GradientCheckThroughTwoSteps) {
  Rng rng(3);
  nn::GruCell gru(3, 4, rng);
  const Matrix x1 = rng.normal_matrix(2, 3, 1.0);
  const Matrix x2 = rng.normal_matrix(2, 3, 1.0);
  auto build = [&](ad::Tape& tape) {
    auto state = gru.initial_state(tape, 2);
    state = gru.step(tape, tape.constant(x1), state);
    state = gru.step(tape, tape.constant(x2), state);
    return tape.mean_all(state.h);
  };
  for (ad::Parameter* p : gru.parameters()) p->zero_grad();
  {
    ad::Tape tape;
    tape.backward(build(tape));
  }
  auto loss_value = [&] {
    ad::Tape tape;
    return tape.value(build(tape))(0, 0);
  };
  for (ad::Parameter* p : gru.parameters()) {
    EXPECT_LT(ad::gradient_check(*p, loss_value, p->grad()), 1e-5)
        << p->name();
  }
}

TEST(Gru, FactoryDispatch) {
  Rng rng(4);
  auto lstm = nn::make_recurrent_cell(nn::CellKind::kLstm, 3, 5, rng, "a");
  auto gru = nn::make_recurrent_cell(nn::CellKind::kGru, 3, 5, rng, "b");
  EXPECT_EQ(lstm->parameters()[0]->value().cols(), 20u);  // 4H
  EXPECT_EQ(gru->parameters()[0]->value().cols(), 15u);   // 3H
  EXPECT_EQ(lstm->hidden_dim(), 5u);
  EXPECT_EQ(gru->input_dim(), 3u);
}

// ---- Circular partition ---------------------------------------------------------

Matrix shifted_rush_profile(std::size_t slots, double center_hour) {
  // Single sharp feature centred at `center_hour`; a rotation that avoids
  // splitting it should win.
  Matrix p(slots, 2);
  for (std::size_t s = 0; s < slots; ++s) {
    const double h = static_cast<double>(s) * 24.0 / static_cast<double>(slots);
    double d = std::abs(h - center_hour);
    d = std::min(d, 24.0 - d);
    const double v = 60.0 - 35.0 * std::exp(-d * d / 1.5);
    p(s, 0) = v;
    p(s, 1) = v * 0.9;
  }
  return p;
}

TEST(CircularPartition, SlotRangeWrapsCorrectly) {
  ts::Partition p;
  p.boundaries = {0, 6, 12, 24};
  p.rotation = 20;
  const auto [a0, b0] = p.slot_range(0);
  EXPECT_EQ(a0, 20u);
  EXPECT_EQ(b0, 2u);  // wraps past midnight
  EXPECT_TRUE(p.contains(0, 21));
  EXPECT_TRUE(p.contains(0, 1));
  EXPECT_FALSE(p.contains(0, 5));
  EXPECT_EQ(p.interval_of(23), 0u);
  EXPECT_EQ(p.interval_of(3), 1u);
}

TEST(CircularPartition, EveryCoveredSlotHasExactlyOneInterval) {
  ts::Partition p;
  p.boundaries = {0, 5, 11, 17, 24};
  p.rotation = 13;
  for (std::size_t s = 0; s < 24; ++s) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < p.num_intervals(); ++i) {
      if (p.contains(i, s)) ++hits;
    }
    EXPECT_EQ(hits, 1u) << "slot " << s;
  }
}

TEST(CircularPartition, NeverWorseThanLinear) {
  const Matrix profile = shifted_rush_profile(24, 1.0);  // feature at 1 AM!
  ts::PartitionConstraints c;
  c.min_len = 2;
  c.max_len = 12;
  ts::TimelinePartitioner part(profile, c);
  Rng rng(5);
  const ts::Partition linear = part.partition(4, rng);
  const ts::Partition circular = part.partition_circular(4, rng, 2);
  EXPECT_GE(part.objective(circular), part.objective(linear) - 1e-9);
  EXPECT_TRUE(part.satisfies(circular));
}

TEST(CircularPartition, WrappedIntervalSeriesMatchesManualConcat) {
  std::vector<Matrix> values, mask;
  for (std::size_t t = 0; t < 6; ++t) {
    Matrix v(1, 1);
    v(0, 0) = static_cast<double>(t);
    values.push_back(v);
    mask.emplace_back(1, 1, 1.0);
  }
  const ts::HistoricalProfile prof(values, mask, 6);
  const Matrix wrapped = prof.interval_series(4, 2);  // slots 4,5,0,1
  ASSERT_EQ(wrapped.cols(), 4u);
  EXPECT_DOUBLE_EQ(wrapped(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(wrapped(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(wrapped(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(wrapped(0, 3), 1.0);
}

TEST(CircularPartition, HeteroGraphsBuildWithCircularOption) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 6;
  cfg.num_days = 4;
  cfg.steps_per_day = 48;
  data::TrafficDataset ds = data::generate_pems_like(cfg);
  Rng rng(6);
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = 3;
  gcfg.partition_slots = 24;
  gcfg.circular_partition = true;
  const core::HeterogeneousGraphs graphs(ds, ds.num_timesteps() * 7 / 10,
                                         gcfg, rng);
  EXPECT_EQ(graphs.num_temporal(), 3u);
  // Weights remain a distribution even with rotated (possibly wrapping)
  // intervals, at every slot of the day.
  for (std::size_t slot = 0; slot < 48; ++slot) {
    const auto w = graphs.interval_weights(slot);
    double sum = 0.0;
    for (const double x : w) sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

// ---- Stacked HGCN + GRU inside RIHGCN ---------------------------------------

struct SmallPipeline {
  data::TrafficDataset ds;
  std::unique_ptr<data::WindowSampler> sampler;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  data::SplitIndices split;

  SmallPipeline() {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 6;
    cfg.num_days = 4;
    cfg.steps_per_day = 48;
    cfg.seed = 7;
    ds = data::generate_pems_like(cfg);
    Rng rng(8);
    data::inject_mcar(ds, 0.4, rng);
    const std::size_t train_end = ds.num_timesteps() * 7 / 10;
    const data::ZScoreNormalizer nz(ds, train_end);
    nz.normalize(ds);
    sampler = std::make_unique<data::WindowSampler>(ds, 6, 3);
    split = sampler->split();
    core::HeteroGraphsConfig gcfg;
    gcfg.num_temporal_graphs = 2;
    graphs = std::make_unique<core::HeterogeneousGraphs>(ds, train_end, gcfg,
                                                         rng);
  }

  core::RihgcnConfig config() const {
    core::RihgcnConfig mc;
    mc.lookback = 6;
    mc.horizon = 3;
    mc.gcn_dim = 5;
    mc.lstm_dim = 7;
    mc.cheb_order = 2;
    return mc;
  }
};

TEST(RihgcnVariants, GruCellWorksEndToEnd) {
  SmallPipeline p;
  core::RihgcnConfig mc = p.config();
  mc.cell = nn::CellKind::kGru;
  core::RihgcnModel model(*p.graphs, 6, 4, mc);
  const data::Window w = p.sampler->make_window(0);
  EXPECT_FALSE(model.predict(w).has_non_finite());
  // GRU variant has strictly fewer parameters than LSTM (3H vs 4H gates).
  core::RihgcnModel lstm_model(*p.graphs, 6, 4, p.config());
  auto count = [](core::RihgcnModel& m) {
    std::size_t c = 0;
    for (ad::Parameter* q : m.parameters()) c += q->size();
    return c;
  };
  EXPECT_LT(count(model), count(lstm_model));
}

TEST(RihgcnVariants, StackedHgcnWorksAndAddsParameters) {
  SmallPipeline p;
  core::RihgcnConfig mc = p.config();
  mc.hgcn_layers = 2;
  core::RihgcnModel deep(*p.graphs, 6, 4, mc);
  core::RihgcnModel shallow(*p.graphs, 6, 4, p.config());
  EXPECT_GT(deep.parameters().size(), shallow.parameters().size());
  const data::Window w = p.sampler->make_window(1);
  EXPECT_FALSE(deep.predict(w).has_non_finite());
  core::RihgcnConfig bad = p.config();
  bad.hgcn_layers = 3;
  EXPECT_THROW(core::RihgcnModel(*p.graphs, 6, 4, bad),
               std::invalid_argument);
}

TEST(RihgcnVariants, StackedHgcnGradientFlowsToSecondLayer) {
  SmallPipeline p;
  core::RihgcnConfig mc = p.config();
  mc.hgcn_layers = 2;
  core::RihgcnModel model(*p.graphs, 6, 4, mc);
  for (ad::Parameter* q : model.parameters()) q->zero_grad();
  ad::Tape tape;
  tape.backward(model.training_loss(tape, p.sampler->make_window(2)));
  // Layer-2 parameters are the second hgcn block's (names repeat "hgcn.").
  std::size_t nonzero = 0;
  for (ad::Parameter* q : model.parameters()) {
    if (q->grad().abs_max() > 0.0) ++nonzero;
  }
  EXPECT_GT(nonzero, model.parameters().size() / 2);
}

// ---- Gradient sink / parallel training ----------------------------------------

TEST(GradSink, BackwardIntoMatchesBackward) {
  Rng rng(9);
  nn::Linear lin(3, 2, rng);
  const Matrix x = rng.normal_matrix(4, 3, 1.0);
  const Matrix target = rng.normal_matrix(4, 2, 1.0);
  // Smooth loss mean((y − target)²) from tape ops.
  const auto loss = [&](ad::Tape& tape) {
    const ad::Var d = tape.sub(lin.forward(tape, tape.constant(x)),
                               tape.constant(target));
    return tape.mean_all(tape.mul(d, d));
  };
  // Reference: normal backward.
  for (ad::Parameter* p : lin.parameters()) p->zero_grad();
  {
    ad::Tape tape;
    tape.backward(loss(tape));
  }
  std::vector<Matrix> reference;
  for (ad::Parameter* p : lin.parameters()) reference.push_back(p->grad());
  // Sink backward must not touch Parameter::grad.
  for (ad::Parameter* p : lin.parameters()) p->zero_grad();
  ad::Tape::GradSink sink;
  {
    ad::Tape tape;
    tape.backward_into(loss(tape), sink);
  }
  std::size_t i = 0;
  for (ad::Parameter* p : lin.parameters()) {
    EXPECT_EQ(p->grad().abs_max(), 0.0);
    ASSERT_TRUE(sink.count(p));
    EXPECT_TRUE(allclose(sink.at(p), reference[i], 1e-12));
    ++i;
  }
}

TEST(ParallelTrainer, MatchesSerialLoss) {
  SmallPipeline p;
  auto make = [&] {
    return std::make_unique<core::RihgcnModel>(*p.graphs, 6, 4, p.config());
  };
  core::TrainConfig serial_cfg;
  serial_cfg.max_epochs = 2;
  serial_cfg.max_train_windows = 24;
  serial_cfg.max_val_windows = 12;
  serial_cfg.batch_size = 8;
  core::TrainConfig parallel_cfg = serial_cfg;
  parallel_cfg.num_threads = 4;
  auto m1 = make();
  auto m2 = make();
  const auto r1 = core::train_model(*m1, *p.sampler, p.split, serial_cfg);
  const auto r2 = core::train_model(*m2, *p.sampler, p.split, parallel_cfg);
  // Same windows, same init, same batch partition -> identical losses up to
  // floating-point reduction order.
  ASSERT_EQ(r1.train_losses.size(), r2.train_losses.size());
  for (std::size_t e = 0; e < r1.train_losses.size(); ++e) {
    EXPECT_NEAR(r1.train_losses[e], r2.train_losses[e],
                1e-6 * (1.0 + std::abs(r1.train_losses[e])));
  }
  EXPECT_NEAR(r1.best_val_mae, r2.best_val_mae, 1e-6);
}

TEST(ParallelTrainer, ValidationOnCrewMatchesSerialBitwise) {
  // The trainer forecasts the validation windows on its batch workers and
  // scores them in window order; the MAE it early-stops on must be the
  // serial evaluate_prediction's to the bit. restore_best = false keeps the
  // last epoch's parameters, the ones its val MAE was measured with.
  SmallPipeline p;
  ASSERT_GT(p.split.val.size() % 4, 0u) << "want a partial last round";
  core::RihgcnModel model(*p.graphs, 6, 4, p.config());
  core::TrainConfig cfg;
  cfg.max_epochs = 2;
  cfg.max_train_windows = 16;
  cfg.max_val_windows = 0;
  cfg.batch_size = 8;
  cfg.num_threads = 4;
  cfg.restore_best = false;
  const auto report = core::train_model(model, *p.sampler, p.split, cfg);
  ASSERT_EQ(report.val_maes.size(), 2u);
  EXPECT_EQ(report.val_maes.back(),
            core::evaluate_prediction(model, *p.sampler, p.split.val, nullptr)
                .mae);
}

// ---- MAPE ---------------------------------------------------------------------

TEST(Mape, KnownValue) {
  metrics::ErrorAccumulator acc;
  acc.add_scalar(11.0, 10.0);  // 10%
  acc.add_scalar(18.0, 20.0);  // 10%
  EXPECT_NEAR(acc.mape(), 0.10, 1e-12);
}

TEST(Mape, SkipsZeroTruth) {
  metrics::ErrorAccumulator acc;
  acc.add_scalar(5.0, 0.0);    // skipped for MAPE, counted for MAE
  acc.add_scalar(11.0, 10.0);  // 10%
  EXPECT_NEAR(acc.mape(), 0.10, 1e-12);
  EXPECT_DOUBLE_EQ(acc.count(), 2.0);
}

TEST(Mape, AllZeroTruthThrows) {
  metrics::ErrorAccumulator acc;
  acc.add_scalar(5.0, 0.0);
  EXPECT_THROW((void)acc.mape(), std::logic_error);
}

TEST(Mape, MergeCombines) {
  metrics::ErrorAccumulator a, b;
  a.add_scalar(11.0, 10.0);
  b.add_scalar(24.0, 20.0);
  a.merge(b);
  EXPECT_NEAR(a.mape(), 0.15, 1e-12);
}

// ---- Dataset IO -----------------------------------------------------------------

TEST(DatasetIo, RoundTripLossless) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 5;
  cfg.num_days = 2;
  cfg.steps_per_day = 24;
  data::TrafficDataset ds = data::generate_pems_like(cfg);
  Rng rng(10);
  data::inject_mcar(ds, 0.3, rng);
  std::stringstream ss;
  data::save_dataset(ss, ds);
  const data::TrafficDataset loaded = data::load_dataset(ss);
  EXPECT_EQ(loaded.name, ds.name);
  EXPECT_EQ(loaded.num_timesteps(), ds.num_timesteps());
  EXPECT_EQ(loaded.steps_per_day, ds.steps_per_day);
  EXPECT_TRUE(allclose(loaded.coords, ds.coords, 0.0));
  EXPECT_TRUE(allclose(loaded.geo_distances, ds.geo_distances, 0.0));
  for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
    EXPECT_TRUE(allclose(loaded.truth[t], ds.truth[t], 0.0));
    EXPECT_TRUE(allclose(loaded.mask[t], ds.mask[t], 0.0));
  }
}

TEST(DatasetIo, NameWithSpacesSanitized) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 2;
  cfg.num_days = 1;
  cfg.steps_per_day = 4;
  data::TrafficDataset ds = data::generate_pems_like(cfg);
  ds.name = "my fancy dataset";
  std::stringstream ss;
  data::save_dataset(ss, ds);
  EXPECT_EQ(data::load_dataset(ss).name, "my_fancy_dataset");
}

TEST(DatasetIo, RejectsGarbage) {
  std::stringstream ss("not-a-dataset v1\n");
  EXPECT_THROW((void)data::load_dataset(ss), std::runtime_error);
  std::stringstream truncated("rihgcn-dataset v1\nx 2 1 4 4\ncoords 2 2\n1 2");
  EXPECT_THROW((void)data::load_dataset(truncated), std::runtime_error);
}

TEST(DatasetIo, CsvExportShape) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 2;
  cfg.num_days = 1;
  cfg.steps_per_day = 4;
  const data::TrafficDataset ds = data::generate_pems_like(cfg);
  std::stringstream ss;
  data::export_csv(ss, ds, /*max_timesteps=*/2);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(ss, line)) ++lines;
  // header + 2 timesteps * 2 nodes * 4 features
  EXPECT_EQ(lines, 1u + 2u * 2u * 4u);
}

TEST(DatasetIo, FileRoundTrip) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 3;
  cfg.num_days = 1;
  cfg.steps_per_day = 8;
  const data::TrafficDataset ds = data::generate_pems_like(cfg);
  const std::string path = "/tmp/rihgcn_io_test.ds";
  data::save_dataset_file(path, ds);
  const data::TrafficDataset loaded = data::load_dataset_file(path);
  EXPECT_EQ(loaded.num_nodes(), 3u);
  EXPECT_THROW((void)data::load_dataset_file("/nonexistent/x.ds"),
               std::runtime_error);
}

// ---- Reading-level MCAR -----------------------------------------------------

TEST(ReadingMcar, DropsWholeReadings) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 8;
  cfg.num_days = 4;
  cfg.steps_per_day = 48;
  data::TrafficDataset ds = data::generate_pems_like(cfg);
  Rng rng(11);
  data::inject_mcar_readings(ds, 0.4, rng);
  EXPECT_NEAR(ds.missing_rate(), 0.4, 0.02);
  // Within any reading, features are all present or all absent.
  for (const Matrix& m : ds.mask) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      double row_sum = 0.0;
      for (std::size_t f = 0; f < m.cols(); ++f) row_sum += m(i, f);
      EXPECT_TRUE(row_sum == 0.0 ||
                  row_sum == static_cast<double>(m.cols()));
    }
  }
}

}  // namespace
}  // namespace rihgcn
