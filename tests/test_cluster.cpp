// Partitioned sub-graph training (DESIGN.md §13):
//
//  * ClusterPartitioner invariants: exact disjoint cover, balanced sizes,
//    halos that are EXACTLY the 1-hop boundary, determinism per seed.
//  * Trainer integration: num_clusters > 1 demands a ClusterTrainable model
//    (std::invalid_argument otherwise), clustered training of RIHGCN runs,
//    updates parameters, and is bitwise deterministic at a fixed thread
//    count; the full-graph path is untouched by num_clusters <= 1.
#include "graph/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "nn/optim.hpp"
#include "tensor/rng.hpp"

namespace rihgcn {
namespace {

// Random symmetric structural adjacency (values 1.0) with ~density edges.
CsrMatrix random_adjacency(std::size_t n, double density, std::uint64_t seed) {
  Rng rng(seed);
  Matrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform(0.0, 1.0) < density) {
        dense(i, j) = dense(j, i) = 1.0;
      }
    }
  }
  return CsrMatrix::from_dense(dense);
}

void check_invariants(const graph::Clustering& c, const CsrMatrix& adj,
                      std::size_t requested) {
  const std::size_t n = adj.rows();
  const std::size_t expect_clusters = std::min(requested, n);
  ASSERT_EQ(c.num_clusters(), expect_clusters);
  ASSERT_EQ(c.num_nodes, n);
  ASSERT_EQ(c.cluster_of.size(), n);
  const std::size_t cap = (n + expect_clusters - 1) / expect_clusters;
  std::vector<std::size_t> seen(n, 0);
  for (std::size_t k = 0; k < c.num_clusters(); ++k) {
    const auto& owned = c.owned[k];
    EXPECT_LE(owned.size(), cap);
    EXPECT_TRUE(std::is_sorted(owned.begin(), owned.end()));
    for (const std::size_t v : owned) {
      ASSERT_LT(v, n);
      ++seen[v];
      EXPECT_EQ(c.cluster_of[v], k);
    }
    // Halo: exactly the out-of-cluster structural 1-hop neighbourhood.
    std::vector<char> in_cluster(n, 0), expect_halo(n, 0);
    for (const std::size_t v : owned) in_cluster[v] = 1;
    const Matrix dense = adj.to_dense();
    for (const std::size_t v : owned) {
      for (std::size_t j = 0; j < n; ++j) {
        if (dense(v, j) != 0.0 && !in_cluster[j]) expect_halo[j] = 1;
      }
    }
    std::vector<std::size_t> expect_list;
    for (std::size_t j = 0; j < n; ++j) {
      if (expect_halo[j]) expect_list.push_back(j);
    }
    EXPECT_EQ(c.halo[k], expect_list) << "cluster " << k;
  }
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(seen[v], 1u) << "node " << v << " not covered exactly once";
  }
}

TEST(ClusterPartitioner, InvariantsHoldOnRandomGraphs) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrMatrix adj = random_adjacency(40, 0.12, seed);
    const graph::Clustering c =
        graph::ClusterPartitioner(seed).partition(adj, 5);
    check_invariants(c, adj, 5);
  }
}

TEST(ClusterPartitioner, HandlesDisconnectedAndDegenerateGraphs) {
  // No edges at all: teleports must still cover everything, halos empty.
  const CsrMatrix empty = CsrMatrix::from_dense(Matrix(12, 12));
  const graph::Clustering c = graph::ClusterPartitioner(7).partition(empty, 4);
  check_invariants(c, empty, 4);
  for (const auto& h : c.halo) EXPECT_TRUE(h.empty());

  // One cluster: owns everything.
  const CsrMatrix adj = random_adjacency(15, 0.2, 9);
  const graph::Clustering one = graph::ClusterPartitioner(0).partition(adj, 1);
  check_invariants(one, adj, 1);
  EXPECT_EQ(one.owned[0].size(), 15u);

  // More clusters than nodes: clamps to N singleton clusters.
  const graph::Clustering many =
      graph::ClusterPartitioner(0).partition(adj, 99);
  check_invariants(many, adj, 99);

  EXPECT_THROW(graph::ClusterPartitioner(0).partition(adj, 0),
               std::invalid_argument);
}

TEST(ClusterPartitioner, DeterministicPerSeed) {
  const CsrMatrix adj = random_adjacency(36, 0.15, 5);
  const graph::Clustering a = graph::ClusterPartitioner(11).partition(adj, 6);
  const graph::Clustering b = graph::ClusterPartitioner(11).partition(adj, 6);
  EXPECT_EQ(a.owned, b.owned);
  EXPECT_EQ(a.halo, b.halo);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
}

// ---- Trainer integration --------------------------------------------------

struct Fixture {
  data::TrafficDataset ds;
  std::size_t train_end = 0;
  std::unique_ptr<data::WindowSampler> sampler;
  data::SplitIndices split;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;

  Fixture() {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 12;
    cfg.num_days = 4;
    cfg.steps_per_day = 48;
    cfg.seed = 31;
    ds = data::generate_pems_like(cfg);
    Rng rng(32);
    data::inject_mcar(ds, 0.3, rng);
    train_end = ds.num_timesteps() * 7 / 10;
    const data::ZScoreNormalizer nz(ds, train_end);
    nz.normalize(ds);
    sampler = std::make_unique<data::WindowSampler>(ds, 6, 3);
    split = sampler->split();
    core::HeteroGraphsConfig gcfg;
    gcfg.num_temporal_graphs = 2;
    gcfg.partition_slots = 24;
    graphs = std::make_unique<core::HeterogeneousGraphs>(ds, train_end, gcfg,
                                                         rng);
  }

  core::RihgcnConfig model_config() const {
    core::RihgcnConfig mc;
    mc.lookback = 6;
    mc.horizon = 3;
    mc.gcn_dim = 4;
    mc.lstm_dim = 6;
    mc.cheb_order = 2;
    return mc;
  }

  core::TrainConfig train_config() const {
    core::TrainConfig tc;
    tc.max_epochs = 2;
    tc.batch_size = 4;
    tc.max_train_windows = 12;
    tc.max_val_windows = 6;
    return tc;
  }
};

TEST(ClusteredTrainer, ThrowsForNonClusterTrainableModel) {
  Fixture f;
  class PlainModel final : public core::ForecastModel {
   public:
    [[nodiscard]] std::string name() const override { return "plain"; }
    [[nodiscard]] std::vector<ad::Parameter*> parameters() override {
      return {&p_};
    }
    [[nodiscard]] ad::Var training_loss(ad::Tape& tape,
                                        const data::Window&) override {
      return tape.constant(Matrix(1, 1, 1.0));
    }
    [[nodiscard]] Matrix predict_on(ad::Tape&,
                                    const data::Window& w) override {
      return Matrix(w.x_obs.front().rows(), 3, 0.0);
    }

   private:
    ad::Parameter p_{Matrix(1, 1), "p"};
  };
  PlainModel model;
  core::TrainConfig tc = f.train_config();
  tc.num_clusters = 4;
  EXPECT_THROW(core::train_model(model, *f.sampler, f.split, tc),
               std::invalid_argument);
}

TEST(ClusteredTrainer, TrainsAndUpdatesParameters) {
  Fixture f;
  core::RihgcnModel model(*f.graphs, 12, 4, f.model_config());
  const std::vector<Matrix> before = nn::snapshot_values(model.parameters());
  core::TrainConfig tc = f.train_config();
  tc.num_clusters = 3;
  const core::TrainReport report =
      core::train_model(model, *f.sampler, f.split, tc);
  EXPECT_EQ(model.num_clusters(), 3u);
  EXPECT_EQ(report.epochs_run, 2u);
  for (const double l : report.train_losses) {
    EXPECT_TRUE(std::isfinite(l));
    EXPECT_GT(l, 0.0);
  }
  // Something moved.
  const std::vector<Matrix> after = nn::snapshot_values(model.parameters());
  bool changed = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (!(before[i] == after[i])) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(ClusteredTrainer, BitwiseDeterministicAtFixedThreadCount) {
  Fixture f;
  const auto run = [&f]() {
    core::RihgcnModel model(*f.graphs, 12, 4, f.model_config());
    core::TrainConfig tc = f.train_config();
    tc.num_clusters = 3;
    tc.num_threads = 2;
    (void)core::train_model(model, *f.sampler, f.split, tc);
    return nn::snapshot_values(model.parameters());
  };
  const std::vector<Matrix> a = run();
  const std::vector<Matrix> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);  // bitwise
  }
}

TEST(ClusteredTrainer, NumClustersOneIsFullGraphPath) {
  Fixture f;
  const auto run = [&f](std::size_t num_clusters) {
    core::RihgcnModel model(*f.graphs, 12, 4, f.model_config());
    core::TrainConfig tc = f.train_config();
    tc.num_clusters = num_clusters;
    (void)core::train_model(model, *f.sampler, f.split, tc);
    return nn::snapshot_values(model.parameters());
  };
  const std::vector<Matrix> plain = run(0);
  const std::vector<Matrix> one = run(1);
  ASSERT_EQ(plain.size(), one.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], one[i]);  // bitwise: 0 and 1 take the same path
  }
}

TEST(ClusteredTrainer, ClusterLossMatchesFullLossGradientsInAggregate) {
  // Gradients from one full-graph window vs. the sum over all clusters of
  // the same window: not expected to be bitwise equal (per-cluster
  // masked-MAE normalization differs by design), but both must be finite
  // and nonzero for trainable parameters.
  Fixture f;
  core::RihgcnModel model(*f.graphs, 12, 4, f.model_config());
  model.prepare_clusters(3, 99);
  ASSERT_EQ(model.num_clusters(), 3u);
  const data::Window w = f.sampler->make_window(f.split.train.front());
  ad::Tape tape;
  double total = 0.0;
  for (std::size_t c = 0; c < model.num_clusters(); ++c) {
    tape.reset();
    const ad::Var loss = model.cluster_training_loss(tape, w, c);
    const double v = tape.value(loss)(0, 0);
    EXPECT_TRUE(std::isfinite(v));
    tape.backward(loss);
    total += v;
  }
  EXPECT_GT(total, 0.0);
  bool any_grad = false;
  for (ad::Parameter* p : model.parameters()) {
    for (std::size_t i = 0; i < p->grad().size(); ++i) {
      if (p->grad().data()[i] != 0.0) any_grad = true;
    }
  }
  EXPECT_TRUE(any_grad);
}

}  // namespace
}  // namespace rihgcn
