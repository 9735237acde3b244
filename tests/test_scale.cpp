// Tier-2 city-scale smoke test (DESIGN.md §13, ISSUE acceptance gate): a
// miniature but REAL run at N = 16384 sensors — sparse k-NN graph
// construction (pruned DTW temporal graphs, coordinate k-NN spatial graph),
// partitioned Cluster-GCN training for two epochs, and a forecast — under a
// wall-clock budget and a peak-RSS bound that a single dense N x N double
// matrix (2 GiB) would blow through on its own.
//
// Env knobs:
//   RIHGCN_SCALE_NODES      — node count (default 16384)
//   RIHGCN_SCALE_BUDGET_SEC — wall-clock cap in seconds (default 900)
//   RIHGCN_SCALE_RSS_MB     — peak-RSS cap in MiB (default 6144)
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/windows.hpp"
#include "tensor/rng.hpp"

namespace rihgcn {
namespace {

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

std::size_t peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) / 1024;  // linux: KiB
}

// A city-scale dataset built WITHOUT any N x N intermediate: random sensor
// coordinates, diurnal speeds in a few phase groups, deterministic ~15%
// MCAR-style missingness. geo_distances stays empty so the sparse pipeline
// must take the coordinate k-NN path.
data::TrafficDataset make_city(std::size_t n, std::size_t days,
                               std::size_t steps_per_day) {
  Rng rng(12345);
  data::TrafficDataset ds;
  ds.name = "city16k";
  ds.steps_per_day = steps_per_day;
  ds.coords = rng.uniform_matrix(n, 2, -30.0, 30.0);
  const std::size_t total = days * steps_per_day;
  ds.truth.reserve(total);
  ds.mask.reserve(total);
  // Per-node personality from a cheap hash of the index (no O(N) state).
  const auto phase_of = [](std::size_t i) {
    return 0.9 * static_cast<double>(i % 5);
  };
  Rng mask_rng(777);
  for (std::size_t t = 0; t < total; ++t) {
    const double hour = 24.0 * static_cast<double>(t % steps_per_day) /
                        static_cast<double>(steps_per_day);
    Matrix x(n, 1);
    Matrix m(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      const double base = 55.0 + 10.0 * std::sin(0.26 * hour + phase_of(i));
      x(i, 0) = base + 2.0 * std::sin(static_cast<double>(i) * 0.013);
      m(i, 0) = mask_rng.uniform(0.0, 1.0) < 0.15 ? 0.0 : 1.0;
    }
    ds.truth.push_back(std::move(x));
    ds.mask.push_back(std::move(m));
  }
  ds.validate();
  return ds;
}

TEST(CityScale, TrainAndForecastAt16kNodes) {
  const std::size_t n = env_or("RIHGCN_SCALE_NODES", 16384);
  const std::size_t budget_sec = env_or("RIHGCN_SCALE_BUDGET_SEC", 900);
  const std::size_t rss_cap_mib = env_or("RIHGCN_SCALE_RSS_MB", 6144);
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_sec = [&t0]() {
    return std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  const std::size_t steps_per_day = 24;
  data::TrafficDataset ds = make_city(n, /*days=*/2, steps_per_day);
  const std::size_t train_end = ds.num_timesteps() * 7 / 10;
  std::printf("[scale] dataset built: N=%zu T=%zu rss=%zu MiB (%llds)\n", n,
              ds.num_timesteps(), peak_rss_mib(),
              static_cast<long long>(elapsed_sec()));

  // Sparse k-NN graphs: coordinate spatial graph + pruned-DTW temporal
  // graphs. knn > 0 guarantees no dense N x N matrix exists anywhere.
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = 2;
  gcfg.partition_slots = 12;
  gcfg.knn = 8;
  gcfg.prune_dtw = true;
  gcfg.dtw_band = 3;
  Rng rng(9);
  core::HeterogeneousGraphs graphs(ds, train_end, gcfg, rng);
  ASSERT_EQ(graphs.num_nodes(), n);
  const ts::KnnStats& st = graphs.temporal_knn_stats();
  std::printf(
      "[scale] graphs built: geo nnz=%zu, dtw pairs=%zu kim=%zu keogh=%zu "
      "started=%zu abandoned=%zu, rss=%zu MiB (%llds)\n",
      graphs.geographic_adjacency_csr().nnz(), st.pairs, st.lb_kim_pruned,
      st.lb_keogh_pruned, st.dtw_started, st.dtw_abandoned, peak_rss_mib(),
      static_cast<long long>(elapsed_sec()));
  // Pruning must carry most of the load at this scale.
  EXPECT_LT(st.dtw_started, st.pairs / 2);

  core::RihgcnConfig mc;
  mc.lookback = 4;
  mc.horizon = 2;
  mc.gcn_dim = 4;
  mc.lstm_dim = 4;
  mc.cheb_order = 2;
  mc.bidirectional = false;
  mc.use_consistency = false;
  core::RihgcnModel model(graphs, n, ds.num_features(), mc);

  data::WindowSampler sampler(ds, mc.lookback, mc.horizon);
  data::SplitIndices split = sampler.split(0.7, 0.15);
  ASSERT_FALSE(split.train.empty());

  core::TrainConfig tc;
  tc.max_epochs = 2;
  tc.batch_size = 2;
  tc.max_train_windows = 4;
  tc.max_val_windows = 2;
  tc.num_clusters = 16;
  tc.num_threads = std::min<std::size_t>(
      4, std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  tc.patience = 100;  // never early-stop inside 2 epochs
  const core::TrainReport report =
      core::train_model(model, sampler, split, tc);
  EXPECT_EQ(report.epochs_run, 2u);
  EXPECT_EQ(model.num_clusters(), 16u);
  for (const double l : report.train_losses) EXPECT_TRUE(std::isfinite(l));
  std::printf("[scale] trained 2 epochs (%zu clusters): loss %.4f -> %.4f, "
              "rss=%zu MiB (%llds)\n",
              model.num_clusters(), report.train_losses.front(),
              report.train_losses.back(), peak_rss_mib(),
              static_cast<long long>(elapsed_sec()));

  const data::Window w = sampler.make_window(split.test.empty()
                                                 ? split.train.back()
                                                 : split.test.front());
  const Matrix pred = model.predict(w);
  ASSERT_EQ(pred.rows(), n);
  ASSERT_EQ(pred.cols(), mc.horizon);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    ASSERT_TRUE(std::isfinite(pred.data()[i]));
  }

  const std::size_t rss = peak_rss_mib();
  const long long secs = elapsed_sec();
  std::printf("[scale] forecast done: peak rss=%zu MiB, wall=%llds "
              "(caps: %zu MiB, %zus)\n",
              rss, secs, rss_cap_mib, budget_sec);
  EXPECT_LT(rss, rss_cap_mib);
  EXPECT_LT(static_cast<std::size_t>(secs), budget_sec);
}

}  // namespace
}  // namespace rihgcn
