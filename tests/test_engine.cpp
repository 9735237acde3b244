// InferenceEngine (DESIGN.md §14): the tape-free f32 serving forward.
//
//  * EngineParity.*  — whole-model f32 engine output vs the f64 tape
//    predict() within the documented ULP-style bound
//    |y32 − y64| ≤ C·eps_f32·(1 + |y64|), across every architecture branch
//    (LSTM/GRU, concat/attention head, uni/bidirectional, 1/2 HGCN layers)
//    and both graph ops: the 8-node fixture's Laplacians are all above the
//    1/8 density cutover (transposed dense GEMM), the 64-node k-NN
//    fixture's all below it (CSR SpMM over the block-diagonal batch).
//  * EngineBatch.*   — predict_batch over B stacked windows is BITWISE equal
//    to B sequential batch-1 calls (every op is row- or block-local), at
//    serial and forced-threaded kernel settings, for both graph ops;
//    workspace buffers never reallocate across calls.
//  * EngineSnapshot.* — the compiled plan is frozen: mutating the source
//    model after compilation must not change engine output.
//  * EngineThreads.*  — Options::num_threads row-sharding is pure
//    scheduling: adaptive / serial / forced-K outputs are bitwise equal.
//  * EngineSharded.*  — the cluster-sharded engine (DESIGN.md §16): one
//    shard is bitwise the full engine (both fixtures), parallel shards are
//    bitwise the serial sharded forward, multi-shard output stays near the
//    full forward (Cluster-GCN halo truncation) and covers every node, each
//    shard's row-index load equals its sub-engine fed a gathered window,
//    and a forecast reads only the window's engine inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "core/engine.hpp"
#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "core/sharded_engine.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "data/windows.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"

namespace rihgcn {
namespace {

// Documented whole-model ULP-style bound factor (DESIGN.md §14): the
// per-kernel (k+2)·eps_f32·Σ|a||b| bounds compose through ~lookback stacked
// GEMM/SpMM/nonlinearity layers into this empirical whole-model constant.
constexpr double kUlpFactor = 1024.0;

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

struct EngineFixture {
  data::TrafficDataset ds;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  std::unique_ptr<data::WindowSampler> sampler;
  std::unique_ptr<core::RihgcnModel> model;
};

/// k of the k-NN fixture: 64 nodes whose Laplacians all compile to CSR.
constexpr std::size_t kKnn = 3;

/// knn = 0: the dense-built 8-node fixture. knn > 0: a 64-node fixture with
/// k-NN graphs, each asserted below the engine's 1/8 density cutover.
EngineFixture make_setup(core::RihgcnConfig mc, std::size_t num_temporal = 2,
                         std::size_t knn = 0) {
  EngineFixture s;
  data::PemsLikeConfig cfg;
  cfg.num_nodes = knn > 0 ? 64 : 8;
  cfg.num_days = 2;
  cfg.steps_per_day = 48;
  cfg.seed = 11;
  s.ds = data::generate_pems_like(cfg);
  Rng rng(5);
  data::inject_mcar(s.ds, 0.35, rng);
  const std::size_t train_end = s.ds.num_timesteps() * 7 / 10;
  const data::ZScoreNormalizer nz(s.ds, train_end);
  nz.normalize(s.ds);
  s.sampler = std::make_unique<data::WindowSampler>(s.ds, mc.lookback,
                                                    mc.horizon);
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = num_temporal;
  gcfg.partition_slots = 24;
  gcfg.knn = knn;
  s.graphs = std::make_unique<core::HeterogeneousGraphs>(s.ds, train_end,
                                                         gcfg, rng);
  if (knn > 0) {
    const std::size_t n = s.graphs->num_nodes();
    EXPECT_LT(s.graphs->geographic_scaled_laplacian_csr().nnz() * 8, n * n);
    for (std::size_t m = 0; m < s.graphs->num_temporal(); ++m) {
      EXPECT_LT(s.graphs->temporal_scaled_laplacian_csr(m).nnz() * 8, n * n)
          << "temporal graph " << m;
    }
  }
  s.model = std::make_unique<core::RihgcnModel>(*s.graphs, s.ds.num_nodes(),
                                                s.ds.num_features(), mc);
  return s;
}

core::RihgcnConfig small_config() {
  core::RihgcnConfig mc;
  mc.lookback = 6;
  mc.horizon = 3;
  mc.gcn_dim = 4;
  mc.lstm_dim = 5;
  mc.cheb_order = 3;
  return mc;
}

/// Max observed |y32 − y64| / (eps_f32 · (1 + |y64|)) over all elements.
double max_ulp_ratio(const Matrix& got, const Matrix& ref) {
  EXPECT_EQ(got.rows(), ref.rows());
  EXPECT_EQ(got.cols(), ref.cols());
  constexpr double eps = std::numeric_limits<float>::epsilon();
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double d = std::abs(got.data()[i] - ref.data()[i]);
    const double scale = eps * (1.0 + std::abs(ref.data()[i]));
    worst = std::max(worst, d / scale);
  }
  return worst;
}

void expect_parity(core::RihgcnConfig mc, std::size_t num_temporal = 2,
                   std::size_t knn = 0) {
  EngineFixture s = make_setup(mc, num_temporal, knn);
  core::InferenceEngine engine(*s.model);
  for (std::size_t start : {0u, 7u, 23u}) {
    const data::Window w = s.sampler->make_window(start);
    const Matrix ref = s.model->predict(w);
    const Matrix got = engine.predict(w);
    const double ratio = max_ulp_ratio(got, ref);
    EXPECT_LE(ratio, kUlpFactor)
        << "window " << start << ": worst error " << ratio
        << " x eps_f32 x (1+|y|)";
    EXPECT_FALSE(got.has_non_finite());
  }
}

// ---- f32-vs-f64 parity across architecture branches ------------------------

TEST(EngineParity, LstmConcatSparseBidirectional) {
  expect_parity(small_config());
}

TEST(EngineParity, GruAttentionHead) {
  core::RihgcnConfig mc = small_config();
  mc.cell = nn::CellKind::kGru;
  mc.head = core::RihgcnConfig::Head::kAttention;
  expect_parity(mc);
}

TEST(EngineParity, UnidirectionalTwoLayerHgcn) {
  core::RihgcnConfig mc = small_config();
  mc.bidirectional = false;
  mc.hgcn_layers = 2;
  expect_parity(mc);
}

TEST(EngineParity, KnnCsrLaplacians) {
  expect_parity(small_config(), /*num_temporal=*/2, kKnn);
}

TEST(EngineParity, NoTemporalGraphs) {
  // GCN-LSTM-I ablation shape: zero temporal graphs.
  expect_parity(small_config(), /*num_temporal=*/0);
}

// ---- batched forward -------------------------------------------------------

void expect_batched_bitwise(std::size_t threads, std::size_t knn = 0) {
  EngineFixture s = make_setup(small_config(), /*num_temporal=*/2, knn);
  core::InferenceEngine::Options opt;
  opt.max_batch = 6;
  core::InferenceEngine engine(*s.model, opt);
  auto ws_batch = engine.make_workspace();
  auto ws_one = engine.make_workspace();

  // Distinct windows with distinct slots, so the per-window interval-weight
  // mixing and per-block skip rules are actually exercised.
  std::vector<data::Window> windows;
  for (std::size_t i = 0; i < 5; ++i) {
    windows.push_back(s.sampler->make_window(3 * i + 1));
  }
  std::vector<const data::Window*> ptrs;
  for (const auto& w : windows) ptrs.push_back(&w);

  BackendGuard guard(threads);
  const std::size_t n = engine.num_nodes();
  const FMatrix& stacked =
      engine.predict_batch(ptrs.data(), ptrs.size(), ws_batch);
  for (std::size_t b = 0; b < ptrs.size(); ++b) {
    const FMatrix& one = engine.predict_batch(&ptrs[b], 1, ws_one);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t h = 0; h < engine.horizon(); ++h) {
        EXPECT_EQ(stacked(b * n + i, h), one(i, h))
            << "window " << b << " node " << i << " step " << h;
      }
    }
  }
}

TEST(EngineBatch, BatchedMatchesSequentialBitwiseSerial) {
  expect_batched_bitwise(1);
  expect_batched_bitwise(1, kKnn);
}

TEST(EngineBatch, BatchedMatchesSequentialBitwiseThreaded) {
  expect_batched_bitwise(4);
  expect_batched_bitwise(4, kKnn);
}

TEST(EngineBatch, RepeatCallsBitwiseStableAndNoRealloc) {
  EngineFixture s = make_setup(small_config());
  core::InferenceEngine engine(*s.model);
  auto ws = engine.make_workspace();
  const data::Window w = s.sampler->make_window(2);
  const data::Window* p = &w;

  const FMatrix& first = engine.predict_batch(&p, 1, ws);
  const float* data_ptr = first.data();
  std::vector<float> snapshot(first.data(),
                              first.data() + engine.num_nodes() * engine.horizon());
  for (int rep = 0; rep < 3; ++rep) {
    const FMatrix& again = engine.predict_batch(&p, 1, ws);
    // Zero steady-state allocation: the output (and by construction every
    // workspace buffer) lives in storage allocated at make_workspace time.
    EXPECT_EQ(again.data(), data_ptr);
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      EXPECT_EQ(again.data()[i], snapshot[i]);
    }
  }
}

TEST(EngineBatch, RejectsBadBatchAndForeignWorkspace) {
  EngineFixture s = make_setup(small_config());
  core::InferenceEngine::Options opt;
  opt.max_batch = 2;
  core::InferenceEngine engine(*s.model, opt);
  auto ws = engine.make_workspace();
  const data::Window w = s.sampler->make_window(0);
  std::vector<const data::Window*> ptrs{&w, &w, &w};
  EXPECT_THROW(engine.predict_batch(ptrs.data(), 0, ws),
               std::invalid_argument);
  EXPECT_THROW(engine.predict_batch(ptrs.data(), 3, ws),
               std::invalid_argument);

  core::InferenceEngine::Options opt2;
  opt2.max_batch = 4;
  core::InferenceEngine other(*s.model, opt2);
  auto foreign = other.make_workspace();
  EXPECT_THROW(engine.predict_batch(ptrs.data(), 1, foreign),
               std::invalid_argument);
}

// ---- snapshot semantics ----------------------------------------------------

TEST(EngineSnapshot, FrozenAgainstModelMutation) {
  EngineFixture s = make_setup(small_config());
  core::InferenceEngine engine(*s.model);
  const data::Window w = s.sampler->make_window(4);
  const Matrix before = engine.predict(w);
  // "Retrain" the model: perturb every parameter.
  for (ad::Parameter* p : s.model->parameters()) {
    Matrix& v = p->value();
    for (std::size_t i = 0; i < v.size(); ++i) v.data()[i] += 0.25;
  }
  const Matrix after = engine.predict(w);
  EXPECT_EQ(before, after);
  // A fresh compile picks the new weights up.
  core::InferenceEngine recompiled(*s.model);
  const Matrix moved = recompiled.predict(w);
  EXPECT_NE(before, moved);
}

// ---- Options::num_threads row-sharding (DESIGN.md §16) ---------------------

TEST(EngineThreads, NumThreadsBitwiseEqualSerial) {
  EngineFixture s = make_setup(small_config());
  // Force the pool on and the adaptive thresholds down, so all three
  // scheduling modes genuinely take different dispatch paths.
  BackendGuard guard(4);
  std::vector<Matrix> outs;
  for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                              std::size_t{7}}) {
    core::InferenceEngine::Options opt;
    opt.max_batch = 4;
    opt.num_threads = threads;
    core::InferenceEngine engine(*s.model, opt);
    outs.push_back(engine.predict(s.sampler->make_window(5)));
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_EQ(outs[0], outs[i]) << "num_threads variant " << i;
  }
  EXPECT_FALSE(outs[0].has_non_finite());
}

// ---- cluster-sharded engine (DESIGN.md §16) --------------------------------

TEST(EngineSharded, SingleShardBitwiseMatchesFullEngine) {
  // num_shards = 1: the partition owns every node, the halo is empty, and
  // the sub-Laplacians ARE the full Laplacians — bitwise equality with the
  // plain engine is exact, not approximate.
  for (const std::size_t knn : {std::size_t{0}, kKnn}) {
    EngineFixture s = make_setup(small_config(), /*num_temporal=*/2, knn);
    core::InferenceEngine full(*s.model);
    core::ShardedEngine::Options so;
    so.num_shards = 1;
    core::ShardedEngine sharded(*s.model, so);
    EXPECT_EQ(sharded.num_shards(), 1u);
    for (std::size_t start : {0u, 9u, 21u}) {
      const data::Window w = s.sampler->make_window(start);
      EXPECT_EQ(sharded.predict(w), full.predict(w))
          << "knn " << knn << " window " << start;
    }
  }
}

TEST(EngineSharded, ParallelMatchesSerialBitwise) {
  // The parallel path's parity baseline is the SERIAL sharded forward (the
  // halo truncation at cheb_order > 1 is the documented Cluster-GCN
  // approximation vs the full engine). Disjoint owned-row scatter means
  // thread scheduling can never move a bit.
  EngineFixture s = make_setup(small_config());
  BackendGuard guard(4);
  core::ShardedEngine::Options so;
  so.num_shards = 3;
  so.seed = 7;
  so.parallel = false;
  core::ShardedEngine serial(*s.model, so);
  so.parallel = true;
  core::ShardedEngine parallel(*s.model, so);
  ASSERT_EQ(serial.num_shards(), parallel.num_shards());
  ASSERT_GE(serial.num_shards(), 2u);
  for (std::size_t start : {1u, 8u, 17u}) {
    const data::Window w = s.sampler->make_window(start);
    const Matrix a = serial.predict(w);
    const Matrix b = parallel.predict(w);
    EXPECT_EQ(a, b) << "window " << start;
    EXPECT_FALSE(a.has_non_finite());
  }
}

TEST(EngineSharded, StaysNearFullEngineAndCoversAllNodes) {
  // Multi-shard output is the Cluster-GCN approximation of the full
  // forward: the halo carries the 1-hop boundary exactly, deeper Chebyshev
  // reach is truncated. An 8-node graph cut into 3 shards at cheb_order = 3
  // is close to the worst case for that truncation (most of a shard's
  // 2-hop neighborhood lies outside it), so this is a blow-up guard, not a
  // tight accuracy claim: every node written, finite, bounded deviation.
  // All inputs are seeded and both forwards are deterministic, so the
  // bounds are stable (observed max |diff| ~1.75, mean ~0.4).
  EngineFixture s = make_setup(small_config());
  core::InferenceEngine full(*s.model);
  core::ShardedEngine::Options so;
  so.num_shards = 3;
  core::ShardedEngine sharded(*s.model, so);
  const data::Window w = s.sampler->make_window(11);
  const Matrix want = full.predict(w);
  const Matrix got = sharded.predict(w);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_FALSE(got.has_non_finite());
  double sum_abs = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double diff = std::abs(got.data()[i] - want.data()[i]);
    EXPECT_LT(diff, 3.0) << "flat index " << i;
    sum_abs += diff;
  }
  EXPECT_LT(sum_abs / static_cast<double>(got.size()), 0.8);
}

TEST(EngineSharded, DeterministicAcrossInstancesAndRejectsZeroShards) {
  EngineFixture s = make_setup(small_config());
  core::ShardedEngine::Options so;
  so.num_shards = 3;
  so.seed = 42;
  core::ShardedEngine a(*s.model, so);
  core::ShardedEngine b(*s.model, so);
  const data::Window w = s.sampler->make_window(3);
  EXPECT_EQ(a.predict(w), b.predict(w));
  so.num_shards = 0;
  EXPECT_THROW(core::ShardedEngine(*s.model, so), std::invalid_argument);
}

TEST(EngineSharded, RowIndexLoadMatchesTakeRowsWindow) {
  // Each shard narrows its rows straight from the full window
  // (InferenceEngine::predict_rows). Fed the gathered data::take_rows
  // window instead, its sub-engine gives the same bits on every row, halo
  // rows included, and the sharded forecast's owned rows are those bits.
  EngineFixture s = make_setup(small_config(), /*num_temporal=*/2, kKnn);
  core::ShardedEngine::Options so;
  so.num_shards = 4;
  so.seed = 3;
  core::ShardedEngine sharded(*s.model, so);
  std::vector<core::RihgcnModel::ClusterSpec> specs =
      s.model->make_clusters(so.num_shards, so.seed);
  ASSERT_EQ(sharded.num_shards(), 4u);
  ASSERT_EQ(specs.size(), 4u);
  core::InferenceEngine::Options eo;
  eo.max_batch = 1;
  for (std::size_t start : {2u, 13u}) {
    const data::Window w = s.sampler->make_window(start);
    const Matrix full = sharded.predict(w);
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const core::RihgcnModel::ClusterSpec& spec = specs[k];
      ASSERT_GT(spec.num_owned, 0u);
      ASSERT_LT(spec.num_owned, spec.nodes.size()) << "shard " << k
                                                   << " has no halo";
      core::InferenceEngine sub(*s.model, eo, spec.laps);
      auto ws_rows = sub.make_workspace();
      auto ws_taken = sub.make_workspace();
      const FMatrix& by_index = sub.predict_rows(w, spec.nodes, ws_rows);
      const data::Window taken = data::take_rows(w, spec.nodes);
      const data::Window* p = &taken;
      const FMatrix& by_copy = sub.predict_batch(&p, 1, ws_taken);
      for (std::size_t r = 0; r < spec.nodes.size(); ++r) {
        for (std::size_t h = 0; h < sub.horizon(); ++h) {
          EXPECT_EQ(by_index(r, h), by_copy(r, h))
              << "shard " << k << " row " << r << " step " << h;
          if (spec.owned_row[r]) {
            EXPECT_EQ(full(spec.nodes[r], h),
                      static_cast<double>(by_index(r, h)))
                << "shard " << k << " node " << spec.nodes[r];
          }
        }
      }
      if (k == 0) {
        std::vector<std::size_t> rows = spec.nodes;
        rows.pop_back();
        EXPECT_THROW((void)sub.predict_rows(w, rows, ws_rows),
                     std::invalid_argument);
        rows.push_back(w.x_obs.front().rows());  // one past the last node
        EXPECT_THROW((void)sub.predict_rows(w, rows, ws_rows),
                     std::invalid_argument);
      }
    }
  }
}

TEST(EngineSharded, ReadsOnlyEngineInputsAndRejectsWrongNodeCount) {
  // predict() gathers only x_obs, x_mask and slot into each shard: a window
  // stripped of its ground truth and targets forecasts the same bits, and a
  // window without one row per node is refused before any shard runs.
  EngineFixture s = make_setup(small_config());
  core::ShardedEngine::Options so;
  so.num_shards = 3;
  core::ShardedEngine sharded(*s.model, so);
  const data::Window w = s.sampler->make_window(4);
  data::Window inputs_only;
  inputs_only.slot = w.slot;
  inputs_only.x_obs = w.x_obs;
  inputs_only.x_mask = w.x_mask;
  const Matrix want = sharded.predict(w);
  EXPECT_EQ(sharded.predict(inputs_only), want);
  data::Window short_mask = w;
  short_mask.x_mask.back() =
      Matrix(w.x_mask.back().rows() - 1, w.x_mask.back().cols());
  EXPECT_THROW((void)sharded.predict(short_mask), std::invalid_argument);
  EXPECT_EQ(sharded.predict(w), want);
}

}  // namespace
}  // namespace rihgcn
