#include "core/sharded_engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "graph/cluster.hpp"
#include "tensor/csr.hpp"
#include "tensor/parallel.hpp"

namespace rihgcn::core {

namespace {

// Copies the rows in `nodes` of the members InferenceEngine::predict_batch
// reads (x_obs, x_mask, slot) into `dst`, reusing its matrices across
// calls. data::take_rows would also copy x_truth, y and y_mask, which the
// forward never reads.
void gather_engine_inputs(const data::Window& w,
                          const std::vector<std::size_t>& nodes,
                          data::Window& dst) {
  const auto gather = [&nodes](const std::vector<Matrix>& src,
                               std::vector<Matrix>& out) {
    out.resize(src.size());
    for (std::size_t t = 0; t < src.size(); ++t) {
      const std::size_t cols = src[t].cols();
      if (out[t].rows() != nodes.size() || out[t].cols() != cols) {
        out[t] = Matrix(nodes.size(), cols);
      }
      for (std::size_t r = 0; r < nodes.size(); ++r) {
        std::memcpy(out[t].data() + r * cols, src[t].data() + nodes[r] * cols,
                    cols * sizeof(double));
      }
    }
  };
  gather(w.x_obs, dst.x_obs);
  gather(w.x_mask, dst.x_mask);
  dst.slot = w.slot;
}

}  // namespace

ShardedEngine::ShardedEngine(const RihgcnModel& model, Options options) {
  if (options.num_shards == 0) {
    throw std::invalid_argument("ShardedEngine: num_shards must be >= 1");
  }
  RihgcnModel& m = const_cast<RihgcnModel&>(model);
  n_ = m.graphs_.num_nodes();
  horizon_ = m.config_.horizon;
  parallel_ = options.parallel;

  // The prepare_clusters() recipe, replicated at serve-compile time: the
  // SPATIAL adjacency drives the partition, the temporal graphs share the
  // node set and have their out-of-shard edges cut (the Cluster-GCN
  // approximation, DESIGN.md §13).
  const CsrMatrix adjacency =
      m.graphs_.sparse_mode()
          ? m.graphs_.geographic_adjacency_csr()
          : CsrMatrix::from_dense(m.graphs_.geographic().adjacency());
  const graph::ClusterPartitioner partitioner(options.seed);
  const graph::Clustering clustering =
      partitioner.partition(adjacency, options.num_shards);

  // Full scaled Laplacians in CSR form, to extract shard sub-matrices from.
  const std::size_t num_t = m.graphs_.num_temporal();
  CsrMatrix geo_full;
  std::vector<CsrMatrix> temporal_full;
  temporal_full.reserve(num_t);
  if (m.graphs_.sparse_mode()) {
    geo_full = m.graphs_.geographic_scaled_laplacian_csr();
    for (std::size_t t = 0; t < num_t; ++t) {
      temporal_full.push_back(m.graphs_.temporal_scaled_laplacian_csr(t));
    }
  } else {
    geo_full = m.sparse_laps_.geo
                   ? *m.sparse_laps_.geo
                   : CsrMatrix::from_dense(
                         m.graphs_.geographic().scaled_laplacian());
    for (std::size_t t = 0; t < num_t; ++t) {
      const bool cached =
          t < m.sparse_laps_.temporal.size() && m.sparse_laps_.temporal[t];
      temporal_full.push_back(
          cached
              ? *m.sparse_laps_.temporal[t]
              : CsrMatrix::from_dense(m.graphs_.temporal(t).scaled_laplacian()));
    }
  }

  InferenceEngine::Options eo;
  eo.max_batch = 1;  // one window, split by NODES — not by batch
  eo.num_threads = options.num_threads;
  shards_.reserve(clustering.num_clusters());
  for (std::size_t c = 0; c < clustering.num_clusters(); ++c) {
    const std::vector<std::size_t>& owned = clustering.owned[c];
    const std::vector<std::size_t>& halo = clustering.halo[c];
    Shard sh;
    sh.nodes.resize(owned.size() + halo.size());
    std::merge(owned.begin(), owned.end(), halo.begin(), halo.end(),
               sh.nodes.begin());
    sh.owned_local.reserve(owned.size());
    sh.owned_global.reserve(owned.size());
    std::size_t p = 0;
    for (std::size_t r = 0; r < sh.nodes.size(); ++r) {
      if (p < owned.size() && owned[p] == sh.nodes[r]) {
        sh.owned_local.push_back(r);
        sh.owned_global.push_back(sh.nodes[r]);
        ++p;
      }
    }
    HgcnBlock::SparseLaps laps;
    laps.geo = geo_full.submatrix(sh.nodes);
    laps.temporal.reserve(num_t);
    for (std::size_t t = 0; t < num_t; ++t) {
      laps.temporal.emplace_back(temporal_full[t].submatrix(sh.nodes));
    }
    sh.engine = std::unique_ptr<InferenceEngine>(
        new InferenceEngine(m, eo, &laps, sh.nodes.size()));
    sh.ws = sh.engine->make_workspace();
    shards_.push_back(std::move(sh));
  }
}

Matrix ShardedEngine::predict(const data::Window& w) {
  const auto full_rows = [this](const std::vector<Matrix>& ms) {
    return std::all_of(ms.begin(), ms.end(),
                       [this](const Matrix& m) { return m.rows() == n_; });
  };
  if (!full_rows(w.x_obs) || !full_rows(w.x_mask)) {
    throw std::invalid_argument(
        "ShardedEngine::predict: window must have one row per graph node");
  }
  Matrix out(n_, horizon_);
  auto run = [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s) {
      Shard& sh = shards_[s];
      // Gather this shard's rows, forward through its sub-engine, scatter
      // only the OWNED rows — owned sets partition the nodes, so the
      // writes below are disjoint across shards (race-free in parallel).
      gather_engine_inputs(w, sh.nodes, sh.input);
      const data::Window* ptr = &sh.input;
      const FMatrix& pred = sh.engine->predict_batch(&ptr, 1, sh.ws);
      for (std::size_t k = 0; k < sh.owned_local.size(); ++k) {
        const std::size_t li = sh.owned_local[k];
        const std::size_t gi = sh.owned_global[k];
        for (std::size_t h = 0; h < horizon_; ++h) {
          out(gi, h) = static_cast<double>(pred(li, h));
        }
      }
    }
  };
  if (parallel_ && shards_.size() > 1) {
    // Grain 1: one shard per task. Shard bodies run with
    // in_parallel_region() set, so the sub-engines' kernels stay serial —
    // no nested pool dispatch, and bits identical to the serial path.
    ThreadPool::global().parallel_for(0, shards_.size(), 1, run);
  } else {
    run(0, shards_.size());
  }
  return out;
}

}  // namespace rihgcn::core
