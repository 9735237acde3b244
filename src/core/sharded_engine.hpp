// Cluster-sharded inference engine (DESIGN.md §16).
//
// InferenceEngine parallelizes ACROSS windows (the serve worker pool) and
// WITHIN kernels (Options::num_threads row-sharding); at city scale a single
// window is itself the bottleneck — one N=16384 forecast is one long chain
// of full-graph GEMM/SpMM calls. ShardedEngine carries the PR-6 Cluster-GCN
// decomposition into the compiled f32 path: it takes the clusters of
// RihgcnModel::make_clusters (the one recipe partitioned training uses too —
// seeded BFS, owned ∪ halo node sets, CsrMatrix::submatrix sub-Laplacians)
// and compiles one private InferenceEngine per cluster over that cluster's
// sub-graph through the public sub-graph constructor. A predict() then
//
//   1. gathers each shard's rows of the query window's inputs (x_obs and
//      x_mask, into a per-shard buffer reused across calls),
//   2. runs every shard's sub-engine — in parallel across shards on the
//      global ThreadPool when Options::parallel is set (each shard owns a
//      private Workspace, and the shard bodies run with
//      in_parallel_region() set so nested kernels stay serial),
//   3. scatters each shard's OWNED rows into the full N x horizon output.
//      Owned sets partition the node set, so the scatter writes are
//      disjoint — parallel execution is race-free and bitwise identical to
//      running the shards serially.
//
// Accuracy contract: halo nodes see their 1-hop neighbours but edges beyond
// the halo are cut, so with cheb_order > 1 a shard's border rows are the
// documented Cluster-GCN approximation of the full-graph forward (DESIGN.md
// §13) — the parity baseline for the parallel path is the SERIAL sharded
// forward, not the full engine. With num_shards = 1 the halo is empty, the
// sub-graph is the whole graph, and the output is bitwise equal to the full
// InferenceEngine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "core/rihgcn.hpp"
#include "data/windows.hpp"

namespace rihgcn::core {

class ShardedEngine {
 public:
  struct Options {
    /// Target cluster count (must be >= 1; the partitioner may return fewer
    /// on tiny graphs). 1 = single shard over the full graph, bitwise equal
    /// to the plain InferenceEngine.
    std::size_t num_shards = 2;
    /// ClusterPartitioner seed — the partition (and therefore every bit of
    /// the output) is a pure function of (seed, adjacency, num_shards).
    std::uint64_t seed = 0;
    /// true: run shards concurrently on the global ThreadPool. false: run
    /// them serially on the caller's thread — same bits, the parity
    /// baseline the tests pin.
    bool parallel = true;
  };

  /// Compiles one frozen sub-engine per cluster; like InferenceEngine, the
  /// model may keep training or be destroyed afterwards.
  ShardedEngine(const RihgcnModel& model, Options options);
  explicit ShardedEngine(const RihgcnModel& model)
      : ShardedEngine(model, Options{}) {}

  /// Full-graph forecast of one window (N x horizon, f32-computed widened
  /// to double like InferenceEngine::predict). Not thread-safe — each shard
  /// workspace backs one in-flight call.
  [[nodiscard]] Matrix predict(const data::Window& w);

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }

 private:
  struct Shard {
    std::vector<std::size_t> nodes;  ///< owned ∪ halo, ascending
    std::vector<char> owned_row;     ///< per local row: 1 = owned, 0 = halo
    std::unique_ptr<InferenceEngine> engine;
    InferenceEngine::Workspace ws;
    data::Window input;  ///< this shard's rows of the query's x_obs/x_mask
  };

  std::size_t n_ = 0;
  std::size_t horizon_ = 0;
  bool parallel_ = true;
  std::vector<Shard> shards_;
};

}  // namespace rihgcn::core
