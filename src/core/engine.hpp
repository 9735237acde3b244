// Tape-free single-precision inference engine (DESIGN.md §14).
//
// Training runs double-precision reverse-mode autodiff; serving needs none
// of that. InferenceEngine COMPILES a trained RihgcnModel into a frozen f32
// execution plan:
//
//   * every weight matrix is narrowed once to FMatrix, every CSR Laplacian
//     once to a GraphOp (see there), and the HGCN interval-weight mixture
//     is tabulated for all time-of-day slots — the engine holds no
//     reference to the model or the graphs after construction, so a
//     snapshot stays valid while the source model retrains;
//   * the forward pass is a fixed schedule of simd::Kernels f32 GEMM / SpMM /
//     elementwise calls into preallocated Workspace buffers — zero tape
//     nodes, zero steady-state heap allocations;
//   * predict_batch() row-stacks B concurrent query windows into (B·N)-row
//     buffers so all weight GEMMs, recurrent-cell steps and elementwise ops
//     batch natively; Laplacian propagation uses a block-diagonal FCsrMatrix
//     prebuilt at max_batch (a row prefix serves any B ≤ max_batch) for
//     genuinely sparse graphs, or a per-block transposed dense GEMM
//     (outᵀ = xᵀ·L̃ᵀ — see GraphOp) for moderately dense ones. Every op is
//     row- or block-local with identical per-element accumulation order, so
//     a batched forward is BITWISE equal to B sequential batch-1 forwards
//     (tests/test_engine.cpp);
//   * the forward copies no rows: a concatenation such as [s_t | m_t] or
//     z_t = [s_t | h_t] is never packed, its GEMM runs as consecutive
//     k-ranges over the parts instead (split-K, DESIGN.md §14), and
//     predict_rows() narrows a subset of a full-graph window's rows
//     straight into the workspace (the sharded engine's load).
//
// Accuracy contract: f32 outputs are ULP-bounded against the f64 tape
// forward, not bitwise. The bound is checked per element as
//   |y32 − y64| ≤ C_model · eps_f32 · (1 + |y64|)
// with C_model = 1024 documented in DESIGN.md §14 (the per-kernel (k+2)·eps·Σ|a||b|
// bounds of §12 compose through the nonlinearities into this empirical
// whole-model form).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/rihgcn.hpp"
#include "data/windows.hpp"
#include "tensor/fmatrix.hpp"

namespace rihgcn::core {

class InferenceEngine {
 public:
  struct Options {
    /// Largest batch predict_batch() accepts; sizes the Workspace buffers
    /// and the block-diagonal batched Laplacians.
    std::size_t max_batch = 8;
    /// Intra-batch / intra-graph row-sharding of the f32 GEMM and SpMM
    /// panels (DESIGN.md §16). 0 = adaptive: dispatch to the global
    /// ThreadPool only when an op clears the ParallelTuning flop thresholds
    /// (the pre-§16 behaviour). 1 = always serial. K > 1 = always dispatch,
    /// row grain ceil(rows / K). Pure scheduling: every output row is
    /// computed whole inside one kernel call with a fixed accumulation
    /// order, so results are bitwise identical for every value.
    std::size_t num_threads = 0;
  };

  /// Compiles a frozen snapshot of `model` (which may keep training or be
  /// destroyed afterwards — the engine copies everything it needs).
  InferenceEngine(const RihgcnModel& model, Options options);
  explicit InferenceEngine(const RihgcnModel& model)
      : InferenceEngine(model, Options{}) {}
  /// Sub-graph compilation (one ShardedEngine shard): same frozen weights as
  /// `model`, but the graph ops come from `laps` — one cluster's
  /// sub-Laplacians (RihgcnModel::make_clusters), whose row count is the
  /// shard's node count n. Windows fed to predict_batch must then be
  /// n x F; predict_rows reads the cluster's rows of a full-graph window.
  InferenceEngine(const RihgcnModel& model, Options options,
                  const HgcnBlock::Laps& laps);
  virtual ~InferenceEngine() = default;

  /// Preallocated scratch for one in-flight forward. Not thread-safe:
  /// create one per thread via make_workspace(). All buffers are sized for
  /// max_batch at construction; predict_batch never grows them.
  class Workspace {
   public:
    /// Stacked f32 predictions of the last predict_batch or predict_rows
    /// call ((B·N) x horizon, rows of window b at [b·N, (b+1)·N)). Valid
    /// until the next call with this workspace.
    [[nodiscard]] const FMatrix& predictions() const noexcept { return pred; }

   private:
    friend class InferenceEngine;
    // Row-stacked buffers, R = max_batch · N rows each.
    std::vector<FMatrix> xobs;   ///< per lookback step, R x F
    std::vector<FMatrix> mask;   ///< per lookback step, R x F
    FMatrix est;                 ///< R x F — current directional estimate
    FMatrix comp;                ///< R x F — complement X̃_t
    FMatrix cheb_a, cheb_b, cheb_p;  ///< R x max(F, gcn_dim) recurrence
    FMatrix lap_xt, lap_ot;      ///< max(F, gcn_dim) x N transposed-lap scratch
    FMatrix s1, gcn_tmp;         ///< R x gcn_dim (s1: first of two HGCNs)
    FMatrix gates, gates_h;      ///< R x 4H (GRU uses the 3H prefix)
    FMatrix c;                   ///< R x H LSTM cell state
    /// Per direction d and lookback step t, at index d·lookback + t: the
    /// HGCN output s_t (R x gcn_dim) and the hidden state h_t (R x H). They
    /// are the two parts of z_t = [s_t | h_t], which the estimator and the
    /// head read in place as consecutive k-ranges; nothing packs them.
    std::vector<FMatrix> s_step, h_step;
    FMatrix scores;              ///< R x lookback (attention head)
    FMatrix mixed;               ///< R x z_width (attention head)
    FMatrix pred;                ///< R x horizon
    std::vector<std::size_t> slots;  ///< batch x lookback slot table
  };

  [[nodiscard]] Workspace make_workspace() const;

  /// Batched forward over `batch` windows (1 ≤ batch ≤ max_batch). Each
  /// window must have `lookback` steps of N x F observations/masks. Returns
  /// ws.predictions(); no heap allocation happens on this path. Virtual so
  /// fault-injecting test decorators (serve::FaultyEngine) can wrap the
  /// plan; the serving hot path pays one indirect call per FLUSH, not per
  /// request.
  virtual const FMatrix& predict_batch(const data::Window* const* windows,
                                       std::size_t batch, Workspace& ws) const;

  /// Batch-1 forward over a subset of a larger window's node rows: row r of
  /// the result forecasts node rows[r] of `w`. Bitwise equal to
  /// predict_batch on data::take_rows(w, rows), but the rows are narrowed
  /// straight from `w` into the workspace, with no gathered copy.
  /// rows.size() must equal num_nodes() and every entry must index a row of
  /// each of w's x_obs/x_mask matrices. ShardedEngine loads its shards so.
  const FMatrix& predict_rows(const data::Window& w,
                              std::span<const std::size_t> rows,
                              Workspace& ws) const;

  /// Convenience single-query forward through an internal workspace
  /// (allocates only the returned Matrix). Same numerics as a batch of 1.
  [[nodiscard]] Matrix predict(const data::Window& w);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_features() const noexcept { return f_; }
  [[nodiscard]] std::size_t lookback() const noexcept { return lookback_; }
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }
  [[nodiscard]] std::size_t steps_per_day() const noexcept {
    return steps_per_day_;
  }
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }

 protected:
  /// Mutable access to a workspace's prediction buffer for derived
  /// fault-injecting decorators (Workspace befriends only this class).
  [[nodiscard]] static FMatrix& workspace_pred(Workspace& ws) noexcept {
    return ws.pred;
  }

 private:
  /// One graph's Laplacian, compiled into whichever apply form is cheapest
  /// (chosen once, per graph, at compile time):
  ///   * CSR SpMM (plus the block-diagonal batched form) for genuinely
  ///     sparse graphs — city-scale k-NN Laplacians at ~1% density;
  ///   * transposed dense GEMM (`lapT`, row-major L̃ᵀ) for everything else.
  ///     Dense-built graphs at moderate N run 20–70% dense, where a CSR
  ///     apply over a width-F panel degenerates into gather-bound work.
  ///     Computing outᵀ = xᵀ·L̃ᵀ instead makes the inner loop N elements
  ///     wide regardless of F. Each output element still accumulates its
  ///     terms in ascending-k FMA order — the CSR sequence plus exact-zero
  ///     terms, which leave an FMA accumulator bitwise unchanged — so the
  ///     path choice stays inside the documented ULP bound and a batched
  ///     forward remains bitwise equal to sequential ones (block-local).
  struct GraphOp {
    bool sparse = false;   ///< CSR SpMM path
    bool dense_t = false;  ///< transposed dense GEMM path
    FCsrMatrix csr;
    FCsrMatrix csr_batch;  ///< block-diagonal, max_batch copies
    FMatrix lapT;          ///< n x n, lapT(j, i) = L̃(i, j)
  };
  /// One Chebyshev GCN's weights.
  struct GcnPlan {
    std::vector<FMatrix> theta;  ///< K matrices, in x out
    FMatrix bias;                ///< 1 x out
  };
  /// One HGCN block: a GCN per graph (geo + M temporal).
  struct HgcnPlan {
    GcnPlan geo;
    std::vector<GcnPlan> temporal;
    std::size_t in_dim = 0;
  };
  /// One direction's recurrent cell + estimator.
  struct DirPlan {
    FMatrix w_ih, w_hh, bias;  ///< gate layout [i|f|o|g] (LSTM) / [r|z|n] (GRU)
    FMatrix est_w, est_b;
  };

  /// The graph op for a CSR Laplacian: transposed dense when the graph is
  /// dense enough for the GEMM to win, CSR SpMM otherwise.
  [[nodiscard]] GraphOp compile_csr_op(const CsrMatrix& lap) const;
  [[nodiscard]] static GcnPlan compile_gcn(
      const std::vector<ad::Parameter*>& params, std::size_t offset,
      std::size_t order);

  /// Throws unless 1 ≤ batch ≤ max_batch and ws comes from this engine.
  void check_call(std::size_t batch, const Workspace& ws) const;
  /// Narrows window w's observations and masks into batch block b of the
  /// workspace and tabulates its slots. rows (n_ entries) selects w's node
  /// rows; null reads rows [0, n_). `src_rows` is the row count every x_obs
  /// and x_mask matrix of w must have.
  void load_window(const data::Window& w, const std::size_t* rows,
                   std::size_t src_rows, std::size_t b, Workspace& ws) const;
  /// The forward over the first `batch` loaded blocks; returns ws.pred.
  const FMatrix& forward(std::size_t batch, Workspace& ws) const;

  /// out = L · x per diagonal block (rows = batch · n_); lap_xt/lap_ot
  /// workspace scratch back the transposed-dense path.
  void apply_lap(const GraphOp& g, const float* x, float* out,
                 std::size_t batch, std::size_t width, Workspace& ws) const;
  /// out += cheb(gcn, x) for the whole stack; cheb_* workspace scratch.
  void run_gcn(const GcnPlan& gcn, const GraphOp& graph, const float* x,
               std::size_t in_dim, FMatrix& out, Workspace& ws,
               std::size_t batch) const;
  /// s = HGCN(x) (interval-weighted graph mixture + ReLU), per-window slots.
  void run_hgcn(const HgcnPlan& plan, const float* x, FMatrix& out,
                Workspace& ws, std::size_t batch, std::size_t step) const;
  /// One recurrent direction d (0 forward, 1 backward); fills that
  /// direction's ws.s_step/ws.h_step entries.
  void run_direction(const DirPlan& dir, Workspace& ws, std::size_t batch,
                     std::size_t d) const;
  /// Calls fn(part, width, col) for each part of z_t in column order —
  /// [fwd s_t | fwd h_t | bwd s_t | bwd h_t], col its first column in z_t —
  /// so a GEMM over z_t runs as consecutive k-ranges.
  template <class Fn>
  void for_each_z_part(const Workspace& ws, std::size_t t, Fn&& fn) const;

  // ---- compiled plan -------------------------------------------------------
  std::size_t n_ = 0, f_ = 0;
  std::size_t lookback_ = 0, horizon_ = 0;
  std::size_t gcn_dim_ = 0, lstm_dim_ = 0, cheb_order_ = 0;
  std::size_t z_width_ = 0;
  std::size_t steps_per_day_ = 0;
  std::size_t max_batch_ = 0;
  std::size_t num_threads_ = 0;
  bool bidirectional_ = false;
  bool attention_head_ = false;
  nn::CellKind cell_ = nn::CellKind::kLstm;

  GraphOp geo_op_;
  std::vector<GraphOp> temporal_ops_;
  HgcnPlan hgcn1_;
  HgcnPlan hgcn2_;  ///< empty theta when the model has one HGCN layer
  bool has_hgcn2_ = false;
  DirPlan fwd_;
  DirPlan bwd_;
  FMatrix head_w_, head_b_;
  FMatrix attn_w_, attn_b_;
  /// interval_weights(slot) for every slot, row-major slot x M. Kept in
  /// double so the per-window "skip graph m when w ≤ 1e-8" rule matches the
  /// tape path exactly; narrowed to f32 only at the accumulation site.
  std::vector<double> interval_w_;

  Workspace scratch_;  ///< backs the convenience predict()
};

}  // namespace rihgcn::core
