// RIHGCN — the paper's primary contribution (§III):
//
//  * HgcnBlock: one Chebyshev GCN per graph (geographic + M temporal), whose
//    outputs are mixed with sample-time interval weights and passed through
//    ReLU — the heterogeneous spatial encoder S_t = HGCN(X̃_t) (Eq. 4).
//  * RihgcnModel: the bi-directional recurrent imputation network. At each
//    step the complement X̃_t = M_t ⊙ X_t + (1−M_t) ⊙ X̂_t (Eq. 3) feeds the
//    HGCN, a node-shared LSTM consumes [s_t ; m_t], the concatenated state
//    Z_t = [S_t ; H_t] linearly estimates X̂_{t+1} (Eq. 5), and the
//    estimates stay in the autodiff graph so they receive delayed gradients
//    (the paper's "trainable variable" training strategy). The joint loss is
//    L = L_c + λ·L_m with the bi-directional consistency term (Eq. 6/7).
//    The recipe itself lives in core/recurrent_imputation.hpp; this model
//    supplies the HGCN+LSTM encoder and the head.
//
// Ablation switches in RihgcnConfig turn the model into the paper's reduced
// variants: bidirectional=false, use_consistency=false,
// trainable_imputation=false (detached estimates — the classic two-step
// pipeline the paper argues against).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/hetero_graphs.hpp"
#include "core/model.hpp"
#include "core/recurrent_imputation.hpp"
#include "nn/layers.hpp"
#include "tensor/csr.hpp"

namespace rihgcn::core {

/// Heterogeneous GCN block: parallel GCNs over the geographic graph and the
/// M temporal graphs, aggregated by sample-time interval weights.
class HgcnBlock : public nn::Module {
 public:
  /// `graphs` must outlive the block.
  HgcnBlock(const HeterogeneousGraphs& graphs, std::size_t in_dim,
            std::size_t out_dim, std::size_t cheb_order, Rng& rng);

  /// The scaled Laplacian of every graph in CSR form (DESIGN.md §9): the
  /// full graphs' (make_laps) or one cluster's sub-graphs'
  /// (RihgcnModel::make_clusters).
  struct Laps {
    CsrMatrix geo;
    std::vector<CsrMatrix> temporal;  ///< one per temporal graph
  };
  /// The full graphs' Laplacians, copied from HeterogeneousGraphs.
  [[nodiscard]] Laps make_laps() const;

  /// x: N x in_dim complement matrix; slot: fine time-of-day slot of the
  /// sample (drives the temporal-graph mixture weights); laps: N-node
  /// Laplacians, which must outlive the tape.
  [[nodiscard]] ad::Var forward(ad::Tape& tape, ad::Var x, std::size_t slot,
                                const Laps& laps);

  [[nodiscard]] std::vector<ad::Parameter*> parameters() override;
  [[nodiscard]] std::size_t out_dim() const noexcept { return out_dim_; }

 private:
  const HeterogeneousGraphs& graphs_;
  std::size_t out_dim_;
  nn::ChebGcnLayer geo_layer_;
  std::vector<nn::ChebGcnLayer> temporal_layers_;
};

struct RihgcnConfig {
  std::size_t lookback = 12;
  std::size_t horizon = 12;
  std::size_t gcn_dim = 16;    ///< p — node embedding width (paper: 64)
  std::size_t lstm_dim = 32;   ///< q — LSTM hidden width (paper: 128)
  std::size_t cheb_order = 3;  ///< K (paper: 3)
  /// Stacked HGCN depth (paper uses 1; 2 adds a second heterogeneous
  /// convolution over the first one's embeddings).
  std::size_t hgcn_layers = 1;
  /// Recurrent cell (paper: LSTM; GRU is a lighter alternative).
  nn::CellKind cell = nn::CellKind::kLstm;
  double lambda = 1.0;         ///< weight of the imputation loss (RQ4 sweep)
  bool bidirectional = true;
  bool use_consistency = true;       ///< second term of Eq. 6
  bool trainable_imputation = true;  ///< false = detach X̂ (two-step ablation)
  /// Prediction head: concatenate Z across time (paper default) or
  /// attention-weighted sum (paper's mentioned alternative).
  enum class Head { kConcat, kAttention };
  Head head = Head::kConcat;
  /// Route the recurrent cells through the fused Tape::lstm_cell/gru_cell
  /// kernels (3 tape nodes per step instead of ~17). Bitwise identical to
  /// the unfused elementary-op chain; off is for differential testing.
  bool use_fused_cells = true;
  std::uint64_t seed = 7;
  /// Reported name — lets ablation variants (e.g. "GCN-LSTM-I" with zero
  /// temporal graphs) appear under the paper's method names.
  std::string display_name = "RIHGCN";
};

class RihgcnModel : public ForecastModel, public ClusterTrainable {
 public:
  /// The serving-side inference engine (core/engine.hpp) compiles a frozen
  /// f32 snapshot of this model — it reads the module tree and the CSR
  /// Laplacians directly at compile time, never mutating anything.
  friend class InferenceEngine;
  RihgcnModel(const HeterogeneousGraphs& graphs, std::size_t num_nodes,
              std::size_t num_features, const RihgcnConfig& config);

  [[nodiscard]] std::string name() const override {
    return config_.display_name;
  }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override;
  [[nodiscard]] ad::Var training_loss(ad::Tape& tape,
                                      const data::Window& w) override;
  [[nodiscard]] Matrix predict_on(ad::Tape& tape,
                                  const data::Window& w) override;
  [[nodiscard]] std::vector<Matrix> impute(const data::Window& w) override;

  // ---- Cluster-GCN decomposition (DESIGN.md §13) ---------------------------
  /// One cluster's sub-graph.
  struct ClusterSpec {
    std::vector<std::size_t> nodes;  ///< owned ∪ halo, ascending
    std::vector<char> owned_row;     ///< per local row: 1 = owned, 0 = halo
    std::size_t num_owned = 0;
    HgcnBlock::Laps laps;            ///< sub-Laplacians
  };
  /// The one Cluster-GCN recipe, behind both partitioned training
  /// (prepare_clusters) and the sharded inference engine: partition the
  /// spatial graph into `num_clusters` clusters (seeded BFS; >= 1) and cut
  /// each cluster's sub-Laplacians (owned ∪ 1-hop halo rows and columns of
  /// every scaled Laplacian, in CSR form). One cluster owns every node with
  /// an empty halo.
  [[nodiscard]] std::vector<ClusterSpec> make_clusters(
      std::size_t num_clusters, std::uint64_t seed) const;

  // ---- ClusterTrainable (partitioned training, DESIGN.md §13) -------------
  /// make_clusters(num_clusters, seed) kept for training; num_clusters <= 1
  /// clears the decomposition.
  void prepare_clusters(std::size_t num_clusters, std::uint64_t seed) override;
  [[nodiscard]] std::size_t num_clusters() const override {
    return clusters_.size();
  }
  /// Full RIHGCN loss on the cluster's sub-window: halo rows propagate
  /// through the HGCN/LSTM but are zero-weighted in the prediction AND
  /// imputation losses, so summing per-cluster gradients over all clusters
  /// covers every owned node exactly once.
  [[nodiscard]] ad::Var cluster_training_loss(ad::Tape& tape,
                                              const data::Window& w,
                                              std::size_t cluster) override;

  [[nodiscard]] const RihgcnConfig& config() const noexcept { return config_; }

  /// Full forward pass products (exposed for tests/ablations).
  [[nodiscard]] ImputingForward forward(ad::Tape& tape, const data::Window& w);

 private:
  /// Shared forward body over `laps` (the full graphs' or a cluster's);
  /// `owned_row` non-null zero-weights halo rows in the
  /// imputation/consistency losses. With laps_ and a null `owned_row` this
  /// IS forward().
  [[nodiscard]] ImputingForward forward_impl(
      ad::Tape& tape, const data::Window& w, const HgcnBlock::Laps& laps,
      const std::vector<char>* owned_row);

  const HeterogeneousGraphs& graphs_;
  RihgcnConfig config_;
  std::size_t num_features_;
  Rng init_rng_;  ///< parameter-init stream; declared before the modules
  HgcnBlock hgcn_;
  /// Every scaled Laplacian, copied once at construction. Shared by hgcn_
  /// and hgcn2_ — same graphs.
  HgcnBlock::Laps laps_;
  std::unique_ptr<HgcnBlock> hgcn2_;  ///< present iff hgcn_layers == 2
  std::unique_ptr<nn::RecurrentCell> rnn_fwd_;
  std::unique_ptr<nn::RecurrentCell> rnn_bwd_;
  nn::Linear est_fwd_;
  nn::Linear est_bwd_;
  nn::Linear head_;
  nn::Linear attn_score_;
  /// Partitioned-training state (empty until prepare_clusters).
  std::vector<ClusterSpec> clusters_;
};

}  // namespace rihgcn::core
