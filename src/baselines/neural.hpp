// Neural forecasting baselines from the paper's experiments (§IV-B2).
//
// Mean-filled models (the paper preprocesses their inputs by replacing
// missing values with the feature mean — identical to zero-filling after
// z-scoring, which is what Window::x_obs already contains):
//   * FcLstmModel  — per-node LSTM over time, FC head ("FC-LSTM").
//   * FcGcnModel   — GCN per timestep over the geographic graph, FC head
//                    ("FC-GCN").
//   * GcnLstmModel — GCN per step feeding a node-shared LSTM ("GCN-LSTM").
//   * AstGcnModel  — simplified ASTGCN: spatial attention + Chebyshev GCN
//                    and temporal attention (Guo et al. 2019's mechanisms on
//                    this library's substrate).
//   * GraphWaveNetModel — simplified Graph WaveNet: learned adaptive
//                    adjacency from node embeddings + gated dilated temporal
//                    convolutions (Wu et al. 2019's mechanisms).
//
// Recurrent-imputation variants (ablations of RIHGCN): the same recipe as
// the full model (core/recurrent_imputation.hpp — trainable estimates, the
// Eq. 6 consistency term, L = L_c + λ·L_m) with a smaller encoder:
//   * FcLstmIModel — temporal-only: an LSTM over [X̃_t | M_t] (BRITS-like).
//   * FcGcnIModel  — spatial-only: a GCN over [X̃_t | M_t].
//   * GCN-LSTM-I   — use core::RihgcnModel with zero temporal graphs.
//
// Every model here trains on core::joint_loss and rejects a window whose
// length differs from its lookback/horizon (core::check_window).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/recurrent_imputation.hpp"
#include "nn/layers.hpp"
#include "tensor/csr.hpp"

namespace rihgcn::baselines {

using ad::Tape;
using ad::Var;

struct NeuralBaselineConfig {
  std::size_t lookback = 12;
  std::size_t horizon = 12;
  std::size_t hidden = 32;     ///< LSTM hidden / GCN embedding width
  std::size_t cheb_order = 3;  ///< K for GCN-based baselines
  double lambda = 1.0;         ///< imputation-loss weight for -I variants
  bool bidirectional = true;   ///< -I variants impute in both directions
  std::uint64_t seed = 21;
};

// ---- Mean-filled models ----------------------------------------------------

class FcLstmModel final : public core::ForecastModel {
 public:
  FcLstmModel(std::size_t num_features, const NeuralBaselineConfig& config);
  [[nodiscard]] std::string name() const override { return "FC-LSTM"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override;
  [[nodiscard]] Var training_loss(Tape& tape, const data::Window& w) override;
  [[nodiscard]] Matrix predict_on(Tape& tape, const data::Window& w) override;

 private:
  [[nodiscard]] Var forward(Tape& tape, const data::Window& w);
  NeuralBaselineConfig config_;
  Rng rng_;
  nn::LstmCell lstm_;
  nn::Linear head_;
};

class FcGcnModel final : public core::ForecastModel {
 public:
  /// `geo_scaled_laplacian` (copied) is the geographic graph's Chebyshev
  /// scaled Laplacian; N is inferred from it.
  FcGcnModel(const CsrMatrix& geo_scaled_laplacian, std::size_t num_features,
             const NeuralBaselineConfig& config);
  [[nodiscard]] std::string name() const override { return "FC-GCN"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override;
  [[nodiscard]] Var training_loss(Tape& tape, const data::Window& w) override;
  [[nodiscard]] Matrix predict_on(Tape& tape, const data::Window& w) override;

 private:
  [[nodiscard]] Var forward(Tape& tape, const data::Window& w);
  NeuralBaselineConfig config_;
  CsrMatrix lap_;
  Rng rng_;
  nn::ChebGcnLayer gcn_;
  nn::Linear head_;
};

class GcnLstmModel final : public core::ForecastModel {
 public:
  GcnLstmModel(const CsrMatrix& geo_scaled_laplacian, std::size_t num_features,
               const NeuralBaselineConfig& config);
  [[nodiscard]] std::string name() const override { return "GCN-LSTM"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override;
  [[nodiscard]] Var training_loss(Tape& tape, const data::Window& w) override;
  [[nodiscard]] Matrix predict_on(Tape& tape, const data::Window& w) override;

 private:
  [[nodiscard]] Var forward(Tape& tape, const data::Window& w);
  NeuralBaselineConfig config_;
  CsrMatrix lap_;
  Rng rng_;
  nn::ChebGcnLayer gcn_;
  nn::LstmCell lstm_;
  nn::Linear head_;
};

// ---- Recurrent-imputation variants -------------------------------------------

class FcLstmIModel final : public core::ForecastModel {
 public:
  FcLstmIModel(std::size_t num_features, const NeuralBaselineConfig& config);
  [[nodiscard]] std::string name() const override { return "FC-LSTM-I"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override;
  [[nodiscard]] Var training_loss(Tape& tape, const data::Window& w) override;
  [[nodiscard]] Matrix predict_on(Tape& tape, const data::Window& w) override;
  [[nodiscard]] std::vector<Matrix> impute(const data::Window& w) override;

 private:
  [[nodiscard]] core::ImputingForward forward(Tape& tape,
                                              const data::Window& w);
  NeuralBaselineConfig config_;
  Rng rng_;
  nn::LstmCell lstm_f_;
  nn::LstmCell lstm_b_;
  nn::Linear est_f_;
  nn::Linear est_b_;
  nn::Linear head_;
};

class FcGcnIModel final : public core::ForecastModel {
 public:
  FcGcnIModel(const CsrMatrix& geo_scaled_laplacian, std::size_t num_features,
              const NeuralBaselineConfig& config);
  [[nodiscard]] std::string name() const override { return "FC-GCN-I"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override;
  [[nodiscard]] Var training_loss(Tape& tape, const data::Window& w) override;
  [[nodiscard]] Matrix predict_on(Tape& tape, const data::Window& w) override;
  [[nodiscard]] std::vector<Matrix> impute(const data::Window& w) override;

 private:
  [[nodiscard]] core::ImputingForward forward(Tape& tape,
                                              const data::Window& w);
  NeuralBaselineConfig config_;
  CsrMatrix lap_;
  Rng rng_;
  nn::ChebGcnLayer gcn_;
  nn::Linear est_f_;
  nn::Linear est_b_;
  nn::Linear head_;
};

// ---- Attention / TCN baselines -----------------------------------------------

class AstGcnModel final : public core::ForecastModel {
 public:
  AstGcnModel(const CsrMatrix& geo_scaled_laplacian, std::size_t num_features,
              const NeuralBaselineConfig& config);
  [[nodiscard]] std::string name() const override { return "ASTGCN"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override;
  [[nodiscard]] Var training_loss(Tape& tape, const data::Window& w) override;
  [[nodiscard]] Matrix predict_on(Tape& tape, const data::Window& w) override;

 private:
  [[nodiscard]] Var forward(Tape& tape, const data::Window& w);
  NeuralBaselineConfig config_;
  CsrMatrix lap_;
  Rng rng_;
  nn::Linear query_;
  nn::Linear key_;
  nn::Linear value_;
  nn::ChebGcnLayer gcn_;
  nn::Linear temporal_score_;
  nn::Linear head_;
};

class GraphWaveNetModel final : public core::ForecastModel {
 public:
  GraphWaveNetModel(std::size_t num_nodes, std::size_t num_features,
                    const NeuralBaselineConfig& config);
  [[nodiscard]] std::string name() const override { return "GraphWaveNet"; }
  [[nodiscard]] std::vector<ad::Parameter*> parameters() override;
  [[nodiscard]] Var training_loss(Tape& tape, const data::Window& w) override;
  [[nodiscard]] Matrix predict_on(Tape& tape, const data::Window& w) override;

 private:
  [[nodiscard]] Var forward(Tape& tape, const data::Window& w);
  NeuralBaselineConfig config_;
  Rng rng_;
  ad::Parameter node_emb1_;  ///< N x e — adaptive-adjacency source factors
  ad::Parameter node_emb2_;  ///< N x e
  nn::Linear input_proj_;
  nn::Linear tcn1_filter_curr_, tcn1_filter_prev_;
  nn::Linear tcn1_gate_curr_, tcn1_gate_prev_;
  nn::Linear tcn2_filter_curr_, tcn2_filter_prev_;
  nn::Linear tcn2_gate_curr_, tcn2_gate_prev_;
  nn::Linear spatial1_;
  nn::Linear spatial2_;
  nn::Linear head_;
};

}  // namespace rihgcn::baselines
