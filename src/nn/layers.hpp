// Neural-network building blocks on top of the autodiff tape.
//
// Every layer owns its Parameters and exposes them through parameters() so
// an optimizer can update them; forward() methods take the Tape explicitly
// (one tape per forward/backward pass) and are const-incorrect on purpose —
// a forward pass never mutates layer state, only the tape.
//
// These are exactly the blocks the paper composes (§III): a generalized
// Chebyshev graph convolution (Eq. 1), a batched LSTM cell shared across
// nodes (Eq. 4), linear projections (Eq. 5 / the FC prediction head) and
// the temporal attention pooling of the attention heads.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "autodiff/tape.hpp"
#include "tensor/rng.hpp"

namespace rihgcn::nn {

using ad::Parameter;
using ad::Tape;
using ad::Var;

/// Xavier/Glorot uniform init: U(-a, a) with a = sqrt(6/(fan_in+fan_out)).
Matrix xavier_uniform(Rng& rng, std::size_t fan_in, std::size_t fan_out);

/// Anything that owns trainable parameters.
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  // Movable so layers can live in std::vector (parameters() is only called
  // after construction settles, so moved-from husks are never observed).
  Module(Module&&) = default;
  Module& operator=(Module&&) = default;

  /// Non-owning views of every trainable parameter (stable addresses).
  [[nodiscard]] virtual std::vector<Parameter*> parameters() = 0;

  /// Total scalar parameter count.
  [[nodiscard]] std::size_t num_parameters();
};

/// y = x W + b, with x: (batch x in), W: (in x out), b: (1 x out).
class Linear : public Module {
 public:
  Linear(std::size_t in_dim, std::size_t out_dim, Rng& rng,
         std::string name = "linear");

  [[nodiscard]] Var forward(Tape& tape, Var x);
  [[nodiscard]] std::vector<Parameter*> parameters() override;

  [[nodiscard]] std::size_t in_dim() const noexcept { return in_dim_; }
  [[nodiscard]] std::size_t out_dim() const noexcept { return out_dim_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  Parameter weight_;
  Parameter bias_;
};

/// Abstract batched recurrent cell: rows of the input are independent
/// sequence elements (here: road-network nodes, which share parameters per
/// the paper §III-E). LSTM is the paper's choice; GRU is provided as a
/// lighter drop-in (ablated in bench_ablation).
class RecurrentCell : public Module {
 public:
  struct State {
    Var h;  ///< batch x hidden
    Var c;  ///< batch x hidden (cells without a memory lane mirror h here)
  };

  /// Zero-initialized state for a batch of `batch` rows.
  [[nodiscard]] virtual State initial_state(Tape& tape,
                                            std::size_t batch) const = 0;
  /// One step: consumes x_t (batch x input_dim) and the previous state.
  [[nodiscard]] virtual State step(Tape& tape, Var x, const State& prev) = 0;
  [[nodiscard]] virtual std::size_t hidden_dim() const noexcept = 0;
  [[nodiscard]] virtual std::size_t input_dim() const noexcept = 0;

  /// Fused (default) routes step() through Tape::lstm_cell / Tape::gru_cell
  /// — 2-3 tape nodes per step instead of ~15-25. Unfused builds the
  /// elementary op chain; both produce bitwise-identical values and
  /// gradients (tests/test_tape_arena.cpp), so unfused exists for
  /// differential testing and as executable documentation of the math.
  void set_fused(bool fused) noexcept { fused_ = fused; }
  [[nodiscard]] bool fused() const noexcept { return fused_; }

 private:
  bool fused_ = true;
};

/// Which recurrent cell a model uses.
enum class CellKind { kLstm, kGru };

/// Batched LSTM cell. Gate layout along the 4H columns is [i | f | o | g].
class LstmCell : public RecurrentCell {
 public:
  LstmCell(std::size_t input_dim, std::size_t hidden_dim, Rng& rng,
           std::string name = "lstm");

  [[nodiscard]] State initial_state(Tape& tape,
                                    std::size_t batch) const override;
  [[nodiscard]] State step(Tape& tape, Var x, const State& prev) override;

  [[nodiscard]] std::vector<Parameter*> parameters() override;
  [[nodiscard]] std::size_t hidden_dim() const noexcept override {
    return hidden_dim_;
  }
  [[nodiscard]] std::size_t input_dim() const noexcept override {
    return input_dim_;
  }

 private:
  std::size_t input_dim_;
  std::size_t hidden_dim_;
  Parameter w_ih_;  ///< input_dim x 4H
  Parameter w_hh_;  ///< H x 4H
  Parameter bias_;  ///< 1 x 4H (forget-gate block initialized to 1)
};

/// Batched GRU cell (Cho et al. 2014). Gate layout along the 3H columns is
/// [r | z | n]; the candidate n applies the reset gate to the recurrent
/// term: n = tanh(x W_n + r ⊙ (h U_n) + b_n), h' = (1−z)⊙n + z⊙h.
class GruCell : public RecurrentCell {
 public:
  GruCell(std::size_t input_dim, std::size_t hidden_dim, Rng& rng,
          std::string name = "gru");

  [[nodiscard]] State initial_state(Tape& tape,
                                    std::size_t batch) const override;
  [[nodiscard]] State step(Tape& tape, Var x, const State& prev) override;

  [[nodiscard]] std::vector<Parameter*> parameters() override;
  [[nodiscard]] std::size_t hidden_dim() const noexcept override {
    return hidden_dim_;
  }
  [[nodiscard]] std::size_t input_dim() const noexcept override {
    return input_dim_;
  }

 private:
  std::size_t input_dim_;
  std::size_t hidden_dim_;
  Parameter w_ih_;  ///< input_dim x 3H
  Parameter w_hh_;  ///< H x 3H
  Parameter bias_;  ///< 1 x 3H
};

/// Factory over CellKind.
[[nodiscard]] std::unique_ptr<RecurrentCell> make_recurrent_cell(
    CellKind kind, std::size_t input_dim, std::size_t hidden_dim, Rng& rng,
    std::string name);

/// Order-K Chebyshev spectral graph convolution (paper Eq. 1):
///   y = Σ_{k=0}^{K-1} T_k(L̃) x Θ_k + b
/// where L̃ is the rescaled Laplacian 2L/λ_max − I (built by rihgcn::graph).
/// T_k is evaluated by the three-term recurrence, so cost is K - 1 SpMMs by
/// L̃ (the graph is not trained) plus K dense weight matmuls.
class ChebGcnLayer : public Module {
 public:
  ChebGcnLayer(std::size_t in_dim, std::size_t out_dim, std::size_t order,
               Rng& rng, std::string name = "cheb_gcn");

  /// x: (N x in_dim), scaled_laplacian: (N x N) in CSR form. The recurrence
  /// runs over Tape::spmm, so propagation costs O(nnz·in); with the CSR
  /// built at tol = 0 it is bitwise equal to dense matmul by L̃ (see
  /// tensor/csr.hpp). The CsrMatrix must outlive the tape.
  [[nodiscard]] Var forward(Tape& tape, Var x,
                            const CsrMatrix& scaled_laplacian);

  [[nodiscard]] std::vector<Parameter*> parameters() override;
  [[nodiscard]] std::size_t order() const noexcept { return order_; }
  [[nodiscard]] std::size_t in_dim() const noexcept { return in_dim_; }
  [[nodiscard]] std::size_t out_dim() const noexcept { return out_dim_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  std::size_t order_;
  std::vector<Parameter> theta_;  ///< K matrices, each in_dim x out_dim
  Parameter bias_;                ///< 1 x out_dim
};

/// Temporal attention pooling over per-step features zs[t] (N x C each):
/// α = row-softmax of [score(z_0) | ... | score(z_{T-1})] (N x T), and the
/// result is Σ_t α_t ⊙ z_t (N x C) — each node weighs its own steps.
[[nodiscard]] Var attention_pool(Tape& tape, Linear& score,
                                 const std::vector<Var>& zs);

/// Collect parameters from several modules into one flat list, in order.
[[nodiscard]] std::vector<Parameter*> collect_parameters(
    const std::vector<Module*>& modules);

}  // namespace rihgcn::nn
