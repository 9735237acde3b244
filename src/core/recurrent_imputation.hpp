// Recurrent imputation (paper §III-E, Eq. 3–7), written once for every model
// that imputes while it forecasts: RIHGCN, and its -I ablations FC-LSTM-I and
// FC-GCN-I (GCN-LSTM-I is RihgcnModel on zero temporal graphs). A model
// supplies only its per-step encoder and its head; this module runs the
// directions, builds the imputation loss and the complement series, and
// assembles the joint loss every tape model trains on.
//
//  * One direction (Eq. 3, 5): X̃_t = x_obs_t + (1−M_t)⊙X̂_t, z_t =
//    encoder(X̃_t), and the estimate for the next visited step is
//    X̂ = estimator(z_t). X̂ is zero at the first visited step, and stays in
//    the tape, so it receives delayed gradients through later complements.
//  * The combination (Eq. 6): L_m = mean over steps of the masked MAE of the
//    directions' mean estimate, plus |X̂ᶠ − X̂ᵇ| on missing entries where both
//    directions estimate step t (the consistency term).
//  * The joint loss (Eq. 7): L = L_c + λ·L_m, L_c the masked MAE of the
//    prediction over y_mask. The mean-filled baselines pass no L_m.
//
// Cluster sub-windows (DESIGN.md §13) pass `owned_row`: halo rows feed the
// encoder but weigh zero in every loss term.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "autodiff/tape.hpp"
#include "data/windows.hpp"
#include "nn/layers.hpp"

namespace rihgcn::core {

/// Throws std::invalid_argument naming `model` unless `w` holds `lookback`
/// steps of x_obs and x_mask and, when it carries targets, `horizon` steps
/// of y and y_mask. Every tape model checks its window with this before
/// reading it.
void check_window(const data::Window& w, std::size_t lookback,
                  std::size_t horizon, const std::string& model);

/// z_t = encode(X̃_t, t): one direction's per-step encoder. It keeps that
/// direction's recurrent state, if the model has one.
using StepEncoder = std::function<ad::Var(ad::Var complement, std::size_t t)>;
/// Builds the encoder of the forward (reverse = false) or backward pass,
/// once per pass, when the pass starts (after its zero X̂).
using DirectionEncoder = std::function<StepEncoder(bool reverse)>;

/// Forward products of a recurrent-imputation model.
struct ImputingForward {
  ad::Var prediction;       ///< N x horizon; set by the model's head
  ad::Var imputation_loss;  ///< scalar L_m; invalid when no step is estimated
  /// Per step: observed where observed, the mean estimate elsewhere — the
  /// model's imputation output (values, not tape nodes).
  std::vector<Matrix> complement;
  /// Per step head input: z_t, or [zᶠ_t | zᵇ_t] when bidirectional.
  std::vector<ad::Var> features;
};

/// Runs the forward pass with `est_fwd`, then the backward pass with
/// `est_bwd` unless it is null (unidirectional), and combines them.
/// `consistency` false drops Eq. 6's second term; `trainable` false feeds
/// each X̂ to the complement as a constant (the two-step ablation). Leaves
/// `prediction` to the caller.
[[nodiscard]] ImputingForward impute_recurrently(
    ad::Tape& tape, const data::Window& w, const DirectionEncoder& encoder,
    nn::Linear& est_fwd, nn::Linear* est_bwd, bool consistency,
    bool trainable, const std::vector<char>* owned_row = nullptr);

/// Eq. 7: the masked MAE of `prediction` (N x horizon) against y over
/// y_mask, plus lambda · `imputation_loss` when that is valid and lambda is
/// nonzero.
[[nodiscard]] ad::Var joint_loss(ad::Tape& tape, const data::Window& w,
                                 ad::Var prediction,
                                 ad::Var imputation_loss = {},
                                 double lambda = 0.0,
                                 const std::vector<char>* owned_row = nullptr);

}  // namespace rihgcn::core
