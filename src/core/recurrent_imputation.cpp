#include "core/recurrent_imputation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rihgcn::core {

using ad::Tape;
using ad::Var;

namespace {

/// One direction's products, indexed by step t.
struct DirectionPass {
  std::vector<Var> z;
  std::vector<Var> estimates;  ///< X̂_t, valid where has_estimate[t]
  std::vector<char> has_estimate;
};

Matrix inverted(const Matrix& mask) {
  return map(mask, [](double v) { return 1.0 - v; });
}

/// `m` with every halo row (owned_row[i] == 0) zeroed; null keeps all rows.
Matrix owned_rows(Matrix m, const std::vector<char>* owned_row) {
  if (owned_row == nullptr) return m;
  const std::size_t cols = m.cols();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (!(*owned_row)[i]) {
      std::fill(m.data() + i * cols, m.data() + (i + 1) * cols, 0.0);
    }
  }
  return m;
}

DirectionPass run_direction(Tape& tape, const data::Window& w, bool reverse,
                            bool trainable, nn::Linear& estimator,
                            const DirectionEncoder& encoder) {
  const std::size_t steps = w.x_obs.size();
  DirectionPass pass;
  pass.z.resize(steps);
  pass.estimates.resize(steps);
  pass.has_estimate.assign(steps, 0);
  Var zero_est = tape.constant(
      Matrix(w.x_obs.front().rows(), w.x_obs.front().cols()));
  Var prev = zero_est;  // X̂ at the first visited step is zero
  const StepEncoder encode = encoder(reverse);
  bool have = false;
  for (std::size_t k = 0; k < steps; ++k) {
    const std::size_t t = reverse ? steps - 1 - k : k;
    Var est_used = zero_est;
    if (have) {
      pass.estimates[t] = prev;
      pass.has_estimate[t] = 1;
      // Detaching the estimate turns joint training into the classic
      // two-step impute-then-predict pipeline.
      est_used = trainable ? prev : tape.constant(tape.value(prev));
    }
    // Complement (Eq. 3): x_obs is already truth ⊙ mask.
    Var comp = tape.add(tape.constant(w.x_obs[t]),
                        tape.hadamard_const(est_used, inverted(w.x_mask[t])));
    pass.z[t] = encode(comp, t);
    prev = estimator.forward(tape, pass.z[t]);
    have = true;
  }
  return pass;
}

}  // namespace

void check_window(const data::Window& w, std::size_t lookback,
                  std::size_t horizon, const std::string& model) {
  const bool targets = !w.y.empty() || !w.y_mask.empty();
  if (w.x_obs.size() == lookback && w.x_mask.size() == lookback &&
      (!targets || (w.y.size() == horizon && w.y_mask.size() == horizon))) {
    return;
  }
  throw std::invalid_argument(
      model + ": window has " + std::to_string(w.x_obs.size()) +
      " input steps, " + std::to_string(w.x_mask.size()) + " mask steps, " +
      std::to_string(w.y.size()) + " target steps and " +
      std::to_string(w.y_mask.size()) + " target masks; the model reads " +
      std::to_string(lookback) + " steps and forecasts " +
      std::to_string(horizon));
}

ImputingForward impute_recurrently(Tape& tape, const data::Window& w,
                                   const DirectionEncoder& encoder,
                                   nn::Linear& est_fwd, nn::Linear* est_bwd,
                                   bool consistency, bool trainable,
                                   const std::vector<char>* owned_row) {
  const std::size_t steps = w.x_obs.size();
  const DirectionPass fwd =
      run_direction(tape, w, false, trainable, est_fwd, encoder);
  DirectionPass bwd;
  if (est_bwd != nullptr) {
    bwd = run_direction(tape, w, true, trainable, *est_bwd, encoder);
  }

  // ---- Imputation loss (Eq. 6) and the complement series -------------------
  ImputingForward out;
  Var acc;
  const auto accumulate = [&](Var term) {
    acc = acc.valid() ? tape.add(acc, term) : term;
  };
  out.complement.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    const bool hf = fwd.has_estimate[t] != 0;
    const bool hb = est_bwd != nullptr && bwd.has_estimate[t] != 0;
    if (!hf && !hb) {
      out.complement.push_back(w.x_obs[t]);
      continue;
    }
    const Var est =
        hf && hb ? tape.scale(tape.add(fwd.estimates[t], bwd.estimates[t]), 0.5)
                 : (hf ? fwd.estimates[t] : bwd.estimates[t]);
    // First term: error of the estimate against the observed entries.
    accumulate(tape.masked_mae(est, w.x_obs[t],
                               owned_rows(w.x_mask[t], owned_row)));
    if (hf && hb && consistency) {
      accumulate(tape.weighted_l1_between(
          fwd.estimates[t], bwd.estimates[t],
          owned_rows(inverted(w.x_mask[t]), owned_row)));
    }
    const Matrix& est_val = tape.value(est);
    Matrix comp = w.x_obs[t];
    for (std::size_t i = 0; i < comp.size(); ++i) {
      if (w.x_mask[t].data()[i] < 0.5) comp.data()[i] = est_val.data()[i];
    }
    out.complement.push_back(std::move(comp));
  }
  if (acc.valid()) {
    out.imputation_loss = tape.scale(acc, 1.0 / static_cast<double>(steps));
  }

  out.features.resize(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    out.features[t] =
        est_bwd != nullptr ? tape.concat_cols(fwd.z[t], bwd.z[t]) : fwd.z[t];
  }
  return out;
}

Var joint_loss(Tape& tape, const data::Window& w, Var prediction,
               Var imputation_loss, double lambda,
               const std::vector<char>* owned_row) {
  const std::size_t n = tape.value(prediction).rows();
  const std::size_t horizon = tape.value(prediction).cols();
  Matrix targets(n, horizon);
  Matrix weights(n, horizon);
  for (std::size_t t = 0; t < horizon; ++t) {
    targets.set_cols(t, w.y.at(t));
    weights.set_cols(t, w.y_mask.at(t));
  }
  Var loss = tape.masked_mae(prediction, targets,
                             owned_rows(std::move(weights), owned_row));
  if (!imputation_loss.valid() || lambda == 0.0) return loss;
  return tape.affine_combine(loss, 1.0, imputation_loss, lambda);
}

}  // namespace rihgcn::core
