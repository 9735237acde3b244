#include "baselines/neural.hpp"

#include <cmath>
#include <stdexcept>

namespace rihgcn::baselines {

namespace {

void append(std::vector<ad::Parameter*>& out, std::vector<ad::Parameter*> v) {
  out.insert(out.end(), v.begin(), v.end());
}

Matrix inverted(const Matrix& mask) {
  return map(mask, [](double v) { return 1.0 - v; });
}

}  // namespace

Var build_prediction_loss(Tape& tape, Var prediction, const data::Window& w,
                          std::size_t horizon) {
  const std::size_t n = tape.value(prediction).rows();
  Matrix targets(n, horizon);
  Matrix weights(n, horizon);
  for (std::size_t t = 0; t < horizon; ++t) {
    targets.set_cols(t, w.y.at(t));
    weights.set_cols(t, w.y_mask.at(t));
  }
  return tape.masked_mae(prediction, targets, weights);
}

// ---- FcLstmModel -----------------------------------------------------------

FcLstmModel::FcLstmModel(std::size_t num_features,
                         const NeuralBaselineConfig& config)
    : config_(config),
      rng_(config.seed),
      lstm_(num_features, config.hidden, rng_, "fclstm.lstm"),
      head_(config.lookback * config.hidden, config.horizon, rng_,
            "fclstm.head") {}

Var FcLstmModel::forward(Tape& tape, const data::Window& w) {
  const std::size_t n = w.x_obs.front().rows();
  nn::LstmCell::State state = lstm_.initial_state(tape, n);
  std::vector<Var> hs;
  hs.reserve(config_.lookback);
  for (std::size_t t = 0; t < config_.lookback; ++t) {
    state = lstm_.step(tape, tape.constant(w.x_obs[t]), state);
    hs.push_back(state.h);
  }
  return head_.forward(tape, tape.concat_cols_many(hs));
}

std::vector<ad::Parameter*> FcLstmModel::parameters() {
  std::vector<ad::Parameter*> out;
  append(out, lstm_.parameters());
  append(out, head_.parameters());
  return out;
}

Var FcLstmModel::training_loss(Tape& tape, const data::Window& w) {
  return build_prediction_loss(tape, forward(tape, w), w, config_.horizon);
}

Matrix FcLstmModel::predict(const data::Window& w) {
  scratch_tape_.reset();
  return scratch_tape_.value(forward(scratch_tape_, w));
}

// ---- FcGcnModel -------------------------------------------------------------

FcGcnModel::FcGcnModel(const Matrix& geo_scaled_laplacian,
                       std::size_t num_features,
                       const NeuralBaselineConfig& config)
    : config_(config),
      lap_(CsrMatrix::from_dense(geo_scaled_laplacian)),
      rng_(config.seed),
      gcn_(num_features, config.hidden, config.cheb_order, rng_, "fcgcn.gcn"),
      head_(config.lookback * config.hidden, config.horizon, rng_,
            "fcgcn.head") {}

Var FcGcnModel::forward(Tape& tape, const data::Window& w) {
  std::vector<Var> ss;
  ss.reserve(config_.lookback);
  for (std::size_t t = 0; t < config_.lookback; ++t) {
    ss.push_back(
        tape.relu(gcn_.forward(tape, tape.constant(w.x_obs[t]), lap_)));
  }
  return head_.forward(tape, tape.concat_cols_many(ss));
}

std::vector<ad::Parameter*> FcGcnModel::parameters() {
  std::vector<ad::Parameter*> out;
  append(out, gcn_.parameters());
  append(out, head_.parameters());
  return out;
}

Var FcGcnModel::training_loss(Tape& tape, const data::Window& w) {
  return build_prediction_loss(tape, forward(tape, w), w, config_.horizon);
}

Matrix FcGcnModel::predict(const data::Window& w) {
  scratch_tape_.reset();
  return scratch_tape_.value(forward(scratch_tape_, w));
}

// ---- GcnLstmModel -----------------------------------------------------------

GcnLstmModel::GcnLstmModel(const Matrix& geo_scaled_laplacian,
                           std::size_t num_features,
                           const NeuralBaselineConfig& config)
    : config_(config),
      lap_(CsrMatrix::from_dense(geo_scaled_laplacian)),
      rng_(config.seed),
      gcn_(num_features, config.hidden, config.cheb_order, rng_,
           "gcnlstm.gcn"),
      lstm_(config.hidden, config.hidden, rng_, "gcnlstm.lstm"),
      head_(config.lookback * config.hidden, config.horizon, rng_,
            "gcnlstm.head") {}

Var GcnLstmModel::forward(Tape& tape, const data::Window& w) {
  const std::size_t n = w.x_obs.front().rows();
  nn::LstmCell::State state = lstm_.initial_state(tape, n);
  std::vector<Var> hs;
  hs.reserve(config_.lookback);
  for (std::size_t t = 0; t < config_.lookback; ++t) {
    Var s = tape.relu(gcn_.forward(tape, tape.constant(w.x_obs[t]), lap_));
    state = lstm_.step(tape, s, state);
    hs.push_back(state.h);
  }
  return head_.forward(tape, tape.concat_cols_many(hs));
}

std::vector<ad::Parameter*> GcnLstmModel::parameters() {
  std::vector<ad::Parameter*> out;
  append(out, gcn_.parameters());
  append(out, lstm_.parameters());
  append(out, head_.parameters());
  return out;
}

Var GcnLstmModel::training_loss(Tape& tape, const data::Window& w) {
  return build_prediction_loss(tape, forward(tape, w), w, config_.horizon);
}

Matrix GcnLstmModel::predict(const data::Window& w) {
  scratch_tape_.reset();
  return scratch_tape_.value(forward(scratch_tape_, w));
}

// ---- FcLstmIModel ----------------------------------------------------------

FcLstmIModel::FcLstmIModel(std::size_t num_features,
                           const NeuralBaselineConfig& config)
    : config_(config),
      num_features_(num_features),
      rng_(config.seed),
      lstm_f_(2 * num_features, config.hidden, rng_, "fclstmi.lstm_f"),
      lstm_b_(2 * num_features, config.hidden, rng_, "fclstmi.lstm_b"),
      est_f_(config.hidden, num_features, rng_, "fclstmi.est_f"),
      est_b_(config.hidden, num_features, rng_, "fclstmi.est_b"),
      head_(config.lookback * config.hidden * (config.bidirectional ? 2 : 1),
            config.horizon, rng_, "fclstmi.head") {}

FcLstmIModel::Pass FcLstmIModel::run(Tape& tape, const data::Window& w,
                                     bool reverse) {
  const std::size_t steps = config_.lookback;
  const std::size_t n = w.x_obs.front().rows();
  nn::LstmCell& lstm = reverse ? lstm_b_ : lstm_f_;
  nn::Linear& estimator = reverse ? est_b_ : est_f_;
  Pass pass;
  pass.h.resize(steps);
  pass.estimates.resize(steps);
  pass.has_estimate.assign(steps, 0);
  Var zero_est = tape.constant(Matrix(n, num_features_));
  Var prev = zero_est;
  bool have = false;
  nn::LstmCell::State state = lstm.initial_state(tape, n);
  for (std::size_t k = 0; k < steps; ++k) {
    const std::size_t t = reverse ? steps - 1 - k : k;
    Var est_used = zero_est;
    if (have) {
      pass.estimates[t] = prev;
      pass.has_estimate[t] = 1;
      est_used = prev;
    }
    Var comp = tape.add(tape.constant(w.x_obs[t]),
                        tape.hadamard_const(est_used, inverted(w.x_mask[t])));
    Var input = tape.concat_cols(comp, tape.constant(w.x_mask[t]));
    state = lstm.step(tape, input, state);
    pass.h[t] = state.h;
    prev = estimator.forward(tape, state.h);
    have = true;
  }
  return pass;
}

FcLstmIModel::Output FcLstmIModel::forward(Tape& tape, const data::Window& w) {
  const std::size_t steps = config_.lookback;
  Pass f = run(tape, w, false);
  Pass b;
  if (config_.bidirectional) b = run(tape, w, true);
  Output out;
  Var acc;
  auto accumulate = [&](Var term) {
    acc = out.has_imp ? tape.add(acc, term) : term;
    out.has_imp = true;
  };
  out.complement.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    const bool hf = f.has_estimate[t] != 0;
    const bool hb = config_.bidirectional && b.has_estimate[t] != 0;
    Var est;
    bool have = false;
    if (hf && hb) {
      est = tape.scale(tape.add(f.estimates[t], b.estimates[t]), 0.5);
      have = true;
    } else if (hf || hb) {
      est = hf ? f.estimates[t] : b.estimates[t];
      have = true;
    }
    if (have) {
      accumulate(tape.masked_mae(est, w.x_obs[t], w.x_mask[t]));
      if (hf && hb) {
        accumulate(tape.weighted_l1_between(f.estimates[t], b.estimates[t],
                                            inverted(w.x_mask[t])));
      }
      const Matrix& est_val = tape.value(est);
      Matrix comp = w.x_obs[t];
      for (std::size_t i = 0; i < comp.size(); ++i) {
        if (w.x_mask[t].data()[i] < 0.5) comp.data()[i] = est_val.data()[i];
      }
      out.complement.push_back(std::move(comp));
    } else {
      out.complement.push_back(w.x_obs[t]);
    }
  }
  if (out.has_imp) {
    out.imp_loss = tape.scale(acc, 1.0 / static_cast<double>(steps));
  }
  std::vector<Var> zs(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    zs[t] = config_.bidirectional ? tape.concat_cols(f.h[t], b.h[t]) : f.h[t];
  }
  out.prediction = head_.forward(tape, tape.concat_cols_many(zs));
  return out;
}

std::vector<ad::Parameter*> FcLstmIModel::parameters() {
  std::vector<ad::Parameter*> out;
  append(out, lstm_f_.parameters());
  append(out, est_f_.parameters());
  if (config_.bidirectional) {
    append(out, lstm_b_.parameters());
    append(out, est_b_.parameters());
  }
  append(out, head_.parameters());
  return out;
}

Var FcLstmIModel::training_loss(Tape& tape, const data::Window& w) {
  Output out = forward(tape, w);
  Var pred_loss =
      build_prediction_loss(tape, out.prediction, w, config_.horizon);
  if (!out.has_imp || config_.lambda == 0.0) return pred_loss;
  return tape.affine_combine(pred_loss, 1.0, out.imp_loss, config_.lambda);
}

Matrix FcLstmIModel::predict(const data::Window& w) {
  scratch_tape_.reset();
  return scratch_tape_.value(forward(scratch_tape_, w).prediction);
}

std::vector<Matrix> FcLstmIModel::impute(const data::Window& w) {
  scratch_tape_.reset();
  return std::move(forward(scratch_tape_, w).complement);
}

// ---- FcGcnIModel -------------------------------------------------------------

FcGcnIModel::FcGcnIModel(const Matrix& geo_scaled_laplacian,
                         std::size_t num_features,
                         const NeuralBaselineConfig& config)
    : config_(config),
      lap_(CsrMatrix::from_dense(geo_scaled_laplacian)),
      num_features_(num_features),
      rng_(config.seed),
      gcn_(2 * num_features, config.hidden, config.cheb_order, rng_,
           "fcgcni.gcn"),
      est_f_(config.hidden, num_features, rng_, "fcgcni.est_f"),
      est_b_(config.hidden, num_features, rng_, "fcgcni.est_b"),
      head_(config.lookback * config.hidden * (config.bidirectional ? 2 : 1),
            config.horizon, rng_, "fcgcni.head") {}

FcGcnIModel::Pass FcGcnIModel::run(Tape& tape, const data::Window& w,
                                   bool reverse) {
  const std::size_t steps = config_.lookback;
  const std::size_t n = w.x_obs.front().rows();
  nn::Linear& estimator = reverse ? est_b_ : est_f_;
  Pass pass;
  pass.s.resize(steps);
  pass.estimates.resize(steps);
  pass.has_estimate.assign(steps, 0);
  Var zero_est = tape.constant(Matrix(n, num_features_));
  Var prev = zero_est;
  bool have = false;
  for (std::size_t k = 0; k < steps; ++k) {
    const std::size_t t = reverse ? steps - 1 - k : k;
    Var est_used = zero_est;
    if (have) {
      pass.estimates[t] = prev;
      pass.has_estimate[t] = 1;
      est_used = prev;
    }
    Var comp = tape.add(tape.constant(w.x_obs[t]),
                        tape.hadamard_const(est_used, inverted(w.x_mask[t])));
    Var input = tape.concat_cols(comp, tape.constant(w.x_mask[t]));
    Var s = tape.relu(gcn_.forward(tape, input, lap_));
    pass.s[t] = s;
    prev = estimator.forward(tape, s);
    have = true;
  }
  return pass;
}

FcGcnIModel::Output FcGcnIModel::forward(Tape& tape, const data::Window& w) {
  const std::size_t steps = config_.lookback;
  Pass f = run(tape, w, false);
  Pass b;
  if (config_.bidirectional) b = run(tape, w, true);
  Output out;
  Var acc;
  auto accumulate = [&](Var term) {
    acc = out.has_imp ? tape.add(acc, term) : term;
    out.has_imp = true;
  };
  out.complement.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    const bool hf = f.has_estimate[t] != 0;
    const bool hb = config_.bidirectional && b.has_estimate[t] != 0;
    Var est;
    bool have = false;
    if (hf && hb) {
      est = tape.scale(tape.add(f.estimates[t], b.estimates[t]), 0.5);
      have = true;
    } else if (hf || hb) {
      est = hf ? f.estimates[t] : b.estimates[t];
      have = true;
    }
    if (have) {
      accumulate(tape.masked_mae(est, w.x_obs[t], w.x_mask[t]));
      if (hf && hb) {
        accumulate(tape.weighted_l1_between(f.estimates[t], b.estimates[t],
                                            inverted(w.x_mask[t])));
      }
      const Matrix& est_val = tape.value(est);
      Matrix comp = w.x_obs[t];
      for (std::size_t i = 0; i < comp.size(); ++i) {
        if (w.x_mask[t].data()[i] < 0.5) comp.data()[i] = est_val.data()[i];
      }
      out.complement.push_back(std::move(comp));
    } else {
      out.complement.push_back(w.x_obs[t]);
    }
  }
  if (out.has_imp) {
    out.imp_loss = tape.scale(acc, 1.0 / static_cast<double>(steps));
  }
  std::vector<Var> zs(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    zs[t] = config_.bidirectional ? tape.concat_cols(f.s[t], b.s[t]) : f.s[t];
  }
  out.prediction = head_.forward(tape, tape.concat_cols_many(zs));
  return out;
}

std::vector<ad::Parameter*> FcGcnIModel::parameters() {
  std::vector<ad::Parameter*> out;
  append(out, gcn_.parameters());
  append(out, est_f_.parameters());
  if (config_.bidirectional) append(out, est_b_.parameters());
  append(out, head_.parameters());
  return out;
}

Var FcGcnIModel::training_loss(Tape& tape, const data::Window& w) {
  Output out = forward(tape, w);
  Var pred_loss =
      build_prediction_loss(tape, out.prediction, w, config_.horizon);
  if (!out.has_imp || config_.lambda == 0.0) return pred_loss;
  return tape.affine_combine(pred_loss, 1.0, out.imp_loss, config_.lambda);
}

Matrix FcGcnIModel::predict(const data::Window& w) {
  scratch_tape_.reset();
  return scratch_tape_.value(forward(scratch_tape_, w).prediction);
}

std::vector<Matrix> FcGcnIModel::impute(const data::Window& w) {
  scratch_tape_.reset();
  return std::move(forward(scratch_tape_, w).complement);
}

// ---- AstGcnModel ----------------------------------------------------------

AstGcnModel::AstGcnModel(const Matrix& geo_scaled_laplacian,
                         std::size_t num_features,
                         const NeuralBaselineConfig& config)
    : config_(config),
      lap_(CsrMatrix::from_dense(geo_scaled_laplacian)),
      rng_(config.seed),
      query_(num_features, config.hidden, rng_, "astgcn.q"),
      key_(num_features, config.hidden, rng_, "astgcn.k"),
      value_(num_features, config.hidden, rng_, "astgcn.v"),
      gcn_(num_features, config.hidden, config.cheb_order, rng_,
           "astgcn.gcn"),
      temporal_score_(config.hidden, 1, rng_, "astgcn.tscore"),
      head_(config.hidden, config.horizon, rng_, "astgcn.head") {}

Var AstGcnModel::forward(Tape& tape, const data::Window& w) {
  const std::size_t steps = config_.lookback;
  const double inv_sqrt =
      1.0 / std::sqrt(static_cast<double>(config_.hidden));
  std::vector<Var> ss(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    Var x = tape.constant(w.x_obs[t]);
    // Spatial attention: data-driven node-to-node mixing this timestep.
    Var q = query_.forward(tape, x);
    Var k = key_.forward(tape, x);
    Var att = tape.softmax_rows(
        tape.scale(tape.matmul(q, tape.transpose(k)), inv_sqrt));
    Var attended = tape.matmul(att, value_.forward(tape, x));
    // Chebyshev graph convolution on the static geographic graph.
    Var conv = gcn_.forward(tape, x, lap_);
    ss[t] = tape.relu(tape.add(attended, conv));
  }
  // Temporal attention: per-node softmax over the lookback steps.
  std::vector<Var> scores(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    scores[t] = temporal_score_.forward(tape, ss[t]);
  }
  Var alpha = tape.softmax_rows(tape.concat_cols_many(scores));
  Var mixed;
  for (std::size_t t = 0; t < steps; ++t) {
    Var weighted =
        tape.mul_col_broadcast(ss[t], tape.slice_cols(alpha, t, t + 1));
    mixed = t == 0 ? weighted : tape.add(mixed, weighted);
  }
  return head_.forward(tape, mixed);
}

std::vector<ad::Parameter*> AstGcnModel::parameters() {
  std::vector<ad::Parameter*> out;
  append(out, query_.parameters());
  append(out, key_.parameters());
  append(out, value_.parameters());
  append(out, gcn_.parameters());
  append(out, temporal_score_.parameters());
  append(out, head_.parameters());
  return out;
}

Var AstGcnModel::training_loss(Tape& tape, const data::Window& w) {
  return build_prediction_loss(tape, forward(tape, w), w, config_.horizon);
}

Matrix AstGcnModel::predict(const data::Window& w) {
  scratch_tape_.reset();
  return scratch_tape_.value(forward(scratch_tape_, w));
}

// ---- GraphWaveNetModel ------------------------------------------------------

GraphWaveNetModel::GraphWaveNetModel(std::size_t num_nodes,
                                     std::size_t num_features,
                                     const NeuralBaselineConfig& config)
    : config_(config),
      rng_(config.seed),
      node_emb1_(rng_.normal_matrix(num_nodes, 8, 0.3), "gwn.emb1"),
      node_emb2_(rng_.normal_matrix(num_nodes, 8, 0.3), "gwn.emb2"),
      input_proj_(num_features, config.hidden, rng_, "gwn.in"),
      tcn1_filter_curr_(config.hidden, config.hidden, rng_, "gwn.t1fc"),
      tcn1_filter_prev_(config.hidden, config.hidden, rng_, "gwn.t1fp"),
      tcn1_gate_curr_(config.hidden, config.hidden, rng_, "gwn.t1gc"),
      tcn1_gate_prev_(config.hidden, config.hidden, rng_, "gwn.t1gp"),
      tcn2_filter_curr_(config.hidden, config.hidden, rng_, "gwn.t2fc"),
      tcn2_filter_prev_(config.hidden, config.hidden, rng_, "gwn.t2fp"),
      tcn2_gate_curr_(config.hidden, config.hidden, rng_, "gwn.t2gc"),
      tcn2_gate_prev_(config.hidden, config.hidden, rng_, "gwn.t2gp"),
      spatial1_(config.hidden, config.hidden, rng_, "gwn.sp1"),
      spatial2_(config.hidden, config.hidden, rng_, "gwn.sp2"),
      head_(config.lookback * config.hidden, config.horizon, rng_,
            "gwn.head") {}

Var GraphWaveNetModel::forward(Tape& tape, const data::Window& w) {
  const std::size_t steps = config_.lookback;
  const std::size_t n = w.x_obs.front().rows();
  // Adaptive adjacency from learned node embeddings (Graph WaveNet's
  // signature mechanism) — built once per forward pass.
  Var adaptive = tape.softmax_rows(tape.relu(
      tape.matmul(tape.leaf(node_emb1_), tape.transpose(tape.leaf(node_emb2_)))));
  Var zeros = tape.constant(Matrix(n, config_.hidden));

  std::vector<Var> v(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    v[t] = input_proj_.forward(tape, tape.constant(w.x_obs[t]));
  }
  // Gated TCN layer 1 (dilation 1) + adaptive-graph spatial mixing.
  std::vector<Var> u(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    Var prev = t >= 1 ? v[t - 1] : zeros;
    Var filt = tape.tanh(tape.add(tcn1_filter_curr_.forward(tape, v[t]),
                                  tcn1_filter_prev_.forward(tape, prev)));
    Var gate = tape.sigmoid(tape.add(tcn1_gate_curr_.forward(tape, v[t]),
                                     tcn1_gate_prev_.forward(tape, prev)));
    Var g = tape.mul(filt, gate);
    u[t] = tape.relu(
        tape.add(g, tape.matmul(adaptive, spatial1_.forward(tape, g))));
  }
  // Gated TCN layer 2 (dilation 2) + spatial mixing, residual from layer 1.
  std::vector<Var> z(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    Var prev = t >= 2 ? u[t - 2] : zeros;
    Var filt = tape.tanh(tape.add(tcn2_filter_curr_.forward(tape, u[t]),
                                  tcn2_filter_prev_.forward(tape, prev)));
    Var gate = tape.sigmoid(tape.add(tcn2_gate_curr_.forward(tape, u[t]),
                                     tcn2_gate_prev_.forward(tape, prev)));
    Var g = tape.mul(filt, gate);
    Var mixed = tape.add(g, tape.matmul(adaptive, spatial2_.forward(tape, g)));
    z[t] = tape.relu(tape.add(mixed, u[t]));
  }
  return head_.forward(tape, tape.concat_cols_many(z));
}

std::vector<ad::Parameter*> GraphWaveNetModel::parameters() {
  std::vector<ad::Parameter*> out{&node_emb1_, &node_emb2_};
  append(out, input_proj_.parameters());
  append(out, tcn1_filter_curr_.parameters());
  append(out, tcn1_filter_prev_.parameters());
  append(out, tcn1_gate_curr_.parameters());
  append(out, tcn1_gate_prev_.parameters());
  append(out, tcn2_filter_curr_.parameters());
  append(out, tcn2_filter_prev_.parameters());
  append(out, tcn2_gate_curr_.parameters());
  append(out, tcn2_gate_prev_.parameters());
  append(out, spatial1_.parameters());
  append(out, spatial2_.parameters());
  append(out, head_.parameters());
  return out;
}

Var GraphWaveNetModel::training_loss(Tape& tape, const data::Window& w) {
  return build_prediction_loss(tape, forward(tape, w), w, config_.horizon);
}

Matrix GraphWaveNetModel::predict(const data::Window& w) {
  scratch_tape_.reset();
  return scratch_tape_.value(forward(scratch_tape_, w));
}

}  // namespace rihgcn::baselines
