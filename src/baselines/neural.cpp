#include "baselines/neural.hpp"

#include <cmath>

namespace rihgcn::baselines {

// ---- FcLstmModel -----------------------------------------------------------

FcLstmModel::FcLstmModel(std::size_t num_features,
                         const NeuralBaselineConfig& config)
    : config_(config),
      rng_(config.seed),
      lstm_(num_features, config.hidden, rng_, "fclstm.lstm"),
      head_(config.lookback * config.hidden, config.horizon, rng_,
            "fclstm.head") {}

Var FcLstmModel::forward(Tape& tape, const data::Window& w) {
  core::check_window(w, config_.lookback, config_.horizon, name());
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
  return nn::collect_parameters({&lstm_, &head_});
}

Var FcLstmModel::training_loss(Tape& tape, const data::Window& w) {
  return core::joint_loss(tape, w, forward(tape, w));
}

Matrix FcLstmModel::predict_on(Tape& tape, const data::Window& w) {
  return tape.value(forward(tape, w));
}

// ---- FcGcnModel -------------------------------------------------------------

FcGcnModel::FcGcnModel(const CsrMatrix& geo_scaled_laplacian,
                       std::size_t num_features,
                       const NeuralBaselineConfig& config)
    : config_(config),
      lap_(geo_scaled_laplacian),
      rng_(config.seed),
      gcn_(num_features, config.hidden, config.cheb_order, rng_, "fcgcn.gcn"),
      head_(config.lookback * config.hidden, config.horizon, rng_,
            "fcgcn.head") {}

Var FcGcnModel::forward(Tape& tape, const data::Window& w) {
  core::check_window(w, config_.lookback, config_.horizon, name());
  std::vector<Var> ss;
  ss.reserve(config_.lookback);
  for (std::size_t t = 0; t < config_.lookback; ++t) {
    ss.push_back(
        tape.relu(gcn_.forward(tape, tape.constant(w.x_obs[t]), lap_)));
  }
  return head_.forward(tape, tape.concat_cols_many(ss));
}

std::vector<ad::Parameter*> FcGcnModel::parameters() {
  return nn::collect_parameters({&gcn_, &head_});
}

Var FcGcnModel::training_loss(Tape& tape, const data::Window& w) {
  return core::joint_loss(tape, w, forward(tape, w));
}

Matrix FcGcnModel::predict_on(Tape& tape, const data::Window& w) {
  return tape.value(forward(tape, w));
}

// ---- GcnLstmModel -----------------------------------------------------------

GcnLstmModel::GcnLstmModel(const CsrMatrix& geo_scaled_laplacian,
                           std::size_t num_features,
                           const NeuralBaselineConfig& config)
    : config_(config),
      lap_(geo_scaled_laplacian),
      rng_(config.seed),
      gcn_(num_features, config.hidden, config.cheb_order, rng_,
           "gcnlstm.gcn"),
      lstm_(config.hidden, config.hidden, rng_, "gcnlstm.lstm"),
      head_(config.lookback * config.hidden, config.horizon, rng_,
            "gcnlstm.head") {}

Var GcnLstmModel::forward(Tape& tape, const data::Window& w) {
  core::check_window(w, config_.lookback, config_.horizon, name());
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
  return nn::collect_parameters({&gcn_, &lstm_, &head_});
}

Var GcnLstmModel::training_loss(Tape& tape, const data::Window& w) {
  return core::joint_loss(tape, w, forward(tape, w));
}

Matrix GcnLstmModel::predict_on(Tape& tape, const data::Window& w) {
  return tape.value(forward(tape, w));
}

// ---- FcLstmIModel ----------------------------------------------------------

FcLstmIModel::FcLstmIModel(std::size_t num_features,
                           const NeuralBaselineConfig& config)
    : config_(config),
      rng_(config.seed),
      lstm_f_(2 * num_features, config.hidden, rng_, "fclstmi.lstm_f"),
      lstm_b_(2 * num_features, config.hidden, rng_, "fclstmi.lstm_b"),
      est_f_(config.hidden, num_features, rng_, "fclstmi.est_f"),
      est_b_(config.hidden, num_features, rng_, "fclstmi.est_b"),
      head_(config.lookback * config.hidden * (config.bidirectional ? 2 : 1),
            config.horizon, rng_, "fclstmi.head") {}

core::ImputingForward FcLstmIModel::forward(Tape& tape,
                                            const data::Window& w) {
  core::check_window(w, config_.lookback, config_.horizon, name());
  const std::size_t n = w.x_obs.front().rows();
  // Per step: the direction's LSTM reads [X̃_t | M_t]; z_t is its h_t.
  const auto encoder = [&](bool reverse) -> core::StepEncoder {
    nn::LstmCell& lstm = reverse ? lstm_b_ : lstm_f_;
    return [&, state = lstm.initial_state(tape, n)](Var comp,
                                                    std::size_t t) mutable {
      state = lstm.step(
          tape, tape.concat_cols(comp, tape.constant(w.x_mask[t])), state);
      return state.h;
    };
  };
  core::ImputingForward out = core::impute_recurrently(
      tape, w, encoder, est_f_, config_.bidirectional ? &est_b_ : nullptr,
      /*consistency=*/true, /*trainable=*/true);
  out.prediction = head_.forward(tape, tape.concat_cols_many(out.features));
  return out;
}

std::vector<ad::Parameter*> FcLstmIModel::parameters() {
  std::vector<nn::Module*> modules{&lstm_f_, &est_f_};
  if (config_.bidirectional) modules.insert(modules.end(), {&lstm_b_, &est_b_});
  modules.push_back(&head_);
  return nn::collect_parameters(modules);
}

Var FcLstmIModel::training_loss(Tape& tape, const data::Window& w) {
  const core::ImputingForward out = forward(tape, w);
  return core::joint_loss(tape, w, out.prediction, out.imputation_loss,
                          config_.lambda);
}

Matrix FcLstmIModel::predict_on(Tape& tape, const data::Window& w) {
  return tape.value(forward(tape, w).prediction);
}

std::vector<Matrix> FcLstmIModel::impute(const data::Window& w) {
  return std::move(forward(scratch_tape(), w).complement);
}

// ---- FcGcnIModel -------------------------------------------------------------

FcGcnIModel::FcGcnIModel(const CsrMatrix& geo_scaled_laplacian,
                         std::size_t num_features,
                         const NeuralBaselineConfig& config)
    : config_(config),
      lap_(geo_scaled_laplacian),
      rng_(config.seed),
      gcn_(2 * num_features, config.hidden, config.cheb_order, rng_,
           "fcgcni.gcn"),
      est_f_(config.hidden, num_features, rng_, "fcgcni.est_f"),
      est_b_(config.hidden, num_features, rng_, "fcgcni.est_b"),
      head_(config.lookback * config.hidden * (config.bidirectional ? 2 : 1),
            config.horizon, rng_, "fcgcni.head") {}

core::ImputingForward FcGcnIModel::forward(Tape& tape, const data::Window& w) {
  core::check_window(w, config_.lookback, config_.horizon, name());
  // Per step, both directions: z_t = ReLU(GCN([X̃_t | M_t])).
  const auto encoder = [&](bool) -> core::StepEncoder {
    return [&](Var comp, std::size_t t) {
      return tape.relu(gcn_.forward(
          tape, tape.concat_cols(comp, tape.constant(w.x_mask[t])), lap_));
    };
  };
  core::ImputingForward out = core::impute_recurrently(
      tape, w, encoder, est_f_, config_.bidirectional ? &est_b_ : nullptr,
      /*consistency=*/true, /*trainable=*/true);
  out.prediction = head_.forward(tape, tape.concat_cols_many(out.features));
  return out;
}

std::vector<ad::Parameter*> FcGcnIModel::parameters() {
  std::vector<nn::Module*> modules{&gcn_, &est_f_};
  if (config_.bidirectional) modules.push_back(&est_b_);
  modules.push_back(&head_);
  return nn::collect_parameters(modules);
}

Var FcGcnIModel::training_loss(Tape& tape, const data::Window& w) {
  const core::ImputingForward out = forward(tape, w);
  return core::joint_loss(tape, w, out.prediction, out.imputation_loss,
                          config_.lambda);
}

Matrix FcGcnIModel::predict_on(Tape& tape, const data::Window& w) {
  return tape.value(forward(tape, w).prediction);
}

std::vector<Matrix> FcGcnIModel::impute(const data::Window& w) {
  return std::move(forward(scratch_tape(), w).complement);
}

// ---- AstGcnModel ----------------------------------------------------------

AstGcnModel::AstGcnModel(const CsrMatrix& geo_scaled_laplacian,
                         std::size_t num_features,
                         const NeuralBaselineConfig& config)
    : config_(config),
      lap_(geo_scaled_laplacian),
      rng_(config.seed),
      query_(num_features, config.hidden, rng_, "astgcn.q"),
      key_(num_features, config.hidden, rng_, "astgcn.k"),
      value_(num_features, config.hidden, rng_, "astgcn.v"),
      gcn_(num_features, config.hidden, config.cheb_order, rng_,
           "astgcn.gcn"),
      temporal_score_(config.hidden, 1, rng_, "astgcn.tscore"),
      head_(config.hidden, config.horizon, rng_, "astgcn.head") {}

Var AstGcnModel::forward(Tape& tape, const data::Window& w) {
  core::check_window(w, config_.lookback, config_.horizon, name());
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
  return head_.forward(tape, nn::attention_pool(tape, temporal_score_, ss));
}

std::vector<ad::Parameter*> AstGcnModel::parameters() {
  return nn::collect_parameters(
      {&query_, &key_, &value_, &gcn_, &temporal_score_, &head_});
}

Var AstGcnModel::training_loss(Tape& tape, const data::Window& w) {
  return core::joint_loss(tape, w, forward(tape, w));
}

Matrix AstGcnModel::predict_on(Tape& tape, const data::Window& w) {
  return tape.value(forward(tape, w));
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
  core::check_window(w, config_.lookback, config_.horizon, name());
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
  const std::vector<ad::Parameter*> layers = nn::collect_parameters(
      {&input_proj_, &tcn1_filter_curr_, &tcn1_filter_prev_, &tcn1_gate_curr_,
       &tcn1_gate_prev_, &tcn2_filter_curr_, &tcn2_filter_prev_,
       &tcn2_gate_curr_, &tcn2_gate_prev_, &spatial1_, &spatial2_, &head_});
  out.insert(out.end(), layers.begin(), layers.end());
  return out;
}

Var GraphWaveNetModel::training_loss(Tape& tape, const data::Window& w) {
  return core::joint_loss(tape, w, forward(tape, w));
}

Matrix GraphWaveNetModel::predict_on(Tape& tape, const data::Window& w) {
  return tape.value(forward(tape, w));
}

}  // namespace rihgcn::baselines
