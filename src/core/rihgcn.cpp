#include "core/rihgcn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "graph/cluster.hpp"

namespace rihgcn::core {

using ad::Tape;
using ad::Var;

// ---- HgcnBlock -------------------------------------------------------------

HgcnBlock::HgcnBlock(const HeterogeneousGraphs& graphs, std::size_t in_dim,
                     std::size_t out_dim, std::size_t cheb_order, Rng& rng)
    : graphs_(graphs),
      out_dim_(out_dim),
      geo_layer_(in_dim, out_dim, cheb_order, rng, "hgcn.geo") {
  temporal_layers_.reserve(graphs.num_temporal());
  for (std::size_t m = 0; m < graphs.num_temporal(); ++m) {
    temporal_layers_.emplace_back(in_dim, out_dim, cheb_order, rng,
                                  "hgcn.temporal" + std::to_string(m));
  }
}

HgcnBlock::Laps HgcnBlock::make_laps() const {
  Laps laps;
  laps.geo = graphs_.geographic_scaled_laplacian_csr();
  laps.temporal.reserve(graphs_.num_temporal());
  for (std::size_t m = 0; m < graphs_.num_temporal(); ++m) {
    laps.temporal.push_back(graphs_.temporal_scaled_laplacian_csr(m));
  }
  return laps;
}

Var HgcnBlock::forward(Tape& tape, Var x, std::size_t slot, const Laps& laps) {
  Var acc = geo_layer_.forward(tape, x, laps.geo);
  const std::vector<double> w = graphs_.interval_weights(slot);
  for (std::size_t m = 0; m < temporal_layers_.size(); ++m) {
    if (w[m] <= 1e-8) continue;  // negligible mixture weight: skip the GCN
    Var out = temporal_layers_[m].forward(tape, x, laps.temporal[m]);
    acc = tape.add(acc, tape.scale(out, w[m]));
  }
  return tape.relu(acc);
}

std::vector<ad::Parameter*> HgcnBlock::parameters() {
  std::vector<ad::Parameter*> out = geo_layer_.parameters();
  for (auto& layer : temporal_layers_) {
    for (ad::Parameter* p : layer.parameters()) out.push_back(p);
  }
  return out;
}

// ---- RihgcnModel ----------------------------------------------------------

namespace {

std::size_t z_width(const RihgcnConfig& c) {
  const std::size_t one = c.gcn_dim + c.lstm_dim;
  return c.bidirectional ? 2 * one : one;
}

std::size_t head_in_width(const RihgcnConfig& c) {
  return c.head == RihgcnConfig::Head::kConcat ? c.lookback * z_width(c)
                                               : z_width(c);
}

/// Rejects sizes no module can be built with. Runs in config_'s
/// initializer, before any module is constructed.
const RihgcnConfig& checked(const RihgcnConfig& c) {
  if (c.lookback == 0 || c.horizon == 0) {
    throw std::invalid_argument("RihgcnModel: zero lookback/horizon");
  }
  if (c.gcn_dim == 0 || c.lstm_dim == 0) {
    throw std::invalid_argument("RihgcnModel: zero gcn_dim/lstm_dim");
  }
  if (c.cheb_order == 0) {
    throw std::invalid_argument("RihgcnModel: cheb_order must be >= 1");
  }
  if (c.hgcn_layers == 0 || c.hgcn_layers > 2) {
    throw std::invalid_argument("RihgcnModel: hgcn_layers must be 1 or 2");
  }
  return c;
}

}  // namespace

RihgcnModel::RihgcnModel(const HeterogeneousGraphs& graphs,
                         std::size_t num_nodes, std::size_t num_features,
                         const RihgcnConfig& config)
    : graphs_(graphs),
      config_(checked(config)),
      num_features_(num_features),
      init_rng_(config.seed),
      hgcn_(graphs, num_features, config.gcn_dim, config.cheb_order, init_rng_),
      laps_(hgcn_.make_laps()),
      hgcn2_(config.hgcn_layers >= 2
                 ? std::make_unique<HgcnBlock>(graphs, config.gcn_dim,
                                               config.gcn_dim,
                                               config.cheb_order, init_rng_)
                 : nullptr),
      rnn_fwd_(nn::make_recurrent_cell(config.cell,
                                       config.gcn_dim + num_features,
                                       config.lstm_dim, init_rng_,
                                       "lstm_fwd")),
      rnn_bwd_(nn::make_recurrent_cell(config.cell,
                                       config.gcn_dim + num_features,
                                       config.lstm_dim, init_rng_,
                                       "lstm_bwd")),
      est_fwd_(config.gcn_dim + config.lstm_dim, num_features, init_rng_,
               "est_fwd"),
      est_bwd_(config.gcn_dim + config.lstm_dim, num_features, init_rng_,
               "est_bwd"),
      head_(head_in_width(config), config.horizon, init_rng_, "head"),
      attn_score_(z_width(config), 1, init_rng_, "attn_score") {
  if (num_nodes != graphs.num_nodes()) {
    throw std::invalid_argument("RihgcnModel: node count mismatch with graphs");
  }
  rnn_fwd_->set_fused(config_.use_fused_cells);
  rnn_bwd_->set_fused(config_.use_fused_cells);
}

std::vector<ad::Parameter*> RihgcnModel::parameters() {
  std::vector<ad::Parameter*> out = hgcn_.parameters();
  if (hgcn2_) {
    const auto extra = hgcn2_->parameters();
    out.insert(out.end(), extra.begin(), extra.end());
  }
  auto append = [&out](std::vector<ad::Parameter*> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  append(rnn_fwd_->parameters());
  append(est_fwd_.parameters());
  if (config_.bidirectional) {
    append(rnn_bwd_->parameters());
    append(est_bwd_.parameters());
  }
  append(head_.parameters());
  if (config_.head == RihgcnConfig::Head::kAttention) {
    append(attn_score_.parameters());
  }
  return out;
}

RihgcnModel::DirectionResult RihgcnModel::run_direction(
    Tape& tape, const data::Window& w, bool reverse,
    const HgcnBlock::Laps& laps) {
  const std::size_t steps = config_.lookback;
  if (w.x_obs.size() != steps) {
    throw std::invalid_argument("RihgcnModel: window lookback mismatch");
  }
  const std::size_t n = w.x_obs.front().rows();
  nn::RecurrentCell& lstm = reverse ? *rnn_bwd_ : *rnn_fwd_;
  nn::Linear& estimator = reverse ? est_bwd_ : est_fwd_;

  DirectionResult result;
  result.z.resize(steps);
  result.estimates.resize(steps);
  result.has_estimate.assign(steps, 0);

  Var zero_est = tape.constant(Matrix(n, num_features_));
  Var prev_estimate = zero_est;  // X̂ at the first visited step is zero
  bool have_estimate = false;
  nn::RecurrentCell::State state = lstm.initial_state(tape, n);

  for (std::size_t k = 0; k < steps; ++k) {
    const std::size_t t = reverse ? steps - 1 - k : k;
    const Matrix& mask = w.x_mask[t];
    Matrix inv_mask = map(mask, [](double v) { return 1.0 - v; });
    Var est_used = zero_est;
    if (have_estimate) {
      result.estimates[t] = prev_estimate;
      result.has_estimate[t] = 1;
      // Ablation: detaching the estimate turns joint training into the
      // classic two-step impute-then-predict pipeline.
      est_used = config_.trainable_imputation
                     ? prev_estimate
                     : tape.constant(tape.value(prev_estimate));
    }
    // Complement (Eq. 3): x_obs is already truth ⊙ mask.
    Var comp = tape.add(tape.constant(w.x_obs[t]),
                        tape.hadamard_const(est_used, inv_mask));
    const std::size_t slot =
        (w.slot + t) % graphs_.steps_per_day();
    Var s = hgcn_.forward(tape, comp, slot, laps);
    if (hgcn2_) s = hgcn2_->forward(tape, s, slot, laps);
    Var lstm_in = tape.concat_cols(s, tape.constant(mask));
    state = lstm.step(tape, lstm_in, state);
    Var z = tape.concat_cols(s, state.h);
    result.z[t] = z;
    prev_estimate = estimator.forward(tape, z);
    have_estimate = true;
  }
  return result;
}

RihgcnModel::ForwardOutput RihgcnModel::forward(Tape& tape,
                                                const data::Window& w) {
  return forward_impl(tape, w, laps_, nullptr);
}

RihgcnModel::ForwardOutput RihgcnModel::forward_impl(
    Tape& tape, const data::Window& w, const HgcnBlock::Laps& laps,
    const std::vector<char>* owned_row) {
  const std::size_t steps = config_.lookback;
  DirectionResult fwd = run_direction(tape, w, /*reverse=*/false, laps);
  DirectionResult bwd;
  if (config_.bidirectional) {
    bwd = run_direction(tape, w, /*reverse=*/true, laps);
  }

  // ---- Imputation loss (Eq. 6) -------------------------------------------
  ForwardOutput out;
  Var imp_acc;
  bool have_imp = false;
  auto accumulate = [&](Var term) {
    imp_acc = have_imp ? tape.add(imp_acc, term) : term;
    have_imp = true;
  };
  out.complement.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    const bool hf = fwd.has_estimate[t] != 0;
    const bool hb = config_.bidirectional && bwd.has_estimate[t] != 0;
    Var est_avg;
    bool have_avg = false;
    if (hf && hb) {
      est_avg = tape.scale(tape.add(fwd.estimates[t], bwd.estimates[t]), 0.5);
      have_avg = true;
    } else if (hf) {
      est_avg = fwd.estimates[t];
      have_avg = true;
    } else if (hb) {
      est_avg = bwd.estimates[t];
      have_avg = true;
    }
    if (have_avg) {
      // Halo rows of a cluster sub-window contribute features upstream but
      // never loss; zeroing their weight rows keeps masked_mae (which
      // normalizes by the weight sum) restricted to owned nodes.
      const auto zero_halo_rows = [owned_row](Matrix m) {
        const std::size_t cols = m.cols();
        for (std::size_t i = 0; i < m.rows(); ++i) {
          if (!(*owned_row)[i]) {
            std::fill(m.data() + i * cols, m.data() + (i + 1) * cols, 0.0);
          }
        }
        return m;
      };
      // First term: error of the estimate against observed entries.
      if (owned_row == nullptr) {
        accumulate(tape.masked_mae(est_avg, w.x_obs[t], w.x_mask[t]));
      } else {
        accumulate(tape.masked_mae(est_avg, w.x_obs[t],
                                   zero_halo_rows(w.x_mask[t])));
      }
      if (hf && hb && config_.use_consistency) {
        Matrix inv_mask =
            map(w.x_mask[t], [](double v) { return 1.0 - v; });
        if (owned_row != nullptr) inv_mask = zero_halo_rows(std::move(inv_mask));
        accumulate(tape.weighted_l1_between(fwd.estimates[t],
                                            bwd.estimates[t], inv_mask));
      }
      // Imputation output: observed where observed, estimate elsewhere.
      const Matrix& est_val = tape.value(est_avg);
      Matrix comp = w.x_obs[t];
      for (std::size_t i = 0; i < comp.size(); ++i) {
        if (w.x_mask[t].data()[i] < 0.5) comp.data()[i] = est_val.data()[i];
      }
      out.complement.push_back(std::move(comp));
    } else {
      out.complement.push_back(w.x_obs[t]);
    }
  }
  if (have_imp) {
    out.imputation_loss =
        tape.scale(imp_acc, 1.0 / static_cast<double>(steps));
    out.has_imputation_loss = true;
  }

  // ---- Prediction head ------------------------------------------------------
  std::vector<Var> zs(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    zs[t] = config_.bidirectional ? tape.concat_cols(fwd.z[t], bwd.z[t])
                                  : fwd.z[t];
  }
  if (config_.head == RihgcnConfig::Head::kConcat) {
    out.prediction = head_.forward(tape, tape.concat_cols_many(zs));
  } else {
    std::vector<Var> scores(steps);
    for (std::size_t t = 0; t < steps; ++t) {
      scores[t] = attn_score_.forward(tape, zs[t]);
    }
    Var alpha = tape.softmax_rows(tape.concat_cols_many(scores));  // N x T
    Var mixed;
    for (std::size_t t = 0; t < steps; ++t) {
      Var weighted =
          tape.mul_col_broadcast(zs[t], tape.slice_cols(alpha, t, t + 1));
      mixed = t == 0 ? weighted : tape.add(mixed, weighted);
    }
    out.prediction = head_.forward(tape, mixed);
  }
  return out;
}

Var RihgcnModel::training_loss(Tape& tape, const data::Window& w) {
  ForwardOutput out = forward(tape, w);
  const std::size_t n = tape.value(out.prediction).rows();
  Matrix targets(n, config_.horizon);
  Matrix weights(n, config_.horizon);
  for (std::size_t t = 0; t < config_.horizon; ++t) {
    targets.set_cols(t, w.y.at(t));
    weights.set_cols(t, w.y_mask.at(t));
  }
  Var pred_loss = tape.masked_mae(out.prediction, targets, weights);
  if (!out.has_imputation_loss || config_.lambda == 0.0) return pred_loss;
  return tape.affine_combine(pred_loss, 1.0, out.imputation_loss,
                             config_.lambda);
}

void RihgcnModel::prepare_clusters(std::size_t num_clusters,
                                   std::uint64_t seed) {
  clusters_.clear();
  if (num_clusters > 1) clusters_ = make_clusters(num_clusters, seed);
}

std::vector<RihgcnModel::ClusterSpec> RihgcnModel::make_clusters(
    std::size_t num_clusters, std::uint64_t seed) const {
  // The SPATIAL adjacency drives the partition; the temporal graphs share
  // the node set, and their edges leaving owned ∪ halo are cut — the
  // Cluster-GCN approximation (DESIGN.md §13). The halo is the spatial
  // 1-hop boundary; Chebyshev order K > 1 reaches further, so halo features
  // are themselves approximate at the sub-graph border.
  const graph::ClusterPartitioner partitioner(seed);
  const graph::Clustering clustering =
      partitioner.partition(graphs_.geographic_adjacency_csr(), num_clusters);

  std::vector<ClusterSpec> clusters;
  clusters.reserve(clustering.num_clusters());
  for (std::size_t c = 0; c < clustering.num_clusters(); ++c) {
    const std::vector<std::size_t>& owned = clustering.owned[c];
    const std::vector<std::size_t>& halo = clustering.halo[c];
    ClusterSpec spec;
    spec.nodes.resize(owned.size() + halo.size());
    std::merge(owned.begin(), owned.end(), halo.begin(), halo.end(),
               spec.nodes.begin());
    spec.num_owned = owned.size();
    spec.owned_row.assign(spec.nodes.size(), 0);
    std::size_t p = 0;
    for (std::size_t r = 0; r < spec.nodes.size(); ++r) {
      if (p < owned.size() && owned[p] == spec.nodes[r]) {
        spec.owned_row[r] = 1;
        ++p;
      }
    }
    spec.laps.geo = laps_.geo.submatrix(spec.nodes);
    spec.laps.temporal.reserve(laps_.temporal.size());
    for (const CsrMatrix& lap : laps_.temporal) {
      spec.laps.temporal.push_back(lap.submatrix(spec.nodes));
    }
    clusters.push_back(std::move(spec));
  }
  return clusters;
}

Var RihgcnModel::cluster_training_loss(Tape& tape, const data::Window& w,
                                       std::size_t cluster) {
  if (cluster >= clusters_.size()) {
    throw std::out_of_range(
        "RihgcnModel::cluster_training_loss: cluster out of range "
        "(prepare_clusters first)");
  }
  const ClusterSpec& spec = clusters_[cluster];
  const data::Window sub = data::take_rows(w, spec.nodes);
  ForwardOutput out = forward_impl(tape, sub, spec.laps, &spec.owned_row);
  const std::size_t n = spec.nodes.size();
  Matrix targets(n, config_.horizon);
  Matrix weights(n, config_.horizon);
  for (std::size_t t = 0; t < config_.horizon; ++t) {
    targets.set_cols(t, sub.y.at(t));
    weights.set_cols(t, sub.y_mask.at(t));
  }
  // Halo rows contribute features, never loss.
  for (std::size_t i = 0; i < n; ++i) {
    if (!spec.owned_row[i]) {
      for (std::size_t t = 0; t < config_.horizon; ++t) weights(i, t) = 0.0;
    }
  }
  Var pred_loss = tape.masked_mae(out.prediction, targets, weights);
  if (!out.has_imputation_loss || config_.lambda == 0.0) return pred_loss;
  return tape.affine_combine(pred_loss, 1.0, out.imputation_loss,
                             config_.lambda);
}

Matrix RihgcnModel::predict(const data::Window& w) {
  scratch_tape_.reset();
  ForwardOutput out = forward(scratch_tape_, w);
  return scratch_tape_.value(out.prediction);
}

std::vector<Matrix> RihgcnModel::impute(const data::Window& w) {
  scratch_tape_.reset();
  ForwardOutput out = forward(scratch_tape_, w);
  return std::move(out.complement);
}

}  // namespace rihgcn::core
