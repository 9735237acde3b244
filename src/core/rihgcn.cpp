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
  std::vector<nn::Module*> modules{&hgcn_};
  if (hgcn2_) modules.push_back(hgcn2_.get());
  modules.insert(modules.end(), {rnn_fwd_.get(), &est_fwd_});
  if (config_.bidirectional) {
    modules.insert(modules.end(), {rnn_bwd_.get(), &est_bwd_});
  }
  modules.push_back(&head_);
  if (config_.head == RihgcnConfig::Head::kAttention) {
    modules.push_back(&attn_score_);
  }
  return nn::collect_parameters(modules);
}

ImputingForward RihgcnModel::forward(Tape& tape, const data::Window& w) {
  return forward_impl(tape, w, laps_, nullptr);
}

ImputingForward RihgcnModel::forward_impl(
    Tape& tape, const data::Window& w, const HgcnBlock::Laps& laps,
    const std::vector<char>* owned_row) {
  check_window(w, config_.lookback, config_.horizon, name());
  const std::size_t n = w.x_obs.front().rows();
  // Per step: S_t = HGCN(X̃_t), the cell reads [S_t | M_t], and
  // Z_t = [S_t | H_t] (Eq. 4) feeds the estimator and the head.
  const auto encoder = [&](bool reverse) -> StepEncoder {
    nn::RecurrentCell& cell = reverse ? *rnn_bwd_ : *rnn_fwd_;
    return [&, state = cell.initial_state(tape, n)](Var comp,
                                                    std::size_t t) mutable {
      const std::size_t slot = (w.slot + t) % graphs_.steps_per_day();
      Var s = hgcn_.forward(tape, comp, slot, laps);
      if (hgcn2_) s = hgcn2_->forward(tape, s, slot, laps);
      state = cell.step(tape, tape.concat_cols(s, tape.constant(w.x_mask[t])),
                        state);
      return tape.concat_cols(s, state.h);
    };
  };
  ImputingForward out = impute_recurrently(
      tape, w, encoder, est_fwd_, config_.bidirectional ? &est_bwd_ : nullptr,
      config_.use_consistency, config_.trainable_imputation, owned_row);
  out.prediction = head_.forward(
      tape, config_.head == RihgcnConfig::Head::kConcat
                ? tape.concat_cols_many(out.features)
                : nn::attention_pool(tape, attn_score_, out.features));
  return out;
}

Var RihgcnModel::training_loss(Tape& tape, const data::Window& w) {
  const ImputingForward out = forward(tape, w);
  return joint_loss(tape, w, out.prediction, out.imputation_loss,
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
  const ImputingForward out =
      forward_impl(tape, sub, spec.laps, &spec.owned_row);
  return joint_loss(tape, sub, out.prediction, out.imputation_loss,
                    config_.lambda, &spec.owned_row);
}

Matrix RihgcnModel::predict(const data::Window& w) {
  scratch_tape_.reset();
  ImputingForward out = forward(scratch_tape_, w);
  return scratch_tape_.value(out.prediction);
}

std::vector<Matrix> RihgcnModel::impute(const data::Window& w) {
  scratch_tape_.reset();
  ImputingForward out = forward(scratch_tape_, w);
  return std::move(out.complement);
}

}  // namespace rihgcn::core
