#include "core/hetero_graphs.hpp"

#include <cmath>
#include <stdexcept>

#include "timeseries/profile.hpp"

namespace rihgcn::core {

namespace {

/// Circular distance in hours from hour-of-day h to the interval [a, b)
/// (hours); 0 if h lies inside. b <= a denotes an interval wrapping past
/// midnight (circular partitions).
double hours_to_interval(double h, double a, double b) {
  const bool inside = a < b ? (h >= a && h < b) : (h >= a || h < b);
  if (inside) return 0.0;
  auto circ = [](double x, double y) {
    double d = std::abs(x - y);
    return std::min(d, 24.0 - d);
  };
  return std::min(circ(h, a), circ(h, b));
}

}  // namespace

HeterogeneousGraphs::HeterogeneousGraphs(const data::TrafficDataset& ds,
                                         std::size_t train_end,
                                         const HeteroGraphsConfig& config,
                                         Rng& rng)
    : geo_(graph::RoadGraph::from_distances(
          // Sparse mode never touches the dense pipeline; geo_ stays an
          // empty placeholder so no N x N matrix is built behind our back.
          config.knn > 0 ? Matrix() : ds.geo_distances, config.adjacency)),
      partition_slots_(config.partition_slots),
      steps_per_day_(ds.steps_per_day),
      weight_temperature_(config.weight_temperature),
      sparse_mode_(config.knn > 0) {
  if (train_end == 0 || train_end > ds.num_timesteps()) {
    throw std::invalid_argument("HeterogeneousGraphs: bad train_end");
  }
  if (config.partition_slots == 0 ||
      config.partition_slots > ds.steps_per_day) {
    throw std::invalid_argument("HeterogeneousGraphs: bad partition_slots");
  }

  if (!sparse_mode_) {
    geo_adj_csr_ = CsrMatrix::from_dense(geo_.adjacency());
    geo_slap_csr_ = CsrMatrix::from_dense(geo_.scaled_laplacian());
  } else {
    if (config.distance != ts::SeriesDistance::kDtw) {
      throw std::invalid_argument(
          "HeterogeneousGraphs: sparse mode supports DTW only");
    }
    const std::size_t n = ds.num_nodes();
    ts::NeighborList nl;
    if (n > 0 && ds.geo_distances.rows() == n) {
      nl = graph::knn_from_distances(ds.geo_distances, config.knn);
    } else if (n > 0 && ds.coords.rows() == n) {
      // City-scale datasets ship coordinates but no N x N road-distance
      // matrix; Euclidean k-NN over coords is the spatial fallback.
      nl = graph::knn_from_coords(ds.coords, config.knn);
    } else {
      throw std::invalid_argument(
          "HeterogeneousGraphs: sparse mode needs geo_distances or coords");
    }
    geo_adj_csr_ = graph::gaussian_knn_adjacency(nl, config.adjacency);
    geo_slap_csr_ = graph::scaled_laplacian_csr(
        graph::normalized_laplacian_csr(geo_adj_csr_));
  }

  if (config.num_temporal_graphs == 0) {
    // Geographic-only degenerate mode (GCN-LSTM-I ablation): one trivial
    // interval so interval_weights() still has a well-defined answer.
    partition_.boundaries = {0, config.partition_slots};
    return;
  }

  // Historical profile of the training prefix only — no test leakage.
  std::vector<Matrix> values(ds.truth.begin(),
                             ds.truth.begin() + static_cast<std::ptrdiff_t>(train_end));
  std::vector<Matrix> masks(ds.mask.begin(),
                            ds.mask.begin() + static_cast<std::ptrdiff_t>(train_end));
  const ts::HistoricalProfile profile(values, masks, ds.steps_per_day,
                                      config.feature);

  // ---- Eq. 2 timeline partition at coarse (hourly) granularity ------------
  const Matrix day_profile = profile.day_profile(config.partition_slots);
  ts::PartitionConstraints constraints;
  // Paper: minimum 1 hour, maximum Q·T/M with Q=2 (12 h for M=4 on a 24 h
  // day), in coarse slot units.
  const double slots_per_hour =
      static_cast<double>(config.partition_slots) / 24.0;
  constraints.min_len =
      std::max<std::size_t>(1, static_cast<std::size_t>(slots_per_hour));
  constraints.max_len = std::max<std::size_t>(
      constraints.min_len,
      2 * config.partition_slots / config.num_temporal_graphs);
  constraints.eta = config.eta;
  constraints.gamma = config.gamma;
  const ts::TimelinePartitioner partitioner(day_profile, constraints);
  partition_ = config.circular_partition
                   ? partitioner.partition_circular(
                         config.num_temporal_graphs, rng)
                   : partitioner.partition(config.num_temporal_graphs, rng);

  // ---- One temporal graph per interval ----------------------------------
  if (!sparse_mode_) temporal_.reserve(partition_.num_intervals());
  const std::size_t fine_per_coarse =
      ds.steps_per_day / config.partition_slots;
  for (std::size_t m = 0; m < partition_.num_intervals(); ++m) {
    // slot_range yields b in (0, slots]; b <= a marks a wrapping interval,
    // which interval_series handles via its s1 <= s0 convention.
    const auto [c0, c1] = partition_.slot_range(m);
    const std::size_t f0 = c0 * fine_per_coarse;
    const std::size_t f1 = c1 * fine_per_coarse;
    const Matrix series = profile.interval_series(f0, f1);
    if (sparse_mode_) {
      // Pruned top-k DTW scan instead of the O(N²) pairwise matrix.
      ts::KnnOptions opts;
      opts.k = config.knn;
      opts.band = config.dtw_band;
      opts.prune = config.prune_dtw;
      ts::KnnStats st;
      const ts::NeighborList nl = ts::knn_series_graph(series, opts, &st);
      temporal_knn_stats_.pairs += st.pairs;
      temporal_knn_stats_.lb_kim_pruned += st.lb_kim_pruned;
      temporal_knn_stats_.lb_keogh_pruned += st.lb_keogh_pruned;
      temporal_knn_stats_.dtw_started += st.dtw_started;
      temporal_knn_stats_.dtw_abandoned += st.dtw_abandoned;
      const CsrMatrix adj =
          graph::gaussian_knn_adjacency(nl, config.adjacency);
      temporal_slap_csr_.push_back(graph::scaled_laplacian_csr(
          graph::normalized_laplacian_csr(adj)));
    } else {
      const Matrix dist =
          ts::pairwise_series_distance(series, config.distance);
      temporal_.push_back(
          graph::RoadGraph::from_distances(dist, config.adjacency));
      temporal_slap_csr_.push_back(
          CsrMatrix::from_dense(temporal_.back().scaled_laplacian()));
    }
  }
}

const graph::RoadGraph& HeterogeneousGraphs::geographic() const {
  if (sparse_mode_) {
    throw std::logic_error(
        "HeterogeneousGraphs::geographic: dense accessor in sparse mode; use "
        "geographic_adjacency_csr / geographic_scaled_laplacian_csr");
  }
  return geo_;
}

const graph::RoadGraph& HeterogeneousGraphs::temporal(std::size_t m) const {
  if (sparse_mode_) {
    throw std::logic_error(
        "HeterogeneousGraphs::temporal: dense accessor in sparse mode; use "
        "temporal_scaled_laplacian_csr");
  }
  return temporal_.at(m);
}

std::vector<double> HeterogeneousGraphs::interval_weights(
    std::size_t slot) const {
  const double hour = static_cast<double>(slot % steps_per_day_) * 24.0 /
                      static_cast<double>(steps_per_day_);
  const double hours_per_cslot = 24.0 / static_cast<double>(partition_slots_);
  std::vector<double> w(partition_.num_intervals());
  double denom = 0.0;
  for (std::size_t m = 0; m < w.size(); ++m) {
    const auto [c0, c1] = partition_.slot_range(m);
    const double a = static_cast<double>(c0) * hours_per_cslot;
    const double b = static_cast<double>(c1) * hours_per_cslot;
    const double d = hours_to_interval(hour, a, b);
    w[m] = std::exp(-d / weight_temperature_);
    denom += w[m];
  }
  for (double& x : w) x /= denom;
  return w;
}

}  // namespace rihgcn::core
