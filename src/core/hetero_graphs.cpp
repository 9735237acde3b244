#include "core/hetero_graphs.hpp"

#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

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
    : partition_slots_(config.partition_slots),
      steps_per_day_(ds.steps_per_day),
      weight_temperature_(config.weight_temperature) {
  if (train_end == 0 || train_end > ds.num_timesteps()) {
    throw std::invalid_argument("HeterogeneousGraphs: bad train_end");
  }
  if (config.partition_slots == 0 ||
      config.partition_slots > ds.steps_per_day) {
    throw std::invalid_argument("HeterogeneousGraphs: bad partition_slots");
  }
  const bool knn = config.knn > 0;
  if (knn && config.distance != ts::SeriesDistance::kDtw) {
    throw std::invalid_argument(
        "HeterogeneousGraphs: k-NN mode supports DTW only");
  }
  // Every graph: an Eq. 8 adjacency, then the one CSR Laplacian tail.
  const auto make_graph = [](CsrMatrix adjacency) {
    CsrMatrix slap = graph::scaled_laplacian_csr(
        graph::normalized_laplacian_csr(adjacency));
    return Graph{std::move(adjacency), std::move(slap)};
  };

  const std::size_t n = ds.num_nodes();
  const bool has_geo = n > 0 && ds.geo_distances.rows() == n;
  if (!knn) {
    if (!has_geo) {
      throw std::invalid_argument(
          "HeterogeneousGraphs: all-pairs mode (knn = 0) needs N x N "
          "geo_distances");
    }
    geo_ = make_graph(
        graph::gaussian_adjacency(ds.geo_distances, config.adjacency));
  } else {
    ts::NeighborList nl;
    if (has_geo) {
      nl = graph::knn_from_distances(ds.geo_distances, config.knn);
    } else if (n > 0 && ds.coords.rows() == n) {
      // City-scale datasets ship coordinates but no N x N road-distance
      // matrix; Euclidean k-NN over coords is the spatial fallback.
      nl = graph::knn_from_coords(ds.coords, config.knn);
    } else {
      throw std::invalid_argument(
          "HeterogeneousGraphs: k-NN mode needs geo_distances or coords");
    }
    geo_ = make_graph(graph::gaussian_knn_adjacency(nl, config.adjacency));
  }

  if (config.num_temporal_graphs == 0) {
    // Geographic-only degenerate mode (GCN-LSTM-I ablation): one trivial
    // interval so interval_weights() still has a well-defined answer.
    partition_.boundaries = {0, config.partition_slots};
    return;
  }

  // Historical profile of the training prefix only — no test leakage.
  const ts::HistoricalProfile profile(
      std::span(ds.truth).first(train_end),
      std::span(ds.mask).first(train_end), ds.steps_per_day, config.feature);

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
  // Coarse slot c holds the fine slots s with ⌊s·P/S⌋ = c — the binning
  // day_profile partitioned and interval_weights reads — which start at
  // fine slot ⌈c·S/P⌉ (P = partition_slots, S = steps_per_day).
  const std::size_t spd = ds.steps_per_day;
  const std::size_t pslots = config.partition_slots;
  const auto first_fine_slot = [spd, pslots](std::size_t c) {
    return (c * spd + pslots - 1) / pslots;
  };
  temporal_.reserve(partition_.num_intervals());
  for (std::size_t m = 0; m < partition_.num_intervals(); ++m) {
    // slot_range yields b in (0, slots]; b <= a marks a wrapping interval,
    // which interval_series handles via its s1 <= s0 convention.
    const auto [c0, c1] = partition_.slot_range(m);
    const Matrix series =
        profile.interval_series(first_fine_slot(c0), first_fine_slot(c1));
    if (knn) {
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
      temporal_.push_back(
          make_graph(graph::gaussian_knn_adjacency(nl, config.adjacency)));
    } else {
      temporal_.push_back(make_graph(graph::gaussian_adjacency(
          ts::pairwise_series_distance(series, config.distance),
          config.adjacency)));
    }
  }
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
