// Heterogeneous graph construction (paper §III-D).
//
// From the TRAINING prefix of a dataset this builds:
//   * the static geographic graph (Gaussian kernel over road distances,
//     Eq. 8), and
//   * M temporal graphs — the daily timeline is partitioned into M intervals
//     by maximizing inter-interval DTW distance (Eq. 2, via
//     ts::TimelinePartitioner on an hourly profile), then for each interval
//     the per-node historical-average series are compared pairwise with DTW
//     and turned into an adjacency with the same Eq. 8 kernel.
//
// At model time, a sample taken at time-of-day slot s mixes the M temporal
// GCN outputs with weights w_m(s) — a softmax over negative circular
// time distance between s and interval m (the paper specifies "based on the
// distance between this sample and the corresponding time interval" without
// a formula; this kernel is our documented concretization, ablated in
// bench_ablation).
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.hpp"
#include "graph/graph.hpp"
#include "tensor/rng.hpp"
#include "timeseries/distance.hpp"
#include "timeseries/partition.hpp"

namespace rihgcn::core {

struct HeteroGraphsConfig {
  /// M — number of temporal graphs (paper default 4; Fig. 4 sweeps it).
  /// 0 degrades HGCN to a plain geographic GCN (the GCN-LSTM-I ablation).
  std::size_t num_temporal_graphs = 4;
  /// Granularity of the Eq. 2 partition search (paper: 1 hour => 24 slots).
  std::size_t partition_slots = 24;
  /// Distance between node series inside an interval.
  ts::SeriesDistance distance = ts::SeriesDistance::kDtw;
  /// Eq. 8 adjacency options (shared by geographic and temporal graphs).
  graph::AdjacencyOptions adjacency{};
  /// Softmax temperature (hours) of the interval weighting kernel.
  double weight_temperature = 2.0;
  /// Which feature the temporal profiles are built from.
  std::size_t feature = 0;
  /// Partition constraints (η, γ per the paper; lengths derived from M).
  double eta = 0.10;
  double gamma = 0.5;
  /// Use the circular timeline partition (the paper's future-work idea: the
  /// first interval need not start at midnight). Slightly slower to build.
  bool circular_partition = false;

  // ---- Edge sets: all pairs or k-NN (DESIGN.md §13) ----------------------
  /// knn = 0 (default) keeps every pair: the geographic graph from the
  /// dataset's N x N geo_distances, each temporal graph from the pairwise
  /// `distance` matrix of its interval profiles (dropped once its
  /// adjacency is built). knn > 0 keeps each node's k nearest neighbours
  /// (union-symmetrized) and never builds an N x N matrix: the spatial graph
  /// comes from ds.geo_distances if present, else from Euclidean k-NN over
  /// ds.coords; temporal graphs come from ts::knn_series_graph over the
  /// interval profiles. Both modes run the same CSR Laplacian tail.
  std::size_t knn = 0;
  /// k-NN mode only: LB_Kim/LB_Keogh pruning + early-abandon for the
  /// temporal DTW scans. Results are bitwise identical on or off.
  bool prune_dtw = true;
  /// k-NN mode only: Sakoe-Chiba band for the temporal DTW scans
  /// (negative = unconstrained).
  std::ptrdiff_t dtw_band = -1;
};

class HeterogeneousGraphs {
 public:
  /// Build all graphs from timesteps [0, train_end) of `ds`. Throws
  /// std::invalid_argument on a bad train_end or partition_slots, and when
  /// the dataset lacks what the mode reads: N x N geo_distances with
  /// knn = 0, geo_distances or coords with knn > 0.
  HeterogeneousGraphs(const data::TrafficDataset& ds, std::size_t train_end,
                      const HeteroGraphsConfig& config, Rng& rng);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return geo_.scaled_laplacian.rows();
  }
  [[nodiscard]] std::size_t num_temporal() const noexcept {
    return temporal_.size();
  }
  /// Every graph is held the same way: its Eq. 8 adjacency and its
  /// Chebyshev-rescaled Laplacian (the form the GCNs consume), both CSR.
  [[nodiscard]] const CsrMatrix& geographic_adjacency_csr() const noexcept {
    return geo_.adjacency;
  }
  [[nodiscard]] const CsrMatrix& geographic_scaled_laplacian_csr()
      const noexcept {
    return geo_.scaled_laplacian;
  }
  [[nodiscard]] const CsrMatrix& temporal_adjacency_csr(std::size_t m) const {
    return temporal_.at(m).adjacency;
  }
  [[nodiscard]] const CsrMatrix& temporal_scaled_laplacian_csr(
      std::size_t m) const {
    return temporal_.at(m).scaled_laplacian;
  }
  /// k-NN mode: DTW work counters summed over every temporal graph build
  /// (zeros with knn = 0) — lets tests and benches assert pruning efficacy.
  [[nodiscard]] const ts::KnnStats& temporal_knn_stats() const noexcept {
    return temporal_knn_stats_;
  }
  [[nodiscard]] const ts::Partition& partition() const noexcept {
    return partition_;
  }

  /// w_m(slot) for a sample at fine time-of-day slot `slot`; size M, sums
  /// to 1. Intervals containing the slot get weight ~1 (zero distance).
  [[nodiscard]] std::vector<double> interval_weights(std::size_t slot) const;

  /// Fine slots per day of the source dataset (for slot -> hour conversion).
  [[nodiscard]] std::size_t steps_per_day() const noexcept {
    return steps_per_day_;
  }

 private:
  struct Graph {
    CsrMatrix adjacency;
    CsrMatrix scaled_laplacian;
  };

  Graph geo_;
  std::vector<Graph> temporal_;
  ts::Partition partition_;  // over partition_slots
  std::size_t partition_slots_ = 24;
  std::size_t steps_per_day_ = 288;
  double weight_temperature_ = 2.0;
  ts::KnnStats temporal_knn_stats_;
};

}  // namespace rihgcn::core
