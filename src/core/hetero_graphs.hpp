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

  // ---- City-scale k-NN sparse mode (DESIGN.md §13) ------------------------
  /// knn > 0 switches every graph to the k-NN CSR pipeline: no N x N matrix
  /// is ever materialized. The spatial graph comes from ds.geo_distances if
  /// present, else from Euclidean k-NN over ds.coords; temporal graphs come
  /// from ts::knn_series_graph over the interval profiles. The dense
  /// accessors (geographic()/temporal()) throw in this mode. knn = 0
  /// (default) is the dense pipeline. The *_csr() accessors answer in both.
  std::size_t knn = 0;
  /// Sparse mode only: LB_Kim/LB_Keogh pruning + early-abandon for the
  /// temporal DTW scans. Results are bitwise identical on or off.
  bool prune_dtw = true;
  /// Sparse mode only: Sakoe-Chiba band for the temporal DTW scans
  /// (negative = unconstrained).
  std::ptrdiff_t dtw_band = -1;
};

class HeterogeneousGraphs {
 public:
  /// Build all graphs from timesteps [0, train_end) of `ds`.
  HeterogeneousGraphs(const data::TrafficDataset& ds, std::size_t train_end,
                      const HeteroGraphsConfig& config, Rng& rng);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return geo_slap_csr_.rows();
  }
  [[nodiscard]] std::size_t num_temporal() const noexcept {
    return temporal_slap_csr_.size();
  }
  /// Dense accessors — throw std::logic_error in sparse mode (there is no
  /// dense graph to return; that is the point of the mode).
  [[nodiscard]] const graph::RoadGraph& geographic() const;
  [[nodiscard]] const graph::RoadGraph& temporal(std::size_t m) const;

  /// True when built with config.knn > 0 (CSR-only graphs).
  [[nodiscard]] bool sparse_mode() const noexcept { return sparse_mode_; }
  /// Gaussian adjacency and Chebyshev-rescaled Laplacians in CSR form, the
  /// only form the GCNs consume. Sparse mode builds them from the k-NN
  /// lists; dense mode holds CsrMatrix::from_dense (tol 0) of the dense
  /// matrices, so SpMM over them is bitwise equal to dense matmul.
  [[nodiscard]] const CsrMatrix& geographic_adjacency_csr() const noexcept {
    return geo_adj_csr_;
  }
  [[nodiscard]] const CsrMatrix& geographic_scaled_laplacian_csr()
      const noexcept {
    return geo_slap_csr_;
  }
  [[nodiscard]] const CsrMatrix& temporal_scaled_laplacian_csr(
      std::size_t m) const {
    return temporal_slap_csr_.at(m);
  }
  /// Sparse mode: DTW work counters summed over every temporal graph build
  /// (zeros in dense mode) — lets tests and benches assert pruning efficacy.
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
  graph::RoadGraph geo_;
  std::vector<graph::RoadGraph> temporal_;
  ts::Partition partition_;  // over partition_slots
  std::size_t partition_slots_ = 24;
  std::size_t steps_per_day_ = 288;
  double weight_temperature_ = 2.0;
  bool sparse_mode_ = false;
  CsrMatrix geo_adj_csr_;
  CsrMatrix geo_slap_csr_;
  std::vector<CsrMatrix> temporal_slap_csr_;
  ts::KnnStats temporal_knn_stats_;
};

}  // namespace rihgcn::core
