// Time-series distance measures used to build the temporal graphs (§III-D):
// Dynamic Time Warping (the paper's choice), plus Edit distance with Real
// Penalty, one of the alternatives the paper lists — implemented so the
// choice can be ablated (bench_ablation).
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace rihgcn::ts {

using rihgcn::Matrix;

/// Dynamic Time Warping distance between two univariate series, |.| local
/// cost. `band` is the Sakoe-Chiba band half-width; negative = unconstrained.
/// Returns +inf when a band makes alignment infeasible.
[[nodiscard]] double dtw(std::span<const double> a, std::span<const double> b,
                         std::ptrdiff_t band = -1);

/// DTW between multivariate series; rows are timesteps, columns dimensions,
/// local cost is the Euclidean distance between row vectors.
[[nodiscard]] double dtw_multivariate(const Matrix& a, const Matrix& b,
                                      std::ptrdiff_t band = -1);

/// Edit distance with Real Penalty (Chen & Ng 2004) with gap element g.
/// A metric (satisfies triangle inequality), unlike DTW.
[[nodiscard]] double erp(std::span<const double> a, std::span<const double> b,
                         double gap = 0.0);

/// Which distance the temporal-graph builder uses.
enum class SeriesDistance { kDtw, kErp };

/// Dispatch on SeriesDistance for univariate series.
[[nodiscard]] double series_distance(SeriesDistance kind,
                                     std::span<const double> a,
                                     std::span<const double> b);

/// Pairwise distance matrix between the ROWS of `series` (each row is one
/// node's series). Symmetric, zero diagonal.
[[nodiscard]] Matrix pairwise_series_distance(const Matrix& series,
                                              SeriesDistance kind =
                                                  SeriesDistance::kDtw);

// ---- Pruned k-NN DTW graph construction (DESIGN.md §13) --------------------
//
// Building a temporal graph over N nodes from pairwise DTW is O(N² T²) —
// unreachable at city scale. What the graph actually needs is only the k
// nearest neighbours of every node, and DTW admits cheap lower bounds
// (LB_Kim O(1), LB_Keogh O(T)) plus row-wise early abandoning, so an exact
// top-k scan degenerates to ~O(N·k) full DTW evaluations in practice.
//
// Determinism/parity contract: knn_series_graph with prune on and off
// returns BITWISE-identical neighbour lists (indices and distances) at any
// thread count. The selection (TopKNeighbors) keeps the k smallest
// (distance, index) pairs whatever order candidates arrive in, so the
// pruned scan may visit them in any order; it only ever skips a candidate
// whose lower bound already loses to the running k-th pair — one the
// selection would reject anyway — and surviving candidates run through the
// very same DTW kernel as dtw(), so kept distances carry identical bits.
// Rows are sharded over the global ThreadPool with a fixed grain; each row's
// result depends only on that row's scan, never on scheduling.
//
// Every k-NN builder (this one and graph::knn_from_distances /
// knn_from_coords) rejects non-finite input rows with std::invalid_argument:
// a NaN row would otherwise keep its zero-initialized slots — k copies of
// neighbour 0 at distance 0 — and a NaN sort key breaks the sorted scans.

/// LB_Kim (first/last-point bound): every warping path aligns the two first
/// elements and the two last elements, so
///   |a_0 - b_0| + |a_{n-1} - b_{m-1}| <= dtw(a, b).
[[nodiscard]] double lb_kim(std::span<const double> a,
                            std::span<const double> b);

/// Sliding min/max envelope of a series for LB_Keogh: lower[i]/upper[i] are
/// the min/max of s over the window |i - j| <= band (band < 0 = the whole
/// series, matching dtw()'s unconstrained alignment).
struct KeoghEnvelope {
  std::vector<double> lower;
  std::vector<double> upper;
};
[[nodiscard]] KeoghEnvelope keogh_envelope(std::span<const double> s,
                                           std::ptrdiff_t band);

/// LB_Keogh: sum over i of the distance from a_i to [lower_i, upper_i] of
/// b's envelope. Requires equal lengths and the same band as the dtw() call
/// it bounds: lb_keogh(a, env(b, band)) <= dtw(a, b, band).
[[nodiscard]] double lb_keogh(std::span<const double> a,
                              const KeoghEnvelope& env_b);

/// DTW with row-wise early abandoning: the same kernel as dtw(), but after
/// each DP row, if every reachable cell already costs >= `cutoff` the
/// search is abandoned (every complete path must pass through each row and
/// local costs are nonnegative, so the true distance is >= cutoff too) and
/// +inf is returned. A finite return value is bitwise equal to dtw(a, b,
/// band); +inf means only dtw(a, b, band) >= cutoff.
[[nodiscard]] double dtw_early_abandoned(std::span<const double> a,
                                         std::span<const double> b,
                                         std::ptrdiff_t band, double cutoff);

/// One selected neighbour; ordering is (dist, idx) ascending.
struct Neighbor {
  double dist = 0.0;
  std::size_t idx = 0;
};

/// The row-sparsify selection rule shared by every k-NN graph builder —
/// spatial (graph::knn_from_distances / knn_from_coords) and temporal
/// (knn_series_graph): keep the k smallest (distance, index) pairs, ordered
/// lexicographically, in ANY visit order. A candidate (d, j) is admitted
/// only when it is lexicographically below the current k-th pair, so an
/// equal distance loses to the smaller index whichever arrives first; for
/// an ascending scan that is exactly "strictly below the k-th distance".
/// Infinite and NaN distances are never admitted. Lower-bound pruning is
/// sound because a candidate whose bound is >= cutoff_for(j) cannot be
/// admitted now, and the k-th pair only ever moves down.
class TopKNeighbors {
 public:
  explicit TopKNeighbors(std::size_t k) : k_(k) { items_.reserve(k + 1); }

  /// +inf until k candidates are held, then the k-th smallest distance.
  /// A candidate whose distance (or any lower bound on it) is STRICTLY
  /// above this value cannot enter the selection, whatever its index.
  [[nodiscard]] double cutoff() const noexcept { return kth_dist_; }
  /// Rejection threshold for candidate j: its distance, or any lower bound
  /// on it, >= this value means it cannot be admitted. That is the k-th
  /// distance for j above the k-th pair's index, and the next double above
  /// it for j below (an equal distance at a smaller index still wins).
  [[nodiscard]] double cutoff_for(std::size_t j) const noexcept {
    return j < kth_idx_ ? kth_dist_above_ : kth_dist_;
  }
  /// Offer candidate (d, j); each j at most once per row, in any order.
  /// Returns true if the candidate was admitted (d < cutoff_for(j)).
  bool offer(double d, std::size_t j);

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  /// Selection so far, sorted by (dist, idx) ascending.
  [[nodiscard]] const std::vector<Neighbor>& items() const noexcept {
    return items_;
  }
  /// Reset for the next row (capacity is kept).
  void clear() noexcept;

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  std::size_t k_;
  std::vector<Neighbor> items_;
  // The k-th pair, cached on every admission so the per-candidate tests
  // stay two loads: its distance, the next double above, and its index
  // (0 while fewer than k are held, so cutoff_for() is +inf then).
  double kth_dist_ = kInf;
  double kth_dist_above_ = kInf;
  std::size_t kth_idx_ = 0;
};

/// Per-row k-nearest-neighbour lists over the rows of a series matrix.
/// Row i's neighbours live at [offsets[i], offsets[i+1]) of idx/dist, sorted
/// by (distance, index) ascending — ties broken toward the smaller index.
struct NeighborList {
  std::size_t num_nodes = 0;
  std::size_t k = 0;  ///< neighbours per row (= min(requested k, N-1))
  std::vector<std::size_t> offsets;  ///< num_nodes + 1
  std::vector<std::size_t> idx;
  std::vector<double> dist;
};

struct KnnOptions {
  std::size_t k = 8;
  /// Sakoe-Chiba band for the DTW calls (negative = unconstrained).
  std::ptrdiff_t band = -1;
  /// Apply LB_Kim/LB_Keogh prefilter + early abandon. Off = exact full scan
  /// with the same selection rule (the parity reference).
  bool prune = true;
};

/// Work counters for tests and benches (summed atomically; exact counts are
/// thread-count independent because each candidate pair is classified by a
/// deterministic per-row scan). Every ordered pair falls in exactly one
/// class: pairs == lb_kim_pruned + lb_keogh_pruned + dtw_started.
struct KnnStats {
  std::size_t pairs = 0;            ///< candidate pairs: N·(N−1)
  /// Rejected by LB_Kim, including the candidates the pruned scan's sorted
  /// sweep never reaches (a lower bound on their LB_Kim exceeds the cutoff).
  std::size_t lb_kim_pruned = 0;
  std::size_t lb_keogh_pruned = 0;  ///< rejected by LB_Keogh (either way)
  std::size_t dtw_started = 0;      ///< exact DPs entered
  std::size_t dtw_abandoned = 0;    ///< exact DPs abandoned early
};

/// Deterministic top-k DTW neighbour search over the rows of `series`
/// (N x T), sharded over the global ThreadPool. See the contract above:
/// results are bitwise identical for prune on/off and any thread count, and
/// no N x N matrix is ever materialized (peak extra memory is O(N·(k + T))).
/// prune = false is the reference: every candidate, ascending, full DTW.
/// prune = true scans each row as DESIGN.md §13 describes — seeded with its
/// nearest candidates in a (first value, last value) sort, then swept
/// outward until LB_Kim alone rules out the rest, with LB_Kim and two-way
/// LB_Keogh computed a block of candidates at a time ahead of an
/// early-abandoned DTW. Throws std::invalid_argument on a non-finite row.
[[nodiscard]] NeighborList knn_series_graph(const Matrix& series,
                                            const KnnOptions& opts = {},
                                            KnnStats* stats = nullptr);

/// Throws std::invalid_argument naming `who` and the first row of `m` that
/// holds a NaN or an infinity. The input check shared by every k-NN builder.
void require_finite_rows(const Matrix& m, const char* who);

}  // namespace rihgcn::ts
