// The city-scale k-NN graph pipeline (DESIGN.md §13):
//
//  * The shared DTW kernel is bitwise equal to a textbook full-matrix DP,
//    DTW lower bounds really lower-bound DTW (LB_Kim, LB_Keogh) and
//    early-abandoned DTW is exact when it completes.
//  * knn_series_graph with pruning on is BITWISE identical to the exact
//    full scan, at 1 and 4 threads, and actually prunes work; exact ties
//    go to the smaller index whatever order the pruned scan visits in, and
//    its work counters partition every candidate pair.
//  * The spatial k-NN builders (knn_from_distances / knn_from_coords) agree
//    bitwise with each other and with the temporal scan on shared inputs,
//    ties included.
//  * Every k-NN builder rejects non-finite rows instead of filling them
//    with neighbour 0 at distance 0.
//  * The CSR Laplacian pipeline (gaussian_knn_adjacency →
//    normalized_laplacian_csr → largest_eigenvalue → scaled_laplacian_csr)
//    is bitwise equal to the dense reference formulas
//    (graph_reference.hpp) + from_dense on the same adjacency.
//  * CsrMatrix::from_parts validation and submatrix extraction.
#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph_reference.hpp"
#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"
#include "timeseries/distance.hpp"

namespace rihgcn {
namespace {

namespace ref = graph::reference;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Pin the pool width and force threaded dispatch on tiny inputs (same idiom
// as test_parallel.cpp); restore defaults on destruction.
class BackendGuard {
 public:
  explicit BackendGuard(std::size_t threads) {
    ParallelTuning::min_elems = 1;
    ParallelTuning::elem_grain = 4;
    ParallelTuning::min_matmul_flops = 1;
    ThreadPool::set_global_threads(threads);
  }
  ~BackendGuard() {
    ParallelTuning::reset();
    ThreadPool::set_global_threads(0);
  }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

// N node series with diurnal structure in a few phase clusters, so k-NN has
// genuinely close neighbours (pruning bites) plus noise.
Matrix clustered_series(std::size_t n, std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  Matrix s(n, len);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = static_cast<double>(i % 4) * 1.3;
    const double amp = 1.0 + 0.25 * static_cast<double>(i % 3);
    for (std::size_t t = 0; t < len; ++t) {
      s(i, t) = amp * std::sin(0.4 * static_cast<double>(t) + phase) +
                0.15 * rng.normal();
    }
  }
  return s;
}

std::span<const double> row_span(const Matrix& m, std::size_t r) {
  return {m.data() + r * m.cols(), m.cols()};
}

// ---- The shared DTW kernel ----------------------------------------------

// Textbook (n+1) x (m+1) DTW: D[0][0] = 0, the rest of row/column 0 is +inf,
// and an in-band cell (i, j) — |j − i·m/n| <= band, as dtw() documents —
// is min(up, left, diagonal) + |a_i − b_j|; every other cell is +inf.
double full_matrix_dtw(std::span<const double> a, std::span<const double> b,
                       std::ptrdiff_t band) {
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::vector<double>> d(n + 1, std::vector<double>(m + 1, kInf));
  d[0][0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto center = static_cast<std::ptrdiff_t>(i * m / n);
    for (std::size_t j = 0; j < m; ++j) {
      if (band >= 0 && std::abs(static_cast<std::ptrdiff_t>(j) - center) > band) {
        continue;
      }
      d[i + 1][j + 1] = std::min({d[i][j + 1], d[i + 1][j], d[i][j]}) +
                        std::abs(a[i] - b[j]);
    }
  }
  return d[n][m];
}

TEST(DtwBounds, KernelMatchesFullMatrixDp) {
  Rng rng(10);
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (std::size_t n = 1; n <= 48; ++n) {
    shapes.emplace_back(n, n);          // equal lengths, every size
    shapes.emplace_back(n, n % 7 + 1);  // unequal, both ways round
    shapes.emplace_back(n / 3 + 1, n);
  }
  std::size_t finite = 0, infeasible = 0;
  for (const auto& [n, m] : shapes) {
    const Matrix x = rng.normal_matrix(2, std::max(n, m), 1.0);
    const std::span<const double> a(x.data(), n);
    const std::span<const double> b(x.data() + x.cols(), m);
    const auto wide = static_cast<std::ptrdiff_t>(std::max(n, m));
    for (const std::ptrdiff_t band :
         {std::ptrdiff_t{-1}, std::ptrdiff_t{0}, std::ptrdiff_t{1},
          std::ptrdiff_t{3}, wide}) {
      const double want = full_matrix_dtw(a, b, band);
      (want == kInf ? infeasible : finite) += 1;
      EXPECT_EQ(ts::dtw(a, b, band), want)
          << "n " << n << " m " << m << " band " << band;
      EXPECT_EQ(ts::dtw_early_abandoned(a, b, band, kInf), want);
      if (want == kInf) continue;
      EXPECT_EQ(ts::dtw_early_abandoned(a, b, band, want * 2.0 + 1.0), want);
      const double tight = ts::dtw_early_abandoned(a, b, band, want * 0.5);
      EXPECT_TRUE(tight == kInf || tight == want);
    }
  }
  // Both outcomes occur: narrow bands make some unequal lengths infeasible.
  EXPECT_GT(finite, 0u);
  EXPECT_GT(infeasible, 0u);
}

// ---- Lower bounds ---------------------------------------------------------

TEST(DtwBounds, LbKimLowerBoundsDtw) {
  const Matrix s = clustered_series(12, 20, 11);
  for (std::size_t i = 0; i < s.rows(); ++i) {
    for (std::size_t j = i + 1; j < s.rows(); ++j) {
      const double d = ts::dtw(row_span(s, i), row_span(s, j));
      EXPECT_LE(ts::lb_kim(row_span(s, i), row_span(s, j)), d);
    }
  }
}

TEST(DtwBounds, LbKeoghLowerBoundsDtw) {
  const Matrix s = clustered_series(10, 24, 12);
  for (const std::ptrdiff_t band : {std::ptrdiff_t{-1}, std::ptrdiff_t{3}}) {
    std::vector<ts::KeoghEnvelope> envs;
    for (std::size_t j = 0; j < s.rows(); ++j) {
      envs.push_back(ts::keogh_envelope(row_span(s, j), band));
    }
    for (std::size_t i = 0; i < s.rows(); ++i) {
      for (std::size_t j = 0; j < s.rows(); ++j) {
        if (i == j) continue;
        const double d = ts::dtw(row_span(s, i), row_span(s, j), band);
        EXPECT_LE(ts::lb_keogh(row_span(s, i), envs[j]), d)
            << "band " << band << " pair " << i << "," << j;
      }
    }
  }
}

TEST(DtwBounds, EarlyAbandonIsExactWhenItCompletes) {
  const Matrix s = clustered_series(8, 18, 13);
  for (std::size_t i = 0; i < s.rows(); ++i) {
    for (std::size_t j = 0; j < s.rows(); ++j) {
      if (i == j) continue;
      const double exact = ts::dtw(row_span(s, i), row_span(s, j), 4);
      // Generous cutoff: must complete and reproduce dtw() bit-for-bit.
      EXPECT_EQ(ts::dtw_early_abandoned(row_span(s, i), row_span(s, j), 4,
                                        exact * 2.0 + 1.0),
                exact);
      // Tight cutoff: either abandoned (+inf) or still the exact bits.
      const double tight =
          ts::dtw_early_abandoned(row_span(s, i), row_span(s, j), 4, exact * 0.5);
      EXPECT_TRUE(tight == kInf || tight == exact);
    }
  }
}

// ---- Pruned scan parity ---------------------------------------------------

TEST(KnnSeriesGraph, PrunedMatchesExactBitwise) {
  const Matrix s = clustered_series(48, 24, 14);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    BackendGuard guard(threads);
    ts::KnnOptions exact_opts;
    exact_opts.k = 6;
    exact_opts.band = 4;
    exact_opts.prune = false;
    ts::KnnOptions pruned_opts = exact_opts;
    pruned_opts.prune = true;
    ts::KnnStats st;
    const ts::NeighborList a = ts::knn_series_graph(s, exact_opts);
    const ts::NeighborList b = ts::knn_series_graph(s, pruned_opts, &st);
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.idx, b.idx);
    EXPECT_EQ(a.dist, b.dist);  // bitwise: == on doubles
    // The pruning actually did something on structured data.
    EXPECT_GT(st.lb_kim_pruned + st.lb_keogh_pruned + st.dtw_abandoned, 0u);
    EXPECT_LT(st.dtw_started, st.pairs);
  }
}

TEST(KnnSeriesGraph, ThreadCountInvariant) {
  const Matrix s = clustered_series(30, 20, 15);
  ts::KnnOptions opts;
  opts.k = 5;
  opts.band = 3;
  ts::NeighborList ref;
  {
    BackendGuard guard(1);
    ref = ts::knn_series_graph(s, opts);
  }
  {
    BackendGuard guard(4);
    const ts::NeighborList got = ts::knn_series_graph(s, opts);
    EXPECT_EQ(ref.idx, got.idx);
    EXPECT_EQ(ref.dist, got.dist);
  }
}

TEST(KnnSeriesGraph, MatchesDenseDistanceMatrixPath) {
  // Unbanded exact scan == k-NN sparsification of the dense DTW matrix.
  const Matrix s = clustered_series(20, 16, 16);
  ts::KnnOptions opts;
  opts.k = 4;
  opts.band = -1;
  opts.prune = false;
  const ts::NeighborList direct = ts::knn_series_graph(s, opts);
  const Matrix dense = ts::pairwise_series_distance(s, ts::SeriesDistance::kDtw);
  const ts::NeighborList via_dense = graph::knn_from_distances(dense, 4);
  EXPECT_EQ(direct.offsets, via_dense.offsets);
  EXPECT_EQ(direct.idx, via_dense.idx);
  EXPECT_EQ(direct.dist, via_dense.dist);
}


// Series whose rows come in groups of exact copies, so many DTW distances
// tie exactly: row r copies base row r % bases.
Matrix duplicated_series(std::size_t bases, std::size_t copies,
                         std::size_t len, std::uint64_t seed) {
  const Matrix base = clustered_series(bases, len, seed);
  Matrix s(bases * copies, len);
  for (std::size_t r = 0; r < s.rows(); ++r) {
    for (std::size_t t = 0; t < len; ++t) s(r, t) = base(r % bases, t);
  }
  return s;
}

// Reference selection written out: every (dtw, j) pair of row i, sorted
// lexicographically, first k kept.
ts::NeighborList brute_force_knn(const Matrix& s, std::size_t k,
                                 std::ptrdiff_t band) {
  ts::NeighborList out;
  out.num_nodes = s.rows();
  out.k = k;
  for (std::size_t i = 0; i <= s.rows(); ++i) out.offsets.push_back(i * k);
  for (std::size_t i = 0; i < s.rows(); ++i) {
    std::vector<std::pair<double, std::size_t>> all;
    for (std::size_t j = 0; j < s.rows(); ++j) {
      if (j != i) all.emplace_back(ts::dtw(row_span(s, i), row_span(s, j), band), j);
    }
    std::sort(all.begin(), all.end());
    for (std::size_t r = 0; r < k; ++r) {
      out.dist.push_back(all[r].first);
      out.idx.push_back(all[r].second);
    }
  }
  return out;
}

TEST(KnnSeriesGraph, TiesBreakTowardSmallerIndex) {
  // 130 bases x 4 copies = 520 rows: more than one strip of the pruned
  // scan's sorted order, and every row has 3 copies at distance 0 plus
  // groups of 4 equal distances beyond, so k = 6 cuts through a tie group.
  const Matrix s = duplicated_series(130, 4, 8, 24);
  const std::size_t k = 6;
  const std::ptrdiff_t band = 2;
  const ts::NeighborList want = brute_force_knn(s, k, band);
  // The copies really cut through the selection: for most rows, a row left
  // out sits at exactly the k-th distance.
  std::size_t boundary_ties = 0;
  for (std::size_t i = 0; i < s.rows(); ++i) {
    const auto kept = std::span<const std::size_t>(want.idx).subspan(i * k, k);
    for (std::size_t j = 0; j < s.rows(); ++j) {
      if (j != i && std::find(kept.begin(), kept.end(), j) == kept.end() &&
          ts::dtw(row_span(s, i), row_span(s, j), band) ==
              want.dist[i * k + k - 1]) {
        ++boundary_ties;
        break;
      }
    }
  }
  ASSERT_GT(boundary_ties, s.rows() / 2);
  for (const bool prune : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      BackendGuard guard(threads);
      ts::KnnOptions opts;
      opts.k = k;
      opts.band = band;
      opts.prune = prune;
      const ts::NeighborList got = ts::knn_series_graph(s, opts);
      EXPECT_EQ(got.offsets, want.offsets);
      EXPECT_EQ(got.idx, want.idx) << "prune " << prune << " threads " << threads;
      EXPECT_EQ(got.dist, want.dist);
    }
  }
}

TEST(KnnSeriesGraph, StatsPartitionEveryPair) {
  // 600 rows span three strips of the pruned scan; 5 rows with k = 5 clamp
  // k to N − 1, so every candidate is kept. Lengths 1 and 2 have no
  // interior points for LB_Keogh, length 7 does; band 0 makes the envelope
  // the series itself, band −1 the whole-series min/max.
  for (const std::size_t n : {std::size_t{5}, std::size_t{600}}) {
    for (const std::size_t len :
         {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
      const Matrix s = clustered_series(n, len, 25 + len);
      for (const std::ptrdiff_t band :
           {std::ptrdiff_t{-1}, std::ptrdiff_t{0}, std::ptrdiff_t{1}}) {
        ts::KnnOptions opts;
        opts.k = 5;
        opts.band = band;
        opts.prune = false;
        ts::KnnStats exact_st;
        const ts::NeighborList exact = ts::knn_series_graph(s, opts, &exact_st);
        EXPECT_EQ(exact_st.pairs, n * (n - 1));
        EXPECT_EQ(exact_st.dtw_started, exact_st.pairs);
        EXPECT_EQ(exact_st.lb_kim_pruned + exact_st.lb_keogh_pruned, 0u);
        EXPECT_EQ(exact_st.dtw_abandoned, 0u);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          BackendGuard guard(threads);
          opts.prune = true;
          ts::KnnStats st;
          const ts::NeighborList pruned = ts::knn_series_graph(s, opts, &st);
          EXPECT_EQ(st.pairs, n * (n - 1))
              << "n " << n << " len " << len << " band " << band;
          EXPECT_EQ(st.lb_kim_pruned + st.lb_keogh_pruned + st.dtw_started,
                    st.pairs);
          EXPECT_LE(st.dtw_abandoned, st.dtw_started);
          if (n > opts.k + 1) {  // pruning has room to work
            EXPECT_LT(st.dtw_started, st.pairs / 4);
            if (len > 2) {
              EXPECT_GT(st.lb_keogh_pruned, 0u);
            }
          }
          EXPECT_EQ(pruned.idx, exact.idx);
          EXPECT_EQ(pruned.dist, exact.dist);
        }
      }
    }
  }
}

TEST(KnnSeriesGraph, RejectsNonFiniteRows) {
  Matrix s = clustered_series(12, 6, 26);
  s(7, 3) = std::numeric_limits<double>::quiet_NaN();
  s(9, 0) = kInf;
  for (const bool prune : {false, true}) {
    ts::KnnOptions opts;
    opts.k = 3;
    opts.prune = prune;
    try {
      (void)ts::knn_series_graph(s, opts);
      ADD_FAILURE() << "no throw, prune " << prune;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("row 7"), std::string::npos)
          << e.what();
    }
  }
}

// ---- Spatial k-NN ---------------------------------------------------------

TEST(SpatialKnn, CoordsPathMatchesDistanceMatrixPath) {
  Rng rng(17);
  const Matrix coords = rng.normal_matrix(40, 2, 3.0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    BackendGuard guard(threads);
    const ts::NeighborList direct = graph::knn_from_coords(coords, 6);
    const ts::NeighborList via_dense =
        graph::knn_from_distances(ref::pairwise_euclidean(coords), 6);
    EXPECT_EQ(direct.idx, via_dense.idx);
    EXPECT_EQ(direct.dist, via_dense.dist);
  }
}

TEST(SpatialKnn, TiesBreakTowardSmallerIndex) {
  // All off-diagonal distances equal: row i must keep the k smallest
  // indices != i, in ascending order.
  const std::size_t n = 7;
  Matrix d(n, n, 1.0);
  for (std::size_t i = 0; i < n; ++i) d(i, i) = 0.0;
  const ts::NeighborList knn = graph::knn_from_distances(d, 3);
  ASSERT_EQ(knn.k, 3u);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> expect;
    for (std::size_t j = 0; expect.size() < 3; ++j) {
      if (j != i) expect.push_back(j);
    }
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(knn.idx[knn.offsets[i] + r], expect[r]) << "row " << i;
    }
  }
}

TEST(SpatialKnn, GridTiesMatchDistanceMatrixPath) {
  // An integer 64 x 64 grid: every interior node has 4 neighbours at 1, 4
  // at sqrt(2), 4 at 2, ... — exact ties at every k, in both coordinates,
  // across the sorted sweep's x-columns.
  const std::size_t side = 64;
  Matrix coords(side * side, 2);
  for (std::size_t i = 0; i < coords.rows(); ++i) {
    coords(i, 0) = static_cast<double>(i % side);
    coords(i, 1) = static_cast<double>(i / side);
  }
  const Matrix dense = ref::pairwise_euclidean(coords);
  for (const std::size_t k : {std::size_t{6}, std::size_t{10}}) {
    const ts::NeighborList want = graph::knn_from_distances(dense, k);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      BackendGuard guard(threads);
      const ts::NeighborList got = graph::knn_from_coords(coords, k);
      EXPECT_EQ(got.offsets, want.offsets);
      EXPECT_EQ(got.idx, want.idx) << "k " << k << " threads " << threads;
      EXPECT_EQ(got.dist, want.dist);
    }
  }
}

TEST(SpatialKnn, RejectNonFiniteRows) {
  Rng rng(27);
  Matrix coords = rng.normal_matrix(10, 2, 1.0);
  coords(4, 1) = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)graph::knn_from_coords(coords, 3);
    ADD_FAILURE() << "knn_from_coords did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("row 4"), std::string::npos)
        << e.what();
  }
  Matrix dist = ref::pairwise_euclidean(rng.normal_matrix(10, 2, 1.0));
  dist(6, 2) = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)graph::knn_from_distances(dist, 3);
    ADD_FAILURE() << "knn_from_distances did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("row 6"), std::string::npos)
        << e.what();
  }
}

TEST(SpatialKnn, KClampedToNMinusOne) {
  Rng rng(18);
  const Matrix coords = rng.normal_matrix(5, 2, 1.0);
  const ts::NeighborList knn = graph::knn_from_coords(coords, 100);
  EXPECT_EQ(knn.k, 4u);
  EXPECT_EQ(knn.idx.size(), 20u);
}

// ---- CSR Laplacian pipeline parity ---------------------------------------

TEST(CsrGraphPipeline, MatchesDensePipelineBitwise) {
  Rng rng(19);
  const Matrix coords = rng.normal_matrix(32, 2, 4.0);
  const ts::NeighborList knn = graph::knn_from_coords(coords, 5);
  graph::AdjacencyOptions opts;
  opts.epsilon = 0.05;
  const CsrMatrix adj = graph::gaussian_knn_adjacency(knn, opts);
  const Matrix adj_dense = adj.to_dense();

  // Degrees.
  EXPECT_EQ(graph::degree_vector(adj),
            ref::degree_vector(adj_dense));

  // Normalized Laplacian.
  const CsrMatrix lap = graph::normalized_laplacian_csr(adj);
  const CsrMatrix lap_ref =
      CsrMatrix::from_dense(ref::normalized_laplacian(adj_dense));
  EXPECT_EQ(lap.row_ptr(), lap_ref.row_ptr());
  EXPECT_EQ(lap.col_idx(), lap_ref.col_idx());
  EXPECT_EQ(lap.values(), lap_ref.values());

  // Largest eigenvalue: identical power iteration.
  EXPECT_EQ(graph::largest_eigenvalue(lap),
            ref::largest_eigenvalue(lap.to_dense()));

  // Chebyshev rescaling.
  const CsrMatrix slap = graph::scaled_laplacian_csr(lap);
  const CsrMatrix slap_ref =
      CsrMatrix::from_dense(ref::scaled_laplacian(lap.to_dense()));
  EXPECT_EQ(slap.row_ptr(), slap_ref.row_ptr());
  EXPECT_EQ(slap.col_idx(), slap_ref.col_idx());
  EXPECT_EQ(slap.values(), slap_ref.values());
}

TEST(CsrGraphPipeline, GaussianKnnAdjacencyIsSymmetric) {
  Rng rng(20);
  const Matrix coords = rng.normal_matrix(25, 2, 2.0);
  const CsrMatrix adj =
      graph::gaussian_knn_adjacency(graph::knn_from_coords(coords, 4));
  const Matrix d = adj.to_dense();
  for (std::size_t i = 0; i < d.rows(); ++i) {
    EXPECT_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < d.cols(); ++j) {
      EXPECT_EQ(d(i, j), d(j, i));
    }
  }
}

TEST(CsrGraphPipeline, IsolatedNodesGetIdentityRows) {
  // Two connected pairs plus an isolated node.
  ts::NeighborList knn;
  knn.num_nodes = 5;
  knn.k = 1;
  knn.offsets = {0, 1, 2, 3, 4, 5};
  knn.idx = {1, 0, 3, 2, 0};
  knn.dist = {1.0, 1.0, 1.0, 1.0, 1e9};  // node 4's edge dies at epsilon
  graph::AdjacencyOptions opts;
  opts.epsilon = 0.5;
  opts.sigma = 1.0;
  const CsrMatrix adj = graph::gaussian_knn_adjacency(knn, opts);
  const CsrMatrix lap = graph::normalized_laplacian_csr(adj);
  const Matrix want = ref::normalized_laplacian(adj.to_dense());
  EXPECT_EQ(lap.to_dense(), want);
  EXPECT_EQ(lap.to_dense()(4, 4), 1.0);
}

// ---- CsrMatrix construction helpers --------------------------------------

TEST(CsrFromParts, RoundTripsAndValidates) {
  const CsrMatrix m = CsrMatrix::from_parts(3, 4, {0, 2, 2, 3}, {0, 2, 3},
                                            {1.0, -2.0, 0.5});
  Matrix expect(3, 4);
  expect(0, 0) = 1.0;
  expect(0, 2) = -2.0;
  expect(2, 3) = 0.5;
  EXPECT_EQ(m.to_dense(), expect);
  // spmm uses the transpose structure built by from_parts: exercise it.
  Rng rng(21);
  const Matrix x = rng.normal_matrix(3, 2, 1.0);
  EXPECT_EQ(spmm_t(m, x), matmul_at(m.to_dense(), x));

  EXPECT_THROW(CsrMatrix::from_parts(2, 2, {0, 1}, {0}, {1.0}), ShapeError);
  EXPECT_THROW(CsrMatrix::from_parts(2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0}),
               ShapeError);
  EXPECT_THROW(CsrMatrix::from_parts(1, 2, {0, 2}, {1, 0}, {1.0, 2.0}),
               ShapeError);  // not ascending
  EXPECT_THROW(CsrMatrix::from_parts(1, 2, {0, 1}, {5}, {1.0}), ShapeError);
}

TEST(CsrSubmatrix, MatchesDenseExtraction) {
  Rng rng(22);
  Matrix dense = rng.normal_matrix(10, 10, 1.0);
  Matrix keep = rng.uniform_matrix(10, 10, 0.0, 1.0);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (keep.data()[i] >= 0.3) dense.data()[i] = 0.0;
  }
  const CsrMatrix m = CsrMatrix::from_dense(dense);
  const std::vector<std::size_t> nodes = {1, 3, 4, 8};
  const CsrMatrix sub = m.submatrix(nodes);
  Matrix expect(nodes.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      expect(i, j) = dense(nodes[i], nodes[j]);
    }
  }
  EXPECT_EQ(sub.to_dense(), expect);
  // Transpose structure also valid on the submatrix.
  Rng rng2(23);
  const Matrix x = rng2.normal_matrix(nodes.size(), 3, 1.0);
  EXPECT_EQ(spmm_t(sub, x), matmul_at(expect, x));

  EXPECT_THROW(m.submatrix({3, 1}), ShapeError);
  EXPECT_THROW(m.submatrix({0, 10}), ShapeError);
}

}  // namespace
}  // namespace rihgcn
