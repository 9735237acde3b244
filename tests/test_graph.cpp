#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph_reference.hpp"
#include "tensor/rng.hpp"

namespace rihgcn::graph {
namespace {

using reference::expect_same_csr;

Matrix ring_distances(std::size_t n) {
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t fwd = i > j ? i - j : j - i;
      d(i, j) = static_cast<double>(std::min(fwd, n - fwd));
    }
  }
  return d;
}

Matrix random_distances(std::size_t n, std::uint64_t seed, double lo,
                        double hi) {
  Rng rng(seed);
  Matrix d = rng.uniform_matrix(n, n, lo, hi);
  d = (d + d.transposed()) * 0.5;
  for (std::size_t i = 0; i < n; ++i) d(i, i) = 0.0;
  return d;
}

/// All-ones off-diagonal adjacency of the complete graph K_n.
CsrMatrix complete_graph(std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) a(i, j) = 1.0;
    }
  }
  return CsrMatrix::from_dense(a);
}

TEST(Adjacency, SelfWeightZeroByDefault) {
  const Matrix a = gaussian_adjacency(ring_distances(5)).to_dense();
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(a(i, i), 0.0);
}

TEST(Adjacency, SymmetricFromSymmetricDistances) {
  const Matrix a = gaussian_adjacency(ring_distances(7)).to_dense();
  EXPECT_EQ(a, a.transposed());
}

TEST(Adjacency, CloserNodesGetLargerWeights) {
  const Matrix a = gaussian_adjacency(ring_distances(8)).to_dense();
  EXPECT_GT(a(0, 1), a(0, 2));
}

TEST(Adjacency, EpsilonThresholdSparsifies) {
  AdjacencyOptions loose;
  loose.epsilon = 0.0;
  AdjacencyOptions tight;
  tight.epsilon = 0.9;
  const Matrix d = ring_distances(10);
  EXPECT_GE(gaussian_adjacency(d, loose).nnz(),
            gaussian_adjacency(d, tight).nnz());
}

TEST(Adjacency, ExplicitSigma) {
  AdjacencyOptions opts;
  opts.sigma = 1.0;
  opts.epsilon = 0.0;
  Matrix d(2, 2);
  d(0, 1) = d(1, 0) = 1.0;
  const Matrix a = gaussian_adjacency(d, opts).to_dense();
  EXPECT_NEAR(a(0, 1), std::exp(-1.0), 1e-12);
}

TEST(Adjacency, NonSquareThrows) {
  EXPECT_THROW((void)gaussian_adjacency(Matrix(2, 3)), ShapeError);
  EXPECT_THROW((void)scaled_laplacian_from_distances(Matrix(2, 3)),
               ShapeError);
}

TEST(Adjacency, SingleNodeGraph) {
  const CsrMatrix a = gaussian_adjacency(Matrix(1, 1));
  EXPECT_EQ(a.rows(), 1u);
  EXPECT_EQ(a.nnz(), 0u);
}

TEST(Adjacency, MatchesDenseReferenceBitwise) {
  // The all-pairs CSR builder stores exactly the nonzeros of the dense
  // Eq. 8 matrix: same σ sum order, same ε rule, same bits.
  for (const double eps : {0.0, 0.1, 0.5}) {
    AdjacencyOptions opts;
    opts.epsilon = eps;
    for (const std::size_t n : {1, 2, 9, 40}) {
      const Matrix d = random_distances(n, 50 + n, 0.1, 4.0);
      expect_same_csr(gaussian_adjacency(d, opts),
                      CsrMatrix::from_dense(
                          reference::gaussian_adjacency(d, opts)));
    }
  }
  AdjacencyOptions fixed;
  fixed.sigma = 0.7;
  const Matrix d = ring_distances(12);
  expect_same_csr(gaussian_adjacency(d, fixed),
                  CsrMatrix::from_dense(
                      reference::gaussian_adjacency(d, fixed)));
}

TEST(PairwiseEuclidean, KnownValues) {
  // The reference the coordinate k-NN parity tests compare against, and
  // knn_from_coords itself, on a 3-4-5 triangle.
  Matrix coords{{0, 0}, {3, 4}};
  const Matrix d = reference::pairwise_euclidean(coords);
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
  const ts::NeighborList knn = knn_from_coords(coords, 1);
  EXPECT_EQ(knn.dist, (std::vector<double>{5.0, 5.0}));
}

TEST(Degree, RowSums) {
  const CsrMatrix a =
      CsrMatrix::from_dense(Matrix{{0, 2, 0}, {2, 0, 1}, {0, 1, 0}});
  EXPECT_EQ(degree_vector(a), (std::vector<double>{2.0, 3.0, 1.0}));
  EXPECT_THROW((void)degree_vector(CsrMatrix::from_dense(Matrix(2, 3))),
               ShapeError);
}

TEST(SparseBackend, ToCsrRoundTripsGraphMatrices) {
  const CsrMatrix csr = gaussian_adjacency(ring_distances(9));
  const Matrix a = csr.to_dense();
  expect_same_csr(CsrMatrix::from_dense(a), csr);
  // tol filtering drops weak edges.
  EXPECT_LT(CsrMatrix::from_dense(a, 0.5).nnz(), csr.nnz());
}

TEST(SparseBackend, ScaledLaplacianCsrMatchesDense) {
  const Matrix d = ring_distances(11);
  const reference::CsrGraph want = reference::graph_from_distances(d);
  expect_same_csr(scaled_laplacian_from_distances(d), want.scaled_laplacian);
}

TEST(SparseBackend, SparsityStats) {
  Matrix m(4, 5);
  m(0, 0) = 1.0;
  m(3, 4) = -2.0;
  const CsrMatrix csr = CsrMatrix::from_dense(m);
  EXPECT_EQ(csr.nnz(), 2u);
  EXPECT_DOUBLE_EQ(csr.density(), 0.1);
  EXPECT_EQ(CsrMatrix().density(), 0.0);
}

TEST(Laplacian, RowSumZeroForRegularGraph) {
  // For symmetric normalized Laplacian with uniform degrees, L·1 = 0.
  const Matrix lap = normalized_laplacian_csr(complete_graph(4)).to_dense();
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 4; ++j) s += lap(i, j);
    EXPECT_NEAR(s, 0.0, 1e-12);
  }
}

TEST(Laplacian, IsolatedNodeGivesIdentityRow) {
  Matrix a(3, 3);
  a(0, 1) = a(1, 0) = 1.0;  // node 2 isolated
  const Matrix lap =
      normalized_laplacian_csr(CsrMatrix::from_dense(a)).to_dense();
  EXPECT_EQ(lap(2, 2), 1.0);
  EXPECT_EQ(lap(2, 0), 0.0);
  EXPECT_EQ(lap(2, 1), 0.0);
}

TEST(Laplacian, SymmetricOutput) {
  AdjacencyOptions opts;
  opts.epsilon = 0.0;
  const Matrix lap =
      normalized_laplacian_csr(
          gaussian_adjacency(random_distances(6, 3, 0.5, 3.0), opts))
          .to_dense();
  EXPECT_TRUE(allclose(lap, lap.transposed(), 1e-10));
}

TEST(Eigen, DiagonalMatrix) {
  const CsrMatrix m = CsrMatrix::from_dense(Matrix{{3.0, 0.0}, {0.0, 1.0}});
  EXPECT_NEAR(largest_eigenvalue(m), 3.0, 1e-7);
}

TEST(Eigen, KnownSymmetricMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  const CsrMatrix m = CsrMatrix::from_dense(Matrix{{2.0, 1.0}, {1.0, 2.0}});
  EXPECT_NEAR(largest_eigenvalue(m), 3.0, 1e-7);
}

TEST(Eigen, CompleteGraphLaplacian) {
  // Normalized Laplacian of K_n has eigenvalues {0, n/(n-1)}.
  const std::size_t n = 5;
  const double lmax =
      largest_eigenvalue(normalized_laplacian_csr(complete_graph(n)));
  EXPECT_NEAR(lmax, static_cast<double>(n) / (n - 1.0), 1e-7);
}

TEST(Eigen, SpectrumBoundsForRandomGraphs) {
  // Normalized Laplacian eigenvalues always lie in [0, 2].
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    AdjacencyOptions opts;
    opts.epsilon = 0.05;
    const double lmax = largest_eigenvalue(normalized_laplacian_csr(
        gaussian_adjacency(random_distances(8, seed, 0.2, 2.0), opts)));
    EXPECT_GE(lmax, 0.0);
    EXPECT_LE(lmax, 2.0 + 1e-9);
  }
}

TEST(Eigen, SingleElementAndEmpty) {
  EXPECT_DOUBLE_EQ(largest_eigenvalue(CsrMatrix::from_dense(Matrix{{4.2}})),
                   4.2);
  EXPECT_DOUBLE_EQ(largest_eigenvalue(CsrMatrix()), 0.0);
  EXPECT_THROW((void)largest_eigenvalue(CsrMatrix::from_dense(Matrix(2, 3))),
               ShapeError);
}

TEST(ScaledLaplacian, SpectrumMappedIntoUnitInterval) {
  const CsrMatrix scaled =
      scaled_laplacian_csr(normalized_laplacian_csr(complete_graph(4)));
  // λ(L̃) = 2λ(L)/λmax − 1 ∈ [−1, 1]; its largest eigenvalue is exactly 1.
  EXPECT_NEAR(largest_eigenvalue(scaled), 1.0, 1e-6);
}

TEST(ScaledLaplacian, ZeroGraphFallback) {
  // Empty graph => L == 0 (no stored entries) => L̃ = −I.
  const CsrMatrix lap = CsrMatrix::from_dense(Matrix(3, 3));
  const Matrix scaled = scaled_laplacian_csr(lap).to_dense();
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(scaled(i, i), -1.0);
}

// Property sweep over sizes and epsilon: structural invariants of the full
// distance -> adjacency -> Laplacian -> scaling pipeline, and bitwise
// agreement with the dense reference formulas at every step.
class GraphPipelineTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(GraphPipelineTest, Invariants) {
  const auto [n_int, eps] = GetParam();
  const auto n = static_cast<std::size_t>(n_int);
  const Matrix d = random_distances(n, 1000 + n, 0.1, 4.0);
  AdjacencyOptions opts;
  opts.epsilon = eps;
  const CsrMatrix adj = gaussian_adjacency(d, opts);
  const CsrMatrix lap = normalized_laplacian_csr(adj);
  const double lambda_max = largest_eigenvalue(lap);
  const CsrMatrix scaled = scaled_laplacian_csr(lap, lambda_max);
  const Matrix a = adj.to_dense();
  EXPECT_EQ(a, a.transposed());
  EXPECT_TRUE(allclose(lap.to_dense(), lap.to_dense().transposed(), 1e-10));
  EXPECT_GE(a.min(), 0.0);
  EXPECT_LE(a.max(), 1.0);
  EXPECT_GE(lambda_max, -1e-9);
  EXPECT_LE(lambda_max, 2.0 + 1e-9);
  EXPECT_FALSE(scaled.to_dense().has_non_finite());

  const reference::CsrGraph want = reference::graph_from_distances(d, opts);
  expect_same_csr(adj, want.adjacency);
  expect_same_csr(scaled, want.scaled_laplacian);
  expect_same_csr(scaled_laplacian_from_distances(d, opts),
                  want.scaled_laplacian);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndEps, GraphPipelineTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 20),
                       ::testing::Values(0.0, 0.1, 0.5)));

}  // namespace
}  // namespace rihgcn::graph
