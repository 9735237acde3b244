#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/rng.hpp"

namespace rihgcn::graph {
namespace {

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

TEST(Adjacency, SelfWeightZeroByDefault) {
  const Matrix a = gaussian_adjacency(ring_distances(5));
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(a(i, i), 0.0);
}

TEST(Adjacency, SymmetricFromSymmetricDistances) {
  const Matrix a = gaussian_adjacency(ring_distances(7));
  EXPECT_TRUE(is_symmetric(a));
}

TEST(Adjacency, CloserNodesGetLargerWeights) {
  const Matrix a = gaussian_adjacency(ring_distances(8));
  EXPECT_GT(a(0, 1), a(0, 2));
}

TEST(Adjacency, EpsilonThresholdSparsifies) {
  AdjacencyOptions loose;
  loose.epsilon = 0.0;
  AdjacencyOptions tight;
  tight.epsilon = 0.9;
  const Matrix d = ring_distances(10);
  EXPECT_LE(sparsity(gaussian_adjacency(d, loose)),
            sparsity(gaussian_adjacency(d, tight)));
}

TEST(Adjacency, ExplicitSigma) {
  AdjacencyOptions opts;
  opts.sigma = 1.0;
  opts.epsilon = 0.0;
  Matrix d(2, 2);
  d(0, 1) = d(1, 0) = 1.0;
  const Matrix a = gaussian_adjacency(d, opts);
  EXPECT_NEAR(a(0, 1), std::exp(-1.0), 1e-12);
}

TEST(Adjacency, NonSquareThrows) {
  EXPECT_THROW((void)gaussian_adjacency(Matrix(2, 3)), ShapeError);
}

TEST(Adjacency, SingleNodeGraph) {
  const Matrix a = gaussian_adjacency(Matrix(1, 1));
  EXPECT_EQ(a.rows(), 1u);
  EXPECT_EQ(a(0, 0), 0.0);
}

TEST(PairwiseEuclidean, KnownValues) {
  Matrix coords{{0, 0}, {3, 4}};
  const Matrix d = pairwise_euclidean(coords);
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

TEST(Degree, RowSums) {
  Matrix a{{0, 2, 0}, {2, 0, 1}, {0, 1, 0}};
  const Matrix d = degree_matrix(a);
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(1, 1), 3.0);
  EXPECT_EQ(d(0, 1), 0.0);
}

TEST(Degree, VectorMatchesMatrixDiagonal) {
  Matrix a{{0, 2, 0}, {2, 0, 1}, {0, 1, 0}};
  const std::vector<double> deg = degree_vector(a);
  const Matrix d = degree_matrix(a);
  ASSERT_EQ(deg.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(deg[i], d(i, i));
  EXPECT_THROW((void)degree_vector(Matrix(2, 3)), ShapeError);
}

TEST(SparseBackend, ToCsrRoundTripsGraphMatrices) {
  const Matrix a = gaussian_adjacency(ring_distances(9));
  const CsrMatrix csr = CsrMatrix::from_dense(a);
  EXPECT_EQ(csr.to_dense(), a);
  // tol filtering drops weak edges.
  EXPECT_LT(CsrMatrix::from_dense(a, 0.5).nnz(), csr.nnz());
}

TEST(SparseBackend, ScaledLaplacianCsrMatchesDense) {
  const Matrix a = gaussian_adjacency(ring_distances(11));
  const Matrix dense = scaled_laplacian(normalized_laplacian(a));
  EXPECT_EQ(CsrMatrix::from_dense(dense).to_dense(), dense);
}

TEST(SparseBackend, SparsityStats) {
  Matrix m(4, 5);
  m(0, 0) = 1.0;
  m(3, 4) = -2.0;
  const SparsityStats st = sparsity_stats(m);
  EXPECT_EQ(st.nnz, 2u);
  EXPECT_EQ(st.size, 20u);
  EXPECT_DOUBLE_EQ(st.density, 0.1);
  EXPECT_EQ(sparsity_stats(Matrix()).density, 0.0);
}

TEST(Laplacian, RowSumZeroForRegularGraph) {
  // For symmetric normalized Laplacian with uniform degrees, L·1 = 0.
  Matrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i != j) a(i, j) = 1.0;
    }
  }
  const Matrix lap = normalized_laplacian(a);
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 4; ++j) s += lap(i, j);
    EXPECT_NEAR(s, 0.0, 1e-12);
  }
}

TEST(Laplacian, IsolatedNodeGivesIdentityRow) {
  Matrix a(3, 3);
  a(0, 1) = a(1, 0) = 1.0;  // node 2 isolated
  const Matrix lap = normalized_laplacian(a);
  EXPECT_EQ(lap(2, 2), 1.0);
  EXPECT_EQ(lap(2, 0), 0.0);
  EXPECT_EQ(lap(2, 1), 0.0);
}

TEST(Laplacian, SymmetricOutput) {
  Rng rng(3);
  Matrix d = rng.uniform_matrix(6, 6, 0.5, 3.0);
  d = (d + d.transposed()) * 0.5;
  for (std::size_t i = 0; i < 6; ++i) d(i, i) = 0.0;
  AdjacencyOptions opts;
  opts.epsilon = 0.0;
  const Matrix lap = normalized_laplacian(gaussian_adjacency(d, opts));
  EXPECT_TRUE(is_symmetric(lap, 1e-10));
}

TEST(Eigen, DiagonalMatrix) {
  Matrix m{{3.0, 0.0}, {0.0, 1.0}};
  EXPECT_NEAR(largest_eigenvalue(m), 3.0, 1e-7);
}

TEST(Eigen, KnownSymmetricMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  EXPECT_NEAR(largest_eigenvalue(m), 3.0, 1e-7);
}

TEST(Eigen, CompleteGraphLaplacian) {
  // Normalized Laplacian of K_n has eigenvalues {0, n/(n-1)}.
  const std::size_t n = 5;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) a(i, j) = 1.0;
    }
  }
  const double lmax = largest_eigenvalue(normalized_laplacian(a));
  EXPECT_NEAR(lmax, static_cast<double>(n) / (n - 1.0), 1e-7);
}

TEST(Eigen, SpectrumBoundsForRandomGraphs) {
  // Normalized Laplacian eigenvalues always lie in [0, 2].
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    Matrix d = rng.uniform_matrix(8, 8, 0.2, 2.0);
    d = (d + d.transposed()) * 0.5;
    for (std::size_t i = 0; i < 8; ++i) d(i, i) = 0.0;
    AdjacencyOptions opts;
    opts.epsilon = 0.05;
    const double lmax =
        largest_eigenvalue(normalized_laplacian(gaussian_adjacency(d, opts)));
    EXPECT_GE(lmax, 0.0);
    EXPECT_LE(lmax, 2.0 + 1e-9);
  }
}

TEST(Eigen, SingleElementAndEmpty) {
  EXPECT_DOUBLE_EQ(largest_eigenvalue(Matrix{{4.2}}), 4.2);
  EXPECT_DOUBLE_EQ(largest_eigenvalue(Matrix()), 0.0);
  EXPECT_THROW((void)largest_eigenvalue(Matrix(2, 3)), ShapeError);
}

TEST(ScaledLaplacian, SpectrumMappedIntoUnitInterval) {
  Matrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i != j) a(i, j) = 1.0;
    }
  }
  const Matrix lap = normalized_laplacian(a);
  const Matrix scaled = scaled_laplacian(lap);
  // λ(L̃) = 2λ(L)/λmax − 1 ∈ [−1, 1]; its largest eigenvalue is exactly 1.
  EXPECT_NEAR(largest_eigenvalue(scaled), 1.0, 1e-6);
}

TEST(ScaledLaplacian, ZeroGraphFallback) {
  const Matrix lap(3, 3);  // empty graph => L == 0
  const Matrix scaled = scaled_laplacian(lap);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(scaled(i, i), -1.0);
}

TEST(Components, CountsCorrectly) {
  Matrix a(5, 5);
  a(0, 1) = a(1, 0) = 1.0;
  a(2, 3) = a(3, 2) = 1.0;
  EXPECT_EQ(connected_components(a), 3u);  // {0,1}, {2,3}, {4}
  a(1, 2) = a(2, 1) = 1.0;
  EXPECT_EQ(connected_components(a), 2u);
}

TEST(RoadGraph, FromCoordinates) {
  Matrix coords{{0, 0}, {1, 0}, {0, 1}};
  AdjacencyOptions opts;
  opts.epsilon = 0.0;
  const RoadGraph g(coords, opts);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(is_symmetric(g.adjacency()));
  EXPECT_GT(g.lambda_max(), 0.0);
  EXPECT_TRUE(is_symmetric(g.scaled_laplacian(), 1e-9));
}

TEST(RoadGraph, FromDistancesRejectsNonSquare) {
  EXPECT_THROW(RoadGraph::from_distances(Matrix(2, 3)), ShapeError);
}

// Property sweep over sizes and epsilon: structural invariants of the full
// distance -> adjacency -> Laplacian -> scaling pipeline.
class GraphPipelineTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(GraphPipelineTest, Invariants) {
  const auto [n_int, eps] = GetParam();
  const auto n = static_cast<std::size_t>(n_int);
  Rng rng(1000 + n);
  Matrix d = rng.uniform_matrix(n, n, 0.1, 4.0);
  d = (d + d.transposed()) * 0.5;
  for (std::size_t i = 0; i < n; ++i) d(i, i) = 0.0;
  AdjacencyOptions opts;
  opts.epsilon = eps;
  const RoadGraph g = RoadGraph::from_distances(d, opts);
  EXPECT_TRUE(is_symmetric(g.adjacency(), 1e-12));
  EXPECT_TRUE(is_symmetric(g.laplacian(), 1e-10));
  EXPECT_GE(g.adjacency().min(), 0.0);
  EXPECT_LE(g.adjacency().max(), 1.0);
  EXPECT_GE(g.lambda_max(), -1e-9);
  EXPECT_LE(g.lambda_max(), 2.0 + 1e-9);
  EXPECT_FALSE(g.scaled_laplacian().has_non_finite());
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndEps, GraphPipelineTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 20),
                       ::testing::Values(0.0, 0.1, 0.5)));

}  // namespace
}  // namespace rihgcn::graph
