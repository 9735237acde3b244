// Road-network graph machinery: Gaussian-kernel adjacency construction
// (paper Eq. 8), normalized Laplacian, largest-eigenvalue estimation, and
// the rescaled Laplacian L̃ = 2L/λ_max − I that Chebyshev GCN consumes.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"
#include "timeseries/distance.hpp"

namespace rihgcn::graph {

using rihgcn::CsrMatrix;
using rihgcn::Matrix;

/// Options for Gaussian-kernel adjacency construction (paper Eq. 8):
///   A_ij = exp(-d_ij^2 / sigma^2) if >= epsilon else 0.
struct AdjacencyOptions {
  /// Sparsity threshold ε (paper: 0.1).
  double epsilon = 0.1;
  /// Kernel width σ. If unset, uses the standard deviation of all pairwise
  /// distances (the paper's convention, following DCRNN).
  std::optional<double> sigma;
  /// Zero the diagonal (self-loops are added by the Laplacian instead).
  bool zero_diagonal = true;
};

/// Build the thresholded Gaussian-kernel adjacency from a symmetric distance
/// matrix. Output is symmetric with zero diagonal (by default).
[[nodiscard]] Matrix gaussian_adjacency(const Matrix& distances,
                                        const AdjacencyOptions& opts = {});

/// Pairwise Euclidean distances between rows of `coords` (N x dim).
[[nodiscard]] Matrix pairwise_euclidean(const Matrix& coords);

/// Row-sum degrees deg_i = sum_j A_ij as a length-N vector. The hot-path
/// building block behind degree_matrix/normalized_laplacian.
[[nodiscard]] std::vector<double> degree_vector(const Matrix& adjacency);

/// Degree matrix diag(sum_j A_ij) returned as N x N. Materializes a full
/// dense matrix — kept for the public API and tests; the Laplacian pipeline
/// works from degree_vector() instead.
[[nodiscard]] Matrix degree_matrix(const Matrix& adjacency);

/// Symmetric normalized Laplacian L = I − D^{-1/2} A D^{-1/2}.
/// Isolated nodes (zero degree) contribute an identity row/column.
[[nodiscard]] Matrix normalized_laplacian(const Matrix& adjacency);

/// Largest eigenvalue by power iteration on (L + shift·I) — L's spectrum lies
/// in [0, 2], so the shift makes the dominant eigenvalue unambiguous.
/// Returns λ_max of L.
[[nodiscard]] double largest_eigenvalue(const Matrix& symmetric,
                                        std::size_t max_iters = 200,
                                        double tol = 1e-9);

/// Chebyshev rescaling: L̃ = 2L/λ_max − I. If lambda_max <= 0 it is
/// estimated with largest_eigenvalue().
[[nodiscard]] Matrix scaled_laplacian(const Matrix& laplacian,
                                      double lambda_max = -1.0);

/// Convenience: distance matrix -> scaled Laplacian in one call.
[[nodiscard]] Matrix scaled_laplacian_from_distances(
    const Matrix& distances, const AdjacencyOptions& opts = {});

// ---- k-NN graph pipeline for city-scale N (DESIGN.md §13) -----------------
//
// At N = 16384 a dense N x N matrix is 2 GiB; this pipeline never builds
// one. Adjacency lives as a CsrMatrix from the start (k-NN edge set,
// union-symmetrized), and the Laplacian / rescaling steps below operate
// CSR-to-CSR. The selection rule behind every k-NN list is the shared
// ts::TopKNeighbors helper — keep the k smallest distances per row, ties
// broken toward the smaller index — so the spatial graphs here and the
// temporal graphs from ts::knn_series_graph sparsify identically.
//
// Bitwise-parity contract with the dense pipeline: for the same adjacency
// (CSR vs dense with the same entries), degree_vector, normalized Laplacian,
// largest_eigenvalue and Chebyshev rescaling below produce bit-identical
// values to their dense counterparts followed by CsrMatrix::from_dense
// (tol = 0). The dense loops only add zero-valued terms that the CSR loops
// skip, and adding ±0.0 to a nonzero partial sum never changes its bits;
// exact zeros produced by the arithmetic are dropped on both paths
// (from_dense keeps |v| > 0). tests/test_knn_graph.cpp enforces == .

/// Row-wise k-NN sparsification of a dense symmetric distance matrix
/// (diagonal excluded). k is clamped to N-1. Sharded over the global
/// ThreadPool; results are thread-count independent. Throws
/// std::invalid_argument on a row holding a non-finite distance.
[[nodiscard]] ts::NeighborList knn_from_distances(const Matrix& distances,
                                                  std::size_t k);

/// k-NN over Euclidean distances between rows of `coords` (N x dim) without
/// materializing the N x N distance matrix. Bitwise equal to
/// knn_from_distances(pairwise_euclidean(coords), k). Nodes are sorted once
/// by their first coordinate; each row sweeps outward from its own place
/// and stops a direction once the first-coordinate gap alone puts every
/// further node strictly beyond the k-th distance. Throws
/// std::invalid_argument on a non-finite coordinate row.
[[nodiscard]] ts::NeighborList knn_from_coords(const Matrix& coords,
                                               std::size_t k);

/// Gaussian-kernel adjacency (paper Eq. 8) restricted to a k-NN edge set,
/// union-symmetrized (edge kept if either endpoint selected it), returned in
/// CSR form. When opts.sigma is unset, σ is the standard deviation of the
/// kept directed k-NN distances — NOT the dense pipeline's all-pairs std,
/// which is exactly the O(N²) pass this path exists to avoid. The diagonal
/// is never included (k-NN excludes self-pairs).
[[nodiscard]] CsrMatrix gaussian_knn_adjacency(const ts::NeighborList& knn,
                                               const AdjacencyOptions& opts =
                                                   {});

/// Row-sum degrees of a CSR adjacency; bitwise equal to the dense overload.
[[nodiscard]] std::vector<double> degree_vector(const CsrMatrix& adjacency);

/// Symmetric normalized Laplacian L = I − D^{-1/2} A D^{-1/2}, CSR to CSR.
/// Isolated nodes contribute an identity row. Bitwise equal to
/// from_dense(normalized_laplacian(dense A)).
[[nodiscard]] CsrMatrix normalized_laplacian_csr(const CsrMatrix& adjacency);

/// Power-iteration largest eigenvalue, CSR overload; same shifted iteration,
/// start vector and Rayleigh quotient as the dense version.
[[nodiscard]] double largest_eigenvalue(const CsrMatrix& symmetric,
                                        std::size_t max_iters = 200,
                                        double tol = 1e-9);

/// Chebyshev rescaling L̃ = 2L/λ_max − I, CSR to CSR. lambda_max <= 0 is
/// estimated with the CSR largest_eigenvalue. Exact zeros produced by the
/// rescaling are dropped (matching from_dense of the dense result).
[[nodiscard]] CsrMatrix scaled_laplacian_csr(const CsrMatrix& laplacian,
                                             double lambda_max = -1.0);

/// Structural sparsity summary of a graph matrix.
struct SparsityStats {
  std::size_t nnz = 0;    ///< entries with |v| > 0
  std::size_t size = 0;   ///< rows * cols
  double density = 0.0;   ///< nnz / size (0 for an empty matrix)
};
[[nodiscard]] SparsityStats sparsity_stats(const Matrix& m);

// ---- Structural checks (used by tests and data validation) ----------------

[[nodiscard]] bool is_symmetric(const Matrix& m, double tol = 1e-12);
/// Fraction of off-diagonal entries that are exactly zero.
[[nodiscard]] double sparsity(const Matrix& m);
/// Number of connected components treating nonzero entries as edges.
[[nodiscard]] std::size_t connected_components(const Matrix& adjacency);

/// A static road-network graph: node coordinates plus derived matrices.
/// This is the "geographic graph" of the paper; the temporal graphs reuse the
/// same adjacency/Laplacian pipeline with DTW distances instead of meters.
class RoadGraph {
 public:
  /// coords: N x dim node positions (e.g. projected lon/lat in km).
  RoadGraph(Matrix coords, const AdjacencyOptions& opts = {});
  /// Directly from a precomputed symmetric distance matrix.
  static RoadGraph from_distances(Matrix distances,
                                  const AdjacencyOptions& opts = {});

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return adjacency_.rows();
  }
  [[nodiscard]] const Matrix& distances() const noexcept { return distances_; }
  [[nodiscard]] const Matrix& adjacency() const noexcept { return adjacency_; }
  [[nodiscard]] const Matrix& laplacian() const noexcept { return laplacian_; }
  [[nodiscard]] const Matrix& scaled_laplacian() const noexcept {
    return scaled_laplacian_;
  }
  [[nodiscard]] double lambda_max() const noexcept { return lambda_max_; }

 private:
  RoadGraph() = default;
  void finish(const AdjacencyOptions& opts);

  Matrix distances_;
  Matrix adjacency_;
  Matrix laplacian_;
  Matrix scaled_laplacian_;
  double lambda_max_ = 0.0;
};

}  // namespace rihgcn::graph
