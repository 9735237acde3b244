// Road-network graph machinery: Gaussian-kernel adjacency construction
// (paper Eq. 8), normalized Laplacian, largest-eigenvalue estimation, and
// the rescaled Laplacian L̃ = 2L/λ_max − I that Chebyshev GCN consumes.
//
// Every graph is built one way: an Eq. 8 adjacency in CSR form, then the
// CSR Laplacian tail below (normalized_laplacian_csr → scaled_laplacian_csr).
// The all-pairs builder (gaussian_adjacency) and the city-scale k-NN builder
// (gaussian_knn_adjacency) differ only in which edges the adjacency holds.
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
/// The diagonal is always zero (self-loops come from the Laplacian).
struct AdjacencyOptions {
  /// Sparsity threshold ε (paper: 0.1).
  double epsilon = 0.1;
  /// Kernel width σ. If unset, uses the standard deviation of all pairwise
  /// distances (the paper's convention, following DCRNN).
  std::optional<double> sigma;
};

/// All-pairs Eq. 8 adjacency from a square distance matrix, in CSR form.
/// When opts.sigma is unset, σ is the standard deviation of every
/// off-diagonal distance, summed in row-major order. Entries thresholded
/// away by ε (and exact zeros) are not stored, nor is the diagonal. Throws
/// ShapeError on a non-square matrix.
[[nodiscard]] CsrMatrix gaussian_adjacency(const Matrix& distances,
                                           const AdjacencyOptions& opts = {});

/// Convenience: distance matrix -> scaled Laplacian in one call
/// (gaussian_adjacency, then the CSR Laplacian tail).
[[nodiscard]] CsrMatrix scaled_laplacian_from_distances(
    const Matrix& distances, const AdjacencyOptions& opts = {});

// ---- k-NN edge sets for city-scale N (DESIGN.md §13) --------------------
//
// At N = 16384 a dense N x N matrix is 2 GiB; these builders never make
// one. The selection rule behind every k-NN list is the shared
// ts::TopKNeighbors helper — keep the k smallest distances per row, ties
// broken toward the smaller index — so the spatial graphs here and the
// temporal graphs from ts::knn_series_graph sparsify identically.

/// Row-wise k-NN sparsification of a dense symmetric distance matrix
/// (diagonal excluded). k is clamped to N-1. Sharded over the global
/// ThreadPool; results are thread-count independent. Throws
/// std::invalid_argument on a row holding a non-finite distance.
[[nodiscard]] ts::NeighborList knn_from_distances(const Matrix& distances,
                                                  std::size_t k);

/// k-NN over Euclidean distances between rows of `coords` (N x dim) without
/// materializing the N x N distance matrix. Bitwise equal to
/// knn_from_distances of the all-pairs Euclidean matrix (per-dimension
/// squared differences summed in column order, then sqrt). Nodes are sorted
/// once by their first coordinate; each row sweeps outward from its own
/// place and stops a direction once the first-coordinate gap alone puts
/// every further node strictly beyond the k-th distance. Throws
/// std::invalid_argument on a non-finite coordinate row.
[[nodiscard]] ts::NeighborList knn_from_coords(const Matrix& coords,
                                               std::size_t k);

/// Gaussian-kernel adjacency (paper Eq. 8) restricted to a k-NN edge set,
/// union-symmetrized (edge kept if either endpoint selected it), returned in
/// CSR form. When opts.sigma is unset, σ is the standard deviation of the
/// kept directed k-NN distances — NOT gaussian_adjacency's all-pairs std,
/// which is exactly the O(N²) pass this path exists to avoid. The diagonal
/// is never included (k-NN excludes self-pairs).
[[nodiscard]] CsrMatrix gaussian_knn_adjacency(const ts::NeighborList& knn,
                                               const AdjacencyOptions& opts =
                                                   {});

// ---- CSR Laplacian tail ---------------------------------------------------
//
// Bitwise-parity contract with the textbook dense formulas (kept as a
// reference in tests/graph_reference.hpp): for the same adjacency,
// degree_vector, normalized_laplacian_csr, largest_eigenvalue and
// scaled_laplacian_csr produce bit-identical values to the dense loops
// followed by CsrMatrix::from_dense (tol = 0). The dense loops only add
// zero-valued terms that the CSR loops skip, and adding ±0.0 to a nonzero
// partial sum never changes its bits; exact zeros produced by the
// arithmetic are dropped on both paths (from_dense keeps |v| > 0).
// tests/test_knn_graph.cpp and tests/test_graph.cpp enforce == .

/// Row-sum degrees deg_i = sum_j A_ij of a CSR adjacency.
[[nodiscard]] std::vector<double> degree_vector(const CsrMatrix& adjacency);

/// Symmetric normalized Laplacian L = I − D^{-1/2} A D^{-1/2}, CSR to CSR.
/// Isolated nodes (zero degree) contribute an identity row.
[[nodiscard]] CsrMatrix normalized_laplacian_csr(const CsrMatrix& adjacency);

/// Largest eigenvalue by power iteration on (L + shift·I) — L's spectrum lies
/// in [0, 2], so the shift makes the dominant eigenvalue unambiguous.
/// Returns λ_max of L.
[[nodiscard]] double largest_eigenvalue(const CsrMatrix& symmetric,
                                        std::size_t max_iters = 200,
                                        double tol = 1e-9);

/// Chebyshev rescaling L̃ = 2L/λ_max − I, CSR to CSR. lambda_max <= 0 is
/// estimated with largest_eigenvalue. Exact zeros produced by the
/// rescaling are dropped.
[[nodiscard]] CsrMatrix scaled_laplacian_csr(const CsrMatrix& laplacian,
                                             double lambda_max = -1.0);

}  // namespace rihgcn::graph
