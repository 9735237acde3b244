// Textbook dense forms of the graph pipeline: the Eq. 8 Gaussian kernel over
// an N x N distance matrix, the symmetric normalized Laplacian, the shifted
// power iteration and the Chebyshev rescaling. The library builds every
// graph in CSR (graph/graph.hpp); these N x N loops stay only as the
// reference its bitwise-parity tests compare against, so they are kept as
// plain as the formulas.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"

namespace rihgcn::graph::reference {

/// A_ij = exp(-d_ij² / σ²) if >= ε else 0, zero diagonal; σ defaults to the
/// std of the off-diagonal distances, summed in row-major order.
inline Matrix gaussian_adjacency(const Matrix& distances,
                                 const AdjacencyOptions& opts = {}) {
  const std::size_t n = distances.rows();
  double sigma = 0.0;
  if (opts.sigma.has_value()) {
    sigma = *opts.sigma;
  } else {
    double sum = 0.0, sum2 = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        sum += distances(i, j);
        sum2 += distances(i, j) * distances(i, j);
        ++count;
      }
    }
    if (count == 0) return Matrix(n, n);
    const double mean = sum / static_cast<double>(count);
    sigma = std::sqrt(std::max(0.0, sum2 / static_cast<double>(count) -
                                        mean * mean));
  }
  if (sigma <= 0.0) sigma = 1.0;
  Matrix a(n, n);
  const double s2 = sigma * sigma;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double w = std::exp(-distances(i, j) * distances(i, j) / s2);
      a(i, j) = w >= opts.epsilon ? w : 0.0;
    }
  }
  return a;
}

/// Euclidean distances between the rows of `coords` (N x dim).
inline Matrix pairwise_euclidean(const Matrix& coords) {
  const std::size_t n = coords.rows();
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < coords.cols(); ++k) {
        const double diff = coords(i, k) - coords(j, k);
        s += diff * diff;
      }
      out(i, j) = out(j, i) = std::sqrt(s);
    }
  }
  return out;
}

inline std::vector<double> degree_vector(const Matrix& adjacency) {
  std::vector<double> deg(adjacency.rows(), 0.0);
  for (std::size_t i = 0; i < adjacency.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < adjacency.cols(); ++j) s += adjacency(i, j);
    deg[i] = s;
  }
  return deg;
}

/// L = I − D^{-1/2} A D^{-1/2}; isolated nodes get an identity row.
inline Matrix normalized_laplacian(const Matrix& adjacency) {
  const std::size_t n = adjacency.rows();
  std::vector<double> dinv_sqrt = degree_vector(adjacency);
  for (double& s : dinv_sqrt) s = s > 0.0 ? 1.0 / std::sqrt(s) : 0.0;
  Matrix lap(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double norm = dinv_sqrt[i] * adjacency(i, j) * dinv_sqrt[j];
      lap(i, j) = (i == j ? 1.0 : 0.0) - norm;
    }
  }
  return lap;
}

/// Power iteration on (M + 2I) from the library's start vector.
inline double largest_eigenvalue(const Matrix& symmetric,
                                 std::size_t max_iters = 200,
                                 double tol = 1e-9) {
  const std::size_t n = symmetric.rows();
  if (n == 0) return 0.0;
  if (n == 1) return symmetric(0, 0);
  const double shift = 2.0;
  std::vector<double> v(n);
  double vnorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 1.0 + 0.5 * std::sin(static_cast<double>(i) * 1.7 + 0.3);
    vnorm += v[i] * v[i];
  }
  vnorm = std::sqrt(vnorm);
  for (auto& x : v) x /= vnorm;
  const auto apply_row = [&](std::size_t i, const std::vector<double>& x) {
    double s = shift * x[i];
    for (std::size_t j = 0; j < n; ++j) s += symmetric(i, j) * x[j];
    return s;
  };
  std::vector<double> w(n, 0.0);
  double lambda = 0.0;
  for (std::size_t it = 0; it < max_iters; ++it) {
    for (std::size_t i = 0; i < n; ++i) w[i] = apply_row(i, v);
    double norm = 0.0;
    for (double x : w) norm += x * x;
    norm = std::sqrt(norm);
    if (norm == 0.0) return 0.0;
    for (std::size_t i = 0; i < n; ++i) w[i] /= norm;
    double rq = 0.0;
    for (std::size_t i = 0; i < n; ++i) rq += w[i] * apply_row(i, w);
    v.swap(w);
    if (std::abs(rq - lambda) < tol) {
      lambda = rq;
      break;
    }
    lambda = rq;
  }
  return lambda - shift;
}

/// L̃ = 2L/λ_max − I, estimating λ_max when lambda_max <= 0 (2 for L == 0).
inline Matrix scaled_laplacian(const Matrix& laplacian,
                               double lambda_max = -1.0) {
  if (lambda_max <= 0.0) lambda_max = largest_eigenvalue(laplacian);
  if (lambda_max <= 0.0) lambda_max = 2.0;
  Matrix out = laplacian * (2.0 / lambda_max);
  for (std::size_t i = 0; i < out.rows(); ++i) out(i, i) -= 1.0;
  return out;
}

/// The whole dense pipeline from distances, handed over as tol-0 CSR.
struct CsrGraph {
  CsrMatrix adjacency;
  CsrMatrix scaled_laplacian;
};
inline CsrGraph graph_from_distances(const Matrix& distances,
                                     const AdjacencyOptions& opts = {}) {
  const Matrix adj = reference::gaussian_adjacency(distances, opts);
  return {CsrMatrix::from_dense(adj),
          CsrMatrix::from_dense(scaled_laplacian(normalized_laplacian(adj)))};
}

/// Bitwise equality of two CSR matrices: shape, structure and value bits.
inline void expect_same_csr(const CsrMatrix& got, const CsrMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  EXPECT_EQ(got.values(), want.values());
}

}  // namespace rihgcn::graph::reference
