#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tensor/parallel.hpp"

namespace rihgcn::graph {

namespace {

/// σ for Eq. 8: opts.sigma if set, else the standard deviation of the
/// `count` distances whose sum and sum of squares are given; 1 when that
/// comes out degenerate (all-equal distances).
double kernel_width(const AdjacencyOptions& opts, double sum, double sum2,
                    std::size_t count) {
  double sigma = 0.0;
  if (opts.sigma.has_value()) {
    sigma = *opts.sigma;
  } else {
    const double mean = sum / static_cast<double>(count);
    sigma = std::sqrt(std::max(0.0, sum2 / static_cast<double>(count) -
                                        mean * mean));
  }
  return sigma <= 0.0 ? 1.0 : sigma;
}

/// Eq. 8 weight of distance d under kernel width² s2, or 0 when ε
/// thresholds it away. Callers store only nonzero weights.
double eq8_weight(double d, double s2, const AdjacencyOptions& opts) {
  const double w = std::exp(-d * d / s2);
  return w >= opts.epsilon ? w : 0.0;
}

CsrMatrix empty_graph(std::size_t n) {
  return CsrMatrix::from_parts(n, n, std::vector<std::size_t>(n + 1, 0), {},
                               {});
}

}  // namespace

CsrMatrix gaussian_adjacency(const Matrix& distances,
                             const AdjacencyOptions& opts) {
  const std::size_t n = distances.rows();
  if (distances.cols() != n) {
    throw ShapeError("gaussian_adjacency: distance matrix must be square");
  }
  // std of the off-diagonal distances (paper's convention via DCRNN).
  double sum = 0.0, sum2 = 0.0;
  std::size_t count = 0;
  if (!opts.sigma.has_value()) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        sum += distances(i, j);
        sum2 += distances(i, j) * distances(i, j);
        ++count;
      }
    }
    if (count == 0) return empty_graph(n);
  }
  const double sigma = kernel_width(opts, sum, sum2, count);
  const double s2 = sigma * sigma;
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> vals;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double w = eq8_weight(distances(i, j), s2, opts);
      if (w != 0.0) {
        col_idx.push_back(j);
        vals.push_back(w);
      }
    }
    row_ptr[i + 1] = vals.size();
  }
  return CsrMatrix::from_parts(n, n, std::move(row_ptr), std::move(col_idx),
                               std::move(vals));
}

CsrMatrix scaled_laplacian_from_distances(const Matrix& distances,
                                          const AdjacencyOptions& opts) {
  return scaled_laplacian_csr(
      normalized_laplacian_csr(gaussian_adjacency(distances, opts)));
}

// ---- k-NN graph pipeline for city-scale N (DESIGN.md §13) -----------------

namespace {

// Shared shard grain for the k-NN row scans: chunk boundaries depend only on
// (N, grain), never the thread count — same convention as knn_series_graph.
constexpr std::size_t kKnnRowGrain = 4;

ts::NeighborList make_neighbor_list(std::size_t n, std::size_t k) {
  ts::NeighborList out;
  out.num_nodes = n;
  out.k = k;
  out.offsets.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) out.offsets[i] = i * k;
  out.idx.assign(n * k, 0);
  out.dist.assign(n * k, 0.0);
  return out;
}

}  // namespace

ts::NeighborList knn_from_distances(const Matrix& distances, std::size_t k) {
  const std::size_t n = distances.rows();
  if (distances.cols() != n) {
    throw ShapeError("knn_from_distances: distance matrix must be square");
  }
  if (k == 0) {
    throw std::invalid_argument("knn_from_distances: k must be > 0");
  }
  ts::require_finite_rows(distances, "knn_from_distances");
  const std::size_t kk = n == 0 ? 0 : std::min(k, n - 1);
  ts::NeighborList out = make_neighbor_list(n, kk);
  if (kk == 0) return out;
  ThreadPool::global().parallel_for(
      0, n, kKnnRowGrain, [&](std::size_t b, std::size_t e) {
        ts::TopKNeighbors best(kk);
        for (std::size_t i = b; i < e; ++i) {
          best.clear();
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i) continue;
            best.offer(distances(i, j), j);
          }
          for (std::size_t r = 0; r < best.size(); ++r) {
            out.idx[i * kk + r] = best.items()[r].idx;
            out.dist[i * kk + r] = best.items()[r].dist;
          }
        }
      });
  return out;
}

ts::NeighborList knn_from_coords(const Matrix& coords, std::size_t k) {
  const std::size_t n = coords.rows();
  const std::size_t dim = coords.cols();
  if (k == 0) {
    throw std::invalid_argument("knn_from_coords: k must be > 0");
  }
  ts::require_finite_rows(coords, "knn_from_coords");
  const std::size_t kk = n == 0 ? 0 : std::min(k, n - 1);
  ts::NeighborList out = make_neighbor_list(n, kk);
  if (kk == 0) return out;
  const double* base = coords.data();
  // Nodes sorted once by (first coordinate, index), a total order; xs[p]
  // is the first coordinate of node order[p] (0 for all when dim == 0).
  const auto x = [&](std::size_t i) { return dim > 0 ? base[i * dim] : 0.0; };
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return x(a) < x(b) || (x(a) == x(b) && a < b);
  });
  std::vector<double> xs(n);
  for (std::size_t p = 0; p < n; ++p) xs[p] = x(order[p]);
  ThreadPool::global().parallel_for(
      0, n, kKnnRowGrain, [&](std::size_t b, std::size_t e) {
        ts::TopKNeighbors best(kk);
        for (std::size_t p = b; p < e; ++p) {
          const std::size_t i = order[p];
          const double* ci = base + i * dim;
          best.clear();
          // Offers the node at sorted position q; false once the sweep in
          // that direction can stop. The first-coordinate term is the first
          // addend of the squared distance below, and the sum of squares
          // only grows as terms are added, so sqrt(dx·dx) never exceeds the
          // distance; dx·dx only grows along a sweep, so once sqrt(dx·dx)
          // is strictly above the k-th distance no node beyond can be
          // admitted, whatever its index.
          const auto visit = [&](std::size_t q) {
            const double dx = xs[q] - xs[p];
            if (std::sqrt(dx * dx) > best.cutoff()) return false;
            const std::size_t j = order[q];
            const double* cj = base + j * dim;
            // Per-dimension accumulation in column order (the header's
            // all-pairs contract); (-x)·(-x) == x·x exactly, so both
            // directions match bitwise.
            double s = 0.0;
            for (std::size_t d = 0; d < dim; ++d) {
              const double diff = ci[d] - cj[d];
              s += diff * diff;
            }
            best.offer(std::sqrt(s), j);
            return true;
          };
          for (std::size_t q = p + 1; q < n && visit(q); ++q) {
          }
          for (std::size_t q = p; q-- > 0 && visit(q);) {
          }
          for (std::size_t r = 0; r < best.size(); ++r) {
            out.idx[i * kk + r] = best.items()[r].idx;
            out.dist[i * kk + r] = best.items()[r].dist;
          }
        }
      });
  return out;
}

CsrMatrix gaussian_knn_adjacency(const ts::NeighborList& knn,
                                 const AdjacencyOptions& opts) {
  const std::size_t n = knn.num_nodes;
  // std of the kept directed k-NN distances. gaussian_adjacency's all-pairs
  // std is the O(N²) pass this path exists to avoid; the edge set is
  // identical on every build path, so this σ is too.
  double sum = 0.0, sum2 = 0.0;
  const std::size_t count = knn.dist.size();
  if (!opts.sigma.has_value()) {
    if (count == 0) return empty_graph(n);
    for (const double x : knn.dist) {
      sum += x;
      sum2 += x * x;
    }
  }
  const double sigma = kernel_width(opts, sum, sum2, count);
  const double s2 = sigma * sigma;

  // Union-symmetrize the directed edge set: both (i,j) and (j,i) enter;
  // duplicates collapse to the first after a deterministic sort.
  struct Edge {
    std::size_t r, c;
    double d;
  };
  std::vector<Edge> edges;
  edges.reserve(2 * knn.idx.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t e = knn.offsets[i]; e < knn.offsets[i + 1]; ++e) {
      const std::size_t j = knn.idx[e];
      if (j == i) continue;  // k-NN lists exclude self; keep the invariant
      edges.push_back({i, j, knn.dist[e]});
      edges.push_back({j, i, knn.dist[e]});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.r != b.r) return a.r < b.r;
    if (a.c != b.c) return a.c < b.c;
    return a.d < b.d;  // total order even if a metric were asymmetric
  });
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> vals;
  col_idx.reserve(edges.size());
  vals.reserve(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (e > 0 && edges[e].r == edges[e - 1].r &&
        edges[e].c == edges[e - 1].c) {
      continue;
    }
    const double w = eq8_weight(edges[e].d, s2, opts);
    if (w == 0.0) continue;
    col_idx.push_back(edges[e].c);
    vals.push_back(w);
    row_ptr[edges[e].r + 1] = vals.size();
  }
  // Rows whose every edge was thresholded away still need cumulative counts.
  for (std::size_t r = 1; r <= n; ++r) {
    row_ptr[r] = std::max(row_ptr[r], row_ptr[r - 1]);
  }
  return CsrMatrix::from_parts(n, n, std::move(row_ptr), std::move(col_idx),
                               std::move(vals));
}

std::vector<double> degree_vector(const CsrMatrix& adjacency) {
  const std::size_t n = adjacency.rows();
  if (adjacency.cols() != n) {
    throw ShapeError("degree_vector: adjacency must be square");
  }
  const auto& ptr = adjacency.row_ptr();
  const auto& val = adjacency.values();
  std::vector<double> deg(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    // Ascending structural order = the dense loop's ascending-j order minus
    // its zero terms; adding 0.0 to a sum of nonnegative weights never
    // changes bits, so this equals the dense row sum exactly.
    double s = 0.0;
    for (std::size_t e = ptr[i]; e < ptr[i + 1]; ++e) s += val[e];
    deg[i] = s;
  }
  return deg;
}

CsrMatrix normalized_laplacian_csr(const CsrMatrix& adjacency) {
  const std::size_t n = adjacency.rows();
  if (adjacency.cols() != n) {
    throw ShapeError("normalized_laplacian_csr: adjacency must be square");
  }
  std::vector<double> dinv_sqrt = degree_vector(adjacency);
  for (double& s : dinv_sqrt) s = s > 0.0 ? 1.0 / std::sqrt(s) : 0.0;
  const auto& ptr = adjacency.row_ptr();
  const auto& col = adjacency.col_idx();
  const auto& val = adjacency.values();
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> vals;
  col_idx.reserve(adjacency.nnz() + n);
  vals.reserve(adjacency.nnz() + n);
  for (std::size_t i = 0; i < n; ++i) {
    bool diag_done = false;
    for (std::size_t e = ptr[i]; e < ptr[i + 1]; ++e) {
      const std::size_t j = col[e];
      if (!diag_done && j > i) {
        // No structural a_ii: the dense entry is 1.0 − 0 = 1.0 exactly.
        col_idx.push_back(i);
        vals.push_back(1.0);
        diag_done = true;
      }
      const double norm = dinv_sqrt[i] * val[e] * dinv_sqrt[j];
      const double v = (j == i ? 1.0 : 0.0) - norm;
      if (j == i) diag_done = true;
      // from_dense keeps |v| > 0: exact zeros are dropped on both paths.
      if (v != 0.0) {
        col_idx.push_back(j);
        vals.push_back(v);
      }
    }
    if (!diag_done) {
      col_idx.push_back(i);
      vals.push_back(1.0);
    }
    row_ptr[i + 1] = vals.size();
  }
  return CsrMatrix::from_parts(n, n, std::move(row_ptr), std::move(col_idx),
                               std::move(vals));
}

double largest_eigenvalue(const CsrMatrix& symmetric, std::size_t max_iters,
                          double tol) {
  const std::size_t n = symmetric.rows();
  if (symmetric.cols() != n) {
    throw ShapeError("largest_eigenvalue: matrix must be square");
  }
  if (n == 0) return 0.0;
  const auto& ptr = symmetric.row_ptr();
  const auto& col = symmetric.col_idx();
  const auto& val = symmetric.values();
  if (n == 1) return ptr[1] > ptr[0] ? val[0] : 0.0;
  // Power iteration on (M + shift I) so the dominant eigenvalue is the
  // algebraically largest one even when eigenvalues of mixed sign exist.
  // For a normalized Laplacian the spectrum is within [0, 2]; shift=2 is
  // safely larger than |λ_min|. The row products skip only structural
  // zeros, whose ±0.0 contributions cannot change the bits of the nonzero
  // partial sums (see the header contract).
  const double shift = 2.0;
  // Deterministic non-uniform start vector: the all-ones vector is an exact
  // eigenvector (eigenvalue 0) of regular graphs' normalized Laplacians, and
  // power iteration can never escape an exact eigenvector.
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
    for (std::size_t e = ptr[i]; e < ptr[i + 1]; ++e) {
      s += val[e] * x[col[e]];
    }
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

CsrMatrix scaled_laplacian_csr(const CsrMatrix& laplacian, double lambda_max) {
  const std::size_t n = laplacian.rows();
  if (laplacian.cols() != n) {
    throw ShapeError("scaled_laplacian_csr: matrix must be square");
  }
  if (lambda_max <= 0.0) lambda_max = largest_eigenvalue(laplacian);
  if (lambda_max <= 0.0) lambda_max = 2.0;  // empty graph: L == 0
  const double scale = 2.0 / lambda_max;
  const auto& ptr = laplacian.row_ptr();
  const auto& col = laplacian.col_idx();
  const auto& val = laplacian.values();
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> vals;
  col_idx.reserve(laplacian.nnz() + n);
  vals.reserve(laplacian.nnz() + n);
  for (std::size_t i = 0; i < n; ++i) {
    bool diag_done = false;
    const auto emit = [&](std::size_t j, double v) {
      // Matches from_dense(|v| > 0): a diagonal that rescales to exactly
      // 1.0 (then −1.0 → 0) disappears on the dense path too.
      if (v != 0.0) {
        col_idx.push_back(j);
        vals.push_back(v);
      }
    };
    for (std::size_t e = ptr[i]; e < ptr[i + 1]; ++e) {
      const std::size_t j = col[e];
      if (!diag_done && j > i) {
        emit(i, -1.0);  // structural-zero diagonal: 0·scale − 1
        diag_done = true;
      }
      double v = val[e] * scale;
      if (j == i) {
        v -= 1.0;
        diag_done = true;
      }
      emit(j, v);
    }
    if (!diag_done) emit(i, -1.0);
    row_ptr[i + 1] = vals.size();
  }
  return CsrMatrix::from_parts(n, n, std::move(row_ptr), std::move(col_idx),
                               std::move(vals));
}

}  // namespace rihgcn::graph
