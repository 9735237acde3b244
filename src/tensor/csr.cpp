#include "tensor/csr.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rihgcn {

namespace {

// Row-partitioned dispatch mirroring the dense matmul family: the chunk
// boundaries depend only on (rows, matmul_row_grain), never on the thread
// count, and `work` ~ nnz * m decides whether pool dispatch is worth it.
template <typename Body>
void for_csr_rows(std::size_t rows, std::size_t work, Body&& body) {
  if (work < ParallelTuning::min_matmul_flops) {
    body(std::size_t{0}, rows);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  if (pool.num_threads() <= 1) {
    body(std::size_t{0}, rows);
    return;
  }
  pool.parallel_for(0, rows, ParallelTuning::matmul_row_grain,
                    ThreadPool::RangeBody(std::forward<Body>(body)));
}

// out rows [i0, i1) of C += S · B where S is the CSR triple (ptr, idx, val).
// One dispatched SIMD call (tensor/simd.hpp spmm_rows) per row range — a
// per-nonzero call through the kernel table cost ~30% at F = 16. Per output
// element the terms accumulate in ascending structural order, matching the
// dense kernels' ascending-k order minus the zero terms, so the bitwise
// sparse-vs-dense parity in the header holds under every ISA.
void spmm_rows(const std::size_t* ptr, const std::size_t* idx,
               const double* val, const double* bp, double* cp, std::size_t m,
               std::size_t i0, std::size_t i1) {
  simd::active_kernels().spmm_rows(ptr, idx, val, bp, cp, m, i0, i1);
}

[[noreturn]] void throw_spmm_shape(const char* op, const CsrMatrix& a,
                                   std::size_t inner, const Matrix& b) {
  std::ostringstream os;
  os << op << ": inner dimensions differ: A(" << a.rows() << "x" << a.cols()
     << (inner == a.cols() ? ")" : ")^T") << " * B(" << b.rows() << "x"
     << b.cols() << ")";
  throw ShapeError(os.str());
}

}  // namespace

CsrMatrix CsrMatrix::from_dense(const Matrix& dense, double tol) {
  if (tol < 0.0) {
    throw ShapeError("CsrMatrix::from_dense: tol must be >= 0");
  }
  CsrMatrix out;
  out.rows_ = dense.rows();
  out.cols_ = dense.cols();
  const std::size_t n = out.rows_;
  const std::size_t m = out.cols_;
  out.row_ptr_.assign(n + 1, 0);
  // Keep |v| > tol; tol = 0 keeps exact nonzeros (|v| > 0).
  const double* dp = dense.data();
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < n * m; ++i) {
    if (std::abs(dp[i]) > tol) ++nnz;
  }
  out.col_idx_.reserve(nnz);
  out.vals_.reserve(nnz);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = dp + i * m;
    for (std::size_t j = 0; j < m; ++j) {
      if (std::abs(row[j]) > tol) {
        out.col_idx_.push_back(j);
        out.vals_.push_back(row[j]);
      }
    }
    out.row_ptr_[i + 1] = out.vals_.size();
  }
  out.build_transpose();
  return out;
}

CsrMatrix CsrMatrix::from_parts(std::size_t rows, std::size_t cols,
                                std::vector<std::size_t> row_ptr,
                                std::vector<std::size_t> col_idx,
                                std::vector<double> vals) {
  if (row_ptr.size() != rows + 1 || row_ptr.front() != 0 ||
      row_ptr.back() != col_idx.size() || col_idx.size() != vals.size()) {
    throw ShapeError("CsrMatrix::from_parts: inconsistent CSR arrays");
  }
  for (std::size_t i = 0; i < rows; ++i) {
    if (row_ptr[i] > row_ptr[i + 1]) {
      throw ShapeError("CsrMatrix::from_parts: row_ptr not monotone");
    }
    for (std::size_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
      if (col_idx[e] >= cols ||
          (e > row_ptr[i] && col_idx[e] <= col_idx[e - 1])) {
        throw ShapeError(
            "CsrMatrix::from_parts: columns must be strictly ascending and "
            "in range within each row");
      }
    }
  }
  CsrMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_ = std::move(row_ptr);
  out.col_idx_ = std::move(col_idx);
  out.vals_ = std::move(vals);
  out.build_transpose();
  return out;
}

CsrMatrix CsrMatrix::submatrix(const std::vector<std::size_t>& nodes) const {
  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  // Old-index -> new-index map; validates strict ascent/range as it fills.
  std::vector<std::size_t> local(cols_, kAbsent);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] >= rows_ || nodes[i] >= cols_ ||
        (i > 0 && nodes[i] <= nodes[i - 1])) {
      throw ShapeError(
          "CsrMatrix::submatrix: nodes must be strictly ascending and within "
          "range");
    }
    local[nodes[i]] = i;
  }
  const std::size_t n = nodes.size();
  std::vector<std::size_t> sub_ptr(n + 1, 0);
  std::vector<std::size_t> sub_idx;
  std::vector<double> sub_vals;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = nodes[i];
    // Source columns are ascending, and `nodes` is ascending, so the kept
    // entries stay ascending after remapping — no sort needed.
    for (std::size_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e) {
      const std::size_t c = local[col_idx_[e]];
      if (c == kAbsent) continue;
      sub_idx.push_back(c);
      sub_vals.push_back(vals_[e]);
    }
    sub_ptr[i + 1] = sub_vals.size();
  }
  CsrMatrix out;
  out.rows_ = n;
  out.cols_ = n;
  out.row_ptr_ = std::move(sub_ptr);
  out.col_idx_ = std::move(sub_idx);
  out.vals_ = std::move(sub_vals);
  out.build_transpose();
  return out;
}

// Transpose structure: count per column, prefix-sum, then fill by
// ascending row so each transposed row ends up sorted by original row.
void CsrMatrix::build_transpose() {
  const std::size_t nnz = vals_.size();
  t_row_ptr_.assign(cols_ + 1, 0);
  for (const std::size_t c : col_idx_) ++t_row_ptr_[c + 1];
  for (std::size_t c = 0; c < cols_; ++c) {
    t_row_ptr_[c + 1] += t_row_ptr_[c];
  }
  t_col_idx_.resize(nnz);
  t_vals_.resize(nnz);
  std::vector<std::size_t> cursor(t_row_ptr_.begin(), t_row_ptr_.end() - 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t e = row_ptr_[i]; e < row_ptr_[i + 1]; ++e) {
      const std::size_t c = col_idx_[e];
      t_col_idx_[cursor[c]] = i;
      t_vals_[cursor[c]] = vals_[e];
      ++cursor[c];
    }
  }
}

double CsrMatrix::density() const noexcept {
  const std::size_t total = rows_ * cols_;
  if (total == 0) return 0.0;
  return static_cast<double>(nnz()) / static_cast<double>(total);
}

Matrix CsrMatrix::to_dense() const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t e = row_ptr_[i]; e < row_ptr_[i + 1]; ++e) {
      out(i, col_idx_[e]) = vals_[e];
    }
  }
  return out;
}

Matrix spmm(const CsrMatrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  spmm_accumulate(a, b, out);
  return out;
}

void spmm_accumulate(const CsrMatrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.rows()) throw_spmm_shape("spmm", a, a.cols(), b);
  if (out.rows() != a.rows() || out.cols() != b.cols()) {
    throw std::invalid_argument("spmm_accumulate: output shape mismatch");
  }
  const std::size_t m = b.cols();
  if (a.rows() == 0 || m == 0 || a.nnz() == 0) return;
  const std::size_t* ptr = a.row_ptr_.data();
  const std::size_t* idx = a.col_idx_.data();
  const double* val = a.vals_.data();
  const double* bp = b.data();
  double* cp = out.data();
  for_csr_rows(a.rows(), a.nnz() * m,
               [ptr, idx, val, bp, cp, m](std::size_t i0, std::size_t i1) {
                 spmm_rows(ptr, idx, val, bp, cp, m, i0, i1);
               });
}

Matrix spmm_t(const CsrMatrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  spmm_t_accumulate(a, b, out);
  return out;
}

void spmm_t_accumulate(const CsrMatrix& a, const Matrix& b, Matrix& out) {
  if (a.rows() != b.rows()) throw_spmm_shape("spmm_t", a, a.rows(), b);
  if (out.rows() != a.cols() || out.cols() != b.cols()) {
    throw std::invalid_argument("spmm_t_accumulate: output shape mismatch");
  }
  const std::size_t m = b.cols();
  if (a.cols() == 0 || m == 0 || a.nnz() == 0) return;
  const std::size_t* ptr = a.t_row_ptr_.data();
  const std::size_t* idx = a.t_col_idx_.data();
  const double* val = a.t_vals_.data();
  const double* bp = b.data();
  double* cp = out.data();
  for_csr_rows(a.cols(), a.nnz() * m,
               [ptr, idx, val, bp, cp, m](std::size_t i0, std::size_t i1) {
                 spmm_rows(ptr, idx, val, bp, cp, m, i0, i1);
               });
}

}  // namespace rihgcn
