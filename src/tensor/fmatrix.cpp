#include "tensor/fmatrix.hpp"

#include <algorithm>

#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rihgcn {

FMatrix FMatrix::from(const Matrix& m) {
  FMatrix out(m.rows(), m.cols());
  const double* src = m.data();
  float* dst = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    dst[i] = static_cast<float>(src[i]);
  }
  return out;
}

Matrix FMatrix::to_double() const {
  Matrix out(rows_, cols_);
  double* dst = out.data();
  for (std::size_t i = 0; i < data_.size(); ++i) {
    dst[i] = static_cast<double>(data_[i]);
  }
  return out;
}

FCsrMatrix FCsrMatrix::from(const CsrMatrix& a) {
  FCsrMatrix out;
  out.rows_ = a.rows();
  out.cols_ = a.cols();
  out.row_ptr_ = a.row_ptr();
  out.col_idx_ = a.col_idx();
  out.vals_.resize(a.values().size());
  std::transform(a.values().begin(), a.values().end(), out.vals_.begin(),
                 [](double v) { return static_cast<float>(v); });
  return out;
}

FCsrMatrix FCsrMatrix::block_diagonal(const FCsrMatrix& a, std::size_t copies) {
  if (copies == 0) {
    throw ShapeError("FCsrMatrix::block_diagonal: zero copies");
  }
  FCsrMatrix out;
  out.rows_ = a.rows_ * copies;
  out.cols_ = a.cols_ * copies;
  const std::size_t nnz = a.vals_.size();
  out.row_ptr_.resize(out.rows_ + 1);
  out.col_idx_.resize(nnz * copies);
  out.vals_.resize(nnz * copies);
  out.row_ptr_[0] = 0;
  for (std::size_t b = 0; b < copies; ++b) {
    const std::size_t row0 = b * a.rows_;
    const std::size_t col0 = b * a.cols_;
    const std::size_t nz0 = b * nnz;
    for (std::size_t i = 0; i < a.rows_; ++i) {
      out.row_ptr_[row0 + i + 1] = nz0 + a.row_ptr_[i + 1];
    }
    for (std::size_t e = 0; e < nnz; ++e) {
      out.col_idx_[nz0 + e] = col0 + a.col_idx_[e];
    }
    std::copy(a.vals_.begin(), a.vals_.end(), out.vals_.begin() + nz0);
  }
  return out;
}

void fmatmul_accumulate(const FMatrix& a, const FMatrix& b, FMatrix& out) {
  if (a.cols() != b.rows() || out.rows() != a.rows() ||
      out.cols() != b.cols()) {
    throw ShapeError("fmatmul: incompatible shapes");
  }
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  if (n == 0 || k == 0 || m == 0) return;
  const simd::Kernels& kern = simd::active_kernels();
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = out.data();
  const std::size_t flops = n * k * m;
  if (flops < ParallelTuning::min_matmul_flops ||
      ThreadPool::in_parallel_region()) {
    kern.smatmul_rows(ap, bp, cp, k, m, 0, n);
    return;
  }
  ThreadPool::global().parallel_for(
      0, n, ParallelTuning::matmul_row_grain,
      [&](std::size_t i0, std::size_t i1) {
        kern.smatmul_rows(ap, bp, cp, k, m, i0, i1);
      });
}

FMatrix fmatmul(const FMatrix& a, const FMatrix& b) {
  FMatrix out(a.rows(), b.cols());
  fmatmul_accumulate(a, b, out);
  return out;
}

void fspmm_into(const FCsrMatrix& a, const FMatrix& b, FMatrix& out) {
  if (a.cols() != b.rows() || out.rows() != a.rows() ||
      out.cols() != b.cols()) {
    throw ShapeError("fspmm: incompatible shapes");
  }
  const std::size_t n = a.rows(), m = b.cols();
  if (n == 0 || m == 0) return;
  std::fill(out.data(), out.data() + out.size(), 0.0f);
  const simd::Kernels& kern = simd::active_kernels();
  const float* bp = b.data();
  float* cp = out.data();
  const std::size_t* ptr = a.row_ptr_.data();
  const std::size_t* idx = a.col_idx_.data();
  const float* val = a.vals_.data();
  const auto row_body = [&](std::size_t i0, std::size_t i1) {
    kern.sspmm_rows(ptr, idx, val, bp, cp, m, i0, i1);
  };
  const std::size_t work = a.nnz() * m;
  if (work < ParallelTuning::min_matmul_flops ||
      ThreadPool::in_parallel_region()) {
    row_body(0, n);
    return;
  }
  ThreadPool::global().parallel_for(0, n, ParallelTuning::matmul_row_grain,
                                    row_body);
}

FMatrix fspmm(const FCsrMatrix& a, const FMatrix& b) {
  FMatrix out(a.rows(), b.cols());
  fspmm_into(a, b, out);
  return out;
}

}  // namespace rihgcn
