#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>

#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rihgcn {

namespace {

[[noreturn]] void throw_shape(const std::string& op, const Matrix& a,
                              const Matrix& b) {
  std::ostringstream os;
  os << op << ": incompatible shapes (" << a.rows() << "x" << a.cols()
     << ") vs (" << b.rows() << "x" << b.cols() << ")";
  throw ShapeError(os.str());
}

// Elementwise dispatch: inline below the tuning threshold, chunked onto the
// global pool above it. Each element is touched by exactly one chunk, so
// results never depend on the thread count.
template <typename Body>
void for_elems(std::size_t n, Body&& body) {
  if (n < ParallelTuning::min_elems) {
    body(std::size_t{0}, n);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  if (pool.num_threads() <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  pool.parallel_for(0, n, ParallelTuning::elem_grain,
                    ThreadPool::RangeBody(std::forward<Body>(body)));
}

// Row-partitioned dispatch for the matmul family. `flops` ~ n*k*m decides
// whether pool dispatch is worth it (ParallelTuning::min_matmul_flops —
// small-N dispatch costs more than it buys); the row grain is fixed so
// partition boundaries are thread-count independent.
template <typename Body>
void for_rows(std::size_t rows, std::size_t flops, Body&& body) {
  if (flops < ParallelTuning::min_matmul_flops) {
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

}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw ShapeError("Matrix initializer rows have unequal lengths");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows_ * cols_) {
    throw ShapeError("Matrix flat-buffer constructor: size mismatch");
  }
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw ShapeError("Matrix::at out of range");
  }
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw ShapeError("Matrix::at out of range");
  }
  return (*this)(r, c);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::constant(std::size_t rows, std::size_t cols, double value) {
  return Matrix(rows, cols, value);
}

Matrix Matrix::row_vector(const std::vector<double>& v) {
  return Matrix(1, v.size(), v);
}

Matrix Matrix::col_vector(const std::vector<double>& v) {
  return Matrix(v.size(), 1, v);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (!same_shape(other)) throw_shape("operator+=", *this, other);
  double* dst = data_.data();
  const double* src = other.data_.data();
  const simd::Kernels& kern = simd::active_kernels();
  for_elems(data_.size(), [dst, src, &kern](std::size_t b, std::size_t e) {
    kern.add(dst + b, src + b, e - b);
  });
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (!same_shape(other)) throw_shape("operator-=", *this, other);
  double* dst = data_.data();
  const double* src = other.data_.data();
  const simd::Kernels& kern = simd::active_kernels();
  for_elems(data_.size(), [dst, src, &kern](std::size_t b, std::size_t e) {
    kern.sub(dst + b, src + b, e - b);
  });
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  double* dst = data_.data();
  const simd::Kernels& kern = simd::active_kernels();
  for_elems(data_.size(), [dst, s, &kern](std::size_t b, std::size_t e) {
    kern.scale(dst + b, s, e - b);
  });
  return *this;
}

Matrix& Matrix::hadamard_inplace(const Matrix& other) {
  if (!same_shape(other)) throw_shape("hadamard_inplace", *this, other);
  double* dst = data_.data();
  const double* src = other.data_.data();
  const simd::Kernels& kern = simd::active_kernels();
  for_elems(data_.size(), [dst, src, &kern](std::size_t b, std::size_t e) {
    kern.mul(dst + b, src + b, e - b);
  });
  return *this;
}

void Matrix::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::apply(const std::function<double(double)>& f) {
  double* dst = data_.data();
  for_elems(data_.size(), [dst, &f](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) dst[i] = f(dst[i]);
  });
}

Matrix Matrix::row(std::size_t r) const { return slice_rows(r, r + 1); }

Matrix Matrix::col(std::size_t c) const { return slice_cols(c, c + 1); }

Matrix Matrix::slice_cols(std::size_t c0, std::size_t c1) const {
  if (c0 > c1 || c1 > cols_) throw ShapeError("slice_cols: bad range");
  Matrix out(rows_, c1 - c0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = c0; c < c1; ++c) out(r, c - c0) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::slice_rows(std::size_t r0, std::size_t r1) const {
  if (r0 > r1 || r1 > rows_) throw ShapeError("slice_rows: bad range");
  Matrix out(r1 - r0, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(r0 * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(r1 * cols_),
            out.data_.begin());
  return out;
}

void Matrix::set_cols(std::size_t c0, const Matrix& src) {
  if (src.rows_ != rows_ || c0 + src.cols_ > cols_) {
    throw ShapeError("set_cols: source does not fit");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < src.cols_; ++c) {
      (*this)(r, c0 + c) = src(r, c);
    }
  }
}

void Matrix::set_rows(std::size_t r0, const Matrix& src) {
  if (src.cols_ != cols_ || r0 + src.rows_ > rows_) {
    throw ShapeError("set_rows: source does not fit");
  }
  std::copy(src.data_.begin(), src.data_.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(r0 * cols_));
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  if (data_.size() < ParallelTuning::min_elems ||
      ThreadPool::global().num_threads() <= 1) {
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
    }
    return out;
  }
  // Each source row scatters into one output column: chunks of rows write
  // disjoint columns, so the partition (fixed by shape, not thread count)
  // cannot affect the result.
  const std::size_t grain =
      std::max<std::size_t>(1, ParallelTuning::elem_grain /
                                   std::max<std::size_t>(1, cols_));
  ThreadPool::global().parallel_for(
      0, rows_, grain, [this, &out](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
        }
      });
  return out;
}

double Matrix::sum() const noexcept {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Matrix::mean() const {
  if (data_.empty()) throw ShapeError("mean of empty matrix");
  return sum() / static_cast<double>(data_.size());
}

double Matrix::min() const {
  if (data_.empty()) throw ShapeError("min of empty matrix");
  return *std::min_element(data_.begin(), data_.end());
}

double Matrix::max() const {
  if (data_.empty()) throw ShapeError("max of empty matrix");
  return *std::max_element(data_.begin(), data_.end());
}

double Matrix::norm() const noexcept {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::abs_max() const noexcept {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

bool Matrix::has_non_finite() const noexcept {
  return std::any_of(data_.begin(), data_.end(),
                     [](double x) { return !std::isfinite(x); });
}

Matrix Matrix::col_mean() const {
  if (rows_ == 0) throw ShapeError("col_mean of empty matrix");
  Matrix out(1, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(0, c) += (*this)(r, c);
  }
  out *= 1.0 / static_cast<double>(rows_);
  return out;
}

Matrix Matrix::col_std() const {
  Matrix mu = col_mean();
  Matrix out(1, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const double d = (*this)(r, c) - mu(0, c);
      out(0, c) += d * d;
    }
  }
  for (std::size_t c = 0; c < cols_; ++c) {
    out(0, c) = std::sqrt(out(0, c) / static_cast<double>(rows_));
  }
  return out;
}

Matrix Matrix::row_sum() const {
  Matrix out(rows_, 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(r, 0) += (*this)(r, c);
  }
  return out;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  matmul_accumulate(a, b, out);
  return out;
}

void matmul_accumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.rows()) {
    std::ostringstream os;
    os << "matmul: inner dimensions differ: A(" << a.rows() << "x" << a.cols()
       << ") * B(" << b.rows() << "x" << b.cols() << ")";
    throw ShapeError(os.str());
  }
  if (out.rows() != a.rows() || out.cols() != b.cols()) {
    std::ostringstream os;
    os << "matmul_accumulate: out(" << out.rows() << "x" << out.cols()
       << ") cannot hold A(" << a.rows() << "x" << a.cols() << ") * B("
       << b.rows() << "x" << b.cols() << ") = (" << a.rows() << "x"
       << b.cols() << ")";
    throw ShapeError(os.str());
  }
  const std::size_t n = a.rows();
  const std::size_t k = a.cols();
  const std::size_t m = b.cols();
  if (n == 0 || k == 0 || m == 0) return;
  const double* ap = a.data();
  const double* bp = b.data();
  double* cp = out.data();
  // The blocked row kernel lives in the SIMD dispatch table (tensor/simd.hpp);
  // scalar and AVX2 variants produce identical bits by contract.
  const simd::Kernels& kern = simd::active_kernels();
  for_rows(n, n * k * m,
           [ap, bp, cp, k, m, &kern](std::size_t i0, std::size_t i1) {
             kern.matmul_rows(ap, bp, cp, k, m, i0, i1);
           });
}

namespace detail {

void matmul_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  const std::size_t n = a.rows();
  const std::size_t k = a.cols();
  const std::size_t m = b.cols();
  const double* ap = a.data();
  const double* bp = b.data();
  double* cp = out.data();
  // i-k-j loop order keeps the inner loop streaming over contiguous rows of
  // B and C, which is the cache-friendly order for row-major storage.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = ap[i * k + kk];
      if (aik == 0.0) continue;
      const double* brow = bp + kk * m;
      double* crow = cp + i * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += aik * brow[j];
    }
  }
}

}  // namespace detail

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  matmul_bt_into(a, b, out);
  return out;
}

void matmul_bt_into(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.cols()) throw_shape("matmul_bt", a, b);
  if (out.rows() != a.rows() || out.cols() != b.rows()) {
    throw std::invalid_argument("matmul_bt_into: output shape mismatch");
  }
  const std::size_t k = a.cols();
  const std::size_t rows = a.rows();
  const std::size_t cols = b.rows();
  const double* ap = a.data();
  const double* bp = b.data();
  double* op = out.data();
  // Vectorized over the output columns j, never over k (that would split
  // each dot product's single accumulator into lanes): Bᵀ goes into this
  // thread's scratch, then the matmul_rows kernel runs on a zeroed output.
  // Each lane is an independent j whose terms arrive in ascending k, one
  // rounded mul and one rounded add each, from a +0 seed — the bits of the
  // plain dot-product loop. B is a weight matrix in every tape backward, so
  // the scratch stays small and is reused across calls.
  thread_local std::vector<double> bt_scratch;
  bt_scratch.resize(k * cols);
  double* btp = bt_scratch.data();
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t kk = 0; kk < k; ++kk) btp[kk * cols + j] = bp[j * k + kk];
  }
  const simd::Kernels& kern = simd::active_kernels();
  for_rows(rows, rows * cols * k,
           [ap, btp, op, k, cols, &kern](std::size_t i0, std::size_t i1) {
             std::fill(op + i0 * cols, op + i1 * cols, 0.0);
             kern.matmul_rows(ap, btp, op, k, cols, i0, i1);
           });
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  matmul_at_accumulate(a, b, out);
  return out;
}

void matmul_at_accumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.rows() != b.rows()) throw_shape("matmul_at", a, b);
  if (out.rows() != a.cols() || out.cols() != b.cols()) {
    throw std::invalid_argument("matmul_at_accumulate: output shape mismatch");
  }
  const std::size_t n = a.rows();
  const std::size_t p = a.cols();
  const std::size_t m = b.cols();
  const double* ap = a.data();
  const double* bp = b.data();
  double* op = out.data();
  // Aᵀ goes into this thread's scratch, then the register-tiled matmul_rows
  // kernel runs over the output rows i (columns of A), as in matmul_bt_into.
  // Each element still adds round(a_ri * b_rj) for ascending r onto its
  // seed. The kernel does not skip a_ri == 0 the way a per-row axpy loop
  // would, but for finite B such a term is ±0, and adding ±0 changes
  // neither a non-zero sum nor a +0 one — and a chain seeded with +0 never
  // reaches −0 — so from a zeroed output (every tape backward) the bits are
  // those of the skipping loop.
  thread_local std::vector<double> at_scratch;
  at_scratch.resize(p * n);
  double* atp = at_scratch.data();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < p; ++i) atp[i * n + r] = ap[r * p + i];
  }
  const simd::Kernels& kern = simd::active_kernels();
  for_rows(p, n * p * m,
           [atp, bp, op, n, m, &kern](std::size_t i0, std::size_t i1) {
             kern.matmul_rows(atp, bp, op, n, m, i0, i1);
           });
}

Matrix operator+(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out += b;
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out -= b;
  return out;
}

Matrix operator*(const Matrix& a, double s) {
  Matrix out = a;
  out *= s;
  return out;
}

Matrix operator*(double s, const Matrix& a) { return a * s; }

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.hadamard_inplace(b);
  return out;
}

Matrix map(const Matrix& a, const std::function<double(double)>& f) {
  Matrix out = a;
  out.apply(f);
  return out;
}

Matrix zip(const Matrix& a, const Matrix& b,
           const std::function<double(double, double)>& f) {
  if (!a.same_shape(b)) throw_shape("zip", a, b);
  Matrix out(a.rows(), a.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  for_elems(a.size(), [pa, pb, po, &f](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) po[i] = f(pa[i], pb[i]);
  });
  return out;
}

Matrix add_row_broadcast(const Matrix& a, const Matrix& row) {
  if (row.rows() != 1 || row.cols() != a.cols()) {
    throw_shape("add_row_broadcast", a, row);
  }
  Matrix out = a;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out(r, c) += row(0, c);
  }
  return out;
}

Matrix hcat(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw_shape("hcat", a, b);
  Matrix out(a.rows(), a.cols() + b.cols());
  out.set_cols(0, a);
  out.set_cols(a.cols(), b);
  return out;
}

Matrix vcat(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) throw_shape("vcat", a, b);
  Matrix out(a.rows() + b.rows(), a.cols());
  out.set_rows(0, a);
  out.set_rows(a.rows(), b);
  return out;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) throw_shape("max_abs_diff", a, b);
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

bool allclose(const Matrix& a, const Matrix& b, double tol) {
  return a.same_shape(b) && max_abs_diff(a, b) <= tol;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows() << "x" << m.cols() << ")[\n";
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << "  ";
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << m(r, c) << (c + 1 < m.cols() ? ", " : "");
    }
    os << "\n";
  }
  return os << "]";
}

}  // namespace rihgcn
