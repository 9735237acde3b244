// Single-precision inference kernels for the serving side (DESIGN.md §12).
//
// Training stays double end to end — FMatrix/FCsrMatrix exist so a serving
// replica can hold converted weights at half the memory bandwidth and run
// the f32 SIMD kernels (FMA allowed). The contract here is ULP-BOUNDED, not
// bitwise: tests/test_kernel_conformance.cpp checks every f32 product
// against the f64 reference within (k+2)·eps_f32·Σ|a||b| per element.
#pragma once

#include <cstddef>
#include <limits>
#include <new>
#include <vector>

#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"

namespace rihgcn {

/// Allocator whose blocks start on a 64-byte boundary: a cache line, and a
/// whole number of AVX2 vectors. std::allocator<float> only guarantees 16
/// bytes, so the same buffer used to land at a different offset mod 64 on
/// each run, and the kernels' loads split across cache lines differently.
template <class T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheAlignedAllocator() noexcept = default;
  template <class U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }

  template <class U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// Dense row-major matrix of floats. Deliberately minimal: storage, shape,
/// and conversion to/from the double Matrix — all arithmetic lives in the
/// free kernels below. Storage starts on a 64-byte boundary.
class FMatrix {
 public:
  FMatrix() = default;
  FMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Narrowing conversion from the training-precision Matrix.
  [[nodiscard]] static FMatrix from(const Matrix& m);
  /// Widen back to double (exact — every float is a double).
  [[nodiscard]] Matrix to_double() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float, CacheAlignedAllocator<float>> data_;
};

/// Immutable CSR matrix of floats, converted once from the training-side
/// CsrMatrix (graph Laplacians are built once per model, so serving pays the
/// narrowing conversion once).
class FCsrMatrix {
 public:
  FCsrMatrix() = default;
  [[nodiscard]] static FCsrMatrix from(const CsrMatrix& a);
  /// Block-diagonal replication: `copies` copies of `a` along the diagonal
  /// ((copies·rows) x (copies·cols)). Built once per compiled inference plan
  /// so a batched SpMM over B row-stacked windows is a single kernel call;
  /// because block b's rows only reference block b's columns, the row prefix
  /// [0, b·rows) of the full matrix serves any batch size b <= copies.
  [[nodiscard]] static FCsrMatrix block_diagonal(const FCsrMatrix& a,
                                                 std::size_t copies);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return vals_.size(); }

  // Raw CSR views for callers driving the simd::Kernels table directly
  // (the inference engine's batched SpMM operates on a row prefix, which
  // fspmm_into's whole-matrix contract cannot express).
  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<float>& values() const noexcept {
    return vals_;
  }

  friend void fspmm_into(const FCsrMatrix& a, const FMatrix& b, FMatrix& out);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<float> vals_;
};

/// C = A · B, float. Row-partitioned on the global ThreadPool like the
/// double kernels (same fixed-chunk rule, so f32 results are also
/// thread-count invariant — the ULP bound is against f64, not across runs).
[[nodiscard]] FMatrix fmatmul(const FMatrix& a, const FMatrix& b);
/// C += A · B into a preallocated output.
void fmatmul_accumulate(const FMatrix& a, const FMatrix& b, FMatrix& out);

/// C = A · B with A sparse.
[[nodiscard]] FMatrix fspmm(const FCsrMatrix& a, const FMatrix& b);
/// C = A · B into a preallocated output (zeroed first).
void fspmm_into(const FCsrMatrix& a, const FMatrix& b, FMatrix& out);

}  // namespace rihgcn
