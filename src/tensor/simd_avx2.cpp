// AVX2 kernel table. This TU is the only one compiled with -mavx2 -mfma
// (plus -ffp-contract=off, see src/tensor/CMakeLists.txt) — nothing here may
// leak into a header.
//
// Double kernels honour the bitwise contract: lanes carry INDEPENDENT output
// elements, each accumulated with explicit _mm256_mul_pd + _mm256_add_pd (one
// rounding per op, same as scalar). No FMA, no horizontal reductions. Scalar
// tails run the identical expression, so results match the scalar table bit
// for bit. Float kernels are the serving path and use _mm256_fmadd_ps freely
// under the ULP contract; the f32 GEMMs still give every output element one
// ascending-k FMA chain, whatever their tiling.
#include "tensor/simd.hpp"

#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#define RIHGCN_HAVE_AVX2_TU 1
#include <immintrin.h>
#endif

namespace rihgcn::simd {

#if defined(RIHGCN_HAVE_AVX2_TU)

namespace {

void v_add(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                                          _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void v_sub(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i),
                                          _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void v_mul(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i),
                                          _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void v_scale(double* y, double s, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), vs));
  }
  for (; i < n; ++i) y[i] *= s;
}

void v_add_into(double* out, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void v_sub_into(double* out, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void v_mul_into(double* out, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

// y[i] += round(a * x[i]) — mul then add, matching the scalar tail exactly.
void v_axpy(double* y, double a, const double* x, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void v_fmadd(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a[i] * b[i];
}

void v_mul2_add(double* out, const double* a, const double* b, const double* c,
                const double* d, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ab =
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d cd =
        _mm256_mul_pd(_mm256_loadu_pd(c + i), _mm256_loadu_pd(d + i));
    _mm256_storeu_pd(out + i, _mm256_add_pd(ab, cd));
  }
  for (; i < n; ++i) {
    const double ab = a[i] * b[i];
    const double cd = c[i] * d[i];
    out[i] = ab + cd;
  }
}

// C += A·B over rows [i0, i1). Lanes hold 4 adjacent j-columns of one output
// row; k advances in ascending order with broadcast a_ik, so each element
// sees exactly the scalar kernel's rounding sequence.
void v_matmul_rows(const double* ap, const double* bp, double* cp,
                   std::size_t k, std::size_t m, std::size_t i0,
                   std::size_t i1) {
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const double* a0 = ap + (i + 0) * k;
    const double* a1 = ap + (i + 1) * k;
    const double* a2 = ap + (i + 2) * k;
    const double* a3 = ap + (i + 3) * k;
    double* c0 = cp + (i + 0) * m;
    double* c1 = cp + (i + 1) * m;
    double* c2 = cp + (i + 2) * m;
    double* c3 = cp + (i + 3) * m;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      __m256d t0 = _mm256_loadu_pd(c0 + j);
      __m256d t1 = _mm256_loadu_pd(c1 + j);
      __m256d t2 = _mm256_loadu_pd(c2 + j);
      __m256d t3 = _mm256_loadu_pd(c3 + j);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256d bv = _mm256_loadu_pd(bp + kk * m + j);
        t0 = _mm256_add_pd(t0, _mm256_mul_pd(_mm256_set1_pd(a0[kk]), bv));
        t1 = _mm256_add_pd(t1, _mm256_mul_pd(_mm256_set1_pd(a1[kk]), bv));
        t2 = _mm256_add_pd(t2, _mm256_mul_pd(_mm256_set1_pd(a2[kk]), bv));
        t3 = _mm256_add_pd(t3, _mm256_mul_pd(_mm256_set1_pd(a3[kk]), bv));
      }
      _mm256_storeu_pd(c0 + j, t0);
      _mm256_storeu_pd(c1 + j, t1);
      _mm256_storeu_pd(c2 + j, t2);
      _mm256_storeu_pd(c3 + j, t3);
    }
    for (; j < m; ++j) {
      double t0 = c0[j], t1 = c1[j], t2 = c2[j], t3 = c3[j];
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double b0 = bp[kk * m + j];
        t0 += a0[kk] * b0;
        t1 += a1[kk] * b0;
        t2 += a2[kk] * b0;
        t3 += a3[kk] * b0;
      }
      c0[j] = t0; c1[j] = t1; c2[j] = t2; c3[j] = t3;
    }
  }
  for (; i < i1; ++i) {
    const double* arow = ap + i * k;
    double* crow = cp + i * m;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      __m256d t = _mm256_loadu_pd(crow + j);
      for (std::size_t kk = 0; kk < k; ++kk) {
        t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_set1_pd(arow[kk]),
                                           _mm256_loadu_pd(bp + kk * m + j)));
      }
      _mm256_storeu_pd(crow + j, t);
    }
    for (; j < m; ++j) {
      double t = crow[j];
      for (std::size_t kk = 0; kk < k; ++kk) t += arow[kk] * bp[kk * m + j];
      crow[j] = t;
    }
  }
}

// C += S·B over rows [i0, i1), S in CSR. j-tile outer, p inner: the 4-lane
// accumulator stays in a register across the whole row's nonzeros. Per
// element that is still "seed from C, add round(v_p * b_pj) for ascending p"
// — identical rounding sequence to the scalar kernel's p-outer loop, so the
// bitwise contract holds (loop nesting only reorders independent elements).
void v_spmm_rows(const std::size_t* row_ptr, const std::size_t* col_idx,
                 const double* vals, const double* b, double* c, std::size_t m,
                 std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    double* crow = c + i * m;
    const std::size_t p0 = row_ptr[i];
    const std::size_t p1 = row_ptr[i + 1];
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      __m256d acc = _mm256_loadu_pd(crow + j);
      for (std::size_t p = p0; p < p1; ++p) {
        const __m256d bv = _mm256_loadu_pd(b + col_idx[p] * m + j);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(vals[p]), bv));
      }
      _mm256_storeu_pd(crow + j, acc);
    }
    for (; j < m; ++j) {
      double acc = crow[j];
      for (std::size_t p = p0; p < p1; ++p) {
        acc += vals[p] * b[col_idx[p] * m + j];
      }
      crow[j] = acc;
    }
  }
}

// ---- float serving kernels (ULP contract — FMA on) -------------------------

void v_saxpy(float* y, float a, const float* x, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fmaf(a, x[i], y[i]);
}

// ---- f32 GEMM register tiles ------------------------------------------------
// A tile is R rows x 8V columns of C, held in R·V YMM accumulators across
// the whole k loop and stored once. Each output element still receives its
// terms in ascending-k FMA order, so any row/column tiling is
// bitwise-neutral. Accumulators must stay in registers at the default -O2
// too, not only where -O3 happens to unroll: the r/v loops are
// force-unrolled so acc[][] is scalarized into registers (without the
// pragmas GCC 12 at -O2 keeps such arrays on the stack, a load-FMA-store
// per term).
template <int R, int V>
inline void ymm_tile(const float* ap, const float* bp, float* cp,
                     std::size_t k, std::size_t m, std::size_t j) {
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      acc[r][v] = _mm256_loadu_ps(cp + r * m + j + 8 * v);
    }
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    __m256 bv[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm256_loadu_ps(bp + kk * m + j + 8 * v);
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 va = _mm256_set1_ps(ap[r * k + kk]);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_ps(va, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_ps(cp + r * m + j + 8 * v, acc[r][v]);
    }
  }
}

// C(R x m) += A(R x k)·B(k x m): every column tile keeps one accumulator per
// row per vector, so each B vector is loaded once per R rows and a tile runs
// R·V independent FMA chains — 12 for 4-row blocks (with the 3 B vectors
// and the broadcast that fills the 16 YMM registers), 8 otherwise. A single
// row's B vectors are used once each and stay memory operands. No
// zero-skip: a zero A term contributes fma(0, b, acc) = acc.
template <int R>
void row_block(const float* ap, const float* bp, float* cp, std::size_t k,
               std::size_t m) {
  constexpr int V = R == 8 ? 1 : R == 4 ? 3 : 8;
  std::size_t j = 0;
  for (; j + 8 * V <= m; j += 8 * V) ymm_tile<R, V>(ap, bp, cp, k, m, j);
  if constexpr (V > 1) {
    for (; j + 8 <= m; j += 8) ymm_tile<R, 1>(ap, bp, cp, k, m, j);
  }
  if (j + 4 <= m) {  // 4-wide tail: f32 feature panels are 4 columns
    __m128 acc[R];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) acc[r] = _mm_loadu_ps(cp + r * m + j);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const __m128 bv = _mm_loadu_ps(bp + kk * m + j);
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
        acc[r] = _mm_fmadd_ps(_mm_set1_ps(ap[r * k + kk]), bv, acc[r]);
      }
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) _mm_storeu_ps(cp + r * m + j, acc[r]);
    j += 4;
  }
  for (; j < m; ++j) {
    float acc[R];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) acc[r] = cp[r * m + j];
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float bv = bp[kk * m + j];
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
        acc[r] = std::fmaf(ap[r * k + kk], bv, acc[r]);
      }
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) cp[r * m + j] = acc[r];
  }
}

// C += A·B over rows [i0, i1) in row blocks: 8-row blocks of 8-column tiles
// while m is narrower than one 24-column tile, 4-row blocks of 24-column
// tiles otherwise, then single rows.
void row_blocks(const float* ap, const float* bp, float* cp, std::size_t k,
                std::size_t m, std::size_t i0, std::size_t i1) {
  std::size_t i = i0;
  if (m < 24) {
    for (; i + 8 <= i1; i += 8) row_block<8>(ap + i * k, bp, cp + i * m, k, m);
  }
  for (; i + 4 <= i1; i += 4) row_block<4>(ap + i * k, bp, cp + i * m, k, m);
  for (; i < i1; ++i) row_block<1>(ap + i * k, bp, cp + i * m, k, m);
}

// Outputs narrower than 64 columns go through the row blocks: one row alone
// cannot fill the 64-column, 8-accumulator tile below, so its 4/8/12-wide
// tiles would be one or two FMA chains each, running at FMA latency. From 64
// columns on, one row at a time: its 8 named accumulators per tile already
// hide the latency, and the a == 0 skip only elides terms that would leave
// an FMA accumulator unchanged.
void v_smatmul_rows(const float* ap, const float* bp, float* cp, std::size_t k,
                    std::size_t m, std::size_t i0, std::size_t i1) {
  if (m < 64) {
    row_blocks(ap, bp, cp, k, m, i0, i1);
    return;
  }
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = ap + i * k;
    float* crow = cp + i * m;
    std::size_t j = 0;
    for (; j + 64 <= m; j += 64) {  // 8 accumulators: hides FMA latency
      __m256 acc0 = _mm256_loadu_ps(crow + j);
      __m256 acc1 = _mm256_loadu_ps(crow + j + 8);
      __m256 acc2 = _mm256_loadu_ps(crow + j + 16);
      __m256 acc3 = _mm256_loadu_ps(crow + j + 24);
      __m256 acc4 = _mm256_loadu_ps(crow + j + 32);
      __m256 acc5 = _mm256_loadu_ps(crow + j + 40);
      __m256 acc6 = _mm256_loadu_ps(crow + j + 48);
      __m256 acc7 = _mm256_loadu_ps(crow + j + 56);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        const float* brow = bp + kk * m + j;
        acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow), acc0);
        acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 8), acc1);
        acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 16), acc2);
        acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 24), acc3);
        acc4 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 32), acc4);
        acc5 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 40), acc5);
        acc6 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 48), acc6);
        acc7 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 56), acc7);
      }
      _mm256_storeu_ps(crow + j, acc0);
      _mm256_storeu_ps(crow + j + 8, acc1);
      _mm256_storeu_ps(crow + j + 16, acc2);
      _mm256_storeu_ps(crow + j + 24, acc3);
      _mm256_storeu_ps(crow + j + 32, acc4);
      _mm256_storeu_ps(crow + j + 40, acc5);
      _mm256_storeu_ps(crow + j + 48, acc6);
      _mm256_storeu_ps(crow + j + 56, acc7);
    }
    for (; j + 32 <= m; j += 32) {
      __m256 acc0 = _mm256_loadu_ps(crow + j);
      __m256 acc1 = _mm256_loadu_ps(crow + j + 8);
      __m256 acc2 = _mm256_loadu_ps(crow + j + 16);
      __m256 acc3 = _mm256_loadu_ps(crow + j + 24);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        const float* brow = bp + kk * m + j;
        acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow), acc0);
        acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 8), acc1);
        acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 16), acc2);
        acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 24), acc3);
      }
      _mm256_storeu_ps(crow + j, acc0);
      _mm256_storeu_ps(crow + j + 8, acc1);
      _mm256_storeu_ps(crow + j + 16, acc2);
      _mm256_storeu_ps(crow + j + 24, acc3);
    }
    for (; j + 8 <= m; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        acc = _mm256_fmadd_ps(_mm256_set1_ps(av),
                              _mm256_loadu_ps(bp + kk * m + j), acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    if (j + 4 <= m) {  // 4-wide tail: f32 feature panels are 4 columns
      __m128 acc = _mm_loadu_ps(crow + j);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        acc = _mm_fmadd_ps(_mm_set1_ps(av), _mm_loadu_ps(bp + kk * m + j),
                           acc);
      }
      _mm_storeu_ps(crow + j, acc);
      j += 4;
    }
    for (; j < m; ++j) {
      float acc = crow[j];
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        acc = std::fmaf(av, bp[kk * m + j], acc);
      }
      crow[j] = acc;
    }
  }
}

void v_sspmm_rows(const std::size_t* row_ptr, const std::size_t* col_idx,
                  const float* vals, const float* b, float* c, std::size_t m,
                  std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* crow = c + i * m;
    const std::size_t p0 = row_ptr[i];
    const std::size_t p1 = row_ptr[i + 1];
    std::size_t j = 0;
    for (; j + 8 <= m; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      for (std::size_t p = p0; p < p1; ++p) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(vals[p]),
                              _mm256_loadu_ps(b + col_idx[p] * m + j), acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    // 4-wide tail (see v_smatmul_rows): one 128-bit pass instead of four
    // scalar re-scans of the row's nonzeros. Bitwise-neutral per element.
    if (j + 4 <= m) {
      __m128 acc = _mm_loadu_ps(crow + j);
      for (std::size_t p = p0; p < p1; ++p) {
        acc = _mm_fmadd_ps(_mm_set1_ps(vals[p]),
                           _mm_loadu_ps(b + col_idx[p] * m + j), acc);
      }
      _mm_storeu_ps(crow + j, acc);
      j += 4;
    }
    for (; j < m; ++j) {
      float acc = crow[j];
      for (std::size_t p = p0; p < p1; ++p) {
        acc = std::fmaf(vals[p], b[col_idx[p] * m + j], acc);
      }
      crow[j] = acc;
    }
  }
}

// Short panels (the transposed Laplacian apply's 4 or 8 rows against an
// N x N B) are the same row blocks: B is streamed once per 4-row block
// instead of once per row.
void v_smatmul_panel(const float* ap, const float* bp, float* cp,
                     std::size_t rows, std::size_t k, std::size_t m) {
  row_blocks(ap, bp, cp, k, m, 0, rows);
}

// ---- fused recurrent-cell row math -----------------------------------------
// σ and tanh go through glibc's vectorized libm (few-ULP vs scalar libm)
// when the build found it — a float-path (ULP-contract) liberty, like FMA.
// Scalar tails and the no-libmvec fallback use the exact scalar-table math.

inline float v_sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

#if defined(RIHGCN_HAVE_MVEC)
extern "C" {
__m256 _ZGVdN8v_expf(__m256);   // AVX2 vector expf (glibc libmvec)
__m256 _ZGVdN8v_tanhf(__m256);  // AVX2 vector tanhf (glibc libmvec)
}

inline __m256 vec_sigmoid(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = _ZGVdN8v_expf(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}
#endif

void v_lstm_step(const float* gates, float* c, float* h, std::size_t rows,
                 std::size_t hdim) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* g = gates + r * 4 * hdim;
    float* cr = c + r * hdim;
    float* hr = h + r * hdim;
    std::size_t j = 0;
#if defined(RIHGCN_HAVE_MVEC)
    for (; j + 8 <= hdim; j += 8) {
      const __m256 iv = vec_sigmoid(_mm256_loadu_ps(g + j));
      const __m256 fv = vec_sigmoid(_mm256_loadu_ps(g + hdim + j));
      const __m256 ov = vec_sigmoid(_mm256_loadu_ps(g + 2 * hdim + j));
      const __m256 gv = _ZGVdN8v_tanhf(_mm256_loadu_ps(g + 3 * hdim + j));
      const __m256 cc = _mm256_fmadd_ps(fv, _mm256_loadu_ps(cr + j),
                                        _mm256_mul_ps(iv, gv));
      _mm256_storeu_ps(cr + j, cc);
      _mm256_storeu_ps(hr + j, _mm256_mul_ps(ov, _ZGVdN8v_tanhf(cc)));
    }
#endif
    for (; j < hdim; ++j) {
      const float iv = v_sigmoidf(g[j]);
      const float fv = v_sigmoidf(g[hdim + j]);
      const float ov = v_sigmoidf(g[2 * hdim + j]);
      const float gv = std::tanh(g[3 * hdim + j]);
      const float cc = fv * cr[j] + iv * gv;
      cr[j] = cc;
      hr[j] = ov * std::tanh(cc);
    }
  }
}

void v_gru_step(const float* gx, const float* gh, const float* bias, float* h,
                std::size_t rows, std::size_t hdim) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* x = gx + r * 3 * hdim;
    const float* hh = gh + r * 3 * hdim;
    float* hr = h + r * hdim;
    std::size_t j = 0;
#if defined(RIHGCN_HAVE_MVEC)
    for (; j + 8 <= hdim; j += 8) {
      const __m256 b0 = _mm256_loadu_ps(bias + j);
      const __m256 b1 = _mm256_loadu_ps(bias + hdim + j);
      const __m256 b2 = _mm256_loadu_ps(bias + 2 * hdim + j);
      const __m256 rg = vec_sigmoid(_mm256_add_ps(
          _mm256_add_ps(_mm256_loadu_ps(x + j), _mm256_loadu_ps(hh + j)), b0));
      const __m256 zg = vec_sigmoid(_mm256_add_ps(
          _mm256_add_ps(_mm256_loadu_ps(x + hdim + j),
                        _mm256_loadu_ps(hh + hdim + j)),
          b1));
      const __m256 ng = _ZGVdN8v_tanhf(_mm256_add_ps(
          _mm256_fmadd_ps(rg, _mm256_loadu_ps(hh + 2 * hdim + j),
                          _mm256_loadu_ps(x + 2 * hdim + j)),
          b2));
      const __m256 hv = _mm256_loadu_ps(hr + j);
      // h = n − z⊙n + z⊙h
      _mm256_storeu_ps(
          hr + j,
          _mm256_fmadd_ps(zg, hv, _mm256_sub_ps(ng, _mm256_mul_ps(zg, ng))));
    }
#endif
    for (; j < hdim; ++j) {
      const float rg = v_sigmoidf(x[j] + hh[j] + bias[j]);
      const float zg = v_sigmoidf(x[hdim + j] + hh[hdim + j] + bias[hdim + j]);
      const float ng = std::tanh(x[2 * hdim + j] + rg * hh[2 * hdim + j] +
                                 bias[2 * hdim + j]);
      hr[j] = ng - zg * ng + zg * hr[j];
    }
  }
}

constexpr Kernels kAvx2Kernels = {
    v_add,   v_sub,      v_mul,         v_scale,  v_add_into,
    v_sub_into, v_mul_into, v_axpy,     v_fmadd,  v_mul2_add,
    v_matmul_rows, v_spmm_rows, v_saxpy, v_smatmul_rows, v_sspmm_rows,
    v_smatmul_panel, v_lstm_step, v_gru_step,
};

}  // namespace

const Kernels* avx2_kernels_or_null() noexcept {
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &kAvx2Kernels;
  }
  return nullptr;
}

#else  // !RIHGCN_HAVE_AVX2_TU

const Kernels* avx2_kernels_or_null() noexcept { return nullptr; }

#endif

}  // namespace rihgcn::simd
