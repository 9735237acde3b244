// Kernel-conformance harness for the runtime-dispatched SIMD layer
// (tensor/simd.hpp, DESIGN.md §12). Property-based: every suite sweeps
// randomized shapes/densities/seeds, including empty and tail-only sizes,
// and compares whole buffers — not spot values.
//
// The contracts held here:
//  * BITWISE (double): every SIMD kernel == the scalar reference, element
//    for element, bit for bit. Checked at the raw-buffer level (the kernel
//    tables from kernels_for) AND through the Matrix/CsrMatrix/Tape layers
//    at 1/2/4/8 threads, so ISA choice can never perturb training results.
//  * BITWISE (sparse vs dense): spmm(csr(A), B) == matmul(A, B) and
//    spmm_t(csr(A), B) == matmul_at(A, B) with tol = 0 CSR, under BOTH ISAs.
//  * BITWISE (fused vs unfused): the fused LSTM/GRU tape cells match the
//    elementary-op chains under both ISAs (extends test_tape_arena.cpp's
//    §10 parity to the SIMD layer).
//  * ULP-BOUNDED (float): the f32 serving kernels (tensor/fmatrix.hpp, FMA
//    allowed) stay within (k+2)·eps_f32·Σ|a||b| of the f64 reference per
//    element.
//  * BITWISE (f32 GEMM, AVX2 table): smatmul_rows and smatmul_panel equal a
//    per-element ascending-k std::fmaf chain, whatever their register tiling.
//  * BITWISE (what the f32 engine's copy-free forward relies on, both
//    tables): a GEMM split into consecutive k-ranges equals the whole-k
//    call, and slstm_step(g, b) equals slstm_step(g + b, 0).
//  * RIHGCN_SIMD parsing: strict — misspelled or unsupported values throw,
//    no silent fallback.
//
// All KernelConformance.* tests also run under TSan (tools/run_tsan.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/tape.hpp"
#include "nn/layers.hpp"
#include "tensor/csr.hpp"
#include "tensor/fmatrix.hpp"
#include "tensor/matrix.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"
#include "tensor/simd.hpp"

namespace rihgcn {
namespace {

using ad::Parameter;
using ad::Tape;
using ad::Var;

// Pins ISA + pool width + forced-threaded tuning for one scope; restores
// auto-dispatch and defaults on destruction so suites can't leak state into
// each other. (On hosts with fewer cores than `threads` the global pool
// clamps to the hardware — the sweep then still checks what it can; the §8
// contract makes the results identical either way.)
class SimdBackendGuard {
 public:
  SimdBackendGuard(simd::Isa isa, std::size_t threads) {
    simd::force_isa(isa);
    ParallelTuning::min_elems = 1;
    ParallelTuning::elem_grain = 4;
    ParallelTuning::min_matmul_flops = 1;
    ParallelTuning::matmul_row_grain = 2;
    ThreadPool::set_global_threads(threads);
  }
  ~SimdBackendGuard() {
    simd::reset_isa();
    ParallelTuning::reset();
    ThreadPool::set_global_threads(0);
  }
  SimdBackendGuard(const SimdBackendGuard&) = delete;
  SimdBackendGuard& operator=(const SimdBackendGuard&) = delete;
};

bool avx2_available() { return simd::isa_supported(simd::Isa::kAvx2); }

// Buffer sizes that exercise every code shape in a 4-wide kernel: empty,
// tail-only, one full vector, vector+tail, and a large multi-chunk run.
const std::size_t kLens[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 33, 257};

std::vector<double> random_buf(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, 2.0);
  return v;
}

Matrix randn(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  return rng.normal_matrix(r, c, 1.0);
}

// Dense matrix with ~`density` nonzeros (exact zeros elsewhere) so
// CsrMatrix::from_dense(_, 0.0) drops real structure.
Matrix random_sparse(std::size_t r, std::size_t c, double density, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      if (rng.bernoulli(density)) m(i, j) = rng.normal(0.0, 1.0);
    }
  }
  return m;
}

// ---- Raw kernel-table parity: SIMD vs scalar, bitwise ----------------------

// Runs `op` once against each table on identical inputs and requires
// bit-identical output buffers (vector<double> == compares representations
// for finite values; inputs are finite by construction).
template <typename Op>
void expect_table_parity(const Op& op) {
  const simd::Kernels& scalar = simd::kernels_for(simd::Isa::kScalar);
  const simd::Kernels& vec = simd::kernels_for(simd::Isa::kAvx2);
  op(scalar, vec);
}

TEST(KernelConformance, ElementwiseSimdMatchesScalarBitwise) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available on this host";
  Rng rng(41);
  for (std::size_t len : kLens) {
    for (int trial = 0; trial < 3; ++trial) {
      const std::vector<double> a = random_buf(rng, len);
      const std::vector<double> b = random_buf(rng, len);
      const std::vector<double> c = random_buf(rng, len);
      const std::vector<double> d = random_buf(rng, len);
      const double s = rng.normal(0.0, 3.0);
      expect_table_parity([&](const simd::Kernels& ref,
                              const simd::Kernels& alt) {
        const auto check2 = [&](auto fn, const char* name) {
          std::vector<double> y0 = a, y1 = a;
          fn(ref, y0.data());
          fn(alt, y1.data());
          EXPECT_EQ(y0, y1) << name << " len=" << len;
        };
        check2([&](const simd::Kernels& k, double* y) { k.add(y, b.data(), len); },
               "add");
        check2([&](const simd::Kernels& k, double* y) { k.sub(y, b.data(), len); },
               "sub");
        check2([&](const simd::Kernels& k, double* y) { k.mul(y, b.data(), len); },
               "mul");
        check2([&](const simd::Kernels& k, double* y) { k.scale(y, s, len); },
               "scale");
        check2([&](const simd::Kernels& k, double* y) { k.axpy(y, s, b.data(), len); },
               "axpy");
        check2(
            [&](const simd::Kernels& k, double* y) { k.fmadd(y, b.data(), c.data(), len); },
            "fmadd");
        const auto check_out = [&](auto fn, const char* name) {
          std::vector<double> y0(len, -7.0), y1(len, -7.0);
          fn(ref, y0.data());
          fn(alt, y1.data());
          EXPECT_EQ(y0, y1) << name << " len=" << len;
        };
        check_out([&](const simd::Kernels& k,
                      double* y) { k.add_into(y, a.data(), b.data(), len); },
                  "add_into");
        check_out([&](const simd::Kernels& k,
                      double* y) { k.sub_into(y, a.data(), b.data(), len); },
                  "sub_into");
        check_out([&](const simd::Kernels& k,
                      double* y) { k.mul_into(y, a.data(), b.data(), len); },
                  "mul_into");
        check_out(
            [&](const simd::Kernels& k, double* y) {
              k.mul2_add(y, a.data(), b.data(), c.data(), d.data(), len);
            },
            "mul2_add");
      });
    }
  }
}

TEST(KernelConformance, MatmulRowsSimdMatchesScalarBitwise) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available on this host";
  Rng rng(43);
  for (int trial = 0; trial < 12; ++trial) {
    // Shapes hit the 4-row blocking, odd tails and degenerate dims.
    const std::size_t n = rng.uniform_index(13);   // 0..12 rows
    const std::size_t k = rng.uniform_index(17);   // 0..16 inner
    const std::size_t m = rng.uniform_index(19);   // 0..18 cols
    const std::vector<double> a = random_buf(rng, n * k);
    const std::vector<double> b = random_buf(rng, k * m);
    // Nonzero seed in C: the kernel accumulates (C += A·B).
    const std::vector<double> seed = random_buf(rng, n * m);
    expect_table_parity(
        [&](const simd::Kernels& ref, const simd::Kernels& alt) {
          std::vector<double> c0 = seed, c1 = seed;
          ref.matmul_rows(a.data(), b.data(), c0.data(), k, m, 0, n);
          alt.matmul_rows(a.data(), b.data(), c1.data(), k, m, 0, n);
          EXPECT_EQ(c0, c1) << "n=" << n << " k=" << k << " m=" << m;
          // Partial row ranges must agree too (the threaded kernels hand the
          // table arbitrary [i0, i1) chunks).
          if (n >= 2) {
            std::vector<double> p0 = seed, p1 = seed;
            ref.matmul_rows(a.data(), b.data(), p0.data(), k, m, 1, n - 1);
            alt.matmul_rows(a.data(), b.data(), p1.data(), k, m, 1, n - 1);
            EXPECT_EQ(p0, p1) << "partial n=" << n << " k=" << k << " m=" << m;
          }
        });
  }
}

TEST(KernelConformance, SpmmRowsSimdMatchesScalarBitwise) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available on this host";
  Rng rng(47);
  for (double density : {0.0, 0.1, 0.5, 1.0}) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::size_t n = 1 + rng.uniform_index(12);
      const std::size_t m = rng.uniform_index(19);  // 0..18, tails included
      const Matrix dense = random_sparse(n, n, density, rng);
      const CsrMatrix sp = CsrMatrix::from_dense(dense, 0.0);
      const std::vector<double> b = random_buf(rng, n * m);
      const std::vector<double> seed = random_buf(rng, n * m);
      expect_table_parity(
          [&](const simd::Kernels& ref, const simd::Kernels& alt) {
            std::vector<double> c0 = seed, c1 = seed;
            ref.spmm_rows(sp.row_ptr().data(), sp.col_idx().data(),
                          sp.values().data(), b.data(), c0.data(), m, 0, n);
            alt.spmm_rows(sp.row_ptr().data(), sp.col_idx().data(),
                          sp.values().data(), b.data(), c1.data(), m, 0, n);
            EXPECT_EQ(c0, c1) << "n=" << n << " m=" << m << " d=" << density;
          });
    }
  }
}

// ---- Matrix-layer parity across ISAs and thread counts ---------------------

TEST(KernelConformance, DenseOpsIsaInvariantAcrossThreads) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available on this host";
  const Matrix a = randn(9, 7, 51);
  const Matrix b = randn(7, 11, 52);
  const Matrix e1 = randn(9, 7, 53);

  // Reference: scalar ISA, serial pool.
  Matrix ref_mm, ref_at, ref_sum, ref_had;
  // matmul_bt runs the matmul_rows kernel over a transposed copy of B, so
  // it must keep the bits of a plain single-accumulator dot product.
  Matrix ref_bt(a.rows(), e1.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < e1.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < a.cols(); ++kk) acc += a(i, kk) * e1(j, kk);
      ref_bt(i, j) = acc;
    }
  }
  {
    SimdBackendGuard guard(simd::Isa::kScalar, 1);
    ref_mm = matmul(a, b);
    ref_at = matmul_at(a, e1);
    ref_sum = a + e1;
    ref_had = hadamard(a, e1);
    // Scalar table through the threaded path == seed naive kernel.
    Matrix naive(a.rows(), b.cols());
    detail::matmul_naive(a, b, naive);
    EXPECT_EQ(ref_mm, naive);
  }
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      SimdBackendGuard guard(isa, threads);
      EXPECT_EQ(matmul(a, b), ref_mm)
          << simd::isa_name(isa) << " @" << threads << "T";
      EXPECT_EQ(matmul_at(a, e1), ref_at)
          << simd::isa_name(isa) << " @" << threads << "T";
      EXPECT_EQ(matmul_bt(a, e1), ref_bt)
          << simd::isa_name(isa) << " @" << threads << "T";
      EXPECT_EQ(a + e1, ref_sum) << simd::isa_name(isa) << " @" << threads;
      EXPECT_EQ(hadamard(a, e1), ref_had)
          << simd::isa_name(isa) << " @" << threads << "T";
      Matrix scaled = a;
      scaled *= 1.7;
      Matrix ref_scaled = a;
      {
        // *= through whichever path; compare against a plain serial loop.
        for (std::size_t i = 0; i < ref_scaled.rows(); ++i)
          for (std::size_t j = 0; j < ref_scaled.cols(); ++j)
            ref_scaled(i, j) = ref_scaled(i, j) * 1.7;
      }
      EXPECT_EQ(scaled, ref_scaled) << simd::isa_name(isa) << " @" << threads;
    }
  }
}

// Bit patterns equal, element for element: unlike Matrix ==, tells +0 from −0.
void expect_same_bits(const Matrix& got, const Matrix& want,
                      const std::string& where) {
  ASSERT_EQ(got.rows(), want.rows()) << where;
  ASSERT_EQ(got.cols(), want.cols()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.data()[i]),
              std::bit_cast<std::uint64_t>(want.data()[i]))
        << where << " element " << i << ": " << got.data()[i] << " vs "
        << want.data()[i];
  }
}

// Aᵀ·B the way the weight-gradient product used to run: per output row i,
// one axpy per input row r, skipping a_ri == 0.
Matrix matmul_at_axpy_reference(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t r = 0; r < a.rows(); ++r) {
      const double av = a(r, i);
      if (av == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += av * b(r, j);
    }
  }
  return out;
}

TEST(KernelConformance, MatmulAtMatchesSkippingAxpyBitwise) {
  // matmul_at runs the matmul_rows kernel over a transposed copy of A, so
  // it adds the ±0 products the axpy loop skipped. The A operands of the
  // tape's weight gradients are this sparse: 0/1 masks and ReLU outputs.
  Rng rng(67);
  struct Shape {
    std::size_t n, p, m;  // A is n x p, B is n x m
  };
  for (const Shape s : {Shape{1, 1, 1}, Shape{7, 3, 5}, Shape{13, 9, 17},
                        Shape{40, 12, 33}, Shape{96, 20, 64}}) {
    Matrix mask(s.n, s.p), relu(s.n, s.p);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      mask.data()[i] = rng.bernoulli(0.5) ? 1.0 : 0.0;
      relu.data()[i] = std::max(0.0, rng.normal(0.0, 1.0));
    }
    // Finite B with signed zeros among its entries.
    Matrix b = rng.normal_matrix(s.n, s.m, 1.0);
    for (std::size_t i = 0; i < b.size(); i += 5) {
      b.data()[i] = i % 2 == 0 ? 0.0 : -0.0;
    }
    for (const Matrix* a : {&mask, &relu}) {
      std::size_t zeros = 0;
      for (std::size_t i = 0; i < a->size(); ++i) zeros += a->data()[i] == 0.0;
      if (a->size() >= 20) {
        ASSERT_GE(zeros * 10, a->size() * 4);
      }
      const Matrix want = matmul_at_axpy_reference(*a, b);
      std::vector<simd::Isa> isas{simd::Isa::kScalar};
      if (avx2_available()) isas.push_back(simd::Isa::kAvx2);
      for (simd::Isa isa : isas) {
        for (std::size_t threads : {1u, 2u, 4u, 8u}) {
          SimdBackendGuard guard(isa, threads);
          expect_same_bits(matmul_at(*a, b), want,
                           std::string(a == &mask ? "mask" : "relu") + " " +
                               std::to_string(s.n) + "x" +
                               std::to_string(s.p) + "x" +
                               std::to_string(s.m) + " " +
                               simd::isa_name(isa) + " @" +
                               std::to_string(threads) + "T");
        }
      }
    }
  }
}

TEST(KernelConformance, SparseMatchesDenseBitwiseUnderBothIsas) {
  Rng shape_rng(61);
  for (double density : {0.05, 0.3, 0.9}) {
    const std::size_t n = 8 + shape_rng.uniform_index(9);   // 8..16
    const std::size_t m = 3 + shape_rng.uniform_index(6);   // 3..8
    const Matrix a = random_sparse(n, n, density, shape_rng);
    const Matrix b = randn(n, m, 71 + static_cast<std::uint64_t>(density * 100));
    const CsrMatrix sp = CsrMatrix::from_dense(a, /*tol=*/0.0);
    for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
      if (!simd::isa_supported(isa)) continue;
      for (std::size_t threads : {1u, 2u, 4u}) {
        SimdBackendGuard guard(isa, threads);
        EXPECT_EQ(spmm(sp, b), matmul(a, b))
            << "density=" << density << " " << simd::isa_name(isa) << " @"
            << threads << "T";
        EXPECT_EQ(spmm_t(sp, b), matmul_at(a, b))
            << "density=" << density << " " << simd::isa_name(isa) << " @"
            << threads << "T";
      }
    }
  }
}

// ---- Fused tape cells: ISA must not perturb values or gradients ------------

struct CellRun {
  std::vector<Matrix> h;
  double loss = 0.0;
  std::vector<Matrix> grads;
};

template <typename Cell>
CellRun run_cell(Cell& cell, bool fused, const std::vector<Matrix>& xs) {
  cell.set_fused(fused);
  for (Parameter* p : cell.parameters()) p->zero_grad();
  Tape tape;
  typename Cell::State state = cell.initial_state(tape, xs.front().rows());
  std::vector<Var> hs;
  for (const Matrix& x : xs) {
    state = cell.step(tape, tape.constant(x), state);
    hs.push_back(state.h);
  }
  Var loss = tape.mean_all(tape.concat_cols_many(hs));
  tape.backward(loss);
  CellRun run;
  for (Var h : hs) run.h.push_back(tape.value(h));
  run.loss = tape.value(loss)(0, 0);
  for (Parameter* p : cell.parameters()) run.grads.push_back(p->grad());
  return run;
}

void expect_same_run(const CellRun& a, const CellRun& b) {
  ASSERT_EQ(a.h.size(), b.h.size());
  for (std::size_t t = 0; t < a.h.size(); ++t) EXPECT_EQ(a.h[t], b.h[t]);
  EXPECT_EQ(a.loss, b.loss);  // bitwise: no tolerance
  ASSERT_EQ(a.grads.size(), b.grads.size());
  for (std::size_t i = 0; i < a.grads.size(); ++i) {
    EXPECT_EQ(a.grads[i], b.grads[i]);
  }
}

TEST(KernelConformance, FusedLstmIsaAndThreadInvariant) {
  Rng rng(81);
  nn::LstmCell cell(4, 3, rng);
  std::vector<Matrix> xs;
  for (std::size_t t = 0; t < 3; ++t) xs.push_back(randn(5, 4, 300 + t));
  CellRun reference;
  bool have_reference = false;
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (!simd::isa_supported(isa)) continue;
    for (std::size_t threads : {1u, 2u, 4u}) {
      SimdBackendGuard guard(isa, threads);
      const CellRun fused = run_cell(cell, /*fused=*/true, xs);
      const CellRun unfused = run_cell(cell, /*fused=*/false, xs);
      expect_same_run(fused, unfused);
      if (!have_reference) {
        reference = fused;
        have_reference = true;
      } else {
        expect_same_run(reference, fused);
      }
    }
  }
}

TEST(KernelConformance, FusedGruIsaAndThreadInvariant) {
  Rng rng(82);
  nn::GruCell cell(4, 3, rng);
  std::vector<Matrix> xs;
  for (std::size_t t = 0; t < 3; ++t) xs.push_back(randn(5, 4, 400 + t));
  CellRun reference;
  bool have_reference = false;
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (!simd::isa_supported(isa)) continue;
    for (std::size_t threads : {1u, 2u, 4u}) {
      SimdBackendGuard guard(isa, threads);
      const CellRun fused = run_cell(cell, /*fused=*/true, xs);
      const CellRun unfused = run_cell(cell, /*fused=*/false, xs);
      expect_same_run(fused, unfused);
      if (!have_reference) {
        reference = fused;
        have_reference = true;
      } else {
        expect_same_run(reference, fused);
      }
    }
  }
}

// ---- Float serving kernels: ULP-bounded against the f64 reference ----------

// Per-element forward-error bound for a length-k f32 dot product with FMA:
// each of the <= k multiplies and k adds (FMA fuses pairs but we bound
// conservatively) contributes <= eps/2 relative to the running magnitude,
// which is itself bounded by Σ|a||b|. (k+2)·eps·Σ|a||b| leaves slack for the
// final rounding and the f32 representation of the operands.
void expect_f32_within_bound(const FMatrix& got, const Matrix& ref,
                             const Matrix& abs_bound, std::size_t k,
                             const char* what) {
  constexpr double eps = std::numeric_limits<float>::epsilon();
  const double factor = static_cast<double>(k + 2) * eps;
  ASSERT_EQ(got.rows(), ref.rows()) << what;
  ASSERT_EQ(got.cols(), ref.cols()) << what;
  for (std::size_t i = 0; i < ref.rows(); ++i) {
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      const double tol = factor * abs_bound(i, j) +
                         std::numeric_limits<float>::denorm_min();
      EXPECT_NEAR(static_cast<double>(got(i, j)), ref(i, j), tol)
          << what << " at (" << i << "," << j << ")";
    }
  }
}

Matrix abs_matrix(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) out(i, j) = std::fabs(m(i, j));
  return out;
}

TEST(KernelConformance, FloatMatmulWithinUlpBoundOfDouble) {
  Rng rng(91);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(12);
    const std::size_t k = 1 + rng.uniform_index(40);
    const std::size_t m = 1 + rng.uniform_index(12);
    const Matrix a64 = randn(n, k, 500 + static_cast<std::uint64_t>(trial));
    const Matrix b64 = randn(k, m, 600 + static_cast<std::uint64_t>(trial));
    const FMatrix a32 = FMatrix::from(a64);
    const FMatrix b32 = FMatrix::from(b64);
    // Reference from the NARROWED operands (widened back exactly), so the
    // bound measures the kernel's accumulation error, not conversion error.
    const Matrix ar = a32.to_double();
    const Matrix br = b32.to_double();
    const Matrix ref = matmul(ar, br);
    const Matrix bound = matmul(abs_matrix(ar), abs_matrix(br));
    for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
      if (!simd::isa_supported(isa)) continue;
      SimdBackendGuard guard(isa, 2);
      expect_f32_within_bound(fmatmul(a32, b32), ref, bound, k,
                              simd::isa_name(isa));
    }
  }
}

TEST(KernelConformance, FloatSpmmWithinUlpBoundOfDouble) {
  Rng rng(93);
  for (double density : {0.1, 0.5}) {
    const std::size_t n = 8 + rng.uniform_index(9);
    const std::size_t m = 2 + rng.uniform_index(7);
    const Matrix a64 = random_sparse(n, n, density, rng);
    const Matrix b64 = randn(n, m, 700 + static_cast<std::uint64_t>(density * 10));
    const CsrMatrix sp64 = CsrMatrix::from_dense(a64, 0.0);
    const FCsrMatrix sp32 = FCsrMatrix::from(sp64);
    const FMatrix b32 = FMatrix::from(b64);
    const Matrix ar = FMatrix::from(a64).to_double();
    const Matrix br = b32.to_double();
    const Matrix ref = matmul(ar, br);
    const Matrix bound = matmul(abs_matrix(ar), abs_matrix(br));
    for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
      if (!simd::isa_supported(isa)) continue;
      SimdBackendGuard guard(isa, 2);
      expect_f32_within_bound(fspmm(sp32, b32), ref, bound, n,
                              simd::isa_name(isa));
    }
  }
}

TEST(KernelConformance, FloatMatmulThreadCountInvariant) {
  // The f32 kernels follow the same fixed-chunk rule as the double ones, so
  // while they are only ULP-close to f64, they are BITWISE identical to
  // themselves across thread counts.
  const Matrix a64 = randn(10, 18, 801);
  const Matrix b64 = randn(18, 9, 802);
  const FMatrix a32 = FMatrix::from(a64);
  const FMatrix b32 = FMatrix::from(b64);
  FMatrix ref;
  {
    SimdBackendGuard guard(simd::active_isa(), 1);
    ref = fmatmul(a32, b32);
  }
  for (std::size_t threads : {2u, 4u, 8u}) {
    SimdBackendGuard guard(simd::active_isa(), threads);
    const FMatrix out = fmatmul(a32, b32);
    ASSERT_EQ(out.size(), ref.size());
    for (std::size_t i = 0; i < out.rows(); ++i)
      for (std::size_t j = 0; j < out.cols(); ++j)
        EXPECT_EQ(out(i, j), ref(i, j)) << "@" << threads << "T";
  }
}

// ---- Float GEMM kernels: bitwise against an ascending-k FMA chain -----------

// C += A·B with every element seeded from C and then fused with a_ik·b_kj for
// ascending k — one rounding per term. The AVX2 tables may tile rows and
// columns any way they like but must reproduce exactly this chain; the ULP
// bounds above would also accept a tile that reordered terms.
std::vector<float> fma_chain_reference(const std::vector<float>& a,
                                       const std::vector<float>& b,
                                       std::vector<float> c, std::size_t rows,
                                       std::size_t k, std::size_t m) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      float acc = c[i * m + j];
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc = std::fmaf(a[i * k + kk], b[kk * m + j], acc);
      }
      c[i * m + j] = acc;
    }
  }
  return c;
}

// Mixed-sign normals with a `zero_frac` share of exact zeros of either sign.
std::vector<float> random_f32(Rng& rng, std::size_t n, double zero_frac) {
  std::vector<float> v(n);
  for (float& x : v) {
    if (rng.bernoulli(zero_frac)) {
      x = rng.bernoulli(0.5) ? 0.0f : -0.0f;
    } else {
      x = static_cast<float>(rng.normal(0.0, 1.0));
    }
  }
  return v;
}

// Index of the first element whose bit pattern differs, or x.size().
std::size_t first_bit_mismatch(const std::vector<float>& x,
                               const std::vector<float>& y) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(x[i]) !=
        std::bit_cast<std::uint32_t>(y[i])) {
      return i;
    }
  }
  return x.size();
}

TEST(KernelConformance, FloatGemmBitwiseMatchesFmaChain) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available on this host";
  const simd::Kernels& avx2 = simd::kernels_for(simd::Isa::kAvx2);
  // Rows cover every 8/4/1 row-block remainder plus a city-shard-sized run;
  // widths cover every 8/4/1 column-tile remainder and both sides of the
  // narrow/wide switch; depths reach a full N = 256 Laplacian panel.
  std::vector<std::size_t> row_counts;
  for (std::size_t r = 1; r <= 17; ++r) row_counts.push_back(r);
  row_counts.push_back(2300);
  const std::size_t widths[] = {1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17,
                                31, 32, 33, 64};
  const std::size_t depths[] = {1, 4, 24, 48, 256};
  Rng rng(97);
  for (std::size_t rows : row_counts) {
    for (std::size_t m : widths) {
      for (std::size_t k : depths) {
        const std::vector<float> a = random_f32(rng, rows * k, 0.3);
        const std::vector<float> b = random_f32(rng, k * m, 0.0);
        const std::vector<float> seed = random_f32(rng, rows * m, 0.0);
        const std::vector<float> want =
            fma_chain_reference(a, b, seed, rows, k, m);
        const auto expect_same = [&](const std::vector<float>& got,
                                     const char* what) {
          const std::size_t at = first_bit_mismatch(got, want);
          EXPECT_EQ(at, got.size())
              << what << " rows=" << rows << " k=" << k << " m=" << m
              << ": element " << at << " = " << got[at] << ", chain gives "
              << want[at];
        };
        std::vector<float> c = seed;
        avx2.smatmul_rows(a.data(), b.data(), c.data(), k, m, 0, rows);
        expect_same(c, "smatmul_rows");
        // Threaded callers hand the kernel arbitrary row ranges.
        c = seed;
        const std::size_t split = rows / 3;
        avx2.smatmul_rows(a.data(), b.data(), c.data(), k, m, 0, split);
        avx2.smatmul_rows(a.data(), b.data(), c.data(), k, m, split, rows);
        expect_same(c, "smatmul_rows split");
        c = seed;
        avx2.smatmul_panel(a.data(), b.data(), c.data(), rows, k, m);
        expect_same(c, "smatmul_panel");
      }
    }
  }
}

// ---- What the engine's copy-free forward relies on ---------------------------

// The f32 engine never packs a concatenation: [A1 | A2]·B runs as A1·B_top,
// then A2·B_bottom on the stored C (DESIGN.md §14, split-K). In both tables
// that is bitwise the whole-k call: C is stored and reloaded exactly between
// the ranges, and each element's terms still arrive in ascending k — on the
// AVX2 row-block path below 64 columns and on its single-row path (with the
// a == 0 skip) from 64 on.
TEST(KernelConformance, FloatGemmSplitKMatchesWholeK) {
  const std::size_t widths[] = {1, 3, 4, 12, 32, 64, 72};
  const std::size_t splits[][2] = {{1, 1}, {4, 1}, {1, 8}, {8, 4}, {16, 9}};
  Rng rng(131);
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (!simd::isa_supported(isa)) continue;
    const simd::Kernels& kern = simd::kernels_for(isa);
    for (std::size_t rows = 1; rows <= 17; ++rows) {
      for (std::size_t m : widths) {
        for (const auto& split : splits) {
          const std::size_t k1 = split[0], k2 = split[1], k = k1 + k2;
          // A carries exact zeros of either sign. C starts all zero (either
          // sign; the engine's accumulators start at +0) on even row counts
          // and mostly random on odd ones.
          const std::vector<float> a = random_f32(rng, rows * k, 0.3);
          const std::vector<float> b = random_f32(rng, k * m, 0.0);
          const std::vector<float> seed =
              random_f32(rng, rows * m, rows % 2 == 0 ? 1.0 : 0.2);
          std::vector<float> a1(rows * k1), a2(rows * k2);
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t kk = 0; kk < k; ++kk) {
              if (kk < k1) {
                a1[r * k1 + kk] = a[r * k + kk];
              } else {
                a2[r * k2 + kk - k1] = a[r * k + kk];
              }
            }
          }
          std::vector<float> whole = seed;
          kern.smatmul_rows(a.data(), b.data(), whole.data(), k, m, 0, rows);
          std::vector<float> parts = seed;
          kern.smatmul_rows(a1.data(), b.data(), parts.data(), k1, m, 0, rows);
          kern.smatmul_rows(a2.data(), b.data() + k1 * m, parts.data(), k2, m,
                            0, rows);
          const std::size_t at = first_bit_mismatch(parts, whole);
          EXPECT_EQ(at, parts.size())
              << simd::isa_name(isa) << " rows=" << rows << " m=" << m
              << " k=" << k1 << "+" << k2 << ": element " << at;
        }
      }
    }
  }
}

// slstm_step adds the gate bias itself: σ(g + b) is the same single f32 add
// as adding b into the gates first, so in each table slstm_step(g, b)
// equals slstm_step(g + b, 0) bit for bit.
TEST(KernelConformance, LstmStepBiasEqualsPreAddedBias) {
  Rng rng(132);
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (!simd::isa_supported(isa)) continue;
    const simd::Kernels& kern = simd::kernels_for(isa);
    for (std::size_t hdim : {1u, 3u, 8u, 9u, 16u, 17u}) {
      for (std::size_t rows : {1u, 4u, 7u}) {
        const std::vector<float> g = random_f32(rng, rows * 4 * hdim, 0.0);
        const std::vector<float> bias = random_f32(rng, 4 * hdim, 0.0);
        const std::vector<float> c0 = random_f32(rng, rows * hdim, 0.0);
        std::vector<float> pre = g;
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t j = 0; j < 4 * hdim; ++j) {
            pre[r * 4 * hdim + j] += bias[j];
          }
        }
        const std::vector<float> zero(4 * hdim, 0.0f);
        std::vector<float> c1 = c0, h1(rows * hdim);
        std::vector<float> c2 = c0, h2(rows * hdim);
        kern.slstm_step(g.data(), bias.data(), c1.data(), h1.data(), rows,
                        hdim);
        kern.slstm_step(pre.data(), zero.data(), c2.data(), h2.data(), rows,
                        hdim);
        EXPECT_EQ(first_bit_mismatch(c1, c2), c1.size())
            << simd::isa_name(isa) << " c, h=" << hdim << " rows=" << rows;
        EXPECT_EQ(first_bit_mismatch(h1, h2), h1.size())
            << simd::isa_name(isa) << " h, h=" << hdim << " rows=" << rows;
      }
    }
  }
}

// FMatrix storage starts on a 64-byte boundary, whatever the shape, and a
// copy or a move keeps it there.
TEST(KernelConformance, FMatrixStorageIs64ByteAligned) {
  const auto aligned = [](const FMatrix& m) {
    return reinterpret_cast<std::uintptr_t>(m.data()) % 64 == 0;
  };
  const std::size_t shapes[][2] = {{1, 1}, {1, 3}, {3, 5}, {7, 4},
                                   {17, 9}, {64, 64}, {257, 3}};
  for (const auto& shape : shapes) {
    std::vector<FMatrix> keep;  // live neighbours, so blocks are not reused
    for (int rep = 0; rep < 4; ++rep) {
      FMatrix m(shape[0], shape[1]);
      m(shape[0] - 1, shape[1] - 1) = 1.5f;
      EXPECT_TRUE(aligned(m)) << shape[0] << "x" << shape[1];
      const FMatrix copy = m;
      EXPECT_TRUE(aligned(copy)) << "copy " << shape[0] << "x" << shape[1];
      EXPECT_EQ(copy(shape[0] - 1, shape[1] - 1), 1.5f);
      FMatrix moved = std::move(m);
      EXPECT_TRUE(aligned(moved)) << "move " << shape[0] << "x" << shape[1];
      FMatrix assigned;
      assigned = copy;
      EXPECT_TRUE(aligned(assigned)) << "assign " << shape[0] << "x"
                                     << shape[1];
      keep.push_back(std::move(moved));
      keep.push_back(FMatrix::from(Matrix(shape[0], shape[1])));
      EXPECT_TRUE(aligned(keep.back()));
    }
  }
}

// ---- RIHGCN_SIMD parsing ----------------------------------------------------

// Same env-guard idiom as test_parallel.cpp.
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVarGuard() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(KernelConformance, SimdEnvUnsetMeansAutoDetect) {
  EnvVarGuard env("RIHGCN_SIMD", nullptr);
  EXPECT_FALSE(simd::isa_from_env().has_value());
}

TEST(KernelConformance, SimdEnvAcceptsKnownIsas) {
  {
    EnvVarGuard env("RIHGCN_SIMD", "scalar");
    const auto isa = simd::isa_from_env();
    ASSERT_TRUE(isa.has_value());
    EXPECT_EQ(*isa, simd::Isa::kScalar);
  }
  {
    EnvVarGuard env("RIHGCN_SIMD", "avx2");
    if (avx2_available()) {
      const auto isa = simd::isa_from_env();
      ASSERT_TRUE(isa.has_value());
      EXPECT_EQ(*isa, simd::Isa::kAvx2);
    } else {
      // Requesting an ISA this host can't run must fail loudly.
      EXPECT_THROW((void)simd::isa_from_env(), std::runtime_error);
    }
  }
}

TEST(KernelConformance, SimdEnvRejectsGarbage) {
  for (const char* bad : {"AVX2", "sse", "scalar ", "1", "on"}) {
    EnvVarGuard env("RIHGCN_SIMD", bad);
    EXPECT_THROW((void)simd::isa_from_env(), std::runtime_error)
        << "'" << bad << "'";
  }
}

TEST(KernelConformance, ForceIsaIsVisibleAndRevertible) {
  simd::force_isa(simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_EQ(simd::active_kernels().add,
            simd::kernels_for(simd::Isa::kScalar).add);
  simd::reset_isa();
  // After reset the dispatcher re-resolves; whatever it picks must be a
  // supported ISA with a fully populated table.
  const simd::Isa isa = simd::active_isa();
  EXPECT_TRUE(simd::isa_supported(isa));
  EXPECT_NE(simd::active_kernels().matmul_rows, nullptr);
}

}  // namespace
}  // namespace rihgcn
