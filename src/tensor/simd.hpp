// Runtime-dispatched SIMD kernel layer underneath the tensor backend
// (DESIGN.md §12).
//
// The dense/sparse kernels and the tape's elementwise loops funnel their
// innermost loops through the function table returned by active_kernels().
// The table is selected ONCE, at first use:
//   * RIHGCN_SIMD=scalar|avx2 forces an instruction set (an unsupported or
//     misspelled value throws — no silent fallback),
//   * otherwise the best set the CPU supports is picked (AVX2+FMA when
//     available, scalar everywhere else).
//
// Two numeric contracts (DESIGN.md §12):
//  * double kernels are BITWISE-IDENTICAL to the scalar reference. Every
//    output element is produced by the same sequence of individually rounded
//    multiplies and adds as the scalar loop — SIMD only evaluates independent
//    elements in parallel lanes, never reassociates a reduction and never
//    fuses a multiply-add. (The whole project is built with -ffp-contract=off
//    so the scalar reference is pinned to mul+add rounding too.) The training
//    path therefore keeps the bitwise-determinism-at-fixed-thread-count
//    guarantee of DESIGN.md §8 with SIMD on.
//  * float kernels (the f32 inference path, tensor/fmatrix.hpp) may use FMA
//    and are held to an ULP-BOUNDED tolerance against the double reference
//    instead (tests/test_kernel_conformance.cpp). The AVX2 f32 GEMMs are in
//    addition bitwise equal to a per-element ascending-k std::fmaf chain,
//    however they tile rows and columns.
#pragma once

#include <cstddef>
#include <optional>

namespace rihgcn::simd {

/// Instruction sets the dispatcher knows about.
enum class Isa {
  kScalar,  ///< portable reference kernels (always available)
  kAvx2,    ///< AVX2 + FMA (x86-64; FMA used only by the float kernels)
};

/// One resolved kernel table. All pointers are always non-null.
struct Kernels {
  // ---- double kernels: bitwise contract (mul+add per element, ascending
  // index order, no reassociation) --------------------------------------
  void (*add)(double* y, const double* x, std::size_t n);  ///< y[i] += x[i]
  void (*sub)(double* y, const double* x, std::size_t n);  ///< y[i] -= x[i]
  void (*mul)(double* y, const double* x, std::size_t n);  ///< y[i] *= x[i]
  void (*scale)(double* y, double s, std::size_t n);       ///< y[i] *= s
  /// out[i] = a[i] + b[i]
  void (*add_into)(double* out, const double* a, const double* b,
                   std::size_t n);
  /// out[i] = a[i] - b[i]
  void (*sub_into)(double* out, const double* a, const double* b,
                   std::size_t n);
  /// out[i] = a[i] * b[i]
  void (*mul_into)(double* out, const double* a, const double* b,
                   std::size_t n);
  /// y[i] += a * x[i] — the SpMM / Aᵀ·B row update.
  void (*axpy)(double* y, double a, const double* x, std::size_t n);
  /// y[i] += a[i] * b[i] (two roundings) — elementwise-mul backward and the
  /// fused-cell gradient sections.
  void (*fmadd)(double* y, const double* a, const double* b, std::size_t n);
  /// out[i] = a[i]*b[i] + c[i]*d[i] (three roundings) — the fused LSTM
  /// cell-state update c' = f⊙c + i⊙g.
  void (*mul2_add)(double* out, const double* a, const double* b,
                   const double* c, const double* d, std::size_t n);
  /// C += A·B over output rows [i0, i1). A: (? x k), B: (k x m), row-major.
  /// Per element: seed from C, then add round(a_ik * b_kj) for ascending k —
  /// exactly the serial blocked kernel's arithmetic.
  void (*matmul_rows)(const double* a, const double* b, double* c,
                      std::size_t k, std::size_t m, std::size_t i0,
                      std::size_t i1);
  /// C += S·B over output rows [i0, i1) where S is the CSR triple
  /// (row_ptr, col_idx, vals) and B is dense (? x m). Whole row ranges per
  /// call — a per-nonzero axpy through the function pointer costs ~30% on
  /// the Chebyshev SpMM sweep (BENCH_micro.json, F = 16). Each output
  /// element accumulates round(v_p * b_pj) in ascending structural order p,
  /// so the bitwise contract holds regardless of lane width.
  void (*spmm_rows)(const std::size_t* row_ptr, const std::size_t* col_idx,
                    const double* vals, const double* b, double* c,
                    std::size_t m, std::size_t i0, std::size_t i1);

  // ---- float kernels: ULP-bounded contract (FMA allowed) ---------------
  void (*saxpy)(float* y, float a, const float* x, std::size_t n);
  /// C += A·B over output rows [i0, i1), float, FMA-accumulated in
  /// ascending k per element.
  void (*smatmul_rows)(const float* a, const float* b, float* c,
                       std::size_t k, std::size_t m, std::size_t i0,
                       std::size_t i1);
  /// C += S·B over output rows [i0, i1), float CSR, FMA-accumulated.
  void (*sspmm_rows)(const std::size_t* row_ptr, const std::size_t* col_idx,
                     const float* vals, const float* b, float* c,
                     std::size_t m, std::size_t i0, std::size_t i1);
  /// Panel GEMM C(rows x m) += A(rows x k)·B(k x m) for SHORT panels (rows
  /// ≲ 8) against a large B: B is streamed once per 4-row block instead of
  /// once per row, which is what the serving engine's transposed
  /// Laplacian apply (outᵀ = xᵀ·L̃ᵀ, DESIGN.md §14) is bound by. Same
  /// ascending-k per-element FMA order as smatmul_rows.
  void (*smatmul_panel)(const float* a, const float* b, float* c,
                        std::size_t rows, std::size_t k, std::size_t m);
  /// Fused LSTM gate row math: `gates` ((rows x 4h), layout [i|f|o|g]) are
  /// the summed input- and hidden-side pre-activations, bias is the shared
  /// 4h row; with a = gates + bias (one f32 add per element, so passing a
  /// zero bias after adding the bias in first gives the same bits), updates
  /// c and h ((rows x h)):
  ///   c = σ(a_f)⊙c + σ(a_i)⊙tanh(a_g);  h = σ(a_o)⊙tanh(c)
  /// The AVX2 table may evaluate σ/tanh through vectorized libm (few-ULP
  /// vs scalar libm) — float-path tolerance only, like FMA use.
  void (*slstm_step)(const float* gates, const float* bias, float* c,
                     float* h, std::size_t rows, std::size_t hdim);
  /// Fused GRU gate row math: gx/gh ((rows x 3h), layout [r|z|n]) are the
  /// input-side and hidden-side pre-activations, bias is the shared 3h row:
  ///   r = σ(gx_r+gh_r+b_r); z = σ(gx_z+gh_z+b_z);
  ///   n = tanh(gx_n + r⊙gh_n + b_n);  h = n − z⊙n + z⊙h
  void (*sgru_step)(const float* gx, const float* gh, const float* bias,
                    float* h, std::size_t rows, std::size_t hdim);
};

/// True if this build + CPU can execute `isa`.
[[nodiscard]] bool isa_supported(Isa isa) noexcept;
/// "scalar" / "avx2".
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Parse RIHGCN_SIMD. Empty/unset → nullopt (auto-detect). "scalar"/"avx2" →
/// that ISA. Anything else throws std::runtime_error with the accepted
/// values; a recognized but unsupported ISA throws too (no silent fallback).
[[nodiscard]] std::optional<Isa> isa_from_env();

/// The ISA in effect (resolved once from env/CPU on first call).
[[nodiscard]] Isa active_isa();
/// The kernel table for active_isa(). Hot path: one atomic load.
[[nodiscard]] const Kernels& active_kernels();
/// The table for an explicit ISA (conformance tests compare tables directly).
/// Throws std::runtime_error if the ISA is not supported here.
[[nodiscard]] const Kernels& kernels_for(Isa isa);

/// Override the active ISA (tests/benchmarks). Not synchronized — call only
/// while no kernels are in flight. Throws if unsupported.
void force_isa(Isa isa);
/// Undo force_isa(): next active_kernels() re-resolves from env/CPU.
void reset_isa();

}  // namespace rihgcn::simd
