// Reverse-mode automatic differentiation over rihgcn::Matrix.
//
// This is the substitute for the paper's PyTorch training stack (see
// DESIGN.md §1). The design is a classic Wengert tape:
//
//  * A Tape owns a growing vector of Nodes; each op appends one node whose
//    parents all have smaller indices, so creation order IS a topological
//    order and backward() is a single reverse sweep.
//  * Var is a cheap value-type handle (tape pointer + index). Users never
//    touch Nodes directly.
//  * Model parameters live OUTSIDE the tape in Parameter objects so they
//    survive across forward passes; Tape::leaf() snapshots a parameter into
//    the tape and routes gradients back into Parameter::grad on backward().
//
// The one property the paper's training strategy depends on — imputed values
// X̂ₜ being *trainable variables* that receive delayed gradients from later
// timesteps (§III-E) — falls out naturally: the recurrent imputation is
// expressed as tape ops, so gradients flow through every complement step.
//
// Allocation model (DESIGN.md §10): a Tape is an arena. Every node's value
// and grad buffer comes from an internal BufferPool, and reset() retires
// them all back to the pool while keeping the node vector's capacity — so a
// training loop that calls reset() between steps reaches a steady state
// where forward+backward performs near-zero heap allocation. Backward
// closures are stored in BackwardFn, a small-buffer callable that keeps
// typical closures inline in the node instead of behind a std::function
// heap cell.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/pool.hpp"

namespace rihgcn {
class CsrMatrix;
}

namespace rihgcn::ad {

/// A trainable tensor: value + accumulated gradient, living outside any tape.
class Parameter {
 public:
  Parameter() = default;
  explicit Parameter(Matrix value, std::string name = "")
      : value_(std::move(value)),
        grad_(value_.rows(), value_.cols()),
        name_(std::move(name)) {}

  [[nodiscard]] Matrix& value() noexcept { return value_; }
  [[nodiscard]] const Matrix& value() const noexcept { return value_; }
  [[nodiscard]] Matrix& grad() noexcept { return grad_; }
  [[nodiscard]] const Matrix& grad() const noexcept { return grad_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t size() const noexcept { return value_.size(); }

  void zero_grad() { grad_.fill(0.0); }

 private:
  Matrix value_;
  Matrix grad_;
  std::string name_;
};

class Tape;

/// Lightweight handle to a tape node. Copyable; valid while the tape lives
/// and until the next reset().
struct Var {
  Tape* tape = nullptr;
  std::size_t index = 0;

  [[nodiscard]] bool valid() const noexcept { return tape != nullptr; }
  [[nodiscard]] const Matrix& value() const;
  [[nodiscard]] std::size_t rows() const { return value().rows(); }
  [[nodiscard]] std::size_t cols() const { return value().cols(); }
};

/// Move-only type-erased callable `void(Tape&)` with a small-buffer store.
/// libstdc++'s std::function spills anything over two pointers to the heap,
/// which made every third tape node carry a hidden allocation; backward
/// closures capture a handful of indices (and occasionally a small vector),
/// so an inline buffer holds essentially all of them.
class BackwardFn {
 public:
  BackwardFn() noexcept = default;
  BackwardFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BackwardFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  BackwardFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  BackwardFn(BackwardFn&& other) noexcept { move_from(other); }
  BackwardFn& operator=(BackwardFn&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BackwardFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  BackwardFn& operator=(F&& f) {
    destroy();
    emplace(std::forward<F>(f));
    return *this;
  }
  BackwardFn& operator=(std::nullptr_t) noexcept {
    destroy();
    return *this;
  }
  BackwardFn(const BackwardFn&) = delete;
  BackwardFn& operator=(const BackwardFn&) = delete;
  ~BackwardFn() { destroy(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vtable_ != nullptr;
  }
  void operator()(Tape& t) { vtable_->invoke(buf_, t); }

 private:
  struct VTable {
    void (*invoke)(void* self, Tape& t);
    // Move-construct into dst from src, then destroy src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  static constexpr std::size_t kInlineBytes = 120;

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      static const VTable vt{
          [](void* self, Tape& t) { (*static_cast<Fn*>(self))(t); },
          [](void* dst, void* src) noexcept {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
          },
          [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); }};
      vtable_ = &vt;
    } else {
      // Oversized/overaligned closure: fall back to a heap cell holding F.
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      static const VTable vt{
          [](void* self, Tape& t) { (**static_cast<Fn**>(self))(t); },
          [](void* dst, void* src) noexcept {
            ::new (dst) Fn*(*static_cast<Fn**>(src));
          },
          [](void* self) noexcept { delete *static_cast<Fn**>(self); }};
      vtable_ = &vt;
    }
  }

  void move_from(BackwardFn& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) vtable_->relocate(buf_, other.buf_);
    other.vtable_ = nullptr;
  }
  void destroy() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

/// Reverse-mode AD tape / allocation arena. Construct once, reset() between
/// forward passes to recycle every node buffer through the pool.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Retire every node's value/grad buffer into the pool and clear the node
  /// vector (capacity kept). All Vars from previous passes are invalidated;
  /// Parameter gradients are untouched. After one warm-up pass, identical
  /// passes allocate nothing — see BufferPool and pool() counters.
  void reset();

  // ---- Leaf creation ------------------------------------------------------
  /// Non-differentiable constant (copied into a pooled buffer).
  Var constant(const Matrix& value);
  /// Snapshot of an external parameter; backward() accumulates into p.grad().
  /// Calls are deduplicated per reset() cycle: the second leaf(p) for the
  /// same Parameter returns the first node, so each weight matrix is
  /// materialized once per step no matter how many timesteps reference it.
  Var leaf(Parameter& p);

  // ---- Elementwise / linear ops -------------------------------------------
  Var add(Var a, Var b);
  Var sub(Var a, Var b);
  /// Elementwise (Hadamard) product of two vars.
  Var mul(Var a, Var b);
  /// a * s for scalar s.
  Var scale(Var a, double s);
  /// a + s elementwise.
  Var add_scalar(Var a, double s);
  /// Elementwise product with a constant matrix (e.g. missingness mask).
  Var hadamard_const(Var a, const Matrix& m);
  /// Matrix product.
  Var matmul(Var a, Var b);
  /// Sparse-dense product a · b where `a` is a constant CSR matrix (a graph
  /// Laplacian — never trained, so only `b` receives a gradient, routed
  /// through spmm_t). `a` must outlive the tape: the backward closure keeps
  /// a pointer to it, the same lifetime rule as Parameter in leaf(). With
  /// `a` built at tol = 0 this is bitwise identical to
  /// matmul(constant(a.to_dense()), b) — see tensor/csr.hpp.
  Var spmm(const CsrMatrix& a, Var b);
  /// Multiply every column of a (rows x C) by col (rows x 1) elementwise —
  /// the attention-weighting primitive.
  Var mul_col_broadcast(Var a, Var col);
  /// Add a 1 x C bias row to every row of a (rows x C).
  Var add_row_broadcast(Var a, Var bias_row);

  // ---- Nonlinearities -------------------------------------------------------
  Var sigmoid(Var a);
  Var tanh(Var a);
  Var relu(Var a);
  /// Row-wise softmax (used by attention baselines).
  Var softmax_rows(Var a);

  // ---- Fused recurrent cells ----------------------------------------------
  //
  // One node for the activated gate block, one per state output, with a
  // hand-written backward — replacing the ~15-node slice/σ/tanh/mul/add
  // chain per timestep. Gradients and values are bitwise identical to the
  // unfused chains in nn::LstmCell/nn::GruCell at any thread count: every
  // arithmetic expression and accumulation order below replicates the
  // unfused ops' exactly (tests/test_tape_arena.cpp holds this at tol = 0).

  struct LstmState {
    Var h;
    Var c;
  };
  /// Fused LSTM cell step. Gate layout along columns is [i | f | o | g]
  /// (σ, σ, σ, tanh); w_ih is in x 4H, w_hh is H x 4H, bias is 1 x 4H.
  ///   c' = f ⊙ c + i ⊙ g,   h' = o ⊙ tanh(c')
  /// The gate node (n x 5H) also keeps tanh(c') as a fifth block for the
  /// backward.
  LstmState lstm_cell(Var x, Var h_prev, Var c_prev, Var w_ih, Var w_hh,
                      Var bias);
  /// Fused GRU cell step. Gate layout along columns is [r | z | n]
  /// (σ, σ, tanh); w_ih is in x 3H, w_hh is H x 3H, bias is 1 x 3H.
  ///   n = tanh(x·W_n + r ⊙ (h·U_n) + b_n),   h' = (1 − z) ⊙ n + z ⊙ h
  Var gru_cell(Var x, Var h_prev, Var w_ih, Var w_hh, Var bias);

  // ---- Shape ops -------------------------------------------------------------
  /// Horizontal concatenation [a | b].
  Var concat_cols(Var a, Var b);
  /// Horizontal concatenation of many vars: a single n-ary node (one copy
  /// per input, one backward closure), not a fold of binary concats.
  Var concat_cols_many(const std::vector<Var>& vars);
  /// Columns [c0, c1).
  Var slice_cols(Var a, std::size_t c0, std::size_t c1);
  /// Transpose.
  Var transpose(Var a);

  // ---- Reductions / losses -----------------------------------------------
  /// Mean over all elements -> 1x1.
  Var mean_all(Var a);
  /// Weighted L1: sum(w ⊙ |a - target|) / max(1, sum(w)) -> 1x1.
  /// `target` and weight matrix `w` are constants (observed data and masks).
  Var masked_mae(Var a, const Matrix& target, const Matrix& w);
  /// Mean |a - b| between two vars (consistency term of Eq. 6), optionally
  /// weighted by a constant matrix of the same shape.
  Var weighted_l1_between(Var a, Var b, const Matrix& w);

  /// c0*a + c1*b for scalar (1x1) vars — used to combine L_c + λ·L_m.
  Var affine_combine(Var a, double c0, Var b, double c1);

  // ---- Execution -----------------------------------------------------------
  /// Run the reverse sweep from scalar node `output` (must be 1x1).
  /// Accumulates into every bound Parameter's grad (does NOT zero them first,
  /// so losses from multiple samples in a batch naturally sum).
  void backward(Var output);

  /// As backward(), but parameter gradients accumulate into `sink` instead
  /// of Parameter::grad — the building block for data-parallel training,
  /// where each worker thread owns a private sink that is reduced into the
  /// parameters afterwards (Parameter values are only read concurrently).
  using GradSink = std::unordered_map<Parameter*, Matrix>;
  void backward_into(Var output, GradSink& sink);

  [[nodiscard]] const Matrix& value(Var v) const;
  /// Gradient of the last backward() wrt node v (zeros if unreached).
  [[nodiscard]] const Matrix& grad(Var v) const;

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  /// The tape's buffer pool — read the hit/miss counters to verify that
  /// steady-state steps allocate (miss) nothing.
  [[nodiscard]] const BufferPool& pool() const noexcept { return pool_; }

 private:
  struct Node {
    Matrix value;
    Matrix grad;  // allocated lazily in backward()
    // Backward step: reads this node's grad, accumulates into parents'.
    BackwardFn backward;
    Parameter* bound_param = nullptr;
    bool requires_grad = false;
  };

  Var push(Matrix value, bool requires_grad, BackwardFn backward_fn = nullptr);
  /// Pool-backed deep copy of `src`.
  Matrix pooled_copy(const Matrix& src);
  void run_reverse_sweep(Var output);
  Node& node(std::size_t i) { return nodes_[i]; }
  Matrix& grad_ref(std::size_t i);
  void check_same_tape(Var v) const;

  std::vector<Node> nodes_;
  std::vector<std::pair<Parameter*, std::size_t>> leaf_cache_;
  BufferPool pool_;
  Matrix empty_grad_;           // returned for unreached nodes
  GradSink* grad_sink_ = nullptr;  // non-null only inside backward_into
};

/// Numerically estimate d(loss)/d(p) via central differences and compare to
/// the analytic gradient. `loss_fn` must rebuild the graph from scratch on a
/// fresh tape each call and return the scalar loss VALUE. Returns the max
/// absolute difference between analytic and numeric gradients.
double gradient_check(Parameter& p,
                      const std::function<double()>& loss_value_fn,
                      const Matrix& analytic_grad, double eps = 1e-6);

}  // namespace rihgcn::ad
