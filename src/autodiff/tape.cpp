#include "autodiff/tape.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/csr.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rihgcn::ad {

namespace {

// Parallel dispatch for the tape's hand-rolled elementwise loops (op values
// and backward gradient accumulation). Every element/row is written by
// exactly one chunk and chunk boundaries are fixed by size alone, so the
// sweep stays bit-for-bit deterministic for any thread count. Reduction
// loops (loss sums, softmax row dots within a row) stay serial.
template <typename Body>
void par_elems(std::size_t n, Body&& body) {
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

template <typename Body>
void par_rows(std::size_t rows, std::size_t cols, Body&& body) {
  if (rows * cols < ParallelTuning::min_elems) {
    body(std::size_t{0}, rows);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  if (pool.num_threads() <= 1) {
    body(std::size_t{0}, rows);
    return;
  }
  const std::size_t grain = std::max<std::size_t>(
      1, ParallelTuning::elem_grain / std::max<std::size_t>(1, cols));
  pool.parallel_for(0, rows, grain,
                    ThreadPool::RangeBody(std::forward<Body>(body)));
}

// Numerically stable logistic — the single definition shared by
// Tape::sigmoid and the fused cells, so both paths round identically. One
// exp per call: e = exp(−|x|) is exp(−x) for x >= 0 and exp(x) below, so
// this is bitwise the two-branch 1/(1+exp(−x)) | exp(x)/(1+exp(x)) form,
// ±0 and ±inf included.
inline double stable_sigmoid(double x) {
  const double e = std::exp(-std::fabs(x));
  return (x >= 0.0 ? 1.0 : e) / (1.0 + e);
}

}  // namespace

const Matrix& Var::value() const {
  if (!tape) throw std::logic_error("Var::value on null tape");
  return tape->value(*this);
}

Var Tape::push(Matrix value, bool requires_grad, BackwardFn backward_fn) {
  Node n;
  n.value = std::move(value);
  n.requires_grad = requires_grad;
  n.backward = std::move(backward_fn);
  nodes_.push_back(std::move(n));
  return Var{this, nodes_.size() - 1};
}

Matrix Tape::pooled_copy(const Matrix& src) {
  Matrix out = pool_.acquire(src.rows(), src.cols());
  if (!src.empty()) {
    std::copy(src.data(), src.data() + src.size(), out.data());
  }
  return out;
}

void Tape::reset() {
  for (Node& n : nodes_) {
    pool_.release(std::move(n.value));
    pool_.release(std::move(n.grad));
  }
  nodes_.clear();  // keeps capacity; closures destroyed in place
  leaf_cache_.clear();
  grad_sink_ = nullptr;
}

Matrix& Tape::grad_ref(std::size_t i) {
  Node& n = nodes_[i];
  if (n.grad.rows() != n.value.rows() || n.grad.cols() != n.value.cols()) {
    pool_.release(std::move(n.grad));
    n.grad = pool_.acquire(n.value.rows(), n.value.cols());
  }
  return n.grad;
}

void Tape::check_same_tape(Var v) const {
  if (v.tape != this) {
    throw std::logic_error("Var belongs to a different (or null) tape");
  }
  if (v.index >= nodes_.size()) {
    throw std::logic_error("Var index out of range");
  }
}

Var Tape::constant(const Matrix& value) {
  return push(pooled_copy(value), /*requires_grad=*/false);
}

Var Tape::leaf(Parameter& p) {
  for (const auto& [param, idx] : leaf_cache_) {
    if (param == &p) return Var{this, idx};
  }
  Var v = push(pooled_copy(p.value()), /*requires_grad=*/true);
  Node& n = nodes_[v.index];
  n.bound_param = &p;
  const std::size_t idx = v.index;
  n.backward = [idx](Tape& t) {
    Node& self = t.node(idx);
    if (t.grad_sink_ != nullptr) {
      Matrix& g = (*t.grad_sink_)[self.bound_param];
      if (g.empty()) {
        g = Matrix(self.value.rows(), self.value.cols());
      }
      g += t.grad_ref(idx);
    } else {
      self.bound_param->grad() += t.grad_ref(idx);
    }
  };
  leaf_cache_.emplace_back(&p, idx);
  return v;
}

// Each op builds the value into a pooled buffer, pushes the node, then
// installs a backward closure that knows the child's own index — closures
// resolve nodes through the tape at call time, so vector reallocation
// during construction is harmless. (References into nodes_ must not be
// held across push() for the same reason.)
Var Tape::add(Var a, Var b) {
  check_same_tape(a);
  check_same_tape(b);
  const std::size_t ia = a.index, ib = b.index;
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Matrix v = pool_.acquire(nodes_[ia].value.rows(), nodes_[ia].value.cols());
  {
    const Matrix& av = nodes_[ia].value;
    const Matrix& bv = nodes_[ib].value;
    if (!av.same_shape(bv)) throw ShapeError("add: shape mismatch");
    const double* ap = av.data();
    const double* bp = bv.data();
    double* vp = v.data();
    const simd::Kernels& kern = simd::active_kernels();
    par_elems(v.size(), [=, &kern](std::size_t i0, std::size_t i1) {
      kern.add_into(vp + i0, ap + i0, bp + i0, i1 - i0);
    });
  }
  Var out = push(std::move(v), rg);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, ib, io](Tape& t) {
    const Matrix& g = t.grad_ref(io);
    if (t.node(ia).requires_grad) t.grad_ref(ia) += g;
    if (t.node(ib).requires_grad) t.grad_ref(ib) += g;
  };
  return out;
}

Var Tape::sub(Var a, Var b) {
  check_same_tape(a);
  check_same_tape(b);
  const std::size_t ia = a.index, ib = b.index;
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Matrix v = pool_.acquire(nodes_[ia].value.rows(), nodes_[ia].value.cols());
  {
    const Matrix& av = nodes_[ia].value;
    const Matrix& bv = nodes_[ib].value;
    if (!av.same_shape(bv)) throw ShapeError("sub: shape mismatch");
    const double* ap = av.data();
    const double* bp = bv.data();
    double* vp = v.data();
    const simd::Kernels& kern = simd::active_kernels();
    par_elems(v.size(), [=, &kern](std::size_t i0, std::size_t i1) {
      kern.sub_into(vp + i0, ap + i0, bp + i0, i1 - i0);
    });
  }
  Var out = push(std::move(v), rg);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, ib, io](Tape& t) {
    const Matrix& g = t.grad_ref(io);
    if (t.node(ia).requires_grad) t.grad_ref(ia) += g;
    if (t.node(ib).requires_grad) t.grad_ref(ib) -= g;
  };
  return out;
}

Var Tape::mul(Var a, Var b) {
  check_same_tape(a);
  check_same_tape(b);
  const std::size_t ia = a.index, ib = b.index;
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Matrix v = pool_.acquire(nodes_[ia].value.rows(), nodes_[ia].value.cols());
  {
    const Matrix& av = nodes_[ia].value;
    const Matrix& bv = nodes_[ib].value;
    if (!av.same_shape(bv)) throw ShapeError("mul: shape mismatch");
    const double* ap = av.data();
    const double* bp = bv.data();
    double* vp = v.data();
    const simd::Kernels& kern = simd::active_kernels();
    par_elems(v.size(), [=, &kern](std::size_t i0, std::size_t i1) {
      kern.mul_into(vp + i0, ap + i0, bp + i0, i1 - i0);
    });
  }
  Var out = push(std::move(v), rg);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, ib, io](Tape& t) {
    const Matrix& g = t.grad_ref(io);
    const double* gp = g.data();
    const simd::Kernels& kern = simd::active_kernels();
    if (t.node(ia).requires_grad) {
      const double* bp = t.node(ib).value.data();
      double* gap = t.grad_ref(ia).data();
      par_elems(g.size(), [=, &kern](std::size_t i0, std::size_t i1) {
        kern.fmadd(gap + i0, gp + i0, bp + i0, i1 - i0);
      });
    }
    if (t.node(ib).requires_grad) {
      const double* ap = t.node(ia).value.data();
      double* gbp = t.grad_ref(ib).data();
      par_elems(g.size(), [=, &kern](std::size_t i0, std::size_t i1) {
        kern.fmadd(gbp + i0, gp + i0, ap + i0, i1 - i0);
      });
    }
  };
  return out;
}

Var Tape::scale(Var a, double s) {
  check_same_tape(a);
  const std::size_t ia = a.index;
  Matrix v = pool_.acquire(nodes_[ia].value.rows(), nodes_[ia].value.cols());
  {
    const double* ap = nodes_[ia].value.data();
    double* vp = v.data();
    par_elems(v.size(), [=](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) vp[i] = ap[i] * s;
    });
  }
  Var out = push(std::move(v), nodes_[ia].requires_grad);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, io, s](Tape& t) {
    if (!t.node(ia).requires_grad) return;
    const double* gp = t.grad_ref(io).data();
    Matrix& ga = t.grad_ref(ia);
    double* gap = ga.data();
    const simd::Kernels& kern = simd::active_kernels();
    par_elems(ga.size(), [=, &kern](std::size_t i0, std::size_t i1) {
      kern.axpy(gap + i0, s, gp + i0, i1 - i0);
    });
  };
  return out;
}

Var Tape::add_scalar(Var a, double s) {
  check_same_tape(a);
  const std::size_t ia = a.index;
  Matrix v = pool_.acquire(nodes_[ia].value.rows(), nodes_[ia].value.cols());
  {
    const double* ap = nodes_[ia].value.data();
    double* vp = v.data();
    par_elems(v.size(), [=](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) vp[i] = ap[i] + s;
    });
  }
  Var out = push(std::move(v), nodes_[ia].requires_grad);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, io](Tape& t) {
    if (t.node(ia).requires_grad) t.grad_ref(ia) += t.grad_ref(io);
  };
  return out;
}

Var Tape::hadamard_const(Var a, const Matrix& m) {
  // The mask becomes a constant node: its buffer is pooled and its value is
  // read through the tape in backward, so the closure captures no Matrix.
  return mul(a, constant(m));
}

Var Tape::matmul(Var a, Var b) {
  check_same_tape(a);
  check_same_tape(b);
  const std::size_t ia = a.index, ib = b.index;
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Matrix v =
      pool_.acquire(nodes_[ia].value.rows(), nodes_[ib].value.cols());
  matmul_accumulate(nodes_[ia].value, nodes_[ib].value, v);
  Var out = push(std::move(v), rg);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, ib, io](Tape& t) {
    const Matrix& g = t.grad_ref(io);
    // dL/dA = g * B^T ; dL/dB = A^T * g. Pooled temp, then add — bitwise
    // equal to the allocate-then-add the op always did.
    if (t.node(ia).requires_grad) {
      const Matrix& av = t.node(ia).value;
      Matrix tmp = t.pool_.acquire(av.rows(), av.cols());
      matmul_bt_into(g, t.node(ib).value, tmp);
      t.grad_ref(ia) += tmp;
      t.pool_.release(std::move(tmp));
    }
    if (t.node(ib).requires_grad) {
      const Matrix& bv = t.node(ib).value;
      Matrix tmp = t.pool_.acquire(bv.rows(), bv.cols());
      matmul_at_accumulate(t.node(ia).value, g, tmp);
      t.grad_ref(ib) += tmp;
      t.pool_.release(std::move(tmp));
    }
  };
  return out;
}

Var Tape::spmm(const CsrMatrix& a, Var b) {
  check_same_tape(b);
  const std::size_t ib = b.index;
  Matrix v = pool_.acquire(a.rows(), nodes_[ib].value.cols());
  spmm_accumulate(a, nodes_[ib].value, v);
  Var out = push(std::move(v), nodes_[ib].requires_grad);
  const std::size_t io = out.index;
  // The Laplacian is a model-lifetime constant, so the closure stores only a
  // pointer; dL/dB = Aᵀ·g. Pooled temp, then add (not accumulate-in-place)
  // keeps the gradient bitwise equal to the dense matmul path's update.
  const CsrMatrix* ap = &a;
  nodes_[io].backward = [ib, io, ap](Tape& t) {
    if (!t.node(ib).requires_grad) return;
    const Matrix& bv = t.node(ib).value;
    Matrix tmp = t.pool_.acquire(bv.rows(), bv.cols());
    spmm_t_accumulate(*ap, t.grad_ref(io), tmp);
    t.grad_ref(ib) += tmp;
    t.pool_.release(std::move(tmp));
  };
  return out;
}

Var Tape::mul_col_broadcast(Var a, Var col) {
  check_same_tape(a);
  check_same_tape(col);
  const std::size_t ia = a.index, ic = col.index;
  const bool rg = nodes_[ia].requires_grad || nodes_[ic].requires_grad;
  Matrix v = pool_.acquire(nodes_[ia].value.rows(), nodes_[ia].value.cols());
  {
    const Matrix& x = nodes_[ia].value;
    const Matrix& c = nodes_[ic].value;
    if (c.cols() != 1 || c.rows() != x.rows()) {
      throw ShapeError("mul_col_broadcast: col must be rows x 1");
    }
    par_rows(v.rows(), v.cols(), [&v, &x, &c](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t cc = 0; cc < v.cols(); ++cc) {
          v(r, cc) = x(r, cc) * c(r, 0);
        }
      }
    });
  }
  Var out = push(std::move(v), rg);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, ic, io](Tape& t) {
    const Matrix& g = t.grad_ref(io);
    const Matrix& x2 = t.node(ia).value;
    const Matrix& c2 = t.node(ic).value;
    if (t.node(ia).requires_grad) {
      Matrix& ga = t.grad_ref(ia);
      par_rows(g.rows(), g.cols(), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          for (std::size_t cc = 0; cc < g.cols(); ++cc) {
            ga(r, cc) += g(r, cc) * c2(r, 0);
          }
        }
      });
    }
    if (t.node(ic).requires_grad) {
      Matrix& gc = t.grad_ref(ic);
      // Each output row reduces its own columns serially (ascending cc), so
      // the per-row sum is order-stable regardless of the row partition.
      par_rows(g.rows(), g.cols(), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          double s = 0.0;
          for (std::size_t cc = 0; cc < g.cols(); ++cc) {
            s += g(r, cc) * x2(r, cc);
          }
          gc(r, 0) += s;
        }
      });
    }
  };
  return out;
}

Var Tape::add_row_broadcast(Var a, Var bias_row) {
  check_same_tape(a);
  check_same_tape(bias_row);
  const std::size_t ia = a.index, ib = bias_row.index;
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Matrix v = pool_.acquire(nodes_[ia].value.rows(), nodes_[ia].value.cols());
  {
    const Matrix& x = nodes_[ia].value;
    const Matrix& row = nodes_[ib].value;
    if (row.rows() != 1 || row.cols() != x.cols()) {
      throw ShapeError("add_row_broadcast: bias must be 1 x cols");
    }
    par_rows(v.rows(), v.cols(), [&v, &x, &row](std::size_t r0,
                                                std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = 0; c < v.cols(); ++c) {
          v(r, c) = x(r, c) + row(0, c);
        }
      }
    });
  }
  Var out = push(std::move(v), rg);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, ib, io](Tape& t) {
    const Matrix& g = t.grad_ref(io);
    if (t.node(ia).requires_grad) t.grad_ref(ia) += g;
    if (t.node(ib).requires_grad) {
      Matrix& gb = t.grad_ref(ib);
      for (std::size_t r = 0; r < g.rows(); ++r) {
        for (std::size_t c = 0; c < g.cols(); ++c) gb(0, c) += g(r, c);
      }
    }
  };
  return out;
}

Var Tape::sigmoid(Var a) {
  check_same_tape(a);
  const std::size_t ia = a.index;
  Matrix v = pool_.acquire(nodes_[ia].value.rows(), nodes_[ia].value.cols());
  {
    const double* ap = nodes_[ia].value.data();
    double* vp = v.data();
    par_elems(v.size(), [=](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) vp[i] = stable_sigmoid(ap[i]);
    });
  }
  Var out = push(std::move(v), nodes_[ia].requires_grad);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, io](Tape& t) {
    if (!t.node(ia).requires_grad) return;
    const Matrix& y = t.node(io).value;
    const Matrix& g = t.grad_ref(io);
    Matrix& ga = t.grad_ref(ia);
    const double* yp = y.data();
    const double* gp = g.data();
    double* gap = ga.data();
    par_elems(y.size(), [yp, gp, gap](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        gap[i] += gp[i] * yp[i] * (1.0 - yp[i]);
      }
    });
  };
  return out;
}

Var Tape::tanh(Var a) {
  check_same_tape(a);
  const std::size_t ia = a.index;
  Matrix v = pool_.acquire(nodes_[ia].value.rows(), nodes_[ia].value.cols());
  {
    const double* ap = nodes_[ia].value.data();
    double* vp = v.data();
    par_elems(v.size(), [=](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) vp[i] = std::tanh(ap[i]);
    });
  }
  Var out = push(std::move(v), nodes_[ia].requires_grad);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, io](Tape& t) {
    if (!t.node(ia).requires_grad) return;
    const Matrix& y = t.node(io).value;
    const Matrix& g = t.grad_ref(io);
    Matrix& ga = t.grad_ref(ia);
    const double* yp = y.data();
    const double* gp = g.data();
    double* gap = ga.data();
    par_elems(y.size(), [yp, gp, gap](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        gap[i] += gp[i] * (1.0 - yp[i] * yp[i]);
      }
    });
  };
  return out;
}

Var Tape::relu(Var a) {
  check_same_tape(a);
  const std::size_t ia = a.index;
  Matrix v = pool_.acquire(nodes_[ia].value.rows(), nodes_[ia].value.cols());
  {
    const double* ap = nodes_[ia].value.data();
    double* vp = v.data();
    par_elems(v.size(), [=](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        vp[i] = ap[i] > 0.0 ? ap[i] : 0.0;
      }
    });
  }
  Var out = push(std::move(v), nodes_[ia].requires_grad);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, io](Tape& t) {
    if (!t.node(ia).requires_grad) return;
    const Matrix& x = t.node(ia).value;
    const Matrix& g = t.grad_ref(io);
    Matrix& ga = t.grad_ref(ia);
    const double* xp = x.data();
    const double* gp = g.data();
    double* gap = ga.data();
    par_elems(x.size(), [xp, gp, gap](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        if (xp[i] > 0.0) gap[i] += gp[i];
      }
    });
  };
  return out;
}

Var Tape::softmax_rows(Var a) {
  check_same_tape(a);
  const std::size_t ia = a.index;
  Matrix y = pool_.acquire(nodes_[ia].value.rows(), nodes_[ia].value.cols());
  {
    const Matrix& x = nodes_[ia].value;
    // Row-parallel: each row's max/denom reduction stays serial within one
    // chunk, so the result is identical for any thread count.
    par_rows(x.rows(), x.cols(), [&x, &y](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        double mx = -1e300;
        for (std::size_t c = 0; c < x.cols(); ++c) mx = std::max(mx, x(r, c));
        double denom = 0.0;
        for (std::size_t c = 0; c < x.cols(); ++c) {
          y(r, c) = std::exp(x(r, c) - mx);
          denom += y(r, c);
        }
        for (std::size_t c = 0; c < x.cols(); ++c) y(r, c) /= denom;
      }
    });
  }
  Var out = push(std::move(y), nodes_[ia].requires_grad);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, io](Tape& t) {
    if (!t.node(ia).requires_grad) return;
    const Matrix& y2 = t.node(io).value;
    const Matrix& g = t.grad_ref(io);
    Matrix& ga = t.grad_ref(ia);
    // Per row: dx = y ⊙ (g - <g, y>)
    par_rows(y2.rows(), y2.cols(), [&](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        double dot = 0.0;
        for (std::size_t c = 0; c < y2.cols(); ++c) dot += g(r, c) * y2(r, c);
        for (std::size_t c = 0; c < y2.cols(); ++c) {
          ga(r, c) += y2(r, c) * (g(r, c) - dot);
        }
      }
    });
  };
  return out;
}

Var Tape::concat_cols(Var a, Var b) {
  check_same_tape(a);
  check_same_tape(b);
  const std::size_t ia = a.index, ib = b.index;
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  const std::size_t ca = nodes_[ia].value.cols();
  Matrix v = pool_.acquire(nodes_[ia].value.rows(),
                           ca + nodes_[ib].value.cols());
  {
    const Matrix& av = nodes_[ia].value;
    const Matrix& bv = nodes_[ib].value;
    if (av.rows() != bv.rows()) throw ShapeError("concat_cols: row mismatch");
    for (std::size_t r = 0; r < av.rows(); ++r) {
      for (std::size_t c = 0; c < ca; ++c) v(r, c) = av(r, c);
      for (std::size_t c = 0; c < bv.cols(); ++c) v(r, ca + c) = bv(r, c);
    }
  }
  Var out = push(std::move(v), rg);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, ib, io, ca](Tape& t) {
    const Matrix& g = t.grad_ref(io);
    if (t.node(ia).requires_grad) {
      Matrix& ga = t.grad_ref(ia);
      for (std::size_t r = 0; r < ga.rows(); ++r) {
        for (std::size_t c = 0; c < ga.cols(); ++c) ga(r, c) += g(r, c);
      }
    }
    if (t.node(ib).requires_grad) {
      Matrix& gb = t.grad_ref(ib);
      for (std::size_t r = 0; r < gb.rows(); ++r) {
        for (std::size_t c = 0; c < gb.cols(); ++c) gb(r, c) += g(r, ca + c);
      }
    }
  };
  return out;
}

Var Tape::concat_cols_many(const std::vector<Var>& vars) {
  if (vars.empty()) throw std::invalid_argument("concat_cols_many: empty");
  if (vars.size() == 1) return vars.front();
  std::vector<std::size_t> idx;
  idx.reserve(vars.size());
  std::size_t total_cols = 0;
  bool rg = false;
  for (Var v : vars) {
    check_same_tape(v);
    if (nodes_[v.index].value.rows() != nodes_[vars.front().index].value.rows()) {
      throw ShapeError("concat_cols_many: row mismatch");
    }
    total_cols += nodes_[v.index].value.cols();
    rg = rg || nodes_[v.index].requires_grad;
    idx.push_back(v.index);
  }
  Matrix v = pool_.acquire(nodes_[idx.front()].value.rows(), total_cols);
  {
    std::size_t off = 0;
    for (const std::size_t i : idx) {
      const Matrix& src = nodes_[i].value;
      for (std::size_t r = 0; r < src.rows(); ++r) {
        for (std::size_t c = 0; c < src.cols(); ++c) {
          v(r, off + c) = src(r, c);
        }
      }
      off += src.cols();
    }
  }
  Var out = push(std::move(v), rg);
  const std::size_t io = out.index;
  // One n-ary backward: each input's grad is the exact block copy of the
  // output grad at its column offset, same bits as a binary-concat chain
  // but one node and one pass instead of k-1 of each.
  nodes_[io].backward = [idx = std::move(idx), io](Tape& t) {
    const Matrix& g = t.grad_ref(io);
    std::size_t off = 0;
    for (const std::size_t i : idx) {
      const std::size_t cols = t.node(i).value.cols();
      if (t.node(i).requires_grad) {
        Matrix& gi = t.grad_ref(i);
        for (std::size_t r = 0; r < gi.rows(); ++r) {
          for (std::size_t c = 0; c < cols; ++c) gi(r, c) += g(r, off + c);
        }
      }
      off += cols;
    }
  };
  return out;
}

Var Tape::slice_cols(Var a, std::size_t c0, std::size_t c1) {
  check_same_tape(a);
  const std::size_t ia = a.index;
  if (c1 > nodes_[ia].value.cols() || c0 > c1) {
    throw ShapeError("slice_cols: bad column range");
  }
  Matrix v = pool_.acquire(nodes_[ia].value.rows(), c1 - c0);
  {
    const Matrix& av = nodes_[ia].value;
    for (std::size_t r = 0; r < av.rows(); ++r) {
      for (std::size_t c = c0; c < c1; ++c) v(r, c - c0) = av(r, c);
    }
  }
  Var out = push(std::move(v), nodes_[ia].requires_grad);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, io, c0](Tape& t) {
    if (!t.node(ia).requires_grad) return;
    const Matrix& g = t.grad_ref(io);
    Matrix& ga = t.grad_ref(ia);
    for (std::size_t r = 0; r < g.rows(); ++r) {
      for (std::size_t c = 0; c < g.cols(); ++c) ga(r, c0 + c) += g(r, c);
    }
  };
  return out;
}

Var Tape::transpose(Var a) {
  check_same_tape(a);
  const std::size_t ia = a.index;
  Matrix v = pool_.acquire(nodes_[ia].value.cols(), nodes_[ia].value.rows());
  {
    const Matrix& av = nodes_[ia].value;
    for (std::size_t r = 0; r < av.rows(); ++r) {
      for (std::size_t c = 0; c < av.cols(); ++c) v(c, r) = av(r, c);
    }
  }
  Var out = push(std::move(v), nodes_[ia].requires_grad);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, io](Tape& t) {
    if (!t.node(ia).requires_grad) return;
    const Matrix& g = t.grad_ref(io);
    Matrix& ga = t.grad_ref(ia);
    for (std::size_t r = 0; r < ga.rows(); ++r) {
      for (std::size_t c = 0; c < ga.cols(); ++c) ga(r, c) += g(c, r);
    }
  };
  return out;
}

Var Tape::mean_all(Var a) {
  check_same_tape(a);
  const std::size_t ia = a.index;
  const double n = static_cast<double>(nodes_[ia].value.size());
  Matrix v = pool_.acquire(1, 1);
  v(0, 0) = nodes_[ia].value.sum() / n;
  Var out = push(std::move(v), nodes_[ia].requires_grad);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, io, n](Tape& t) {
    if (!t.node(ia).requires_grad) return;
    const double g = t.grad_ref(io)(0, 0) / n;
    Matrix& ga = t.grad_ref(ia);
    double* gap = ga.data();
    par_elems(ga.size(), [gap, g](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) gap[i] += g;
    });
  };
  return out;
}

Var Tape::masked_mae(Var a, const Matrix& target, const Matrix& w) {
  check_same_tape(a);
  const std::size_t ia = a.index;
  double loss = 0.0;
  double count = 1.0;
  {
    const Matrix& x = nodes_[ia].value;
    if (!x.same_shape(target) || !x.same_shape(w)) {
      throw ShapeError("masked_mae: shape mismatch");
    }
    count = std::max(1.0, w.sum());
    for (std::size_t i = 0; i < x.size(); ++i) {
      loss += w.data()[i] * std::abs(x.data()[i] - target.data()[i]);
    }
  }
  // target/w become constant nodes: pooled buffers read through the tape in
  // backward instead of per-call Matrix copies captured in the closure.
  const std::size_t itgt = constant(target).index;
  const std::size_t iwt = constant(w).index;
  Matrix v = pool_.acquire(1, 1);
  v(0, 0) = loss / count;
  Var out = push(std::move(v), nodes_[ia].requires_grad);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, io, itgt, iwt, count](Tape& t) {
    if (!t.node(ia).requires_grad) return;
    const double g = t.grad_ref(io)(0, 0) / count;
    const Matrix& x2 = t.node(ia).value;
    Matrix& ga = t.grad_ref(ia);
    const double* xp = x2.data();
    const double* tp = t.node(itgt).value.data();
    const double* wp = t.node(iwt).value.data();
    double* gap = ga.data();
    par_elems(x2.size(), [=](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double d = xp[i] - tp[i];
        // Subgradient 0 at d == 0.
        const double sgn = d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0);
        gap[i] += g * wp[i] * sgn;
      }
    });
  };
  return out;
}

Var Tape::weighted_l1_between(Var a, Var b, const Matrix& w) {
  check_same_tape(a);
  check_same_tape(b);
  const std::size_t ia = a.index, ib = b.index;
  double loss = 0.0;
  double count = 1.0;
  bool rg = false;
  {
    const Matrix& xa = nodes_[ia].value;
    const Matrix& xb = nodes_[ib].value;
    if (!xa.same_shape(xb) || !xa.same_shape(w)) {
      throw ShapeError("weighted_l1_between: shape mismatch");
    }
    count = std::max(1.0, w.sum());
    for (std::size_t i = 0; i < xa.size(); ++i) {
      loss += w.data()[i] * std::abs(xa.data()[i] - xb.data()[i]);
    }
    rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  }
  const std::size_t iwt = constant(w).index;
  Matrix v = pool_.acquire(1, 1);
  v(0, 0) = loss / count;
  Var out = push(std::move(v), rg);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, ib, io, iwt, count](Tape& t) {
    const double g = t.grad_ref(io)(0, 0) / count;
    const Matrix& x2 = t.node(ia).value;
    const Matrix& y2 = t.node(ib).value;
    const bool need_a = t.node(ia).requires_grad;
    const bool need_b = t.node(ib).requires_grad;
    if (!need_a && !need_b) return;
    Matrix* ga = need_a ? &t.grad_ref(ia) : nullptr;
    Matrix* gb = need_b ? &t.grad_ref(ib) : nullptr;
    const double* xp = x2.data();
    const double* yp = y2.data();
    const double* wp = t.node(iwt).value.data();
    double* gap = ga ? ga->data() : nullptr;
    double* gbp = gb ? gb->data() : nullptr;
    par_elems(x2.size(), [=](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double d = xp[i] - yp[i];
        const double sgn = d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0);
        const double gi = g * wp[i] * sgn;
        if (gap) gap[i] += gi;
        if (gbp) gbp[i] -= gi;
      }
    });
  };
  return out;
}

Var Tape::affine_combine(Var a, double c0, Var b, double c1) {
  check_same_tape(a);
  check_same_tape(b);
  if (nodes_[a.index].value.size() != 1 || nodes_[b.index].value.size() != 1) {
    throw ShapeError("affine_combine expects scalar (1x1) vars");
  }
  const std::size_t ia = a.index, ib = b.index;
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Matrix v = pool_.acquire(1, 1);
  v(0, 0) = c0 * nodes_[ia].value(0, 0) + c1 * nodes_[ib].value(0, 0);
  Var out = push(std::move(v), rg);
  const std::size_t io = out.index;
  nodes_[io].backward = [ia, ib, io, c0, c1](Tape& t) {
    const double g = t.grad_ref(io)(0, 0);
    if (t.node(ia).requires_grad) t.grad_ref(ia)(0, 0) += c0 * g;
    if (t.node(ib).requires_grad) t.grad_ref(ib)(0, 0) += c1 * g;
  };
  return out;
}

// ---- Fused recurrent cells --------------------------------------------------
//
// Parity discipline (held at tol = 0 by tests/test_tape_arena.cpp): every
// arithmetic expression below reproduces the unfused op chain's rounding
// points — each intermediate that the unfused chain stores in a node is a
// separate local here — and every gradient accumulator receives its
// contributions in the same order the unfused reverse sweep produces them.
// Contributions to *different* accumulators may interleave freely.

Tape::LstmState Tape::lstm_cell(Var x, Var h_prev, Var c_prev, Var w_ih,
                                Var w_hh, Var bias) {
  check_same_tape(x);
  check_same_tape(h_prev);
  check_same_tape(c_prev);
  check_same_tape(w_ih);
  check_same_tape(w_hh);
  check_same_tape(bias);
  const std::size_t ix = x.index, ihp = h_prev.index, icp = c_prev.index;
  const std::size_t iwih = w_ih.index, iwhh = w_hh.index, ib = bias.index;
  const std::size_t n = nodes_[ix].value.rows();
  const std::size_t hd = nodes_[iwhh].value.rows();
  const std::size_t g4 = 4 * hd;
  // Node layout: [i | f | o | g | tanh(c')] — the fifth block keeps the
  // output activation for the H backward, the way gru_cell keeps h·U_n.
  const std::size_t g5 = 5 * hd;
  {
    const Matrix& xv = nodes_[ix].value;
    const Matrix& hv = nodes_[ihp].value;
    const Matrix& cv = nodes_[icp].value;
    const Matrix& wi = nodes_[iwih].value;
    const Matrix& wh = nodes_[iwhh].value;
    const Matrix& bv = nodes_[ib].value;
    if (wi.rows() != xv.cols() || wi.cols() != g4 || wh.cols() != g4 ||
        hv.rows() != n || hv.cols() != hd || cv.rows() != n ||
        cv.cols() != hd || bv.rows() != 1 || bv.cols() != g4) {
      throw ShapeError("lstm_cell: shape mismatch");
    }
  }
  const bool rg = nodes_[ix].requires_grad || nodes_[ihp].requires_grad ||
                  nodes_[icp].requires_grad || nodes_[iwih].requires_grad ||
                  nodes_[iwhh].requires_grad || nodes_[ib].requires_grad;

  // Gate blocks 0–3: activated [i | f | o | g]. Pre-activations keep the
  // unfused chain's rounding points: (x·W_ih + h·W_hh) rounded, then + bias.
  Matrix gates = pool_.acquire(n, g5);
  {
    Matrix mm1 = pool_.acquire(n, g4);
    matmul_accumulate(nodes_[ix].value, nodes_[iwih].value, mm1);
    Matrix mm2 = pool_.acquire(n, g4);
    matmul_accumulate(nodes_[ihp].value, nodes_[iwhh].value, mm2);
    const double* p1 = mm1.data();
    const double* p2 = mm2.data();
    const double* bp = nodes_[ib].value.data();
    double* gp = gates.data();
    const std::size_t h3 = 3 * hd;
    par_rows(n, g4, [=](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t b4 = r * g4;
        const std::size_t b5 = r * g5;
        for (std::size_t c = 0; c < g4; ++c) {
          const double s = p1[b4 + c] + p2[b4 + c];
          const double pre = s + bp[c];
          gp[b5 + c] = c < h3 ? stable_sigmoid(pre) : std::tanh(pre);
        }
      }
    });
    pool_.release(std::move(mm1));
    pool_.release(std::move(mm2));
  }
  Var gate_var = push(std::move(gates), rg);
  const std::size_t ig = gate_var.index;

  // c' = f ⊙ c + i ⊙ g, both products rounded separately like the unfused
  // mul/mul/add chain.
  Matrix cnew = pool_.acquire(n, hd);
  {
    const double* gp = nodes_[ig].value.data();
    const double* cp = nodes_[icp].value.data();
    double* op = cnew.data();
    const simd::Kernels& kern = simd::active_kernels();
    par_rows(n, hd, [=, &kern](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t b5 = r * g5;
        const std::size_t bh = r * hd;
        // f ⊙ c_prev + i ⊙ g with both products rounded separately, as the
        // unfused mul/mul/add chain does.
        kern.mul2_add(op + bh, gp + b5 + hd, cp + bh, gp + b5,
                      gp + b5 + 3 * hd, hd);
      }
    });
  }
  Var c_var = push(std::move(cnew), rg);
  const std::size_t ic = c_var.index;

  // h' = o ⊙ tanh(c'), with tanh(c') stored in the gate node's fifth block.
  Matrix hnew = pool_.acquire(n, hd);
  {
    double* gp = nodes_[ig].value.data();
    const double* cp = nodes_[ic].value.data();
    double* op = hnew.data();
    par_rows(n, hd, [=](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t b5 = r * g5;
        const std::size_t bh = r * hd;
        for (std::size_t c = 0; c < hd; ++c) {
          const double tc = std::tanh(cp[bh + c]);
          gp[b5 + 4 * hd + c] = tc;
          op[bh + c] = gp[b5 + 2 * hd + c] * tc;
        }
      }
    });
  }
  Var h_var = push(std::move(hnew), rg);
  const std::size_t ih = h_var.index;

  // H backward: dG_o += gh ⊙ tanh(c');  dC += (gh ⊙ o) ⊙ (1 − tanh²(c')).
  nodes_[ih].backward = [ig, ic, ih, hd, g5](Tape& t) {
    const Matrix& gh = t.grad_ref(ih);
    const double* ghp = gh.data();
    const double* gvp = t.node(ig).value.data();
    double* dgp = t.grad_ref(ig).data();
    double* dcp = t.grad_ref(ic).data();
    par_rows(gh.rows(), hd, [=](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t b5 = r * g5;
        const std::size_t bh = r * hd;
        for (std::size_t c = 0; c < hd; ++c) {
          const double tc = gvp[b5 + 4 * hd + c];
          dgp[b5 + 2 * hd + c] += ghp[bh + c] * tc;
          dcp[bh + c] +=
              ghp[bh + c] * gvp[b5 + 2 * hd + c] * (1.0 - tc * tc);
        }
      }
    });
  };

  // C backward: the add's grad flows into both product rules.
  nodes_[ic].backward = [ig, icp, ic, hd, g5](Tape& t) {
    const Matrix& gc = t.grad_ref(ic);
    const double* gcp = gc.data();
    const double* gvp = t.node(ig).value.data();
    const double* cpp = t.node(icp).value.data();
    double* dgp = t.grad_ref(ig).data();
    const bool need_cp = t.node(icp).requires_grad;
    double* dcp = need_cp ? t.grad_ref(icp).data() : nullptr;
    const simd::Kernels& kern = simd::active_kernels();
    par_rows(gc.rows(), hd, [=, &kern](std::size_t r0, std::size_t r1) {
      // Each target below is a distinct accumulator, so splitting the
      // per-element loop into per-segment fmadd sweeps keeps every
      // accumulator's contribution order unchanged.
      for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t b5 = r * g5;
        const std::size_t bh = r * hd;
        kern.fmadd(dgp + b5, gcp + bh, gvp + b5 + 3 * hd, hd);  // di += g⊙g_gate
        kern.fmadd(dgp + b5 + 3 * hd, gcp + bh, gvp + b5, hd);  // dg += g⊙i
        kern.fmadd(dgp + b5 + hd, gcp + bh, cpp + bh, hd);      // df += g⊙c_prev
        if (dcp != nullptr) {
          kern.fmadd(dcp + bh, gcp + bh, gvp + b5 + hd, hd);    // dc_prev += g⊙f
        }
      }
    });
  };

  // G backward: activation derivatives → bias → the two matmul backwards
  // (h_prev/W_hh first, then x/W_ih — reverse creation order of the chain).
  nodes_[ig].backward = [ix, ihp, iwih, iwhh, ib, ig, hd, g4, g5](Tape& t) {
    const Matrix& gG = t.grad_ref(ig);
    const std::size_t n2 = gG.rows();
    Matrix dpre = t.pool_.acquire(n2, g4);
    {
      const double* gp = gG.data();
      const double* yp = t.node(ig).value.data();
      double* dp = dpre.data();
      const std::size_t h3 = 3 * hd;
      par_rows(n2, g4, [=](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const std::size_t b4 = r * g4;
          const std::size_t b5 = r * g5;
          for (std::size_t c = 0; c < g4; ++c) {
            const double g = gp[b5 + c];
            const double y = yp[b5 + c];
            dp[b4 + c] = c < h3 ? g * y * (1.0 - y) : g * (1.0 - y * y);
          }
        }
      });
    }
    if (t.node(ib).requires_grad) {
      // The unfused chain broadcasts the (un-sliced) bias leaf, so its grad
      // accumulates directly, rows ascending, across all 4H columns.
      Matrix& gb = t.grad_ref(ib);
      const double* dp = dpre.data();
      double* gbp = gb.data();
      for (std::size_t r = 0; r < n2; ++r) {
        const std::size_t b4 = r * g4;
        for (std::size_t c = 0; c < g4; ++c) gbp[c] += dp[b4 + c];
      }
    }
    if (t.node(ihp).requires_grad) {
      Matrix tmp = t.pool_.acquire(n2, hd);
      matmul_bt_into(dpre, t.node(iwhh).value, tmp);
      t.grad_ref(ihp) += tmp;
      t.pool_.release(std::move(tmp));
    }
    if (t.node(iwhh).requires_grad) {
      const Matrix& wv = t.node(iwhh).value;
      Matrix tmp = t.pool_.acquire(wv.rows(), wv.cols());
      matmul_at_accumulate(t.node(ihp).value, dpre, tmp);
      t.grad_ref(iwhh) += tmp;
      t.pool_.release(std::move(tmp));
    }
    if (t.node(ix).requires_grad) {
      const Matrix& xv = t.node(ix).value;
      Matrix tmp = t.pool_.acquire(xv.rows(), xv.cols());
      matmul_bt_into(dpre, t.node(iwih).value, tmp);
      t.grad_ref(ix) += tmp;
      t.pool_.release(std::move(tmp));
    }
    if (t.node(iwih).requires_grad) {
      const Matrix& wv = t.node(iwih).value;
      Matrix tmp = t.pool_.acquire(wv.rows(), wv.cols());
      matmul_at_accumulate(t.node(ix).value, dpre, tmp);
      t.grad_ref(iwih) += tmp;
      t.pool_.release(std::move(tmp));
    }
    t.pool_.release(std::move(dpre));
  };

  return LstmState{h_var, c_var};
}

Var Tape::gru_cell(Var x, Var h_prev, Var w_ih, Var w_hh, Var bias) {
  check_same_tape(x);
  check_same_tape(h_prev);
  check_same_tape(w_ih);
  check_same_tape(w_hh);
  check_same_tape(bias);
  const std::size_t ix = x.index, ihp = h_prev.index;
  const std::size_t iwih = w_ih.index, iwhh = w_hh.index, ib = bias.index;
  const std::size_t n = nodes_[ix].value.rows();
  const std::size_t hd = nodes_[iwhh].value.rows();
  const std::size_t g3 = 3 * hd;
  // Node layout: [r | z | n | h·U_n] — the candidate's recurrent term is
  // stashed in the fourth block so backward needs no captured Matrix.
  const std::size_t g4 = 4 * hd;
  {
    const Matrix& xv = nodes_[ix].value;
    const Matrix& hv = nodes_[ihp].value;
    const Matrix& wi = nodes_[iwih].value;
    const Matrix& wh = nodes_[iwhh].value;
    const Matrix& bv = nodes_[ib].value;
    if (wi.rows() != xv.cols() || wi.cols() != g3 || wh.cols() != g3 ||
        hv.rows() != n || hv.cols() != hd || bv.rows() != 1 ||
        bv.cols() != g3) {
      throw ShapeError("gru_cell: shape mismatch");
    }
  }
  const bool rg = nodes_[ix].requires_grad || nodes_[ihp].requires_grad ||
                  nodes_[iwih].requires_grad || nodes_[iwhh].requires_grad ||
                  nodes_[ib].requires_grad;

  Matrix gnode = pool_.acquire(n, g4);
  {
    Matrix xi = pool_.acquire(n, g3);
    matmul_accumulate(nodes_[ix].value, nodes_[iwih].value, xi);
    Matrix hh = pool_.acquire(n, g3);
    matmul_accumulate(nodes_[ihp].value, nodes_[iwhh].value, hh);
    const double* xip = xi.data();
    const double* hhp = hh.data();
    const double* bp = nodes_[ib].value.data();
    double* gp = gnode.data();
    par_rows(n, g4, [=](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t b3 = r * g3;
        const std::size_t b4 = r * g4;
        for (std::size_t c = 0; c < hd; ++c) {
          const double sr = xip[b3 + c] + hhp[b3 + c];
          gp[b4 + c] = stable_sigmoid(sr + bp[c]);
          const double sz = xip[b3 + hd + c] + hhp[b3 + hd + c];
          gp[b4 + hd + c] = stable_sigmoid(sz + bp[hd + c]);
        }
        for (std::size_t c = 0; c < hd; ++c) {
          // n = tanh((x·W_n + r ⊙ (h·U_n)) + b_n) with the activated r.
          const double rn = gp[b4 + c] * hhp[b3 + 2 * hd + c];
          const double sn = xip[b3 + 2 * hd + c] + rn;
          gp[b4 + 2 * hd + c] = std::tanh(sn + bp[2 * hd + c]);
          gp[b4 + 3 * hd + c] = hhp[b3 + 2 * hd + c];
        }
      }
    });
    pool_.release(std::move(xi));
    pool_.release(std::move(hh));
  }
  Var gate_var = push(std::move(gnode), rg);
  const std::size_t ig = gate_var.index;

  // h' = (n − z ⊙ n) + z ⊙ h_prev, intermediates rounded like the unfused
  // zn/sub/zh/add chain.
  Matrix hnew = pool_.acquire(n, hd);
  {
    const double* gp = nodes_[ig].value.data();
    const double* hpp = nodes_[ihp].value.data();
    double* op = hnew.data();
    par_rows(n, hd, [=](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t b4 = r * g4;
        const std::size_t bh = r * hd;
        for (std::size_t c = 0; c < hd; ++c) {
          const double zv = gp[b4 + hd + c];
          const double nv = gp[b4 + 2 * hd + c];
          const double zn = zv * nv;
          const double a1 = nv - zn;
          const double zh = zv * hpp[bh + c];
          op[bh + c] = a1 + zh;
        }
      }
    });
  }
  Var h_var = push(std::move(hnew), rg);
  const std::size_t ih = h_var.index;

  // H backward, contribution order per accumulator matching the unfused
  // sweep (h-add → zh-mul → sub → zn-mul):
  //   dz: + gh ⊙ h_prev, then + (−gh) ⊙ n
  //   dn: + gh,          then + (−gh) ⊙ z
  nodes_[ih].backward = [ig, ihp, ih, hd, g4](Tape& t) {
    const Matrix& gh = t.grad_ref(ih);
    const double* ghp = gh.data();
    const double* gvp = t.node(ig).value.data();
    const double* hpp = t.node(ihp).value.data();
    double* dgp = t.grad_ref(ig).data();
    const bool need_hp = t.node(ihp).requires_grad;
    double* dhp = need_hp ? t.grad_ref(ihp).data() : nullptr;
    par_rows(gh.rows(), hd, [=](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t b4 = r * g4;
        const std::size_t bh = r * hd;
        for (std::size_t c = 0; c < hd; ++c) {
          const double g = ghp[bh + c];
          const double zv = gvp[b4 + hd + c];
          const double nv = gvp[b4 + 2 * hd + c];
          dgp[b4 + hd + c] += g * hpp[bh + c];
          if (dhp != nullptr) dhp[bh + c] += g * zv;
          const double gzn = 0.0 - g;
          dgp[b4 + 2 * hd + c] += g;
          dgp[b4 + hd + c] += gzn * nv;
          dgp[b4 + 2 * hd + c] += gzn * zv;
        }
      }
    });
  };

  // G backward: tanh/σ derivatives and the r ⊙ (h·U_n) product rule, then
  // bias (per-block column sums, matching the sliced-bias chain), then the
  // h·W_hh and x·W_ih matmul backwards.
  nodes_[ig].backward = [ix, ihp, iwih, iwhh, ib, ig, hd, g3, g4](Tape& t) {
    const Matrix& gG = t.grad_ref(ig);
    const std::size_t n2 = gG.rows();
    Matrix dxi = t.pool_.acquire(n2, g3);
    Matrix dhh = t.pool_.acquire(n2, g3);
    {
      const double* gp = gG.data();
      const double* yp = t.node(ig).value.data();
      double* xp = dxi.data();
      double* hp = dhh.data();
      par_rows(n2, hd, [=](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const std::size_t b4 = r * g4;
          const std::size_t b3 = r * g3;
          for (std::size_t c = 0; c < hd; ++c) {
            const double nv = yp[b4 + 2 * hd + c];
            const double dpn = gp[b4 + 2 * hd + c] * (1.0 - nv * nv);
            xp[b3 + 2 * hd + c] = dpn;
            const double hhn = yp[b4 + 3 * hd + c];
            const double rv = yp[b4 + c];
            const double dr = dpn * hhn;      // rn backward: dr = dpre_n ⊙ hU_n
            hp[b3 + 2 * hd + c] = dpn * rv;   // dhh_n = dpre_n ⊙ r
            const double zv = yp[b4 + hd + c];
            const double dpz = gp[b4 + hd + c] * zv * (1.0 - zv);
            xp[b3 + hd + c] = dpz;
            hp[b3 + hd + c] = dpz;
            const double dpr = dr * rv * (1.0 - rv);
            xp[b3 + c] = dpr;
            hp[b3 + c] = dpr;
          }
        }
      });
    }
    if (t.node(ib).requires_grad) {
      // The unfused chain slices the bias leaf, so each block's column sums
      // land in a zeroed row first and are then added to the leaf grad.
      Matrix db = t.pool_.acquire(1, g3);
      double* dbp = db.data();
      const double* xp = dxi.data();
      for (std::size_t r = 0; r < n2; ++r) {
        const std::size_t b3 = r * g3;
        for (std::size_t c = 0; c < g3; ++c) dbp[c] += xp[b3 + c];
      }
      t.grad_ref(ib) += db;
      t.pool_.release(std::move(db));
    }
    if (t.node(ihp).requires_grad) {
      Matrix tmp = t.pool_.acquire(n2, hd);
      matmul_bt_into(dhh, t.node(iwhh).value, tmp);
      t.grad_ref(ihp) += tmp;
      t.pool_.release(std::move(tmp));
    }
    if (t.node(iwhh).requires_grad) {
      const Matrix& wv = t.node(iwhh).value;
      Matrix tmp = t.pool_.acquire(wv.rows(), wv.cols());
      matmul_at_accumulate(t.node(ihp).value, dhh, tmp);
      t.grad_ref(iwhh) += tmp;
      t.pool_.release(std::move(tmp));
    }
    if (t.node(ix).requires_grad) {
      const Matrix& xv = t.node(ix).value;
      Matrix tmp = t.pool_.acquire(xv.rows(), xv.cols());
      matmul_bt_into(dxi, t.node(iwih).value, tmp);
      t.grad_ref(ix) += tmp;
      t.pool_.release(std::move(tmp));
    }
    if (t.node(iwih).requires_grad) {
      const Matrix& wv = t.node(iwih).value;
      Matrix tmp = t.pool_.acquire(wv.rows(), wv.cols());
      matmul_at_accumulate(t.node(ix).value, dxi, tmp);
      t.grad_ref(iwih) += tmp;
      t.pool_.release(std::move(tmp));
    }
    t.pool_.release(std::move(dxi));
    t.pool_.release(std::move(dhh));
  };

  return h_var;
}

void Tape::run_reverse_sweep(Var output) {
  check_same_tape(output);
  const Matrix& out_val = nodes_[output.index].value;
  if (out_val.size() != 1) {
    throw ShapeError("backward: output must be a 1x1 scalar");
  }
  grad_ref(output.index)(0, 0) = 1.0;
  for (std::size_t i = output.index + 1; i-- > 0;) {
    Node& n = nodes_[i];
    if (!n.requires_grad && !n.bound_param) continue;
    if (n.grad.empty()) continue;  // unreached: nothing flowed here
    if (n.backward) n.backward(*this);
  }
}

void Tape::backward(Var output) { run_reverse_sweep(output); }

void Tape::backward_into(Var output, GradSink& sink) {
  grad_sink_ = &sink;
  try {
    run_reverse_sweep(output);
  } catch (...) {
    grad_sink_ = nullptr;
    throw;
  }
  grad_sink_ = nullptr;
}

const Matrix& Tape::value(Var v) const {
  const_cast<Tape*>(this)->check_same_tape(v);
  return nodes_[v.index].value;
}

const Matrix& Tape::grad(Var v) const {
  const_cast<Tape*>(this)->check_same_tape(v);
  const Node& n = nodes_[v.index];
  if (n.grad.empty()) {
    // Lazily produce a zero matrix of the right shape for callers.
    auto* self = const_cast<Tape*>(this);
    return self->grad_ref(v.index);
  }
  return n.grad;
}

double gradient_check(Parameter& p,
                      const std::function<double()>& loss_value_fn,
                      const Matrix& analytic_grad, double eps) {
  double max_diff = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double orig = p.value().data()[i];
    p.value().data()[i] = orig + eps;
    const double lp = loss_value_fn();
    p.value().data()[i] = orig - eps;
    const double lm = loss_value_fn();
    p.value().data()[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    max_diff = std::max(max_diff,
                        std::abs(numeric - analytic_grad.data()[i]));
  }
  return max_diff;
}

}  // namespace rihgcn::ad
