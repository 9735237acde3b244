#include "autodiff/tape.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "tensor/csr.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"

namespace rihgcn::ad {
namespace {

// Analytic-vs-numeric gradient harness: `build` constructs a scalar loss
// from leaf vars bound to `params` on a fresh tape. Verifies every
// parameter's gradient against central differences.
using Builder = std::function<Var(Tape&, std::vector<Var>&)>;

void expect_gradients_match(std::vector<Parameter>& params,
                            const Builder& build, double tol = 1e-5) {
  auto run = [&](bool do_backward) {
    Tape tape;
    std::vector<Var> leaves;
    leaves.reserve(params.size());
    for (auto& p : params) leaves.push_back(tape.leaf(p));
    Var loss = build(tape, leaves);
    const double value = tape.value(loss)(0, 0);
    if (do_backward) tape.backward(loss);
    return value;
  };
  for (auto& p : params) p.zero_grad();
  run(/*do_backward=*/true);
  for (auto& p : params) {
    const Matrix analytic = p.grad();
    const double diff = gradient_check(
        p, [&] { return run(false); }, analytic, 1e-6);
    EXPECT_LT(diff, tol) << "gradient mismatch for parameter " << p.name();
  }
}

/// Smooth scalar loss mean((a − target)²) built from tape ops, so gradient
/// checks through non-linear ops see a non-trivial upstream gradient.
Var mse(Tape& t, Var a, const Matrix& target) {
  const Var d = t.sub(a, t.constant(target));
  return t.mean_all(t.mul(d, d));
}

Matrix randn(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  return rng.normal_matrix(r, c, 1.0);
}

TEST(Tape, ConstantHasNoGradient) {
  Tape tape;
  Var c = tape.constant(Matrix{{1, 2}});
  EXPECT_EQ(tape.value(c)(0, 1), 2.0);
}

TEST(Tape, LeafRoutesGradientToParameter) {
  Parameter p(Matrix{{1.0, 2.0}}, "p");
  Tape tape;
  Var x = tape.leaf(p);
  Var loss = tape.mean_all(x);
  tape.backward(loss);
  EXPECT_EQ(p.grad()(0, 0), 0.5);
  EXPECT_EQ(p.grad()(0, 1), 0.5);
}

TEST(Tape, GradientsAccumulateAcrossBackwardCalls) {
  Parameter p(Matrix{{3.0}}, "p");
  for (int i = 0; i < 2; ++i) {
    Tape tape;
    Var loss = tape.mean_all(tape.leaf(p));
    tape.backward(loss);
  }
  EXPECT_EQ(p.grad()(0, 0), 2.0);
}

TEST(Tape, BackwardRequiresScalar) {
  Parameter p(Matrix{{1.0, 2.0}}, "p");
  Tape tape;
  Var x = tape.leaf(p);
  EXPECT_THROW(tape.backward(x), ShapeError);
}

TEST(Tape, CrossTapeVarRejected) {
  Tape t1, t2;
  Var a = t1.constant(Matrix{{1.0}});
  Var b = t2.constant(Matrix{{1.0}});
  EXPECT_THROW(t1.add(a, b), std::logic_error);
}

TEST(TapeGrad, Add) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(3, 2, 1), "a");
  ps.emplace_back(randn(3, 2, 2), "b");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.add(v[0], v[1]));
  });
}

TEST(TapeGrad, Sub) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(2, 4, 3), "a");
  ps.emplace_back(randn(2, 4, 4), "b");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.sub(v[0], v[1]));
  });
}

TEST(TapeGrad, ElementwiseMul) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(3, 3, 5), "a");
  ps.emplace_back(randn(3, 3, 6), "b");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.mul(v[0], v[1]));
  });
}

TEST(TapeGrad, ScaleAndAddScalar) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(2, 2, 7), "a");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.add_scalar(t.scale(v[0], -2.5), 3.0));
  });
}

TEST(TapeGrad, HadamardConst) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(3, 2, 8), "a");
  const Matrix mask{{1, 0}, {0, 1}, {1, 1}};
  expect_gradients_match(ps, [mask](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.hadamard_const(v[0], mask));
  });
}

TEST(TapeGrad, Matmul) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(3, 4, 9), "a");
  ps.emplace_back(randn(4, 2, 10), "b");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.matmul(v[0], v[1]));
  });
}

TEST(TapeGrad, Spmm) {
  // Sparse constant Laplacian stand-in (one empty row to hit that path).
  Matrix lap = randn(4, 4, 60);
  for (std::size_t j = 0; j < 4; ++j) {
    lap(2, j) = 0.0;
    lap(j, 1) = 0.0;
  }
  const CsrMatrix csr = CsrMatrix::from_dense(lap);
  std::vector<Parameter> ps;
  ps.emplace_back(randn(4, 3, 61), "x");
  expect_gradients_match(ps, [&csr](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.spmm(csr, v[0]));
  });
}

TEST(TapeGrad, SpmmGradientBitwiseMatchesDenseMatmul) {
  // The same loss through tape.spmm and through tape.matmul(constant(L), x)
  // must produce bitwise-identical parameter gradients (DESIGN.md §9).
  const Matrix lap = [] {
    Matrix m = randn(5, 5, 62);
    for (std::size_t i = 0; i < 5; ++i) {
      for (std::size_t j = 0; j < 5; ++j) {
        if ((i + 2 * j) % 3 == 0) m(i, j) = 0.0;
      }
    }
    return m;
  }();
  const CsrMatrix csr = CsrMatrix::from_dense(lap);
  auto grad_of = [&](bool sparse) {
    Parameter x(randn(5, 4, 63), "x");
    Tape tape;
    Var leaf = tape.leaf(x);
    Var prod = sparse ? tape.spmm(csr, leaf)
                      : tape.matmul(tape.constant(lap), leaf);
    tape.backward(tape.mean_all(prod));
    return x.grad();
  };
  EXPECT_EQ(grad_of(true), grad_of(false));
}

TEST(TapeGrad, MatmulChain) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(2, 3, 11), "a");
  ps.emplace_back(randn(3, 3, 12), "b");
  ps.emplace_back(randn(3, 2, 13), "c");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.matmul(t.matmul(v[0], v[1]), v[2]));
  });
}

TEST(TapeGrad, MulColBroadcast) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(4, 3, 14), "a");
  ps.emplace_back(randn(4, 1, 15), "col");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.mul_col_broadcast(v[0], v[1]));
  });
}

TEST(TapeGrad, AddRowBroadcast) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(4, 3, 16), "a");
  ps.emplace_back(randn(1, 3, 17), "bias");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.add_row_broadcast(v[0], v[1]));
  });
}

TEST(TapeGrad, Sigmoid) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(3, 3, 18), "a");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.sigmoid(v[0]));
  });
}

TEST(Tape, SigmoidMatchesTwoBranchFormulaBitwise) {
  // The logistic takes one exp, of −|x|; it must round exactly as the
  // two-branch form 1/(1+exp(−x)) | exp(x)/(1+exp(x)), edges included.
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> magnitudes{0.0,   denorm, 1e-310, 1.0,
                                       20.0,  709.5,  745.2,  inf};
  std::vector<double> xs;
  for (const double m : magnitudes) {
    xs.push_back(m);
    xs.push_back(-m);
  }
  Matrix in(1, xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) in(0, i) = xs[i];
  Tape tape;
  const Matrix got = tape.value(tape.sigmoid(tape.constant(in)));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // volatile: keeps the compiler from folding exp() at build time, which
    // may round differently from the library call the tape makes.
    volatile double vx = xs[i];
    const double x = vx;
    const double want = x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                                 : std::exp(x) / (1.0 + std::exp(x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got(0, i)),
              std::bit_cast<std::uint64_t>(want))
        << "x = " << x << ": " << got(0, i) << " vs " << want;
  }
}

TEST(TapeGrad, Tanh) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(3, 3, 19), "a");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.tanh(v[0]));
  });
}

TEST(TapeGrad, Relu) {
  // Keep values away from the kink (numeric diff is invalid there).
  Parameter p(Matrix{{0.5, -0.7}, {1.2, -2.0}}, "a");
  std::vector<Parameter> ps;
  ps.push_back(std::move(p));
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.relu(v[0]));
  });
}

TEST(TapeGrad, SoftmaxRows) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(3, 4, 20), "a");
  const Matrix target = randn(3, 4, 21);
  expect_gradients_match(ps, [target](Tape& t, std::vector<Var>& v) {
    // Use MSE to a target so the softmax grad is non-trivial.
    return mse(t, t.softmax_rows(v[0]), target);
  });
}

TEST(TapeGrad, ConcatAndSlice) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(3, 2, 22), "a");
  ps.emplace_back(randn(3, 3, 23), "b");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    Var cat = t.concat_cols(v[0], v[1]);
    Var s = t.slice_cols(cat, 1, 4);  // straddles both inputs
    return t.mean_all(s);
  });
}

TEST(TapeGrad, ConcatMany) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(2, 2, 24), "a");
  ps.emplace_back(randn(2, 1, 25), "b");
  ps.emplace_back(randn(2, 3, 26), "c");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.concat_cols_many({v[0], v[1], v[2]}));
  });
}

TEST(TapeGrad, Transpose) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(2, 5, 27), "a");
  ps.emplace_back(randn(2, 5, 28), "b");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.matmul(t.transpose(v[0]), v[1]));
  });
}

TEST(TapeGrad, MaskedMae) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(4, 3, 29), "a");
  const Matrix target = randn(4, 3, 30);
  Matrix w(4, 3);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = i % 3 == 0 ? 1.0 : 0.0;
  expect_gradients_match(ps, [target, w](Tape& t, std::vector<Var>& v) {
    return t.masked_mae(v[0], target, w);
  });
}

TEST(TapeGrad, WeightedL1Between) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(3, 3, 33), "a");
  ps.emplace_back(randn(3, 3, 34), "b");
  const Matrix w(3, 3, 1.0);
  expect_gradients_match(ps, [w](Tape& t, std::vector<Var>& v) {
    return t.weighted_l1_between(v[0], v[1], w);
  });
}

TEST(TapeGrad, AffineCombine) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(2, 2, 35), "a");
  ps.emplace_back(randn(2, 2, 36), "b");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    Var l1 = t.mean_all(v[0]);
    Var l2 = t.mean_all(t.mul(v[1], v[1]));
    return t.affine_combine(l1, 1.0, l2, 0.37);
  });
}

TEST(TapeGrad, ReusedVariableAccumulates) {
  // y = a ⊙ a: grad must be 2a (the same node is used twice).
  std::vector<Parameter> ps;
  ps.emplace_back(randn(3, 2, 38), "a");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    return t.mean_all(t.mul(v[0], v[0]));
  });
}

TEST(TapeGrad, DeepRecurrentChain) {
  // A miniature recurrence mimicking the imputation loop: state feeds back
  // through several steps, so gradients must flow through every timestep.
  std::vector<Parameter> ps;
  ps.emplace_back(randn(2, 2, 39) * 0.5, "w");
  ps.emplace_back(randn(1, 2, 40), "x0");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    Var x = v[1];
    for (int step = 0; step < 5; ++step) {
      x = t.tanh(t.matmul(x, v[0]));
    }
    return t.mean_all(x);
  });
}

TEST(Tape, MaskedLossShapeMismatchThrows) {
  Tape tape;
  Parameter p(Matrix(2, 2), "p");
  Var x = tape.leaf(p);
  EXPECT_THROW(tape.masked_mae(x, Matrix(3, 2), Matrix(2, 2)), ShapeError);
  EXPECT_THROW(tape.masked_mae(x, Matrix(2, 2), Matrix(2, 3)), ShapeError);
}

TEST(Tape, AffineCombineRejectsNonScalar) {
  Tape tape;
  Var a = tape.constant(Matrix(2, 2));
  Var b = tape.constant(Matrix(1, 1));
  EXPECT_THROW(tape.affine_combine(a, 1.0, b, 1.0), ShapeError);
}

TEST(Tape, MaskedMaeValue) {
  Tape tape;
  Var x = tape.constant(Matrix{{1.0, 5.0}});
  const Matrix target{{0.0, 0.0}};
  const Matrix w{{1.0, 0.0}};  // only first entry counts
  Var loss = tape.masked_mae(x, target, w);
  EXPECT_DOUBLE_EQ(tape.value(loss)(0, 0), 1.0);
}

TEST(Tape, GradOfUnreachedNodeIsZero) {
  Parameter p(Matrix{{1.0}}, "p");
  Tape tape;
  Var unused = tape.leaf(p);
  Var c = tape.constant(Matrix{{2.0}});
  Var loss = tape.mean_all(c);
  tape.backward(loss);
  EXPECT_EQ(tape.grad(unused).abs_max(), 0.0);
  EXPECT_EQ(p.grad()(0, 0), 0.0);
}

// Parameterized sweep: the same composite expression across many shapes.
class CompositeGradTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CompositeGradTest, MatchesNumeric) {
  const auto [r, c] = GetParam();
  const auto rows = static_cast<std::size_t>(r);
  const auto cols = static_cast<std::size_t>(c);
  std::vector<Parameter> ps;
  ps.emplace_back(randn(rows, cols, 50 + rows), "a");
  ps.emplace_back(randn(cols, cols, 60 + cols), "w");
  const Matrix target = randn(rows, cols, 70 + rows + cols);
  Matrix mask(rows, cols);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = (i * 2654435761u) % 3 == 0 ? 0.0 : 1.0;
  }
  expect_gradients_match(ps, [target, mask](Tape& t, std::vector<Var>& v) {
    Var h = t.tanh(t.matmul(v[0], v[1]));
    Var masked = t.hadamard_const(h, mask);
    return t.masked_mae(masked, target, mask);
  });
}

INSTANTIATE_TEST_SUITE_P(Shapes, CompositeGradTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 4},
                                           std::pair{3, 2}, std::pair{5, 5},
                                           std::pair{7, 3}, std::pair{2, 8}));

// Numerical-gradient property checks run twice — once on the serial path and
// once with a 4-thread pool and the dispatch thresholds forced down so every
// threaded kernel engages even on these small matrices. Analytic gradients
// must match central differences identically on both backends.
class ParallelBackendGrad : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    ParallelTuning::min_elems = 1;
    ParallelTuning::elem_grain = 4;
    ParallelTuning::min_matmul_flops = 1;
    ParallelTuning::matmul_row_grain = 2;
    ThreadPool::set_global_threads(GetParam());
  }
  void TearDown() override {
    ParallelTuning::reset();
    ThreadPool::set_global_threads(0);
  }
};

TEST_P(ParallelBackendGrad, MaskedLossThroughGcnLikeStack) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(6, 4, 301), "x");
  ps.emplace_back(randn(4, 4, 302), "w");
  const Matrix target = randn(6, 4, 303);
  Matrix mask(6, 4);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = (i * 2654435761u) % 4 == 0 ? 0.0 : 1.0;
  }
  expect_gradients_match(ps, [target, mask](Tape& t, std::vector<Var>& v) {
    Var h = t.tanh(t.matmul(v[0], v[1]));
    return t.masked_mae(t.hadamard_const(h, mask), target, mask);
  });
}

TEST_P(ParallelBackendGrad, RecurrentChainWithGates) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(5, 3, 311), "x");
  ps.emplace_back(randn(3, 3, 312), "w");
  expect_gradients_match(ps, [](Tape& t, std::vector<Var>& v) {
    Var h = v[0];
    for (int step = 0; step < 3; ++step) {
      Var z = t.matmul(h, v[1]);
      h = t.add(t.mul(t.sigmoid(z), t.tanh(z)), t.scale(h, 0.5));
    }
    return t.mean_all(t.relu(h));
  });
}

TEST_P(ParallelBackendGrad, SoftmaxAttentionMixture) {
  std::vector<Parameter> ps;
  ps.emplace_back(randn(6, 4, 321), "scores");
  ps.emplace_back(randn(6, 4, 322), "values");
  const Matrix target = randn(6, 4, 323);
  expect_gradients_match(ps, [target](Tape& t, std::vector<Var>& v) {
    Var alpha = t.softmax_rows(v[0]);
    Var mixed = t.mul(alpha, v[1]);
    Var col = t.slice_cols(alpha, 0, 1);
    return mse(t, t.mul_col_broadcast(mixed, col), target);
  });
}

INSTANTIATE_TEST_SUITE_P(SerialAndThreaded, ParallelBackendGrad,
                         ::testing::Values(1u, 4u));

}  // namespace
}  // namespace rihgcn::ad
