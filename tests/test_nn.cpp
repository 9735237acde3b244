#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "tensor/csr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace rihgcn::nn {
namespace {

TEST(Init, XavierRange) {
  Rng rng(1);
  const Matrix w = xavier_uniform(rng, 100, 100);
  const double a = std::sqrt(6.0 / 200.0);
  EXPECT_GE(w.min(), -a);
  EXPECT_LE(w.max(), a);
  EXPECT_EQ(w.rows(), 100u);
}

TEST(Linear, ForwardShapeAndValue) {
  Rng rng(3);
  Linear lin(3, 2, rng);
  ad::Tape tape;
  ad::Var x = tape.constant(Matrix(5, 3, 1.0));
  ad::Var y = lin.forward(tape, x);
  EXPECT_EQ(tape.value(y).rows(), 5u);
  EXPECT_EQ(tape.value(y).cols(), 2u);
  EXPECT_EQ(lin.num_parameters(), 3u * 2u + 2u);
}

TEST(Linear, ZeroDimensionThrows) {
  Rng rng(4);
  EXPECT_THROW(Linear(0, 2, rng), std::invalid_argument);
  EXPECT_THROW(Linear(2, 0, rng), std::invalid_argument);
}

TEST(Linear, GradientCheck) {
  Rng rng(5);
  Linear lin(4, 3, rng);
  const Matrix x_val = rng.normal_matrix(2, 4, 1.0);
  const Matrix target = rng.normal_matrix(2, 3, 1.0);
  auto loss_value = [&] {
    ad::Tape tape;
    ad::Var y = lin.forward(tape, tape.constant(x_val));
    return tape.value(tape.masked_mse(y, target, Matrix(2, 3, 1.0)))(0, 0);
  };
  for (ad::Parameter* p : lin.parameters()) p->zero_grad();
  {
    ad::Tape tape;
    ad::Var y = lin.forward(tape, tape.constant(x_val));
    ad::Var loss = tape.masked_mse(y, target, Matrix(2, 3, 1.0));
    tape.backward(loss);
  }
  for (ad::Parameter* p : lin.parameters()) {
    EXPECT_LT(ad::gradient_check(*p, loss_value, p->grad()), 1e-5)
        << p->name();
  }
}

TEST(LstmCell, StepShapes) {
  Rng rng(6);
  LstmCell lstm(4, 8, rng);
  ad::Tape tape;
  auto state = lstm.initial_state(tape, 3);
  EXPECT_EQ(tape.value(state.h).rows(), 3u);
  EXPECT_EQ(tape.value(state.h).cols(), 8u);
  state = lstm.step(tape, tape.constant(Matrix(3, 4, 0.5)), state);
  EXPECT_EQ(tape.value(state.h).cols(), 8u);
  EXPECT_EQ(tape.value(state.c).cols(), 8u);
}

TEST(LstmCell, InputDimMismatchThrows) {
  Rng rng(7);
  LstmCell lstm(4, 8, rng);
  ad::Tape tape;
  auto state = lstm.initial_state(tape, 3);
  EXPECT_THROW((void)lstm.step(tape, tape.constant(Matrix(3, 5)), state),
               ShapeError);
}

TEST(LstmCell, ForgetBiasInitializedToOne) {
  Rng rng(8);
  LstmCell lstm(2, 4, rng);
  const ad::Parameter* bias = lstm.parameters()[2];
  // Gate layout [i | f | o | g]: forget block is columns [H, 2H).
  for (std::size_t c = 4; c < 8; ++c) EXPECT_EQ(bias->value()(0, c), 1.0);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(bias->value()(0, c), 0.0);
}

TEST(LstmCell, GradientCheckThroughTwoSteps) {
  Rng rng(9);
  LstmCell lstm(3, 4, rng);
  const Matrix x1 = rng.normal_matrix(2, 3, 1.0);
  const Matrix x2 = rng.normal_matrix(2, 3, 1.0);
  auto build = [&](ad::Tape& tape) {
    auto state = lstm.initial_state(tape, 2);
    state = lstm.step(tape, tape.constant(x1), state);
    state = lstm.step(tape, tape.constant(x2), state);
    return tape.mean_all(state.h);
  };
  auto loss_value = [&] {
    ad::Tape tape;
    return tape.value(build(tape))(0, 0);
  };
  for (ad::Parameter* p : lstm.parameters()) p->zero_grad();
  {
    ad::Tape tape;
    tape.backward(build(tape));
  }
  for (ad::Parameter* p : lstm.parameters()) {
    EXPECT_LT(ad::gradient_check(*p, loss_value, p->grad()), 1e-5)
        << p->name();
  }
}

TEST(ChebGcn, ForwardShape) {
  Rng rng(10);
  ChebGcnLayer gcn(3, 5, 3, rng);
  const CsrMatrix lap = CsrMatrix::from_dense(Matrix::identity(4) * 0.5);
  ad::Tape tape;
  ad::Var y = gcn.forward(tape, tape.constant(Matrix(4, 3, 1.0)), lap);
  EXPECT_EQ(tape.value(y).rows(), 4u);
  EXPECT_EQ(tape.value(y).cols(), 5u);
}

TEST(ChebGcn, OrderOneIsPointwiseLinear) {
  // K=1 uses only T_0 = I: output must not mix nodes.
  Rng rng(11);
  ChebGcnLayer gcn(1, 1, 1, rng);
  Matrix dense(2, 2);
  dense(0, 1) = dense(1, 0) = 1.0;  // strong off-diagonal coupling
  const CsrMatrix lap = CsrMatrix::from_dense(dense);
  Matrix x(2, 1);
  x(0, 0) = 1.0;  // node 1 has zero input
  ad::Tape tape;
  ad::Var y = gcn.forward(tape, tape.constant(x), lap);
  // Node 1's output is exactly the bias (no contribution from node 0).
  const double bias = gcn.parameters().back()->value()(0, 0);
  EXPECT_DOUBLE_EQ(tape.value(y)(1, 0), bias);
}

TEST(ChebGcn, HigherOrderMixesNeighbours) {
  Rng rng(12);
  ChebGcnLayer gcn(1, 1, 2, rng);
  Matrix dense(2, 2);
  dense(0, 1) = dense(1, 0) = 1.0;
  const CsrMatrix lap = CsrMatrix::from_dense(dense);
  Matrix x(2, 1);
  x(0, 0) = 1.0;
  ad::Tape tape;
  ad::Var y = gcn.forward(tape, tape.constant(x), lap);
  const double bias = gcn.parameters().back()->value()(0, 0);
  EXPECT_NE(tape.value(y)(1, 0), bias);  // neighbour information arrived
}

TEST(ChebGcn, LaplacianSizeMismatchThrows) {
  Rng rng(13);
  ChebGcnLayer gcn(3, 2, 3, rng);
  const CsrMatrix lap = CsrMatrix::from_dense(Matrix::identity(5));
  ad::Tape tape;
  EXPECT_THROW((void)gcn.forward(tape, tape.constant(Matrix(4, 3)), lap),
               ShapeError);
}

TEST(ChebGcn, ZeroOrderThrows) {
  Rng rng(14);
  EXPECT_THROW(ChebGcnLayer(3, 2, 0, rng), std::invalid_argument);
}

TEST(ChebGcn, GradientCheck) {
  Rng rng(15);
  ChebGcnLayer gcn(2, 3, 3, rng);
  const Matrix dense = rng.normal_matrix(3, 3, 0.3);
  const CsrMatrix lap =
      CsrMatrix::from_dense((dense + dense.transposed()) * 0.5);  // symmetric
  const Matrix x = rng.normal_matrix(3, 2, 1.0);
  auto build = [&](ad::Tape& tape) {
    return tape.mean_all(gcn.forward(tape, tape.constant(x), lap));
  };
  auto loss_value = [&] {
    ad::Tape tape;
    return tape.value(build(tape))(0, 0);
  };
  for (ad::Parameter* p : gcn.parameters()) p->zero_grad();
  {
    ad::Tape tape;
    tape.backward(build(tape));
  }
  for (ad::Parameter* p : gcn.parameters()) {
    EXPECT_LT(ad::gradient_check(*p, loss_value, p->grad()), 1e-5)
        << p->name();
  }
}

// The CSR forward against the dense Chebyshev recurrence, written out here
// with Tape::matmul by L̃: the output, the input gradient and every
// parameter gradient are bitwise equal (tol-0 CSR, DESIGN.md §9).
TEST(ChebGcn, CsrForwardBitwiseMatchesDenseRecurrence) {
  Rng rng(16);
  const std::size_t n = 9;
  ChebGcnLayer gcn(4, 5, 3, rng);
  Matrix dense = rng.normal_matrix(n, n, 0.4);
  dense = (dense + dense.transposed()) * 0.5;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if ((i + j) % 3 == 1) dense(i, j) = 0.0;  // structural zeros
    }
  }
  const CsrMatrix lap = CsrMatrix::from_dense(dense);
  ASSERT_LT(lap.nnz(), dense.size());
  Parameter x(rng.normal_matrix(n, 4, 1.0), "x");
  const Matrix upstream = rng.normal_matrix(n, 5, 1.0);
  const std::vector<Parameter*> params = gcn.parameters();

  // Returns the output followed by the gradients of x and of every param.
  auto run = [&](bool use_csr) {
    x.zero_grad();
    for (Parameter* p : params) p->zero_grad();
    ad::Tape tape;
    const ad::Var xv = tape.leaf(x);
    ad::Var y;
    if (use_csr) {
      y = gcn.forward(tape, xv, lap);
    } else {
      const ad::Var l = tape.constant(dense);
      const ad::Var z1 = tape.matmul(l, xv);
      const ad::Var z2 = tape.sub(tape.scale(tape.matmul(l, z1), 2.0), xv);
      ad::Var acc = tape.matmul(xv, tape.leaf(*params[0]));
      acc = tape.add(acc, tape.matmul(z1, tape.leaf(*params[1])));
      acc = tape.add(acc, tape.matmul(z2, tape.leaf(*params[2])));
      y = tape.add_row_broadcast(acc, tape.leaf(*params[3]));
    }
    tape.backward(tape.mean_all(tape.hadamard_const(y, upstream)));
    std::vector<Matrix> out{tape.value(y), x.grad()};
    for (Parameter* p : params) out.push_back(p->grad());
    return out;
  };
  const std::vector<Matrix> want = run(false);
  const std::vector<Matrix> got = run(true);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "output/gradient " << i;
  }
}

TEST(CollectParameters, Flattens) {
  Rng rng(17);
  Linear a(2, 2, rng), b(2, 3, rng);
  const auto params = collect_parameters({&a, &b});
  EXPECT_EQ(params.size(), 4u);
}

// ---- Optimizer ------------------------------------------------------------

TEST(Adam, ReducesQuadraticLoss) {
  // Minimize ||w - target||^2 — Adam should converge quickly.
  ad::Parameter w(Matrix(1, 4), "w");
  const Matrix target{{1.0, -2.0, 0.5, 3.0}};
  AdamOptimizer::Config cfg;
  cfg.lr = 0.05;
  AdamOptimizer opt({&w}, cfg);
  double first_loss = 0.0, last_loss = 0.0;
  for (int it = 0; it < 400; ++it) {
    opt.zero_grad();
    ad::Tape tape;
    ad::Var loss =
        tape.masked_mse(tape.leaf(w), target, Matrix(1, 4, 1.0));
    if (it == 0) first_loss = tape.value(loss)(0, 0);
    last_loss = tape.value(loss)(0, 0);
    tape.backward(loss);
    opt.step();
  }
  EXPECT_LT(last_loss, 1e-3 * first_loss);
  EXPECT_LT(max_abs_diff(w.value(), target), 0.05);
}

TEST(Adam, NullParameterThrows) {
  EXPECT_THROW(AdamOptimizer({nullptr}), std::invalid_argument);
}

TEST(Adam, StepCountsAdvance) {
  ad::Parameter w(Matrix(1, 1), "w");
  AdamOptimizer opt({&w});
  EXPECT_EQ(opt.num_steps(), 0u);
  opt.step();
  EXPECT_EQ(opt.num_steps(), 1u);
}

TEST(GradClip, GlobalNormClipping) {
  ad::Parameter a(Matrix(1, 2), "a");
  ad::Parameter b(Matrix(1, 2), "b");
  a.grad() = Matrix{{3.0, 0.0}};
  b.grad() = Matrix{{0.0, 4.0}};
  EXPECT_DOUBLE_EQ(global_grad_norm({&a, &b}), 5.0);
  clip_global_grad_norm({&a, &b}, 2.5);
  EXPECT_DOUBLE_EQ(global_grad_norm({&a, &b}), 2.5);
  // Already-small gradients are untouched.
  clip_global_grad_norm({&a, &b}, 100.0);
  EXPECT_DOUBLE_EQ(global_grad_norm({&a, &b}), 2.5);
}

TEST(EarlyStopping, StopsAfterPatience) {
  EarlyStopping stop(3);
  EXPECT_TRUE(stop.update(1.0));
  EXPECT_FALSE(stop.update(1.1));
  EXPECT_FALSE(stop.update(1.2));
  EXPECT_FALSE(stop.should_stop());
  EXPECT_FALSE(stop.update(1.3));
  EXPECT_TRUE(stop.should_stop());
  EXPECT_DOUBLE_EQ(stop.best(), 1.0);
}

TEST(EarlyStopping, ImprovementResetsCounter) {
  EarlyStopping stop(2);
  stop.update(1.0);
  stop.update(1.5);
  EXPECT_TRUE(stop.update(0.5));
  EXPECT_EQ(stop.bad_epochs(), 0u);
  EXPECT_FALSE(stop.should_stop());
}

TEST(Serialization, SaveLoadRoundTrip) {
  Rng rng(18);
  Linear lin(3, 2, rng);
  const auto params = lin.parameters();
  std::stringstream ss;
  save_parameters(ss, params);
  // Perturb, then restore.
  const Matrix original = params[0]->value();
  params[0]->value() *= 0.0;
  load_parameters(ss, params);
  EXPECT_TRUE(allclose(params[0]->value(), original, 1e-12));
}

TEST(Serialization, CountMismatchThrows) {
  Rng rng(19);
  Linear lin(2, 2, rng);
  std::stringstream ss;
  save_parameters(ss, lin.parameters());
  Linear other(2, 2, rng);
  auto too_few = std::vector<ad::Parameter*>{other.parameters()[0]};
  EXPECT_THROW(load_parameters(ss, too_few), std::runtime_error);
}

TEST(Serialization, ShapeMismatchThrows) {
  Rng rng(20);
  Linear lin(2, 2, rng);
  std::stringstream ss;
  save_parameters(ss, lin.parameters());
  Linear other(3, 2, rng);
  EXPECT_THROW(load_parameters(ss, other.parameters()), std::runtime_error);
}

TEST(Serialization, BadHeaderThrows) {
  std::stringstream ss("garbage v9\n0\n");
  EXPECT_THROW(load_parameters(ss, {}), std::runtime_error);
}

TEST(Snapshot, RestoreValues) {
  Rng rng(21);
  Linear lin(2, 2, rng);
  const auto params = lin.parameters();
  const auto snap = snapshot_values(params);
  params[0]->value() *= 5.0;
  restore_values(snap, params);
  EXPECT_TRUE(allclose(params[0]->value(), snap[0], 1e-15));
  EXPECT_THROW(restore_values({}, params), std::invalid_argument);
}

// ---- Optimizer extensions ----------------------------------------------------

TEST(AdamW, WeightDecayShrinksUnusedParameters) {
  // A parameter with zero gradient should decay toward zero under AdamW.
  ad::Parameter w(Matrix(1, 2, 10.0), "w");
  nn::AdamOptimizer::Config cfg;
  cfg.lr = 0.1;
  cfg.weight_decay = 0.1;
  nn::AdamOptimizer opt({&w}, cfg);
  for (int i = 0; i < 50; ++i) {
    opt.zero_grad();
    opt.step();
  }
  EXPECT_LT(w.value().abs_max(), 10.0 * std::pow(1.0 - 0.01, 49));
}

TEST(AdamW, NoDecayWhenDisabled) {
  ad::Parameter w(Matrix(1, 2, 10.0), "w");
  nn::AdamOptimizer opt({&w});
  opt.zero_grad();
  opt.step();
  EXPECT_DOUBLE_EQ(w.value()(0, 0), 10.0);  // zero grad, zero decay
}

TEST(LrDecay, ScheduledDecayApplies) {
  ad::Parameter w(Matrix(1, 1), "w");
  nn::AdamOptimizer::Config cfg;
  cfg.lr = 1.0;
  cfg.lr_decay = 0.5;
  cfg.lr_decay_every = 2;
  nn::AdamOptimizer opt({&w}, cfg);
  EXPECT_DOUBLE_EQ(opt.current_lr(), 1.0);
  opt.step();
  EXPECT_DOUBLE_EQ(opt.current_lr(), 1.0);
  opt.step();  // step 2 -> decay
  EXPECT_DOUBLE_EQ(opt.current_lr(), 0.5);
  opt.step();
  opt.step();  // step 4 -> decay again
  EXPECT_DOUBLE_EQ(opt.current_lr(), 0.25);
}

TEST(LrDecay, DecayedLrChangesStepSize) {
  auto run = [](double decay) {
    ad::Parameter w(Matrix(1, 1), "w");
    nn::AdamOptimizer::Config cfg;
    cfg.lr = 0.1;
    cfg.lr_decay = decay;
    cfg.lr_decay_every = 1;
    nn::AdamOptimizer opt({&w}, cfg);
    const Matrix target{{5.0}};
    for (int i = 0; i < 30; ++i) {
      opt.zero_grad();
      ad::Tape tape;
      ad::Var loss = tape.masked_mse(tape.leaf(w), target, Matrix(1, 1, 1.0));
      tape.backward(loss);
      opt.step();
    }
    return w.value()(0, 0);
  };
  // Aggressive decay freezes progress early; no decay gets closer to 5.
  EXPECT_GT(run(1.0), run(0.5));
}

}  // namespace
}  // namespace rihgcn::nn
