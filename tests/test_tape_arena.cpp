// Tape arena + fused recurrent-cell kernels (DESIGN.md §10):
//
//  * TapeArena.*    — reset()/BufferPool reuse: a reset-and-rerun pass is
//    bitwise identical to a fresh-tape pass (including with a pool dirtied
//    by a differently-shaped graph) and allocates nothing in steady state;
//    leaf() dedup; the n-ary concat node vs a binary-concat chain.
//  * FusedCell.*    — Tape::lstm_cell/gru_cell vs the unfused elementary-op
//    chains in nn::LstmCell/nn::GruCell: values AND parameter gradients must
//    match bitwise (tol = 0) at 1/2/4 threads, per the §10 parity contract.
//    Numerical gradient checks validate the hand-written backwards
//    independently of the unfused reference.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "autodiff/tape.hpp"
#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "data/windows.hpp"
#include "nn/layers.hpp"
#include "tensor/parallel.hpp"
#include "tensor/pool.hpp"
#include "tensor/rng.hpp"

namespace rihgcn {
namespace {

using ad::Parameter;
using ad::Tape;
using ad::Var;

// Same idiom as test_parallel.cpp/test_csr.cpp: force threaded paths on tiny
// inputs and pin the pool width; restore defaults on destruction. (On hosts
// with fewer cores than `threads` the global pool clamps to the hardware —
// the sweep then still checks serial/threaded parity where it can.)
class BackendGuard {
 public:
  explicit BackendGuard(std::size_t threads) {
    ParallelTuning::min_elems = 1;
    ParallelTuning::elem_grain = 4;
    ParallelTuning::min_matmul_flops = 1;
    ParallelTuning::matmul_row_grain = 2;
    ThreadPool::set_global_threads(threads);
  }
  ~BackendGuard() {
    ParallelTuning::reset();
    ThreadPool::set_global_threads(0);
  }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

Matrix randn(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  return rng.normal_matrix(r, c, 1.0);
}

// ---- Fused vs unfused recurrent cells --------------------------------------

struct CellRun {
  std::vector<Matrix> h;      ///< hidden state value per step
  Matrix c;                   ///< final memory cell (LSTM)
  double loss = 0.0;
  std::vector<Matrix> grads;  ///< per parameter, in parameters() order
  std::size_t num_nodes = 0;
};

// Multi-step run so estimates receive delayed gradients through the
// recurrence; the loss reads every step's h via the n-ary concat.
template <typename Cell>
CellRun run_cell(Cell& cell, bool fused, const std::vector<Matrix>& xs) {
  cell.set_fused(fused);
  for (Parameter* p : cell.parameters()) p->zero_grad();
  Tape tape;
  typename Cell::State state = cell.initial_state(tape, xs.front().rows());
  std::vector<Var> hs;
  CellRun run;
  for (const Matrix& x : xs) {
    state = cell.step(tape, tape.constant(x), state);
    hs.push_back(state.h);
  }
  Var loss = tape.mean_all(tape.concat_cols_many(hs));
  tape.backward(loss);
  for (Var h : hs) run.h.push_back(tape.value(h));
  run.c = tape.value(state.c);
  run.loss = tape.value(loss)(0, 0);
  for (Parameter* p : cell.parameters()) run.grads.push_back(p->grad());
  run.num_nodes = tape.num_nodes();
  return run;
}

std::vector<Matrix> make_inputs(std::size_t steps, std::size_t batch,
                                std::size_t dim) {
  std::vector<Matrix> xs;
  for (std::size_t t = 0; t < steps; ++t) {
    xs.push_back(randn(batch, dim, 100 + t));
  }
  return xs;
}

void expect_same_run(const CellRun& a, const CellRun& b) {
  ASSERT_EQ(a.h.size(), b.h.size());
  for (std::size_t t = 0; t < a.h.size(); ++t) EXPECT_EQ(a.h[t], b.h[t]);
  EXPECT_EQ(a.c, b.c);
  EXPECT_EQ(a.loss, b.loss);  // bitwise: no tolerance
  ASSERT_EQ(a.grads.size(), b.grads.size());
  for (std::size_t i = 0; i < a.grads.size(); ++i) {
    EXPECT_EQ(a.grads[i], b.grads[i]);
  }
}

TEST(FusedCell, LstmMatchesUnfusedBitwiseAcrossThreads) {
  Rng rng(11);
  nn::LstmCell cell(4, 3, rng);
  const std::vector<Matrix> xs = make_inputs(3, 5, 4);
  CellRun reference;
  bool have_reference = false;
  for (std::size_t threads : {1, 2, 4}) {
    BackendGuard guard(threads);
    const CellRun fused = run_cell(cell, /*fused=*/true, xs);
    const CellRun unfused = run_cell(cell, /*fused=*/false, xs);
    expect_same_run(fused, unfused);
    EXPECT_LT(fused.num_nodes, unfused.num_nodes);
    if (!have_reference) {
      reference = fused;
      have_reference = true;
    } else {
      expect_same_run(reference, fused);  // cross-thread determinism
    }
  }
}

TEST(FusedCell, GruMatchesUnfusedBitwiseAcrossThreads) {
  Rng rng(12);
  nn::GruCell cell(4, 3, rng);
  const std::vector<Matrix> xs = make_inputs(3, 5, 4);
  CellRun reference;
  bool have_reference = false;
  for (std::size_t threads : {1, 2, 4}) {
    BackendGuard guard(threads);
    const CellRun fused = run_cell(cell, /*fused=*/true, xs);
    const CellRun unfused = run_cell(cell, /*fused=*/false, xs);
    expect_same_run(fused, unfused);
    EXPECT_LT(fused.num_nodes, unfused.num_nodes);
    if (!have_reference) {
      reference = fused;
      have_reference = true;
    } else {
      expect_same_run(reference, fused);
    }
  }
}

TEST(FusedCell, LstmStepAddsThreeNodesUnfusedAtLeastThreeTimesMore) {
  Rng rng(13);
  nn::LstmCell cell(4, 3, rng);
  const Matrix x = randn(5, 4, 200);
  Tape tape;
  auto state = cell.initial_state(tape, 5);
  Var xv = tape.constant(x);
  cell.set_fused(true);
  state = cell.step(tape, xv, state);  // warm-up: caches the parameter leaves
  std::size_t before = tape.num_nodes();
  state = cell.step(tape, xv, state);
  const std::size_t fused_nodes = tape.num_nodes() - before;
  cell.set_fused(false);
  before = tape.num_nodes();
  state = cell.step(tape, xv, state);
  const std::size_t unfused_nodes = tape.num_nodes() - before;
  EXPECT_EQ(fused_nodes, 3u);  // gates, c, h
  EXPECT_GE(unfused_nodes, 3 * fused_nodes);
}

TEST(FusedCell, GruStepAddsTwoNodes) {
  Rng rng(14);
  nn::GruCell cell(4, 3, rng);
  const Matrix x = randn(5, 4, 201);
  Tape tape;
  cell.set_fused(true);
  auto state = cell.initial_state(tape, 5);
  Var xv = tape.constant(x);
  state = cell.step(tape, xv, state);  // warm-up: caches the parameter leaves
  const std::size_t before = tape.num_nodes();
  (void)cell.step(tape, xv, state);
  EXPECT_EQ(tape.num_nodes() - before, 2u);  // gates, h
}

template <typename Cell>
void check_cell_gradients(Cell& cell, const std::vector<Matrix>& xs) {
  cell.set_fused(true);
  auto loss_value = [&]() {
    Tape tape;
    auto state = cell.initial_state(tape, xs.front().rows());
    std::vector<Var> hs;
    for (const Matrix& x : xs) {
      state = cell.step(tape, tape.constant(x), state);
      hs.push_back(state.h);
    }
    return tape.value(tape.mean_all(tape.concat_cols_many(hs)))(0, 0);
  };
  for (Parameter* p : cell.parameters()) p->zero_grad();
  {
    Tape tape;
    auto state = cell.initial_state(tape, xs.front().rows());
    std::vector<Var> hs;
    for (const Matrix& x : xs) {
      state = cell.step(tape, tape.constant(x), state);
      hs.push_back(state.h);
    }
    tape.backward(tape.mean_all(tape.concat_cols_many(hs)));
  }
  for (Parameter* p : cell.parameters()) {
    EXPECT_LT(ad::gradient_check(*p, loss_value, p->grad()), 1e-6)
        << p->name();
  }
}

TEST(FusedCell, LstmGradientCheck) {
  Rng rng(15);
  nn::LstmCell cell(3, 2, rng);
  check_cell_gradients(cell, make_inputs(3, 4, 3));
}

TEST(FusedCell, GruGradientCheck) {
  Rng rng(16);
  nn::GruCell cell(3, 2, rng);
  check_cell_gradients(cell, make_inputs(3, 4, 3));
}

// Full model: flipping use_fused_cells must not change the loss value or any
// parameter gradient (bitwise), on the real bidirectional-imputation graph.
TEST(FusedCell, RihgcnModelParity) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 6;
  cfg.num_days = 2;
  cfg.steps_per_day = 48;
  cfg.seed = 3;
  data::TrafficDataset ds = data::generate_pems_like(cfg);
  Rng rng(4);
  data::inject_mcar(ds, 0.4, rng);
  const std::size_t train_end = ds.num_timesteps() * 7 / 10;
  const data::ZScoreNormalizer nz(ds, train_end);
  nz.normalize(ds);
  data::WindowSampler sampler(ds, 6, 3);
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = 1;
  gcfg.partition_slots = 24;
  core::HeterogeneousGraphs graphs(ds, train_end, gcfg, rng);

  core::RihgcnConfig mc;
  mc.lookback = 6;
  mc.horizon = 3;
  mc.gcn_dim = 4;
  mc.lstm_dim = 5;
  mc.cheb_order = 2;
  const data::Window w = sampler.make_window(0);

  auto run = [&](bool fused) {
    core::RihgcnConfig c = mc;
    c.use_fused_cells = fused;
    core::RihgcnModel model(graphs, ds.num_nodes(), ds.num_features(), c);
    for (Parameter* p : model.parameters()) p->zero_grad();
    Tape tape;
    Var loss = model.training_loss(tape, w);
    const double loss_val = tape.value(loss)(0, 0);
    tape.backward(loss);
    std::vector<Matrix> grads;
    for (Parameter* p : model.parameters()) grads.push_back(p->grad());
    return std::make_pair(loss_val, std::move(grads));
  };
  const auto [loss_f, grads_f] = run(true);
  const auto [loss_u, grads_u] = run(false);
  EXPECT_EQ(loss_f, loss_u);
  ASSERT_EQ(grads_f.size(), grads_u.size());
  for (std::size_t i = 0; i < grads_f.size(); ++i) {
    EXPECT_EQ(grads_f[i], grads_u[i]) << "param " << i;
  }
}

// ---- Tape arena: reset(), pool reuse, leaf dedup, n-ary concat -------------

struct GraphRun {
  double loss = 0.0;
  Matrix grad;
  std::size_t num_nodes = 0;
};

// A small graph touching matmul, broadcast, nonlinearity and a masked loss.
GraphRun run_graph(Tape& tape, Parameter& w, Parameter& b, const Matrix& x,
                   const Matrix& target, const Matrix& mask) {
  w.zero_grad();
  b.zero_grad();
  Var y = tape.tanh(tape.add_row_broadcast(
      tape.matmul(tape.constant(x), tape.leaf(w)), tape.leaf(b)));
  Var loss = tape.masked_mae(y, target, mask);
  tape.backward(loss);
  GraphRun run;
  run.loss = tape.value(loss)(0, 0);
  run.grad = w.grad();
  run.num_nodes = tape.num_nodes();
  return run;
}

TEST(TapeArena, ResetAndRerunIsBitwiseIdenticalToFreshTape) {
  Parameter w(randn(4, 3, 21), "w");
  Parameter b(Matrix(1, 3), "b");
  const Matrix x = randn(6, 4, 22);
  const Matrix target = randn(6, 3, 23);
  Matrix mask(6, 3, 1.0);
  mask(0, 0) = mask(3, 2) = 0.0;

  Tape fresh;
  const GraphRun first = run_graph(fresh, w, b, x, target, mask);

  Tape reused;
  const GraphRun warm = run_graph(reused, w, b, x, target, mask);
  EXPECT_EQ(first.loss, warm.loss);
  const std::size_t misses_after_warmup = reused.pool().misses();
  for (int i = 0; i < 3; ++i) {
    reused.reset();
    const GraphRun again = run_graph(reused, w, b, x, target, mask);
    EXPECT_EQ(first.loss, again.loss);
    EXPECT_EQ(first.grad, again.grad);
    EXPECT_EQ(first.num_nodes, again.num_nodes);
  }
  // Steady state: every buffer comes from the pool, nothing is allocated.
  EXPECT_EQ(reused.pool().misses(), misses_after_warmup);
  EXPECT_GT(reused.pool().hits(), 0u);
}

TEST(TapeArena, DirtyPoolDoesNotLeakStaleValues) {
  Parameter w(randn(4, 3, 31), "w");
  Parameter b(Matrix(1, 3), "b");
  const Matrix x = randn(6, 4, 32);
  const Matrix target = randn(6, 3, 33);
  const Matrix mask(6, 3, 1.0);

  Tape fresh;
  const GraphRun expected = run_graph(fresh, w, b, x, target, mask);

  // Dirty the pool with a differently-shaped graph first, then reuse.
  Tape reused;
  Parameter w2(randn(7, 6, 34), "w2");
  Parameter b2(randn(1, 6, 35), "b2");
  (void)run_graph(reused, w2, b2, randn(4, 7, 36), randn(4, 6, 37),
                  Matrix(4, 6, 1.0));
  reused.reset();
  const GraphRun got = run_graph(reused, w, b, x, target, mask);
  EXPECT_EQ(expected.loss, got.loss);
  EXPECT_EQ(expected.grad, got.grad);
}

TEST(TapeArena, MoreRowsInTheSameSizeClassesAllocateNothing) {
  // Partitioned training runs one tape over clusters of slightly different
  // row counts. The pool buckets by size class (4 per octave), so after a
  // 97-row step — every buffer here holds 1, 3 or 4 elements per row, i.e.
  // 97, 291 and 388 elements, in the 112-, 320- and 448-element classes —
  // steps of 100 and 104 rows fit the same buffers and allocate nothing.
  Parameter w(randn(4, 3, 81), "w");
  Parameter b(randn(1, 3, 82), "b");
  Tape tape;
  (void)run_graph(tape, w, b, randn(97, 4, 83), randn(97, 3, 84),
                  Matrix(97, 3, 1.0));
  const std::size_t warm_misses = tape.pool().misses();
  for (const std::size_t rows : {100u, 104u, 97u}) {
    const Matrix x = randn(rows, 4, 85);
    const Matrix target = randn(rows, 3, 86);
    const Matrix mask(rows, 3, 1.0);
    Tape fresh;
    const GraphRun expected = run_graph(fresh, w, b, x, target, mask);
    tape.reset();
    const GraphRun got = run_graph(tape, w, b, x, target, mask);
    EXPECT_EQ(got.loss, expected.loss) << rows << " rows";
    EXPECT_EQ(got.grad, expected.grad) << rows << " rows";
    EXPECT_EQ(tape.pool().misses(), warm_misses) << rows << " rows";
  }
}

TEST(TapeArena, LeafIsDeduplicatedPerResetCycle) {
  Parameter p(randn(2, 2, 41), "p");
  Tape tape;
  Var a = tape.leaf(p);
  Var b = tape.leaf(p);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(tape.num_nodes(), 1u);
  // Gradient still accumulates once per use of the shared node.
  p.zero_grad();
  tape.backward(tape.mean_all(tape.add(a, b)));
  EXPECT_EQ(p.grad()(0, 0), 0.5);  // 2 uses x d(mean)/dx = 1/4
  // A reset clears the cache: the next leaf() re-snapshots the parameter.
  tape.reset();
  p.value()(0, 0) += 1.0;
  Var c = tape.leaf(p);
  EXPECT_EQ(tape.value(c), p.value());
}

TEST(TapeArena, NaryConcatMatchesBinaryChainBitwise) {
  Parameter pa(randn(3, 2, 51), "a");
  Parameter pb(randn(3, 4, 52), "b");
  Parameter pc(randn(3, 1, 53), "c");
  auto run = [&](bool nary) {
    pa.zero_grad();
    pb.zero_grad();
    pc.zero_grad();
    Tape tape;
    Var a = tape.leaf(pa), b = tape.leaf(pb), c = tape.leaf(pc);
    Var cat = nary ? tape.concat_cols_many({a, b, c})
                   : tape.concat_cols(tape.concat_cols(a, b), c);
    Matrix target(3, 7, 0.25);
    Var loss = tape.masked_mae(cat, target, Matrix(3, 7, 1.0));
    tape.backward(loss);
    std::vector<Matrix> out{tape.value(cat), pa.grad(), pb.grad(), pc.grad()};
    return out;
  };
  const auto nary = run(true);
  const auto chain = run(false);
  for (std::size_t i = 0; i < nary.size(); ++i) EXPECT_EQ(nary[i], chain[i]);
}

TEST(TapeArena, ConcatManySingleInputPassesThrough) {
  Tape tape;
  Var a = tape.constant(randn(2, 3, 61));
  Var cat = tape.concat_cols_many({a});
  EXPECT_EQ(cat.index, a.index);
}

TEST(TapeArena, BufferPoolRecyclesAndZeroes) {
  BufferPool pool;
  Matrix m = pool.acquire(3, 4);
  EXPECT_EQ(pool.misses(), 1u);
  m.fill(7.0);
  const double* data = m.data();
  pool.release(std::move(m));
  EXPECT_EQ(pool.pooled_buffers(), 1u);
  Matrix again = pool.acquire(4, 3);  // same element count, different shape
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(again.rows(), 4u);
  EXPECT_EQ(again.cols(), 3u);
  EXPECT_EQ(again.data(), data);  // storage was recycled...
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again.data()[i], 0.0);  // ...and zeroed
  }
}

TEST(TapeArena, RepeatedCellRunsAreDeterministic) {
  // Back-to-back forward/backward passes over the same cell (fresh tapes,
  // grads re-zeroed) must agree bitwise — the invariant the scratch-tape
  // reuse in predict()/impute() leans on.
  Rng rng(71);
  nn::LstmCell cell(3, 2, rng);
  const std::vector<Matrix> xs = make_inputs(2, 4, 3);
  const CellRun a = run_cell(cell, true, xs);
  const CellRun b = run_cell(cell, true, xs);
  expect_same_run(a, b);
}

}  // namespace
}  // namespace rihgcn
