// Micro-benchmarks (google-benchmark) for the substrate hot paths: dense
// matmul, DTW, graph-Laplacian pipeline, Chebyshev GCN forward, LSTM step,
// a full RIHGCN forward/backward, and one optimizer step. Not a paper
// experiment — tracks the cost structure of the training loop.
//
// The custom main() additionally runs the sparse graph backend sweep
// (SpMM vs dense Chebyshev propagation over N ∈ {64, 256, 1024} at the
// densities the PeMS-like generator actually produces, plus a dense/sparse
// RIHGCN train-step comparison) before the registered benchmarks, and
// honors --json=PATH for machine-readable results (tools/run_bench.sh).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/rihgcn.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "nn/optim.hpp"
#include "tensor/csr.hpp"
#include "tensor/fmatrix.hpp"
#include "tensor/linalg.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"
#include "timeseries/distance.hpp"

namespace {

using namespace rihgcn;

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = rng.normal_matrix(n, n, 1.0);
  const Matrix b = rng.normal_matrix(n, n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(16)->Arg(64)->Arg(128);

// ---- Parallel backend throughput -------------------------------------------
//
// Run with --benchmark_format=json to get machine-readable items_per_second
// (= multiply-accumulates/s). BM_MatmulSeedSerial is the pre-parallel-backend
// i-k-j kernel, kept as detail::matmul_naive; BM_MatmulParallel/256/T is the
// blocked kernel on a T-thread pool (T=0 means RIHGCN_THREADS or the
// hardware concurrency). The acceptance target is parallel/256/4 at >= 2x
// seed-serial items_per_second.

void BM_MatmulSeedSerial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = rng.normal_matrix(n, n, 1.0);
  const Matrix b = rng.normal_matrix(n, n, 1.0);
  Matrix out(n, n);
  for (auto _ : state) {
    out.fill(0.0);
    detail::matmul_naive(a, b, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatmulSeedSerial)->Arg(256);

void BM_MatmulParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  ThreadPool::set_global_threads(threads);  // 0 = env / hardware default
  Rng rng(1);
  const Matrix a = rng.normal_matrix(n, n, 1.0);
  const Matrix b = rng.normal_matrix(n, n, 1.0);
  Matrix out(n, n);
  for (auto _ : state) {
    out.fill(0.0);
    matmul_accumulate(a, b, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
  ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_MatmulParallel)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 0})
    ->UseRealTime();

// Chebyshev GCN forward+backward on a larger graph, across pool sizes — the
// model-level view of the parallel backend (matmuls dominate).
void BM_ChebGcnThreaded(benchmark::State& state) {
  const std::size_t n = 128;
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool::set_global_threads(threads);
  Rng rng(6);
  nn::ChebGcnLayer gcn(32, 32, 3, rng);
  const Matrix lap = rng.normal_matrix(n, n, 0.2);
  const CsrMatrix csr = CsrMatrix::from_dense((lap + lap.transposed()) * 0.5);
  const Matrix x = rng.normal_matrix(n, 32, 1.0);
  for (auto _ : state) {
    for (ad::Parameter* p : gcn.parameters()) p->zero_grad();
    ad::Tape tape;
    ad::Var y = gcn.forward(tape, tape.constant(x), csr);
    tape.backward(tape.mean_all(y));
    benchmark::DoNotOptimize(y);
  }
  ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_ChebGcnThreaded)->Arg(1)->Arg(2)->Arg(4)->Arg(0)->UseRealTime();

void BM_Dtw(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> a(len), b(len);
  for (auto& x : a) x = rng.normal();
  for (auto& x : b) x = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::dtw(a, b));
  }
}
BENCHMARK(BM_Dtw)->Arg(24)->Arg(144)->Arg(288);

void BM_DtwBanded(benchmark::State& state) {
  const std::size_t len = 288;
  Rng rng(3);
  std::vector<double> a(len), b(len);
  for (auto& x : a) x = rng.normal();
  for (auto& x : b) x = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::dtw(a, b, state.range(0)));
  }
}
BENCHMARK(BM_DtwBanded)->Arg(8)->Arg(32);

void BM_GraphPipeline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  Matrix d = rng.uniform_matrix(n, n, 0.3, 3.0);
  d = (d + d.transposed()) * 0.5;
  for (std::size_t i = 0; i < n; ++i) d(i, i) = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::scaled_laplacian_from_distances(d));
  }
}
BENCHMARK(BM_GraphPipeline)->Arg(20)->Arg(50);

void BM_SolveLinear(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  Matrix a = rng.normal_matrix(n, n, 1.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0 * static_cast<double>(n);
  const Matrix b = rng.normal_matrix(n, 1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_linear(a, b));
  }
}
BENCHMARK(BM_SolveLinear)->Arg(16)->Arg(91);

void BM_ChebGcnForward(benchmark::State& state) {
  const std::size_t n = 20;
  Rng rng(6);
  nn::ChebGcnLayer gcn(4, 16, 3, rng);
  const Matrix lap = rng.normal_matrix(n, n, 0.2);
  const CsrMatrix csr = CsrMatrix::from_dense((lap + lap.transposed()) * 0.5);
  const Matrix x = rng.normal_matrix(n, 4, 1.0);
  for (auto _ : state) {
    ad::Tape tape;
    benchmark::DoNotOptimize(gcn.forward(tape, tape.constant(x), csr));
  }
}
BENCHMARK(BM_ChebGcnForward);

void BM_LstmStep(benchmark::State& state) {
  const std::size_t n = 20;
  Rng rng(7);
  nn::LstmCell lstm(16, 32, rng);
  const Matrix x = rng.normal_matrix(n, 16, 1.0);
  for (auto _ : state) {
    ad::Tape tape;
    auto s = lstm.initial_state(tape, n);
    benchmark::DoNotOptimize(lstm.step(tape, tape.constant(x), s));
  }
}
BENCHMARK(BM_LstmStep);

struct RihgcnBenchFixture {
  data::TrafficDataset ds;
  std::unique_ptr<data::WindowSampler> sampler;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  std::unique_ptr<core::RihgcnModel> model;
  data::Window window;

  RihgcnBenchFixture() {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 20;
    cfg.num_days = 4;
    cfg.steps_per_day = 288;
    ds = data::generate_pems_like(cfg);
    Rng rng(8);
    data::inject_mcar(ds, 0.4, rng);
    const std::size_t train_end = ds.num_timesteps() * 7 / 10;
    const data::ZScoreNormalizer nz(ds, train_end);
    nz.normalize(ds);
    sampler = std::make_unique<data::WindowSampler>(ds, 12, 12);
    core::HeteroGraphsConfig gcfg;
    gcfg.num_temporal_graphs = 4;
    graphs =
        std::make_unique<core::HeterogeneousGraphs>(ds, train_end, gcfg, rng);
    core::RihgcnConfig mc;
    mc.gcn_dim = 12;
    mc.lstm_dim = 24;
    model = std::make_unique<core::RihgcnModel>(*graphs, 20, 4, mc);
    window = sampler->make_window(100);
  }
};

void BM_RihgcnForward(benchmark::State& state) {
  static RihgcnBenchFixture fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.model->predict(fixture.window));
  }
}
BENCHMARK(BM_RihgcnForward);

void BM_RihgcnForwardBackward(benchmark::State& state) {
  static RihgcnBenchFixture fixture;
  for (auto _ : state) {
    for (ad::Parameter* p : fixture.model->parameters()) p->zero_grad();
    ad::Tape tape;
    ad::Var loss = fixture.model->training_loss(tape, fixture.window);
    tape.backward(loss);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_RihgcnForwardBackward);

void BM_AdamStep(benchmark::State& state) {
  static RihgcnBenchFixture fixture;
  nn::AdamOptimizer opt(fixture.model->parameters());
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.step());
  }
}
BENCHMARK(BM_AdamStep);

void BM_GruStep(benchmark::State& state) {
  const std::size_t n = 20;
  Rng rng(9);
  nn::GruCell gru(16, 32, rng);
  const Matrix x = rng.normal_matrix(n, 16, 1.0);
  for (auto _ : state) {
    ad::Tape tape;
    auto s = gru.initial_state(tape, n);
    benchmark::DoNotOptimize(gru.step(tape, tape.constant(x), s));
  }
}
BENCHMARK(BM_GruStep);

// Data-parallel batch gradients: wall-clock for an 8-window batch at 1, 2
// and 4 worker threads, mirroring the trainer's per-worker batch parallelism
// (persistent ThreadPool crew, hoisted arena tapes, grain-1 parallel_for so
// every kernel inside a worker runs inline; speedup tops out at the core
// count and the reduction cost).
void BM_ParallelBatch(benchmark::State& state) {
  static RihgcnBenchFixture fixture;
  const auto threads = static_cast<std::size_t>(state.range(0));
  const data::WindowSampler& sampler = *fixture.sampler;
  std::vector<std::size_t> idx{100, 101, 102, 103, 104, 105, 106, 107};
  ThreadPool crew(threads);
  std::vector<std::unique_ptr<ad::Tape>> tapes;
  for (std::size_t w = 0; w < threads; ++w) {
    tapes.push_back(std::make_unique<ad::Tape>());
  }
  for (auto _ : state) {
    for (ad::Parameter* p : fixture.model->parameters()) p->zero_grad();
    if (threads <= 1) {
      ad::Tape& tape = *tapes[0];
      for (const std::size_t i : idx) {
        tape.reset();
        ad::Var loss =
            fixture.model->training_loss(tape, sampler.make_window(i));
        tape.backward(loss);
      }
    } else {
      std::vector<ad::Tape::GradSink> sinks(threads);
      crew.parallel_for(0, threads, 1, [&](std::size_t w, std::size_t) {
        for (std::size_t b = w; b < idx.size(); b += threads) {
          ad::Tape& tape = *tapes[w];
          tape.reset();
          ad::Var loss = fixture.model->training_loss(
              tape, sampler.make_window(idx[b]));
          tape.backward_into(loss, sinks[w]);
        }
      });
      for (auto& sink : sinks) {
        for (auto& [param, grad] : sink) param->grad() += grad;
      }
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ParallelBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ---- Sparse graph backend sweep (DESIGN.md §9) -----------------------------

struct SweepGraph {
  std::size_t n = 0;
  Matrix lap;     // scaled Laplacian, dense
  CsrMatrix csr;  // same matrix in CSR (tol = 0 — bitwise-equal kernels)
};

SweepGraph make_sweep_graph(std::size_t n) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = n;
  // Scale the network like the generator default (30 nodes / 3 corridors):
  // ~10 sensors per corridor. Growing N this way keeps Eq. 8 densities
  // realistic instead of stretching three corridors across the whole map.
  cfg.num_corridors = std::max<std::size_t>(1, n / 10);
  cfg.num_days = 1;
  cfg.steps_per_day = 24;  // readings are unused; only distances matter
  const data::TrafficDataset ds = data::generate_pems_like(cfg);
  SweepGraph g;
  g.n = n;
  g.lap =
      graph::RoadGraph::from_distances(ds.geo_distances).scaled_laplacian();
  g.csr = CsrMatrix::from_dense(g.lap);
  return g;
}

// Record one timed row: ns_per_op is the median (the gating statistic for
// tools/check_bench.py); min/stddev ride along for diagnosis.
bench::MicroResult timed_row(const char* name, std::size_t n, double density,
                             std::size_t threads,
                             const bench::TimingStats& stats) {
  bench::MicroResult r;
  r.name = name;
  r.n = n;
  r.density = density;
  r.ns_per_op = stats.median_ns;
  r.threads = threads;
  r.min_ns = stats.min_ns;
  r.stddev_ns = stats.stddev_ns;
  return r;
}

// Record one counter row: ns_per_op carries a deterministic program fact
// (tape nodes, pool misses). The "counter" kind makes tools/check_bench.py
// exact-diff it instead of applying the timing threshold.
bench::MicroResult counter_row(const char* name, std::size_t n, double density,
                               double value, std::size_t threads) {
  bench::MicroResult r;
  r.name = name;
  r.n = n;
  r.density = density;
  r.ns_per_op = value;
  r.threads = threads;
  r.kind = "counter";
  return r;
}

// SpMM vs dense Chebyshev propagation: the two L̃·Z products of the K = 3
// three-term recurrence (the GCN hot path both backends share).
void run_sparse_sweep(const bench::BenchOptions& opts,
                      std::vector<bench::MicroResult>& results) {
  constexpr std::size_t kFeat = 16;
  std::printf(
      "Sparse graph backend sweep — K=3 Chebyshev propagation, F=%zu\n",
      kFeat);
  std::printf("%-12s %6s %9s %8s %14s %9s\n", "kernel", "N", "density",
              "threads", "ns/op", "speedup");
  for (const std::size_t n : {64, 256, 1024}) {
    const SweepGraph g = make_sweep_graph(n);
    Rng rng(opts.seed);
    const Matrix x = rng.normal_matrix(n, kFeat, 1.0);
    for (const std::size_t threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      const bench::TimingStats dense = bench::measure_ns_per_op([&] {
        Matrix z1 = matmul(g.lap, x);
        Matrix z2 = matmul(g.lap, z1);
        benchmark::DoNotOptimize(z2.data());
      });
      const bench::TimingStats sp = bench::measure_ns_per_op([&] {
        Matrix z1 = spmm(g.csr, x);
        Matrix z2 = spmm(g.csr, z1);
        benchmark::DoNotOptimize(z2.data());
      });
      const double density = g.csr.density();
      results.push_back(timed_row("cheb_dense", n, density, threads, dense));
      results.push_back(timed_row("cheb_spmm", n, density, threads, sp));
      std::printf("%-12s %6zu %9.3f %8zu %14.0f %9s\n", "cheb_dense", n,
                  density, threads, dense.median_ns, "1.00x");
      std::printf("%-12s %6zu %9.3f %8zu %14.0f %8.2fx\n", "cheb_spmm", n,
                  density, threads, sp.median_ns,
                  dense.median_ns / sp.median_ns);
    }
  }
  ThreadPool::set_global_threads(0);
}

// SIMD dispatch layer: the same blocked double GEMM through the scalar and
// active tables (identical bits, different instructions), plus the f32
// serving GEMM (tensor/fmatrix.hpp). Serial on purpose — this isolates the
// per-core kernel, the thread sweeps above cover dispatch.
void run_simd_sweep(const bench::BenchOptions& opts,
                    std::vector<bench::MicroResult>& results) {
  constexpr std::size_t kN = 256;
  ThreadPool::set_global_threads(1);
  Rng rng(opts.seed + 2);
  const Matrix a = rng.normal_matrix(kN, kN, 1.0);
  const Matrix b = rng.normal_matrix(kN, kN, 1.0);
  Matrix out(kN, kN);
  std::printf("\nSIMD kernel layer, %zux%zu GEMM (active ISA: %s)\n", kN, kN,
              simd::isa_name(simd::active_isa()));
  std::printf("%-18s %14s %9s\n", "kernel", "ns/op", "speedup");

  simd::force_isa(simd::Isa::kScalar);
  const bench::TimingStats scalar = bench::measure_ns_per_op([&] {
    out.fill(0.0);
    matmul_accumulate(a, b, out);
    benchmark::DoNotOptimize(out.data());
  });
  simd::reset_isa();
  const bench::TimingStats active = bench::measure_ns_per_op([&] {
    out.fill(0.0);
    matmul_accumulate(a, b, out);
    benchmark::DoNotOptimize(out.data());
  });
  results.push_back(timed_row("matmul_scalar", kN, 1.0, 1, scalar));
  results.push_back(timed_row("matmul_simd", kN, 1.0, 1, active));
  std::printf("%-18s %14.0f %9s\n", "matmul_scalar", scalar.median_ns,
              "1.00x");
  std::printf("%-18s %14.0f %8.2fx\n", "matmul_simd", active.median_ns,
              scalar.median_ns / active.median_ns);

  const FMatrix fa = FMatrix::from(a);
  const FMatrix fb = FMatrix::from(b);
  FMatrix fout(kN, kN);
  const bench::TimingStats f32 = bench::measure_ns_per_op([&] {
    std::fill(fout.data(), fout.data() + fout.size(), 0.0f);
    fmatmul_accumulate(fa, fb, fout);
    benchmark::DoNotOptimize(fout.data());
  });
  results.push_back(timed_row("fmatmul_f32", kN, 1.0, 1, f32));
  std::printf("%-18s %14.0f %8.2fx\n", "fmatmul_f32", f32.median_ns,
              scalar.median_ns / f32.median_ns);
  ThreadPool::set_global_threads(0);
}

// The f32 kernel shapes the serving engine's forward is bound by (DESIGN.md
// §12/§14), straight through the active kernel table, serial: the
// transposed Laplacian apply of a 4-wide feature panel at N = 256
// (smatmul_panel, 4x256 · 256x256), the N = 256 output head (256x48 · 48x12)
// and a city shard's output head (2300x12 · 12x3). `n` is the node count.
// Informational until their noise floor is known.
void run_engine_kernel_sweep(const bench::BenchOptions& opts,
                             std::vector<bench::MicroResult>& results) {
  struct Shape {
    const char* name;
    std::size_t rows, k, m;
    std::size_t nodes;
    bool panel;
  };
  const Shape shapes[] = {
      {"f32_lap_panel", 4, 256, 256, 256, true},
      {"f32_head_gemm", 256, 48, 12, 256, false},
      {"f32_head_gemm", 2300, 12, 3, 2300, false},
  };
  const simd::Kernels& kern = simd::active_kernels();
  Rng rng(opts.seed + 4);
  std::printf("\nf32 engine kernel shapes (active ISA: %s)\n",
              simd::isa_name(simd::active_isa()));
  std::printf("%-18s %18s %14s\n", "kernel", "rows x k x m", "ns/op");
  for (const Shape& s : shapes) {
    const FMatrix a = FMatrix::from(rng.normal_matrix(s.rows, s.k, 1.0));
    const FMatrix b = FMatrix::from(rng.normal_matrix(s.k, s.m, 1.0));
    FMatrix c(s.rows, s.m);
    const bench::TimingStats stats = bench::measure_ns_per_op([&] {
      std::fill(c.data(), c.data() + c.size(), 0.0f);
      if (s.panel) {
        kern.smatmul_panel(a.data(), b.data(), c.data(), s.rows, s.k, s.m);
      } else {
        kern.smatmul_rows(a.data(), b.data(), c.data(), s.k, s.m, 0, s.rows);
      }
      benchmark::DoNotOptimize(c.data());
      benchmark::ClobberMemory();
    });
    bench::MicroResult row = timed_row(s.name, s.nodes, 1.0, 1, stats);
    row.informational = true;
    results.push_back(row);
    std::printf("%-18s %6zux%4zux%4zu %14.0f\n", s.name, s.rows, s.k, s.m,
                stats.median_ns);
  }
}

// ---- Pruned DTW graph construction sweep (DESIGN.md §13) -------------------

// Diurnal series in a few phase/amplitude clusters — the structure the
// LB_Kim/LB_Keogh bounds exploit (random walks would prune far less).
Matrix make_dtw_series(std::size_t n, std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  Matrix s(n, len);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 0.8 * static_cast<double>(i % 8);
    const double amp = 1.0 + 0.2 * static_cast<double>(i % 5);
    for (std::size_t t = 0; t < len; ++t) {
      s(i, t) = amp * std::sin(0.26 * static_cast<double>(t) + phase) +
                0.1 * rng.normal();
    }
  }
  return s;
}

// Temporal-graph construction, legacy vs pruned pipeline, end to end
// (distance scan -> k-NN selection -> Gaussian CSR adjacency).
// `dtw_graph_exact` is the old dense pipeline exactly as dense-mode
// hetero_graphs runs it: the full N x N unbanded-DTW matrix, then row
// sparsification. `dtw_graph_pruned` is ts::knn_series_graph at the sparse
// pipeline's recommended city-scale configuration (Sakoe-Chiba band 4,
// LB_Kim/LB_Keogh + early abandon, no N x N matrix). At EQUAL band the
// pruned scan returns bitwise-identical graphs to the exact scan
// (tests/test_knn_graph.cpp); the band itself is a config choice of the new
// pipeline that the legacy path never supported. The dense baseline is only
// run at N=1024 — its cost extrapolates as N² — and the acceptance target is
// pruned@4096 at >= 5x the 16x-extrapolated exact@1024 time.
void run_dtw_graph_sweep(const bench::BenchOptions& opts,
                         std::vector<bench::MicroResult>& results) {
  constexpr std::size_t kLen = 24;
  constexpr std::size_t kK = 8;
  constexpr std::ptrdiff_t kBand = 4;
  std::printf("\nDTW k-NN graph construction, T=%zu, k=%zu (pruned band %td)\n",
              kLen, kK, kBand);
  std::printf("%-18s %6s %8s %14s\n", "path", "N", "threads", "ns/op");
  ThreadPool::set_global_threads(1);
  double exact_1024_ns = 0.0;
  {
    constexpr std::size_t kN = 1024;
    const Matrix s = make_dtw_series(kN, kLen, opts.seed + 3);
    const bench::TimingStats exact = bench::measure_ns_per_op([&] {
      const Matrix d = ts::pairwise_series_distance(s, ts::SeriesDistance::kDtw);
      const CsrMatrix adj =
          graph::gaussian_knn_adjacency(graph::knn_from_distances(d, kK));
      benchmark::DoNotOptimize(adj.nnz());
    });
    exact_1024_ns = exact.median_ns;
    results.push_back(timed_row("dtw_graph_exact", kN, 1.0, 1, exact));
    std::printf("%-18s %6zu %8d %14.0f\n", "dtw_graph_exact", kN, 1,
                exact.median_ns);
  }
  for (const std::size_t n : {std::size_t{1024}, std::size_t{4096}}) {
    const Matrix s = make_dtw_series(n, kLen, opts.seed + 3);
    for (const std::size_t threads : {1, 4}) {
      if (n == 1024 && threads != 1) continue;  // 1T suffices for the ratio
      ThreadPool::set_global_threads(threads);
      ts::KnnOptions kopts;
      kopts.k = kK;
      kopts.band = kBand;
      kopts.prune = true;
      const bench::TimingStats pruned = bench::measure_ns_per_op([&] {
        const CsrMatrix adj =
            graph::gaussian_knn_adjacency(ts::knn_series_graph(s, kopts));
        benchmark::DoNotOptimize(adj.nnz());
      });
      const double density =
          static_cast<double>(n * n) /
          static_cast<double>(1024 * 1024);  // N² work scale vs the baseline
      results.push_back(
          timed_row("dtw_graph_pruned", n, density, threads, pruned));
      std::printf("%-18s %6zu %8zu %14.0f\n", "dtw_graph_pruned", n, threads,
                  pruned.median_ns);
      if (n == 4096 && threads == 1 && exact_1024_ns > 0.0) {
        // Extrapolated dense cost at 4096 = 16x the measured 1024 baseline.
        std::printf("  pruned@4096 vs 16x-extrapolated exact: %.1fx faster\n",
                    16.0 * exact_1024_ns / pruned.median_ns);
      }
    }
  }
  ThreadPool::set_global_threads(0);
}

// Geographic k-NN at city scale (DESIGN.md §13): graph::knn_from_coords on
// a jittered 128 x 128 sensor grid (0.5 km pitch, ±0.2 km jitter), the
// layout of perfbench's city_backfill, k = 8. Informational rows: they show
// the sorted sweep's cost next to the DTW scans above.
void run_knn_coords_sweep(const bench::BenchOptions& opts,
                          std::vector<bench::MicroResult>& results) {
  constexpr std::size_t kSide = 128;
  constexpr std::size_t kN = kSide * kSide;
  constexpr std::size_t kK = 8;
  Rng rng(opts.seed + 5);
  Matrix coords(kN, 2);
  for (std::size_t i = 0; i < kN; ++i) {
    coords(i, 0) = 0.5 * static_cast<double>(i % kSide) + rng.uniform(-0.2, 0.2);
    coords(i, 1) = 0.5 * static_cast<double>(i / kSide) + rng.uniform(-0.2, 0.2);
  }
  std::printf("\nCoordinate k-NN, jittered %zux%zu grid, k=%zu\n", kSide, kSide,
              kK);
  std::printf("%-18s %6s %8s %14s\n", "path", "N", "threads", "ns/op");
  for (const std::size_t threads : {1, 4}) {
    ThreadPool::set_global_threads(threads);
    const bench::TimingStats stats = bench::measure_ns_per_op([&] {
      const ts::NeighborList knn = graph::knn_from_coords(coords, kK);
      benchmark::DoNotOptimize(knn.idx.data());
    });
    bench::MicroResult row = timed_row("knn_coords", kN, 1.0, threads, stats);
    row.informational = true;
    results.push_back(row);
    std::printf("%-18s %6zu %8zu %14.0f\n", "knn_coords", kN, threads,
                stats.median_ns);
  }
  ThreadPool::set_global_threads(0);
}

// End-to-end view: one RIHGCN train step (forward + backward) with the
// sparse backend on vs off and the fused recurrent cells on vs off, same
// parameters and data. The step runs on a hoisted arena tape (reset() per
// step, as the trainer does), so the rows also carry the tape-arena health
// metrics of DESIGN.md §10: graph size in nodes ("tape_nodes_*", node count
// stored in ns_per_op) and steady-state pool misses per step
// ("pool_steady_allocs" — 0 means every buffer of a warm step is recycled).
void run_train_step_compare(const bench::BenchOptions& opts,
                            std::vector<bench::MicroResult>& results) {
  constexpr std::size_t kNodes = 256;
  data::PemsLikeConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_corridors = kNodes / 10;
  cfg.num_days = 2;
  cfg.steps_per_day = 48;
  cfg.seed = opts.seed;
  data::TrafficDataset ds = data::generate_pems_like(cfg);
  Rng rng(opts.seed + 1);
  data::inject_mcar(ds, 0.4, rng);
  const std::size_t train_end = ds.num_timesteps() * 7 / 10;
  const data::ZScoreNormalizer nz(ds, train_end);
  nz.normalize(ds);
  data::WindowSampler sampler(ds, 6, 3);
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = 2;
  gcfg.partition_slots = 24;
  core::HeterogeneousGraphs graphs(ds, train_end, gcfg, rng);
  const data::Window w = sampler.make_window(10);

  std::printf("\nRIHGCN train step, N=%zu (forward+backward, M=2, K=3)\n",
              kNodes);
  std::printf("%-18s %8s %14s %9s\n", "config", "threads", "ns/op", "speedup");
  double density = 0.0;
  {
    const auto stats =
        graph::sparsity_stats(graphs.geographic().scaled_laplacian());
    density = stats.density;
  }
  struct StepConfig {
    const char* name;
    bool fused;
    bool guarded;
  };
  constexpr StepConfig kConfigs[] = {
      {"train_step_sparse", true, false},
      {"train_step_unfused", false, false},  // elementary-op cells
      // Identical compute to train_step_sparse plus the NumericalGuard's
      // per-step work (loss/grad scan, EMA update, snapshot cadence) — the
      // fault-tolerance overhead budget is <= 5% of train_step_sparse @ 1T.
      {"train_step_guarded", true, true},
  };
  for (const std::size_t threads : {1, 4}) {
    ThreadPool::set_global_threads(threads);
    double base_ns = 0.0;
    for (const StepConfig& sc : kConfigs) {
      core::RihgcnConfig mc;
      mc.lookback = 6;
      mc.horizon = 3;
      mc.gcn_dim = 8;
      mc.lstm_dim = 8;
      mc.use_fused_cells = sc.fused;
      core::RihgcnModel model(graphs, kNodes, ds.num_features(), mc);
      std::vector<ad::Parameter*> params = model.parameters();
      nn::AdamOptimizer opt(params);
      core::NumericalGuard guard(params, opt, core::GuardConfig{});
      ad::Tape tape;  // arena, reused per step like the training loop
      auto step = [&] {
        for (ad::Parameter* p : model.parameters()) p->zero_grad();
        tape.reset();
        ad::Var loss = model.training_loss(tape, w);
        tape.backward(loss);
        if (sc.guarded) {
          benchmark::DoNotOptimize(guard.inspect(tape.value(loss)(0, 0)));
          guard.after_step();
        }
        benchmark::DoNotOptimize(loss);
      };
      const bench::TimingStats stats = bench::measure_ns_per_op(step);
      const double ns = stats.median_ns;
      results.push_back(timed_row(sc.name, kNodes, density, threads, stats));
      if (&sc == &kConfigs[0]) base_ns = ns;
      std::printf("%-18s %8zu %14.0f %8.2fx\n", sc.name, threads, ns,
                  base_ns / ns);
      if (threads == 1 && !sc.guarded) {
        // Arena health (measure_ns_per_op already warmed the pool): tape size
        // and pool misses of one more steady-state step.
        const std::size_t misses_before = tape.pool().misses();
        step();
        const auto nodes = static_cast<double>(tape.num_nodes());
        const auto allocs =
            static_cast<double>(tape.pool().misses() - misses_before);
        results.push_back(
            counter_row(sc.fused ? "tape_nodes_fused" : "tape_nodes_unfused",
                        kNodes, density, nodes, threads));
        std::printf("  %-16s %24.0f nodes\n",
                    sc.fused ? "tape_nodes_fused" : "tape_nodes_unfused",
                    nodes);
        if (sc.fused) {
          results.push_back(
              counter_row("pool_steady_allocs", kNodes, density, allocs,
                          threads));
          std::printf("  %-16s %24.0f allocs/step\n", "pool_steady_allocs",
                      allocs);
        }
      }
    }
    // Partitioned (Cluster-GCN) step: same window swept as 8 per-cluster
    // sub-graph losses (DESIGN.md §13). More total work than one full-graph
    // step at this small N (halo overlap + per-cluster fixed costs) — the
    // mode pays off when N x N no longer fits, so this row tracks the
    // overhead factor rather than a speedup.
    {
      core::RihgcnConfig mc;
      mc.lookback = 6;
      mc.horizon = 3;
      mc.gcn_dim = 8;
      mc.lstm_dim = 8;
      core::RihgcnModel model(graphs, kNodes, ds.num_features(), mc);
      model.prepare_clusters(8, opts.seed);
      ad::Tape tape;
      const bench::TimingStats stats = bench::measure_ns_per_op([&] {
        for (ad::Parameter* p : model.parameters()) p->zero_grad();
        for (std::size_t c = 0; c < model.num_clusters(); ++c) {
          tape.reset();
          ad::Var loss = model.cluster_training_loss(tape, w, c);
          tape.backward(loss);
          benchmark::DoNotOptimize(loss);
        }
      });
      results.push_back(
          timed_row("train_step_clustered", kNodes, density, threads, stats));
      std::printf("%-18s %8zu %14.0f %8s\n", "train_step_clustered", threads,
                  stats.median_ns, "(8 clusters)");
    }
  }
  ThreadPool::set_global_threads(0);
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark consumes its --benchmark* flags first; the harness
  // parser picks up the rest (--json=PATH, --seed=N; it also tolerates any
  // --benchmark* stragglers).
  benchmark::Initialize(&argc, argv);
  const rihgcn::bench::BenchOptions opts =
      rihgcn::bench::BenchOptions::parse(argc, argv);
  std::vector<rihgcn::bench::MicroResult> results;
  run_sparse_sweep(opts, results);
  run_simd_sweep(opts, results);
  run_engine_kernel_sweep(opts, results);
  run_dtw_graph_sweep(opts, results);
  run_knn_coords_sweep(opts, results);
  run_train_step_compare(opts, results);
  if (!opts.json_path.empty()) {
    rihgcn::bench::write_micro_json(opts.json_path, results);
    std::printf("(json written to %s)\n", opts.json_path.c_str());
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
