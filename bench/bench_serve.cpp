// Serving-path benchmark (DESIGN.md §14): the compiled f32 InferenceEngine
// against the f64 tape forward, and the ForecastServer's sustained
// throughput / latency under concurrent clients.
//
// Rows written to BENCH_serve.json (tools/run_bench.sh --serve):
//   tape_predict / engine_predict (n = 256, 1024) — one query window through
//     RihgcnModel::predict (tape, f64) vs InferenceEngine::predict (compiled
//     f32 plan). The acceptance target is engine >= 2x faster at N = 256.
//   serve_req_ns_cC (n = 256, C = 1/4/16 clients) — mean wall time per
//     answered request over a fixed-duration closed-loop run: 1e9 / QPS, so
//     a QPS drop gates as a timing regression once the rows graduate.
//   serve_p50_ns_cC / serve_p99_ns_cC — client-observed latency percentiles
//     of the same run.
//   serve_qps_cC — the human-readable rate (permanently informational:
//     redundant with serve_req_ns, kept for the JSON reader's convenience).
//
// All clients query ONE stream with no ingest in between, so the server's
// coalescing answers every concurrent burst with a single engine call —
// that, not core count, is what scales QPS with C (acceptance: >= 4x at
// C = 16 vs C = 1).
//
// Worker-pool rows (DESIGN.md §16):
//   serve_req_ns_wK / serve_p50_ns_wK / serve_p99_ns_wK / serve_qps_wK
//     (n = 256, 1024; K = 1/2/4/8) — closed-loop run with 8 clients on 8
//     DISTINCT streams (no coalescing) against a server with K ExecPool
//     workers; the "workers" JSON field records K. QPS scales with K only
//     when the host has the cores — the sweep prints the core count so a
//     flat single-core result reads as the hardware fact it is.
//   sharded_engine_predict (n = 16384, workers = 8 shards) — one city-scale
//     window through the cluster-sharded engine.
// Latency rows carry real min_ns (fastest client-observed sample) and
// stddev_ns (sample spread); rate rows omit both rather than writing 0.0.
//
// Overload & fault-tolerance rows (DESIGN.md §15):
//   serve_overload_req_ns / serve_overload_p99_ns / serve_overload_qps —
//     goodput and successful-request tail under a sustained ~2x-capacity
//     storm: 4 clients on 4 distinct streams against a slow FaultyEngine
//     behind a 2-slot admission queue with a per-request deadline. Sheds
//     and expiries are the designed behaviour; the rows track what the
//     surviving requests cost.
//   serve_fallback_req_ns / serve_fallback_p99_ns — latency of the
//     degraded path with the circuit breaker held OPEN (last-good serving,
//     zero engine calls). The breaker exists so this number stays tiny.
//   serve_ctr_* (kind = "counter") — exact fault counters from a scripted,
//     single-threaded choreography (forced faults, no rates, no timing
//     races): sheds, deadline expiries, breaker open/probe/close,
//     engine failures, fallback responses, canary quarantines, swaps.
//     check_bench.py exact-diffs counter rows, so any drift in §15
//     semantics fails the perf-smoke comparison.
//
// Rows are emitted informational; check_bench.py gates on the committed
// baseline's flag, which is cleared for the serve_ctr_* rows only — every
// timed row stays informational until the runner noise floor is known.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/sharded_engine.hpp"
#include "harness.hpp"
#include "serve/error.hpp"
#include "serve/faulty_engine.hpp"
#include "serve/server.hpp"

namespace {

using namespace rihgcn;

struct ServeEnv {
  data::TrafficDataset ds;
  std::unique_ptr<data::ZScoreNormalizer> normalizer;
  std::unique_ptr<data::WindowSampler> sampler;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  std::unique_ptr<core::RihgcnModel> model;
};

// Serving-scale model (train-step bench dimensions). N = 256 uses the dense
// graph pipeline; N = 1024 the city-scale k-NN sparse pipeline — the same
// split the rest of the bench suite draws at these sizes. Weights are the
// seeded init: perf is weight-independent.
ServeEnv make_env(std::size_t n, std::uint64_t seed) {
  ServeEnv env;
  data::PemsLikeConfig cfg;
  cfg.num_nodes = n;
  cfg.num_corridors = n / 10;
  cfg.num_days = 2;
  cfg.steps_per_day = 48;
  cfg.seed = seed;
  env.ds = data::generate_pems_like(cfg);
  Rng rng(seed + 1);
  data::inject_mcar(env.ds, 0.4, rng);
  const std::size_t train_end = env.ds.num_timesteps() * 7 / 10;
  env.normalizer = std::make_unique<data::ZScoreNormalizer>(env.ds, train_end);
  env.normalizer->normalize(env.ds);
  env.sampler = std::make_unique<data::WindowSampler>(env.ds, 6, 3);
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = 2;
  gcfg.partition_slots = 24;
  if (n > 512) {
    gcfg.knn = 8;
    gcfg.dtw_band = 4;
  }
  env.graphs = std::make_unique<core::HeterogeneousGraphs>(env.ds, train_end,
                                                           gcfg, rng);
  core::RihgcnConfig mc;
  mc.lookback = 6;
  mc.horizon = 3;
  mc.gcn_dim = 8;
  mc.lstm_dim = 8;
  mc.seed = seed;
  env.model = std::make_unique<core::RihgcnModel>(
      *env.graphs, env.ds.num_nodes(), env.ds.num_features(), mc);
  return env;
}

bench::MicroResult serve_row(const std::string& name, std::size_t n,
                             std::size_t threads, double ns,
                             double min_ns = 0.0, double stddev_ns = 0.0,
                             std::size_t workers = 0) {
  bench::MicroResult r;
  r.name = name;
  r.n = n;
  r.ns_per_op = ns;
  r.threads = threads;
  r.min_ns = min_ns;
  r.stddev_ns = stddev_ns;
  r.workers = workers;
  r.informational = true;  // fresh rows: one PR without a trusted baseline
  return r;
}

/// Sample stddev of a latency vector (0 for fewer than two samples).
double sample_stddev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double mean = 0.0;
  for (const double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double ss = 0.0;
  for (const double x : v) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(v.size() - 1));
}

// Deterministic program fact (shed count, breaker transitions, ...):
// ns_per_op carries the value, kind = "counter" makes check_bench.py
// exact-diff it instead of applying the timing threshold.
bench::MicroResult serve_counter(const char* name, std::size_t n,
                                 double value) {
  bench::MicroResult r = serve_row(name, n, 1, value);
  r.kind = "counter";
  return r;
}

// One denormalized reading seeds stream `id` from dataset timestep `t`.
void seed_stream(serve::ForecastServer& server, const ServeEnv& env,
                 std::size_t id, std::size_t t) {
  const std::size_t n = env.ds.num_nodes();
  const std::size_t f = env.ds.num_features();
  Matrix values(n, f);
  Matrix mask(n, f);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < f; ++c) {
      mask(i, c) = env.ds.mask[t](i, c);
      values(i, c) =
          env.normalizer->denormalize(env.ds.truth[t](i, c), c) * mask(i, c);
    }
  }
  server.ingest(id, values, mask);
}

void run_predict_compare(const bench::BenchOptions& opts,
                         std::vector<bench::MicroResult>& results) {
  std::printf("Single-query forward: f64 tape vs compiled f32 engine\n");
  std::printf("%-16s %6s %14s %9s\n", "path", "N", "ns/op", "speedup");
  for (const std::size_t n : {std::size_t{256}, std::size_t{1024}}) {
    ServeEnv env = make_env(n, opts.seed);
    core::InferenceEngine engine(*env.model);
    const data::Window w = env.sampler->make_window(7);
    const bench::TimingStats tape = bench::measure_ns_per_op([&] {
      const Matrix pred = env.model->predict(w);
      if (pred.has_non_finite()) std::abort();
    });
    const bench::TimingStats eng = bench::measure_ns_per_op([&] {
      const Matrix pred = engine.predict(w);
      if (pred.has_non_finite()) std::abort();
    });
    results.push_back(serve_row("tape_predict", n, 1, tape.median_ns,
                                tape.min_ns, tape.stddev_ns));
    results.push_back(serve_row("engine_predict", n, 1, eng.median_ns,
                                eng.min_ns, eng.stddev_ns));
    std::printf("%-16s %6zu %14.0f %9s\n", "tape_predict", n, tape.median_ns,
                "1.00x");
    std::printf("%-16s %6zu %14.0f %8.2fx\n", "engine_predict", n,
                eng.median_ns, tape.median_ns / eng.median_ns);
  }
}

void run_serve_load(const bench::BenchOptions& opts,
                    std::vector<bench::MicroResult>& results) {
  constexpr std::size_t kNodes = 256;
  // --full doubles the measurement window for a tighter tail estimate.
  const double duration_sec = opts.full ? 2.0 : 0.8;
  ServeEnv env = make_env(kNodes, opts.seed);
  auto engine = std::make_shared<core::InferenceEngine>(*env.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 200;
  serve::ForecastServer server(engine, *env.normalizer, cfg);
  const std::size_t id = server.add_stream();
  // One reading seeds the stream; clients never ingest, so every concurrent
  // burst coalesces onto one window.
  seed_stream(server, env, id, 3);
  for (int i = 0; i < 20; ++i) (void)server.forecast(id);  // warmup

  std::printf("\nForecastServer closed-loop load, N=%zu, %.1fs per point\n",
              kNodes, duration_sec);
  std::printf("%-8s %10s %12s %12s %12s\n", "clients", "QPS", "p50_us",
              "p99_us", "calls/req");
  double qps_c1 = 0.0;
  for (const std::size_t clients : {std::size_t{1}, std::size_t{4},
                                    std::size_t{16}}) {
    const serve::ServerStats before = server.stats();
    std::vector<std::vector<double>> lat(clients);
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + std::chrono::duration<double>(duration_sec);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        while (std::chrono::steady_clock::now() < deadline) {
          const auto q0 = std::chrono::steady_clock::now();
          const Matrix pred = server.forecast(id);
          const auto q1 = std::chrono::steady_clock::now();
          if (pred.has_non_finite()) std::abort();
          lat[c].push_back(
              std::chrono::duration<double, std::nano>(q1 - q0).count());
        }
      });
    }
    for (auto& t : threads) t.join();
    const double elapsed = bench::seconds_since(t0);
    std::vector<double> all;
    for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    const std::size_t count = all.size();
    if (count == 0) continue;  // pathological run; leave the rows out
    const double qps = static_cast<double>(count) / elapsed;
    const double p50 = all[count / 2];
    const double p99 = all[std::min(count - 1, count * 99 / 100)];
    const serve::ServerStats after = server.stats();
    const double calls_per_req =
        static_cast<double>(after.engine_calls - before.engine_calls) /
        static_cast<double>(count);
    if (clients == 1) qps_c1 = qps;
    // min/stddev come from the client-observed latency samples; the qps row
    // is a derived rate with no per-sample spread, so it omits them.
    const double lat_min = all.front();
    const double lat_sd = sample_stddev(all);
    const std::string suffix = "_c" + std::to_string(clients);
    results.push_back(serve_row("serve_req_ns" + suffix, kNodes, clients,
                                1e9 / qps, lat_min, lat_sd));
    results.push_back(serve_row("serve_p50_ns" + suffix, kNodes, clients, p50,
                                lat_min, lat_sd));
    results.push_back(serve_row("serve_p99_ns" + suffix, kNodes, clients, p99,
                                lat_min, lat_sd));
    results.push_back(serve_row("serve_qps" + suffix, kNodes, clients, qps));
    std::printf("%-8zu %10.0f %12.0f %12.0f %12.3f\n", clients, qps,
                p50 / 1e3, p99 / 1e3, calls_per_req);
    if (clients == 16 && qps_c1 > 0.0) {
      std::printf("  QPS scaling c16/c1: %.2fx (coalescing)\n", qps / qps_c1);
    }
  }
}

// §16 worker-pool sweep: 8 clients on 8 DISTINCT streams (no coalescing
// relief — every request is its own batch window) against a pooled server
// at K = 1/2/4/8 ExecPool workers. This is the row family the "parallel
// execution layer" PR exists for: on a multi-core host QPS should scale
// with K until cores or max_batch run out; on a single-core host the sweep
// is honest about being flat (the workers field records K either way).
void run_worker_sweep(const bench::BenchOptions& opts,
                      std::vector<bench::MicroResult>& results) {
  constexpr std::size_t kClients = 8;
  const double duration_sec = opts.full ? 2.0 : 0.8;
  for (const std::size_t n : {std::size_t{256}, std::size_t{1024}}) {
    ServeEnv env = make_env(n, opts.seed);
    core::InferenceEngine::Options eopts;
    eopts.max_batch = kClients;
    auto engine = std::make_shared<core::InferenceEngine>(*env.model, eopts);
    std::printf("\nWorker-pool sweep, N=%zu, %zu clients on %zu streams, "
                "%.1fs per point (host cores: %u)\n",
                n, kClients, kClients, duration_sec,
                std::thread::hardware_concurrency());
    std::printf("%-8s %10s %12s %12s\n", "workers", "QPS", "p50_us", "p99_us");
    double qps_w1 = 0.0;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      serve::ServeConfig cfg;
      cfg.max_batch = kClients;
      cfg.max_delay_us = 200;
      cfg.max_queue = 64;
      cfg.num_workers = workers;
      serve::ForecastServer server(engine, *env.normalizer, cfg);
      std::vector<std::size_t> ids;
      for (std::size_t c = 0; c < kClients; ++c) {
        ids.push_back(server.add_stream(c));
        seed_stream(server, env, ids.back(), 3 + c);
        (void)server.forecast(ids.back());  // warmup: plan + workspace caches
      }
      std::vector<std::vector<double>> lat(kClients);
      const auto t0 = std::chrono::steady_clock::now();
      const auto deadline = t0 + std::chrono::duration<double>(duration_sec);
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          while (std::chrono::steady_clock::now() < deadline) {
            const auto q0 = std::chrono::steady_clock::now();
            const Matrix pred = server.forecast(ids[c]);
            const auto q1 = std::chrono::steady_clock::now();
            if (pred.has_non_finite()) std::abort();
            lat[c].push_back(
                std::chrono::duration<double, std::nano>(q1 - q0).count());
          }
        });
      }
      for (auto& t : threads) t.join();
      const double elapsed = bench::seconds_since(t0);
      std::vector<double> all;
      for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
      std::sort(all.begin(), all.end());
      const std::size_t count = all.size();
      if (count == 0) continue;  // pathological run; leave the rows out
      const double qps = static_cast<double>(count) / elapsed;
      const double p50 = all[count / 2];
      const double p99 = all[std::min(count - 1, count * 99 / 100)];
      const double lat_min = all.front();
      const double lat_sd = sample_stddev(all);
      if (workers == 1) qps_w1 = qps;
      const std::string suffix = "_w" + std::to_string(workers);
      results.push_back(serve_row("serve_req_ns" + suffix, n, kClients,
                                  1e9 / qps, lat_min, lat_sd, workers));
      results.push_back(serve_row("serve_p50_ns" + suffix, n, kClients, p50,
                                  lat_min, lat_sd, workers));
      results.push_back(serve_row("serve_p99_ns" + suffix, n, kClients, p99,
                                  lat_min, lat_sd, workers));
      results.push_back(serve_row("serve_qps" + suffix, n, kClients, qps, 0.0,
                                  0.0, workers));
      std::printf("%-8zu %10.0f %12.0f %12.0f\n", workers, qps, p50 / 1e3,
                  p99 / 1e3);
      if (workers == 8 && qps_w1 > 0.0) {
        std::printf("  QPS scaling w8/w1: %.2fx\n", qps / qps_w1);
      }
    }
  }
}

// §16 sharded city-scale forward: one N = 16384 window through the
// cluster-sharded engine (8 shards over the pruned k-NN graph pipeline).
// Few reps — the fixture build alone dominates — so min/stddev come from a
// short hand-rolled sample rather than the growing-window harness.
void run_sharded_predict(const bench::BenchOptions& opts,
                         std::vector<bench::MicroResult>& results) {
  constexpr std::size_t kNodes = 16384;
  constexpr std::size_t kShards = 8;
  std::printf("\nShardedEngine city-scale forward, N=%zu, %zu shards\n",
              kNodes, kShards);
  ServeEnv env = make_env(kNodes, opts.seed);
  core::ShardedEngine::Options sopts;
  sopts.num_shards = kShards;
  core::ShardedEngine sharded(*env.model, sopts);
  const data::Window w = env.sampler->make_window(7);
  {
    const Matrix pred = sharded.predict(w);  // warmup
    if (pred.has_non_finite()) std::abort();
  }
  const std::size_t reps = opts.full ? 7 : 3;
  std::vector<double> samples;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const Matrix pred = sharded.predict(w);
    const auto t1 = std::chrono::steady_clock::now();
    if (pred.has_non_finite()) std::abort();
    samples.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  const double median = samples[samples.size() / 2];
  results.push_back(serve_row("sharded_engine_predict", kNodes, 1, median,
                              samples.front(), sample_stddev(samples),
                              kShards));
  std::printf("  %.1f ms/predict (min %.1f ms over %zu reps)\n", median / 1e6,
              samples.front() / 1e6, reps);
}

// Sustained overload at roughly 2x capacity (DESIGN.md §15): a FaultyEngine
// stalling 2 ms per flush behind a 2-slot admission queue, 4 clients on 4
// DISTINCT streams (no coalescing relief) with a 5 ms default deadline.
// Roughly half the offered load must be shed or expired by design; the rows
// track goodput and the successful-request tail, which is what a client of
// an overloaded-but-healthy server actually observes.
void run_overload_bench(const bench::BenchOptions& opts,
                        std::vector<bench::MicroResult>& results) {
  constexpr std::size_t kNodes = 256;
  constexpr std::size_t kClients = 4;
  const double duration_sec = opts.full ? 2.0 : 0.8;
  ServeEnv env = make_env(kNodes, opts.seed);
  core::InferenceEngine::Options eopts;
  eopts.max_batch = kClients;
  serve::FaultyEngine::FaultConfig faults;
  faults.latency_us = 2000;  // the overload knob: every flush stalls 2 ms
  auto engine = std::make_shared<serve::FaultyEngine>(*env.model, eopts,
                                                      faults);
  serve::ServeConfig cfg;
  cfg.max_batch = kClients;
  cfg.max_delay_us = 200;
  cfg.max_queue = 2;  // half the client count: sustained ~2x overcommit
  cfg.default_deadline_us = 5000;
  serve::ForecastServer server(engine, *env.normalizer, cfg);
  std::vector<std::size_t> ids;
  for (std::size_t c = 0; c < kClients; ++c) {
    ids.push_back(server.add_stream());
    seed_stream(server, env, ids.back(), 3 + c);
  }
  const serve::ServerStats before = server.stats();
  std::vector<std::vector<double>> lat(kClients);
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(duration_sec);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      while (std::chrono::steady_clock::now() < deadline) {
        const auto q0 = std::chrono::steady_clock::now();
        try {
          const Matrix pred = server.forecast(ids[c]);
          if (pred.has_non_finite()) std::abort();
        } catch (const serve::ServeError&) {
          continue;  // shed or expired: designed behaviour, not goodput
        }
        const auto q1 = std::chrono::steady_clock::now();
        lat[c].push_back(
            std::chrono::duration<double, std::nano>(q1 - q0).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = bench::seconds_since(t0);
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const std::size_t count = all.size();
  if (count == 0) return;  // pathological run; leave the rows out
  const serve::ServerStats after = server.stats();
  const double qps = static_cast<double>(count) / elapsed;
  const double p99 = all[std::min(count - 1, count * 99 / 100)];
  const double lat_min = all.front();
  const double lat_sd = sample_stddev(all);
  const std::size_t shed = after.shed_requests - before.shed_requests;
  const std::size_t expired = after.deadline_expired - before.deadline_expired;
  results.push_back(serve_row("serve_overload_req_ns", kNodes, kClients,
                              1e9 / qps, lat_min, lat_sd));
  results.push_back(serve_row("serve_overload_p99_ns", kNodes, kClients, p99,
                              lat_min, lat_sd));
  results.push_back(serve_row("serve_overload_qps", kNodes, kClients, qps));
  std::printf("\nOverload storm (~2x capacity, 2ms engine, queue=2, "
              "deadline=5ms), N=%zu\n", kNodes);
  std::printf("  goodput %.0f QPS, p99 %.0f us; shed %zu, expired %zu of "
              "%zu offered\n", qps, p99 / 1e3, shed, expired,
              count + shed + expired);
}

// Degraded-path latency (DESIGN.md §15): hold the circuit breaker OPEN (two
// forced throws, 60 s cooldown) and measure what a request costs when the
// loop answers straight from the stream's last-good forecast, no engine
// call. This is the latency clients see while the engine is down.
void run_fallback_bench(const bench::BenchOptions& opts,
                        std::vector<bench::MicroResult>& results) {
  constexpr std::size_t kNodes = 256;
  const double duration_sec = opts.full ? 1.0 : 0.4;
  ServeEnv env = make_env(kNodes, opts.seed);
  auto engine = std::make_shared<serve::FaultyEngine>(
      *env.model, core::InferenceEngine::Options{},
      serve::FaultyEngine::FaultConfig{});
  serve::ServeConfig cfg;
  cfg.max_batch = 1;  // flush per request: deterministic breaker choreography
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown_us = 60'000'000;  // breaker stays open for the run
  serve::ForecastServer server(engine, *env.normalizer, cfg);
  const std::size_t id = server.add_stream();
  seed_stream(server, env, id, 3);
  (void)server.forecast(id);  // healthy call populates last_good
  engine->force_throw_next(cfg.breaker_threshold);
  for (std::size_t k = 0; k < cfg.breaker_threshold; ++k) {
    (void)server.forecast(id);  // fallback responses; breaker opens
  }
  const std::size_t calls_open = engine->calls();
  std::vector<double> lat;
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(duration_sec);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto q0 = std::chrono::steady_clock::now();
    const Matrix pred = server.forecast(id);
    const auto q1 = std::chrono::steady_clock::now();
    if (pred.has_non_finite()) std::abort();
    lat.push_back(std::chrono::duration<double, std::nano>(q1 - q0).count());
  }
  if (engine->calls() != calls_open) std::abort();  // breaker must stay open
  std::sort(lat.begin(), lat.end());
  const std::size_t count = lat.size();
  if (count == 0) return;
  const double mean = static_cast<double>(count) /
                      bench::seconds_since(t0);
  const double p99 = lat[std::min(count - 1, count * 99 / 100)];
  const double lat_min = lat.front();
  const double lat_sd = sample_stddev(lat);
  results.push_back(serve_row("serve_fallback_req_ns", kNodes, 1, 1e9 / mean,
                              lat_min, lat_sd));
  results.push_back(serve_row("serve_fallback_p99_ns", kNodes, 1, p99,
                              lat_min, lat_sd));
  std::printf("\nBreaker-open fallback path (last-good, zero engine calls), "
              "N=%zu\n", kNodes);
  std::printf("  %.0f req/s, p50 %.1f us, p99 %.1f us\n", mean,
              lat[count / 2] / 1e3, p99 / 1e3);
}

// Exact §15 fault counters from a scripted single-threaded choreography —
// forced faults only, no rates, no cross-thread races, generous timing
// margins — so every run of this binary produces bit-identical values and
// check_bench.py can exact-diff them as kind = "counter" rows.
void run_fault_counters(const bench::BenchOptions& opts,
                        std::vector<bench::MicroResult>& results) {
  constexpr std::size_t kNodes = 256;
  ServeEnv env = make_env(kNodes, opts.seed);

  // --- Part 1: bounded admission + deadlines --------------------------------
  // Queue of 2, flush only on drain (60 s delay timer, batch of 8 never
  // reached): four async requests on four distinct streams admit exactly two
  // and shed exactly two; a fifth request with a 1 us deadline expires
  // (on-arrival or via its queue timer — both count once) before any flush.
  std::size_t shed = 0, expired = 0;
  {
    auto engine = std::make_shared<serve::FaultyEngine>(
        *env.model, core::InferenceEngine::Options{},
        serve::FaultyEngine::FaultConfig{});
    serve::ServeConfig cfg;
    cfg.max_batch = 8;
    cfg.max_delay_us = 60'000'000;
    cfg.max_queue = 2;
    cfg.shed_policy = serve::ShedPolicy::kRejectNew;
    serve::ForecastServer server(engine, *env.normalizer, cfg);
    std::vector<std::size_t> ids;
    for (std::size_t c = 0; c < 4; ++c) {
      ids.push_back(server.add_stream());
      seed_stream(server, env, ids.back(), 3 + c);
    }
    std::vector<std::future<Matrix>> futs;
    for (std::size_t c = 0; c < 4; ++c) {
      futs.push_back(server.forecast_async(ids[c]));
    }
    auto doomed = server.forecast_async(ids[0], std::uint64_t{1});
    try {
      (void)doomed.get();
      std::abort();  // a 1 us deadline with a 60 s flush timer cannot win
    } catch (const serve::ServeError&) {
    }
    for (std::size_t c = 2; c < 4; ++c) {
      try {
        (void)futs[c].get();
        std::abort();  // beyond max_queue: must be OVERLOADED
      } catch (const serve::ServeError&) {
      }
    }
    server.drain();  // final flush serves the two admitted windows
    (void)futs[0].get();
    (void)futs[1].get();
    const serve::ServerStats s = server.stats();
    shed = s.shed_requests;
    expired = s.deadline_expired;
  }

  // --- Part 2: breaker lifecycle, fallback, canary quarantine ---------------
  serve::ServerStats fault_stats;
  {
    auto engine = std::make_shared<serve::FaultyEngine>(
        *env.model, core::InferenceEngine::Options{},
        serve::FaultyEngine::FaultConfig{});
    serve::ServeConfig cfg;
    cfg.max_batch = 1;  // every request is its own flush
    cfg.breaker_threshold = 2;
    cfg.breaker_cooldown_us = 200'000;
    serve::ForecastServer server(engine, *env.normalizer, cfg);
    const std::size_t id = server.add_stream();
    seed_stream(server, env, id, 3);
    (void)server.forecast(id);  // healthy: last_good populated
    engine->force_throw_next(2);
    (void)server.forecast(id);  // failure 1: fallback response
    (void)server.forecast(id);  // failure 2: fallback, breaker OPEN
    (void)server.forecast(id);  // open + inside cooldown: fallback, no call
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    (void)server.forecast(id);  // half-open probe succeeds: breaker CLOSED
    // Canary gate: a NaN-poisoning candidate and a throwing candidate are
    // both quarantined; a healthy one swaps.
    serve::FaultyEngine::FaultConfig nan_always;
    nan_always.nan_rate = 1.0;
    if (server.publish(std::make_shared<serve::FaultyEngine>(
            *env.model, core::InferenceEngine::Options{}, nan_always))) {
      std::abort();
    }
    auto thrower = std::make_shared<serve::FaultyEngine>(
        *env.model, core::InferenceEngine::Options{},
        serve::FaultyEngine::FaultConfig{});
    thrower->force_throw_next(1);
    if (server.publish(thrower)) std::abort();
    if (!server.publish(std::make_shared<core::InferenceEngine>(*env.model))) {
      std::abort();
    }
    server.drain();  // join the loop so the posted swap is counted
    fault_stats = server.stats();
  }

  results.push_back(serve_counter("serve_ctr_shed", kNodes,
                                  static_cast<double>(shed)));
  results.push_back(serve_counter("serve_ctr_deadline_expired", kNodes,
                                  static_cast<double>(expired)));
  results.push_back(serve_counter(
      "serve_ctr_engine_failures", kNodes,
      static_cast<double>(fault_stats.engine_failures)));
  results.push_back(serve_counter(
      "serve_ctr_fallback_responses", kNodes,
      static_cast<double>(fault_stats.fallback_responses)));
  results.push_back(serve_counter(
      "serve_ctr_breaker_opens", kNodes,
      static_cast<double>(fault_stats.breaker_opens)));
  results.push_back(serve_counter(
      "serve_ctr_breaker_probes", kNodes,
      static_cast<double>(fault_stats.breaker_probes)));
  results.push_back(serve_counter(
      "serve_ctr_breaker_closes", kNodes,
      static_cast<double>(fault_stats.breaker_closes)));
  results.push_back(serve_counter(
      "serve_ctr_quarantined", kNodes,
      static_cast<double>(fault_stats.quarantined_publishes)));
  results.push_back(serve_counter(
      "serve_ctr_snapshot_swaps", kNodes,
      static_cast<double>(fault_stats.snapshot_swaps)));
  std::printf("\nFault counters (scripted): shed=%zu expired=%zu "
              "failures=%zu fallback=%zu opens=%zu probes=%zu closes=%zu "
              "quarantined=%zu swaps=%zu\n",
              shed, expired, fault_stats.engine_failures,
              fault_stats.fallback_responses, fault_stats.breaker_opens,
              fault_stats.breaker_probes, fault_stats.breaker_closes,
              fault_stats.quarantined_publishes, fault_stats.snapshot_swaps);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  std::vector<bench::MicroResult> results;
  run_predict_compare(opts, results);
  run_serve_load(opts, results);
  run_worker_sweep(opts, results);
  run_sharded_predict(opts, results);
  run_overload_bench(opts, results);
  run_fallback_bench(opts, results);
  run_fault_counters(opts, results);
  if (!opts.json_path.empty()) {
    bench::write_micro_json(opts.json_path, results);
    std::printf("(json written to %s)\n", opts.json_path.c_str());
  }
  return 0;
}
