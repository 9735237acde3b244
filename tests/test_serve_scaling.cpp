// Tier-2 timed serve-scaling regression (DESIGN.md §16).
//
// The §16 worker pool exists so serving throughput scales with cores instead
// of being hard-ceilinged at the one event-loop thread. This locks that in
// with a wall-clock assertion: closed-loop QPS at 4 ExecPool workers must
// beat 1 worker by RIHGCN_MIN_SCALING (default 1.8, the same contract as the
// ThreadScaling.* kernel tests) — a future change that quietly serializes
// flush execution fails a test instead of a production deployment.
//
// Timed and noisy, so: tier-2 (not the always-on gate), skips on hosts with
// < 4 cores, distinct streams per client (no coalescing masking the engine
// work), and a measurement window long enough to amortize flush timers.
// The engine notes the CPU of every call it serves in the measured window
// (cpu_probe.hpp); a failure prints them, so a host that stacks the
// workers on one CPU is told apart from a flush path that serializes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "cpu_probe.hpp"
#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "serve/server.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace rihgcn {
namespace {

double min_scaling_factor() {
  const char* env = std::getenv("RIHGCN_MIN_SCALING");
  if (env == nullptr || *env == '\0') return 1.8;
  return std::strtod(env, nullptr);
}

bool enough_cores() { return std::thread::hardware_concurrency() >= 4; }

using testutil::CpuSet;

/// The served engine, noting the CPU of each call once `sink` is set — the
/// ExecPool workers are the server's own, so this is where they report.
class CpuNotingEngine : public core::InferenceEngine {
 public:
  CpuNotingEngine(const core::RihgcnModel& model, Options options)
      : core::InferenceEngine(model, options) {}

  const FMatrix& predict_batch(const data::Window* const* windows,
                               std::size_t batch,
                               Workspace& ws) const override {
    if (CpuSet* cpus = sink.load(std::memory_order_acquire)) cpus->note();
    return core::InferenceEngine::predict_batch(windows, batch, ws);
  }

  std::atomic<CpuSet*> sink{nullptr};
};

struct ScalingFixture {
  data::TrafficDataset ds;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  std::unique_ptr<core::RihgcnModel> model;
  std::unique_ptr<data::ZScoreNormalizer> normalizer;
};

ScalingFixture make_fixture() {
  ScalingFixture s;
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 256;  // big enough that predict_batch dominates the loop
  cfg.num_corridors = 25;
  cfg.num_days = 2;
  cfg.steps_per_day = 48;
  cfg.seed = 17;
  s.ds = data::generate_pems_like(cfg);
  Rng rng(5);
  data::inject_mcar(s.ds, 0.4, rng);
  const std::size_t train_end = s.ds.num_timesteps() * 7 / 10;
  s.normalizer = std::make_unique<data::ZScoreNormalizer>(s.ds, train_end);
  s.normalizer->normalize(s.ds);
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = 2;
  gcfg.partition_slots = 24;
  s.graphs = std::make_unique<core::HeterogeneousGraphs>(s.ds, train_end,
                                                         gcfg, rng);
  core::RihgcnConfig mc;
  mc.lookback = 6;
  mc.horizon = 3;
  mc.gcn_dim = 8;
  mc.lstm_dim = 8;
  s.model = std::make_unique<core::RihgcnModel>(*s.graphs, s.ds.num_nodes(),
                                                s.ds.num_features(), mc);
  return s;
}

/// Closed-loop QPS: 8 client threads on 8 DISTINCT streams (no coalescing),
/// each re-issuing as soon as its previous forecast lands. The CPUs of the
/// engine calls in the measured window go to `cpus`.
double measure_qps(const ScalingFixture& s, std::size_t workers,
                   CpuSet& cpus) {
  core::InferenceEngine::Options eopts;
  eopts.max_batch = 8;
  auto engine = std::make_shared<CpuNotingEngine>(*s.model, eopts);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 200;
  cfg.max_queue = 64;
  cfg.num_workers = workers;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  constexpr std::size_t kClients = 8;
  std::vector<std::size_t> ids;
  for (std::size_t c = 0; c < kClients; ++c) {
    ids.push_back(server.add_stream(c));
    Matrix values(s.ds.num_nodes(), s.ds.num_features());
    Matrix mask(s.ds.num_nodes(), s.ds.num_features());
    for (std::size_t i = 0; i < values.rows(); ++i) {
      for (std::size_t f = 0; f < values.cols(); ++f) {
        mask(i, f) = s.ds.mask[3 * c](i, f);
        values(i, f) =
            s.normalizer->denormalize(s.ds.truth[3 * c](i, f), f) * mask(i, f);
      }
    }
    server.ingest(ids[c], values, mask);
    (void)server.forecast(ids[c]);  // warmup: page-in, plan caches
  }
  constexpr auto kWindow = std::chrono::milliseconds(800);
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  engine->sink.store(&cpus, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)server.forecast_async(ids[c]).get();
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(kWindow);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  engine->sink.store(nullptr, std::memory_order_release);  // window over
  return static_cast<double>(completed.load()) / elapsed.count();
}

TEST(ServeScaling, PooledQpsScalesAcrossWorkers) {
  if (!enough_cores()) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  const ScalingFixture s = make_fixture();
  CpuSet cpus1, cpus4;
  const double qps1 = measure_qps(s, 1, cpus1);
  const double qps4 = measure_qps(s, 4, cpus4);
  const double speedup = qps4 / qps1;
  RecordProperty("qps_workers1", static_cast<int>(qps1));
  RecordProperty("qps_workers4", static_cast<int>(qps4));
  RecordProperty("cpus_workers4", cpus4.str());
  EXPECT_GE(speedup, min_scaling_factor())
      << "closed-loop QPS: " << qps1 << " @1 worker vs " << qps4
      << " @4 workers; engine calls ran on CPUs " << cpus1.str()
      << " @1 worker and " << cpus4.str() << " @4 workers ("
      << cpus4.count() << " distinct)";
}

}  // namespace
}  // namespace rihgcn
