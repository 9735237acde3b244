// city_backfill: an N=16384 city grid, k-NN sparse graphs with pruned DTW,
// Cluster-GCN training, then core::ShardedEngine (8 shards on the kernel
// pool) forecasting every window of the held-out span in order from one
// caller, back to back. serve is not used.
//
// There is no queue in front of the engine (one caller, one window at a
// time), so each window's latency is its own service time: make_window
// plus ShardedEngine::predict.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "core/sharded_engine.hpp"
#include "core/trainer.hpp"
#include "data/missing.hpp"
#include "data/windows.hpp"
#include "pipeline.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rihgcn;

constexpr std::size_t kGridSide = 128;  // N = 128 x 128 = 16384 sensors
constexpr std::size_t kDays = 12;
constexpr std::size_t kStepsPerDay = 12;  // 2-hour bins
constexpr std::size_t kShards = 8;
constexpr double kLatencyLimitMs = 50.0;
constexpr double kMaeCeiling = 15.0;  // mph
constexpr std::size_t kSampleEvery = 97;  // correctness sample stride
/// The back-to-back phase runs at least this many windows, so its p99 has
/// at least 10 samples beyond it however slow the host is.
constexpr std::size_t kMinWindows = 1000;

/// The city is built straight into TrafficDataset's public fields, with no
/// N x N matrix: geo_distances stays empty, so the graphs come from k-NN
/// over the coordinates. (data::generate_* would allocate an N x N
/// geo_distances, 2 GiB at this size.) Speeds have two daily rush hours
/// whose timing and depth depend on the sensor's district, so the DTW
/// temporal graphs have structure to find.
data::TrafficDataset make_city(std::uint64_t seed) {
  const std::size_t n = kGridSide * kGridSide;
  // The sensor layout is the city's map and stays fixed; the seed draws
  // the traffic on it.
  Rng layout(0x63697479ULL);
  Rng rng(seed);
  data::TrafficDataset ds;
  ds.name = "city16k";
  ds.steps_per_day = kStepsPerDay;
  ds.coords = Matrix(n, 2);
  std::vector<double> free_flow(n), am(n), pm(n), depth(n), phase(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % kGridSide);
    const double y = static_cast<double>(i / kGridSide);
    ds.coords(i, 0) = 0.5 * x + layout.uniform(-0.2, 0.2);  // km
    ds.coords(i, 1) = 0.5 * y + layout.uniform(-0.2, 0.2);
    const std::size_t district = (i % kGridSide) / 32 + 4 * ((i / kGridSide) / 32);
    free_flow[i] = rng.normal(55.0, 5.0);
    am[i] = 7.5 + 0.25 * static_cast<double>(district % 4) + rng.normal(0.0, 0.2);
    pm[i] = 17.0 + 0.25 * static_cast<double>(district / 4) + rng.normal(0.0, 0.2);
    depth[i] = rng.uniform(0.2, 0.5);
    phase[i] = rng.uniform(0.0, 6.283185307179586);
  }
  const std::size_t total = kDays * kStepsPerDay;
  ds.truth.reserve(total);
  ds.mask.reserve(total);
  for (std::size_t t = 0; t < total; ++t) {
    const double hour =
        24.0 * static_cast<double>(t % kStepsPerDay) / kStepsPerDay;
    Matrix x(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      const double rush = std::exp(-0.5 * std::pow((hour - am[i]) / 1.2, 2)) +
                          std::exp(-0.5 * std::pow((hour - pm[i]) / 1.5, 2));
      x(i, 0) = free_flow[i] * (1.0 - depth[i] * rush) +
                1.5 * std::sin(0.3 * hour + phase[i]) + rng.normal(0.0, 1.0);
    }
    ds.truth.push_back(std::move(x));
    ds.mask.emplace_back(n, 1, 1.0);
  }
  Rng miss(seed ^ 0x6d697373ULL);
  data::inject_mcar_readings(ds, 0.2, miss);
  ds.validate();
  return ds;
}

struct CityEnv {
  data::TrafficDataset ds;
  std::size_t train_end = 0;
  std::unique_ptr<data::ZScoreNormalizer> norm;
  std::unique_ptr<data::WindowSampler> sampler;
  data::SplitIndices split;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  std::unique_ptr<core::RihgcnModel> model;
  core::TrainReport train_report;
  std::unique_ptr<core::ShardedEngine> engine;
};

core::HeteroGraphsConfig graph_config() {
  core::HeteroGraphsConfig g;
  g.num_temporal_graphs = 2;
  g.partition_slots = 12;
  g.knn = 8;
  g.prune_dtw = true;
  g.dtw_band = 1;
  return g;
}

core::RihgcnConfig model_config() {
  core::RihgcnConfig m;
  m.lookback = 6;
  m.horizon = 3;
  m.gcn_dim = 4;
  m.lstm_dim = 8;
  m.cheb_order = 2;
  m.bidirectional = false;
  m.use_consistency = false;
  return m;
}

core::TrainConfig train_config() {
  core::TrainConfig t;
  t.max_epochs = 2;
  t.batch_size = 2;
  t.max_train_windows = 16;
  t.max_val_windows = 1;
  t.num_clusters = 16;
  t.num_threads = 4;  // one (window, cluster) item per worker
  t.patience = 100;
  return t;
}

core::ShardedEngine::Options engine_options(bool parallel) {
  core::ShardedEngine::Options o;
  o.num_shards = kShards;
  o.parallel = parallel;
  return o;
}

std::unique_ptr<CityEnv> set_up(std::uint64_t seed, SetupRecord& rec) {
  auto env = std::make_unique<CityEnv>();
  rec.start_ns = now_ns();
  rec.stage("data.generate", [&] {
    env->ds = make_city(seed);
    env->train_end = env->ds.num_timesteps() * 7 / 10;
    env->norm = std::make_unique<data::ZScoreNormalizer>(env->ds,
                                                         env->train_end);
    env->norm->normalize(env->ds);
    const core::RihgcnConfig mc = model_config();
    env->sampler = std::make_unique<data::WindowSampler>(env->ds, mc.lookback,
                                                         mc.horizon);
    env->split = env->sampler->split(0.7, 0.15);
  });
  rec.stage("core.graphs.build", [&] {
    Rng rng(seed ^ 0x67726166ULL);
    env->graphs = std::make_unique<core::HeterogeneousGraphs>(
        env->ds, env->train_end, graph_config(), rng);
  });
  rec.stage("core.model.init", [&] {
    env->model = std::make_unique<core::RihgcnModel>(
        *env->graphs, env->ds.num_nodes(), env->ds.num_features(),
        model_config());
  });
  const core::TrainConfig tc = train_config();
  rec.stage("core.trainer.train", [&] {
    // The trainer brings its own workers; the kernel pool shrinks to the
    // caller meanwhile so the process stays within its thread budget.
    ThreadPool::set_global_threads(1);
    env->train_report =
        core::train_model(*env->model, *env->sampler, env->split, tc);
    ThreadPool::set_global_threads(kernel_threads("city_backfill"));
  });
  rec.train_windows = trained_windows(env->train_report, env->split, tc);
  rec.stage("core.sharded_engine.compile", [&] {
    env->engine = std::make_unique<core::ShardedEngine>(
        *env->model, engine_options(/*parallel=*/true));
  });
  rec.stage("core.sharded_engine.warmup", [&] {
    const data::Window w = env->sampler->make_window(env->split.val.front());
    if (env->engine->predict(w).has_non_finite()) {
      throw std::runtime_error("warm-up forecast is not finite");
    }
  });
  rec.end_ns = now_ns();
  return env;
}

/// Held-out window starts: every window after the training prefix.
std::vector<std::size_t> held_out(const CityEnv& env) {
  std::vector<std::size_t> starts = env.split.val;
  starts.insert(starts.end(), env.split.test.begin(), env.split.test.end());
  return starts;
}

/// capacity_rps is the median rate over runs of this many windows, and
/// forecast_p99_ms the median p99 over blocks of this many windows.
constexpr std::size_t kRateGroup = 32;
constexpr std::size_t kP99Block = 1000;

struct Backfill {
  std::vector<double> latency_ms, make_window_ms, predict_ms;
  std::vector<std::int64_t> done_ns;
  std::size_t attempted = 0, failed = 0, in_limit = 0;
  double mae_sum = 0.0;
  std::size_t mae_entries = 0;
  std::vector<std::pair<std::size_t, Matrix>> samples;  ///< (start, output)
};

/// Forecasts the held-out span in order, cycling, for `seconds` and at least
/// kMinWindows windows. The first pass (every window once) is scored
/// against the ground truth.
Backfill run_backfill(CityEnv& env, double seconds, SpanLog* spans,
                      ThreadPlan& threads) {
  const std::vector<std::size_t> starts = held_out(env);
  Backfill b;
  const std::int64_t t_begin = now_ns();
  const std::int64_t t_end = t_begin + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t t_last = t_begin;
  for (std::size_t k = 0;
       t_last < t_end || k < std::max(starts.size(), kMinWindows); ++k) {
    const std::size_t start = starts[k % starts.size()];
    const std::int64_t t0 = now_ns();
    const data::Window w = env.sampler->make_window(start);
    const std::int64_t t1 = now_ns();
    Matrix pred = env.engine->predict(w);
    const std::int64_t t2 = now_ns();
    t_last = t2;
    b.done_ns.push_back(t2);
    ++b.attempted;
    const bool ok = pred.rows() == env.ds.num_nodes() &&
                    pred.cols() == w.y.size() && !pred.has_non_finite();
    const double ms = to_ms(t2 - t0);
    b.latency_ms.push_back(ms);
    b.make_window_ms.push_back(to_ms(t1 - t0));
    b.predict_ms.push_back(to_ms(t2 - t1));
    if (!ok) {
      ++b.failed;
      continue;
    }
    if (ms <= kLatencyLimitMs) ++b.in_limit;
    if (k < starts.size()) {
      for (std::size_t i = 0; i < pred.rows(); ++i) {
        for (std::size_t h = 0; h < pred.cols(); ++h) {
          b.mae_sum += std::fabs(env.norm->denormalize(pred(i, h), 0) -
                                 env.norm->denormalize(w.y[h](i, 0), 0));
        }
      }
      b.mae_entries += pred.size();
    }
    if (k % kSampleEvery == 0) b.samples.emplace_back(start, std::move(pred));
    if (spans != nullptr) {
      const std::uint64_t id = k + 1;
      spans->add("forecast", id, 0, t0, t2);
      spans->add("data.make_window", id, id, t0, t1);
      spans->add("core.sharded_engine.predict", id, id, t1, t2);
    }
    if (k % 256 == 0) threads.observe();
  }
  return b;
}

/// Sampled forecasts are bitwise equal to a serial ShardedEngine
/// (Options::parallel = false) over the same model.
void verify_samples(Report& report, const std::string& phase,
                    const CityEnv& env, const Backfill& b) {
  core::ShardedEngine serial(*env.model, engine_options(false));
  std::size_t equal = 0;
  for (const auto& [start, served] : b.samples) {
    const Matrix ref = serial.predict(env.sampler->make_window(start));
    if (ref.same_shape(served) &&
        std::memcmp(ref.data(), served.data(), ref.size() * sizeof(double)) ==
            0) {
      ++equal;
    }
  }
  report.check(!b.samples.empty() && equal == b.samples.size(),
               phase + ": sampled forecasts bitwise equal to the serial "
                       "ShardedEngine (" +
                   std::to_string(equal) + "/" +
                   std::to_string(b.samples.size()) + ")");
}

}  // namespace

void run_city(const Args& args, Report& report) {
  const std::size_t kernel_workers = ThreadPool::global().num_threads() - 1;
  // Graph construction uses the kernel pool, training its own workers; the
  // two never run at once (see set_up), so the larger of them counts.
  ThreadPlan setup_threads{
      "setup",
      {{"main", 1},
       {"kernel_pool_or_trainer_workers",
        std::max(kernel_workers, train_config().num_threads - 1)}}};
  std::vector<SetupRecord> setups(kSetups);
  std::unique_ptr<CityEnv> env;
  for (SetupRecord& rec : setups) {
    env.reset();
    env = set_up(args.seed, rec);
    setup_threads.observe();
    report.info("set-up: " + std::to_string(to_s(rec.end_ns - rec.start_ns)) +
                " s, peak RSS so far " + std::to_string(peak_rss_mib()) +
                " MiB");
  }
  SpanLog spans;
  report_setups(report, setups, "core.sharded_engine.compile",
                "core.sharded_engine.compile_ms", args.trace ? &spans : nullptr);
  const core::GuardCounters& g = env->train_report.guard;
  const double guard_events = static_cast<double>(
      g.batches_skipped + g.nonfinite_losses + g.nonfinite_grads);
  report.per_layer("core.trainer.guard_events", guard_events, 1,
                   "TrainReport::guard counts");
  report.check(guard_events == 0.0, "training guard never intervened");
  const ts::KnnStats& knn = env->graphs->temporal_knn_stats();
  report.per_layer("timeseries.dtw_started_frac",
                   knn.pairs == 0 ? 0.0
                                  : static_cast<double>(knn.dtw_started) /
                                        static_cast<double>(knn.pairs),
                   knn.pairs,
                   "dtw_started " + std::to_string(knn.dtw_started) +
                       " / pairs " + std::to_string(knn.pairs));

  ThreadPlan run_threads{"backfill",
                         {{"caller", 1}, {"kernel_pool", kernel_workers}}};
  const Backfill base = run_backfill(*env, args.seconds, nullptr, run_threads);
  verify_samples(report, "untraced", *env, base);
  report.count_attempted(base.attempted);
  report.count_failed(base.failed);
  const double rss_untraced = peak_rss_mib();
  const ImputeScore imp = score_imputation(
      *env->model, env->ds, *env->norm, env->train_end, 4, 0.2,
      args.seed ^ 0x686f6c64ULL);
  const double mae =
      base.mae_entries == 0
          ? 0.0
          : base.mae_sum / static_cast<double>(base.mae_entries);
  const std::size_t n = base.latency_ms.size();
  report.end_to_end("peak_rss_mb", rss_untraced, 1, "getrusage ru_maxrss");
  report.end_to_end("forecast_p50_ms", quantile(base.latency_ms, 0.5), n,
                    "per window: make_window + predict (no queue)");
  std::size_t block = 0;
  const double p99 = block_quantile(base.latency_ms, 0.99, kP99Block, &block);
  report.ungated("forecast_p99_ms", p99, "ms", n,
                    "median over " + std::to_string(n / block) +
                        " blocks of consecutive windows, " +
                        std::to_string(samples_beyond(block, 0.99)) +
                        " samples beyond each p99");
  report.check(samples_beyond(block, 0.99) >= 10,
               "p99 has at least 10 samples beyond it (" +
                   std::to_string(samples_beyond(block, 0.99)) + ")");
  report.end_to_end("answered_frac",
                    static_cast<double>(base.in_limit) /
                        static_cast<double>(base.attempted),
                    base.attempted,
                    "finite and within " + std::to_string(kLatencyLimitMs) +
                        " ms");
  report.end_to_end("capacity_rps", median_rate(base.done_ns, kRateGroup), n,
                    "windows forecast back to back per second; median rate "
                    "over runs of " +
                        std::to_string(kRateGroup) + " windows");
  report.end_to_end("forecast_mae", mae, base.mae_entries,
                    "mph, first pass over " +
                        std::to_string(held_out(*env).size()) +
                        " held-out windows");
  report.end_to_end("impute_mae", imp.mae, imp.entries,
                    std::to_string(imp.windows) + " windows, 20% held out");
  report.check(mae < kMaeCeiling && imp.mae < kMaeCeiling && imp.entries > 0,
               "forecast_mae and impute_mae are finite and under " +
                   std::to_string(kMaeCeiling));
  report.per_layer("data.make_window_ms", median(base.make_window_ms), n,
                   "WindowSampler::make_window");
  report.per_layer("core.sharded_engine.predict_ms_p50",
                   median(base.predict_ms), n,
                   std::to_string(env->engine->num_shards()) + " shards");

  if (args.trace) {
    const Backfill traced = run_backfill(*env, args.seconds, &spans,
                                         run_threads);
    verify_samples(report, "traced", *env, traced);
    report.count_attempted(traced.attempted);
    report.count_failed(traced.failed);
    report.info("window parts (make_window + predict) are consecutive spans "
                "and sum to each window's latency exactly");
    report.overhead("forecast_p50_ms", quantile(traced.latency_ms, 0.5),
                    quantile(base.latency_ms, 0.5));
    report.overhead("forecast_p99_ms",
                    block_quantile(traced.latency_ms, 0.99, kP99Block), p99);
    report.overhead("capacity_rps", median_rate(traced.done_ns, kRateGroup),
                    median_rate(base.done_ns, kRateGroup));
    report.overhead("forecast_mae",
                    traced.mae_sum / static_cast<double>(traced.mae_entries),
                    mae);
    report_train_steps(report,
                       time_train_steps(*env->model, *env->sampler,
                                        env->split.train, 16,
                                        train_config()));
    report.info("tracing overhead peak_rss_mb: traced " +
                std::to_string(peak_rss_mib()) + " - untraced " +
                std::to_string(rss_untraced));
    report.check(spans.write(args.trace_out),
                 "spans written to " + args.trace_out);
  }
  setup_threads.check(report);
  run_threads.check(report);
}

}  // namespace perfbench
