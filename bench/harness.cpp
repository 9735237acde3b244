#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>

namespace rihgcn::bench {

BenchOptions BenchOptions::parse(int argc, char** argv) {
  BenchOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      o.full = true;
    } else if (arg == "--quick") {
      o.full = false;
    } else if (arg.rfind("--seed=", 0) == 0) {
      o.seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--csv=", 0) == 0) {
      o.csv_path = arg.substr(6);
    } else if (arg.rfind("--json=", 0) == 0) {
      o.json_path = arg.substr(7);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "flags: --quick (default) | --full | --seed=N | --csv=PATH | "
          "--json=PATH\n");
      std::exit(0);
    } else if (arg.rfind("--benchmark", 0) == 0) {
      // Tolerate google-benchmark flags when invoked by a runner loop.
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return o;
}

Scale Scale::quick() {
  Scale s;
  s.pems_nodes = 20;
  s.pems_days = 10;
  s.steps_per_day = 288;  // the paper's 5-minute bins
  s.lookback = 12;        // 1 hour
  s.horizon = 12;         // up to 60 min
  s.gcn_dim = 12;
  s.lstm_dim = 24;
  s.hidden = 24;
  s.max_epochs = 14;
  s.max_train_windows = 200;
  s.max_val_windows = 48;
  s.max_eval_windows = 96;
  return s;
}

Scale Scale::full() {
  Scale s;
  s.pems_nodes = 50;
  s.pems_days = 28;
  s.steps_per_day = 288;
  s.lookback = 12;
  s.horizon = 12;
  s.gcn_dim = 64;   // paper: 64 GCN filters
  s.lstm_dim = 128; // paper: LSTM hidden 128
  s.hidden = 64;
  s.max_epochs = 50;
  s.max_train_windows = 0;  // everything
  s.max_val_windows = 0;
  s.max_eval_windows = 0;
  return s;
}

namespace {

void finish_environment_custom(
    Environment& env, const Scale& s, Rng& rng,
    const core::HeteroGraphsConfig& gcfg, double holdout_fraction) {
  if (holdout_fraction > 0.0) {
    env.holdout = data::make_imputation_holdout(env.ds, holdout_fraction, rng);
  }
  env.train_end = env.ds.num_timesteps() * 7 / 10;
  env.normalizer =
      std::make_unique<data::ZScoreNormalizer>(env.ds, env.train_end);
  env.normalizer->normalize(env.ds);
  env.sampler =
      std::make_unique<data::WindowSampler>(env.ds, s.lookback, s.horizon);
  env.split = env.sampler->split();
  env.graphs = std::make_unique<core::HeterogeneousGraphs>(
      env.ds, env.train_end, gcfg, rng);
  core::HeteroGraphsConfig geo_cfg;
  geo_cfg.num_temporal_graphs = 0;
  env.geo_only_graphs = std::make_unique<core::HeterogeneousGraphs>(
      env.ds, env.train_end, geo_cfg, rng);
}

void finish_environment(Environment& env, const Scale& s, Rng& rng,
                        std::size_t num_temporal_graphs,
                        double holdout_fraction) {
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = num_temporal_graphs;
  finish_environment_custom(env, s, rng, gcfg, holdout_fraction);
}

}  // namespace

Environment make_pems_environment_custom(
    const Scale& s, double missing_rate, std::uint64_t seed,
    double holdout_fraction,
    const std::function<void(core::HeteroGraphsConfig&)>& tweak) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = s.pems_nodes;
  cfg.num_days = s.pems_days;
  cfg.steps_per_day = s.steps_per_day;
  cfg.seed = seed;
  Environment env;
  env.ds = data::generate_pems_like(cfg);
  Rng rng(seed * 7919 + 13);
  if (missing_rate > 0.0) {
    data::inject_mcar_readings(env.ds, missing_rate, rng);
  }
  core::HeteroGraphsConfig gcfg;
  if (tweak) tweak(gcfg);
  finish_environment_custom(env, s, rng, gcfg, holdout_fraction);
  return env;
}

Environment make_pems_environment(const Scale& s, double missing_rate,
                                  std::uint64_t seed,
                                  std::size_t num_temporal_graphs,
                                  double holdout_fraction) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = s.pems_nodes;
  cfg.num_days = s.pems_days;
  cfg.steps_per_day = s.steps_per_day;
  cfg.seed = seed;
  Environment env;
  env.ds = data::generate_pems_like(cfg);
  Rng rng(seed * 7919 + 13);
  // Reading-level MCAR: a failed sensor drops all its features at once.
  if (missing_rate > 0.0) {
    data::inject_mcar_readings(env.ds, missing_rate, rng);
  }
  finish_environment(env, s, rng, num_temporal_graphs, holdout_fraction);
  return env;
}

Environment make_stampede_environment(const Scale& s, std::uint64_t seed,
                                      std::size_t num_temporal_graphs) {
  data::StampedeLikeConfig cfg;
  cfg.num_days = s.pems_days;
  cfg.steps_per_day = s.steps_per_day;
  cfg.seed = seed;
  Environment env;
  env.ds = data::generate_stampede_like(cfg);
  Rng rng(seed * 104729 + 7);
  finish_environment(env, s, rng, num_temporal_graphs, 0.0);
  return env;
}

std::vector<std::string> table_method_names() {
  return {"HA",        "VAR",      "ASTGCN",   "GraphWaveNet",
          "FC-LSTM",   "FC-GCN",   "GCN-LSTM", "FC-LSTM-I",
          "FC-GCN-I",  "GCN-LSTM-I", "RIHGCN"};
}

core::TrainConfig train_config(const Scale& s, std::uint64_t seed) {
  core::TrainConfig cfg;
  cfg.max_epochs = s.max_epochs;
  cfg.batch_size = 8;
  cfg.max_train_windows = s.max_train_windows;
  cfg.max_val_windows = s.max_val_windows;
  cfg.seed = seed;
  return cfg;
}

std::unique_ptr<core::RihgcnModel> make_rihgcn(
    const Environment& env, const Scale& s, std::uint64_t seed,
    const std::function<void(core::RihgcnConfig&)>& tweak) {
  core::RihgcnConfig mc;
  mc.lookback = s.lookback;
  mc.horizon = s.horizon;
  mc.gcn_dim = s.gcn_dim;
  mc.lstm_dim = s.lstm_dim;
  mc.seed = seed;
  if (tweak) tweak(mc);
  return std::make_unique<core::RihgcnModel>(
      *env.graphs, env.ds.num_nodes(), env.ds.num_features(), mc);
}

std::unique_ptr<core::ForecastModel> make_and_train(const std::string& name,
                                                    Environment& env,
                                                    const Scale& s,
                                                    std::uint64_t seed,
                                                    double lambda,
                                                    bool verbose) {
  const std::size_t d = env.ds.num_features();
  const CsrMatrix& lap = env.graphs->geographic_scaled_laplacian_csr();
  baselines::NeuralBaselineConfig nb;
  nb.lookback = s.lookback;
  nb.horizon = s.horizon;
  nb.hidden = s.hidden;
  nb.lambda = lambda;
  nb.seed = seed;

  std::unique_ptr<core::ForecastModel> model;
  if (name == "HA") {
    model = std::make_unique<baselines::HistoricalAverageModel>(
        env.ds, env.train_end, s.lookback, s.horizon);
  } else if (name == "VAR") {
    model = std::make_unique<baselines::VarModel>(env.ds, env.train_end,
                                                  s.lookback, s.horizon, 3);
  } else if (name == "ASTGCN") {
    model = std::make_unique<baselines::AstGcnModel>(lap, d, nb);
  } else if (name == "GraphWaveNet") {
    model = std::make_unique<baselines::GraphWaveNetModel>(env.ds.num_nodes(),
                                                           d, nb);
  } else if (name == "FC-LSTM") {
    model = std::make_unique<baselines::FcLstmModel>(d, nb);
  } else if (name == "FC-GCN") {
    model = std::make_unique<baselines::FcGcnModel>(lap, d, nb);
  } else if (name == "GCN-LSTM") {
    model = std::make_unique<baselines::GcnLstmModel>(lap, d, nb);
  } else if (name == "FC-LSTM-I") {
    model = std::make_unique<baselines::FcLstmIModel>(d, nb);
  } else if (name == "FC-GCN-I") {
    model = std::make_unique<baselines::FcGcnIModel>(lap, d, nb);
  } else if (name == "GCN-LSTM-I") {
    // RIHGCN minus the temporal graphs: geographic-only recurrent
    // imputation, via the dedicated M = 0 graph bundle.
    core::RihgcnConfig mc;
    mc.lookback = s.lookback;
    mc.horizon = s.horizon;
    mc.gcn_dim = s.gcn_dim;
    mc.lstm_dim = s.lstm_dim;
    mc.seed = seed;
    mc.lambda = lambda;
    mc.display_name = "GCN-LSTM-I";
    model = std::make_unique<core::RihgcnModel>(
        *env.geo_only_graphs, env.ds.num_nodes(), env.ds.num_features(), mc);
  } else if (name == "RIHGCN") {
    model = make_rihgcn(env, s, seed,
                        [&](core::RihgcnConfig& mc) { mc.lambda = lambda; });
  } else {
    throw std::invalid_argument("unknown method: " + name);
  }
  if (!model->parameters().empty()) {
    core::TrainConfig cfg = train_config(s, seed);
    cfg.verbose = verbose;
    core::train_model(*model, *env.sampler, env.split, cfg);
  }
  return model;
}

void emit(const metrics::ResultTable& table, const BenchOptions& opts) {
  std::printf("%s\n", table.to_string().c_str());
  if (!opts.csv_path.empty()) {
    std::ofstream out(opts.csv_path);
    out << table.to_csv();
    std::printf("(csv written to %s)\n", opts.csv_path.c_str());
  }
}

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void write_micro_json(const std::string& path,
                      const std::vector<MicroResult>& results) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_micro_json: cannot open " + path);
  }
  out << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MicroResult& r = results[i];
    char line[512];
    std::string extra;
    // min/stddev are diagnostic; a 0.0/0.0 pair means "not measured"
    // (counters, single-shot rows) — omit it rather than emit fake zeros.
    if (r.min_ns != 0.0 || r.stddev_ns != 0.0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), ", \"min_ns\": %.1f, \"stddev_ns\": %.1f",
                    r.min_ns, r.stddev_ns);
      extra += buf;
    }
    if (r.workers != 0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), ", \"workers\": %zu", r.workers);
      extra += buf;
    }
    if (!r.kind.empty()) extra += ", \"kind\": \"" + r.kind + "\"";
    if (r.informational) extra += ", \"informational\": true";
    std::snprintf(line, sizeof(line),
                  "  {\"name\": \"%s\", \"n\": %zu, \"density\": %.6f, "
                  "\"ns_per_op\": %.1f, \"threads\": %zu%s}%s\n",
                  r.name.c_str(), r.n, r.density, r.ns_per_op, r.threads,
                  extra.c_str(), i + 1 < results.size() ? "," : "");
    out << line;
  }
  out << "]\n";
}

TimingStats measure_ns_per_op(const std::function<void()>& fn,
                              std::size_t windows, double min_window_sec) {
  fn();  // warmup: touch code and data caches before anything is timed
  fn();
  const auto window_sec = [&fn](std::size_t iters) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  // Grow the iteration count until one window is long enough to trust the
  // clock, then keep it fixed so every window measures the same work.
  std::size_t iters = 1;
  double first = window_sec(iters);
  while (first <= min_window_sec && iters < (std::size_t{1} << 22)) {
    iters *= 4;
    first = window_sec(iters);
  }
  std::vector<double> per_op;
  per_op.reserve(windows);
  per_op.push_back(first * 1e9 / static_cast<double>(iters));
  while (per_op.size() < std::max<std::size_t>(1, windows)) {
    per_op.push_back(window_sec(iters) * 1e9 / static_cast<double>(iters));
  }
  std::sort(per_op.begin(), per_op.end());
  TimingStats stats;
  stats.min_ns = per_op.front();
  const std::size_t k = per_op.size();
  stats.median_ns = k % 2 == 1 ? per_op[k / 2]
                               : 0.5 * (per_op[k / 2 - 1] + per_op[k / 2]);
  double sum = 0.0;
  for (const double v : per_op) sum += v;
  stats.mean_ns = sum / static_cast<double>(k);
  double var = 0.0;
  for (const double v : per_op) {
    const double d = v - stats.mean_ns;
    var += d * d;
  }
  stats.stddev_ns = k > 1 ? std::sqrt(var / static_cast<double>(k - 1)) : 0.0;
  return stats;
}

}  // namespace rihgcn::bench
