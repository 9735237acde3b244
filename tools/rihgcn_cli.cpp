// rihgcn — command-line interface over the library, the artifact a
// downstream user runs before writing any C++:
//
//   rihgcn generate --kind pems --out city.ds --missing 0.4
//   rihgcn info     --data city.ds
//   rihgcn train    --data city.ds --out model.ckpt --epochs 12
//   rihgcn evaluate --data city.ds --ckpt model.ckpt
//   rihgcn forecast --data city.ds --ckpt model.ckpt --window 1200
//
// Checkpoints are self-describing: a config header (so `evaluate` can
// rebuild the exact architecture) followed by the parameter blob. Graphs
// are rebuilt deterministically from the dataset + the seed stored in the
// checkpoint.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "core/rihgcn.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"
#include "data/missing.hpp"
#include "nn/optim.hpp"

using namespace rihgcn;

namespace {

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv, int start) {
  Args args;
  for (int i = start; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::runtime_error("expected --flag, got: " + key);
    }
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args[key] = argv[++i];
    } else {
      args[key] = "1";  // boolean flag
    }
  }
  return args;
}

std::string get(const Args& a, const std::string& key,
                const std::string& fallback) {
  auto it = a.find(key);
  return it == a.end() ? fallback : it->second;
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                           const char* expected) {
  throw std::runtime_error("--" + key + " expects " + expected + ", got '" +
                           value + "'");
}

/// Parses the whole token into `out` (std::from_chars takes no sign for an
/// unsigned type, and no leading space or '+' for any type).
template <typename T>
bool parse_whole(const std::string& v, T& out) {
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && end == v.data() + v.size();
}

std::size_t get_size(const Args& a, const std::string& key,
                     std::size_t fallback) {
  auto it = a.find(key);
  if (it == a.end()) return fallback;
  std::size_t n = 0;
  if (!parse_whole(it->second, n)) {
    bad_value(key, it->second, "a non-negative integer");
  }
  return n;
}

/// get_size for sizes that must be at least 1.
std::size_t get_count(const Args& a, const std::string& key,
                      std::size_t fallback) {
  const std::size_t n = get_size(a, key, fallback);
  if (n == 0) bad_value(key, get(a, key, ""), "an integer >= 1");
  return n;
}

double get_double(const Args& a, const std::string& key, double fallback) {
  auto it = a.find(key);
  if (it == a.end()) return fallback;
  double x = 0.0;
  if (!parse_whole(it->second, x) || !std::isfinite(x)) {
    bad_value(key, it->second, "a finite number");
  }
  return x;
}

std::string require(const Args& a, const std::string& key) {
  auto it = a.find(key);
  if (it == a.end()) throw std::runtime_error("missing required --" + key);
  return it->second;
}

// ---- Checkpoint format ------------------------------------------------------

struct CheckpointMeta {
  core::RihgcnConfig model;
  std::size_t num_temporal_graphs = 4;
  std::uint64_t graph_seed = 17;
};

void save_checkpoint(const std::string& path, const CheckpointMeta& meta,
                     core::RihgcnModel& model) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open checkpoint for write");
  os << "rihgcn-ckpt v1\n";
  os << meta.model.lookback << " " << meta.model.horizon << " "
     << meta.model.gcn_dim << " " << meta.model.lstm_dim << " "
     << meta.model.cheb_order << " " << meta.model.hgcn_layers << " "
     << (meta.model.cell == nn::CellKind::kGru ? 1 : 0) << " "
     << meta.model.lambda << " " << (meta.model.bidirectional ? 1 : 0) << " "
     << meta.model.seed << " " << meta.num_temporal_graphs << " "
     << meta.graph_seed << "\n";
  nn::save_parameters(os, model.parameters());
}

CheckpointMeta load_checkpoint_meta(std::istream& is) {
  std::string magic, version;
  is >> magic >> version;
  if (magic != "rihgcn-ckpt" || version != "v1") {
    throw std::runtime_error("bad checkpoint header");
  }
  CheckpointMeta meta;
  int gru = 0, bidir = 1;
  is >> meta.model.lookback >> meta.model.horizon >> meta.model.gcn_dim >>
      meta.model.lstm_dim >> meta.model.cheb_order >>
      meta.model.hgcn_layers >> gru >> meta.model.lambda >> bidir >>
      meta.model.seed >> meta.num_temporal_graphs >> meta.graph_seed;
  if (!is) throw std::runtime_error("truncated checkpoint header");
  meta.model.cell = gru != 0 ? nn::CellKind::kGru : nn::CellKind::kLstm;
  meta.model.bidirectional = bidir != 0;
  return meta;
}

// ---- Shared pipeline pieces ---------------------------------------------------

struct LoadedData {
  data::TrafficDataset ds;  // normalized
  std::size_t train_end = 0;
  std::unique_ptr<data::ZScoreNormalizer> normalizer;
};

LoadedData load_and_normalize(const std::string& path) {
  LoadedData out;
  out.ds = data::load_dataset_file(path);
  out.train_end = out.ds.num_timesteps() * 7 / 10;
  out.normalizer =
      std::make_unique<data::ZScoreNormalizer>(out.ds, out.train_end);
  out.normalizer->normalize(out.ds);
  return out;
}

// ---- Subcommands ------------------------------------------------------------

int cmd_generate(const Args& args) {
  const std::string kind = get(args, "kind", "pems");
  const std::string out = require(args, "out");
  // Every flag is checked before any data is generated.
  const double missing = get_double(args, "missing", 0.0);
  if (missing < 0.0 || missing >= 1.0) {
    bad_value("missing", get(args, "missing", ""), "a rate in [0, 1)");
  }
  const std::string mode = get(args, "missing-mode", "reading");
  if (mode != "entry" && mode != "reading" && mode != "block") {
    throw std::runtime_error("unknown --missing-mode (entry|reading|block)");
  }
  const std::size_t block_len = get_count(args, "block-len", 12);
  data::TrafficDataset ds;
  if (kind == "pems") {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = get_count(args, "nodes", cfg.num_nodes);
    cfg.num_days = get_count(args, "days", cfg.num_days);
    cfg.steps_per_day = get_count(args, "steps-per-day", cfg.steps_per_day);
    cfg.seed = get_size(args, "seed", 42);
    ds = data::generate_pems_like(cfg);
  } else if (kind == "stampede") {
    data::StampedeLikeConfig cfg;
    cfg.num_segments = get_count(args, "nodes", cfg.num_segments);
    cfg.num_days = get_count(args, "days", cfg.num_days);
    cfg.steps_per_day = get_count(args, "steps-per-day", cfg.steps_per_day);
    cfg.seed = get_size(args, "seed", 43);
    ds = data::generate_stampede_like(cfg);
  } else if (kind == "airquality") {
    data::AirQualityConfig cfg;
    cfg.num_stations = get_count(args, "nodes", cfg.num_stations);
    cfg.num_days = get_count(args, "days", cfg.num_days);
    cfg.steps_per_day = get_count(args, "steps-per-day", cfg.steps_per_day);
    cfg.seed = get_size(args, "seed", 44);
    ds = data::generate_air_quality_like(cfg);
  } else {
    throw std::runtime_error("unknown --kind (pems|stampede|airquality)");
  }
  if (missing > 0.0) {
    Rng rng(get_size(args, "seed", 42) + 1);
    if (mode == "entry") {
      data::inject_mcar(ds, missing, rng);
    } else if (mode == "reading") {
      data::inject_mcar_readings(ds, missing, rng);
    } else {
      data::inject_block_missing(ds, missing, block_len, rng);
    }
  }
  data::save_dataset_file(out, ds);
  std::printf("wrote %s: %zu nodes x %zu features x %zu steps, %.1f%% missing\n",
              out.c_str(), ds.num_nodes(), ds.num_features(),
              ds.num_timesteps(), 100.0 * ds.missing_rate());
  return 0;
}

int cmd_info(const Args& args) {
  const data::TrafficDataset ds =
      data::load_dataset_file(require(args, "data"));
  std::printf("name:          %s\n", ds.name.c_str());
  std::printf("nodes:         %zu\n", ds.num_nodes());
  std::printf("features:      %zu\n", ds.num_features());
  std::printf("timesteps:     %zu (%zu/day -> %.1f days)\n",
              ds.num_timesteps(), ds.steps_per_day,
              static_cast<double>(ds.num_timesteps()) /
                  static_cast<double>(ds.steps_per_day));
  std::printf("missing rate:  %.2f%%\n", 100.0 * ds.missing_rate());
  double lo = 1e300, hi = -1e300;
  for (const Matrix& x : ds.truth) {
    lo = std::min(lo, x.min());
    hi = std::max(hi, x.max());
  }
  std::printf("value range:   [%.2f, %.2f]\n", lo, hi);
  return 0;
}

int cmd_train(const Args& args) {
  LoadedData d = load_and_normalize(require(args, "data"));
  const std::string out = require(args, "out");
  CheckpointMeta meta;
  meta.model.lookback = get_size(args, "lookback", 12);
  meta.model.horizon = get_size(args, "horizon", 12);
  meta.model.gcn_dim = get_size(args, "gcn-dim", 12);
  meta.model.lstm_dim = get_size(args, "lstm-dim", 24);
  meta.model.lambda = get_double(args, "lambda", 1.0);
  meta.model.seed = get_size(args, "seed", 7);
  if (get(args, "cell", "lstm") == "gru") {
    meta.model.cell = nn::CellKind::kGru;
  }
  meta.num_temporal_graphs = get_size(args, "graphs", 4);
  meta.graph_seed = get_size(args, "graph-seed", 17);

  Rng rng(meta.graph_seed);
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = meta.num_temporal_graphs;
  const core::HeterogeneousGraphs graphs(d.ds, d.train_end, gcfg, rng);
  core::RihgcnModel model(graphs, d.ds.num_nodes(), d.ds.num_features(),
                          meta.model);
  const data::WindowSampler sampler(d.ds, meta.model.lookback,
                                    meta.model.horizon);
  core::TrainConfig tc;
  tc.max_epochs = get_size(args, "epochs", 10);
  tc.max_train_windows = get_size(args, "train-windows", 200);
  tc.max_val_windows = get_size(args, "val-windows", 48);
  tc.num_threads = get_size(args, "threads", 1);
  tc.verbose = args.count("quiet") == 0;
  // Durable training checkpoints (crash recovery): --checkpoint writes a
  // CRC-verified rihgcn-train-ckpt file every --checkpoint-every epochs;
  // --resume continues from it (same seed/batch/threads => bitwise-identical
  // results to an uninterrupted run).
  tc.checkpoint_path = get(args, "checkpoint", "");
  tc.checkpoint_every = get_size(args, "checkpoint-every", 1);
  tc.resume = args.count("resume") > 0;
  const core::TrainReport report =
      core::train_model(model, sampler, sampler.split(), tc);
  save_checkpoint(out, meta, model);
  std::printf("trained %zu epochs (best val MAE %.4f), checkpoint: %s\n",
              report.epochs_run, report.best_val_mae, out.c_str());
  if (report.resumed_epoch > 0) {
    std::printf("resumed from epoch %zu\n", report.resumed_epoch);
  }
  if (!report.guard.clean()) {
    std::printf(
        "numerical guard intervened: %zu batches skipped "
        "(%zu non-finite losses, %zu non-finite grads, %zu spikes), "
        "%zu LR backoffs, %zu rollbacks\n",
        report.guard.batches_skipped, report.guard.nonfinite_losses,
        report.guard.nonfinite_grads, report.guard.loss_spikes,
        report.guard.lr_backoffs, report.guard.rollbacks);
  }
  return 0;
}

/// Rebuild graphs+model from a checkpoint against a dataset.
struct RestoredModel {
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  std::unique_ptr<core::RihgcnModel> model;
  CheckpointMeta meta;
};

RestoredModel restore(const std::string& ckpt_path, const LoadedData& d) {
  std::ifstream is(ckpt_path);
  if (!is) throw std::runtime_error("cannot open checkpoint");
  RestoredModel r;
  r.meta = load_checkpoint_meta(is);
  Rng rng(r.meta.graph_seed);
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = r.meta.num_temporal_graphs;
  r.graphs = std::make_unique<core::HeterogeneousGraphs>(d.ds, d.train_end,
                                                         gcfg, rng);
  r.model = std::make_unique<core::RihgcnModel>(
      *r.graphs, d.ds.num_nodes(), d.ds.num_features(), r.meta.model);
  nn::load_parameters(is, r.model->parameters());
  return r;
}

int cmd_evaluate(const Args& args) {
  LoadedData d = load_and_normalize(require(args, "data"));
  RestoredModel r = restore(require(args, "ckpt"), d);
  const data::WindowSampler sampler(d.ds, r.meta.model.lookback,
                                    r.meta.model.horizon);
  const data::SplitIndices split = sampler.split();
  const std::size_t cap = get_size(args, "max-windows", 200);
  for (const std::size_t prefix : {3ul, 6ul, 12ul}) {
    if (prefix > r.meta.model.horizon) continue;
    const core::EvalResult res = core::evaluate_prediction(
        *r.model, sampler, split.test, d.normalizer.get(), prefix, cap);
    std::printf("horizon %2zu steps: MAE %.4f  RMSE %.4f\n", prefix, res.mae,
                res.rmse);
  }
  return 0;
}

int cmd_forecast(const Args& args) {
  LoadedData d = load_and_normalize(require(args, "data"));
  RestoredModel r = restore(require(args, "ckpt"), d);
  const data::WindowSampler sampler(d.ds, r.meta.model.lookback,
                                    r.meta.model.horizon);
  const std::size_t at = get_size(args, "window", sampler.num_windows() - 1);
  if (at >= sampler.num_windows()) {
    throw std::runtime_error("--window out of range");
  }
  const data::Window w = sampler.make_window(at);
  // Forecast through the compiled f32 engine — the path ForecastServer
  // serves — not the f64 training tape.
  core::InferenceEngine engine(*r.model, {.max_batch = 1});
  const Matrix pred = engine.predict(w);
  std::printf("forecast from timestep %zu (slot %zu):\n", at, w.slot);
  std::printf("%-6s", "node");
  for (std::size_t h = 0; h < pred.cols(); ++h) {
    std::printf("  +%zustep", h + 1);
  }
  std::printf("\n");
  for (std::size_t i = 0; i < pred.rows(); ++i) {
    std::printf("#%-5zu", i);
    for (std::size_t h = 0; h < pred.cols(); ++h) {
      std::printf("  %7.2f", d.normalizer->denormalize(pred(i, h), 0));
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_summary(const Args& args) {
  LoadedData d = load_and_normalize(require(args, "data"));
  RestoredModel r = restore(require(args, "ckpt"), d);
  std::printf("%s", core::model_summary(*r.model).c_str());
  return 0;
}

void usage() {
  std::printf(
      "rihgcn <command> [--flags]\n"
      "  generate --kind pems|stampede|airquality --out FILE\n"
      "           [--nodes N --days D --steps-per-day S --seed X]\n"
      "           [--missing R --missing-mode entry|reading|block]\n"
      "  info     --data FILE\n"
      "  train    --data FILE --out CKPT [--epochs E --lookback L --horizon H\n"
      "           --gcn-dim P --lstm-dim Q --graphs M --lambda L --cell lstm|gru\n"
      "           --threads T --quiet]\n"
      "           [--checkpoint FILE --checkpoint-every N --resume]\n"
      "           (durable training state; --resume continues a killed run\n"
      "            bitwise-identically given the same seed/batch/threads)\n"
      "  evaluate --data FILE --ckpt CKPT [--max-windows N]\n"
      "  forecast --data FILE --ckpt CKPT [--window T]\n"
      "  summary  --data FILE --ckpt CKPT\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "evaluate") return cmd_evaluate(args);
    if (cmd == "forecast") return cmd_forecast(args);
    if (cmd == "summary") return cmd_summary(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
