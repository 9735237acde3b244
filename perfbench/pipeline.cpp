#include "pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "autodiff/tape.hpp"
#include "data/missing.hpp"
#include "nn/optim.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

using namespace rihgcn;

double SetupRecord::stage_s(const char* name) const {
  for (const Stage& s : stages) {
    if (std::strcmp(s.name, name) == 0) return to_s(s.end_ns - s.start_ns);
  }
  return 0.0;
}

void report_setups(Report& report, const std::vector<SetupRecord>& setups,
                   const char* compile_stage, const char* compile_metric,
                   SpanLog* spans) {
  std::vector<double> total, rate, gen, graphs, train, window_ms, compile;
  std::size_t id = 0;
  for (const SetupRecord& s : setups) {
    ++id;
    const double whole = to_s(s.end_ns - s.start_ns);
    double parts = 0.0;
    for (const SetupRecord::Stage& st : s.stages) {
      parts += to_s(st.end_ns - st.start_ns);
      if (spans != nullptr) {
        spans->add(st.name, id, id, st.start_ns, st.end_ns);
      }
    }
    if (spans != nullptr) spans->add("setup", id, 0, s.start_ns, s.end_ns);
    // The stages run back to back from start to end; what is left is the
    // bookkeeping between them.
    const double tol = std::max(0.01 * whole, 0.005);
    report.check(std::fabs(parts - whole) <= tol,
                 "set-up " + std::to_string(id) + ": stages sum to the whole (" +
                     std::to_string(parts) + " s vs " + std::to_string(whole) +
                     " s, tolerance 1% or 5 ms)");
    const double train_s = s.stage_s("core.trainer.train");
    total.push_back(whole);
    rate.push_back(static_cast<double>(s.train_windows) / train_s);
    gen.push_back(s.stage_s("data.generate"));
    graphs.push_back(s.stage_s("core.graphs.build"));
    train.push_back(train_s);
    window_ms.push_back(1e3 * train_s / static_cast<double>(s.train_windows));
    compile.push_back(1e3 * s.stage_s(compile_stage));
  }
  const std::size_t n = setups.size();
  report.end_to_end("setup_s", median(total), n,
                    "median of " + std::to_string(n) +
                        " set-ups: generate, graphs, train, compile, start, "
                        "warm-up");
  report.end_to_end("train_samples_per_s", median(rate), n,
                    std::to_string(setups.front().train_windows) +
                        " windows per train_model call");
  report.per_layer("data.generate_s", median(gen), n);
  report.per_layer("core.graphs.build_s", median(graphs), n);
  report.per_layer("core.trainer.train_s", median(train), n);
  report.per_layer("core.trainer.window_ms", median(window_ms), n,
                   "train_s / windows trained");
  report.per_layer(compile_metric, median(compile), n);
}

std::size_t trained_windows(const core::TrainReport& rep,
                            const data::SplitIndices& split,
                            const core::TrainConfig& cfg) {
  const std::size_t per_epoch =
      cfg.max_train_windows == 0
          ? split.train.size()
          : std::min(cfg.max_train_windows, split.train.size());
  return rep.epochs_run * per_epoch;
}

ImputeScore score_imputation(core::RihgcnModel& model,
                             const data::TrafficDataset& ds,
                             const data::ZScoreNormalizer& norm,
                             std::size_t first_t, std::size_t windows,
                             double fraction, std::uint64_t seed) {
  const std::size_t spd = ds.steps_per_day;
  const std::size_t t0 = (first_t + spd - 1) / spd * spd;
  data::TrafficDataset slice;
  slice.name = ds.name + "-holdout";
  slice.steps_per_day = spd;
  for (std::size_t t = t0; t < ds.num_timesteps(); ++t) {
    slice.truth.push_back(ds.truth[t]);
    slice.mask.push_back(ds.mask[t]);
  }
  Rng rng(seed);
  const std::vector<Matrix> held =
      data::make_imputation_holdout(slice, fraction, rng);
  const std::size_t lookback = model.config().lookback;
  const data::WindowSampler sampler(slice, lookback, model.config().horizon);
  ImputeScore score;
  const std::size_t count = sampler.num_windows();
  double sum = 0.0;
  for (std::size_t k = 0; k < windows && k * lookback < count; ++k) {
    const std::size_t start = k * lookback;
    const std::int64_t a = now_ns();
    const data::Window w = sampler.make_window(start);
    score.make_window_ms.push_back(to_ms(now_ns() - a));
    const std::vector<Matrix> imputed = model.impute(w);
    for (std::size_t t = 0; t < lookback; ++t) {
      const Matrix& h = held[start + t];
      for (std::size_t i = 0; i < h.rows(); ++i) {
        for (std::size_t d = 0; d < h.cols(); ++d) {
          if (h(i, d) != 1.0) continue;
          sum += std::fabs(norm.denormalize(imputed[t](i, d), d) -
                           norm.denormalize(w.x_truth[t](i, d), d));
          ++score.entries;
        }
      }
    }
    ++score.windows;
  }
  score.mae = score.entries == 0
                  ? 0.0
                  : sum / static_cast<double>(score.entries);
  return score;
}

StepTimes time_train_steps(core::RihgcnModel& model,
                           const data::WindowSampler& sampler,
                           const std::vector<std::size_t>& idx,
                           std::size_t steps, const core::TrainConfig& cfg) {
  const std::vector<ad::Parameter*> params = model.parameters();
  const std::vector<Matrix> saved = nn::snapshot_values(params);
  nn::AdamOptimizer::Config oc;
  oc.lr = cfg.learning_rate;
  oc.max_grad_norm = cfg.max_grad_norm;
  nn::AdamOptimizer opt(params, oc);
  ad::Tape tape;
  StepTimes t;
  const std::size_t clusters = model.num_clusters();
  for (std::size_t k = 0; k < steps; ++k) {
    const data::Window w = sampler.make_window(idx[k % idx.size()]);
    opt.zero_grad();
    tape.reset();
    const std::int64_t a = now_ns();
    const ad::Var loss = clusters > 1
                             ? model.cluster_training_loss(tape, w, k % clusters)
                             : model.training_loss(tape, w);
    const std::int64_t b = now_ns();
    tape.backward(loss);
    const std::int64_t c = now_ns();
    opt.step();
    const std::int64_t d = now_ns();
    t.forward_ms.push_back(to_ms(b - a));
    t.backward_ms.push_back(to_ms(c - b));
    t.adam_ms.push_back(to_ms(d - c));
  }
  opt.zero_grad();
  nn::restore_values(saved, params);
  return t;
}

void report_train_steps(Report& report, const StepTimes& t) {
  const std::size_t n = t.forward_ms.size();
  report.per_layer("autodiff.forward_ms", median(t.forward_ms), n,
                   "training_loss per work item");
  report.per_layer("autodiff.backward_ms", median(t.backward_ms), n,
                   "Tape::backward per work item");
  report.per_layer("nn.adam_step_ms", median(t.adam_ms), n,
                   "AdamOptimizer::step");
}

}  // namespace perfbench
