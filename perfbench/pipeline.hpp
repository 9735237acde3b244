// Pieces every workload shares: the timed set-up record, the held-out
// imputation score, and the traced train-step split. Each calls the
// library only through public entry points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "core/rihgcn.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/windows.hpp"

namespace perfbench {

namespace core = rihgcn::core;
namespace data = rihgcn::data;

/// Set-ups per run: setup_s is the median of this many identical set-ups
/// (the same seed gives bitwise the same model each time).
inline constexpr std::size_t kSetups = 3;

/// One set-up, split into named stages that run back to back.
struct SetupRecord {
  struct Stage {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<Stage> stages;
  std::size_t train_windows = 0;  ///< windows train_model processed

  template <class F>
  void stage(const char* name, F&& body) {
    const std::int64_t t0 = now_ns();
    body();
    stages.push_back(Stage{name, t0, now_ns()});
  }
  [[nodiscard]] double stage_s(const char* name) const;
};

/// setup_s, train_samples_per_s and the per-stage layer metrics (medians
/// over the set-ups), plus the check that the stages sum to the whole.
/// `compile_metric` names the compile layer ("core.engine.compile_ms" or
/// "core.sharded_engine.compile_ms"); `spans` (traced run) receives one
/// span per stage.
void report_setups(Report& report, const std::vector<SetupRecord>& setups,
                   const char* compile_stage, const char* compile_metric,
                   SpanLog* spans);

/// Windows train_model processes: epochs run x (capped) training windows.
[[nodiscard]] std::size_t trained_windows(const core::TrainReport& rep,
                                          const data::SplitIndices& split,
                                          const core::TrainConfig& cfg);

/// Imputation MAE by the held-out-entry protocol: on a copy of the series
/// from `first_t` on (day-aligned, so time-of-day slots are unchanged),
/// data::make_imputation_holdout hides `fraction` of the observed entries;
/// RihgcnModel::impute runs on up to `windows` windows that tile the copy
/// without overlap, and is scored on the hidden entries of their lookback
/// (each hidden entry at most once), in original units.
struct ImputeScore {
  double mae = 0.0;
  std::size_t entries = 0;
  std::size_t windows = 0;
  std::vector<double> make_window_ms;  ///< WindowSampler::make_window calls
};
[[nodiscard]] ImputeScore score_imputation(
    core::RihgcnModel& model, const data::TrafficDataset& ds,
    const data::ZScoreNormalizer& norm, std::size_t first_t,
    std::size_t windows, double fraction, std::uint64_t seed);

/// Traced run: forward (training_loss, or cluster_training_loss on a
/// partitioned model), Tape::backward and one Adam step, timed on the
/// workload's own training windows. Parameters are restored afterwards, so
/// the served model is unchanged.
struct StepTimes {
  std::vector<double> forward_ms;
  std::vector<double> backward_ms;
  std::vector<double> adam_ms;
};
[[nodiscard]] StepTimes time_train_steps(core::RihgcnModel& model,
                                         const data::WindowSampler& sampler,
                                         const std::vector<std::size_t>& idx,
                                         std::size_t steps,
                                         const core::TrainConfig& cfg);
void report_train_steps(Report& report, const StepTimes& t);

}  // namespace perfbench
