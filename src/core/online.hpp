// Online forecasting service — the deployment wrapper the paper's abstract
// promises ("the potential to be deployed into real-world traffic
// prediction systems").
//
// A trained ForecastModel consumes fixed-length windows of normalized data;
// a live system instead receives a stream of partial sensor readings in
// ORIGINAL units and wants forecasts on demand. OnlineForecaster bridges
// the two:
//   * maintains a rolling buffer of the last `lookback` readings + masks,
//   * normalizes inputs with the training-time ZScoreNormalizer,
//   * pads the warm-up phase (fewer than `lookback` readings so far) with
//     fully-missing timesteps — exactly what the recurrent imputation
//     machinery was built to handle,
//   * returns forecasts and completed (imputed) recent history in original
//     units.
//
// The wrapper never mutates the model; it is cheap to create per stream.
//
// Graceful degradation (DESIGN.md §11): ingest sanitizes the feed —
// non-finite readings are demoted to missing via the mask (exactly what the
// recurrent imputation machinery was built for) and out-of-{0,1} mask
// entries are coerced; a sliding-window detector flags sensors stuck on one
// value (and demotes their readings) or dead across a full buffer; and
// forecast() falls back to an optional secondary model (typically
// baselines::HistoricalAverageModel) whenever the primary throws or emits
// non-finite output, scrubbing any remaining non-finite entries to the
// historical mean — a forecast is never non-finite. health() reports all of
// it.
#pragma once

#include <cstddef>

#include "core/model.hpp"
#include "core/robust.hpp"
#include "data/dataset.hpp"

namespace rihgcn::core {

class OnlineForecaster {
 public:
  /// `model` and `normalizer` must outlive the forecaster. `steps_per_day`
  /// and `start_slot` anchor the time-of-day used by HGCN interval weights.
  OnlineForecaster(ForecastModel& model,
                   const data::ZScoreNormalizer& normalizer,
                   std::size_t num_nodes, std::size_t num_features,
                   std::size_t lookback, std::size_t horizon,
                   std::size_t steps_per_day, std::size_t start_slot = 0);

  /// Optional fallback forecaster (e.g. baselines::HistoricalAverageModel
  /// built on the same normalized data) used when the primary model throws
  /// or produces non-finite output. Must outlive the forecaster; nullptr
  /// disables model fallback (non-finite outputs are then scrubbed to the
  /// historical mean entry-wise).
  void set_fallback(ForecastModel* fallback) noexcept {
    fallback_ = fallback;
    memo_valid_ = false;  // the robust path may now resolve differently
  }
  /// A sensor whose target-feature value repeats exactly this many
  /// consecutive observed readings is flagged stuck and its readings are
  /// demoted to missing until the value moves again. 0 disables detection.
  void set_stuck_threshold(std::size_t readings) noexcept {
    buffer_.detector().set_threshold(readings);
    memo_valid_ = false;  // future demotions aside, keep semantics simple
  }

  /// Ingest one reading: values in ORIGINAL units; mask flags which entries
  /// are real (same shapes: num_nodes x num_features). Advances the clock
  /// by one slot. Non-finite values and malformed mask entries are
  /// sanitized, never stored.
  void push_reading(const Matrix& values, const Matrix& mask);
  /// Ingest a timestep with no data at all (sensor outage, gap in feed).
  void push_gap();

  /// Forecast of the target feature for the next `horizon` steps, in
  /// ORIGINAL units (num_nodes x horizon). Valid as soon as at least one
  /// reading has been pushed. Guaranteed finite: falls back / scrubs on a
  /// non-finite primary output (see class comment).
  ///
  /// Memoized: repeated calls with no ingest in between return a cached
  /// copy without touching the model (health().memoized_forecasts counts
  /// them). Any ingest — push_reading or push_gap — invalidates the cache,
  /// as do set_fallback and set_stuck_threshold. A throwing forecast caches
  /// nothing.
  [[nodiscard]] Matrix forecast();

  /// Serving health: coverage, suspect sensors, sanitize/fallback counters.
  [[nodiscard]] HealthReport health() const;

  /// The model's completed view of the buffered lookback (original units),
  /// one num_nodes x num_features matrix per buffered step. Empty if the
  /// model cannot impute.
  [[nodiscard]] std::vector<Matrix> completed_history();

  [[nodiscard]] std::size_t readings_seen() const noexcept {
    return buffer_.seen();
  }
  /// Fraction of entries in the current buffer that are real observations.
  [[nodiscard]] double buffer_coverage() const;
  /// Time-of-day slot the NEXT reading will be stamped with.
  [[nodiscard]] std::size_t next_slot() const noexcept {
    return buffer_.next_slot();
  }

 private:
  [[nodiscard]] data::Window make_window() const;
  /// Run the primary model (fallback on throw / non-finite output), then
  /// scrub: any entry still non-finite becomes 0 in normalized space (the
  /// historical mean after denormalization). Returns the normalized
  /// num_nodes x horizon forecast.
  [[nodiscard]] Matrix robust_predict(const data::Window& w);

  ForecastModel& model_;
  const data::ZScoreNormalizer& normalizer_;
  ForecastModel* fallback_ = nullptr;
  std::size_t num_nodes_;
  std::size_t num_features_;
  std::size_t lookback_;
  std::size_t horizon_;

  // ---- Robustness state ----------------------------------------------------
  // The reading buffer, sanitization, stuck detection and scrubbing are the
  // SHARED primitives of core/robust.{hpp,cpp} — serve::ForecastServer
  // degrades identically.
  ReadingBuffer buffer_;
  std::size_t sanitized_entries_ = 0;
  std::size_t coerced_mask_entries_ = 0;
  std::size_t stuck_demotions_ = 0;
  std::size_t model_forecasts_ = 0;
  std::size_t fallback_forecasts_ = 0;
  std::size_t scrubbed_outputs_ = 0;

  // ---- forecast memoization ------------------------------------------------
  bool memo_valid_ = false;
  Matrix memo_forecast_;  ///< original units; valid iff memo_valid_
  std::size_t memoized_forecasts_ = 0;
};

/// Human-readable parameter inventory of a model (name, shape, count),
/// ending with the total — the "model summary" every DL framework grows.
[[nodiscard]] std::string model_summary(ForecastModel& model);

}  // namespace rihgcn::core
