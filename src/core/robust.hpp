// Fault tolerance for training and serving (DESIGN.md §11).
//
// A deployed forecaster must survive the pathologies the missing-value
// setting implies: feeds that emit NaN/Inf instead of gaps, sensors that
// stick or spike, and long training runs that diverge. This header holds the
// shared robustness vocabulary:
//
//  * NumericalGuard — wraps the train loop's optimizer step. It vetoes a
//    step when the batch loss or any accumulated gradient is non-finite, or
//    when the loss spikes far above its exponential moving average; vetoed
//    batches are skipped, the learning rate is backed off a bounded number
//    of times, and after K consecutive bad steps the parameters AND the Adam
//    moments roll back to the last known-good snapshot. With healthy data
//    the guard is pure observation: it never perturbs a clean run, and all
//    of its counters stay zero (CI asserts this).
//  * Serving-side scrub/sanitize/stuck-detection primitives and the
//    per-stream ReadingBuffer (DESIGN.md §15) behind serve::ForecastServer:
//    ingest sanitization, stuck-sensor demotion, the rolling window the
//    compiled engine reads, and non-finite output scrubbing.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "autodiff/tape.hpp"
#include "data/dataset.hpp"
#include "data/windows.hpp"
#include "nn/optim.hpp"

namespace rihgcn::core {

/// Thresholds for NumericalGuard. Defaults are deliberately loose: the
/// guard exists to catch divergence and corrupt feeds, not to second-guess
/// ordinary optimization noise.
struct GuardConfig {
  bool enabled = true;
  /// A finite batch loss above `spike_factor * EMA(loss)` counts as a spike.
  double spike_factor = 100.0;
  /// EMA decay for the loss trace (per accepted batch).
  double ema_decay = 0.9;
  /// Accepted batches before spike detection arms (the first steps of a run
  /// legitimately move the loss by large factors).
  std::size_t warmup_steps = 5;
  /// K consecutive vetoed batches trigger a parameter + optimizer rollback.
  std::size_t max_consecutive_bad = 3;
  /// Multiply the learning rate by this on each vetoed batch...
  double lr_backoff = 0.5;
  /// ...at most this many times over the whole run (bounded retries).
  std::size_t max_lr_backoffs = 4;
  /// Accepted steps between known-good snapshots (1 = snapshot every step).
  std::size_t snapshot_every = 1;
};

/// Everything the guard did, surfaced in TrainReport. A clean run has all
/// counters at zero.
struct GuardCounters {
  std::size_t batches_skipped = 0;   ///< vetoed batches (sum of the 3 causes)
  std::size_t nonfinite_losses = 0;  ///< vetoes due to NaN/Inf batch loss
  std::size_t nonfinite_grads = 0;   ///< vetoes due to NaN/Inf gradients
  std::size_t loss_spikes = 0;       ///< vetoes due to EMA-relative spikes
  std::size_t lr_backoffs = 0;       ///< learning-rate reductions applied
  std::size_t rollbacks = 0;         ///< snapshot restores performed

  /// True iff the guard never intervened.
  [[nodiscard]] bool clean() const noexcept {
    return batches_skipped == 0 && lr_backoffs == 0 && rollbacks == 0;
  }
};

/// Serializable guard state (carried by nn::TrainCheckpoint so a resumed
/// run continues the EMA trace and backoff budget instead of resetting).
struct GuardState {
  double loss_ema = 0.0;
  bool ema_initialized = false;
  std::size_t good_steps = 0;       ///< accepted batches so far
  std::size_t consecutive_bad = 0;  ///< current bad streak
  std::size_t backoffs_used = 0;    ///< lifetime LR backoffs
};

/// Numerical health guard around an Adam-driven training loop. Usage per
/// batch (see core::train_model):
///
///   optimizer.zero_grad();  ...accumulate and average gradients...
///   if (guard.inspect(batch_loss) == NumericalGuard::Verdict::kSkipBatch)
///     continue;            // no optimizer step; guard handled backoff etc.
///   optimizer.step();
///   guard.after_step();    // marks the new state known-good
///
/// `params` and `optimizer` must outlive the guard. The constructor takes an
/// initial snapshot, so a rollback is well-defined from the first batch.
class NumericalGuard {
 public:
  enum class Verdict { kOk, kSkipBatch };

  NumericalGuard(std::vector<ad::Parameter*> params,
                 nn::AdamOptimizer& optimizer, GuardConfig config);

  /// Examine the averaged batch loss and the accumulated parameter
  /// gradients. kOk means the step is safe to apply; kSkipBatch means the
  /// guard vetoed it (and may have backed off the LR or rolled back).
  [[nodiscard]] Verdict inspect(double batch_loss);
  /// Record that optimizer.step() was applied after a kOk verdict; refreshes
  /// the known-good snapshot on the configured cadence.
  void after_step();

  [[nodiscard]] const GuardCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const GuardState& state() const noexcept { return state_; }
  /// Restore EMA/backoff state from a checkpoint (counters start at zero —
  /// TrainReport counts per run, not per lifetime).
  void set_state(const GuardState& s) noexcept { state_ = s; }

 private:
  void take_snapshot();
  void rollback();

  std::vector<ad::Parameter*> params_;
  nn::AdamOptimizer& optimizer_;
  GuardConfig config_;
  GuardCounters counters_;
  GuardState state_;
  std::vector<Matrix> good_values_;
  nn::AdamOptimizer::State good_opt_;
};

// ---- shared serving-side robustness primitives -----------------------------

/// Replace every non-finite entry of `m` with `replacement` (0.0 = the
/// historical mean in normalized space). Returns the number of entries
/// scrubbed. The server's degraded path routes engine output through this
/// before a value ever reaches a client — a forecast is never non-finite.
std::size_t scrub_non_finite(Matrix& m, double replacement = 0.0);

/// What one sanitize_reading call demoted (for health counters).
struct SanitizeCounts {
  std::size_t sanitized_entries = 0;    ///< non-finite values demoted
  std::size_t coerced_mask_entries = 0; ///< mask entries outside {0,1}
};

/// Ingest sanitization (ForecastServer::ingest): demote non-finite values
/// and malformed mask entries to missing, normalize the survivors.
/// `normalized` and `clean_mask` must be preallocated to the shape of
/// `values`; entries are fully overwritten. A pure function of (values, mask, normalizer) — safe
/// to run on any thread against a frozen normalizer.
SanitizeCounts sanitize_reading(const Matrix& values, const Matrix& mask,
                                const data::ZScoreNormalizer& normalizer,
                                Matrix& normalized, Matrix& clean_mask);

/// Sliding-run stuck-sensor detector (one per ReadingBuffer): a node
/// whose target-feature value repeats exactly `threshold` consecutive
/// observed readings is flagged stuck, and its readings are demoted to
/// missing until the value moves again (real traffic always jitters; a
/// frozen register does not). One instance per stream; feed it every
/// sanitized reading in arrival order.
class StuckSensorDetector {
 public:
  StuckSensorDetector() = default;
  /// `threshold` consecutive identical observed readings flag a node;
  /// 0 disables detection (observe_and_demote becomes a no-op).
  StuckSensorDetector(std::size_t num_nodes, std::size_t threshold);

  /// Inspect one sanitized reading (any consistent unit space — equality is
  /// all that matters) and demote stuck nodes: their rows in `values` and
  /// `mask` are zeroed. Returns the number of readings demoted this call.
  std::size_t observe_and_demote(Matrix& values, Matrix& mask);

  /// Per-node "currently flagged stuck" flags.
  [[nodiscard]] const std::vector<bool>& flags() const noexcept {
    return stuck_;
  }

 private:
  std::size_t threshold_ = 0;
  std::vector<double> last_value_;        ///< per node, target feature
  std::vector<std::size_t> repeat_runs_;  ///< consecutive identical readings
  std::vector<bool> stuck_;               ///< currently flagged stuck
};

/// One stream's rolling buffer of its last `lookback` sanitized, normalized
/// readings (each ForecastServer stream): push() demotes stuck sensors,
/// appends and evicts; window() builds the engine input. Sanitizing,
/// counters and the degradation policy stay with the server.
class ReadingBuffer {
 public:
  /// `start_slot` is the time-of-day slot of the first reading;
  /// `stuck_threshold` arms the StuckSensorDetector (0 disables).
  ReadingBuffer(std::size_t num_nodes, std::size_t num_features,
                std::size_t lookback, std::size_t steps_per_day,
                std::size_t start_slot, std::size_t stuck_threshold);

  /// Append one sanitized reading (normalized values, {0,1} mask) after
  /// stuck-sensor demotion, evicting the oldest beyond `lookback`. Returns
  /// the readings demoted.
  std::size_t push(Matrix values, Matrix mask);

  /// The engine window: `slot`, `x_obs` and `x_mask` over `lookback` steps,
  /// the warm-up left-padded with fully-missing steps (the imputation
  /// machinery fills them). The ground-truth and target members stay
  /// empty — both are unknown online.
  [[nodiscard]] data::Window window() const;

  [[nodiscard]] std::size_t seen() const noexcept { return seen_; }
  /// Time-of-day slot the NEXT reading will be stamped with.
  [[nodiscard]] std::size_t next_slot() const noexcept {
    return (start_slot_ + seen_) % steps_per_day_;
  }

 private:
  std::size_t num_nodes_ = 0, num_features_ = 0, lookback_ = 0;
  std::size_t steps_per_day_ = 1, start_slot_ = 0;
  std::size_t seen_ = 0;
  std::deque<Matrix> values_;  ///< normalized, observed-masked
  std::deque<Matrix> masks_;
  StuckSensorDetector detector_;
};

}  // namespace rihgcn::core
