#include "core/robust.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rihgcn::core {

NumericalGuard::NumericalGuard(std::vector<ad::Parameter*> params,
                               nn::AdamOptimizer& optimizer,
                               GuardConfig config)
    : params_(std::move(params)), optimizer_(optimizer), config_(config) {
  if (config_.ema_decay < 0.0 || config_.ema_decay >= 1.0) {
    throw std::invalid_argument("NumericalGuard: ema_decay must be in [0,1)");
  }
  if (config_.spike_factor <= 1.0) {
    throw std::invalid_argument("NumericalGuard: spike_factor must be > 1");
  }
  if (config_.max_consecutive_bad == 0 || config_.snapshot_every == 0) {
    throw std::invalid_argument(
        "NumericalGuard: max_consecutive_bad and snapshot_every must be > 0");
  }
  // The pre-training state is the first known-good snapshot: a run whose
  // very first batches are corrupt rolls back to initialization instead of
  // stepping into NaN.
  take_snapshot();
}

NumericalGuard::Verdict NumericalGuard::inspect(double batch_loss) {
  if (!config_.enabled) return Verdict::kOk;

  bool bad = false;
  if (!std::isfinite(batch_loss)) {
    ++counters_.nonfinite_losses;
    bad = true;
  } else {
    for (const ad::Parameter* p : params_) {
      if (p->grad().has_non_finite()) {
        ++counters_.nonfinite_grads;
        bad = true;
        break;
      }
    }
    if (!bad && state_.ema_initialized &&
        state_.good_steps >= config_.warmup_steps) {
      // EMA-relative spike. |EMA| floors at a tiny constant so a loss that
      // has converged to ~0 does not turn ordinary noise into "spikes".
      const double ref = std::max(std::abs(state_.loss_ema), 1e-12);
      if (batch_loss > config_.spike_factor * ref) {
        ++counters_.loss_spikes;
        bad = true;
      }
    }
  }

  if (!bad) {
    state_.loss_ema = state_.ema_initialized
                          ? config_.ema_decay * state_.loss_ema +
                                (1.0 - config_.ema_decay) * batch_loss
                          : batch_loss;
    state_.ema_initialized = true;
    return Verdict::kOk;
  }

  ++counters_.batches_skipped;
  ++state_.consecutive_bad;
  if (state_.backoffs_used < config_.max_lr_backoffs) {
    optimizer_.set_lr(optimizer_.current_lr() * config_.lr_backoff);
    ++state_.backoffs_used;
    ++counters_.lr_backoffs;
  }
  if (state_.consecutive_bad >= config_.max_consecutive_bad) {
    rollback();
  }
  return Verdict::kSkipBatch;
}

void NumericalGuard::after_step() {
  if (!config_.enabled) return;
  state_.consecutive_bad = 0;
  ++state_.good_steps;
  if (state_.good_steps % config_.snapshot_every == 0) take_snapshot();
}

void NumericalGuard::take_snapshot() {
  // Copy in place: with the default snapshot_every == 1 this runs on every
  // accepted step, so reusing the snapshot buffers keeps the steady-state
  // cost to a memcpy instead of a fresh allocation per step.
  good_values_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    good_values_[i] = params_[i]->value();
  }
  optimizer_.state_into(good_opt_);
}

void NumericalGuard::rollback() {
  // Preserve the backed-off learning rate across the restore: the whole
  // point of the rollback+backoff pair is to retry the same region of
  // parameter space with smaller steps.
  const double lr = optimizer_.current_lr();
  nn::restore_values(good_values_, params_);
  optimizer_.set_state(good_opt_);
  optimizer_.set_lr(lr);
  ++counters_.rollbacks;
  state_.consecutive_bad = 0;
}

// ---- shared serving-side robustness primitives -----------------------------

std::size_t scrub_non_finite(Matrix& m, double replacement) {
  std::size_t scrubbed = 0;
  double* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(p[i])) {
      p[i] = replacement;
      ++scrubbed;
    }
  }
  return scrubbed;
}

SanitizeCounts sanitize_reading(const Matrix& values, const Matrix& mask,
                                const data::ZScoreNormalizer& normalizer,
                                Matrix& normalized, Matrix& clean_mask) {
  SanitizeCounts counts;
  for (std::size_t i = 0; i < values.rows(); ++i) {
    for (std::size_t f = 0; f < values.cols(); ++f) {
      const double m = mask(i, f);
      bool observed;
      if (std::isfinite(m) && (m == 0.0 || m == 1.0)) {
        observed = m > 0.5;
      } else {
        ++counts.coerced_mask_entries;
        observed = std::isfinite(m) && m > 0.5;
      }
      if (observed && !std::isfinite(values(i, f))) {
        observed = false;
        ++counts.sanitized_entries;
      }
      double z = 0.0;
      if (observed) {
        z = normalizer.normalize_value(values(i, f), f);
        if (!std::isfinite(z)) {  // degenerate normalizer stats
          observed = false;
          z = 0.0;
          ++counts.sanitized_entries;
        }
      }
      clean_mask(i, f) = observed ? 1.0 : 0.0;
      normalized(i, f) = z;
    }
  }
  return counts;
}

StuckSensorDetector::StuckSensorDetector(std::size_t num_nodes,
                                         std::size_t threshold)
    : threshold_(threshold),
      last_value_(num_nodes, 0.0),
      repeat_runs_(num_nodes, 0),
      stuck_(num_nodes, false) {}

std::size_t StuckSensorDetector::observe_and_demote(Matrix& values,
                                                    Matrix& mask) {
  if (threshold_ == 0 || last_value_.empty()) return 0;
  std::size_t demoted = 0;
  const std::size_t num_features = values.cols();
  for (std::size_t i = 0; i < last_value_.size(); ++i) {
    if (mask(i, 0) <= 0.5) continue;
    const double v = values(i, 0);
    if (repeat_runs_[i] > 0 && v == last_value_[i]) {
      ++repeat_runs_[i];
    } else {
      repeat_runs_[i] = 1;
      last_value_[i] = v;
      stuck_[i] = false;
    }
    if (repeat_runs_[i] >= threshold_) stuck_[i] = true;
    if (stuck_[i]) {
      for (std::size_t f = 0; f < num_features; ++f) {
        mask(i, f) = 0.0;
        values(i, f) = 0.0;
      }
      ++demoted;
    }
  }
  return demoted;
}

ReadingBuffer::ReadingBuffer(std::size_t num_nodes, std::size_t num_features,
                             std::size_t lookback, std::size_t steps_per_day,
                             std::size_t start_slot,
                             std::size_t stuck_threshold)
    : num_nodes_(num_nodes),
      num_features_(num_features),
      lookback_(lookback),
      steps_per_day_(steps_per_day),
      start_slot_(start_slot % std::max<std::size_t>(1, steps_per_day)),
      detector_(num_nodes, stuck_threshold) {}

std::size_t ReadingBuffer::push(Matrix values, Matrix mask) {
  // Normalization is affine and injective, so run-length equality on
  // normalized values matches the original-unit stuck semantics.
  const std::size_t demoted = detector_.observe_and_demote(values, mask);
  values_.push_back(std::move(values));
  masks_.push_back(std::move(mask));
  if (values_.size() > lookback_) {
    values_.pop_front();
    masks_.pop_front();
  }
  ++seen_;
  return demoted;
}

data::Window ReadingBuffer::window() const {
  data::Window w;
  const std::size_t pad = lookback_ - values_.size();
  // The padded window starts `lookback` slots before the next reading.
  w.slot = (next_slot() + steps_per_day_ * lookback_ - lookback_) %
           steps_per_day_;
  w.start = 0;
  for (std::size_t k = 0; k < pad; ++k) {
    w.x_obs.emplace_back(num_nodes_, num_features_);
    w.x_mask.emplace_back(num_nodes_, num_features_);
  }
  w.x_obs.insert(w.x_obs.end(), values_.begin(), values_.end());
  w.x_mask.insert(w.x_mask.end(), masks_.begin(), masks_.end());
  return w;
}

}  // namespace rihgcn::core
