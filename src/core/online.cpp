#include "core/online.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace rihgcn::core {

OnlineForecaster::OnlineForecaster(ForecastModel& model,
                                   const data::ZScoreNormalizer& normalizer,
                                   std::size_t num_nodes,
                                   std::size_t num_features,
                                   std::size_t lookback, std::size_t horizon,
                                   std::size_t steps_per_day,
                                   std::size_t start_slot)
    : model_(model),
      normalizer_(normalizer),
      num_nodes_(num_nodes),
      num_features_(num_features),
      lookback_(lookback),
      horizon_(horizon),
      buffer_(num_nodes, num_features, lookback, steps_per_day, start_slot,
              /*stuck_threshold=*/12) {
  if (num_nodes == 0 || num_features == 0 || lookback == 0 || horizon == 0 ||
      steps_per_day == 0) {
    throw std::invalid_argument("OnlineForecaster: zero dimension");
  }
}

void OnlineForecaster::push_reading(const Matrix& values, const Matrix& mask) {
  if (values.rows() != num_nodes_ || values.cols() != num_features_ ||
      !values.same_shape(mask)) {
    throw ShapeError("OnlineForecaster::push_reading: shape mismatch");
  }
  // Sanitize on ingest: a live feed can carry NaN/Inf where a well-behaved
  // one would report a gap, and mask bits arrive as arbitrary doubles.
  // Corrupt entries are demoted to missing — the imputation machinery then
  // treats them exactly like any other gap — and never stored. The buffer
  // then demotes stuck sensors. Both steps are the shared core/robust
  // primitives ForecastServer uses.
  Matrix normalized(num_nodes_, num_features_);
  Matrix clean_mask(num_nodes_, num_features_);
  const SanitizeCounts counts =
      sanitize_reading(values, mask, normalizer_, normalized, clean_mask);
  sanitized_entries_ += counts.sanitized_entries;
  coerced_mask_entries_ += counts.coerced_mask_entries;
  stuck_demotions_ +=
      buffer_.push(std::move(normalized), std::move(clean_mask));
  memo_valid_ = false;  // the window changed; push_gap routes through here too
}

void OnlineForecaster::push_gap() {
  push_reading(Matrix(num_nodes_, num_features_),
               Matrix(num_nodes_, num_features_));
}

data::Window OnlineForecaster::make_window() const {
  if (buffer_.seen() == 0) {
    throw std::logic_error("OnlineForecaster: no readings pushed yet");
  }
  return buffer_.window(horizon_);
}

Matrix OnlineForecaster::robust_predict(const data::Window& w) {
  Matrix pred;
  bool primary_ok = false;
  try {
    pred = model_.predict(w);
    primary_ok = pred.rows() == num_nodes_ && pred.cols() == horizon_ &&
                 !pred.has_non_finite();
  } catch (const std::exception&) {
    // A throwing primary with no fallback is unrecoverable — surface it.
    if (fallback_ == nullptr) throw;
  }
  if (primary_ok) {
    ++model_forecasts_;
    return pred;
  }
  ++fallback_forecasts_;
  if (fallback_ != nullptr) {
    try {
      Matrix fb = fallback_->predict(w);
      if (fb.rows() == num_nodes_ && fb.cols() == horizon_) {
        pred = std::move(fb);
      }
    } catch (const std::exception&) {
      // Both models failed; fall through to the scrubbed primary output
      // (or zeros if the primary threw too).
    }
  }
  if (pred.rows() != num_nodes_ || pred.cols() != horizon_) {
    pred = Matrix(num_nodes_, horizon_);  // zeros = historical mean
  }
  // Normalized-space historical mean — the shared scrub semantics.
  scrubbed_outputs_ += scrub_non_finite(pred);
  return pred;
}

Matrix OnlineForecaster::forecast() {
  if (memo_valid_) {
    ++memoized_forecasts_;
    return memo_forecast_;
  }
  const data::Window w = make_window();
  // A throw below (no-readings, unrecoverable primary) leaves memo_valid_
  // false — failures are never cached.
  Matrix pred = robust_predict(w);
  for (std::size_t i = 0; i < pred.rows(); ++i) {
    for (std::size_t h = 0; h < pred.cols(); ++h) {
      pred(i, h) = normalizer_.denormalize(pred(i, h), 0);
    }
  }
  memo_forecast_ = pred;
  memo_valid_ = true;
  return pred;
}

std::vector<Matrix> OnlineForecaster::completed_history() {
  const data::Window w = make_window();
  std::vector<Matrix> filled = model_.impute(w);
  // Drop the warm-up padding; scrub and denormalize the real part.
  const std::size_t pad = lookback_ - buffer_.masks().size();
  std::vector<Matrix> out;
  for (std::size_t k = pad; k < filled.size(); ++k) {
    Matrix m = filled[k];
    scrubbed_outputs_ += scrub_non_finite(m);
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t f = 0; f < m.cols(); ++f) {
        m(i, f) = normalizer_.denormalize(m(i, f), f);
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

HealthReport OnlineForecaster::health() const {
  HealthReport h;
  h.buffer_coverage = buffer_coverage();
  h.readings_seen = buffer_.seen();
  h.sanitized_entries = sanitized_entries_;
  h.coerced_mask_entries = coerced_mask_entries_;
  h.stuck_demotions = stuck_demotions_;
  h.model_forecasts = model_forecasts_;
  h.fallback_forecasts = fallback_forecasts_;
  h.memoized_forecasts = memoized_forecasts_;
  h.scrubbed_outputs = scrubbed_outputs_;
  // Suspects: sensors currently flagged stuck, plus sensors dead (zero
  // observed entries) across a completely full buffer.
  h.suspect_sensors = find_suspect_sensors(
      buffer_.detector().flags(), buffer_.masks(), num_nodes_,
      /*buffer_full=*/buffer_.masks().size() == lookback_);
  return h;
}

double OnlineForecaster::buffer_coverage() const {
  if (buffer_.masks().empty()) return 0.0;
  double observed = 0.0, total = 0.0;
  for (const Matrix& m : buffer_.masks()) {
    observed += m.sum();
    total += static_cast<double>(m.size());
  }
  return observed / total;
}

std::string model_summary(ForecastModel& model) {
  std::ostringstream os;
  os << "Model: " << model.name() << "\n";
  os << std::left << std::setw(28) << "parameter" << std::setw(12) << "shape"
     << std::right << std::setw(10) << "count" << "\n";
  os << std::string(50, '-') << "\n";
  std::size_t total = 0;
  for (const ad::Parameter* p : model.parameters()) {
    std::ostringstream shape;
    shape << p->value().rows() << "x" << p->value().cols();
    os << std::left << std::setw(28)
       << (p->name().empty() ? "<unnamed>" : p->name()) << std::setw(12)
       << shape.str() << std::right << std::setw(10) << p->size() << "\n";
    total += p->size();
  }
  os << std::string(50, '-') << "\n";
  os << std::left << std::setw(40) << "total" << std::right << std::setw(10)
     << total << "\n";
  return os.str();
}

}  // namespace rihgcn::core
