#include "timeseries/profile.hpp"

#include <stdexcept>

namespace rihgcn::ts {

HistoricalProfile::HistoricalProfile(std::span<const Matrix> values,
                                     std::span<const Matrix> mask,
                                     std::size_t steps_per_day,
                                     std::size_t feature) {
  if (values.empty()) {
    throw std::invalid_argument("HistoricalProfile: empty series");
  }
  if (values.size() != mask.size()) {
    throw std::invalid_argument("HistoricalProfile: values/mask length differ");
  }
  if (steps_per_day == 0) {
    throw std::invalid_argument("HistoricalProfile: steps_per_day == 0");
  }
  const std::size_t n = values.front().rows();
  if (feature >= values.front().cols()) {
    throw std::invalid_argument("HistoricalProfile: feature out of range");
  }
  profiles_ = Matrix(n, steps_per_day);
  Matrix counts(n, steps_per_day);
  Matrix node_sum(n, 1);
  Matrix node_count(n, 1);
  for (std::size_t t = 0; t < values.size(); ++t) {
    const Matrix& x = values[t];
    const Matrix& m = mask[t];
    if (x.rows() != n || !x.same_shape(m)) {
      throw ShapeError("HistoricalProfile: inconsistent shapes across time");
    }
    const std::size_t slot = t % steps_per_day;
    for (std::size_t i = 0; i < n; ++i) {
      if (m(i, feature) > 0.5) {
        profiles_(i, slot) += x(i, feature);
        counts(i, slot) += 1.0;
        node_sum(i, 0) += x(i, feature);
        node_count(i, 0) += 1.0;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double fallback =
        node_count(i, 0) > 0.0 ? node_sum(i, 0) / node_count(i, 0) : 0.0;
    for (std::size_t s = 0; s < steps_per_day; ++s) {
      profiles_(i, s) =
          counts(i, s) > 0.0 ? profiles_(i, s) / counts(i, s) : fallback;
    }
  }
}

Matrix HistoricalProfile::day_profile(std::size_t coarse_slots) const {
  const std::size_t fine = steps_per_day();
  if (coarse_slots == 0 || coarse_slots > fine) {
    throw std::invalid_argument("day_profile: bad coarse_slots");
  }
  const std::size_t n = num_nodes();
  Matrix out(coarse_slots, n);
  std::vector<double> cnt(coarse_slots, 0.0);
  for (std::size_t s = 0; s < fine; ++s) {
    const std::size_t c = s * coarse_slots / fine;
    for (std::size_t i = 0; i < n; ++i) out(c, i) += profiles_(i, s);
    cnt[c] += 1.0;
  }
  for (std::size_t c = 0; c < coarse_slots; ++c) {
    for (std::size_t i = 0; i < n; ++i) out(c, i) /= cnt[c];
  }
  return out;
}

Matrix HistoricalProfile::interval_series(std::size_t s0,
                                          std::size_t s1) const {
  if (s0 == s1 || s0 >= steps_per_day() || s1 > steps_per_day()) {
    throw std::invalid_argument("interval_series: bad range");
  }
  if (s0 < s1) return profiles_.slice_cols(s0, s1);
  // Wrapping interval (circular partitions): [s0, end) ++ [0, s1).
  return hcat(profiles_.slice_cols(s0, steps_per_day()),
              profiles_.slice_cols(0, s1));
}

}  // namespace rihgcn::ts
