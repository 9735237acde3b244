// Deterministic fault injection for robustness testing (DESIGN.md §11).
//
// Real sensor networks fail in characteristic ways that a Bernoulli missing
// mask does not capture: a flaky unit emits NaN for a stretch, a frozen
// register repeats one value, electrical noise produces absurd spikes, a
// sensor goes offline for hours, and an upstream feed drops whole timesteps.
// FaultInjector corrupts a TrafficDataset in place with each of those modes,
// driven by a seeded Rng so every fault pattern is exactly reproducible —
// the robustness test suite (tests/test_robust.cpp) asserts that training
// survives each class with finite parameters and that the NumericalGuard
// counters register the damage.
//
// Conventions:
//   * Faults corrupt `truth` DIRECTLY and leave `mask` claiming the entry is
//     observed (except sensor_dropout / feed_gap, which clear the mask the
//     way a real outage would). A corrupted-but-"observed" entry is exactly
//     the hard case the guards exist for.
//   * All methods return FaultStats describing what was injected, so tests
//     can assert non-trivial corruption actually happened.
#pragma once

#include <cstddef>
#include <cstdint>

#include "data/dataset.hpp"
#include "tensor/rng.hpp"

namespace rihgcn::data {

/// What one injection call actually did (for test assertions / logging).
struct FaultStats {
  std::size_t entries_corrupted = 0;  ///< truth entries overwritten
  std::size_t entries_masked = 0;     ///< mask entries cleared to 0
  std::size_t events = 0;             ///< bursts / stuck runs / gaps started
};

/// Seeded, repeatable corruption of a TrafficDataset.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

  /// NaN bursts: each (node, feature) stream independently starts a burst
  /// with probability `rate` per timestep; a burst overwrites the next
  /// geometric(mean_len) observed entries with quiet NaN while the mask
  /// still claims them observed.
  FaultStats nan_burst(TrafficDataset& ds, double rate, double mean_len = 3.0);

  /// Stuck-at: a `fraction` of nodes freeze — for `duration` consecutive
  /// timesteps starting at a random offset, every feature repeats the value
  /// it had when the fault began (mask untouched).
  FaultStats stuck_at(TrafficDataset& ds, double fraction,
                      std::size_t duration);

  /// Spikes: each observed entry is independently replaced, with probability
  /// `rate`, by `magnitude` times the largest absolute value in the series
  /// (sign random) — the classic electrical-glitch outlier.
  FaultStats spike(TrafficDataset& ds, double rate, double magnitude = 100.0);

  /// Sensor dropout: a `fraction` of nodes go fully dark (mask cleared on
  /// every feature) for `duration` consecutive timesteps at a random offset.
  FaultStats sensor_dropout(TrafficDataset& ds, double fraction,
                            std::size_t duration);

  /// Feed gap: `len` consecutive whole timesteps lose ALL observations
  /// (mask cleared everywhere), starting at a random offset.
  FaultStats feed_gap(TrafficDataset& ds, std::size_t len);

  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  Rng rng_;
};

}  // namespace rihgcn::data
